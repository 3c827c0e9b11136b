"""Service provider: gates a protected resource behind SSO, consumes
encrypted assertions with replay protection, and mints short-lived
bearer sessions.

HTTP surface:
  GET  /resource   -> 200 (valid X-Session) | 302 redirect to the IdP
                      carrying a SAMLRequest | 401 (bad/expired session)
  POST /acs        -> 200 with an X-Session token, or 403 with the reason

Validation precedes the replay check so the replay cache only ever holds
authenticated assertion ids; replay entries expire once the time window
alone would reject the assertion.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from random import Random
from typing import Callable, Optional
from urllib.parse import quote

from . import cipher
from . import keyexchange as kx
from . import saml
from .expiring import ExpiringSet, ExpiringTable
from .httpbase import MAX_DURATION, ServiceHandler, SkewableClock
from .keystore import KeyStore

log = logging.getLogger("hbesso.sp")

UNKNOWN_REQUEST = "unknown-request"
REPLAYED = "replayed"

SESSION_HEADER = "X-Session"


@dataclass
class SpConfig:
    entity_id: str
    acs_url: str
    idp_url: str
    federation_key_id: str
    clock_skew: float = 30.0
    session_lifetime: float = 600.0
    pending_expiry: float = 300.0
    listen_address: str = "127.0.0.1:8444"


@dataclass(frozen=True)
class ResourceSession:
    token: str
    subject: str
    expires_at: float


class ReplayCache(ExpiringSet):
    """Consumed assertion ids until they expire; check-and-insert is atomic."""

    def check_and_insert(self, assertion_id: str, expires_at: float, now: float) -> bool:
        """True iff the id was absent (and is now recorded)."""
        return self.add(assertion_id, expires_at, now)


class PendingRequests(ExpiringSet):
    """Outstanding AuthnRequest ids until their pending window passes.

    A consumed entry stays recognizable until expiry so a replayed response
    is rejected as `replayed` (by the replay cache) rather than mistaken
    for a response to a never-issued request.
    """

    def known(self, request_id: str, now: float) -> bool:
        return self.live(request_id, now)


class ServiceProvider:
    def __init__(
        self,
        config: SpConfig,
        key_store: KeyStore,
        clock: Callable[[], float] = time.time,
        rng: Optional[Random] = None,
    ) -> None:
        key_store.get(config.federation_key_id)
        for name in ("session_lifetime", "pending_expiry"):
            if not getattr(config, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(config, name)}")
        if not config.clock_skew >= 0:
            raise ValueError(f"clock_skew must not be negative, got {config.clock_skew}")
        for name in ("session_lifetime", "pending_expiry", "clock_skew"):
            if getattr(config, name) > MAX_DURATION:
                raise ValueError(f"{name} must be at most {MAX_DURATION}, got {getattr(config, name)}")
        self.config = config
        self.key_store = key_store
        self.clock = SkewableClock(clock)
        self.rng = rng
        self.pending = PendingRequests()
        self.replay_cache = ReplayCache()
        # session token -> subject
        self.sessions = ExpiringTable()

    @property
    def _federation_schedule(self) -> cipher.KeySchedule:
        return self.key_store.schedule(self.config.federation_key_id)

    def gate_resource(self) -> tuple[saml.AuthnRequest, str]:
        """Fresh AuthnRequest plus the redirect URL that carries it."""
        now = self.clock()
        request = saml.build_authn_request(
            self.config.entity_id, self.config.acs_url, now, rng=self.rng
        )
        self.pending.add(request.id, now + self.config.pending_expiry, now)
        redirect = f"{self.config.idp_url}/sso?SAMLRequest={quote(saml.encode_message(request))}"
        return request, redirect

    def consume_response(self, response: saml.SsoResponse) -> ResourceSession:
        """Validate an SSO response and mint a session.

        Check order: pending request, assertion validation (tag first),
        replay, then consumption.  Raises :class:`saml.Reject`.
        """
        now = self.clock()
        if not self.pending.known(response.in_response_to, now):
            raise saml.Reject(UNKNOWN_REQUEST)
        assertion = saml.decrypt_validate(
            response.encrypted_assertion,
            self._federation_schedule,
            now=now,
            skew=self.config.clock_skew,
            audience=self.config.entity_id,
        )
        replay_expiry = assertion.not_on_or_after + self.config.clock_skew
        if not self.replay_cache.check_and_insert(assertion.id, replay_expiry, now):
            raise saml.Reject(REPLAYED)
        session = ResourceSession(
            token=kx.fresh_id(self.rng),
            subject=assertion.subject,
            expires_at=now + self.config.session_lifetime,
        )
        self.sessions.add(session.token, session.subject, session.expires_at, now)
        log.info("session minted for %s (assertion %s)", assertion.subject, assertion.id)
        return session

    def serve_resource(self, token: str) -> Optional[str]:
        """Demo resource body for a valid session, else None."""
        subject = self.sessions.get(token, self.clock())
        if subject is None:
            return None
        return f"protected resource for {subject}\n"


class SpHandler(ServiceHandler):
    def resource(self, query: dict[str, str]) -> None:
        sp: ServiceProvider = self.service
        token = self.headers.get(SESSION_HEADER)
        if token is None:
            _, redirect = sp.gate_resource()
            self.respond(302, "redirect to identity provider", headers={"Location": redirect})
            return
        body = sp.serve_resource(token)
        if body is None:
            raise saml.Reject("unauthorized", 401)
        self.respond(200, body)

    def acs(self, form: dict[str, str]) -> None:
        try:
            response = saml.decode_message(form.get("SAMLResponse", ""), saml.SsoResponse)
        except saml.MalformedXml:
            raise saml.Reject(saml.MALFORMED) from None
        session = self.service.consume_response(response)
        self.respond(
            200,
            f"authenticated {session.subject}",
            headers={SESSION_HEADER: session.token},
        )

    routes = {("GET", "/resource"): resource, ("POST", "/acs"): acs}

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

import base64
import logging
import time
from dataclasses import dataclass
from random import Random
from typing import Callable, Optional
from urllib.parse import quote

from . import keyexchange as kx
from . import saml
from .expiring import ExpiringTable
from .httpbase import ServiceHandler, SkewableClock
from .keystore import KeyStore

log = logging.getLogger("hbesso.sp")

UNKNOWN_REQUEST = "unknown-request"
REPLAYED = "replayed"
MALFORMED = "malformed"

SESSION_HEADER = "X-Session"


class SpReject(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class SpConfig:
    entity_id: str
    acs_url: str
    idp_url: str
    federation_key_id: str
    clock_skew: float = saml.DEFAULT_CLOCK_SKEW
    session_lifetime: float = 600.0
    pending_expiry: float = 300.0
    listen_address: str = "127.0.0.1:8444"


@dataclass(frozen=True)
class ResourceSession:
    token: str
    subject: str
    expires_at: float


class ReplayCache(ExpiringTable):
    """Consumed assertion ids until they expire; check-and-insert is atomic."""

    def check_and_insert(self, assertion_id: str, expires_at: float, now: float) -> bool:
        """True iff the id was absent (and is now recorded)."""
        return self.add(assertion_id, True, expires_at, now)


class PendingRequests(ExpiringTable):
    """Outstanding AuthnRequest ids until their pending window passes.

    A consumed entry stays recognizable until expiry so a replayed response
    is rejected as `replayed` (by the replay cache) rather than mistaken
    for a response to a never-issued request.
    """

    def known(self, request_id: str, now: float) -> bool:
        return self.get(request_id, now) is not None


class ServiceProvider:
    def __init__(
        self,
        config: SpConfig,
        key_store: KeyStore,
        clock: Callable[[], float] = time.time,
        rng: Optional[Random] = None,
    ) -> None:
        key_store.get(config.federation_key_id)
        self.config = config
        self.key_store = key_store
        self.clock = SkewableClock(clock)
        self.rng = rng
        self.pending = PendingRequests()
        self.replay_cache = ReplayCache()
        self.sessions = ExpiringTable()

    @property
    def _federation_key(self) -> bytes:
        return self.key_store.get(self.config.federation_key_id)

    def gate_resource(self) -> tuple[saml.AuthnRequest, str]:
        """Fresh AuthnRequest plus the redirect URL that carries it."""
        now = self.clock()
        request = saml.build_authn_request(
            self.config.entity_id, self.config.acs_url, now, rng=self.rng
        )
        self.pending.add(request.id, True, now + self.config.pending_expiry, now)
        encoded = base64.b64encode(saml.serialize(request)).decode("ascii")
        redirect = f"{self.config.idp_url}/sso?SAMLRequest={quote(encoded)}"
        return request, redirect

    def consume_response(self, response: saml.SsoResponse) -> ResourceSession:
        """Validate an SSO response and mint a session.

        Check order: pending request, assertion validation (tag first),
        replay, then consumption.  Raises :class:`SpReject`.
        """
        now = self.clock()
        if not self.pending.known(response.in_response_to, now):
            raise SpReject(UNKNOWN_REQUEST)
        try:
            assertion = saml.decrypt_validate(
                response.encrypted_assertion,
                self._federation_key,
                now=now,
                skew=self.config.clock_skew,
                audience=self.config.entity_id,
            )
        except saml.AssertionReject as reject:
            raise SpReject(reject.reason) from None
        replay_expiry = assertion.not_on_or_after + self.config.clock_skew
        if not self.replay_cache.check_and_insert(assertion.id, replay_expiry, now):
            raise SpReject(REPLAYED)
        session = ResourceSession(
            token=kx.rand_bytes(self.rng, 16).hex(),
            subject=assertion.subject,
            expires_at=now + self.config.session_lifetime,
        )
        self.sessions.add(session.token, session, session.expires_at, now)
        log.info("session minted for %s (assertion %s)", assertion.subject, assertion.id)
        return session

    def serve_resource(self, token: str) -> Optional[str]:
        """Demo resource body for a valid session, else None."""
        session = self.sessions.get(token, self.clock())
        if session is None:
            return None
        return f"protected resource for {session.subject}\n"


class SpHandler(ServiceHandler):
    def do_GET(self):
        self.apply_test_clock()
        sp: ServiceProvider = self.service
        if self.path.split("?")[0] != "/resource":
            self.respond(404, "not found")
            return
        token = self.headers.get(SESSION_HEADER)
        if token is None:
            _, redirect = sp.gate_resource()
            self.respond(302, "redirect to identity provider", headers={"Location": redirect})
            return
        body = sp.serve_resource(token)
        if body is None:
            self.respond(401, "unauthorized")
            return
        self.respond(200, body)

    def do_POST(self):
        self.apply_test_clock()
        sp: ServiceProvider = self.service
        fields = self.form()  # always drain the body; connections are reused
        if self.path != "/acs":
            self.respond(404, "not found")
            return
        try:
            response = saml.decode_message(fields.get("SAMLResponse", ""), saml.SsoResponse)
        except saml.SamlError:
            self.respond(403, MALFORMED)
            return
        try:
            session = sp.consume_response(response)
        except SpReject as reject:
            log.info("acs rejected: %s", reject.reason)
            self.respond(403, reject.reason)
            return
        self.respond(
            200,
            f"authenticated {session.subject}",
            headers={SESSION_HEADER: session.token},
        )

"""Identity provider: user directory, registration, PIN challenge-response
authentication, and SSO response issuance.

The directory file holds one record per line (tab-separated, binary fields
base64): user id, salt, sealed long-term key, created-at.  Long-term keys
are stored sealed under the IdP master key, never in plaintext, and PINs
are never stored at all.

HTTP surface:
  GET  /challenge?user=U      -> challenge XML (id, nonce, expiry, salt,
                                 KDF iterations), 400 invalid-user
  POST /sso                   -> SAMLResponse (form-encoded) or 403 reason
  POST /register              -> 201, 409 duplicate-user, 400 invalid-user
                                 or 400 invalid-pin
"""

from __future__ import annotations

import base64
import logging
import os
import threading
import time
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Optional

from . import cipher
from . import keyexchange as kx
from . import saml
from .httpbase import MAX_DURATION, ServiceHandler, SkewableClock, form_encode
from .keyexchange import Challenge, SealedPayload
from .keystore import KeyStore, fsync_directory, replace_file

log = logging.getLogger("hbesso.idp")

UNKNOWN_SP = "unknown-sp"
DUPLICATE_USER = "duplicate-user"
INVALID_PIN = "invalid-pin"
INVALID_USER = "invalid-user"
# the sealed payload's key-id limit; it also caps the CPU one id can buy
MAX_USER_ID_OCTETS = 255


class CorruptDirectoryError(Exception):
    pass


@dataclass(frozen=True)
class UserRecord:
    user_id: str
    salt: bytes
    wrapped_ltk: SealedPayload
    created_at: int


@dataclass
class IdpConfig:
    entity_id: str
    master_key_id: str
    # SP entity id -> federation key id (keys resolve in the key store)
    federation_keys: dict[str, str] = field(default_factory=dict)
    assertion_lifetime: float = 300.0
    challenge_expiry: float = kx.DEFAULT_CHALLENGE_EXPIRY
    kdf_iterations: int = kx.DEFAULT_KDF_ITERATIONS
    listen_address: str = "127.0.0.1:8443"
    directory_path: Optional[str] = None


class UserDirectory:
    """Registered identities; given a path, only this class reads the file
    (on open) and writes it.  `add` is a registration's one critical section:
    it refuses a known id with 409, appends and fsyncs a line, then shows it."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self._records: dict[str, UserRecord] = {}
        self._lock = threading.Lock()
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ValueError(f"directory_path {path}: its directory does not exist")
        if path and os.path.exists(path):
            self._load()

    def __len__(self) -> int:
        return len(self._records)

    def get(self, user_id: str) -> Optional[UserRecord]:
        with self._lock:
            return self._records.get(user_id)

    def add(self, record: UserRecord) -> None:
        with self._lock:
            if record.user_id in self._records:
                raise saml.Reject(DUPLICATE_USER, 409)
            if self.path:
                fh = open(self.path, "a", encoding="utf-8")
                size = fh.tell()
                try:
                    with fh:
                        fh.write(_record_line(record))
                        fh.flush()
                        os.fsync(fh.fileno())
                except BaseException:
                    os.truncate(self.path, size)  # a failed append leaves no line
                    raise
                if size == 0:  # the first line: make the file's name durable too
                    fsync_directory(self.path)
            self._records[record.user_id] = record

    def records(self) -> list[UserRecord]:
        with self._lock:
            return list(self._records.values())

    def _load(self) -> None:
        """Load every complete line; any corrupt record aborts the whole load.
        A last line without its newline was never acknowledged: cut it off."""
        with open(self.path, "r+b") as fh:
            data = fh.read()
            end = data.rfind(b"\n") + 1
            if end < len(data):
                fh.truncate(end)
        # split on newlines only: a user id may hold any other line break
        for lineno, line in enumerate(data[:end].split(b"\n")[:-1], start=1):
            if not line:
                continue
            try:
                user_id, salt_b64, wrapped, created = line.decode("utf-8").split("\t")
                record = UserRecord(
                    user_id=user_id,
                    salt=base64.b64decode(salt_b64, validate=True),
                    wrapped_ltk=kx.decode_payload(wrapped),
                    created_at=int(created),
                )
                if len(record.salt) != 16:
                    raise ValueError("salt must be 16 octets")
                if user_id in self._records:
                    raise ValueError(f"repeated user id {user_id!r}")
            except Exception as exc:
                raise CorruptDirectoryError(f"{self.path} line {lineno}: {exc}") from exc
            self._records[user_id] = record


def _record_line(record: UserRecord) -> str:
    salt = base64.b64encode(record.salt).decode("ascii")
    wrapped = kx.encode_payload(record.wrapped_ltk)
    return f"{record.user_id}\t{salt}\t{wrapped}\t{record.created_at}\n"


def persist_directory(directory: UserDirectory, path: str) -> None:
    """Crash-safe snapshot of every record (see `keystore.replace_file`)."""
    replace_file(path, map(_record_line, directory.records()))


class IdentityProvider:
    def __init__(
        self,
        config: IdpConfig,
        key_store: KeyStore,
        clock: Callable[[], float] = time.time,
        rng: Optional[Random] = None,
    ) -> None:
        key_store.get(config.master_key_id)  # every referenced id must resolve
        for sp, key_id in config.federation_keys.items():
            key_store.get(key_id)
        if config.kdf_iterations < 1:
            raise ValueError(f"kdf_iterations must be at least 1, got {config.kdf_iterations}")
        if not config.assertion_lifetime >= 1:  # assertions carry whole seconds
            raise ValueError(f"assertion_lifetime must be at least 1, got {config.assertion_lifetime}")
        if not config.challenge_expiry > 0:
            raise ValueError(f"challenge_expiry must be positive, got {config.challenge_expiry}")
        for name in ("assertion_lifetime", "challenge_expiry"):
            if getattr(config, name) > MAX_DURATION:
                raise ValueError(f"{name} must be at most {MAX_DURATION}, got {getattr(config, name)}")
        self.config = config
        self.key_store = key_store
        self.directory = UserDirectory(config.directory_path)
        self.clock = SkewableClock(clock)
        self.rng = rng
        self.challenges = kx.ChallengeStore(
            expiry=config.challenge_expiry, clock=self.clock, rng=rng
        )

    @property
    def _master_schedule(self) -> cipher.KeySchedule:
        return self.key_store.schedule(self.config.master_key_id)

    def register_user(self, user_id: str, pin: bytes) -> UserRecord:
        """Create and persist a user record; the success reply comes after
        the record hits disk.  A refusal raises :class:`saml.Reject`."""
        check_user_id(user_id)
        if self.directory.get(user_id) is not None:
            raise saml.Reject(DUPLICATE_USER, 409)
        salt = kx.rand_bytes(self.rng, 16)
        try:
            ltk = kx.derive_long_term_key(pin, salt, self.config.kdf_iterations)
        except ValueError:
            raise saml.Reject(INVALID_PIN, 400) from None
        wrapped = kx.seal(
            self._master_schedule,
            kx.fresh_nonce(self.rng),
            ltk,
            aad=user_id.encode("utf-8"),
            key_id=self.config.master_key_id,
        )
        record = UserRecord(
            user_id=user_id,
            salt=salt,
            wrapped_ltk=wrapped,
            created_at=int(self.clock()),
        )
        self.directory.add(record)
        log.info("registered user %s", user_id)
        return record

    def issue_challenge(self, user_id: str) -> tuple[Challenge, bytes]:
        """Challenge plus the user's salt.

        Unknown users get a real (consumable) challenge and a stable dummy
        salt so the error shape does not leak whether the user exists;
        verification will end in reject-auth.
        """
        check_user_id(user_id)
        record = self.directory.get(user_id)
        salt = record.salt if record else self._dummy_salt(user_id)
        return self.challenges.issue(user_id), salt

    def _dummy_salt(self, user_id: str) -> bytes:
        # cipher-based CBC absorption of the user id under the master key;
        # deterministic so repeated probes see one consistent salt
        schedule = self._master_schedule
        data = user_id.encode("utf-8") + b"\x80"
        data += bytes(-len(data) % 16)
        state = 0
        for i in range(0, len(data), 16):
            block = (state ^ int.from_bytes(data[i : i + 16], "big")).to_bytes(16, "big")
            state = int.from_bytes(cipher.encrypt_block(block, schedule), "big")
        return state.to_bytes(16, "big")

    def _user_ltk(self, user_id: str) -> Optional[bytes]:
        record = self.directory.get(user_id)
        if record is None:
            return None
        return kx.open_sealed(
            self._master_schedule, record.wrapped_ltk, aad=user_id.encode("utf-8")
        )

    def handle_sso(
        self,
        user_id: str,
        challenge_id: str,
        answer: bytes,
        request: saml.AuthnRequest,
    ) -> saml.SsoResponse:
        """Second SSO leg: verify the challenge answer, then issue the
        encrypted assertion.  Raises :class:`saml.Reject` with the reason."""
        fed_key_id = self.config.federation_keys.get(request.sp_entity_id)
        if fed_key_id is None:
            raise saml.Reject(UNKNOWN_SP)
        ltk = self._user_ltk(user_id)
        if ltk is None:
            # burn the challenge with an unusable key: unknown users look
            # exactly like a wrong PIN
            ltk = kx.rand_bytes(self.rng, 16)
        result = self.challenges.verify(ltk, challenge_id, user_id, answer)
        if result != kx.ACCEPT:
            raise saml.Reject(result)
        assertion = saml.build_assertion(
            issuer=self.config.entity_id,
            subject=user_id,
            audience=request.sp_entity_id,
            now=self.clock(),
            lifetime=self.config.assertion_lifetime,
            rng=self.rng,
        )
        encrypted = saml.encrypt_assertion(
            assertion, self.key_store.schedule(fed_key_id), fed_key_id, rng=self.rng
        )
        log.info("issued assertion %s for %s -> %s", assertion.id, user_id, request.sp_entity_id)
        return saml.SsoResponse(
            in_response_to=request.id,
            issuer=self.config.entity_id,
            encrypted_assertion=encrypted,
        )


def check_user_id(user_id: str) -> None:
    """400 invalid-user unless the id is 1 to MAX_USER_ID_OCTETS in UTF-8 and
    holds no tab or newline (the directory's field and record separators).
    The rule reads the id alone, so it says nothing about who is registered."""
    octets = user_id.encode("utf-8")
    if not 0 < len(octets) <= MAX_USER_ID_OCTETS or b"\t" in octets or b"\n" in octets:
        raise saml.Reject(INVALID_USER, 400)


class IdpHandler(ServiceHandler):
    def challenge(self, query: dict[str, str]) -> None:
        user = query.get("user")
        if not user:
            raise saml.Reject("missing user parameter", 400)
        idp: IdentityProvider = self.service
        ch, salt = idp.issue_challenge(user)
        self.respond(
            200,
            saml.challenge_document(ch, salt, idp.config.kdf_iterations),
            content_type="application/xml",
        )

    def register(self, form: dict[str, str]) -> None:
        self.service.register_user(form.get("user", ""), form.get("pin", "").encode("utf-8"))
        self.respond(201, "created")

    def sso(self, form: dict[str, str]) -> None:
        try:
            request = saml.decode_message(form.get("SAMLRequest", ""), saml.AuthnRequest)
            answer = base64.b64decode(form.get("answer", ""), validate=True)
        except ValueError:
            raise saml.Reject(saml.MALFORMED, 400) from None
        response = self.service.handle_sso(
            user_id=form.get("user", ""),
            challenge_id=form.get("challenge-id", ""),
            answer=answer,
            request=request,
        )
        self.respond(
            200,
            form_encode({"SAMLResponse": saml.encode_message(response)}),
            content_type="application/x-www-form-urlencoded",
        )

    routes = {("GET", "/challenge"): challenge, ("POST", "/register"): register, ("POST", "/sso"): sso}

"""Key exchange layer: PIN-derived long-term keys, seal/open authenticated
encryption and challenge-response authentication.

seal/open compose the block cipher in counter mode with the poly MAC
(encrypt-then-MAC).  Per message, counter blocks 0 and 1 of the keystream
become the one-time MAC key (r clamped from block 0, mask s from block 1);
payload keystream starts at counter 2.  The tag covers
aad || nonce || ciphertext || len64(aad) || len64(ciphertext).

Verification always precedes decryption: no plaintext is released on tag
failure, and tampering, wrong keys and truncation are indistinguishable.
"""

from __future__ import annotations

import base64
import binascii
import os
import time
from dataclasses import dataclass
from random import Random
from typing import Callable, Optional, Union

from . import cipher, polymac
from .expiring import ExpiringTable
from .polymac import MacKey, compare_digest, mac_compute

KEY_SIZE = 16
NONCE_SIZE = 12
DEFAULT_KDF_ITERATIONS = 10_000
DEFAULT_CHALLENGE_EXPIRY = 60.0

ACCEPT = "accept"
REJECT_AUTH = "reject-auth"
REJECT_EXPIRED = "reject-expired"
REJECT_REPLAY = "reject-replay"


# seal/open key: raw key octets, or a schedule a caller expanded once and keeps
SealKey = Union[bytes, cipher.KeySchedule]


class SealRejected(Exception):
    """Tag verification failed; the cause is deliberately not disclosed."""


def rand_bytes(rng: Optional[Random], n: int) -> bytes:
    """n random octets from `rng` if given (deterministic tests), else the OS."""
    return rng.randbytes(n) if rng is not None else os.urandom(n)


def fresh_nonce(rng: Optional[Random] = None) -> bytes:
    return rand_bytes(rng, NONCE_SIZE)


def fresh_id(rng: Optional[Random] = None) -> str:
    """A minted id: 16 random octets in hex; no table checks for a repeat."""
    return rand_bytes(rng, 16).hex()


def derive_long_term_key(pin: bytes, salt: bytes, iterations: int = DEFAULT_KDF_ITERATIONS) -> bytes:
    """Stretch a PIN into a 16-octet long-term key.

    The PIN is padded to one block (0x80 then zeros) and used as a cipher
    key for a one-way XOR iteration seeded with the salt:
    X0 = salt, X_{i+1} = E_pin(X_i) XOR X_i.
    """
    if not pin:
        raise ValueError("PIN must not be empty")
    if len(pin) > KEY_SIZE:
        raise ValueError(f"PIN must be at most {KEY_SIZE} octets, got {len(pin)}")
    if len(salt) != KEY_SIZE:
        raise ValueError(f"salt must be {KEY_SIZE} octets, got {len(salt)}")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    padded = pin if len(pin) == KEY_SIZE else pin + b"\x80" + bytes(KEY_SIZE - len(pin) - 1)
    schedule = cipher.expand_key(padded)
    x = bytes(salt)
    for _ in range(iterations):
        x = _xor(cipher.encrypt_block(x, schedule), x)
    return x


def _xor(a: bytes, b: bytes) -> bytes:
    """XOR of two equal-length octet strings, as one integer operation."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


@dataclass(frozen=True)
class SealedPayload:
    """Authenticated-encryption output: nonce, ciphertext, tag, key id."""

    nonce: bytes
    ciphertext: bytes
    tag: bytes
    key_id: str = ""


def _schedule(key: SealKey) -> cipher.KeySchedule:
    return key if isinstance(key, cipher.KeySchedule) else cipher.expand_key(key)


def _mac_key_and_pad(key: SealKey, nonce: bytes, nbytes: int) -> tuple[MacKey, bytes]:
    """One-time MAC key from counter blocks 0 and 1, then `nbytes` of pad
    from counter 2 on."""
    stream = cipher.ctr_keystream(_schedule(key), nonce, (nbytes + 15) // 16 + 2)
    return MacKey.from_material(stream[:16], stream[16:32]), stream[32 : 32 + nbytes]


def derive_mac_key(key: SealKey, nonce: bytes) -> MacKey:
    """Per-message one-time MAC key from counter blocks 0 and 1."""
    return _mac_key_and_pad(key, nonce, 0)[0]


def _mac_input(aad: bytes, nonce: bytes, ciphertext: bytes, key_id: str) -> bytes:
    # the key id is part of the authenticated payload triple; its length
    # field keeps the aad/key-id split unambiguous
    kid = key_id.encode("utf-8")
    return (
        aad
        + kid
        + nonce
        + ciphertext
        + len(aad).to_bytes(8, "big")
        + len(kid).to_bytes(8, "big")
        + len(ciphertext).to_bytes(8, "big")
    )


def seal(key: SealKey, nonce: bytes, plaintext: bytes, aad: bytes = b"", key_id: str = "") -> SealedPayload:
    """Encrypt-then-MAC `plaintext`; the nonce must be fresh for this key.

    Protocol keys are 16 octets; the 24/32-octet cipher classes are
    accepted for benchmarking.
    """
    if len(nonce) != NONCE_SIZE:
        raise ValueError(f"nonce must be {NONCE_SIZE} octets")
    mac_key, pad = _mac_key_and_pad(key, nonce, len(plaintext))
    ciphertext = _xor(plaintext, pad)
    tag = mac_compute(mac_key, _mac_input(aad, nonce, ciphertext, key_id))
    return SealedPayload(nonce=nonce, ciphertext=ciphertext, tag=tag, key_id=key_id)


def open_sealed(key: SealKey, payload: SealedPayload, aad: bytes = b"") -> bytes:
    """Verify then decrypt; raises :class:`SealRejected` on any failure.

    The tag is checked under the MAC key alone, so a forged payload costs
    a two-block keystream whatever its length; the pad follows only an
    accepted tag."""
    if len(payload.nonce) != NONCE_SIZE:
        raise SealRejected("sealed payload rejected")
    schedule = _schedule(key)
    message = _mac_input(aad, payload.nonce, payload.ciphertext, payload.key_id)
    if not polymac.mac_verify(derive_mac_key(schedule, payload.nonce), message, payload.tag):
        raise SealRejected("sealed payload rejected")
    nbytes = len(payload.ciphertext)
    pad = cipher.ctr_keystream(schedule, payload.nonce, (nbytes + 15) // 16, start=2)
    return _xor(payload.ciphertext, pad[:nbytes])


def encode_payload(payload: SealedPayload) -> str:
    """Wire form: base64(key-id-len:1 || key-id || nonce:12 || tag:16 || ciphertext)."""
    kid = payload.key_id.encode("utf-8")
    if len(kid) > 255:
        raise ValueError("key id longer than 255 octets")
    raw = bytes([len(kid)]) + kid + payload.nonce + payload.tag + payload.ciphertext
    return base64.b64encode(raw).decode("ascii")


def decode_payload(encoded: str) -> SealedPayload:
    """Inverse of :func:`encode_payload`; raises ValueError on malformed input."""
    try:
        raw = base64.b64decode(encoded.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError) as exc:
        raise ValueError(f"sealed payload is not valid base64: {exc}") from exc
    if len(raw) < 1:
        raise ValueError("sealed payload too short")
    kid_len = raw[0]
    if len(raw) < 1 + kid_len + NONCE_SIZE + polymac.TAG_SIZE:
        raise ValueError("sealed payload truncated")
    kid = raw[1 : 1 + kid_len].decode("utf-8")
    rest = raw[1 + kid_len :]
    return SealedPayload(
        nonce=rest[:NONCE_SIZE],
        tag=rest[NONCE_SIZE : NONCE_SIZE + polymac.TAG_SIZE],
        ciphertext=rest[NONCE_SIZE + polymac.TAG_SIZE :],
        key_id=kid,
    )


@dataclass(frozen=True)
class Challenge:
    """Single-use authentication challenge bound to a user id."""

    challenge_id: str
    user_id: str
    nonce: bytes
    expires_at: float


def answer_challenge(ltk: bytes, ch: Challenge) -> bytes:
    """Prove knowledge of the long-term key for this challenge.

    The one-time MAC key derives from the long-term key and the leading
    12 octets of the challenge nonce (same derivation as seal); the full
    nonce is covered by the authenticated message.
    """
    mac_key = derive_mac_key(ltk, ch.nonce[:NONCE_SIZE])
    return mac_compute(mac_key, ch.user_id.encode("utf-8") + ch.nonce)


class ChallengeStore:
    """Shared table of outstanding challenges; check-and-consume is atomic.

    A challenge is consumed by its first verification attempt, accepted or
    not, so concurrent verifications admit at most one accept.  An
    unanswered challenge is kept one extra expiry window, so a late answer
    still reads reject-expired, and is then dropped.
    """

    def __init__(
        self,
        expiry: float = DEFAULT_CHALLENGE_EXPIRY,
        clock: Callable[[], float] = time.time,
        rng: Optional[Random] = None,
    ) -> None:
        self.expiry = expiry
        self.clock = clock
        self.rng = rng
        self._table = ExpiringTable()

    def __len__(self) -> int:
        return len(self._table)

    def issue(self, user_id: str) -> Challenge:
        now = self.clock()
        ch = Challenge(
            challenge_id=fresh_id(self.rng),
            user_id=user_id,
            nonce=rand_bytes(self.rng, 16),
            expires_at=now + self.expiry,
        )
        self._table.add(ch.challenge_id, ch, ch.expires_at + self.expiry, now)
        return ch

    def verify(self, ltk: bytes, challenge_id: str, user_id: str, tag: bytes) -> str:
        """Consume the challenge and check the answer tag.

        Returns one of accept / reject-replay (unknown, already consumed or
        dropped) / reject-expired / reject-auth.
        """
        now = self.clock()
        ch = self._table.pop(challenge_id, now)
        if ch is None:
            return REJECT_REPLAY
        if now >= ch.expires_at:
            return REJECT_EXPIRED
        if ch.user_id != user_id:
            return REJECT_AUTH
        expected = answer_challenge(ltk, ch)
        if not compare_digest(expected, tag):
            return REJECT_AUTH
        return ACCEPT


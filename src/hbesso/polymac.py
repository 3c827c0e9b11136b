"""One-time polynomial-evaluation MAC over the prime field 2^130 - 5.

The message is split into 16-octet chunks; every chunk (including a padded
final partial one) gets a 0x01 delimiter byte before little-endian field
embedding, which makes the padding injective.  The tag is the polynomial
evaluated at the clamped secret point r, masked by s modulo 2^128.

A given (r, s) pair must authenticate exactly one message; per-message
keying is the caller's job (the key-exchange layer derives a fresh pair
from the sealing key and the message nonce).
"""

from __future__ import annotations

from dataclasses import dataclass

# the constant-time compare hmac.compare_digest gives; importing hmac
# would load OpenSSL's _hashlib into the process
from _operator import _compare_digest as compare_digest

PRIME = (1 << 130) - 5
TAG_SIZE = 16

# top 4 bits of octets 3/7/11/15 and bottom 2 bits of octets 4/8/12 cleared
# (little-endian octet indexing)
CLAMP_MASK = 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF


def clamp(r: bytes) -> bytes:
    """Zero the masked bits of a raw 16-octet evaluation point."""
    if len(r) != 16:
        raise ValueError(f"evaluation point must be 16 bytes, got {len(r)}")
    value = int.from_bytes(r, "little") & CLAMP_MASK
    return value.to_bytes(16, "little")


@dataclass(frozen=True)
class MacKey:
    """Clamped evaluation point r and final mask s, 16 octets each."""

    r: bytes
    s: bytes

    def __post_init__(self) -> None:
        if len(self.r) != 16 or len(self.s) != 16:
            raise ValueError("MAC key halves must be 16 bytes each")
        if int.from_bytes(self.r, "little") & ~CLAMP_MASK:
            raise ValueError("evaluation point is not clamped")

    @classmethod
    def from_material(cls, r: bytes, s: bytes) -> "MacKey":
        """Build a key from raw material, applying the clamp to r."""
        return cls(r=clamp(r), s=bytes(s))


def mac_compute(key: MacKey, message: bytes) -> bytes:
    """Authenticate `message`; returns the 16-octet tag.  Deterministic."""
    r = int.from_bytes(key.r, "little")
    acc = 0
    for i in range(0, len(message), 16):
        chunk = message[i : i + 16] + b"\x01"
        acc = (acc + int.from_bytes(chunk, "little")) * r % PRIME
    tag = (acc + int.from_bytes(key.s, "little")) % (1 << 128)
    return tag.to_bytes(16, "little")


def mac_verify(key: MacKey, message: bytes, tag: bytes) -> bool:
    """Accept iff `tag` matches; comparison leaks no partial-match info."""
    if len(tag) != TAG_SIZE:
        return False
    return compare_digest(mac_compute(key, message), tag)

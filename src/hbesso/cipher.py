"""HBE block cipher core.

A 128-bit-block substitution-permutation network with 128/192/256-bit keys
(10/12/14 rounds).  Each full round applies SubBytes, ShiftRows, MixColumns
and AddRoundKey; the final round omits MixColumns.  The 16-byte state is a
4x4 matrix of GF(2^8) elements filled column-major (byte i -> row i % 4,
column i // 4).  Key schedule words are big-endian.

The S-box is generated at import time from the multiplicative inverse in
GF(2^8) (reducing polynomial x^8+x^4+x^3+x+1) followed by the fixed affine
map, and cross-checked byte-for-byte against the hard-coded table below.
Every lookup table is a module constant built once at import, except their
numpy copies, which the first bulk keystream builds once; the module holds
no other state.

The forward cipher has one core, :func:`_encrypt_words`: the 32-bit
T-table rounds of Daemen & Rijmen, *The Design of Rijndael*, section 4.2.
It serves single blocks and short keystreams on Python ints, and bulk
counter mode on int64 numpy arrays.  The staged byte operations remain as
the specification the core is tested against.

The module itself needs only the standard library.  numpy is imported on
the first keystream of _BULK_THRESHOLD (32) blocks or more, so a process
that asks for none, such as the IdP and SP on the flows of
scenarios/canonical.txt, never loads it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cache
from itertools import accumulate

BLOCK_SIZE = 16

# key bytes -> number of rounds
ROUNDS = {16: 10, 24: 12, 32: 14}

GF_POLY = 0x11B  # x^8 + x^4 + x^3 + x + 1

SBOX_TABLE = (
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
)


def gf_mul(a: int, b: int) -> int:
    """Multiply two bytes in GF(2^8) modulo x^8+x^4+x^3+x+1."""
    p = 0
    for _ in range(8):
        if b & 1:
            p ^= a
        hi = a & 0x80
        a = (a << 1) & 0xFF
        if hi:
            a ^= GF_POLY & 0xFF
        b >>= 1
    return p


def _gf_inverse(a: int) -> int:
    # a^254 by square-and-multiply; 0 maps to 0
    if a == 0:
        return 0
    result, base, exp = 1, a, 254
    while exp:
        if exp & 1:
            result = gf_mul(result, base)
        base = gf_mul(base, base)
        exp >>= 1
    return result


def generate_sbox() -> tuple[int, ...]:
    """Build the substitution table from first principles.

    Multiplicative inverse in GF(2^8), then the affine map
    y_i = b_i ^ b_{i+4} ^ b_{i+5} ^ b_{i+6} ^ b_{i+7} ^ c_i with c = 0x63.
    """
    table = []
    for x in range(256):
        b = _gf_inverse(x)
        y = 0
        for i in range(8):
            bit = (
                (b >> i)
                ^ (b >> ((i + 4) % 8))
                ^ (b >> ((i + 5) % 8))
                ^ (b >> ((i + 6) % 8))
                ^ (b >> ((i + 7) % 8))
                ^ (0x63 >> i)
            ) & 1
            y |= bit << i
        table.append(y)
    return tuple(table)


# ShiftRows as a flat permutation of the column-major state: row r of the
# 4x4 matrix rotates left by r.  Index 4*c + r reads from 4*((c + r) % 4) + r.
_SHIFT_IDX = tuple(4 * (((i // 4) + (i % 4)) % 4) + (i % 4) for i in range(16))
_INV_SHIFT_IDX = tuple(4 * (((i // 4) - (i % 4)) % 4) + (i % 4) for i in range(16))

if generate_sbox() != SBOX_TABLE:
    raise RuntimeError("S-box generator disagrees with the hard-coded table")
SBOX = SBOX_TABLE
INV_SBOX = tuple(SBOX.index(y) for y in range(256))
_MUL2, _MUL3, _MUL9, _MUL11, _MUL13, _MUL14 = (
    tuple(gf_mul(x, m) for x in range(256)) for m in (0x02, 0x03, 0x09, 0x0B, 0x0D, 0x0E)
)
# key-schedule round constants: powers of 0x02 in GF(2^8) from 0x01; the
# 128-bit class uses all 10, the 192- and 256-bit classes 8 and 7
_RCON = tuple(accumulate(range(9), lambda rcon, _: gf_mul(rcon, 0x02), initial=0x01))


def _ror8(word: int) -> int:
    return (word >> 8) | ((word & 0xFF) << 24)


# Round tables on big-endian column words.  _TE0[x] is the MixColumns
# column (2, 1, 1, 3) * S[x]; _TE1.._TE3 are its byte rotations, so one
# full round of a column is four lookups XORed with the round-key word.
# The last four tables put S[x] alone in row 0..3, for the final round,
# which has no MixColumns.
_TE0 = tuple((_MUL2[b] << 24) | (b << 16) | (b << 8) | _MUL3[b] for b in SBOX)
_TE1 = tuple(_ror8(w) for w in _TE0)
_TE2 = tuple(_ror8(w) for w in _TE1)
_TE3 = tuple(_ror8(w) for w in _TE2)
_TABLES = (_TE0, _TE1, _TE2, _TE3) + tuple(
    tuple(b << shift for b in SBOX) for shift in (24, 16, 8, 0)
)


@cache
def _tables_np():
    """:data:`_TABLES` as int64 numpy arrays, built on the first bulk
    keystream.  Two threads that race here both build them; one set is kept."""
    import numpy as np

    # int64, not uint32: numpy indexes with int64 without a cast per lookup.
    return tuple(np.array(t, dtype=np.int64) for t in _TABLES)


def to_matrix(block: bytes) -> list[list[int]]:
    """View a 16-byte block as 4 rows of the column-major 4x4 state."""
    _check_block(block)
    return [[block[4 * c + r] for c in range(4)] for r in range(4)]


def from_matrix(rows: list[list[int]]) -> bytes:
    """Inverse of :func:`to_matrix`."""
    return bytes(rows[i % 4][i // 4] for i in range(16))


def _check_block(block: bytes) -> None:
    if len(block) != BLOCK_SIZE:
        raise ValueError(f"state block must be {BLOCK_SIZE} bytes, got {len(block)}")


@dataclass(frozen=True)
class KeySchedule:
    """Expanded round keys: 4*(rounds+1) 32-bit words, each a big-endian
    column of the state as an int."""

    words: tuple[int, ...]
    rounds: int

    def __post_init__(self) -> None:
        if len(self.words) != 4 * (self.rounds + 1):
            raise ValueError("schedule length must be 4*(rounds+1) words")

    def round_key(self, r: int) -> bytes:
        return struct.pack(">4I", *self.words[4 * r : 4 * r + 4])


def _sub_word(word: int) -> int:
    """S-box on each byte of a big-endian word."""
    return (
        SBOX[word >> 24] << 24 | SBOX[word >> 16 & 255] << 16 | SBOX[word >> 8 & 255] << 8 | SBOX[word & 255]
    )


def expand_key(key: bytes) -> KeySchedule:
    """Expand raw key material into the full round-key schedule.

    Words beyond the first Nk follow the standard recurrence: every Nk-th
    word is rotated, substituted and XORed with a round constant (_RCON);
    the 256-bit class applies an extra substitution at word index 4 mod 8.
    """
    if len(key) not in ROUNDS:
        raise ValueError(f"key must be 16, 24 or 32 bytes, got {len(key)}")
    rounds = ROUNDS[len(key)]
    nk = len(key) // 4
    total = 4 * (rounds + 1)
    words = list(struct.unpack(f">{nk}I", key))
    for i in range(nk, total):
        temp = words[i - 1]
        if i % nk == 0:
            temp = _sub_word((temp << 8 | temp >> 24) & 0xFFFFFFFF) ^ _RCON[i // nk - 1] << 24
        elif nk > 6 and i % nk == 4:
            temp = _sub_word(temp)
        words.append(words[i - nk] ^ temp)
    return KeySchedule(words=tuple(words), rounds=rounds)


def sub_bytes(state: bytes, inverse: bool = False) -> bytes:
    """Map each state byte through the S-box (or its inverse)."""
    _check_block(state)
    table = INV_SBOX if inverse else SBOX
    return bytes(table[b] for b in state)


def shift_rows(state: bytes, inverse: bool = False) -> bytes:
    """Rotate matrix row r left by r positions (right when inverse)."""
    _check_block(state)
    idx = _INV_SHIFT_IDX if inverse else _SHIFT_IDX
    return bytes(state[j] for j in idx)


def mix_columns(state: bytes, inverse: bool = False) -> bytes:
    """Multiply each column by the fixed circulant matrix over GF(2^8)."""
    _check_block(state)
    out = bytearray(16)
    if not inverse:
        m2, m3 = _MUL2, _MUL3
        for c in (0, 4, 8, 12):
            a0, a1, a2, a3 = state[c], state[c + 1], state[c + 2], state[c + 3]
            out[c] = m2[a0] ^ m3[a1] ^ a2 ^ a3
            out[c + 1] = a0 ^ m2[a1] ^ m3[a2] ^ a3
            out[c + 2] = a0 ^ a1 ^ m2[a2] ^ m3[a3]
            out[c + 3] = m3[a0] ^ a1 ^ a2 ^ m2[a3]
    else:
        m9, m11, m13, m14 = _MUL9, _MUL11, _MUL13, _MUL14
        for c in (0, 4, 8, 12):
            a0, a1, a2, a3 = state[c], state[c + 1], state[c + 2], state[c + 3]
            out[c] = m14[a0] ^ m11[a1] ^ m13[a2] ^ m9[a3]
            out[c + 1] = m9[a0] ^ m14[a1] ^ m11[a2] ^ m13[a3]
            out[c + 2] = m13[a0] ^ m9[a1] ^ m14[a2] ^ m11[a3]
            out[c + 3] = m11[a0] ^ m13[a1] ^ m9[a2] ^ m14[a3]
    return bytes(out)


def add_round_key(state: bytes, round_key: bytes) -> bytes:
    """Byte-wise XOR of state and a 16-byte round key."""
    _check_block(state)
    _check_block(round_key)
    return bytes(a ^ b for a, b in zip(state, round_key))


def _encrypt_words(s0, s1, s2, s3, schedule: KeySchedule, tables):
    """Forward cipher on the four big-endian column words of a state.

    The same body runs on Python ints (one block, tuple tables) and on
    int64 numpy arrays (one block per element, array tables); a plain int
    word broadcasts against an array one.  Every word stays below 2**32.
    """
    t0, t1, t2, t3, f0, f1, f2, f3 = tables
    rk = schedule.words
    s0, s1, s2, s3 = s0 ^ rk[0], s1 ^ rk[1], s2 ^ rk[2], s3 ^ rk[3]
    for r in range(4, 4 * schedule.rounds, 4):
        s0, s1, s2, s3 = (
            t0[s0 >> 24] ^ t1[s1 >> 16 & 255] ^ t2[s2 >> 8 & 255] ^ t3[s3 & 255] ^ rk[r],
            t0[s1 >> 24] ^ t1[s2 >> 16 & 255] ^ t2[s3 >> 8 & 255] ^ t3[s0 & 255] ^ rk[r + 1],
            t0[s2 >> 24] ^ t1[s3 >> 16 & 255] ^ t2[s0 >> 8 & 255] ^ t3[s1 & 255] ^ rk[r + 2],
            t0[s3 >> 24] ^ t1[s0 >> 16 & 255] ^ t2[s1 >> 8 & 255] ^ t3[s2 & 255] ^ rk[r + 3],
        )
    r = 4 * schedule.rounds
    return (
        f0[s0 >> 24] ^ f1[s1 >> 16 & 255] ^ f2[s2 >> 8 & 255] ^ f3[s3 & 255] ^ rk[r],
        f0[s1 >> 24] ^ f1[s2 >> 16 & 255] ^ f2[s3 >> 8 & 255] ^ f3[s0 & 255] ^ rk[r + 1],
        f0[s2 >> 24] ^ f1[s3 >> 16 & 255] ^ f2[s0 >> 8 & 255] ^ f3[s1 & 255] ^ rk[r + 2],
        f0[s3 >> 24] ^ f1[s0 >> 16 & 255] ^ f2[s1 >> 8 & 255] ^ f3[s2 & 255] ^ rk[r + 3],
    )


def encrypt_block(plaintext: bytes, schedule: KeySchedule) -> bytes:
    """Encrypt one 16-byte block.

    Initial AddRoundKey, then rounds-1 full rounds, then a final round
    without MixColumns.  Equivalent to composing the staged operations;
    the T-table core fuses them for speed.
    """
    _check_block(plaintext)
    words = _encrypt_words(*struct.unpack(">4I", plaintext), schedule, _TABLES)
    return struct.pack(">4I", *words)


def decrypt_block(ciphertext: bytes, schedule: KeySchedule) -> bytes:
    """Exact inverse of :func:`encrypt_block`: the staged operations,
    inverted, in reverse order."""
    state = add_round_key(ciphertext, schedule.round_key(schedule.rounds))
    for r in range(schedule.rounds - 1, -1, -1):
        state = sub_bytes(shift_rows(state, inverse=True), inverse=True)
        state = add_round_key(state, schedule.round_key(r))
        if r:
            state = mix_columns(state, inverse=True)
    return state


# Below this block count the int path is the faster one: it costs about
# 16-23 us a block, the array path a flat 300-640 us up to about 100
# blocks, and the two cross between about 20 and 40 blocks.  It also keeps
# numpy out of the services: a canonical flow's keystreams are 2, 3 and
# 26-27 blocks.  An assertion of 32 blocks or more (a long or escape-heavy
# user id) loads numpy once in that process.
_BULK_THRESHOLD = 32
# Bulk counters are encrypted this many at a time, which bounds the
# temporary arrays of a long stream.
_CHUNK_BLOCKS = 8192


def ctr_keystream(schedule: KeySchedule, nonce: bytes, count: int, start: int = 0) -> bytes:
    """Keystream of `count` blocks: E(nonce || BE32(start+i)) for i in 0..count-1.

    Short streams run the core on Python ints, bulk requests on int64
    counter arrays, importing numpy on the first; both produce identical
    bytes.
    """
    if len(nonce) != 12:
        raise ValueError(f"counter nonce must be 12 bytes, got {len(nonce)}")
    if count < 0:
        raise ValueError("block count must be non-negative")
    if start + count > 1 << 32:
        raise ValueError("counter overflow: message too long for a 32-bit counter")
    n0, n1, n2 = struct.unpack(">3I", nonce)
    if count < _BULK_THRESHOLD:
        words = []
        for counter in range(start, start + count):
            words += _encrypt_words(n0, n1, n2, counter, schedule, _TABLES)
        return struct.pack(f">{4 * count}I", *words)
    import numpy as np  # a sys.modules lookup after the first bulk stream

    tables = _tables_np()
    out = np.empty((count, 4), dtype=">u4")
    for lo in range(0, count, _CHUNK_BLOCKS):
        hi = min(lo + _CHUNK_BLOCKS, count)
        counters = np.arange(start + lo, start + hi, dtype=np.int64)
        words = _encrypt_words(n0, n1, n2, counters, schedule, tables)
        for col, word in enumerate(words):
            out[lo:hi, col] = word
    return out.tobytes()

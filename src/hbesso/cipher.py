"""HBE block cipher core.

A 128-bit-block substitution-permutation network with 128/192/256-bit keys
(10/12/14 rounds).  Each full round applies SubBytes, ShiftRows, MixColumns
and AddRoundKey; the final round omits MixColumns.  The 16-byte state is a
4x4 matrix of GF(2^8) elements filled column-major (byte i -> row i % 4,
column i // 4).  Key schedule words are big-endian.

The S-box is the hard-coded table below: the multiplicative inverse in
GF(2^8) (reducing polynomial x^8+x^4+x^3+x+1) followed by the fixed affine
map.  The independent reference cipher of the tests derives it from those
first principles, and the tests check the two byte for byte rather than
every import.
Every lookup table is a module constant built once at import, except their
numpy copies, which the first bulk keystream builds once; the module holds
no other state.

The forward cipher has two cores.  :func:`_encrypt_words` runs the 32-bit
T-table rounds of Daemen & Rijmen, *The Design of Rijndael*, section 4.2,
on Python ints for single blocks (:func:`encrypt_block`, so the PIN KDF)
and on int64 numpy arrays for bulk counter mode.  :func:`_ctr_sliced`
serves keystreams below _BULK_THRESHOLD (192) blocks, which is every
keystream of an SSO flow: it holds all the blocks in one Python int and
runs each round on all of them at once, SubBytes as one bytes.translate
(the byte-parallel form of vector-permute AES: Hamburg, CHES 2009).  The
staged byte operations remain as the specification both are tested
against.  Both index tables by key-dependent state, so neither is
constant-time.

The module itself needs only the standard library.  numpy is imported on
the first keystream of _BULK_THRESHOLD blocks or more.  No user id makes
an assertion that long while the two entity ids stay under 1,400 octets
together, so the IdP and SP never load numpy for a login.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate

BLOCK_SIZE = 16

# key bytes -> number of rounds
ROUNDS = {16: 10, 24: 12, 32: 14}

GF_POLY = 0x11B  # x^8 + x^4 + x^3 + x + 1

# one hex string rather than 256 int literals, which cost a process that
# compiles this module from source about 170 KiB more at its peak
SBOX = tuple(bytes.fromhex(
    "63 7c 77 7b f2 6b 6f c5 30 01 67 2b fe d7 ab 76 "
    "ca 82 c9 7d fa 59 47 f0 ad d4 a2 af 9c a4 72 c0 "
    "b7 fd 93 26 36 3f f7 cc 34 a5 e5 f1 71 d8 31 15 "
    "04 c7 23 c3 18 96 05 9a 07 12 80 e2 eb 27 b2 75 "
    "09 83 2c 1a 1b 6e 5a a0 52 3b d6 b3 29 e3 2f 84 "
    "53 d1 00 ed 20 fc b1 5b 6a cb be 39 4a 4c 58 cf "
    "d0 ef aa fb 43 4d 33 85 45 f9 02 7f 50 3c 9f a8 "
    "51 a3 40 8f 92 9d 38 f5 bc b6 da 21 10 ff f3 d2 "
    "cd 0c 13 ec 5f 97 44 17 c4 a7 7e 3d 64 5d 19 73 "
    "60 81 4f dc 22 2a 90 88 46 ee b8 14 de 5e 0b db "
    "e0 32 3a 0a 49 06 24 5c c2 d3 ac 62 91 95 e4 79 "
    "e7 c8 37 6d 8d d5 4e a9 6c 56 f4 ea 65 7a ae 08 "
    "ba 78 25 2e 1c a6 b4 c6 e8 dd 74 1f 4b bd 8b 8a "
    "70 3e b5 66 48 03 f6 0e 61 35 57 b9 86 c1 1d 9e "
    "e1 f8 98 11 69 d9 8e 94 9b 1e 87 e9 ce 55 28 df "
    "8c a1 89 0d bf e6 42 68 41 99 2d 0f b0 54 bb 16"
))


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


# ShiftRows as a flat permutation of the column-major state: row r of the
# 4x4 matrix rotates left by r.  Index 4*c + r reads from 4*((c + r) % 4) + r.
_SHIFT_IDX = tuple(4 * (((i // 4) + (i % 4)) % 4) + (i % 4) for i in range(16))
_INV_SHIFT_IDX = tuple(4 * (((i // 4) - (i % 4)) % 4) + (i % 4) for i in range(16))

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

    @cached_property
    def _block_keys(self) -> tuple[int, ...]:
        """Round keys as 128-bit big-endian ints, for the byte-sliced core."""
        w = self.words
        # tuple() of a list, not of a generator: a generator's tuple is
        # grown by realloc, so every one freed would pile up on the
        # interpreter's free list for its size, up to 2000 of them
        return tuple([w[i] << 96 | w[i + 1] << 64 | w[i + 2] << 32 | w[i + 3] for i in range(0, len(w), 4)])


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


# Byte-sliced counter mode: all the blocks of a stream in one Python int,
# block i at bits 128 * (count - 1 - i) up and state octet j (row j % 4,
# column j // 4) at bit 8 * (15 - j) of its block, so int.to_bytes is the
# stream.  Each mask below covers one block; times rep, the int with a 1 in
# the low bit of every block, it covers them all.  SubBytes maps every
# octet at once through bytes.translate.
_ONES128 = (1 << 128) - 1
_SBOX_OCTETS = bytes(SBOX)
_SBOX2_OCTETS = bytes(_MUL2[b] for b in SBOX)


def _octet_mask(octets) -> int:
    return sum(0xFF << 8 * (15 - j) for j in octets)


# ShiftRows moves row r 4r octets toward octet 0 of its block: a left shift
# by 32r for columns c < 4 - r, a right shift by 128 - 32r for the columns
# that wrap.  Masks in the order rows 0, 1, 1-wrap, 2, 2-wrap, 3, 3-wrap.
_SHIFT_MASKS = tuple(
    _octet_mask(j for j in range(r, 16, 4) if (j // 4 >= 4 - r) == wrap)
    for r, wrap in ((0, False), (1, False), (1, True), (2, False), (2, True), (3, False), (3, True))
)
# MixColumns rotates each 32-bit column word left by one octet (octet k
# takes octet k + 1): the high three octets of every word, and the low one.
_WORDS = 0x00000001_00000001_00000001_00000001
_WORD_HI, _WORD_LO = 0xFFFFFF00 * _WORDS, 0xFF * _WORDS


def _ctr_sliced(schedule: KeySchedule, nonce: bytes, count: int, start: int) -> bytes:
    """Counter-mode keystream with each round applied to every block at
    once; byte-identical to :func:`_encrypt_words` on each counter block.

    MixColumns of S-box column s (d = 2*s) is d ^ rot(d ^ s) ^ rot2(s) ^
    rot3(s), computed as d ^ rot(d ^ s ^ rot(s ^ rot(s))).
    """
    n = 16 * count
    rep = ((1 << 128 * count) - 1) // _ONES128
    r0, l1, w1, l2, w2, l3, w3 = [m * rep for m in _SHIFT_MASKS]
    hi, lo = _WORD_HI * rep, _WORD_LO * rep
    keys = [k * rep for k in schedule._block_keys]
    from_bytes, rounds = int.from_bytes, schedule.rounds
    # nonce || start in every block, plus i in block i: (rep - count) // _ONES128
    x = (from_bytes(nonce, "big") << 32 | start) * rep + (rep - count) // _ONES128 ^ keys[0]
    for r in range(1, rounds + 1):
        octets = (
            x & r0 | x << 32 & l1 | x >> 96 & w1 | x << 64 & l2 | x >> 64 & w2 | x << 96 & l3 | x >> 32 & w3
        ).to_bytes(n, "big")
        s = from_bytes(octets.translate(_SBOX_OCTETS), "big")
        if r < rounds:
            d = from_bytes(octets.translate(_SBOX2_OCTETS), "big")
            u = s ^ (s << 8 & hi | s >> 24 & lo)
            u = d ^ s ^ (u << 8 & hi | u >> 24 & lo)
            s = d ^ (u << 8 & hi | u >> 24 & lo)
        x = s ^ keys[r]
    return x.to_bytes(n, "big")


# Below this block count the byte-sliced core is the faster one.  In-process
# on a 2-CPU Xeon it costs about 21-29 us for 1-4 blocks, 120 us for 26 and
# 320 us for 128, against a flat 350-650 us on arrays up to about 150
# blocks; the two cross between about 160 and 240 blocks.  The longest
# user id assertion (255 `&`, each written `&amp;`) takes 105 blocks with
# the example entity ids and stays below it up to 1,400 octets of them.
_BULK_THRESHOLD = 192
# Bulk counters are encrypted this many at a time, which bounds the
# temporary arrays of a long stream.
_CHUNK_BLOCKS = 8192


def ctr_keystream(schedule: KeySchedule, nonce: bytes, count: int, start: int = 0) -> bytes:
    """Keystream of `count` blocks: E(nonce || BE32(start+i)) for i in 0..count-1.

    Short streams run the byte-sliced core on one Python int, bulk
    requests the word core on int64 counter arrays, importing numpy on the
    first; both produce identical bytes.
    """
    if len(nonce) != 12:
        raise ValueError(f"counter nonce must be 12 bytes, got {len(nonce)}")
    if count < 0:
        raise ValueError("block count must be non-negative")
    if start + count > 1 << 32:
        raise ValueError("counter overflow: message too long for a 32-bit counter")
    if count < _BULK_THRESHOLD:
        return _ctr_sliced(schedule, nonce, count, start)
    n0, n1, n2 = struct.unpack(">3I", nonce)
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

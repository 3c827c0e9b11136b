import hmac
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbesso import keyexchange as kx
from hbesso import polymac
from hbesso.polymac import MacKey, mac_compute, mac_verify

# Published test vector for this exact construction (32-byte key material:
# raw r first, mask s second).
VECTOR_R = bytes.fromhex("85d6be7857556d337f4452fe42d506a8")
VECTOR_S = bytes.fromhex("0103808afb0db2fd4abff6af4149f51b")
VECTOR_MSG = b"Cryptographic Forum Research Group"
VECTOR_TAG = bytes.fromhex("a8061dc1305136c6c22b8baf0c0127a9")


def oracle_tag(key: MacKey, message: bytes) -> bytes:
    """Brute-force evaluation: explicit modular powers, no Horner loop."""
    chunks = []
    for i in range(0, len(message), 16):
        chunks.append(int.from_bytes(message[i : i + 16] + b"\x01", "little"))
    n = len(chunks)
    r = int.from_bytes(key.r, "little")
    total = 0
    for i, c in enumerate(chunks, start=1):
        total += c * pow(r, n - i + 1, polymac.PRIME)
    tag = (total % polymac.PRIME + int.from_bytes(key.s, "little")) % (1 << 128)
    return tag.to_bytes(16, "little")


def random_key(rng: random.Random) -> MacKey:
    return MacKey.from_material(rng.randbytes(16), rng.randbytes(16))


def test_published_vector():
    key = MacKey.from_material(VECTOR_R, VECTOR_S)
    assert mac_compute(key, VECTOR_MSG) == VECTOR_TAG
    assert mac_verify(key, VECTOR_MSG, VECTOR_TAG)


def test_zero_evaluation_point_gives_mask():
    s = bytes(range(16))
    key = MacKey(r=bytes(16), s=s)
    assert mac_compute(key, b"whatever, any length at all....!") == s
    assert mac_compute(key, b"") == s


def test_empty_message_gives_mask():
    rng = random.Random(7)
    for _ in range(20):
        key = random_key(rng)
        assert mac_compute(key, b"") == key.s


def test_three_chunk_message_matches_oracle():
    rng = random.Random(42)
    key = random_key(rng)
    msg = rng.randbytes(48)
    assert mac_compute(key, msg) == oracle_tag(key, msg)


@settings(max_examples=300)
@given(st.binary(min_size=0, max_size=64), st.randoms(use_true_random=False))
def test_oracle_equivalence(message, hyp_rng):
    key = MacKey.from_material(hyp_rng.getrandbits(128).to_bytes(16, "little"),
                               hyp_rng.getrandbits(128).to_bytes(16, "little"))
    assert mac_compute(key, message) == oracle_tag(key, message)


def test_determinism():
    key = MacKey.from_material(b"\xaa" * 16, b"\xbb" * 16)
    msg = b"same message"
    assert mac_compute(key, msg) == mac_compute(key, msg)


def test_tag_is_16_octets():
    key = MacKey.from_material(b"\x01" * 16, b"\x02" * 16)
    for n in (0, 1, 15, 16, 17, 64):
        assert len(mac_compute(key, bytes(n))) == polymac.TAG_SIZE


def test_clamp_invariant_enforced():
    with pytest.raises(ValueError):
        MacKey(r=b"\xff" * 16, s=bytes(16))
    clamped = polymac.clamp(b"\xff" * 16)
    assert int.from_bytes(clamped, "little") == polymac.CLAMP_MASK
    MacKey(r=clamped, s=bytes(16))  # clamped material is accepted


def test_key_length_validation():
    with pytest.raises(ValueError):
        MacKey(r=bytes(15), s=bytes(16))
    with pytest.raises(ValueError):
        polymac.clamp(bytes(17))


def test_padding_injectivity_crafted_pairs():
    # without the 0x01 delimiter these padded chunk streams would collide
    rng = random.Random(99)
    key = random_key(rng)
    pairs = [
        (b"A" * 15, b"A" * 15 + b"\x01"),
        (b"abc", b"abc\x00"),
        (b"", b"\x00"),
        (b"B" * 16, b"B" * 16 + b"\x01"),
        (b"C" * 16 + b"\x01", b"C" * 16),
    ]
    for m1, m2 in pairs:
        assert mac_compute(key, m1) != mac_compute(key, m2), (m1, m2)


def test_bit_flip_in_message_rejected():
    rng = random.Random(1234)
    for _ in range(200):
        key = random_key(rng)
        msg = rng.randbytes(rng.randrange(1, 64))
        tag = mac_compute(key, msg)
        bit = rng.randrange(len(msg) * 8)
        mutated = bytearray(msg)
        mutated[bit // 8] ^= 1 << (bit % 8)
        assert not mac_verify(key, bytes(mutated), tag)


def test_bit_flip_in_tag_rejected():
    key = MacKey.from_material(b"\x11" * 16, b"\x22" * 16)
    msg = b"an authentic message"
    tag = mac_compute(key, msg)
    for bit in range(128):
        mutated = bytearray(tag)
        mutated[bit // 8] ^= 1 << (bit % 8)
        assert not mac_verify(key, msg, bytes(mutated))
    assert not mac_verify(key, msg, tag[:15])


@settings(max_examples=200)
@given(a=st.binary(max_size=40), b=st.binary(max_size=40))
def test_tag_compare_agrees_with_hmac_compare_digest(a, b):
    # the one compare both the MAC check and the challenge check use
    assert kx.compare_digest is polymac.compare_digest
    for left, right in ((a, bytes(a)), (a, b), (a + b, a), (a, a + b"\x00")):
        assert polymac.compare_digest(left, right) == hmac.compare_digest(left, right)


@settings(max_examples=50)
@given(text=st.text(max_size=20), octets=st.binary(max_size=20))
def test_tag_compare_refuses_str_against_bytes(text, octets):
    for args in ((text, octets), (octets, text)):
        with pytest.raises(TypeError):
            hmac.compare_digest(*args)
        with pytest.raises(TypeError):
            polymac.compare_digest(*args)

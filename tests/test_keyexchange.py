import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_cipher as ref
from hbesso import cipher, keyexchange as kx


def test_kdf_deterministic():
    a = kx.derive_long_term_key(b"2468", b"\x05" * 16, iterations=25)
    b = kx.derive_long_term_key(b"2468", b"\x05" * 16, iterations=25)
    assert a == b
    assert len(a) == 16


def test_kdf_single_iteration_base_case():
    pin, salt = b"7710", b"\xab" * 16
    padded = pin + b"\x80" + bytes(11)
    expect = bytes(
        a ^ b
        for a, b in zip(cipher.encrypt_block(salt, cipher.expand_key(padded)), salt)
    )
    assert kx.derive_long_term_key(pin, salt, iterations=1) == expect


def test_kdf_full_width_pin_uses_no_padding():
    pin = bytes(range(16))
    salt = b"\x11" * 16
    expect = bytes(
        a ^ b
        for a, b in zip(cipher.encrypt_block(salt, cipher.expand_key(pin)), salt)
    )
    assert kx.derive_long_term_key(pin, salt, iterations=1) == expect


def test_kdf_salt_sensitivity_1000_trials():
    rng = random.Random(0xDA)
    seen = set()
    for _ in range(1000):
        salt = rng.randbytes(16)
        key = kx.derive_long_term_key(b"0000", salt, iterations=1)
        assert key not in seen
        seen.add(key)


def test_kdf_rejects_bad_input():
    with pytest.raises(ValueError):
        kx.derive_long_term_key(b"", b"\0" * 16)
    with pytest.raises(ValueError):
        kx.derive_long_term_key(b"x" * 17, b"\0" * 16)
    with pytest.raises(ValueError):
        kx.derive_long_term_key(b"1234", b"\0" * 15)
    with pytest.raises(ValueError):
        kx.derive_long_term_key(b"1234", b"\0" * 16, iterations=0)


def test_seal_open_round_trip_all_lengths():
    # every plaintext length 0..256, at each of three aad lengths
    rng = random.Random(0x5EA1)
    key = rng.randbytes(16)
    for aad_len in (0, 1, 64):
        aad = rng.randbytes(aad_len)
        for n in range(257):
            pt = rng.randbytes(n)
            payload = kx.seal(key, rng.randbytes(12), pt, aad=aad)
            assert len(payload.ciphertext) == n
            assert kx.open_sealed(key, payload, aad=aad) == pt


def test_seal_empty_plaintext():
    key = b"\x01" * 16
    payload = kx.seal(key, b"\x02" * 12, b"", aad=b"meta")
    assert payload.ciphertext == b""
    assert len(payload.tag) == 16
    assert kx.open_sealed(key, payload, aad=b"meta") == b""


def test_keystream_blocks_match_independent_cipher():
    # payload keystream block i must equal E(nonce || BE32(i+2))
    key = bytes(range(16))
    nonce = bytes(range(50, 62))
    pt = bytes(64)
    payload = kx.seal(key, nonce, pt)
    for i in range(4):
        counter_block = nonce + (i + 2).to_bytes(4, "big")
        expect = ref.encrypt(counter_block, key)
        assert payload.ciphertext[16 * i : 16 * (i + 1)] == expect
    # and the MAC key halves come from counter blocks 0 and 1
    mk = kx.derive_mac_key(key, nonce)
    from hbesso.polymac import clamp

    assert mk.r == clamp(ref.encrypt(nonce + bytes(4), key))
    assert mk.s == ref.encrypt(nonce + (1).to_bytes(4, "big"), key)


def test_open_rejects_ciphertext_tampering():
    rng = random.Random(0xF00D)
    key = rng.randbytes(16)
    for _ in range(300):
        pt = rng.randbytes(rng.randrange(1, 80))
        payload = kx.seal(key, rng.randbytes(12), pt, aad=b"hdr")
        bit = rng.randrange(len(payload.ciphertext) * 8)
        mutated = bytearray(payload.ciphertext)
        mutated[bit // 8] ^= 1 << (bit % 8)
        broken = kx.SealedPayload(payload.nonce, bytes(mutated), payload.tag)
        with pytest.raises(kx.SealRejected):
            kx.open_sealed(key, broken, aad=b"hdr")


def test_open_rejects_wrong_key_aad_truncation():
    key = b"\x0c" * 16
    payload = kx.seal(key, b"\x0d" * 12, b"hello world", aad=b"a")
    with pytest.raises(kx.SealRejected):
        kx.open_sealed(b"\x0e" * 16, payload, aad=b"a")
    with pytest.raises(kx.SealRejected):
        kx.open_sealed(key, payload, aad=b"b")
    truncated = kx.SealedPayload(payload.nonce, payload.ciphertext[:-1], payload.tag)
    with pytest.raises(kx.SealRejected):
        kx.open_sealed(key, truncated, aad=b"a")


def test_open_makes_the_pad_only_after_the_tag_passes(monkeypatch):
    # a forged payload costs the MAC key's two blocks whatever its length;
    # an accepted one then asks for its pad from counter 2
    key = b"\x21" * 16
    payload = kx.seal(key, b"\x22" * 12, b"x" * 100)
    calls = []
    keystream = cipher.ctr_keystream

    def recording(schedule, nonce, count, start=0):
        calls.append((count, start))
        return keystream(schedule, nonce, count, start)

    monkeypatch.setattr(cipher, "ctr_keystream", recording)
    forged = kx.SealedPayload(payload.nonce, bytes(26_000), payload.tag)
    with pytest.raises(kx.SealRejected):
        kx.open_sealed(key, forged)
    assert calls == [(2, 0)]
    calls.clear()
    assert kx.open_sealed(key, payload) == b"x" * 100
    assert calls == [(2, 0), (7, 2)]


def test_tag_covers_key_id():
    key = b"\x0f" * 16
    payload = kx.seal(key, b"\x10" * 12, b"payload", aad=b"x", key_id="fed-1")
    assert kx.open_sealed(key, payload, aad=b"x") == b"payload"
    relabeled = kx.SealedPayload(payload.nonce, payload.ciphertext, payload.tag, "fed-2")
    with pytest.raises(kx.SealRejected):
        kx.open_sealed(key, relabeled, aad=b"x")
    # a key-id bit flipped inside the wire encoding is also caught
    import base64

    wire = bytearray(base64.b64decode(kx.encode_payload(payload)))
    wire[1] ^= 0x01  # first key-id octet
    reparsed = kx.decode_payload(base64.b64encode(bytes(wire)).decode())
    with pytest.raises(kx.SealRejected):
        kx.open_sealed(key, reparsed, aad=b"x")
    # aad/key-id boundary shifts cannot collide: same concatenation,
    # different split
    a = kx.seal(key, b"\x10" * 12, b"payload", aad=b"xy", key_id="z")
    b = kx.seal(key, b"\x10" * 12, b"payload", aad=b"x", key_id="yz")
    assert a.tag != b.tag


@settings(max_examples=100)
@given(st.binary(max_size=120), st.binary(max_size=16))
def test_seal_open_property(pt, aad):
    key = b"\x77" * 16
    payload = kx.seal(key, b"\x31" * 12, pt, aad=aad)
    assert kx.open_sealed(key, payload, aad=aad) == pt


def test_wire_encoding_round_trip_and_layout():
    payload = kx.SealedPayload(
        nonce=bytes(range(12)),
        ciphertext=b"\xaa\xbb\xcc",
        tag=bytes(range(100, 116)),
        key_id="fed-1",
    )
    encoded = kx.encode_payload(payload)
    assert kx.decode_payload(encoded) == payload
    import base64

    raw = base64.b64decode(encoded)
    assert raw[0] == 5
    assert raw[1:6] == b"fed-1"
    assert raw[6:18] == payload.nonce
    assert raw[18:34] == payload.tag
    assert raw[34:] == payload.ciphertext


def test_decode_payload_rejects_malformed():
    for bad in ("not base64!!", "", "AAAA", kx.encode_payload(
        kx.SealedPayload(bytes(12), b"", bytes(16), "k")
    )[:-8]):
        with pytest.raises(ValueError):
            kx.decode_payload(bad)


def test_nonce_uniqueness_in_run():
    seen = {kx.fresh_nonce() for _ in range(100_000)}
    assert len(seen) == 100_000


def test_challenge_round_trip_and_single_use():
    store = kx.ChallengeStore(expiry=60)
    ltk = kx.derive_long_term_key(b"1234", b"\x09" * 16, iterations=2)
    ch = store.issue("alice")
    tag = kx.answer_challenge(ltk, ch)
    assert store.verify(ltk, ch.challenge_id, "alice", tag) == kx.ACCEPT
    # consumed: the very same answer can never be accepted again
    assert store.verify(ltk, ch.challenge_id, "alice", tag) == kx.REJECT_REPLAY


def test_challenge_consumed_even_on_bad_answer():
    store = kx.ChallengeStore()
    ltk = kx.derive_long_term_key(b"1234", b"\x09" * 16, iterations=2)
    ch = store.issue("alice")
    assert store.verify(ltk, ch.challenge_id, "alice", b"\0" * 16) == kx.REJECT_AUTH
    good = kx.answer_challenge(ltk, ch)
    assert store.verify(ltk, ch.challenge_id, "alice", good) == kx.REJECT_REPLAY


def test_challenge_expiry_uses_injected_clock():
    now = [1000.0]
    store = kx.ChallengeStore(expiry=60, clock=lambda: now[0])
    ltk = kx.derive_long_term_key(b"9999", b"\x01" * 16, iterations=2)
    ch = store.issue("bob")
    now[0] = 1060.0
    tag = kx.answer_challenge(ltk, ch)
    assert store.verify(ltk, ch.challenge_id, "bob", tag) == kx.REJECT_EXPIRED


def test_challenge_dropped_one_window_after_expiry():
    now = [1000.0]
    store = kx.ChallengeStore(expiry=60, clock=lambda: now[0])
    ltk = kx.derive_long_term_key(b"9999", b"\x01" * 16, iterations=2)
    late, dropped = store.issue("bob"), store.issue("bob")
    now[0] = 1119.0
    assert store.verify(ltk, late.challenge_id, "bob", kx.answer_challenge(ltk, late)) == kx.REJECT_EXPIRED
    now[0] = 1120.0
    assert store.verify(ltk, dropped.challenge_id, "bob", kx.answer_challenge(ltk, dropped)) == kx.REJECT_REPLAY
    assert len(store) == 0


def test_challenge_user_mismatch_rejected():
    store = kx.ChallengeStore()
    ltk = kx.derive_long_term_key(b"1111", b"\x02" * 16, iterations=2)
    ch = store.issue("carol")
    tag = kx.answer_challenge(ltk, ch)
    assert store.verify(ltk, ch.challenge_id, "mallory", tag) == kx.REJECT_AUTH


def test_wrong_pin_rejected_1000_trials():
    rng = random.Random(0xBEEF)
    store = kx.ChallengeStore(rng=rng)
    salt = rng.randbytes(16)
    right = kx.derive_long_term_key(b"424242", salt, iterations=1)
    for _ in range(1000):
        wrong_pin = rng.randbytes(6)
        if wrong_pin == b"424242":
            continue
        wrong = kx.derive_long_term_key(wrong_pin, salt, iterations=1)
        ch = store.issue("dave")
        tag = kx.answer_challenge(wrong, ch)
        assert store.verify(right, ch.challenge_id, "dave", tag) == kx.REJECT_AUTH


def test_concurrent_verification_admits_one_accept():
    store = kx.ChallengeStore()
    ltk = kx.derive_long_term_key(b"5555", b"\x03" * 16, iterations=2)
    ch = store.issue("erin")
    tag = kx.answer_challenge(ltk, ch)
    results = []
    barrier = threading.Barrier(16)

    def attempt():
        barrier.wait()
        results.append(store.verify(ltk, ch.challenge_id, "erin", tag))

    threads = [threading.Thread(target=attempt) for _ in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results.count(kx.ACCEPT) == 1
    assert results.count(kx.REJECT_REPLAY) == 15


def test_seals_of_same_plaintext_differ_1000_trials():
    # a fresh nonce per seal: the same plaintext under the same key never
    # gives the same wire blob twice
    ltk = kx.derive_long_term_key(b"8080", b"\x04" * 16, iterations=2)
    sealed = (kx.seal(ltk, kx.fresh_nonce(), b"\x55" * 16, aad=b"gina") for _ in range(1000))
    blobs = {kx.encode_payload(payload) for payload in sealed}
    assert len(blobs) == 1000

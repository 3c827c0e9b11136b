import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_cipher as ref
from hbesso import cipher

# Frozen known-answer vectors for this round structure, confirmed against
# published values for the identical construction.
KAT_ZERO = {
    16: "66e94bd4ef8a2c3b884cfa59ca342b2e",
    24: "aae06992acbf52a3e8f4a96ec9300bd7",
    32: "dc95c078a2408989ad48a21492842087",
}
KAT_SEQ_KEY = bytes(range(16))
KAT_SEQ_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
KAT_SEQ_CT = "69c4e0d86a7b0430d8cdb78070b4c55a"

blocks = st.binary(min_size=16, max_size=16)
keys = st.sampled_from([16, 24, 32]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)
)


def test_sbox_bijective_exhaustive():
    assert sorted(cipher.SBOX) == list(range(256))
    for x in range(256):
        assert cipher.INV_SBOX[cipher.SBOX[x]] == x


def test_sbox_matches_independent_generator():
    assert list(cipher.SBOX) == ref.SBOX


def test_sub_bytes_bytewise_independence():
    for b in (0x00, 0x53, 0xFF):
        state = bytes([b]) * 16
        assert cipher.sub_bytes(state) == bytes([cipher.SBOX[b]]) * 16


def test_sub_bytes_zero_state_against_oracle():
    out = cipher.sub_bytes(bytes(16))
    assert out == bytes([ref.SBOX[0]]) * 16


@given(blocks)
def test_sub_bytes_round_trip(state):
    assert cipher.sub_bytes(cipher.sub_bytes(state), inverse=True) == state


def test_shift_rows_constant_rows_unchanged():
    # rows of identical bytes are invariant under any rotation
    state = ref.rows_to_bytes([[r * 17] * 4 for r in range(4)])
    assert cipher.shift_rows(state) == state


def test_shift_rows_row1_rotates_left_by_one():
    rows = [[0, 0, 0, 0], [0xA, 0xB, 0xC, 0xD], [0, 0, 0, 0], [0, 0, 0, 0]]
    shifted = ref.bytes_to_rows(cipher.shift_rows(ref.rows_to_bytes(rows)))
    assert shifted[1] == [0xB, 0xC, 0xD, 0xA]


def test_shift_rows_inverse_round_trip_1000():
    rng = random.Random(0x5317)
    for _ in range(1000):
        state = rng.randbytes(16)
        assert cipher.shift_rows(cipher.shift_rows(state), inverse=True) == state
        # oracle: naive index arithmetic on the row-major matrix view
        rows = ref.bytes_to_rows(state)
        assert cipher.shift_rows(state) == ref.rows_to_bytes(ref.shift_rows(rows))


def test_mix_columns_zero_column():
    assert cipher.mix_columns(bytes(16)) == bytes(16)


def test_mix_columns_single_byte_columns_round_trip():
    for pos in range(4):
        for value in range(256):
            col = [0, 0, 0, 0]
            col[pos] = value
            state = bytes(col) + bytes(12)
            assert cipher.mix_columns(cipher.mix_columns(state), inverse=True) == state


def test_mix_columns_matrix_product_is_identity():
    # schoolbook 4x4 matrix multiply in GF(2^8)
    product = [
        [
            ref.poly_mul(ref.MIX[r][0], ref.INV_MIX[0][c])
            ^ ref.poly_mul(ref.MIX[r][1], ref.INV_MIX[1][c])
            ^ ref.poly_mul(ref.MIX[r][2], ref.INV_MIX[2][c])
            ^ ref.poly_mul(ref.MIX[r][3], ref.INV_MIX[3][c])
            for c in range(4)
        ]
        for r in range(4)
    ]
    assert product == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


@given(blocks)
def test_mix_columns_against_schoolbook_oracle(state):
    expect = ref.rows_to_bytes(ref.matrix_mul(ref.MIX, ref.bytes_to_rows(state)))
    assert cipher.mix_columns(state) == expect


def test_add_round_key_identities():
    state = bytes(range(16))
    key = bytes(range(16, 32))
    assert cipher.add_round_key(state, bytes(16)) == state
    assert cipher.add_round_key(cipher.add_round_key(state, key), key) == state
    assert cipher.add_round_key(state, state) == bytes(16)


@pytest.mark.parametrize(
    "key_len,words,rounds", [(16, 44, 10), (24, 52, 12), (32, 60, 14)]
)
def test_schedule_length_law(key_len, words, rounds):
    ks = cipher.expand_key(bytes(key_len))
    assert len(ks.words) == words
    assert ks.rounds == rounds


def test_schedule_prefix_is_raw_key():
    key = bytes(range(16))
    ks = cipher.expand_key(key)
    assert ks.round_key(0) == key


def test_expand_key_rejects_bad_lengths():
    for n in (0, 15, 17, 23, 31, 33):
        with pytest.raises(ValueError):
            cipher.expand_key(bytes(n))


@given(keys)
def test_schedule_matches_reference(key):
    ks = cipher.expand_key(key)
    ref_keys, ref_rounds = ref.expand_key(key)
    assert ks.rounds == ref_rounds
    assert [ks.round_key(r) for r in range(ks.rounds + 1)] == ref_keys


@pytest.mark.parametrize("key_len", [16, 24, 32])
def test_known_answer_zero_vectors(key_len):
    ks = cipher.expand_key(bytes(key_len))
    ct = cipher.encrypt_block(bytes(16), ks)
    assert ct.hex() == KAT_ZERO[key_len]
    assert ref.encrypt(bytes(16), bytes(key_len)) == ct
    assert cipher.decrypt_block(ct, ks) == bytes(16)
    assert ref.decrypt(ct, bytes(key_len)) == bytes(16)


def test_known_answer_sequential_vector():
    ks = cipher.expand_key(KAT_SEQ_KEY)
    assert cipher.encrypt_block(KAT_SEQ_PT, ks).hex() == KAT_SEQ_CT
    assert ref.encrypt(KAT_SEQ_PT, KAT_SEQ_KEY).hex() == KAT_SEQ_CT


@given(keys, blocks)
def test_encrypt_matches_reference(key, block):
    ks = cipher.expand_key(key)
    assert cipher.encrypt_block(block, ks) == ref.encrypt(block, key)


@given(keys, blocks)
def test_round_trip_property(key, block):
    ks = cipher.expand_key(key)
    ct = cipher.encrypt_block(block, ks)
    assert cipher.decrypt_block(ct, ks) == block
    assert cipher.encrypt_block(cipher.decrypt_block(block, ks), ks) == block


def test_encrypt_block_equals_staged_composition():
    rng = random.Random(0xC0DE)
    for _ in range(50):
        key = rng.randbytes(16)
        block = rng.randbytes(16)
        ks = cipher.expand_key(key)
        state = cipher.add_round_key(block, ks.round_key(0))
        for r in range(1, ks.rounds):
            state = cipher.sub_bytes(state)
            state = cipher.shift_rows(state)
            state = cipher.mix_columns(state)
            state = cipher.add_round_key(state, ks.round_key(r))
        state = cipher.sub_bytes(state)
        state = cipher.shift_rows(state)
        state = cipher.add_round_key(state, ks.round_key(ks.rounds))
        assert cipher.encrypt_block(block, ks) == state


def test_encryption_is_stateless():
    ks = cipher.expand_key(bytes(range(16)))
    block = bytes(range(16, 32))
    assert cipher.encrypt_block(block, ks) == cipher.encrypt_block(block, ks)


def test_avalanche_single_bit_flip():
    rng = random.Random(0xA1A)
    ks = cipher.expand_key(rng.randbytes(16))
    fractions = []
    for _ in range(1000):
        block = rng.randbytes(16)
        base = cipher.encrypt_block(block, ks)
        flip = rng.randrange(128)
        mutated = bytearray(block)
        mutated[flip // 8] ^= 1 << (flip % 8)
        other = cipher.encrypt_block(bytes(mutated), ks)
        assert other != base
        diff = int.from_bytes(base, "big") ^ int.from_bytes(other, "big")
        fractions.append(bin(diff).count("1") / 128)
    # informational: diffusion hovers near one half
    assert 0.0 < sum(fractions) / len(fractions) < 1.0


def test_wrong_key_decrypts_to_garbage():
    rng = random.Random(0xBAD)
    for _ in range(1000):
        key = rng.randbytes(16)
        wrong = rng.randbytes(16)
        if wrong == key:
            continue
        block = rng.randbytes(16)
        ct = cipher.encrypt_block(block, cipher.expand_key(key))
        assert cipher.decrypt_block(ct, cipher.expand_key(wrong)) != block


@pytest.mark.parametrize("key_len", [16, 24, 32])
def test_ctr_keystream_sliced_matches_blocks_and_bulk_matches_reference(key_len):
    key = bytes(range(key_len))
    ks = cipher.expand_key(key)
    nonce = bytes(range(100, 112))
    # 64 blocks, below _BULK_THRESHOLD: the byte-sliced core
    sliced = cipher.ctr_keystream(ks, nonce, 64, start=5)
    scalar = b"".join(
        cipher.encrypt_block(nonce + (5 + i).to_bytes(4, "big"), ks) for i in range(64)
    )
    assert sliced == scalar
    assert cipher.ctr_keystream(ks, nonce, 3, start=5) == scalar[:48]
    assert cipher.ctr_keystream(ks, nonce, 0) == b""
    # a chunk and more takes the numpy bulk path; sample it against the
    # independent reference: first and last block, both sides of a chunk
    # edge, and a stream that ends at counter 2**32 - 1
    chunk = cipher._CHUNK_BLOCKS
    count = chunk + 3
    for start in (5, (1 << 32) - count):
        stream = cipher.ctr_keystream(ks, nonce, count, start=start)
        assert len(stream) == 16 * count
        for i in (0, chunk - 1, chunk, count - 1):
            expect = ref.encrypt(nonce + (start + i).to_bytes(4, "big"), key)
            assert stream[16 * i : 16 * i + 16] == expect


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_ctr_keystream_both_sides_of_the_bulk_threshold(offset):
    # the byte-sliced path ends at _BULK_THRESHOLD - 1 blocks and the array path
    # starts at _BULK_THRESHOLD; every block against the reference
    key = bytes(range(50, 66))
    nonce = bytes(range(12))
    count = cipher._BULK_THRESHOLD + offset
    stream = cipher.ctr_keystream(cipher.expand_key(key), nonce, count, start=7)
    assert stream == b"".join(ref.encrypt(nonce + (7 + i).to_bytes(4, "big"), key) for i in range(count))


def test_ctr_keystream_validation():
    ks = cipher.expand_key(bytes(16))
    with pytest.raises(ValueError):
        cipher.ctr_keystream(ks, bytes(11), 1)
    with pytest.raises(ValueError):
        cipher.ctr_keystream(ks, bytes(12), 2, start=(1 << 32) - 1)


@settings(max_examples=25)
@given(st.integers(0, 40), st.integers(0, 1000))
def test_ctr_keystream_paths_agree_property(count, start):
    ks = cipher.expand_key(bytes(range(16, 40)))
    nonce = bytes(12)
    expect = b"".join(
        cipher.encrypt_block(nonce + (start + i).to_bytes(4, "big"), ks)
        for i in range(count)
    )
    assert cipher.ctr_keystream(ks, nonce, count, start=start) == expect


def _reference_stream(key, nonce, count, start):
    return b"".join(ref.encrypt(nonce + (start + i).to_bytes(4, "big"), key) for i in range(count))


@pytest.mark.parametrize("key_len", [16, 24, 32])
@pytest.mark.parametrize("count", [1, 2, 3, 26, 27, "last"])
def test_ctr_keystream_short_streams_match_the_reference(key_len, count):
    # every block of a byte-sliced stream, at counts up to _BULK_THRESHOLD - 1
    # and both at counter 0 and ending at counter 2**32 - 1
    count = cipher._BULK_THRESHOLD - 1 if count == "last" else count
    key = bytes(range(200, 200 + key_len))
    ks = cipher.expand_key(key)
    nonce = bytes(range(30, 42))
    for start in (0, (1 << 32) - count):
        expect = _reference_stream(key, nonce, count, start)
        assert cipher.ctr_keystream(ks, nonce, count, start=start) == expect


@settings(max_examples=12, deadline=None)
@given(keys, st.binary(min_size=12, max_size=12), st.data())
def test_ctr_keystream_below_the_threshold_matches_the_reference(key, nonce, data):
    count = data.draw(st.integers(0, cipher._BULK_THRESHOLD - 1), label="count")
    last = (1 << 32) - count
    start = data.draw(st.one_of(st.just(last), st.integers(0, 64), st.integers(0, last)), label="start")
    stream = cipher.ctr_keystream(cipher.expand_key(key), nonce, count, start=start)
    assert stream == _reference_stream(key, nonce, count, start)


def test_ctr_keystream_takes_the_bulk_branch_only_from_the_threshold(monkeypatch):
    def bulk_tables():
        raise AssertionError("bulk branch taken")

    monkeypatch.setattr(cipher, "_tables_np", bulk_tables)
    ks = cipher.expand_key(bytes(16))
    for count in (0, 1, 2, 26, cipher._BULK_THRESHOLD - 1):
        assert len(cipher.ctr_keystream(ks, bytes(12), count)) == 16 * count
    with pytest.raises(AssertionError, match="bulk branch taken"):
        cipher.ctr_keystream(ks, bytes(12), cipher._BULK_THRESHOLD)

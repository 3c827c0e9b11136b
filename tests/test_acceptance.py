"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import base64
import contextlib
import csv
import functools
import io
import random
import threading
import time
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import pytest
import requests

import reference_cipher as ref
from hbesso import bench, cipher, polymac
from hbesso import keyexchange as kx
from hbesso.agent import run_suite, summarize
from hbesso.idp import UserDirectory
from hbesso.saml import parse_challenge_document
from spawned_services import start_spawned_pair

CANONICAL = Path(__file__).resolve().parent.parent / "scenarios" / "canonical.txt"

CANONICAL_PINS = {
    "alice": b"pin-alpha-2468",
    "rita": b"pin-beta-13579",
    "tom": b"pin-gamma-8642",
    "wanda": b"pin-delta-5555",
    "eve": b"pin-epsilon-9753",
    "uma": b"pin-zeta-1122",
}


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL — {description}")
                raise
            print(f"ACCEPTANCE {number}: PASS — {description}")

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def protocol_run(tmp_path_factory):
    """Live services on loopback plus one full run of the canonical suite."""
    workdir = tmp_path_factory.mktemp("acceptance")
    pair = start_spawned_pair(workdir, kdf_iterations=1000)
    started = time.monotonic()
    results = run_suite(str(CANONICAL), pair.idp_url, pair.sp_url)
    suite_seconds = time.monotonic() - started
    yield {
        "pair": pair,
        "results": results,
        "suite_seconds": suite_seconds,
        "workdir": workdir,
    }
    pair.stop()


@criterion(1, "cipher correctness: 1e4 round-trips per key size + reference vectors, <1min")
def test_criterion_1_cipher_correctness():
    started = time.monotonic()
    rng = random.Random(0xACC1)
    for key_len in (16, 24, 32):
        for _ in range(10_000):
            key = rng.randbytes(key_len)
            block = rng.randbytes(16)
            schedule = cipher.expand_key(key)
            assert cipher.decrypt_block(cipher.encrypt_block(block, schedule), schedule) == block
    # all-zero and known-answer vectors, byte-for-byte against the
    # independently written straight-line implementation
    for key_len in (16, 24, 32):
        schedule = cipher.expand_key(bytes(key_len))
        mine = cipher.encrypt_block(bytes(16), schedule)
        assert mine == ref.encrypt(bytes(16), bytes(key_len))
    seq_key, seq_pt = bytes(range(16)), bytes.fromhex("00112233445566778899aabbccddeeff")
    assert cipher.encrypt_block(seq_pt, cipher.expand_key(seq_key)) == ref.encrypt(seq_pt, seq_key)
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"cipher acceptance took {elapsed:.1f}s"


@criterion(2, "structural laws: S-box bijection, MixColumns inverse, schedule lengths")
def test_criterion_2_structural_laws():
    assert sorted(cipher.SBOX) == list(range(256))
    for x in range(256):
        assert cipher.INV_SBOX[cipher.SBOX[x]] == x
    # exhaustive per-column basis: every single-byte column round-trips
    for pos in range(4):
        for value in range(256):
            col = bytearray(4)
            col[pos] = value
            state = bytes(col) + bytes(12)
            assert cipher.mix_columns(cipher.mix_columns(state), inverse=True) == state
    # forward * inverse matrix product equals identity in GF(2^8)
    for r in range(4):
        for c in range(4):
            acc = 0
            for k in range(4):
                acc ^= cipher.gf_mul(ref.MIX[r][k], ref.INV_MIX[k][c])
            assert acc == (1 if r == c else 0)
    for key_len, words in ((16, 44), (24, 52), (32, 60)):
        assert len(cipher.expand_key(bytes(key_len)).words) == words


@criterion(3, "MAC soundness: 1e3 oracle matches, 1e4 bit-flip forgeries rejected")
def test_criterion_3_mac_soundness():
    prime = polymac.PRIME
    rng = random.Random(0xACC3)

    def oracle(key, message):
        chunks = [
            int.from_bytes(message[i : i + 16] + b"\x01", "little")
            for i in range(0, len(message), 16)
        ]
        n = len(chunks)
        r = int.from_bytes(key.r, "little")
        total = sum(c * pow(r, n - i + 1, prime) for i, c in enumerate(chunks, start=1))
        return ((total % prime + int.from_bytes(key.s, "little")) % (1 << 128)).to_bytes(16, "little")

    for _ in range(1000):
        key = polymac.MacKey.from_material(rng.randbytes(16), rng.randbytes(16))
        message = rng.randbytes(rng.randrange(0, 65))
        assert polymac.mac_compute(key, message) == oracle(key, message)

    forged_accepts = 0
    for _ in range(10_000):
        key = polymac.MacKey.from_material(rng.randbytes(16), rng.randbytes(16))
        message = rng.randbytes(rng.randrange(1, 65))
        tag = polymac.mac_compute(key, message)
        bit = rng.randrange(len(message) * 8)
        mutated = bytearray(message)
        mutated[bit // 8] ^= 1 << (bit % 8)
        if polymac.mac_verify(key, bytes(mutated), tag):
            forged_accepts += 1
    assert forged_accepts == 0


def _sso_response_b64(pair, user, pin):
    gate = requests.get(f"{pair.sp_url}/resource", allow_redirects=False, timeout=5)
    request_b64 = parse_qs(urlsplit(gate.headers["Location"]).query)["SAMLRequest"][0]
    challenge = requests.get(f"{pair.idp_url}/challenge", params={"user": user}, timeout=5)
    ch, salt, iterations = parse_challenge_document(challenge.content, user)
    ltk = kx.derive_long_term_key(pin, salt, iterations)
    tag = kx.answer_challenge(ltk, ch)
    sso = requests.post(
        f"{pair.idp_url}/sso",
        data={
            "SAMLRequest": request_b64,
            "user": user,
            "challenge-id": ch.challenge_id,
            "answer": base64.b64encode(tag).decode(),
        },
        timeout=5,
    )
    assert sso.status_code == 200
    return parse_qs(sso.text)["SAMLResponse"][0]


@criterion(4, "protocol end-to-end: 6 scenarios with exact reasons + 32-way replay, <30s")
def test_criterion_4_protocol_end_to_end(protocol_run):
    started = time.monotonic()
    results = protocol_run["results"]
    text, exit_code = summarize(results)
    assert exit_code == 0, text
    by_name = {r.name: r for r in results}
    expected_finals = {
        "happy-path": ("fetch-resource", "ok"),
        "replayed-response": ("replay-last-response", "replayed"),
        "tampered-assertion": ("post-response", "bad-tag"),
        "wrong-pin": ("use-wrong-pin", "reject-auth"),
        "expired-assertion": ("post-response", "expired"),
        "unknown-sp": ("solve-challenge", "unknown-sp"),
    }
    for name, (step, outcome) in expected_finals.items():
        final = by_name[name].outcomes[-1]
        assert (final.step, final.actual) == (step, outcome), name
    # the happy path's final resource names the authenticated user
    assert "alice" in by_name["happy-path"].transcript[-1]["body"]

    # 32 concurrent submissions of one response admit at most one session
    pair = protocol_run["pair"]
    requests.post(
        f"{pair.idp_url}/register", data={"user": "pam", "pin": "pin-parallel-1"}, timeout=5
    )
    response_b64 = _sso_response_b64(pair, "pam", b"pin-parallel-1")
    statuses = []
    barrier = threading.Barrier(32)

    def submit():
        barrier.wait()
        for attempt in (1, 2):
            try:
                r = requests.post(
                    f"{pair.sp_url}/acs", data={"SAMLResponse": response_b64}, timeout=10
                )
            except requests.ConnectionError:
                # dropped by a saturated accept queue; resubmitting the same
                # response cannot weaken the at-most-one-session property
                if attempt == 2:
                    raise
                continue
            statuses.append(r.status_code)
            return

    threads = [threading.Thread(target=submit) for _ in range(32)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert statuses.count(200) == 1
    assert statuses.count(403) == 31

    elapsed = protocol_run["suite_seconds"] + (time.monotonic() - started)
    assert elapsed < 30, f"protocol acceptance took {elapsed:.1f}s"


def _run_cli_capturing(main, argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        main(argv)
    return buffer.getvalue()


@criterion(5, "benchmark output shapes, warn-level monotonicity, MB/s self-consistency")
def test_criterion_5_benchmark_reproduction():
    from hbesso.cli import bench_main

    out = _run_cli_capturing(
        bench_main,
        ["throughput", "--megabytes", "1", "--reps", "3", "--format", "csv", "--seed", "55"],
    )
    throughput_rows = list(csv.reader(io.StringIO(out)))
    assert throughput_rows[0] == ["key_bits", "megabytes_processed", "seconds", "mb_per_second"]
    assert [r[0] for r in throughput_rows[1:]] == ["128", "192", "256"]
    for row in throughput_rows[1:]:
        megabytes, seconds, mbps = float(row[1]), float(row[2]), float(row[3])
        assert mbps == round(megabytes / seconds, 3)
    seconds_by_size = [float(r[2]) for r in throughput_rows[1:]]
    flags = [
        f"  throughput monotone in key size: "
        f"{'pass' if bench.check_monotone(seconds_by_size) else 'warn'}"
    ]

    out = _run_cli_capturing(
        bench_main,
        ["compare", "--payload-bytes", "2048", "--reps", "3", "--format", "csv", "--seed", "56"],
    )
    compare_rows = list(csv.reader(io.StringIO(out)))
    assert compare_rows[0] == ["key_bits", "cipher_only_ms", "cipher_mac_ms", "assertion_ms"]
    assert [r[0] for r in compare_rows[1:]] == ["128", "192", "256"]
    cells = [float(v) for row in compare_rows[1:] for v in row[1:]]
    assert len(cells) == 9 and all(v > 0 for v in cells)
    for column in range(1, 4):
        series = [float(r[column]) for r in compare_rows[1:]]
        flags.append(
            f"  comparison column {compare_rows[0][column]} monotone: "
            f"{'pass' if bench.check_monotone(series) else 'warn'}"
        )
    for line in flags:
        print(line)

    # the text renderings carry the table titles and the warn-level flag
    report = bench.throughput_report(1, 3, rng=random.Random(57))
    text = bench.emit_table(report, "text")
    assert "cipher running time by key length" in text
    assert "monotone in key size" in text


@criterion(6, "secret hygiene: persisted files contain no PIN or long-term key bytes")
def test_criterion_6_secret_hygiene(protocol_run):
    workdir = protocol_run["workdir"]
    directory = UserDirectory(str(workdir / "idp-directory.tsv"))
    assert len(directory) >= len(CANONICAL_PINS)
    persisted = b"".join(p.read_bytes() for p in sorted(workdir.iterdir()) if p.is_file())
    for user, pin in CANONICAL_PINS.items():
        record = directory.get(user)
        assert record is not None, f"{user} missing from persisted directory"
        ltk = kx.derive_long_term_key(pin, record.salt, 1000)
        assert pin not in persisted, f"PIN of {user} leaked to disk"
        assert ltk not in persisted, f"long-term key of {user} leaked to disk"
        assert base64.b64encode(pin) not in persisted
        assert base64.b64encode(ltk) not in persisted

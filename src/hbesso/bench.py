"""Benchmark harness: cipher throughput by key size and an execution-time
comparison of three encryption pipelines (raw counter mode, seal with its
MAC, and full sealed-assertion issuance including serialization).

Timings are medians over repeated runs; single-shot numbers are too noisy
to compare.  Reported MB/s is always megabytes/seconds recomputed from the
reported (3-decimal) values, so every emitted row is self-consistent.
Monotonicity of time in key size is a warn-level check, not a failure:
background load can perturb any single run.
"""

from __future__ import annotations

import base64
import csv
import dataclasses
import io
import math
import platform
import statistics
import time
from dataclasses import dataclass
from random import Random
from typing import Callable, Optional, Union

import numpy as np

from . import cipher, saml
from . import keyexchange as kx

KEY_SIZES = (128, 192, 256)
MB = 1_000_000


def median_of(values: list[float]) -> float:
    return float(statistics.median(values))


def machine_descriptor() -> str:
    return f"{platform.platform()} / {platform.python_implementation()} {platform.python_version()}"


@dataclass(frozen=True)
class BenchRow:
    key_bits: int
    megabytes: float
    seconds: float
    mb_per_s: float


@dataclass(frozen=True)
class ComparisonRow:
    key_bits: int
    cipher_only_ms: float
    cipher_mac_ms: float
    assertion_ms: float


@dataclass
class Report:
    """One table: a row per key size, with one column per row field, in
    field order.  `columns` holds each column's (CSV name, text heading,
    text width); `monotone` the (flag label, field) pairs whose values
    should not fall as the key grows."""

    title: str
    columns: tuple[tuple[str, str, int], ...]
    rows: list[Union[BenchRow, ComparisonRow]]
    monotone: tuple[tuple[str, str], ...]
    machine: str
    repetitions: int


_THROUGHPUT_COLUMNS = (
    ("key_bits", "key bits", 8),
    ("megabytes_processed", "MB processed", 12),
    ("seconds", "time (s)", 10),
    ("mb_per_second", "MB/second", 10),
)
_COMPARISON_COLUMNS = (
    ("key_bits", "key bits", 8),
    ("cipher_only_ms", "cipher only (ms)", 17),
    ("cipher_mac_ms", "cipher+MAC (ms)", 16),
    ("assertion_ms", "sealed assertion (ms)", 22),
)


def _check_repetitions(repetitions: int) -> None:
    """Refuse too few repetitions before a buffer or payload is drawn."""
    if repetitions < 3:
        raise ValueError("repetitions must be at least 3")


def _median_seconds(run: Callable[[], object], repetitions: int) -> float:
    """Median wall time of `repetitions` calls of `run`."""
    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return median_of(times)


def _ctr_xor(schedule: cipher.KeySchedule, nonce: bytes, data: np.ndarray) -> np.ndarray:
    """`data` XOR its counter-mode keystream: encryption and decryption alike."""
    stream = cipher.ctr_keystream(schedule, nonce, (len(data) + 15) // 16)
    return data ^ np.frombuffer(stream, dtype=np.uint8)[: len(data)]


def bench_throughput(
    key_bits: int,
    megabytes: float,
    repetitions: int = 5,
    round_trip: bool = False,
    rng: Optional[Random] = None,
) -> BenchRow:
    """Counter-mode encryption of a random buffer; the row carries the
    median repetition.  With round_trip the buffer is also decrypted, for
    exploring timings that may have measured both directions."""
    if key_bits not in KEY_SIZES:
        raise ValueError(f"key size must be one of {KEY_SIZES}")
    if not math.isfinite(megabytes):
        raise ValueError("megabytes must be finite")
    if megabytes < 1:
        raise ValueError("megabytes must be at least 1")
    _check_repetitions(repetitions)
    rng = rng or Random()
    schedule = cipher.expand_key(kx.rand_bytes(rng, key_bits // 8))
    data = np.frombuffer(rng.randbytes(int(megabytes * MB)), dtype=np.uint8)
    nonce = kx.rand_bytes(rng, 12)

    def run() -> None:
        ct = _ctr_xor(schedule, nonce, data)
        if round_trip:
            _ctr_xor(schedule, nonce, ct)

    seconds = max(round(_median_seconds(run, repetitions), 3), 0.001)
    return BenchRow(key_bits, megabytes, seconds, round(megabytes / seconds, 3))


def throughput_report(
    megabytes: float,
    repetitions: int = 5,
    key_sizes: tuple[int, ...] = KEY_SIZES,
    round_trip: bool = False,
    rng: Optional[Random] = None,
) -> Report:
    rows = [
        bench_throughput(bits, megabytes, repetitions, round_trip=round_trip, rng=rng)
        for bits in key_sizes
    ]
    title = "cipher running time by key length" + (" (encrypt + decrypt)" if round_trip else "")
    return Report(title, _THROUGHPUT_COLUMNS, rows, (("", "seconds"),), machine_descriptor(), repetitions)


def _time_pipelines(key_bits: int, payload: bytes, repetitions: int, rng: Random) -> ComparisonRow:
    key = kx.rand_bytes(rng, key_bits // 8)
    fed_key_id = f"bench-{key_bits}"
    nonce = kx.rand_bytes(rng, 12)
    payload_np = np.frombuffer(payload, dtype=np.uint8)
    subject = base64.b64encode(payload).decode("ascii")
    now = time.time()

    def cipher_only() -> None:
        _ctr_xor(cipher.expand_key(key), nonce, payload_np)

    def with_mac() -> None:
        kx.seal(key, nonce, payload)

    def full_assertion() -> None:
        assertion = saml.build_assertion("bench-idp", subject, "bench-sp", now, 300)
        saml.encrypt_assertion(assertion, key, fed_key_id)

    return ComparisonRow(
        key_bits,
        *(round(_median_seconds(run, repetitions) * 1000, 3) for run in (cipher_only, with_mac, full_assertion)),
    )


def bench_comparison(
    payload_bytes: int,
    repetitions: int = 5,
    rng: Optional[Random] = None,
) -> Report:
    """Three pipelines on identical payloads, one row per key size."""
    if payload_bytes < 1:
        raise ValueError("payload must be at least 1 byte")
    _check_repetitions(repetitions)
    rng = rng or Random()
    payload = rng.randbytes(payload_bytes)
    rows = [_time_pipelines(bits, payload, repetitions, rng) for bits in KEY_SIZES]
    return Report(
        f"execution time for encryption ({payload_bytes}-byte payload)",
        _COMPARISON_COLUMNS,
        rows,
        (("cipher", "cipher_only_ms"), ("cipher+MAC", "cipher_mac_ms"), ("assertion", "assertion_ms")),
        machine_descriptor(),
        repetitions,
    )


def check_monotone(values: list[float]) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


def emit_table(report: Report, fmt: str = "text") -> str:
    """The report as CSV (one header row, then the raw field values) or as
    a text table: title, headings, one line per row (ints as they are,
    floats to 3 decimals), the monotonicity flags and the machine."""
    if fmt not in ("text", "csv"):
        raise ValueError(f"format must be text or csv, got {fmt!r}")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([name for name, _, _ in report.columns])
        writer.writerows(dataclasses.astuple(row) for row in report.rows)
        return buf.getvalue()
    header = "  ".join(f"{heading:>{width}}" for _, heading, width in report.columns)
    lines = [report.title, header, "-" * len(header)]
    for row in report.rows:
        cells = zip(dataclasses.fields(row), dataclasses.astuple(row), report.columns)
        lines.append(
            "  ".join(f"{value:>{width}{'' if f.type == 'int' else '.3f'}}" for f, value, (_, _, width) in cells)
        )
    if report.rows:
        flags = []
        for label, name in report.monotone:
            flag = "pass" if check_monotone([getattr(row, name) for row in report.rows]) else "warn"
            flags.append(f"{label}={flag}" if label else flag)
        lines.append(f"monotone in key size: {', '.join(flags)}")
    lines.append(f"machine: {report.machine} (median of {report.repetitions})")
    return "\n".join(lines) + "\n"

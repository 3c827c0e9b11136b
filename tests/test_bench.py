import csv
import io
import itertools
import os
import pathlib
import random
import subprocess
import sys
import time
import types

import pytest

from hbesso import bench

REPO = pathlib.Path(__file__).resolve().parent.parent


def test_median_of_three_is_middle_value():
    assert bench.median_of([3.0, 1.0, 2.0]) == 2.0
    assert bench.median_of([5.0, 5.0, 1.0]) == 5.0


def test_throughput_row_fields():
    row = bench.bench_throughput(128, megabytes=1, repetitions=3, rng=random.Random(1))
    assert row.key_bits == 128
    assert row.seconds > 0
    assert row.mb_per_s == round(row.megabytes / row.seconds, 3)


def test_throughput_validation():
    with pytest.raises(ValueError):
        bench.bench_throughput(100, 1, 3)
    with pytest.raises(ValueError):
        bench.bench_throughput(128, 0.5, 3)
    with pytest.raises(ValueError):
        bench.bench_throughput(128, 1, 2)


def test_round_trip_flag_costs_more():
    rng = random.Random(2)
    one_way = bench.bench_throughput(128, 1, 3, rng=rng)
    both = bench.bench_throughput(128, 1, 3, round_trip=True, rng=rng)
    assert both.seconds >= one_way.seconds
    report = bench.throughput_report(1, 3, key_sizes=(), round_trip=True)
    assert report.title == "cipher running time by key length (encrypt + decrypt)"


def test_throughput_report_shape_and_consistency():
    report = bench.throughput_report(1, repetitions=3, rng=random.Random(3))
    assert [r.key_bits for r in report.rows] == [128, 192, 256]
    for row in report.rows:
        assert row.mb_per_s == round(row.megabytes / row.seconds, 3)


def test_comparison_report_shape():
    report = bench.bench_comparison(512, repetitions=3, rng=random.Random(4))
    assert [r.key_bits for r in report.rows] == [128, 192, 256]
    for row in report.rows:
        assert row.cipher_only_ms > 0
        assert row.cipher_mac_ms > 0
        assert row.assertion_ms > 0


def test_comparison_validation():
    with pytest.raises(ValueError):
        bench.bench_comparison(0, 3)
    with pytest.raises(ValueError):
        bench.bench_comparison(512, 1)


def test_emit_throughput_csv_round_trips():
    report = bench.throughput_report(1, repetitions=3, rng=random.Random(5))
    out = bench.emit_table(report, "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key_bits", "megabytes_processed", "seconds", "mb_per_second"]
    assert len(rows) == 1 + len(report.rows)
    for parsed, row in zip(rows[1:], report.rows):
        assert int(parsed[0]) == row.key_bits
        assert float(parsed[1]) == row.megabytes
        assert float(parsed[2]) == row.seconds
        assert float(parsed[3]) == row.mb_per_s
        # self-consistency on the emitted values themselves
        assert float(parsed[3]) == round(float(parsed[1]) / float(parsed[2]), 3)


def test_emit_comparison_csv_round_trips():
    report = bench.bench_comparison(256, repetitions=3, rng=random.Random(6))
    out = bench.emit_table(report, "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key_bits", "cipher_only_ms", "cipher_mac_ms", "assertion_ms"]
    assert len(rows) == 4
    for parsed, row in zip(rows[1:], report.rows):
        assert float(parsed[1]) == row.cipher_only_ms


def test_emit_text_one_line_per_row_plus_header():
    report = bench.throughput_report(1, repetitions=3, rng=random.Random(7))
    out = bench.emit_table(report, "text")
    lines = out.splitlines()
    assert lines[0] == "cipher running time by key length"
    assert "key bits" in lines[1]
    data_lines = [l for l in lines if l.lstrip().startswith(("128", "192", "256"))]
    assert len(data_lines) == 3


def test_empty_report_emits_header_only():
    out = bench.emit_table(bench.throughput_report(1, 3, key_sizes=()), "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["key_bits", "megabytes_processed", "seconds", "mb_per_second"]]
    text = bench.emit_table(bench.throughput_report(1, 3, key_sizes=()), "text")
    assert "key bits" in text


def test_emit_table_rejects_unknown_format():
    with pytest.raises(ValueError):
        bench.emit_table(bench.throughput_report(1, 3, key_sizes=()), "yaml")


def test_check_monotone():
    assert bench.check_monotone([1.0, 1.0, 2.0])
    assert not bench.check_monotone([2.0, 1.0])
    assert bench.check_monotone([])


def test_comparison_text_has_three_column_groups():
    report = bench.bench_comparison(256, repetitions=3, rng=random.Random(8))
    out = bench.emit_table(report, "text")
    assert "cipher only (ms)" in out
    assert "cipher+MAC (ms)" in out
    assert "sealed assertion (ms)" in out
    assert "monotone in key size" in out


@pytest.fixture
def stepping_clock(monkeypatch):
    """`bench` reads a clock that advances 1, 2, 3 ... ms per call, on a fixed machine."""
    steps = itertools.count(1)
    now_ms = 0

    def perf_counter():
        nonlocal now_ms
        now_ms += next(steps)
        return now_ms / 1000

    monkeypatch.setattr(bench, "time", types.SimpleNamespace(perf_counter=perf_counter, time=time.time))
    monkeypatch.setattr(bench, "machine_descriptor", lambda: "test-machine")


def test_throughput_table_layout(stepping_clock):
    report = bench.throughput_report(1, 3, rng=random.Random(11))
    assert bench.emit_table(report, "text") == (
        "cipher running time by key length\n"
        "key bits  MB processed    time (s)   MB/second\n"
        "----------------------------------------------\n"
        "     128         1.000       0.004     250.000\n"
        "     192         1.000       0.010     100.000\n"
        "     256         1.000       0.016      62.500\n"
        "monotone in key size: pass\n"
        "machine: test-machine (median of 3)\n"
    )
    assert bench.emit_table(report, "csv") == (
        "key_bits,megabytes_processed,seconds,mb_per_second\r\n"
        "128,1,0.004,250.0\r\n"
        "192,1,0.01,100.0\r\n"
        "256,1,0.016,62.5\r\n"
    )


def test_comparison_table_layout(stepping_clock):
    report = bench.bench_comparison(256, 3, rng=random.Random(12))
    assert bench.emit_table(report, "text") == (
        "execution time for encryption (256-byte payload)\n"
        "key bits   cipher only (ms)   cipher+MAC (ms)   sealed assertion (ms)\n"
        "---------------------------------------------------------------------\n"
        "     128              4.000            10.000                  16.000\n"
        "     192             22.000            28.000                  34.000\n"
        "     256             40.000            46.000                  52.000\n"
        "monotone in key size: cipher=pass, cipher+MAC=pass, assertion=pass\n"
        "machine: test-machine (median of 3)\n"
    )
    assert bench.emit_table(report, "csv") == (
        "key_bits,cipher_only_ms,cipher_mac_ms,assertion_ms\r\n"
        "128,4.0,10.0,16.0\r\n"
        "192,22.0,28.0,34.0\r\n"
        "256,40.0,46.0,52.0\r\n"
    )


def test_run_bench_script_prints_three_titled_tables(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_bench.py"), "--megabytes", "1", "--reps", "3"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    titles = [lines[i - 1] for i, line in enumerate(lines) if line.startswith("key bits")]
    assert len(titles) == 3 and len(set(titles)) == 3, titles


class NoDrawRng(random.Random):
    def randbytes(self, n):
        pytest.fail(f"drew {n} random octets before checking the repetitions")


@pytest.mark.parametrize(
    "run",
    [
        lambda rng: bench.bench_throughput(128, 64, 2, rng=rng),
        lambda rng: bench.throughput_report(64, 2, rng=rng),
        lambda rng: bench.bench_comparison(4096, 2, rng=rng),
    ],
    ids=["bench_throughput", "throughput_report", "bench_comparison"],
)
def test_too_few_repetitions_are_refused_before_anything_is_drawn(run):
    with pytest.raises(ValueError, match="repetitions must be at least 3"):
        run(NoDrawRng(0))

#!/usr/bin/env python3
"""Desk-scale benchmark run: the throughput table (encrypt, then encrypt +
decrypt) and the three-pipeline comparison table.

Usage: python scripts/run_bench.py [--megabytes N] [--reps N]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hbesso import bench  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--megabytes", type=float, default=8.0)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args()

    print(bench.emit_table(bench.throughput_report(args.megabytes, args.reps)))
    print(bench.emit_table(bench.throughput_report(args.megabytes, args.reps, round_trip=True)))
    print(bench.emit_table(bench.bench_comparison(4096, args.reps)))


if __name__ == "__main__":
    main()

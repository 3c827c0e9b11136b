"""Command-line entry points: `idp serve`, `sp serve`, `agent run`,
`bench throughput` and `bench compare`.

Service configs are JSON files; see configs under scripts/ for working
examples.  The environment variables IDP_LISTEN and SP_LISTEN override the
configured listen addresses.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from random import Random
from typing import Optional

from . import agent as agent_mod
from . import bench as bench_mod
from . import httpbase
from .idp import IdentityProvider, IdpConfig, IdpHandler
from .keystore import KeyStore
from .sp import ServiceProvider, SpConfig, SpHandler


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _relative_to_config(config_path: str, value: str) -> str:
    if os.path.isabs(value):
        return value
    return os.path.join(os.path.dirname(os.path.abspath(config_path)), value)


def build_idp(config_path: str, seed: Optional[int] = None) -> tuple[IdentityProvider, str]:
    """Identity provider plus its listen address, from a JSON config."""
    raw = _load_json(config_path)
    key_store = KeyStore.load(_relative_to_config(config_path, raw["key_store_path"]))
    directory_path = raw.get("directory_path")
    if directory_path:
        directory_path = _relative_to_config(config_path, directory_path)
    config = IdpConfig(
        entity_id=raw["entity_id"],
        master_key_id=raw["master_key_id"],
        federation_keys=dict(raw.get("federation_keys", {})),
        assertion_lifetime=float(raw.get("assertion_lifetime", 300)),
        challenge_expiry=float(raw.get("challenge_expiry", 60)),
        kdf_iterations=int(raw.get("kdf_iterations", 10_000)),
        listen_address=raw.get("listen_address", "127.0.0.1:8443"),
        directory_path=directory_path,
    )
    rng = Random(seed) if seed is not None else None
    idp = IdentityProvider(config, key_store, rng=rng)
    listen = os.environ.get("IDP_LISTEN", config.listen_address)
    return idp, listen


def build_sp(config_path: str, seed: Optional[int] = None) -> tuple[ServiceProvider, str]:
    """Service provider plus its listen address, from a JSON config."""
    raw = _load_json(config_path)
    key_store = KeyStore.load(_relative_to_config(config_path, raw["key_store_path"]))
    config = SpConfig(
        entity_id=raw["entity_id"],
        acs_url=raw["acs_url"],
        idp_url=raw["idp_url"],
        federation_key_id=raw["federation_key_id"],
        clock_skew=float(raw.get("clock_skew", 30)),
        session_lifetime=float(raw.get("session_lifetime", 600)),
        pending_expiry=float(raw.get("pending_expiry", 300)),
        listen_address=raw.get("listen_address", "127.0.0.1:8444"),
    )
    rng = Random(seed) if seed is not None else None
    sp = ServiceProvider(config, key_store, rng=rng)
    listen = os.environ.get("SP_LISTEN", config.listen_address)
    return sp, listen


def _serve_main(role: str, title: str, build, handler_cls, argv: Optional[list[str]]) -> None:
    """`<role> serve`: build the service from its config, then serve until
    interrupted.  `build` is passed in at call time so a wrapped
    build_idp/build_sp on this module is the one used."""
    parser = argparse.ArgumentParser(prog=role, description=f"{title} service")
    sub = parser.add_subparsers(dest="command", required=True)
    serve = sub.add_parser("serve", help=f"run the {title}")
    serve.add_argument("--config", required=True, help="JSON config path")
    serve.add_argument("--test-clock", action="store_true", help="honor the X-Test-Clock-Skew header")
    serve.add_argument("--seed", type=int, help="deterministic randomness (tests/demos only)")
    args = parser.parse_args(argv)
    service, listen = build(args.config, seed=args.seed)
    httpbase.serve(service, handler_cls, listen, role, test_clock=args.test_clock)


def idp_main(argv: Optional[list[str]] = None) -> None:
    _serve_main("idp", "identity provider", build_idp, IdpHandler, argv)


def sp_main(argv: Optional[list[str]] = None) -> None:
    _serve_main("sp", "service provider", build_sp, SpHandler, argv)


def agent_main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(prog="agent", description="scripted SSO user agent")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario suite")
    run.add_argument("--suite", required=True, help="scenario file")
    run.add_argument("--idp", required=True, help="identity provider base URL")
    run.add_argument("--sp", required=True, help="service provider base URL")
    run.add_argument("--parallel", action="store_true", help="run scenarios concurrently")
    args = parser.parse_args(argv)
    try:
        results = agent_mod.run_suite(args.suite, args.idp, args.sp, parallel=args.parallel)
    except agent_mod.SuiteParseError as exc:
        print(f"suite error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    text, exit_code = agent_mod.summarize(results)
    print(text)
    raise SystemExit(exit_code)


def bench_main(argv: Optional[list[str]] = None) -> None:
    parser = argparse.ArgumentParser(prog="bench", description="cipher and protocol benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    throughput = sub.add_parser("throughput", help="counter-mode throughput by key size")
    throughput.add_argument(
        "--key-size",
        type=int,
        choices=bench_mod.KEY_SIZES,
        action="append",
        help="key size in bits; repeatable, default all three",
    )
    throughput.add_argument("--megabytes", type=float, default=64.0, help="buffer size (default 64)")
    throughput.add_argument("--reps", type=int, default=5, help="repetitions (median reported)")
    throughput.add_argument("--format", choices=("text", "csv"), default="text")
    throughput.add_argument(
        "--round-trip", action="store_true", help="time encrypt plus decrypt"
    )
    throughput.add_argument("--seed", type=int, help="deterministic buffers/keys")

    compare = sub.add_parser("compare", help="three-pipeline execution-time comparison")
    compare.add_argument("--payload-bytes", type=int, default=4096)
    compare.add_argument("--reps", type=int, default=5)
    compare.add_argument("--format", choices=("text", "csv"), default="text")
    compare.add_argument("--seed", type=int, help="deterministic payload/keys")

    args = parser.parse_args(argv)
    rng = Random(args.seed) if args.seed is not None else None
    if args.command == "throughput":
        sizes = tuple(args.key_size) if args.key_size else bench_mod.KEY_SIZES
        report = bench_mod.throughput_report(
            args.megabytes, args.reps, key_sizes=sizes, round_trip=args.round_trip, rng=rng
        )
    else:
        report = bench_mod.bench_comparison(args.payload_bytes, args.reps, rng=rng)
    print(bench_mod.emit_table(report, args.format), end="")

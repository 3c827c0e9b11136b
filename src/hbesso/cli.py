"""Command-line entry points: `idp serve`, `sp serve`, `agent run`,
`bench throughput` and `bench compare`.

Service configs are JSON files whose keys are the fields of `IdpConfig` /
`SpConfig` plus `key_store_path`; scripts/run_demo.py writes working
examples.  The environment variables IDP_LISTEN and SP_LISTEN override the
configured listen addresses.
"""

from __future__ import annotations

import argparse
import dataclasses
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


# Config keys naming files; a relative one resolves against the config's directory.
_PATH_KEYS = ("key_store_path", "directory_path")


def _load_config(config_cls, config_path: str) -> tuple:
    """`config_cls` plus the key store its `key_store_path` names, from a
    JSON config.  The keys are the dataclass's fields plus `key_store_path`.
    That key and every field without a default are required; an absent
    field takes its default.  Numeric values are cast to the type of their
    default.  Unknown or missing keys raise ValueError naming the file."""
    with open(config_path, encoding="utf-8") as fh:
        raw = json.load(fh)
    fields = dataclasses.fields(config_cls)
    unknown = sorted(raw.keys() - {f.name for f in fields} - {"key_store_path"})
    if unknown:
        raise ValueError(f"{config_path}: unknown config key(s): {', '.join(unknown)}")
    no_default = dataclasses.MISSING
    required = {f.name for f in fields if f.default is no_default and f.default_factory is no_default}
    missing = sorted(({"key_store_path"} | required) - raw.keys())
    if missing:
        raise ValueError(f"{config_path}: missing config key(s): {', '.join(missing)}")
    for f in fields:
        if f.name in raw and isinstance(f.default, (int, float)):
            raw[f.name] = type(f.default)(raw[f.name])
    base = os.path.dirname(os.path.abspath(config_path))
    for key in _PATH_KEYS:
        if raw.get(key):
            raw[key] = os.path.join(base, raw[key])
    key_store = KeyStore.load(raw.pop("key_store_path"))
    return config_cls(**raw), key_store


def _build(service_cls, config_cls, listen_env: str, config_path: str, seed: Optional[int]):
    config, key_store = _load_config(config_cls, config_path)
    rng = Random(seed) if seed is not None else None
    return service_cls(config, key_store, rng=rng), os.environ.get(listen_env, config.listen_address)


def build_idp(config_path: str, seed: Optional[int] = None) -> tuple[IdentityProvider, str]:
    """Identity provider plus its listen address, from a JSON config."""
    return _build(IdentityProvider, IdpConfig, "IDP_LISTEN", config_path, seed)


def build_sp(config_path: str, seed: Optional[int] = None) -> tuple[ServiceProvider, str]:
    """Service provider plus its listen address, from a JSON config."""
    return _build(ServiceProvider, SpConfig, "SP_LISTEN", config_path, seed)


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

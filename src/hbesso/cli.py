"""Command-line entry points: `idp serve`, `sp serve`, `agent run`,
`bench throughput` and `bench compare`.

A service's only inputs are its JSON config file and `--test-clock`.  The
config's keys are the fields of `IdpConfig` / `SpConfig` plus
`key_store_path`; `write_workspace` in tests/spawned_services.py writes
working examples.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing
from random import Random
from typing import Optional

from . import httpbase
from .idp import IdentityProvider, IdpConfig, IdpHandler
from .keystore import KeyStore, KeyStoreError
from .sp import ServiceProvider, SpConfig, SpHandler


# Config keys naming files; a relative one resolves against the config's directory.
_PATH_KEYS = ("key_store_path", "directory_path")


def _build(service_cls, config_cls, config_path: str) -> tuple:
    """`service_cls` plus its listen address, from a JSON config object whose
    keys are the fields of `config_cls` plus `key_store_path`.  That key and
    every field without a default are required; an absent field takes its
    default.  Each value must have its field's type (an int passes for a
    float; no field takes a bool), and the service checks its ranges.  Other
    input, a file that is not JSON included, raises ValueError naming the file."""
    with open(config_path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{config_path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{config_path}: config must be a JSON object, got {type(raw).__name__}")
    fields = dataclasses.fields(config_cls)
    types = {**typing.get_type_hints(config_cls), "key_store_path": str}
    unknown = sorted(raw.keys() - types.keys())
    if unknown:
        raise ValueError(f"{config_path}: unknown config key(s): {', '.join(unknown)}")
    no_default = dataclasses.MISSING
    required = {f.name for f in fields if f.default is no_default and f.default_factory is no_default}
    missing = sorted(({"key_store_path"} | required) - raw.keys())
    if missing:
        raise ValueError(f"{config_path}: missing config key(s): {', '.join(missing)}")
    wrong = sorted(k for k, v in raw.items() if not _is_a(v, types[k]))
    if wrong:
        raise ValueError(f"{config_path}: config key(s) of the wrong type: {', '.join(wrong)}")
    raw = {k: float(v) if types[k] is float else v for k, v in raw.items()}
    base = os.path.dirname(os.path.abspath(config_path))
    for key in _PATH_KEYS:
        if raw.get(key):
            raw[key] = os.path.join(base, raw[key])
    key_store_path = raw.pop("key_store_path")
    try:
        service = service_cls(config_cls(**raw), KeyStore.load(key_store_path))
    except (ValueError, KeyStoreError) as exc:
        raise ValueError(f"{config_path}: {exc}") from None
    return service, service.config.listen_address


def _is_a(value, hint) -> bool:
    """Whether a JSON value has the config field type `hint`; a bool (an int subclass) never has."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return any(_is_a(value, arg) for arg in args)
    if origin is dict:
        return isinstance(value, dict) and all(_is_a(k, args[0]) and _is_a(v, args[1]) for k, v in value.items())
    return not isinstance(value, bool) and isinstance(value, (int, float) if hint is float else hint)


def build_idp(config_path: str) -> tuple[IdentityProvider, str]:
    """Identity provider plus its listen address, from a JSON config."""
    return _build(IdentityProvider, IdpConfig, config_path)


def build_sp(config_path: str) -> tuple[ServiceProvider, str]:
    """Service provider plus its listen address, from a JSON config."""
    return _build(ServiceProvider, SpConfig, config_path)


def _serve_main(role: str, title: str, build, handler_cls, argv: Optional[list[str]]) -> None:
    """`<role> serve`: build the service from its config, then serve until
    interrupted.  `build` is passed in at call time so a wrapped
    build_idp/build_sp on this module is the one used."""
    parser = argparse.ArgumentParser(prog=role, description=f"{title} service")
    sub = parser.add_subparsers(dest="command", required=True)
    serve = sub.add_parser("serve", help=f"run the {title}")
    serve.add_argument("--config", required=True, help="JSON config path")
    serve.add_argument("--test-clock", action="store_true", help="honor the X-Test-Clock-Skew header")
    args = parser.parse_args(argv)
    service, listen = build(args.config)
    httpbase.serve(service, handler_cls, listen, role, test_clock=args.test_clock)


def idp_main(argv: Optional[list[str]] = None) -> None:
    _serve_main("idp", "identity provider", build_idp, IdpHandler, argv)


def sp_main(argv: Optional[list[str]] = None) -> None:
    _serve_main("sp", "service provider", build_sp, SpHandler, argv)


def agent_main(argv: Optional[list[str]] = None) -> None:
    from . import agent as agent_mod  # here, so the idp/sp processes never load its HTTP client
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
    except (agent_mod.SuiteParseError, OSError) as exc:
        print(f"suite error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    text, exit_code = agent_mod.summarize(results)
    print(text)
    raise SystemExit(exit_code)


def bench_main(argv: Optional[list[str]] = None) -> None:
    from . import bench as bench_mod  # here, so the idp/sp processes never load it
    parser = argparse.ArgumentParser(prog="bench", description="cipher and protocol benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--reps", type=int, default=5, help="repetitions (median reported)")
    common.add_argument("--format", choices=("text", "csv"), default="text")
    common.add_argument("--seed", type=int, help="deterministic keys, buffers and payload")

    throughput = sub.add_parser("throughput", parents=[common], help="counter-mode throughput by key size")
    throughput.add_argument(
        "--key-size",
        type=int,
        choices=bench_mod.KEY_SIZES,
        action="append",
        help="key size in bits; repeatable, default all three",
    )
    throughput.add_argument("--megabytes", type=float, default=64.0, help="buffer size (default 64)")
    throughput.add_argument("--round-trip", action="store_true", help="time encrypt plus decrypt")

    compare = sub.add_parser("compare", parents=[common], help="three-pipeline execution-time comparison")
    compare.add_argument("--payload-bytes", type=int, default=4096)

    args = parser.parse_args(argv)
    rng = Random(args.seed) if args.seed is not None else None
    try:
        if args.command == "throughput":
            sizes = tuple(args.key_size) if args.key_size else bench_mod.KEY_SIZES
            report = bench_mod.throughput_report(
                args.megabytes, args.reps, key_sizes=sizes, round_trip=args.round_trip, rng=rng
            )
        else:
            report = bench_mod.bench_comparison(args.payload_bytes, args.reps, rng=rng)
    except ValueError as exc:  # an out-of-range --reps, --megabytes or --payload-bytes
        parser.error(str(exc))
    print(bench_mod.emit_table(report, args.format), end="")

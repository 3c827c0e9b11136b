"""Run `idp serve` or `sp serve` with span recording installed.

    python perfbench/serve_traced.py {idp|sp} TRACE_OUT serve --config CONF [--test-clock]

Installs the wrappers of tracing.py, then calls the same
hbesso.cli.idp_main / sp_main the untraced services run.  On SIGTERM or
SIGINT the server stops and the spans, plus the sizes of the service's
in-memory tables, are written to TRACE_OUT.
"""

from __future__ import annotations

import signal
import sys

import tracing
from hbesso import cli, idp, sp


def gauges(role: str, service) -> dict[str, int]:
    if service is None:
        return {}
    if role == "idp":
        return {"idp.directory.size": len(service.directory)}
    return {"sp.replay_cache.size": len(service.replay_cache), "sp.pending.size": len(service.pending)}


def interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> None:
    role, trace_out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if role not in ("idp", "sp"):
        raise SystemExit(f"role must be idp or sp, got {role!r}")
    signal.signal(signal.SIGTERM, interrupt)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracing.install_handler_spans(tracer, idp.IdpHandler if role == "idp" else sp.SpHandler)

    built = []
    build = getattr(cli, f"build_{role}")

    def capture(*args, **kwargs):
        service, listen = build(*args, **kwargs)
        built.append(service)
        return service, listen

    setattr(cli, f"build_{role}", capture)
    try:
        getattr(cli, f"{role}_main")(argv)
    finally:
        tracer.dump(trace_out, role, gauges(role, built[0] if built else None))


if __name__ == "__main__":
    main()

"""Per-flow spans around calls into hbesso's public functions.

The benchmark wraps each traced function where callers look it up (a
module attribute or a class attribute), so no file under ``src/`` changes.
A span is recorded only while the calling thread belongs to a flow: the
load generator sets the flow on its client thread, and a traced service
takes it from the ``X-Bench-Flow`` request header that only the traced
client sends.  Services ignore unknown headers, so the wire contract is
unchanged.

Spans stay in memory and are written out once, when the process stops.
The hot leaves (``encrypt_block``, ``mac_compute``) are folded into one
(calls, self time) record per flow instead of one span per call.

Self time is a span's duration minus the durations of the spans it
directly encloses.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional
from urllib.parse import urlsplit

FLOW_HEADER = "X-Bench-Flow"

# Traced functions per hbesso module, as <module>.<qualified name>.
TRACED = {
    "cipher": ("expand_key", "encrypt_block", "ctr_keystream"),
    "polymac": ("mac_compute",),
    "keyexchange": (
        "seal", "open_sealed", "answer_challenge", "derive_long_term_key",
        "ChallengeStore.verify",
    ),
    "saml": ("serialize", "parse", "encrypt_assertion", "decrypt_validate"),
    "idp": (
        "IdentityProvider.register_user", "persist_directory",
        "IdentityProvider.issue_challenge", "IdentityProvider.handle_sso",
    ),
    "sp": (
        "ServiceProvider.gate_resource", "ServiceProvider.consume_response",
        "ServiceProvider.serve_resource", "ReplayCache.check_and_insert",
        "PendingRequests.known",
    ),
}
# `from .polymac import mac_compute` gives keyexchange its own binding.
ALIASES = {"polymac.mac_compute": ("keyexchange.mac_compute",)}
HOT = frozenset({"cipher.encrypt_block", "polymac.mac_compute"})

# Functions reported per process: the ones each process actually runs.
REPORTED = {
    "client": (
        "cipher.expand_key", "cipher.encrypt_block", "cipher.ctr_keystream",
        "polymac.mac_compute", "keyexchange.derive_long_term_key",
        "keyexchange.answer_challenge", "saml.serialize", "saml.parse",
    ),
    "idp": (
        "cipher.expand_key", "cipher.encrypt_block", "cipher.ctr_keystream",
        "polymac.mac_compute", "keyexchange.seal", "keyexchange.open_sealed",
        "keyexchange.answer_challenge", "keyexchange.derive_long_term_key",
        "keyexchange.ChallengeStore.verify", "saml.serialize", "saml.parse",
        "saml.encrypt_assertion", "idp.IdentityProvider.register_user",
        "idp.persist_directory", "idp.IdentityProvider.issue_challenge",
        "idp.IdentityProvider.handle_sso",
    ),
    "sp": (
        "cipher.expand_key", "cipher.encrypt_block", "cipher.ctr_keystream",
        "polymac.mac_compute", "keyexchange.open_sealed", "saml.serialize",
        "saml.parse", "saml.decrypt_validate", "sp.ServiceProvider.gate_resource",
        "sp.ServiceProvider.consume_response", "sp.ServiceProvider.serve_resource",
        "sp.ReplayCache.check_and_insert", "sp.PendingRequests.known",
    ),
}
ENDPOINTS = {
    "GET_challenge": "idp",
    "POST_register": "idp",
    "POST_sso": "idp",
    "GET_resource": "sp",
    "POST_acs": "sp",
}
AGENT_STEPS = (
    "register", "gate", "solve-challenge", "use-wrong-pin", "post-response",
    "replay-last-response", "fetch-resource", "flip-bit-in", "skew-clock",
)
GAUGES = ("idp.idp.directory.size", "sp.sp.replay_cache.size", "sp.sp.pending.size")


def endpoint(method: str, url: str) -> str:
    return f"{method}_{urlsplit(url).path.strip('/')}"


class Tracer:
    """Span store for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (flow, name, parent, start, end, self_s)
        self.leaves: dict[tuple[str, str], list] = {}  # (flow, name) -> [calls, self_s]
        self._local = threading.local()
        self._lock = threading.Lock()

    def set_flow(self, flow: Optional[str]) -> None:
        self._local.flow = flow
        self._local.stack = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        local = self._local
        flow = getattr(local, "flow", None)
        if flow is None:
            return fn(*args, **kwargs)
        stack = local.stack
        frame = [name, 0.0]  # name, time covered by child spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[1] += end - start
            self_s = end - start - frame[1]
            with self._lock:
                if name in HOT:
                    leaf = self.leaves.setdefault((flow, name), [0, 0.0])
                    leaf[0] += 1
                    leaf[1] += self_s
                else:
                    self.spans.append(
                        (flow, name, parent[0] if parent else None, start, end, self_s)
                    )

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @property
    def flow(self) -> Optional[str]:
        return getattr(self._local, "flow", None)

    def document(self, proc: str, gauges: dict[str, float]) -> dict:
        with self._lock:
            return {
                "proc": proc,
                "spans": list(self.spans),
                "leaves": [[f, n, c, s] for (f, n), (c, s) in self.leaves.items()],
                "gauges": gauges,
            }

    def dump(self, path: str, proc: str, gauges: dict[str, float]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.document(proc, gauges), fh)


def install(tracer: Tracer) -> None:
    """Wrap every traced hbesso function where its callers look it up."""
    for module_name, names in TRACED.items():
        module = importlib.import_module(f"hbesso.{module_name}")
        for qualname in names:
            name = f"{module_name}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            wrapper = tracer.wrap(name, getattr(owner, attr))
            setattr(owner, attr, wrapper)
            for alias in ALIASES.get(name, ()):
                alias_module, _, alias_attr = alias.rpartition(".")
                setattr(importlib.import_module(f"hbesso.{alias_module}"), alias_attr, wrapper)


def install_handler_spans(tracer: Tracer, handler_cls: type) -> None:
    """Time do_GET/do_POST per endpoint, under the flow the request names."""
    for method in ("GET", "POST"):
        original = getattr(handler_cls, f"do_{method}")

        def handle(handler, original=original, method=method):
            flow = handler.headers.get(FLOW_HEADER)
            if flow is None:
                return original(handler)
            tracer.set_flow(flow)
            try:
                name = f"httpbase.{endpoint(method, handler.path)}.handler"
                return tracer.call(name, original, handler)
            finally:
                tracer.set_flow(None)

        setattr(handler_cls, f"do_{method}", handle)


def install_client_spans(tracer: Tracer) -> None:
    """Time each agent step and each HTTP exchange of the agent's session,
    and tag every request of a traced flow with the flow header."""
    import requests

    from hbesso.agent import Agent

    execute = Agent.execute

    def traced_execute(agent, step):
        return tracer.call(f"agent.{step.name}", execute, agent, step)

    request = requests.Session.request

    def traced_request(session, method, url, *args, headers=None, **kwargs):
        flow = tracer.flow
        if flow is None:
            return request(session, method, url, *args, headers=headers, **kwargs)
        headers = dict(headers or {}, **{FLOW_HEADER: flow})
        name = f"httpbase.{endpoint(method, url)}.exchange"
        return tracer.call(name, request, session, method, url, *args, headers=headers, **kwargs)

    Agent.execute = traced_execute
    requests.Session.request = traced_request


# -- analysis ---------------------------------------------------------------


def per_flow(docs: Iterable[dict], flows: set[str]) -> dict:
    """(proc, name) -> flow -> [calls, self_s, total_s], for the given flows.

    Folded leaves have no separate total; theirs equals their self time.
    """
    table: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    for doc in docs:
        proc = doc["proc"]
        for flow, name, _parent, start, end, self_s in doc["spans"]:
            if flow in flows:
                row = table[(proc, name)][flow]
                row[0] += 1
                row[1] += self_s
                row[2] += end - start
        for flow, name, calls, self_s in doc["leaves"]:
            if flow in flows:
                row = table[(proc, name)][flow]
                row[0] += calls
                row[1] += self_s
                row[2] += self_s
    return table


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(docs: list[dict], flows: set[str]) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)), plus calls and self and
    inclusive time per call of every span, for the report.  Each per-flow
    figure is the median over the flows that reach the span; a span no flow
    reaches reads 0."""
    table = per_flow(docs, flows)

    def per_flow_ms(proc: str, name: str, column: int) -> float:
        return _median([1000 * r[column] for r in table.get((proc, name), {}).values()])

    metrics: dict[str, tuple[float, str]] = {}
    for proc, names in REPORTED.items():
        for name in names:
            rows = table.get((proc, name), {})
            metrics[f"{proc}.{name}.calls"] = (_median([r[0] for r in rows.values()]), "count")
            metrics[f"{proc}.{name}.self_ms"] = (per_flow_ms(proc, name, 1), "ms")
    for ep, service in ENDPOINTS.items():
        exchange = table.get(("client", f"httpbase.{ep}.exchange"), {})
        handler = table.get((service, f"httpbase.{ep}.handler"), {})
        metrics[f"client.httpbase.{ep}.exchange_ms"] = (per_flow_ms("client", f"httpbase.{ep}.exchange", 2), "ms")
        metrics[f"{service}.httpbase.{ep}.handler_ms"] = (per_flow_ms(service, f"httpbase.{ep}.handler", 2), "ms")
        metrics[f"client.httpbase.{ep}.wait_ms"] = (
            _median([1000 * (r[2] - handler.get(f, (0, 0.0, 0.0))[2]) for f, r in exchange.items()]),
            "ms",
        )
    for step in AGENT_STEPS:
        metrics[f"client.agent.{step}.ms"] = (per_flow_ms("client", f"agent.{step}", 2), "ms")
    gauges = {f"{doc['proc']}.{name}": value for doc in docs for name, value in doc["gauges"].items()}
    for name in GAUGES:
        metrics[name] = (float(gauges.get(name, 0)), "count")

    per_call = {}
    for (proc, name), rows in sorted(table.items()):
        calls = sum(r[0] for r in rows.values())
        per_call[f"{proc}.{name}"] = {
            "calls": calls,
            "self_ms_per_call": 1000 * sum(r[1] for r in rows.values()) / calls,
            "ms_per_call": 1000 * sum(r[2] for r in rows.values()) / calls,
            "ms_per_flow": per_flow_ms(proc, name, 2),
        }
    return metrics, per_call

#!/usr/bin/env python3
"""End-to-end SSO benchmark over a live IdP and SP on loopback.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace {0,1}

Workloads (perfbench/README.md says why each exists):
  login          returning users log in; KDF 8; population registered in set-up
  enroll         new users register (KDF 10,000), then log in once
  canonical-mix  the six scenarios of scenarios/canonical.txt, fresh users per pass
  ctr-bulk       in-process counter-mode keystream + XOR over a seeded buffer

The flow workloads start the IdP and SP as their own processes through the
hbesso.cli serve entry points and drive them from this process in a closed
loop of client threads, each flow on a fresh hbesso.agent.Agent.

--trace 0 prints the end-to-end metrics.  --trace 1 splits the time
between an untraced pair and a traced one (services started by
serve_traced.py) and prints the per-layer metrics plus trace_overhead.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Optional

import numpy as np

import services
import tracing
from services import ROOT, SRC

if not (SRC / "hbesso" / "__init__.py").is_file():
    sys.exit(f"run.py: no hbesso sources under {SRC}")
sys.path.insert(0, str(SRC))

import hbesso  # noqa: E402
from hbesso import cipher  # noqa: E402
from hbesso.agent import DEFAULT_EXPECT, Scenario, Step, parse_suite, run_scenario  # noqa: E402
from hbesso.idp import IdentityProvider, IdpConfig, persist_directory  # noqa: E402
from hbesso.keystore import KeyStore  # noqa: E402

if Path(hbesso.__file__).resolve().parent != (SRC / "hbesso").resolve():
    sys.exit(f"run.py: hbesso resolved to {hbesso.__file__}, not {SRC}")

CLIENTS = 2
SETUP_REPS = 3
KDF_TEST = 8
KDF_PRODUCTION = 10_000
# More than one 20 s run's login count at this commit, so users rarely repeat.
POPULATION = 1000
BULK_BYTES = 1_000_000
BULK_KEY_BITS = (128, 192, 256)
BULK_SAMPLES = 4  # seeded keystream blocks checked per pass, besides first and last
PIN_ALPHABET = "abcdefghijkmnopqrstuvwxyz23456789"

CANONICAL_SUITE = ROOT / "scenarios" / "canonical.txt"
REFERENCE_CIPHER = ROOT / "tests" / "reference_cipher.py"


@dataclass
class Flow:
    flow_id: str
    start: float
    end: float
    ok: bool
    kind: str

    @property
    def ms(self) -> float:
        return 1000 * (self.end - self.start)


def percentile_ms(flows: list[Flow], q: int) -> float:
    """q-th percentile of successful flow latency in ms (0 if none)."""
    values = [f.ms for f in flows if f.ok]
    if len(values) < 2:
        return values[0] if values else 0.0
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[q - 1]


# -- flow workloads -----------------------------------------------------------


def step(name: str, *args: str) -> Step:
    return Step(name=name, args=args, expect=DEFAULT_EXPECT[name], line=0)


def fresh_pin(rng: Random) -> str:
    return "".join(rng.choice(PIN_ALPHABET) for _ in range(rng.randint(8, 12)))


def login_steps(user: str, pin: str) -> list[Step]:
    return [step("gate"), step("solve-challenge", user, pin), step("post-response"), step("fetch-resource")]


class FlowWorkload:
    """One flow is one hbesso.agent scenario run on a fresh Agent."""

    clients = CLIENTS
    kdf_iterations = KDF_TEST
    test_clock = False
    warmup_flows = 2  # per client, during set-up
    users: tuple = ()  # (user, PIN) pairs registered during set-up

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def make_flow(self, rng: Random, client: int, index: int, phase: str) -> Scenario:
        raise NotImplementedError


class Login(FlowWorkload):
    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = Random(f"{seed}:population")
        self.users = [(f"u{rng.getrandbits(32):08x}-{i}", fresh_pin(rng)) for i in range(POPULATION)]

    def make_flow(self, rng, client, index, phase):
        return Scenario("login", login_steps(*rng.choice(self.users)))


class Enroll(FlowWorkload):
    # Two clients' agent-side and IdP-side KDFs drift in and out of overlap
    # for whole runs, which spread run medians by about 15%; one is steady.
    clients = 1
    kdf_iterations = KDF_PRODUCTION
    warmup_flows = 1

    def make_flow(self, rng, client, index, phase):
        user, pin = f"e{rng.getrandbits(32):08x}-{phase}-{client}-{index}", fresh_pin(rng)
        return Scenario("enroll", [step("register", user, pin)] + login_steps(user, pin))


class CanonicalMix(FlowWorkload):
    test_clock = True
    warmup_flows = 3
    USER_STEPS = ("register", "solve-challenge", "use-wrong-pin")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.scenarios = parse_suite(CANONICAL_SUITE.read_text(encoding="utf-8"))
        self.orders: dict[int, list[Scenario]] = {}

    def make_flow(self, rng, client, index, phase):
        n = len(self.scenarios)
        if index % n == 0:  # a seeded order for each pass
            self.orders[client] = rng.sample(self.scenarios, n)
        scenario = self.orders[client][index % n]
        suffix = f"-{self.seed}{phase}-{client}-{index // n}"
        steps = [
            Step(s.name, (s.args[0] + suffix,) + s.args[1:], s.expect, s.line)
            if s.name in self.USER_STEPS else s
            for s in scenario.steps
        ]
        return Scenario(scenario.name, steps)


FLOW_WORKLOADS = {"login": Login, "enroll": Enroll, "canonical-mix": CanonicalMix}


def flow_ok(result) -> bool:
    """Every step matched its expectation, and each fetched resource body
    names the user who solved the challenge."""
    if not result.passed:
        return False
    users = [o.args[0] for o in result.outcomes if o.step == "solve-challenge"]
    return all(
        users and entry["body"] == f"protected resource for {users[-1]}\n"
        for entry in result.transcript
        if entry["step"] == "fetch-resource"
    )


def run_clients(
    workload: FlowWorkload,
    pair: services.ServicePair,
    phase: str,
    seconds: Optional[float] = None,
    flows_per_client: Optional[int] = None,
    tracer: Optional[tracing.Tracer] = None,
) -> tuple[list[Flow], float]:
    """Closed loop: each client starts its next flow when the last ends,
    until `seconds` pass or it has run `flows_per_client` flows.  Returns
    the flows and the seconds from start to the last flow's end."""
    idp_url, sp_url = pair.workspace.idp_url, pair.workspace.sp_url
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else None
    stop = threading.Event()

    def client(c: int) -> list[Flow]:
        rng = Random(f"{workload.seed}:{phase}:{c}")
        flows: list[Flow] = []
        while not stop.is_set():
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if flows_per_client is not None and len(flows) >= flows_per_client:
                break
            scenario = workload.make_flow(rng, c, len(flows), phase)
            flow_id = f"{phase}-{c}-{len(flows)}"
            if tracer is not None:
                tracer.set_flow(flow_id)
            t0 = time.perf_counter()
            try:
                ok = flow_ok(run_scenario(scenario, idp_url, sp_url))
            except Exception:  # counted as a failed flow, never dropped
                traceback.print_exc(file=sys.stderr)
                ok = False
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.set_flow(None)
            flows.append(Flow(flow_id, t0, t1, ok, scenario.name))
        return flows

    with ThreadPoolExecutor(max_workers=workload.clients) as pool:
        futures = [pool.submit(client, c) for c in range(workload.clients)]
        try:
            flows = [f for fut in futures for f in fut.result()]
        except BaseException:
            stop.set()
            raise
    return flows, max((f.end for f in flows), default=start) - start


def register_population(ws: services.Workspace, kdf_iterations: int, users) -> None:
    """Register users in-process through IdentityProvider.register_user and
    persist the directory once; the IdP process loads it when it starts."""
    config = IdpConfig(
        entity_id=services.IDP_ENTITY,
        master_key_id=services.MASTER_KEY_ID,
        federation_keys={services.SP_ENTITY: services.FED_KEY_ID},
        kdf_iterations=kdf_iterations,
    )
    idp = IdentityProvider(config, KeyStore.load(str(ws.path / "keys.tsv")))
    for user, pin in users:
        idp.register_user(user, pin.encode("utf-8"))
    persist_directory(idp.directory, str(ws.directory_path))


class FlowRun:
    """Set-up, timed phase and teardown of live pairs for one workload."""

    def __init__(self, workload: FlowWorkload, workdir: Path) -> None:
        self.workload = workload
        self.clients = workload.clients
        self.workdir = workdir
        self.pair: Optional[services.ServicePair] = None
        self.setups = 0
        self.warmup: list[Flow] = []

    def set_up(self, traced: bool = False) -> float:
        """Fresh workspace, population, spawned pair and warm-up flows;
        returns the seconds it took."""
        self.tear_down()
        self.setups += 1
        start = time.perf_counter()
        ws = services.write_workspace(
            self.workdir / f"pair{self.setups}", self.workload.kdf_iterations,
            Random(f"{self.workload.seed}:keys"),
        )
        if self.workload.users:
            register_population(ws, self.workload.kdf_iterations, self.workload.users)
        self.pair = services.start_pair(ws, self.workload.test_clock, traced)
        flows, _ = run_clients(
            self.workload, self.pair, f"w{self.setups}",
            flows_per_client=self.workload.warmup_flows,
        )
        self.warmup += flows
        return time.perf_counter() - start

    def timed(self, seconds: float, tracer: Optional[tracing.Tracer] = None):
        return run_clients(
            self.workload, self.pair, f"m{self.setups}",
            seconds=seconds, tracer=tracer,
        )

    def peak_rss_mb(self) -> float:
        return self.pair.peak_rss_mb()

    def tear_down(self) -> None:
        if self.pair is not None:
            self.pair.stop()
            self.pair = None


# -- ctr-bulk -----------------------------------------------------------------


class Bulk:
    """Counter-mode keystream plus XOR over one seeded buffer, cycling the
    key sizes; each pass is checked against the independent reference
    cipher in tests/reference_cipher.py."""

    clients = 1

    def __init__(self, seed: int) -> None:
        spec = importlib.util.spec_from_file_location("reference_cipher", REFERENCE_CIPHER)
        self.reference = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.reference)
        self.seed = seed
        self.warmup: list[Flow] = []

    def set_up(self) -> float:
        start = time.perf_counter()
        rng = Random(f"{self.seed}:bulk")
        self.data = np.frombuffer(rng.randbytes(BULK_BYTES), dtype=np.uint8)
        self.nonce = rng.randbytes(12)
        self.keys = {bits: rng.randbytes(bits // 8) for bits in BULK_KEY_BITS}
        self.schedules = {bits: cipher.expand_key(k) for bits, k in self.keys.items()}
        self.warmup += [self.one_pass(bits, f"w-{bits}", rng) for bits in BULK_KEY_BITS]
        return time.perf_counter() - start

    def one_pass(self, bits: int, flow_id: str, rng: Random) -> Flow:
        t0 = time.perf_counter()
        stream = cipher.ctr_keystream(self.schedules[bits], self.nonce, (BULK_BYTES + 15) // 16)
        ciphertext = self.data ^ np.frombuffer(stream, dtype=np.uint8)[:BULK_BYTES]
        t1 = time.perf_counter()
        return Flow(flow_id, t0, t1, self.check(bits, ciphertext, rng), f"ctr{bits}")

    def check(self, bits: int, ciphertext: np.ndarray, rng: Random) -> bool:
        """The first, last and seeded sample blocks of the keystream, as
        recovered from the ciphertext, equal the reference cipher's
        encryption of their counter blocks."""
        blocks = BULK_BYTES // 16
        picks = {0, blocks - 1} | set(rng.sample(range(blocks), BULK_SAMPLES))
        for i in sorted(picks):
            span = slice(16 * i, 16 * i + 16)
            stream = bytes(ciphertext[span] ^ self.data[span])
            expected = bytes(self.reference.encrypt(self.nonce + i.to_bytes(4, "big"), self.keys[bits]))
            if stream != expected:
                return False
        return len(ciphertext) == BULK_BYTES

    def timed(self, seconds: float, tracer: Optional[tracing.Tracer] = None):
        """Passes until `seconds` pass; returns them and their summed time,
        which leaves out the checks."""
        rng = Random(f"{self.seed}:bulk-check")
        flows: list[Flow] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            bits = BULK_KEY_BITS[len(flows) % len(BULK_KEY_BITS)]
            flow_id = f"m-{len(flows)}"
            if tracer is not None:
                tracer.set_flow(flow_id)
            flows.append(self.one_pass(bits, flow_id, rng))
            if tracer is not None:
                tracer.set_flow(None)
        return flows, sum(f.end - f.start for f in flows)

    def peak_rss_mb(self) -> float:
        return services.peak_rss_mb()

    def tear_down(self) -> None:
        pass


def bulk_rates(flows: list[Flow]) -> dict:
    return {
        f"ctr{bits}_mb_per_s": (
            BULK_BYTES / 1e6 / statistics.median(f.end - f.start for f in flows if f.kind == f"ctr{bits}"),
            "MB/s",
        )
        for bits in BULK_KEY_BITS
    }


# -- reporting ----------------------------------------------------------------


def source_identity() -> dict:
    """Which code ran: a digest of src/, plus the commit and dirty flag when
    the checkout is a git work tree."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    identity = {"src_sha256": digest.hexdigest(), "commit": None, "dirty": None}
    if (ROOT / ".git").exists():
        def git(*args: str) -> str:
            return subprocess.run(
                ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
            ).stdout.strip()

        try:
            identity["commit"] = git("rev-parse", "HEAD")
            identity["dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.CalledProcessError):
            pass
    return identity


def environment(args, clients: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "clients": clients,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "traffic": "none, in-process" if args.workload == "ctr-bulk" else "loopback only, 127.0.0.1",
        **source_identity(),
    }


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.4f} {unit}")


# -- main ---------------------------------------------------------------------


def measure(args, runner) -> tuple[dict, list[Flow], dict]:
    """Run one workload; returns (metrics, every checked flow, details)."""
    bulk = isinstance(runner, Bulk)
    if not args.trace:
        setups = [runner.set_up() for _ in range(SETUP_REPS)]
        flows, elapsed = runner.timed(args.seconds)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "flows_per_s": (sum(f.ok for f in flows) / elapsed if elapsed > 0 else 0.0, "1/s"),
            "flow_p50_ms": (percentile_ms(flows, 50), "ms"),
            "flow_p90_ms": (percentile_ms(flows, 90), "ms"),
            "peak_rss_mb": (runner.peak_rss_mb(), "MiB"),
        }
        also = {
            "failed_share": (sum(not f.ok for f in flows) / max(len(flows), 1), "ratio"),
            "flows_measured": (len(flows), "count"),
            **(bulk_rates(flows) if bulk else {}),
        }
        print_metrics(f"end-to-end, {args.workload}", metrics)
        print_metrics("not in BENCHMARK.json", also)
        return metrics, runner.warmup + flows, {k: v for k, (v, _) in also.items()}

    half = args.seconds / 2
    runner.set_up()
    plain, _ = runner.timed(half)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    if not bulk:
        tracing.install_client_spans(tracer)
        runner.set_up(traced=True)
    traced, _ = runner.timed(half, tracer=tracer)
    docs = [tracer.document("client", {})]
    if not bulk:
        pair = runner.pair
        runner.tear_down()  # the services write their spans as they stop
        docs += [json.loads(pair.trace_path(role).read_text(encoding="utf-8")) for role in ("idp", "sp")]
    layers, per_call = tracing.layer_metrics(docs, {f.flow_id for f in traced})
    p50_plain, p50_traced = percentile_ms(plain, 50), percentile_ms(traced, 50)
    layers["trace_overhead"] = (p50_traced / p50_plain if p50_plain else 0.0, "ratio")
    print_metrics(f"per-layer, {args.workload}", layers)
    # Shares of the traced flow median; self time of derive_long_term_key
    # leaves out its encrypt_block spans, inclusive time keeps them.
    derive = [f"{proc}.keyexchange.derive_long_term_key" for proc in ("idp", "client")]
    attribution = {
        "client wait_ms, all endpoints": sum(
            v for k, (v, _) in layers.items() if k.startswith("client.httpbase.") and k.endswith(".wait_ms")
        ),
        "derive_long_term_key self_ms, idp+client": sum(layers[f"{d}.self_ms"][0] for d in derive),
        "derive_long_term_key inclusive ms, idp+client": sum(
            per_call.get(d, {}).get("ms_per_flow", 0.0) for d in derive
        ),
    }
    print_metrics(
        f"share of traced flow_p50_ms ({p50_traced:.1f} ms)",
        {k: (v / p50_traced if p50_traced else 0.0, "ratio") for k, v in attribution.items()},
    )
    details = {
        "flows_untraced": len(plain),
        "flows_traced": len(traced),
        "flow_p50_ms_untraced": p50_plain,
        "flow_p50_ms_traced": p50_traced,
        "attribution_ms": attribution,
        "per_call": per_call,
    }
    return layers, runner.warmup + plain + traced, details


def terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted([*FLOW_WORKLOADS, "ctr-bulk"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, terminate)
    # The agent's requests session honours proxy variables; keep flows on loopback.
    os.environ["no_proxy"] = services.HOST

    work_root = Path(__file__).resolve().parent / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        if args.workload == "ctr-bulk":
            runner = Bulk(args.seed)
        else:
            runner = FlowRun(FLOW_WORKLOADS[args.workload](args.seed), workdir)
        env = environment(args, runner.clients)
        env["loadavg_before"] = os.getloadavg()
        try:
            metrics, flows, details = measure(args, runner)
        finally:
            runner.tear_down()
        env["loadavg_after"] = os.getloadavg()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass
    failed = sum(not f.ok for f in flows)
    print("report " + json.dumps({"environment": env, **details}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(flows),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

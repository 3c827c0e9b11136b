"""Live IdP/SP pairs for the benchmark: a throw-away workspace (key store,
JSON configs, directory file), two service processes on free loopback
ports, and their teardown.

Every process imports hbesso from the checkout's own ``src/``, never from
an installed copy, so each commit measures its own code.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_LAUNCHER = Path(__file__).resolve().parent / "serve_traced.py"

IDP_ENTITY = "idp.example"
SP_ENTITY = "sp.example"
MASTER_KEY_ID = "idp-master"
FED_KEY_ID = "fed-sp.example"
HOST = "127.0.0.1"

# The lifetimes scenarios/canonical.txt assumes; every workload uses them.
ASSERTION_LIFETIME = 120
CLOCK_SKEW = 30
PENDING_EXPIRY = 600
CHALLENGE_EXPIRY = 60

PORT_WAIT_S = 20.0
STOP_WAIT_S = 10.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


@dataclass
class Workspace:
    path: Path
    idp_port: int
    sp_port: int

    @property
    def idp_url(self) -> str:
        return f"http://{HOST}:{self.idp_port}"

    @property
    def sp_url(self) -> str:
        return f"http://{HOST}:{self.sp_port}"

    @property
    def directory_path(self) -> Path:
        return self.path / "idp-directory.tsv"


def write_workspace(path: Path, kdf_iterations: int, key_rng: Random) -> Workspace:
    """Key store and configs for one IdP/SP pair on fresh loopback ports."""
    from hbesso.keystore import KeyStore

    path.mkdir(parents=True)
    ws = Workspace(path=path, idp_port=free_port(), sp_port=free_port())
    store = KeyStore()
    store.generate(MASTER_KEY_ID, key_rng)
    store.generate(FED_KEY_ID, key_rng)
    store.save(str(path / "keys.tsv"))
    idp_config = {
        "entity_id": IDP_ENTITY,
        "listen_address": f"{HOST}:{ws.idp_port}",
        "key_store_path": "keys.tsv",
        "master_key_id": MASTER_KEY_ID,
        "federation_keys": {SP_ENTITY: FED_KEY_ID},
        "assertion_lifetime": ASSERTION_LIFETIME,
        "challenge_expiry": CHALLENGE_EXPIRY,
        "kdf_iterations": kdf_iterations,
        "directory_path": ws.directory_path.name,
    }
    sp_config = {
        "entity_id": SP_ENTITY,
        "listen_address": f"{HOST}:{ws.sp_port}",
        "key_store_path": "keys.tsv",
        "federation_key_id": FED_KEY_ID,
        "acs_url": f"{ws.sp_url}/acs",
        "idp_url": ws.idp_url,
        "clock_skew": CLOCK_SKEW,
        "session_lifetime": 600,
        "pending_expiry": PENDING_EXPIRY,
    }
    (path / "idp.json").write_text(json.dumps(idp_config, indent=2))
    (path / "sp.json").write_text(json.dumps(sp_config, indent=2))
    return ws


def wait_for_port(port: int, proc: subprocess.Popen, deadline: float) -> None:
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"service for port {port} exited with code {proc.returncode}")
        try:
            with socket.create_connection((HOST, port), timeout=0.5):
                return
        except OSError:
            time.sleep(0.01)
    raise TimeoutError(f"service on port {port} never came up")


@dataclass
class ServicePair:
    workspace: Workspace
    procs: dict[str, subprocess.Popen]

    def trace_path(self, role: str) -> Path:
        return self.workspace.path / f"trace-{role}.json"

    def peak_rss_mb(self) -> float:
        """Summed peak resident set of both service processes."""
        return sum(peak_rss_mb(proc.pid) for proc in self.procs.values())

    def stop(self) -> None:
        """SIGTERM both services and wait; a traced service writes its
        spans on the way out.  Kills whatever does not exit in time."""
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs.values():
            try:
                proc.wait(timeout=STOP_WAIT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def start_pair(ws: Workspace, test_clock: bool, traced: bool) -> ServicePair:
    """Spawn the IdP and SP through hbesso.cli's serve entry points and
    wait until both accept connections."""
    pair = ServicePair(workspace=ws, procs={})
    flags = ["--test-clock"] if test_clock else []
    env = dict(os.environ, PYTHONPATH=str(SRC))  # hbesso resolves to this checkout only
    try:
        for role in ("idp", "sp"):
            argv = ["serve", "--config", str(ws.path / f"{role}.json")] + flags
            if traced:
                cmd = [sys.executable, str(TRACED_LAUNCHER), role, str(pair.trace_path(role))]
            else:
                cmd = [sys.executable, "-c", f"from hbesso.cli import {role}_main; {role}_main()"]
            with open(ws.path / f"{role}.log", "wb") as log:
                pair.procs[role] = subprocess.Popen(
                    cmd + argv, cwd=ws.path, env=env, stdin=subprocess.DEVNULL,
                    stdout=log, stderr=subprocess.STDOUT,
                )
        deadline = time.monotonic() + PORT_WAIT_S
        wait_for_port(ws.idp_port, pair.procs["idp"], deadline)
        wait_for_port(ws.sp_port, pair.procs["sp"], deadline)
    except BaseException:
        pair.stop()
        for role in pair.procs:  # the workspace, logs included, is removed at exit
            log = (ws.path / f"{role}.log").read_text(encoding="utf-8", errors="replace")
            print(f"--- {role} log ---\n{log[-4000:]}", file=sys.stderr)
        raise
    return pair


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM from /proc/<pid>/status, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")

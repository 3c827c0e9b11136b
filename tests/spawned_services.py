"""Spawn the idp/sp console scripts as real subprocesses: the one launcher
for the CLI-level and acceptance tests and for scripts/run_demo.py."""

import json
import os
import shutil
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hbesso.keystore import KeyStore

IDP_ENTITY = "idp.example"
SP_ENTITY = "sp.example"
MASTER_KEY_ID = "idp-master"
FED_KEY_ID = "fed-sp.example"
SRC = str(Path(__file__).resolve().parent.parent / "src")
# the services and the agent import hbesso from this checkout, whatever the caller's PYTHONPATH
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def write_workspace(workdir: Path, idp_port: int, sp_port: int, kdf_iterations: int = 1000) -> dict:
    """Key store and JSON configs for one pair.  The workspace must be new or
    empty: fresh keys beside an old directory file would orphan every key
    sealed in it."""
    workdir.mkdir(parents=True, exist_ok=True)
    if any(workdir.iterdir()):
        raise FileExistsError(f"workspace {workdir} is not empty")
    store = KeyStore()
    store.generate(MASTER_KEY_ID)
    store.generate(FED_KEY_ID)
    store.save(str(workdir / "keys.tsv"))
    idp_config = {
        "entity_id": IDP_ENTITY,
        "listen_address": f"127.0.0.1:{idp_port}",
        "key_store_path": "keys.tsv",
        "master_key_id": MASTER_KEY_ID,
        "federation_keys": {SP_ENTITY: FED_KEY_ID},
        "assertion_lifetime": 120,
        "challenge_expiry": 60,
        "kdf_iterations": kdf_iterations,
        "directory_path": "idp-directory.tsv",
    }
    sp_config = {
        "entity_id": SP_ENTITY,
        "listen_address": f"127.0.0.1:{sp_port}",
        "key_store_path": "keys.tsv",
        "federation_key_id": FED_KEY_ID,
        "acs_url": f"http://127.0.0.1:{sp_port}/acs",
        "idp_url": f"http://127.0.0.1:{idp_port}",
        "clock_skew": 30,
        "session_lifetime": 600,
        "pending_expiry": 600,
    }
    (workdir / "idp.json").write_text(json.dumps(idp_config, indent=2))
    (workdir / "sp.json").write_text(json.dumps(sp_config, indent=2))
    return {"idp": workdir / "idp.json", "sp": workdir / "sp.json"}


def cli_command(name: str, args: list[str]) -> list[str]:
    """The argv that runs console script `name`, installed or not."""
    executable = shutil.which(name)
    if executable:
        return [executable] + args
    return [sys.executable, "-c", f"from hbesso.cli import {name}_main; {name}_main()"] + args


def wait_for_port(port: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.5):
                return
        except OSError:
            time.sleep(0.05)
    raise TimeoutError(f"service on port {port} never came up")


@dataclass
class SpawnedPair:
    procs: list[subprocess.Popen]
    idp_url: str
    sp_url: str

    def stop(self) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def start_spawned_pair(workdir: Path, kdf_iterations: int = 1000) -> SpawnedPair:
    """Write a workspace, then run both services with `--test-clock`; each
    writes its output to `<role>.log` in the workspace."""
    ports = {"idp": free_port(), "sp": free_port()}
    paths = write_workspace(workdir, ports["idp"], ports["sp"], kdf_iterations)
    pair = SpawnedPair([], f"http://127.0.0.1:{ports['idp']}", f"http://127.0.0.1:{ports['sp']}")
    try:
        for role, path in paths.items():
            command = cli_command(role, ["serve", "--config", str(path), "--test-clock"])
            with open(workdir / f"{role}.log", "wb") as log:
                proc = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT, env=CHILD_ENV)
            pair.procs.append(proc)
        for port in ports.values():
            wait_for_port(port)
    except BaseException:
        pair.stop()
        raise
    return pair

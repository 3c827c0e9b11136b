"""Spawn the idp/sp console scripts as real subprocesses for CLI-level and
acceptance tests."""

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


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def write_workspace(
    workdir: Path,
    idp_port: int,
    sp_port: int,
    kdf_iterations: int = 1000,
    assertion_lifetime: float = 120,
    pending_expiry: float = 600,
) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
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
        "assertion_lifetime": assertion_lifetime,
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
        "pending_expiry": pending_expiry,
    }
    (workdir / "idp.json").write_text(json.dumps(idp_config, indent=2))
    (workdir / "sp.json").write_text(json.dumps(sp_config, indent=2))
    return {"idp": workdir / "idp.json", "sp": workdir / "sp.json"}


def spawn_cli(name: str, args: list[str]) -> subprocess.Popen:
    executable = shutil.which(name)
    if executable:
        cmd = [executable] + args
    else:
        cmd = [sys.executable, "-c", f"from hbesso.cli import {name}_main; {name}_main()"] + args
    # the services import hbesso from this checkout, whatever the caller's PYTHONPATH
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)


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
    idp_proc: subprocess.Popen
    sp_proc: subprocess.Popen
    idp_url: str
    sp_url: str
    workdir: Path

    def stop(self) -> None:
        for proc in (self.idp_proc, self.sp_proc):
            proc.terminate()
        for proc in (self.idp_proc, self.sp_proc):
            # communicate drains and closes the stdout pipe
            try:
                proc.communicate(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()


def start_spawned_pair(workdir: Path, test_clock: bool = True, **config) -> SpawnedPair:
    idp_port, sp_port = free_port(), free_port()
    paths = write_workspace(workdir, idp_port, sp_port, **config)
    flags = ["--test-clock"] if test_clock else []
    idp_proc = spawn_cli("idp", ["serve", "--config", str(paths["idp"])] + flags)
    sp_proc = spawn_cli("sp", ["serve", "--config", str(paths["sp"])] + flags)
    try:
        wait_for_port(idp_port)
        wait_for_port(sp_port)
    except TimeoutError:
        for proc in (idp_proc, sp_proc):
            proc.terminate()
        raise
    return SpawnedPair(
        idp_proc=idp_proc,
        sp_proc=sp_proc,
        idp_url=f"http://127.0.0.1:{idp_port}",
        sp_url=f"http://127.0.0.1:{sp_port}",
        workdir=workdir,
    )

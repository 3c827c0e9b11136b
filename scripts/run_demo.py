#!/usr/bin/env python3
"""End-to-end SSO demo: generate a workspace (keys + configs), start the
idp and sp services as subprocesses, run the canonical scenario suite
through the agent CLI, then tear everything down.

Usage: python scripts/run_demo.py [workspace-dir]
"""

import json
import os
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")
sys.path.insert(0, SRC)
# The services and the agent import hbesso from this checkout too.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

from hbesso.keystore import KeyStore  # noqa: E402


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def cli(name: str, args: list[str]) -> list[str]:
    executable = shutil.which(name)
    if executable:
        return [executable] + args
    return [sys.executable, "-c", f"from hbesso.cli import {name}_main; {name}_main()"] + args


def wait_for(port: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.5):
                return
        except OSError:
            time.sleep(0.05)
    raise SystemExit(f"service on port {port} never came up")


def main() -> int:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else REPO / "demo-workspace"
    workdir.mkdir(parents=True, exist_ok=True)
    idp_port, sp_port = free_port(), free_port()

    store = KeyStore()
    store.generate("idp-master")
    store.generate("fed-sp.example")
    store.save(str(workdir / "keys.tsv"))

    (workdir / "idp.json").write_text(
        json.dumps(
            {
                "entity_id": "idp.example",
                "listen_address": f"127.0.0.1:{idp_port}",
                "key_store_path": "keys.tsv",
                "master_key_id": "idp-master",
                "federation_keys": {"sp.example": "fed-sp.example"},
                "assertion_lifetime": 120,
                "challenge_expiry": 60,
                "kdf_iterations": 10000,
                "directory_path": "idp-directory.tsv",
            },
            indent=2,
        )
    )
    (workdir / "sp.json").write_text(
        json.dumps(
            {
                "entity_id": "sp.example",
                "listen_address": f"127.0.0.1:{sp_port}",
                "key_store_path": "keys.tsv",
                "federation_key_id": "fed-sp.example",
                "acs_url": f"http://127.0.0.1:{sp_port}/acs",
                "idp_url": f"http://127.0.0.1:{idp_port}",
                "clock_skew": 30,
                "session_lifetime": 600,
                "pending_expiry": 600,
            },
            indent=2,
        )
    )
    print(f"workspace: {workdir}")

    commands = [
        cli("idp", ["serve", "--config", str(workdir / "idp.json"), "--test-clock"]),
        cli("sp", ["serve", "--config", str(workdir / "sp.json"), "--test-clock"]),
    ]
    services = []
    try:
        for cmd in commands:
            print("$", " ".join(cmd))
            services.append(subprocess.Popen(cmd, env=CHILD_ENV))
        wait_for(idp_port)
        wait_for(sp_port)

        agent_cmd = cli(
            "agent",
            [
                "run",
                "--suite",
                str(REPO / "scenarios" / "canonical.txt"),
                "--idp",
                f"http://127.0.0.1:{idp_port}",
                "--sp",
                f"http://127.0.0.1:{sp_port}",
            ],
        )
        print("$", " ".join(agent_cmd))
        return subprocess.run(agent_cmd, env=CHILD_ENV).returncode
    finally:
        for proc in services:
            proc.terminate()
        for proc in services:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""End-to-end SSO demo: write a workspace (keys + configs), start the idp
and sp services as subprocesses, run the canonical scenario suite through
the agent CLI, then stop the services.

Usage: python scripts/run_demo.py [workspace-dir]

With no argument the workspace is a fresh temporary directory; a given one
must be new or empty.  The services' logs, idp.log and sp.log, stay in it.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# hbesso and the launcher the tests use, both from this checkout
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from spawned_services import CHILD_ENV, cli_command, start_spawned_pair  # noqa: E402


def main() -> int:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp(prefix="hbesso-demo-"))
    try:
        pair = start_spawned_pair(workdir, kdf_iterations=10_000)
    except OSError as exc:
        raise SystemExit(f"run_demo: {exc}") from None
    print(f"workspace: {workdir}")
    try:
        suite = str(REPO / "scenarios" / "canonical.txt")
        agent = cli_command("agent", ["run", "--suite", suite, "--idp", pair.idp_url, "--sp", pair.sp_url])
        print("$", " ".join(agent), flush=True)
        return subprocess.run(agent, env=CHILD_ENV).returncode
    finally:
        pair.stop()


if __name__ == "__main__":
    raise SystemExit(main())

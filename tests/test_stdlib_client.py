"""The agent speaks HTTP through the standard library alone."""

import ast
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "hbesso"


def imported(tree: ast.AST) -> list[str]:
    """Every module an import statement names, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    return found


def test_no_module_imports_requests():
    uses = {}
    for path in SRC.glob("*.py"):
        names = imported(ast.parse(path.read_text(encoding="utf-8")))
        uses[path.name] = [name for name in names if name.split(".")[0] == "requests"]
    assert uses and not any(uses.values()), uses


def test_importing_the_agent_leaves_out_requests():
    code = "import hbesso.agent, sys; print('requests' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"

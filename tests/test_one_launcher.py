import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
LAUNCHER = REPO / "tests" / "spawned_services.py"
LAUNCH_HELPERS = {"free_port", "write_workspace", "wait_for_port"}


def defined_helpers(path: pathlib.Path) -> set[str]:
    """The launch helpers a module defines, at any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in LAUNCH_HELPERS
    }


def test_only_spawned_services_launches_a_pair():
    # the tests and the demo write, start and wait for a pair through one module
    modules = sorted((REPO / "tests").glob("*.py")) + sorted((REPO / "scripts").glob("*.py"))
    others = {path.name: defined_helpers(path) for path in modules if path != LAUNCHER}
    assert others and not any(others.values()), others
    assert defined_helpers(LAUNCHER) == LAUNCH_HELPERS

import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def tracing_constant(name: str):
    """A literal module-level constant of the benchmark's tracing module,
    read without importing it."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    (value,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name
    ]
    return value


def test_benchmark_traced_names_resolve():
    # the benchmark wraps these names where callers look them up
    qualified = [f"{mod}.{name}" for mod, funcs in tracing_constant("TRACED").items() for name in funcs]
    qualified += [alias for aliases in tracing_constant("ALIASES").values() for alias in aliases]
    assert len(qualified) > 10
    for dotted in qualified:
        module, *path = dotted.split(".")
        target = importlib.import_module(f"hbesso.{module}")
        for part in path:
            target = getattr(target, part)
        assert callable(target), dotted


def test_benchmark_endpoints_are_the_route_tables():
    # a renamed route would read 0 in the benchmark's per-endpoint handler_ms
    from hbesso.idp import IdpHandler
    from hbesso.sp import SpHandler

    routes = {
        f"{method}_{path.strip('/')}": service
        for handler, service in ((IdpHandler, "idp"), (SpHandler, "sp"))
        for method, path in handler.routes
    }
    assert tracing_constant("ENDPOINTS") == routes


def test_benchmark_agent_steps_are_the_step_table():
    # a renamed or added step would read 0 or go unreported in client.agent.<step>.ms
    from hbesso.agent import STEPS

    assert tracing_constant("AGENT_STEPS") == tuple(STEPS)

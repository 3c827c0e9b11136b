import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_benchmark_traced_names_resolve():
    # the benchmark wraps these names where callers look them up
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("TRACED", "ALIASES"):
                names[node.targets[0].id] = ast.literal_eval(node.value)
    qualified = [f"{mod}.{name}" for mod, funcs in names["TRACED"].items() for name in funcs]
    qualified += [alias for aliases in names["ALIASES"].values() for alias in aliases]
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

    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    (endpoints,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "ENDPOINTS"
    ]
    routes = {
        f"{method}_{path.strip('/')}": service
        for handler, service in ((IdpHandler, "idp"), (SpHandler, "sp"))
        for method, path in handler.routes
    }
    assert endpoints == routes

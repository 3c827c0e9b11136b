import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hbesso"
WIRE_MODULES = {"socket", "select"}


def http_uses(tree: ast.AST) -> list[str]:
    """Imports of socket or select, any use of parse_qs, and CRLF literals."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] in WIRE_MODULES]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] in WIRE_MODULES:
                found.append(node.module)
            found += [alias.name for alias in node.names if alias.name == "parse_qs"]
        elif isinstance(node, ast.Attribute) and node.attr == "parse_qs":
            found.append("parse_qs")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes)):
            crlf = "\r\n" if isinstance(node.value, str) else b"\r\n"
            if crlf in node.value:
                found.append(repr(crlf))
    return found


def test_only_httpbase_speaks_http():
    # one module owns sockets, framing and form decoding for both ends
    sources = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    others = {name: http_uses(tree) for name, tree in sources.items() if name != "httpbase.py"}
    assert others and not any(others.values()), others
    assert {"socket", "select", "parse_qs", repr("\r\n")} <= set(http_uses(sources["httpbase.py"]))

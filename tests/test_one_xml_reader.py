import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hbesso"
XML_READERS = {"fromstring", "XMLParser", "iterparse", "ParserCreate"}


def xml_uses(tree: ast.AST) -> list[str]:
    """Imports of the xml package and calls of an ElementTree or expat reader."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "xml"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "xml":
            found.append(node.module)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in XML_READERS:
                found.append(name)
    return found


def test_only_saml_reads_xml():
    # saml's one reader refuses a DOCTYPE; a second reader would not
    sources = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    # one expat pass reads each document: one reader call, and no second parse
    assert [name for name in xml_uses(sources["saml.py"]) if name in XML_READERS] == ["ParserCreate"]
    others = {name: xml_uses(tree) for name, tree in sources.items() if name != "saml.py"}
    assert others and not any(others.values()), others

"""Source checks on ``src/balmaps``: every value type checks itself once,
when it is built, so no caller validates a value and no caller skips the
map check."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "balmaps"


def _nodes():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield "%s:%d" % (path.name, getattr(node, "lineno", 0)), node


def _name(func):
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_no_validate_and_no_map_check_knob():
    found = []
    for where, node in _nodes():
        if isinstance(node, ast.FunctionDef):
            if node.name == "validate":
                found.append("%s defines validate()" % where)
        elif isinstance(node, ast.ClassDef) and node.name == "CombinatorialMap":
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and item.name == "__init__"
                        and any(a.arg == "check" for a in item.args.args
                                + item.args.kwonlyargs)):
                    found.append("%s CombinatorialMap takes check" % where)
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "validate":
                found.append("%s calls .validate()" % where)
            if _name(node.func) == "CombinatorialMap" and any(
                    k.arg == "check" for k in node.keywords):
                found.append("%s passes check= to CombinatorialMap" % where)
    assert found == []

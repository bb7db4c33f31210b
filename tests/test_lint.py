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


def _raises():
    """(where, class name) of every ``raise`` of an exception in the library."""
    for where, node in _nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield where, _name(exc)


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


def test_one_map_constructor_and_one_trace_kernel():
    """A map is built one way, from its two tables, with no second
    constructor beside ``__init__``; the trace kernel keeps its one
    optional argument, the bound."""
    cls, = [node for _, node in _nodes()
            if isinstance(node, ast.ClassDef) and node.name == "CombinatorialMap"]
    methods = {f.name: f for f in cls.body if isinstance(f, ast.FunctionDef)}

    def signature(name):
        a = methods[name].args
        return ([x.arg for x in a.posonlyargs + a.args], [ast.unparse(x) for x in a.defaults],
                a.vararg, [x.arg for x in a.kwonlyargs], a.kwarg)
    assert signature("__init__") == (["self", "sigma", "alpha"], [], None, [], None)
    assert signature("_bfs_trace") == (["self", "root", "bound"], ["None"], None, [], None)
    assert [f.name for f in methods.values() for d in f.decorator_list
            if _name(d) in ("classmethod", "staticmethod")] == []


def test_every_error_class_is_raised():
    """Each MapError subclass in errors.py is raised somewhere in the
    library, so a class that only tests use, or that nothing raises any
    more, cannot stay."""
    tree = ast.parse((SRC / "errors.py").read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    classes.discard("MapError")
    raised = {name for _, name in _raises()}
    assert sorted(classes - raised) == []


def test_no_bare_map_error_is_raised():
    """Every failure raises a named subclass, so the CLI's JSON ``error``
    field names the kind of failure, never the base class."""
    assert [where for where, name in _raises() if name == "MapError"] == []

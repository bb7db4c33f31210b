"""Source checks on ``src/balmaps``: every value type checks itself once,
when it is built, so no caller validates a value and no caller skips the
map check; every public name has a caller in the library or a stated
reason to stay; and every default, an option's second value, is set by a
library caller or has a stated reason to stay."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "balmaps"

# Public names that nothing in src/ calls, each with the reason it stays.  A
# reason that starts with "perfbench" marks a name the benchmark reads, which
# perfbench/run.py or perfbench/workloads.py must still load or list.
NO_CALLER = {
    "find_two_cuts": "perfbench traces it; decompose_full uses the private kernels",
    "find_four_cuts": "perfbench traces it; decompose_full uses the private kernels",
    "map_from_json": "perfbench traces it and reads its inputs with it",
    "isomorphic": "perfbench compares a relabeled copy with it",
    "verify_labelings_per_graph": "perfbench traces it: the census recount",
    "is_realizable": "the theorem's decision: balanced iff realizable",
    "rooted_count": "the mass formula, the oracle for the exhaustive corpus",
    "murasugi_sum": "the paper's construction; its one call is its own recursion",
    "gluing_curve": "the paper's construction: the cut that undoes a Murasugi sum",
    "collapse_arc": "the paper's construction: an arc collapsed to a new vertex",
}

# Every parameter default and dataclass field default in src/, keyed
# module.owner.name (the owner of an __init__ parameter is its class), each
# with the library caller that sets it or the reason it stays.
OPTIONS = {
    "maps.CombinatorialMap._bfs_trace.bound":
        "_least_root passes its best trace; realize traces one root unbounded",
    "maps.rewire.extra_cycles": "pinch and the odd/odd split add a vertex; 2-cut fusions none",
    "balance.is_balanced.oracle": "the CLI's --oracle; realize uses the flow",
    "maps.ColoredMap.check": "swapped() and perfbench's fresh copies skip a known colouring",
    "cli.run.argv": "main() reads sys.argv; in-process callers pass their own",
    "decompose.DecompositionTree.cut": "decompose_full sets it on internal nodes only",
    "decompose.DecompositionTree.pieces": "decompose_full sets it on internal nodes only",
    "decompose.DecompositionTree.kind": "decompose_full sets it on leaves only",
}


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


def _loaded_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _uncalled(private=False):
    """The public functions, classes and methods of the library,
    ``__init__.py`` aside, whose name src/ never loads outside the
    definition itself; and the names of all of them.  With ``private``,
    the same for the names with one leading underscore."""
    loads = collections.Counter()
    defs = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        loads.update(_loaded_names(tree))
        todo = list(tree.body)
        while todo:
            node = todo.pop()
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") == private
                    and not node.name.startswith("__")):
                defs.append((node.name, sum(x == node.name for x in _loaded_names(node))))
            if isinstance(node, ast.ClassDef):
                todo += node.body
    return {name for name, own in defs if loads[name] == own}, {name for name, _ in defs}


def test_every_public_name_has_a_caller():
    """Code that only tests call goes, or moves beside its tests."""
    uncalled, _ = _uncalled()
    assert sorted(uncalled - set(NO_CALLER)) == []


def test_every_private_helper_has_a_caller():
    """A private helper that nothing in src/ loads is left behind: it goes,
    or moves beside the tests that use it.  No list excuses one."""
    uncalled, _ = _uncalled(private=True)
    assert sorted(uncalled) == []


def test_no_caller_list_is_current():
    """Each listed name is defined and still has no caller in src/, and
    each one kept for perfbench still appears in its text; once the
    benchmark lets a name go, the name goes."""
    uncalled, defined = _uncalled()
    assert sorted(set(NO_CALLER) - defined) == []
    assert sorted(set(NO_CALLER) - uncalled) == []
    read = set()  # attributes perfbench loads and strings in its tuples (TARGETS)
    for name in ("run.py", "workloads.py"):
        for node in ast.walk(ast.parse((ROOT / "perfbench" / name).read_text())):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Tuple):
                read.update(e.value for e in node.elts if isinstance(e, ast.Constant))
    assert [name for name, why in NO_CALLER.items()
            if why.startswith("perfbench") and name not in read] == []


def test_package_reexports_nothing():
    """The submodules are the one public surface: ``__init__.py`` holds its
    docstring and ``__version__``, and imports nothing."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert [type(node).__name__ for node in tree.body] == ["Expr", "Assign"]


def _defaults():
    """module.owner.name of every parameter default and every default of
    an annotated class field in the library."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        todo = [(path.stem, node) for node in ast.parse(path.read_text(), str(path)).body]
        while todo:
            owner, node = todo.pop()
            if isinstance(node, ast.ClassDef):
                todo += [(owner + "." + node.name, item) for item in node.body]
                found += [owner + "." + node.name + "." + item.target.id for item in node.body
                          if isinstance(item, ast.AnnAssign) and item.value is not None]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(node, "name", "<lambda>")
                where = owner if name == "__init__" else owner + "." + name
                a = node.args
                args = a.posonlyargs + a.args
                found += [where + "." + x.arg for x in args[len(args) - len(a.defaults):]]
                found += [where + "." + x.arg for x, v in zip(a.kwonlyargs, a.kw_defaults)
                          if v is not None]
                todo += [(where, sub) for sub in ast.iter_child_nodes(node)]
            else:
                todo += [(owner, sub) for sub in ast.iter_child_nodes(node)]
    return found


def test_every_default_is_a_listed_option():
    """An option that only tests set to its second value becomes a
    constant: a new default needs an OPTIONS entry, and an entry whose
    default is gone goes with it."""
    found = _defaults()
    assert sorted(set(found) - set(OPTIONS)) == []
    assert sorted(set(OPTIONS) - set(found)) == []
    assert len(found) == len(set(found))


def test_no_public_method_name_is_shared():
    """A public method whose name another class also defines would pass
    the caller lint on the other's calls, so each name has one class;
    ``to_dict``, the JSON writer of each CLI result, is the exception."""
    owners = collections.defaultdict(list)
    for _, node in _nodes():
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    owners[item.name].append(node.name)
    assert {name: classes for name, classes in owners.items()
            if len(classes) > 1 and name != "to_dict"} == {}


def test_every_dataclass_has_slots():
    """Value types carry no per-instance dict: the Hurwitz classes are held
    by the thousand, and a slotted type also refuses a misspelt field."""
    found = []
    for where, node in _nodes():
        if isinstance(node, ast.ClassDef):
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                if _name(call.func if call else dec) != "dataclass":
                    continue
                slots = [k.value for k in (call.keywords if call else []) if k.arg == "slots"]
                if not (slots and isinstance(slots[0], ast.Constant) and slots[0].value is True):
                    found.append("%s %s" % (where, node.name))
    assert found == []

"""Fuzz the CLI with mutated map, tuple, tree and dual documents, read from
stdin: whatever a document holds, a command returns an exit code in
{0, 1, 2} and lets no exception escape."""

import contextlib
import copy
import io
import json
import sys

from hypothesis import given, settings, strategies as st

from balmaps import dps, hurwitz, mapio, maps
from balmaps.cli import run


def _docs():
    tree3 = dps.EdgeLabeledTree(3, ((0, 1, 1, 1, 2), (1, 2, 2, 3, 4)))
    tree4 = dps.EdgeLabeledTree(4, ((0, 1, 1, 1, 2), (1, 2, 2, 3, 4), (1, 3, 3, 5, 6)))
    maps_ = [mapio.map_to_dict(maps.checkerboard(maps.quadratic())[0]),
             mapio.map_to_dict(maps.checkerboard(maps.octahedron())[1]),
             mapio.map_to_dict(maps.octahedron())]
    tuples = [mapio.tuple_to_dict(c.representative)
              for d in (2, 3) for c in hurwitz.enumerate_classes(d)]
    tuples.append(mapio.tuple_to_dict(hurwitz.enumerate_classes(4)[7].representative))
    trees = [mapio.tree_to_dict(t) for t in (tree3, tree4)]
    duals = [mapio.dual_to_dict(dps.tree_to_graph(t)) for t in (tree3, tree4)]
    return {"map": maps_, "tuple": tuples, "tree": trees, "dual": duals}


DOCS = _docs()

COMMANDS = [
    (["validate"], "map"), (["balance", "--witness"], "map"), (["realize"], "map"),
    (["decompose"], "map"), (["export-dot"], "map"), (["from-tuple"], "tuple"),
    (["dps", "encode"], "dual"), (["dps", "decode"], "tree"),
]

# wrong types, out-of-range and oversized values; none large enough to
# exhaust memory if a reader allocated from it unchecked
JUNK = st.sampled_from(["x", "1", [[1]], [], {}, {"1": 1}, None, True, 1.5, 1e300,
                        -1, 0, 1, 2, 3, 7, 10 ** 6, [1, 2], [0, 1, 2, 3]])


@st.composite
def mutated(draw, value):
    """Replace one node of a JSON value by junk or drop one object key."""
    if isinstance(value, (dict, list)) and value and draw(st.integers(0, 3)):
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        key = draw(st.sampled_from(keys))
        out = copy.copy(value)
        if isinstance(value, dict) and not draw(st.integers(0, 4)):
            del out[key]
        else:
            out[key] = draw(mutated(value[key]))
        return out
    return draw(JUNK)


@st.composite
def cases(draw):
    argv, kind = draw(st.sampled_from(COMMANDS))
    doc = draw(st.sampled_from(DOCS[kind]))
    for _ in range(draw(st.integers(1, 3))):
        doc = draw(mutated(doc))
    return argv, doc


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(case=cases())
def test_cli_never_raises(case):
    argv, doc = case
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))  # the file argument "-" reads stdin
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(argv + ["-"])
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2)

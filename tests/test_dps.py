import hashlib
import itertools
import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from balmaps import balance, dps, mapio, maps, realize
from balmaps.errors import DegreePropertyFailed, InvalidInput, LimitExceeded
from tests.conftest import (
    clockwise_cycles,
    dual_code,
    dual_of,
    felsner_by_reversals,
    forward_darts,
    reverse_cycle,
    sew_reference,
)


def random_tree(rng, d):
    """A uniform edge-labeled tree: a random Pruefer sequence, then shuffled
    blue labels on the edges and red labels on the edge ends."""
    seq = [rng.randrange(d) for _ in range(d - 2)]
    degree = [1] * d
    for x in seq:
        degree[x] += 1
    pairs = []
    for x in seq:
        leaf = degree.index(1)
        pairs.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    pairs.append(tuple(v for v in range(d) if degree[v] == 1))
    blues = list(range(1, d))
    reds = list(range(1, 2 * d - 1))
    rng.shuffle(blues)
    rng.shuffle(reds)
    return dps.EdgeLabeledTree(d, tuple(
        (a, b, blues[i], reds[2 * i], reds[2 * i + 1])
        for i, (a, b) in enumerate(pairs)))


def enumerate_trees(d):
    """Every tree of degree d, as one list: each shape with every placement
    of the red labels, but one at d = 2, where swapping the two whites
    swaps the reds."""
    n = 2 * d - 2
    return [dps.EdgeLabeledTree(d, tuple((wa, wb, blue, reds[2 * i], reds[2 * i + 1])
                                         for i, (wa, wb, blue) in enumerate(shape)))
            for shape in dps._edge_labeled_shapes(d)
            for reds in (itertools.permutations(range(1, n + 1)) if d > 2 else [(1, 2)])]


def canonical_key(t):
    """The tree's edges with each white named by its sorted blue labels:
    invariant under renaming of the white vertices."""
    name = dps._white_names(t.d, t.edges)
    return tuple(sorted(
        (blue,) + tuple(sorted(((name[wa], ra), (name[wb], rb))))
        for wa, wb, blue, ra, rb in t.edges))


def test_enumerate_trees_counts():
    assert len(enumerate_trees(2)) == 1
    assert len(enumerate_trees(3)) == 24
    trees4 = enumerate_trees(4)
    assert len(trees4) == 2880
    assert len({canonical_key(t) for t in trees4}) == 2880


def test_canonical_key_ignores_white_names():
    rng = random.Random(12)
    for _ in range(20):
        t = random_tree(rng, 12)
        images = list(range(12))
        rng.shuffle(images)
        edges = [(images[wb], images[wa], blue, rb, ra) if rng.random() < 0.5
                 else (images[wa], images[wb], blue, ra, rb)
                 for wa, wb, blue, ra, rb in t.edges]
        rng.shuffle(edges)
        renamed = dps.EdgeLabeledTree(12, tuple(edges))
        assert canonical_key(renamed) == canonical_key(t)


def test_tree_stream_cap_acts_before_any_work(monkeypatch, capsys):
    """The counting chain enumerates the classes before it lists a shape,
    so the class enumeration's cap refuses degree 6, in the library and in
    the CLI, before any shape is listed."""
    from balmaps.cli import run

    def shapes(d):
        raise AssertionError("shapes listed for degree %d" % d)
    monkeypatch.setattr(dps, "_edge_labeled_shapes", shapes)
    with pytest.raises(LimitExceeded, match="degree 5"):
        dps.verify_counting_chain(6)
    assert run(["dps", "verify", "6"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "LimitExceeded"


def path_tree(d):
    """The path on d white vertices: edge i joins i and i + 1, with blue
    label i + 1 and red labels 2i + 1 and 2i + 2."""
    return dps.EdgeLabeledTree(d, tuple(
        (i, i + 1, i + 1, 2 * i + 1, 2 * i + 2) for i in range(d - 1)))


def star_tree(d):
    """The star on d white vertices: edge i joins 0 and i + 1, with blue
    label i + 1 and red labels 2i + 1 and 2i + 2."""
    return dps.EdgeLabeledTree(d, tuple(
        (0, i + 1, i + 1, 2 * i + 1, 2 * i + 2) for i in range(d - 1)))


def test_decode_degree_cap(monkeypatch):
    """A valid tree above the cap is refused before the contour is
    built."""
    t = path_tree(dps.DECODE_DEGREE_CAP + 1)

    def unreachable(t):
        raise AssertionError("decoding started")
    monkeypatch.setattr(dps, "_contour_runs", unreachable)
    for decode in (dps.tree_to_tuple, dps.tree_to_graph):
        with pytest.raises(LimitExceeded):
            decode(t)


def parity_trees():
    """Every tree with d <= 4, 200 seeded random trees with d = 5..400, and
    the path and the star at d = 3, 10 and 60."""
    for d in (2, 3, 4):
        yield from enumerate_trees(d)
    rng = random.Random(19)
    for _ in range(200):
        yield random_tree(rng, rng.randint(5, 400))
    for d in (3, 10, 60):
        yield path_tree(d)
        yield star_tree(d)


def test_decode_tuples_pinned():
    """The exact tuples, not only their round trips: one sha256 over the
    reprs of the decoded transpositions, fixed by the hair-by-hair decoder
    that sewed a d x (2d-2) table of hairs."""
    h = hashlib.sha256()
    for t in parity_trees():
        h.update(repr(dps.tree_to_tuple(t).taus).encode())
    assert h.hexdigest() == (
        "a1c5a54d286f01ac939a8cccaae44d4fc280e65404bf99ea5537b3deb22e44f1")


def dual_pin_trees():
    """Every tree with d <= 4, the path and the star at d = 3, 10 and 60,
    and 50 seeded random trees with d = 5..60."""
    for d in (2, 3, 4):
        yield from enumerate_trees(d)
    for d in (3, 10, 60):
        yield path_tree(d)
        yield star_tree(d)
    rng = random.Random(38)
    for _ in range(50):
        yield random_tree(rng, rng.randint(5, 60))


def test_decode_duals_pinned():
    """The exact decoded duals: one sha256 over the dart tables, the blue
    vertices, the reds and the blue labels, fixed by the decoder that built
    the glued diagram before its dual."""
    h = hashlib.sha256()
    for t in dual_pin_trees():
        g = dps.tree_to_graph(t)
        h.update(repr((g.m.sigma, g.m.alpha, sorted(g.blue_vertices), g.face_red,
                       g.blue_labels)).encode())
    assert h.hexdigest() == (
        "1e92c05880d9192156c93a779d3f198462f9e31c69a717b0c38e6c78a1d695ff")


def test_sew_matches_merged_lap_reference():
    """The sewing compares raw laps and merges only the last one; the
    reference merges every lap.  Same intervals on the pinned trees, the
    path and the star at d = 3..80 and 2000 seeded random trees."""
    rng = random.Random(2000)
    trees = itertools.chain(
        parity_trees(), (f(d) for d in range(3, 81) for f in (path_tree, star_tree)),
        (random_tree(rng, rng.randint(2, 120)) for _ in range(2000)))
    for t in trees:
        runs = dps._contour_runs(t)
        assert dps._sew(t, runs) == sew_reference(t, runs)


def test_dual_code_format_pinned():
    t = dps.EdgeLabeledTree(3, ((0, 1, 1, 1, 2), (1, 2, 2, 3, 4)))
    assert dual_code(dps.tree_to_graph(t)) == (
        16, 2, 3, 1, 4, 5, 1, 6, 2, 3, 7, 8, 9, 10, 5, 11, 12, 7, 6, 13, 11, 4,
        10, 14, 8, 9, 15, 12, 16, 16, 13, 15, 14, 1, 2, 3, 4, 1, 0, 0, 2, 3, 0)


def test_tree_validation():
    dps.EdgeLabeledTree(3, ((0, 1, 1, 1, 2), (1, 2, 2, 3, 4)))
    with pytest.raises(InvalidInput):
        dps.EdgeLabeledTree(3, ((0, 1, 1, 1, 2), (0, 1, 2, 3, 4)))
    with pytest.raises(InvalidInput):
        dps.EdgeLabeledTree(3, ((0, 1, 1, 1, 1), (1, 2, 2, 3, 4)))
    with pytest.raises(InvalidInput):
        dps.EdgeLabeledTree(1, ())


def white_rotation(t, w):
    """The (blue, other white) pairs at white w, clockwise, i.e. by
    increasing blue label."""
    inc = []
    for wa, wb, blue, ra, rb in t.edges:
        if w == wa:
            inc.append((blue, wb))
        elif w == wb:
            inc.append((blue, wa))
    return sorted(inc)


def test_blue_labels_clockwise_around_whites():
    """Each white's rotation ascends by blue label, and the JSON form lists
    the same rotation per white."""
    rng = random.Random(113)
    trees = enumerate_trees(3) + [random_tree(rng, rng.randint(5, 60))
                                  for _ in range(20)]
    for t in trees:
        rotations = {}
        for w in range(t.d):
            rotation = white_rotation(t, w)
            assert rotation == sorted(rotation)
            rotations[str(w)] = [blue for blue, _ in rotation]
        assert mapio.tree_to_dict(t)["rotation"] == rotations


def test_orientation_degree_property(duals3):
    for g in duals3:
        o = dps.orient_greater_label_left(g)
        m = g.m
        indeg = {v: 0 for v in m.vertex_ids()}
        outdeg = {v: 0 for v in m.vertex_ids()}
        for e in m.edges():
            assert o.tail[e] != o.tail[m.alpha[e]]
        for f in forward_darts(o):
            outdeg[m.vertex_of[f]] += 1
            indeg[m.vertex_of[m.alpha[f]]] += 1
        for v in m.vertex_ids():
            if v in g.blue_vertices:
                assert indeg[v] == 1
            else:
                assert outdeg[v] == 1


def test_orientation_rejects_scrambled_labels(duals3):
    g = duals3[0]
    # moving the greatest face label elsewhere generally breaks the
    # unique-in/unique-out property
    broken = 0
    reds = list(g.face_red)
    for i in range(len(reds)):
        for j in range(i + 1, len(reds)):
            swapped = reds[:]
            swapped[i], swapped[j] = swapped[j], swapped[i]
            g2 = maps.FaceLabeledGraph(g.m, g.blue_vertices, tuple(swapped),
                                       g.blue_labels)
            try:
                dps.orient_greater_label_left(g2)
            except DegreePropertyFailed:
                broken += 1
    assert broken > 0


def test_felsner_no_clockwise_cycles(duals3):
    for g in duals3:
        assert not clockwise_cycles(
            dps.felsner_normalize(dps.orient_greater_label_left(g)))


def test_felsner_no_clockwise_cycles_random_trees():
    rng = random.Random(59)
    for d in range(5, 10):
        for _ in range(3):
            g = dps.tree_to_graph(random_tree(rng, d))
            o = dps.orient_greater_label_left(g)
            assert clockwise_cycles(o)
            normal = dps.felsner_normalize(o)
            assert not clockwise_cycles(normal)
            assert felsner_by_reversals(o).tail == normal.tail


def test_felsner_fixed_point(duals3):
    for g in duals3[:6]:
        o = dps.felsner_normalize(dps.orient_greater_label_left(g))
        again = dps.felsner_normalize(o)
        assert again.tail == o.tail


def test_felsner_schedule_independence(duals3):
    """Every schedule of clockwise-cycle reversals ends at the potential."""
    for i, g in enumerate(duals3):
        o = dps.orient_greater_label_left(g)
        base = dps.felsner_normalize(o).tail
        assert felsner_by_reversals(o).tail == base
        for s in range(10):
            rng = random.Random(100 * i + s)
            assert felsner_by_reversals(o, rng).tail == base


def test_felsner_from_other_orientations(duals3, duals4):
    """Reversing any directed cycle keeps the out-degrees, so orientations
    reached by reversals in both senses normalize to the same result."""
    rng = random.Random(31)
    duals = duals3 + rng.sample(duals4, 12)
    clockwise = counterclockwise = others = 0
    for g in duals:
        o = dps.orient_greater_label_left(g)
        start = list(o.tail)
        base = dps.felsner_normalize(o).tail
        for _ in range(4):
            for _ in range(rng.randrange(1, 5)):
                cycle = rng.choice(maps.directed_cycles(g.m, forward_darts(o)))
                if o.root_face in maps.left_faces(g.m, cycle):
                    clockwise += 1
                else:
                    counterclockwise += 1
                reverse_cycle(o, cycle)
            others += o.tail not in (start, base)
            assert dps.felsner_normalize(o).tail == base
            assert felsner_by_reversals(o, rng).tail == base
    assert clockwise > 0 and counterclockwise > 0
    assert others > len(duals)


def test_bernardi_spanning_tree(duals3):
    for g in duals3:
        o = dps.felsner_normalize(dps.orient_greater_label_left(g))
        parent = dps.bernardi_spanning_tree(o)
        m = g.m
        assert len(parent) == m.num_vertices - 1
        # spanning and acyclic: parent darts reach the root from everywhere
        for v in m.vertex_ids():
            seen = set()
            while v != o.root_vertex:
                assert v not in seen
                seen.add(v)
                v = m.vertex_of[m.alpha[parent[v]]]
        # tree edges are oriented toward the root
        for u, dart in parent.items():
            assert m.vertex_of[dart] == u
            assert o.tail[dart]


def test_bernardi_spanning_tree_ignores_recursion_limit():
    d = 100
    # a path-shaped tree; its rightmost search runs 2d-3 vertices deep
    t = dps.EdgeLabeledTree(d, tuple((i, i + 1, d - 1 - i, 2 * i + 2, 2 * i + 1)
                                     for i in range(d - 1)))
    g = dps.tree_to_graph(t)
    o = dps.felsner_normalize(dps.orient_greater_label_left(g))
    expected = dps.bernardi_spanning_tree(o)
    m = g.m
    search_depth = 0
    for v in m.vertex_ids():
        k = 0
        while v != o.root_vertex:
            v = m.vertex_of[m.alpha[expected[v]]]
            k += 1
        search_depth = max(search_depth, k)
    stack_depth = 0
    frame = sys._getframe()
    while frame is not None:
        stack_depth += 1
        frame = frame.f_back
    margin = 50
    assert search_depth > 2 * margin
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth + margin)
    try:
        got = dps.bernardi_spanning_tree(o)
    finally:
        sys.setrecursionlimit(limit)
    assert got == expected


def test_round_trip_d2():
    from tests.conftest import make_labeled_duals
    for g in make_labeled_duals(2):
        t = dps.graph_to_tree(g)
        assert dual_code(dps.tree_to_graph(t)) == dual_code(g)


def test_round_trip_d3_exhaustive(duals3):
    trees = []
    for g in duals3:
        t = dps.graph_to_tree(g)
        trees.append(t)
        g2 = dps.tree_to_graph(t)
        assert dual_code(g2) == dual_code(g)
    keys = {canonical_key(t) for t in trees}
    assert len(keys) == 24
    assert keys == {canonical_key(t) for t in enumerate_trees(3)}


def test_round_trip_d4_sampled(duals4):
    rng = random.Random(23)
    for g in rng.sample(duals4, 120):
        t = dps.graph_to_tree(g)
        g2 = dps.tree_to_graph(t)
        assert dual_code(g2) == dual_code(g)


def test_tree_round_trip_from_tree_side():
    for d in (2, 3, 4):
        for t in enumerate_trees(d):
            g = dps.tree_to_graph(t)
            t2 = dps.graph_to_tree(g)
            assert canonical_key(t2) == canonical_key(t)


@settings(max_examples=50, deadline=None)
@given(d=st.integers(6, 40), rng=st.randoms(use_true_random=False))
def test_round_trip_random_trees(d, rng):
    t = random_tree(rng, d)
    t2 = dps.graph_to_tree(dps.tree_to_graph(t))
    assert canonical_key(t2) == canonical_key(t)


@settings(max_examples=50, deadline=None)
@given(d=st.integers(6, 40), rng=st.randoms(use_true_random=False))
def test_random_covers_balance_realize_and_round_trip(d, rng):
    """A uniform random tree encodes a uniform random cover: its glued
    diagram is balanced and realizable, its realization reglues to it, and
    its dual round-trips through the tree bijection."""
    t = random_tree(rng, d)
    cm = realize.graph_from_monodromy(dps.tree_to_tuple(t)).colored
    assert balance.is_balanced(cm).balanced
    assert realize.is_realizable(cm)
    t2 = realize.monodromy(cm, realize.realize_generic(cm)[1])
    assert realize.graph_from_monodromy(t2).colored.colored_code() == cm.colored_code()
    assert canonical_key(dps.graph_to_tree(dps.tree_to_graph(t))) == canonical_key(t)


@pytest.mark.parametrize("t", [
    random_tree(random.Random(60), 60), path_tree(100), star_tree(100),
], ids=["random60", "path100", "star100"])
def test_round_trip_large_tree(t):
    """A path tree takes d laps of the sewing, the most known."""
    d = t.d
    g = dps.tree_to_graph(t)
    assert g.m.num_vertices == 2 * d
    assert g.m.num_faces == 2 * d - 2
    assert canonical_key(dps.graph_to_tree(g)) == canonical_key(t)


def test_decode_builds_one_map(monkeypatch):
    """Only the dual: the glued tables are checked as the dual's, with no
    map of their own, no subdivided map and no retries."""
    builds = []
    init = maps.CombinatorialMap.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(maps.CombinatorialMap, "__init__", counting_init)
    rng = random.Random(5)
    for d in (2, 3, 6, 10, 14):
        builds.clear()
        dps.tree_to_graph(random_tree(rng, d))
        assert len(builds) == 1


def test_round_trip_on_realized_generator_duals():
    """Duals coming straight out of the realization pipeline, not the
    census gluing."""
    from balmaps import realize
    for make in (maps.quadratic, maps.octahedron, lambda: maps.turkshead(4)):
        cm = maps.checkerboard(make())[0]
        counts, labels = realize.realize_generic(cm)
        g = dual_of(cm, labels)
        t = dps.graph_to_tree(g)
        assert dual_code(dps.tree_to_graph(t)) == dual_code(g)


def test_counting_chain():
    """Degree 5 counts its 1,008,000 trees against the 8400 classes
    without building them."""
    assert dps.verify_counting_chain(3)["ok"]
    assert dps.verify_counting_chain(4)["ok"]
    assert dps.verify_counting_chain(5) == {
        "d": 5, "trees": 1008000, "expected_trees": 1008000, "classes": 8400,
        "trees_over_dfact": 8400, "ok": True}

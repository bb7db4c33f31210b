import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from balmaps import dps, maps
from balmaps.errors import DegreePropertyFailed, InvalidInput, LimitExceeded


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


def test_enumerate_trees_counts():
    assert len(dps.enumerate_trees(2)) == 1
    assert len(dps.enumerate_trees(3)) == 24
    trees4 = dps.enumerate_trees(4)
    assert len(trees4) == 2880
    assert len({t.canonical_key() for t in trees4}) == 2880


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
        renamed.validate()
        assert renamed.canonical_key() == t.canonical_key()


def test_enumerate_trees_cap():
    with pytest.raises(LimitExceeded):
        dps.enumerate_trees(6)


def test_tree_validation():
    t = dps.EdgeLabeledTree(3, ((0, 1, 1, 1, 2), (1, 2, 2, 3, 4)))
    t.validate()
    with pytest.raises(InvalidInput):
        dps.EdgeLabeledTree(3, ((0, 1, 1, 1, 2), (0, 1, 2, 3, 4))).validate()
    with pytest.raises(InvalidInput):
        dps.EdgeLabeledTree(3, ((0, 1, 1, 1, 1), (1, 2, 2, 3, 4))).validate()
    with pytest.raises(InvalidInput):
        dps.EdgeLabeledTree(1, ()).validate()


def test_blue_labels_clockwise_around_whites():
    for t in dps.enumerate_trees(3):
        for w in range(t.d):
            rotation = t.white_rotation(w)
            assert rotation == sorted(rotation)


def test_orientation_degree_property(duals3):
    for g in duals3:
        o = dps.orient_greater_label_left(g)
        m = g.m
        indeg = {v: 0 for v in m.vertex_ids()}
        outdeg = {v: 0 for v in m.vertex_ids()}
        for e, f in o.forward.items():
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
        o = dps.felsner_normalize(dps.orient_greater_label_left(g))
        assert not [c for c in dps._directed_cycles(o)
                    if dps._is_clockwise(o, c)]


def test_felsner_fixed_point(duals3):
    for g in duals3[:6]:
        o = dps.felsner_normalize(dps.orient_greater_label_left(g))
        again = dps.felsner_normalize(o)
        assert again.forward == o.forward


def test_felsner_schedule_independence(duals3):
    for i, g in enumerate(duals3):
        o = dps.orient_greater_label_left(g)
        base = dps.felsner_normalize(o).forward
        for s in range(10):
            rng = random.Random(100 * i + s)
            assert dps.felsner_normalize(o, rng=rng).forward == base


def test_bernardi_spanning_tree(duals3):
    for g in duals3:
        o = dps.felsner_normalize(dps.orient_greater_label_left(g))
        st = dps.bernardi_spanning_tree(o)
        m = g.m
        assert len(st.edges) == m.num_vertices - 1
        # spanning and acyclic: parent darts reach the root from everywhere
        for v in m.vertex_ids():
            seen = set()
            while v != st.root:
                assert v not in seen
                seen.add(v)
                v = m.vertex_of[m.alpha[st.parent_dart[v]]]
        # tree edges are oriented toward the root
        for u, dart in st.parent_dart.items():
            e = m.edge_of(dart)
            assert o.forward[e] == dart


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
        while v != expected.root:
            v = m.vertex_of[m.alpha[expected.parent_dart[v]]]
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
        assert dps.tree_to_graph(t).canonical_code() == g.canonical_code()


def test_round_trip_d3_exhaustive(duals3):
    trees = []
    for g in duals3:
        t = dps.graph_to_tree(g)
        trees.append(t)
        g2 = dps.tree_to_graph(t)
        assert g2.canonical_code() == g.canonical_code()
    keys = {t.canonical_key() for t in trees}
    assert len(keys) == 24
    assert keys == {t.canonical_key() for t in dps.enumerate_trees(3)}


def test_round_trip_d4_sampled(duals4):
    rng = random.Random(23)
    for g in rng.sample(duals4, 120):
        t = dps.graph_to_tree(g)
        g2 = dps.tree_to_graph(t)
        assert g2.canonical_code() == g.canonical_code()


def test_tree_round_trip_from_tree_side():
    for t in dps.enumerate_trees(3):
        g = dps.tree_to_graph(t)
        t2 = dps.graph_to_tree(g)
        assert t2.canonical_key() == t.canonical_key()


@settings(max_examples=50, deadline=None)
@given(d=st.integers(6, 16), rng=st.randoms(use_true_random=False))
def test_round_trip_random_trees(d, rng):
    t = random_tree(rng, d)
    t2 = dps.graph_to_tree(dps.tree_to_graph(t))
    assert t2.canonical_key() == t.canonical_key()


def test_decode_large_tree():
    """Decode only: encoding still enumerates every directed cycle."""
    d = 60
    g = dps.tree_to_graph(random_tree(random.Random(60), d))
    g.validate()
    assert g.m.num_vertices == 2 * d
    assert g.m.num_faces == 2 * d - 2


def test_decode_builds_two_maps(monkeypatch):
    """The sewn preimage and its collapse, once each: no retries."""
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
        assert len(builds) == 2


def test_round_trip_on_realized_generator_duals():
    """Duals coming straight out of the realization pipeline, not the
    census gluing."""
    from balmaps import realize
    for make in (maps.quadratic, maps.octahedron, lambda: maps.turkshead(4)):
        cm = maps.checkerboard(make())[0]
        em, lab = realize.realize_generic(cm)
        g0 = maps.dual_bipartite(cm, lab.critical(em))
        blues = sorted(g0.blue_vertices)
        g = maps.FaceLabeledGraph(g0.m, g0.blue_vertices, g0.face_red,
                                  tuple(zip(blues, range(1, g0.d + 1))))
        t = dps.graph_to_tree(g)
        assert dps.tree_to_graph(t).canonical_code() == g.canonical_code()


def test_counting_chain():
    assert dps.verify_counting_chain(3)["ok"]
    assert dps.verify_counting_chain(4)["ok"]

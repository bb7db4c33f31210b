import itertools
import sys

import pytest

from balmaps import corpus, hurwitz, maps, realize


@pytest.fixture(scope="session")
def corpus6():
    """Every connected 4-valent sphere map with 2, 4 or 6 vertices."""
    return corpus.build_corpus(6)


@pytest.fixture(scope="session")
def classes4():
    return hurwitz.enumerate_classes(4)


def headroom() -> int:
    """Nested calls that still fit below the recursion limit."""
    def dive(k):
        try:
            return dive(k + 1)
        except RecursionError:
            return k
    return dive(0)


@pytest.fixture(scope="session")
def classes5():
    """enumerate_classes(5) with only six nested calls left below the
    recursion limit: the search may not recurse once per slot."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit - headroom() + 6)
    try:
        return hurwitz.enumerate_classes(5)
    finally:
        sys.setrecursionlimit(limit)


@pytest.fixture(scope="session")
def glued5(classes5):
    """The realization of every d=5 class, in class order."""
    return [realize.graph_from_monodromy(c.representative) for c in classes5]


@pytest.fixture(scope="session")
def census4():
    return hurwitz.census(4)


def make_labeled_duals(d):
    """All vertex-labeled duals of degree-d covers: one dual per class,
    decorated with every blue labeling."""
    out = []
    for cls in hurwitz.enumerate_classes(d):
        real = realize.graph_from_monodromy(cls.representative)
        g0 = maps.dual_bipartite(real.colored, real.labels, range(1, d + 1))
        blues = sorted(g0.blue_vertices)
        for perm in itertools.permutations(range(1, d + 1)):
            out.append(maps.FaceLabeledGraph(
                g0.m, g0.blue_vertices, g0.face_red, tuple(zip(blues, perm))))
    return out


def dual_code(g):
    """The code of a labeled dual: its map's code, then the least
    decoration over the map's canonical roots, which is the red of every
    face and the mark of every vertex (its blue label, 0 for a white one),
    each ordered by least dart label.  Every trace has 2n entries, so this
    is the least trace-then-decoration over all roots, a complete invariant
    of the dual with its reds and labels."""
    m, labels = g.m, g.blue_label_map()
    marks = [labels.get(cyc[0], 0) for cyc in m.vertices()]

    def decorate(lab):
        return ([g.face_red[i] for i in maps._by_least_label(m.faces, lab)]
                + [marks[i] for i in maps._by_least_label(m.vertices(), lab)])
    code = m.canonical_code()
    labs = (m._lab if r == m._root else m._bfs_trace(r)[1] for r in m.canonical_roots())
    return code + tuple(min(map(decorate, labs)))


@pytest.fixture(scope="session")
def duals3():
    return make_labeled_duals(3)


@pytest.fixture(scope="session")
def duals4():
    return make_labeled_duals(4)


def clockwise_cycles(o):
    """The directed cycles of an orientation with the root face on their
    left, i.e. with their bounded side on the right."""
    m = o.g.m
    return [c for c in maps.directed_cycles(m, o.forward.values())
            if o.root_face in maps.left_faces(m, c)]


def reverse_cycle(o, darts):
    m = o.g.m
    for dart in darts:
        e = m.edge_of(dart)
        o.forward[e] = m.alpha[o.forward[e]]


def felsner_by_reversals(o, rng=None):
    """Oracle for dps.felsner_normalize: reverse clockwise cycles, the first
    one listed or a random one, until none remains."""
    m = o.g.m
    out = o.copy()
    for _ in range(m.num_edges * m.num_faces + 1):
        cw = clockwise_cycles(out)
        if not cw:
            return out
        reverse_cycle(out, rng.choice(cw) if rng is not None else cw[0])
    raise AssertionError("clockwise cycles persist")

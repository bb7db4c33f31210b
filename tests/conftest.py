import dataclasses
import itertools
import sys
from typing import List, Tuple

import pytest

from balmaps import corpus, hurwitz, maps, realize
from balmaps.errors import Mismatch


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


def mirror(cm):
    """The mirror image of a coloured map: sigma inverted and alpha kept.
    The face through dart d is then the old face through alpha(d), its
    darts moved by alpha and walked backwards, and keeps its colour."""
    m = cm.m
    sigma = [0] * (m.n + 1)
    for d in range(1, m.n + 1):
        sigma[m.sigma[d]] = d
    mm = maps.CombinatorialMap(sigma, m.alpha)
    return maps.ColoredMap(mm, {mm.face_of[d] for d in range(1, m.n + 1)
                                if cm.is_forward(m.alpha[d])})


def dual_of(cm, labels):
    """maps.dual_bipartite of a colored map and its critical label per
    vertex, read into the per-dart tables the builder takes; a vertex with
    no label gets 0."""
    m = cm.m
    red = [labels.get(v, 0) for v in m.vertex_of]
    return maps.dual_bipartite(m.sigma, m.alpha, red,
                               {x for x in range(1, m.n + 1) if cm.is_forward(x)})


def make_labeled_duals(d):
    """All vertex-labeled duals of degree-d covers: one dual per class,
    decorated with every blue labeling."""
    out = []
    for cls in hurwitz.enumerate_classes(d):
        real = realize.graph_from_monodromy(cls.representative)
        g0 = dual_of(real.colored, real.labels)
        blues = sorted(g0.blue_vertices)
        for perm in itertools.permutations(range(1, d + 1)):
            out.append(maps.FaceLabeledGraph(
                g0.m, g0.blue_vertices, g0.face_red, tuple(zip(blues, perm))))
    return out


def _by_least_label(cycles, lab):
    """Indices of disjoint dart cycles, ordered by their least dart label
    under ``lab``, a table or a dict from dart to label."""
    return sorted(range(len(cycles)), key=lambda i: min(map(lab.__getitem__, cycles[i])))


def face_bit_decoration(cm):
    """The reference for ColoredMap.face_bits, given labels instead of a
    queue: the blue bit of every face, faces ordered by least dart label."""
    return lambda lab: [1 if i in cm.blue_faces else 0 for i in _by_least_label(cm.m.faces, lab)]


def dual_decoration(g):
    """The decoration of a labeled dual under dart labels ``lab``: the red
    of every face, then every vertex's mark (its blue label, 0 for a white
    one), each ordered by least dart label."""
    m, labels = g.m, g.blue_label_map()
    marks = [labels.get(cyc[0], 0) for cyc in m.vertices()]
    return lambda lab: ([g.face_red[i] for i in _by_least_label(m.faces, lab)]
                        + [marks[i] for i in _by_least_label(m.vertices(), lab)])


def dual_code(g):
    """The code of a labeled dual: its map's code, then the least
    decoration over the map's canonical roots.  Every trace has 2n entries,
    so this is the least trace-then-decoration over all roots, a complete
    invariant of the dual with its reds and labels."""
    m, decorate = g.m, dual_decoration(g)
    code = m.canonical_code()
    orders = (m._order if r == m._root else m._bfs_trace(r)[1] for r in m.canonical_roots())
    # the k-th dart of a root's queue is labelled k
    return code + tuple(min(decorate({d: k for k, d in enumerate(o, 1)}) for o in orders))


@pytest.fixture(scope="session")
def duals3():
    return make_labeled_duals(3)


@pytest.fixture(scope="session")
def duals4():
    return make_labeled_duals(4)


def forward_darts(o):
    """The tail dart of each edge of an orientation."""
    return [c for c in range(1, o.g.m.n + 1) if o.tail[c]]


def clockwise_cycles(o):
    """The directed cycles of an orientation with the root face on their
    left, i.e. with their bounded side on the right."""
    m = o.g.m
    return [c for c in maps.directed_cycles(m, forward_darts(o))
            if o.root_face in maps.left_faces(m, c)]


def reverse_cycle(o, darts):
    for dart in darts:
        o.tail[dart] = not o.tail[dart]
        o.tail[o.g.m.alpha[dart]] = not o.tail[o.g.m.alpha[dart]]


def felsner_by_reversals(o, rng=None):
    """Oracle for dps.felsner_normalize: reverse clockwise cycles, the first
    one listed or a random one, until none remains."""
    m = o.g.m
    out = dataclasses.replace(o, tail=list(o.tail))
    for _ in range(m.num_edges * m.num_faces + 1):
        cw = clockwise_cycles(out)
        if not cw:
            return out
        reverse_cycle(out, rng.choice(cw) if rng is not None else cw[0])
    raise AssertionError("clockwise cycles persist")


def sew_reference(t, runs):
    """Oracle for dps._sew, its merged-lap version: every lap is cut into
    intervals, sorted and merged, and the first lap whose merged intervals
    equal the lap before's is returned."""
    d = t.d
    n = 2 * d - 2
    segments = [(d + i, (r - 2) % n, 1, w) for i, (wa, wb, _, ra, rb)
                in enumerate(t.edges) for w, r in ((wa, ra), (wb, rb))]
    hairs = sum(run[2] for run in runs)
    stack: List[Tuple[int, int, int]] = []  # (vertex, top slot, count)
    previous = None
    for _ in range(hairs + 2):
        # a lap pops at most one hair per hair, so deeper ones never matter
        depth = 0
        for k in range(len(stack) - 1, -1, -1):
            depth += stack[k][2]
            if depth > hairs:
                stack[k] = stack[k][:2] + (stack[k][2] - depth + hairs + 1,)
                del stack[:k]
                break
        pieces = list(segments)
        for v, s, c in runs:
            step = 1 if v < d else -1
            while c and stack and (stack[-1][0] < d) != (v < d) and stack[-1][1] == s:
                u, top, k = stack.pop()
                m = min(c, k)
                if m < k:
                    stack.append((u, (top + step * m) % n, k - m))
                lo = s if step == 1 else (s - m + 1) % n
                mid, w = (u, v) if v < d else (v, u)
                pieces.append((mid, lo, min(m, n - lo), w))
                if lo + m > n:
                    pieces.append((mid, 0, lo + m - n, w))
                s = (s + step * m) % n
                c -= m
            if c:
                stack.append((v, (s + step * (c - 1)) % n, c))
        pieces.sort()
        matched = pieces[:1]
        for p in pieces[1:]:
            q = matched[-1]
            if q[0] == p[0] and q[1] + q[2] == p[1] and q[3] == p[3]:
                matched[-1] = q[:2] + (q[2] + p[2], p[3])
            else:
                matched.append(p)
        if matched == previous:
            return matched
        previous = matched
    raise Mismatch("contour sewing still changes after %d laps" % (hairs + 2))

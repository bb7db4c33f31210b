"""Bijection between face-labeled bipartite duals and edge-labeled trees.

One direction orients the dual greater-label-left, one flag per dart,
removes clockwise cycles, runs a rightmost depth-first search against the
orientation (Bernardi's spanning tree), chops the root, and reads a red
label off each surviving segment.  Felsner's clockwise-free orientation
(EJC 2004) is read off the greatest face potential, a distance in the dual
(Khuller, Naor and Klein, SIAM J. Discrete Math. 1993), by one 0-1
breadth-first search.
The other direction grows hairs on the tree, slot-indexed by the red
labels, and sews them up by a last-in-first-out matching run around the
cyclic contour walk until one lap's matches repeat the previous lap's:
4d - 4 runs of hairs in consecutive slots, matched run against run, for
2-8 laps on random trees up to d = 400 and d laps on a path tree.  The
sewing pairs every sheet with a white polygon in every slot, which is the
cover's monodromy tuple; the realize module glues its polygons into
tables, and their dual, the one map a decode builds, is the decoded graph.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .errors import DegreePropertyFailed, InvalidInput, LimitExceeded, Mismatch
from .maps import FaceLabeledGraph, count_components, dual_bipartite
from .realize import TranspositionTuple, _glue

TreeEdge = Tuple[int, int, int, int, int]  # (white_a, white_b, blue, red_a, red_b)

# bounds decoding time, laps x O(d): a path tree on d whites takes d laps
DECODE_DEGREE_CAP = 500


@dataclass(frozen=True, slots=True)
class EdgeLabeledTree:
    """A tree on d unlabeled white vertices whose d-1 edges carry distinct
    blue labels 1..d-1 and whose 2d-2 half-edge segments carry distinct red
    labels 1..2d-2; construction raises InvalidInput otherwise.

    The embedding is derived, not stored: around each white vertex the
    incident edges appear clockwise by increasing blue label.
    """
    d: int
    edges: Tuple[TreeEdge, ...]

    def __post_init__(self) -> None:
        d = self.d
        if d < 2:
            raise InvalidInput("a tree needs at least 2 white vertices, got %d" % d)
        if len(self.edges) != d - 1:
            raise InvalidInput("a tree on %d white vertices needs %d edges" % (d, d - 1))
        blues = sorted(e[2] for e in self.edges)
        if blues != list(range(1, d)):
            raise InvalidInput("blue labels must be a bijection onto 1..d-1")
        reds = sorted(r for e in self.edges for r in (e[3], e[4]))
        if reds != list(range(1, 2 * d - 1)):
            raise InvalidInput("red labels must be a bijection onto 1..2d-2")
        for wa, wb, _, _, _ in self.edges:
            if not (0 <= wa < d and 0 <= wb < d) or wa == wb:
                raise InvalidInput("bad white endpoints %r" % ((wa, wb),))
        # with d-1 edges, acyclic is the same as connected
        if count_components(d, ((e[0] + 1, e[1] + 1) for e in self.edges)) != 1:
            raise InvalidInput("edges contain a cycle")


def _white_names(d: int, edges) -> List[Tuple[int, ...]]:
    """Name each white by the sorted blue labels of its edges.  Blue labels
    are distinct and every white has an edge, so names differ once d >= 3
    (at d = 2 swapping the whites is a symmetry)."""
    names: List[List[int]] = [[] for _ in range(d)]
    for e in edges:
        names[e[0]].append(e[2])
        names[e[1]].append(e[2])
    return [tuple(sorted(blues)) for blues in names]


def _pruefer_decode(seq: Tuple[int, ...], d: int) -> List[Tuple[int, int]]:
    degree = [1] * (d + 1)
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(1, d + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def _edge_labeled_shapes(d: int) -> List[Tuple[Tuple[int, int, int], ...]]:
    """Trees on d unlabeled whites with distinct edge labels 1..d-1, one
    representative each, as tuples of (white_a, white_b, blue).

    A Cayley tree rooted at vertex d induces the edge labeling "label the
    edge by its endpoint away from the root"; forgetting vertex names and
    deduplicating leaves one representative per shape.
    """
    shapes = set()
    for pruefer in itertools.product(range(1, d + 1), repeat=d - 2):
        edges = _pruefer_decode(pruefer, d)
        adj = {v: [] for v in range(1, d + 1)}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        parent = {d: 0}
        order = [d]
        i = 0
        while i < len(order):
            v = order[i]
            i += 1
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    order.append(w)
        labeled = [(c - 1, parent[c] - 1, c) for c in range(1, d)]
        # number the whites in the order of their names
        name = _white_names(d, labeled)
        rank = {w: i for i, w in enumerate(sorted(range(d), key=name.__getitem__))}
        shape = tuple(sorted(
            (min(rank[a], rank[b]), max(rank[a], rank[b]), blue)
            for a, b, blue in labeled))
        shapes.add(shape)
    return sorted(shapes)


# -- orientation, Felsner normalization, Bernardi tree --------------------------------


@dataclass(slots=True)
class EdgeOrientation:
    """A direction for every edge of a face-labeled dual: ``tail[c]`` says
    that dart c's base is its edge's tail, true for one dart of each edge."""
    g: FaceLabeledGraph
    tail: List[bool]
    root_vertex: int
    root_face: int


def orient_greater_label_left(g: FaceLabeledGraph) -> EdgeOrientation:
    """Direct every edge so the incident face with greater red label is on
    its left; check the unique-in (blue) / unique-out (white) property."""
    m = g.m
    red = [g.face_red[f] for f in m.face_of]  # per dart, the red on its left
    # an edge with one face on both sides is directed from its greater dart
    tail = [r > red[a] or r == red[a] and c > a for c, (r, a) in enumerate(zip(red, m.alpha))]
    blues = g.blue_vertices
    count = [0] * (m.n + 1)  # per vertex: its heads at a blue, its tails at a white
    for c, v in enumerate(m.vertex_of):
        count[v] += tail[c] != (v in blues)
    for v in m.vertex_ids():
        if count[v] != 1:
            if v in blues:
                raise DegreePropertyFailed("blue vertex %d has in-degree %d" % (v, count[v]))
            raise DegreePropertyFailed("white vertex %d has out-degree %d" % (v, count[v]))
    root = next(v for v, lab in g.blue_labels if lab == g.d)
    root_face = max((m.face_of[c] for c in m.vertex_cycle(root)),
                    key=g.face_red.__getitem__)
    return EdgeOrientation(g, tail, root, root_face)


def felsner_normalize(o: EdgeOrientation) -> EdgeOrientation:
    """The orientation with the same out-degrees and no clockwise cycle
    (bounded side on the right of the cycle, root face on its left).

    Any orientation with the out-degrees of o differs from o by a
    circulation, on the sphere the coboundary of a face potential p with
    p(root face) = 0: every edge of o, with faces L and R on its left and
    right, has 0 <= p(R) - p(L) <= 1 and is reversed where it is 1.
    Reversing a clockwise cycle raises p by 1 on its bounded side, so the
    orientation without clockwise cycles (Felsner, "Lattice structures from
    planar graphs", EJC 2004) has the greatest feasible p: the distance from
    the root face when crossing an edge from left to right costs 1 and back
    costs 0 (Khuller, Naor and Klein, "The lattice structure of flow in
    planar graphs", SIAM J. Discrete Math. 1993). One 0-1 breadth-first
    search over the faces finds it, and both darts of an edge flip their
    flags where it differs across the edge.
    """
    m = o.g.m
    tail = o.tail
    dist = [m.num_faces] * m.num_faces
    dist[o.root_face] = 0
    queue = deque([o.root_face])
    while queue:
        f = queue.popleft()
        for c in m.faces[f]:
            step = tail[c]
            g = m.face_of[m.alpha[c]]
            if dist[f] + step < dist[g]:
                dist[g] = dist[f] + step
                (queue.append if step else queue.appendleft)(g)
    left = [dist[f] for f in m.face_of]  # per dart, the distance on its left
    return EdgeOrientation(o.g, [t == (x == left[a]) for t, x, a in zip(tail, left, m.alpha)],
                           o.root_vertex, o.root_face)


def bernardi_spanning_tree(o: EdgeOrientation) -> Dict[int, int]:
    """Rightmost depth-first search from the root, against the orientation:
    each other vertex's dart toward its parent, in the order reached.

    At a vertex entered via departure dart e, candidates are scanned from
    alpha(e) clockwise (by sigma^-1) round to alpha(e), a tail and so never
    traversed; at the root, from the root dart round to itself.  Only
    edges pointing into the current vertex are traversable, and first
    visits make tree edges.
    """
    m = o.g.m
    tail, alpha, vertex_of = o.tail, m.alpha, m.vertex_of
    back = [0] * (m.n + 1)  # sigma^-1
    for c, x in enumerate(m.sigma):
        back[x] = c
    root = o.root_vertex
    visited = [False] * (m.n + 1)
    visited[root] = True
    parent: Dict[int, int] = {}
    # per vertex on the search path: its last scanned dart and its entry dart
    path = [[root, root]]
    while path:
        top = path[-1]
        c = top[0] = back[top[0]]
        if c == top[1]:
            path.pop()
        if tail[c]:
            continue  # edge not directed into the current vertex
        a = alpha[c]
        u = vertex_of[a]
        if visited[u]:
            continue
        visited[u] = True
        parent[u] = a
        path.append([a, a])
    if len(parent) + 1 != m.num_vertices:
        raise Mismatch("search visited %d of %d vertices"
                       % (len(parent) + 1, m.num_vertices))
    return parent


# -- the bijection ----------------------------------------------------------------------


def graph_to_tree(g: FaceLabeledGraph) -> EdgeLabeledTree:
    """Bernardi tree of the dual, chopped at the root, red labels read off
    the white-to-blue right-side faces.  The orientation is a flag per
    dart, and each step walks the dart tables once."""
    m = g.m
    blues = g.blue_vertices
    o = felsner_normalize(orient_greater_label_left(g))
    root = o.root_vertex
    widx = {v: i for i, v in enumerate(v for v in m.vertex_ids() if v not in blues)}
    # (white, red) of each tree edge, bucketed by its blue end
    ends_at: Dict[int, List[Tuple[int, int]]] = {v: [] for v in blues}
    for u, a in bernardi_spanning_tree(o).items():
        c = m.alpha[a] if u in blues else a  # the edge's dart at its white end
        ends_at[m.vertex_of[m.alpha[c]]].append(
            (widx[m.vertex_of[c]], g.face_red[m.face_of[m.alpha[c]]]))
    if len(ends_at[root]) != 1:
        raise Mismatch("root must be a leaf of the spanning tree")
    edges = []
    for mid, label in sorted(g.blue_labels):
        if mid == root:
            continue
        ends = ends_at[mid]
        if len(ends) != 2:
            raise Mismatch("midpoint %d has tree degree %d" % (mid, len(ends)))
        (wa, ra), (wb, rb) = sorted(ends)
        edges.append((wa, wb, label, ra, rb))
    return EdgeLabeledTree(g.d, tuple(edges))


def _contour_runs(t: EdgeLabeledTree) -> List[Tuple[int, int, int]]:
    """The counterclockwise contour of the hairy tree as hair runs.

    Whites are vertices 0..d-1 and the midpoint of edge i is vertex d + i.
    A segment with red label r sits in slot (r - 2) mod n at both ends (the
    red names the face just past the segment's chain, so the chain's
    surviving edge sits one slot below); every other slot holds a hair.
    Counterclockwise the slots ascend around whites and descend around
    midpoints (measured on duals of actual covers).  The walk crosses a
    segment and turns to the next one counterclockwise at the vertex it
    reaches; each of the 2n corners gives a run (vertex, first slot,
    count).  It starts at slot 0 of white 0, splitting the corner there.

    The tables are per segment end: edge i's ends are 4i..4i+3 at white a,
    its midpoint, white b and its midpoint, and end e crosses to e ^ 1.
    """
    d = t.d
    n = 2 * d - 2
    vertex: List[int] = []  # per end
    slot: List[int] = []  # per end
    at: List[List[int]] = [[] for _ in range(2 * d - 1)]  # the ends at each vertex
    for mid, (wa, wb, _, ra, rb) in enumerate(t.edges, d):
        sa, sb = (ra - 2) % n, (rb - 2) % n
        at[wa].append(len(vertex))
        at[mid] += (len(vertex) + 1, len(vertex) + 3)
        at[wb].append(len(vertex) + 2)
        vertex += (wa, mid, wb, mid)
        slot += (sa, sa, sb, sb)
    turn = [0] * (2 * n)  # per end, the next end counterclockwise at its vertex
    for v, ends in enumerate(at):
        ends.sort(key=slot.__getitem__, reverse=v >= d)
        for e, after in zip(ends, ends[1:] + ends[:1]):
            turn[e] = after
    start = at[0][0]
    first = slot[start]
    runs, e = [(0, 0, first)], start
    for _ in range(2 * n):
        arrived = slot[e]
        e = turn[e ^ 1]
        v = vertex[e]
        step = 1 if v < d else -1
        runs.append((v, (arrived + step) % n, (step * (slot[e] - arrived) - 1) % n))
        if e == start:
            break
    if len(runs) != 2 * n + 1 or e != start:
        raise Mismatch("contour does not close after %d corners" % (2 * n))
    # the last corner stops at slot n - 1; the first run holds the rest
    runs[-1] = (0, runs[-1][1], n - 1 - arrived)
    return [run for run in runs if run[2]]


def _sew(t: EdgeLabeledTree, runs) -> List[Tuple[int, int, int, int]]:
    """Sew midpoint hairs to white hairs of the same slot around the cyclic
    contour; return each midpoint's maximal slot intervals of constant white,
    segments included, sorted as (midpoint, first slot, count, white).

    Chords drawn in the tree's complementary disk must be mutually
    non-crossing, which forces a last-in-first-out discipline: a hair
    matches the unmatched hair it can see (the stack top) when the slots
    agree and the colors differ, otherwise it is pushed.  A run meeting a
    top of the other color in its slot moves in step with it, so
    min(count, top count) hairs match at once.  The contour is a cycle
    with no distinguished start, so it is run lap after lap with the stack
    kept between laps: a chord straddling the start of a lap closes in the
    next.  The first lap whose matches, in the order made, equal the lap
    before's is returned; only it is cut into intervals, sorted and merged.

    Why the stable lap is the planar sewing is not proved here.  It gave
    exactly the map of an earlier decoder, which cut the walk at each
    position in turn and kept the first cut that sewed up into a valid
    sphere, on all 2905 trees with d <= 4 and 230 random trees with
    d = 5..14.  Random trees up to d = 400 settle in 2-8 laps, a path tree
    on d whites in d.  Equal laps merge equal, so this never stops before
    comparing merged laps would, and it stopped at the same lap on 10170
    trees: all with d <= 4, 4000 seeded random ones with d <= 120, paths
    and stars with d = 3..79, and the 3111 pinned up to d = 400.  A sewing
    that breaks the tuple read off it fails that tuple's construction with
    InvalidTuple.  Laps are capped at the hair count plus 2, past which
    Mismatch is raised.
    """
    d = t.d
    n = 2 * d - 2
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
        matches = []  # (midpoint, white, first slot, count)
        for v, s, c in runs:
            white = v < d
            step = 1 if white else -1
            while c and stack:
                u, top, k = stack[-1]
                if top != s or (u < d) == white:
                    break
                del stack[-1]
                if c < k:
                    stack.append((u, (top + step * c) % n, k - c))
                    k = c
                matches.append((u, v, s, k) if white else (v, u, (s - k + 1) % n, k))
                s = (s + step * k) % n
                c -= k
            if c:
                stack.append((v, (s + step * (c - 1)) % n, c))
        if matches == previous:
            break
        previous = matches
    else:
        raise Mismatch("contour sewing still changes after %d laps" % (hairs + 2))
    pieces = [(d + i, (r - 2) % n, 1, w) for i, (wa, wb, _, ra, rb)
              in enumerate(t.edges) for w, r in ((wa, ra), (wb, rb))]
    for mid, w, lo, m in matches:
        pieces.append((mid, lo, min(m, n - lo), w))
        if lo + m > n:
            pieces.append((mid, 0, lo + m - n, w))
    pieces.sort()
    matched = pieces[:1]
    for p in pieces[1:]:
        q = matched[-1]
        if q[0] == p[0] and q[1] + q[2] == p[1] and q[3] == p[3]:
            matched[-1] = q[:2] + (q[2] + p[2], p[3])
        else:
            matched.append(p)
    return matched


def tree_to_tuple(t: EdgeLabeledTree) -> TranspositionTuple:
    """The monodromy tuple of the cover that the tree encodes.

    The sewn hairy tree is the dual of the glued preimage: a vertex per
    polygon (the midpoints and the root blue, the whites white) and an edge
    per glued side, joining a blue and a white in one slot.  So each slot
    pairs every sheet with a white: a midpoint pairs its blue label with
    the white of its segment or sewn hair there, and the root (sheet d)
    takes the one white left unsewn.  tau_j swaps the sheets whose white
    changes from slot j - 2 to j - 1 (mod n), the root exactly when the
    other whites change their sum.  Decoding takes laps x O(d) time, with
    d laps on a path tree, so degrees above DECODE_DEGREE_CAP are refused
    before the contour is built.
    """
    if t.d > DECODE_DEGREE_CAP:
        raise LimitExceeded("decoding capped at degree %d" % DECODE_DEGREE_CAP)
    d = t.d
    n = 2 * d - 2
    sheets: List[List[int]] = [[] for _ in range(n)]
    moved = [0] * n  # the change of the whites' sum into each slot
    for mid, group in itertools.groupby(_sew(t, _contour_runs(t)), lambda q: q[0]):
        group = list(group)
        if sum(q[2] for q in group) != n:
            raise Mismatch("unmatched hairs remain at midpoint %d" % (mid - d))
        # the last interval wraps around to the first
        for (_, _, _, was), (_, lo, _, w) in zip(group[-1:] + group, group):
            if was != w:
                sheets[lo].append(t.edges[mid - d][2])
                moved[lo] += w - was
    return TranspositionTuple(d, tuple(tuple(sorted(s) + [d] * (m != 0))
                                       for s, m in zip(sheets, moved)))


def tree_to_graph(t: EdgeLabeledTree) -> FaceLabeledGraph:
    """Inverse of graph_to_tree: the labeled dual of the diagram glued from
    tree_to_tuple(t), the one map a decode builds.  Each slot writes one
    sigma 4-cycle, so a dart written twice breaks the dual's phi^-1 and
    every vertex is 4-valent.  The blue darts 1..2n (n = 2d - 2) come
    first, sheet by sheet, so the dual's blue vertices in ascending id
    order are sheets 1..d.
    """
    sigma, alpha, red = _glue(tree_to_tuple(t))
    return dual_bipartite(sigma, alpha, red, range(1, 4 * t.d - 3))


def verify_counting_chain(d: int) -> dict:
    """|trees| = (2d-2)! d^(d-3), and |trees| = |tuples|, the sum of the
    conjugacy orbits over the classes (|classes| d! for d >= 3).  For
    d >= 3 whites are named by their distinct blue labels, so each shape
    with each placement of the reds is a distinct tree, and the trees are
    counted, not built; each shape is built once, as a tree.  The classes
    come first, so their degree cap acts before any shape is listed."""
    from .hurwitz import enumerate_classes
    classes = enumerate_classes(d)
    shapes = _edge_labeled_shapes(d)
    for shape in shapes:
        EdgeLabeledTree(d, tuple((wa, wb, blue, 2 * i + 1, 2 * i + 2)
                                 for i, (wa, wb, blue) in enumerate(shape)))
    # at d = 2 swapping the whites swaps the reds: one tree per shape
    trees = len(shapes) * (math.factorial(2 * d - 2) if d >= 3 else 1)
    expected_trees = math.factorial(2 * d - 2) * d ** (d - 3) if d >= 3 else 1
    return {
        "d": d,
        "trees": trees,
        "expected_trees": expected_trees,
        "classes": len(classes),
        "trees_over_dfact": trees // math.factorial(d),
        "ok": trees == expected_trees and trees == sum(c.orbit_size for c in classes),
    }

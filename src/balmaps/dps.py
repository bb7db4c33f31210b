"""Bijection between face-labeled bipartite duals and edge-labeled trees.

One direction orients the dual greater-label-left, removes clockwise
cycles (Felsner's unique normalization), runs a rightmost depth-first
search against the orientation (Bernardi's spanning tree), chops the root,
and reads a red label off each surviving segment.  The other direction
grows hairs on the tree, slot-indexed by the red labels, sews them up by a
last-in-first-out matching run around the cyclic contour walk until one lap
repeats the previous one, and collapses the 2-gon faces in a single pass.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import (
    DegreePropertyFailed,
    InvalidInput,
    LimitExceeded,
    MatchingStuck,
    NonTermination,
    NotSpanning,
)
from .maps import CombinatorialMap, FaceLabeledGraph

TreeEdge = Tuple[int, int, int, int, int]  # (white_a, white_b, blue, red_a, red_b)


@dataclass(frozen=True)
class EdgeLabeledTree:
    """A tree on d unlabeled white vertices whose d-1 edges carry distinct
    blue labels 1..d-1 and whose 2d-2 half-edge segments carry distinct red
    labels 1..2d-2.

    The embedding is derived, not stored: around each white vertex the
    incident edges appear clockwise by increasing blue label.
    """
    d: int
    edges: Tuple[TreeEdge, ...]

    def validate(self) -> None:
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
        # connectivity / acyclicity
        parent = list(range(d))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for wa, wb, _, _, _ in self.edges:
            if not (0 <= wa < d and 0 <= wb < d) or wa == wb:
                raise InvalidInput("bad white endpoints %r" % ((wa, wb),))
            ra, rb = find(wa), find(wb)
            if ra == rb:
                raise InvalidInput("edges contain a cycle")
            parent[ra] = rb

    def canonical_key(self) -> Tuple:
        """Invariant under renaming of the white vertices."""
        name = _white_names(self.d, self.edges)
        return tuple(sorted(
            (blue,) + tuple(sorted(((name[wa], ra), (name[wb], rb))))
            for wa, wb, blue, ra, rb in self.edges))

    def white_rotation(self, w: int) -> List[Tuple[int, int]]:
        """Incident (blue, other_end) pairs, clockwise (by increasing blue)."""
        inc = []
        for wa, wb, blue, ra, rb in self.edges:
            if w == wa:
                inc.append((blue, wb))
            elif w == wb:
                inc.append((blue, wa))
        return sorted(inc)


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
    if d == 2:
        return [((0, 1, 1),)]
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


def enumerate_trees(d: int, limit: int = 5) -> List[EdgeLabeledTree]:
    """All edge-labeled, red-labeled trees: (2d-2)! d^(d-3) of them."""
    if d > limit:
        raise LimitExceeded("tree enumeration capped at degree %d" % limit)
    if d < 2:
        raise InvalidInput("degree must be at least 2")
    shapes = _edge_labeled_shapes(d)
    if d >= 3 and len(shapes) != d ** (d - 3):
        raise InvalidInput("shape enumeration produced %d trees, expected %d"
                           % (len(shapes), d ** (d - 3)))
    out = {}
    n = 2 * d - 2
    for shape in shapes:
        for reds in itertools.permutations(range(1, n + 1)):
            edges = tuple(
                (wa, wb, blue, reds[2 * i], reds[2 * i + 1])
                for i, (wa, wb, blue) in enumerate(shape))
            t = EdgeLabeledTree(d, edges)
            out.setdefault(t.canonical_key(), t)
    trees = list(out.values())
    expected = math.factorial(n) * d ** (d - 3) if d >= 3 else 1
    if len(trees) != expected:
        raise InvalidInput("enumerated %d trees, expected %d" % (len(trees), expected))
    return trees


# -- orientation, Felsner normalization, Bernardi tree --------------------------------


@dataclass
class EdgeOrientation:
    """A direction for every edge of a face-labeled dual: ``forward[e]`` is
    the dart whose base is the tail."""
    g: FaceLabeledGraph
    forward: Dict[int, int]
    root_vertex: int
    root_face: int

    def points_into(self, c: int) -> bool:
        """Is the edge carrying dart c directed toward c's base vertex?"""
        m = self.g.m
        return self.forward[m.edge_of(c)] == m.alpha[c]

    def reverse_cycle(self, darts: Tuple[int, ...]) -> None:
        m = self.g.m
        for dart in darts:
            e = m.edge_of(dart)
            self.forward[e] = m.alpha[self.forward[e]]

    def copy(self) -> "EdgeOrientation":
        return EdgeOrientation(self.g, dict(self.forward),
                               self.root_vertex, self.root_face)


def orient_greater_label_left(g: FaceLabeledGraph) -> EdgeOrientation:
    """Direct every edge so the incident face with greater red label is on
    its left; check the unique-in (blue) / unique-out (white) property."""
    m = g.m
    labels = g.blue_label_map()
    if not labels:
        raise InvalidInput("orientation needs blue vertex labels")
    root = next(v for v, lab in labels.items() if lab == g.d)
    forward = {}
    for e in m.edges():
        left_e = g.face_red[m.face_of[e]]
        left_other = g.face_red[m.face_of[m.alpha[e]]]
        forward[e] = e if left_e > left_other else m.alpha[e]
    indeg = {v: 0 for v in m.vertex_ids()}
    outdeg = {v: 0 for v in m.vertex_ids()}
    for e, f in forward.items():
        outdeg[m.vertex_of[f]] += 1
        indeg[m.vertex_of[m.alpha[f]]] += 1
    for v in m.vertex_ids():
        if v in g.blue_vertices:
            if indeg[v] != 1:
                raise DegreePropertyFailed("blue vertex %d has in-degree %d" % (v, indeg[v]))
        else:
            if outdeg[v] != 1:
                raise DegreePropertyFailed("white vertex %d has out-degree %d" % (v, outdeg[v]))
    root_face = max((m.face_of[c] for c in m.vertex_cycle(root)),
                    key=lambda f: g.face_red[f])
    return EdgeOrientation(g, forward, root, root_face)


def _directed_cycles(o: EdgeOrientation) -> List[Tuple[int, ...]]:
    """Vertex-simple cycles following the orientation, minimal dart first."""
    m = o.g.m
    out_darts = {v: [] for v in m.vertex_ids()}
    for e, f in o.forward.items():
        out_darts[m.vertex_of[f]].append(f)
    for v in out_darts:
        out_darts[v].sort()
    cycles = []

    def extend(path, used, target):
        head = m.vertex_of[m.alpha[path[-1]]]
        if head == target:
            cycles.append(tuple(path))
        if head in used:
            return
        used.add(head)
        for nxt in out_darts[head]:
            if nxt > path[0]:
                extend(path + [nxt], used, target)
        used.remove(head)

    for start in sorted(d for outs in out_darts.values() for d in outs):
        extend([start], {m.vertex_of[start]}, m.vertex_of[start])
    return cycles


def _is_clockwise(o: EdgeOrientation, darts: Tuple[int, ...]) -> bool:
    """Clockwise: the bounded side (the one without the root face) lies to
    the right, i.e. the root face is on the left."""
    m = o.g.m
    cut = {m.edge_of(d) for d in darts}
    left = {m.face_of[d] for d in darts}
    frontier = list(left)
    while frontier:
        f = frontier.pop()
        for d in m.faces[f]:
            if m.edge_of(d) in cut:
                continue
            gface = m.face_of[m.alpha[d]]
            if gface not in left:
                left.add(gface)
                frontier.append(gface)
    return o.root_face in left


def felsner_normalize(o: EdgeOrientation,
                      rng: Optional[random.Random] = None) -> EdgeOrientation:
    """Reverse clockwise cycles until none remain; the result is unique
    whatever the reversal schedule."""
    m = o.g.m
    out = o.copy()
    cap = m.num_edges * m.num_faces + 1
    for _ in range(cap):
        cw = [c for c in _directed_cycles(out) if _is_clockwise(out, c)]
        if not cw:
            return out
        pick = rng.choice(cw) if rng is not None else cw[0]
        out.reverse_cycle(pick)
    raise NonTermination("clockwise cycles persist after %d reversals" % cap)


@dataclass
class SpanningTree:
    root: int
    edges: frozenset        # edge ids in the tree
    parent_dart: Dict[int, int]  # vertex -> dart at that vertex toward parent


def bernardi_spanning_tree(o: EdgeOrientation) -> SpanningTree:
    """Rightmost depth-first search from the root, against the orientation.

    At a vertex entered via departure dart e, candidates are scanned from
    alpha(e) clockwise (reverse rotation); only edges pointing into the
    current vertex are traversable, and first visits make tree edges.
    """
    m = o.g.m
    root = o.root_vertex
    visited = {root}
    tree_edges = set()
    parent_dart: Dict[int, int] = {}

    def candidates(v: int, anchor: Optional[int]):
        cyc = m.vertex_cycle(v)
        k = len(cyc)
        if anchor is None:
            return [cyc[(-1 - i) % k] for i in range(k)]
        i = cyc.index(anchor)
        return [cyc[(i - 1 - j) % k] for j in range(k - 1)]

    # one candidate iterator per vertex on the current search path
    path = [iter(candidates(root, None))]
    while path:
        for c in path[-1]:
            if not o.points_into(c):
                continue  # edge not directed into the current vertex
            u = m.vertex_of[m.alpha[c]]
            if u in visited:
                continue
            visited.add(u)
            tree_edges.add(m.edge_of(c))
            parent_dart[u] = m.alpha[c]
            path.append(iter(candidates(u, m.alpha[c])))
            break
        else:
            path.pop()
    if len(visited) != m.num_vertices:
        raise NotSpanning("search visited %d of %d vertices"
                          % (len(visited), m.num_vertices))
    return SpanningTree(root, frozenset(tree_edges), parent_dart)


# -- the bijection ----------------------------------------------------------------------


def graph_to_tree(g: FaceLabeledGraph) -> EdgeLabeledTree:
    """Bernardi tree of the dual, chopped at the root, red labels read off
    the white-to-blue right-side faces."""
    g.validate()
    m = g.m
    d = g.d
    labels = g.blue_label_map()
    o = felsner_normalize(orient_greater_label_left(g))
    st = bernardi_spanning_tree(o)
    root = st.root
    root_tree_edges = [e for e in st.edges
                       if root in (m.vertex_of[e], m.vertex_of[m.alpha[e]])]
    if len(root_tree_edges) != 1:
        raise NotSpanning("root must be a leaf of the spanning tree")
    kept = st.edges - {root_tree_edges[0]}
    whites = sorted(v for v in m.vertex_ids() if v not in g.blue_vertices)
    widx = {v: i for i, v in enumerate(whites)}
    edges = []
    for mid in sorted(g.blue_vertices - {root}):
        inc = [e for e in kept
               if mid in (m.vertex_of[e], m.vertex_of[m.alpha[e]])]
        if len(inc) != 2:
            raise NotSpanning("midpoint %d has tree degree %d" % (mid, len(inc)))
        ends = []
        for e in inc:
            c = e if m.vertex_of[e] != mid else m.alpha[e]
            w = m.vertex_of[c]
            red = g.face_red[m.face_of[m.alpha[c]]]
            ends.append((widx[w], red))
        (wa, ra), (wb, rb) = sorted(ends)
        edges.append((wa, wb, labels[mid], ra, rb))
    t = EdgeLabeledTree(d, tuple(edges))
    t.validate()
    return t


# germ encoding for the hairy tree: ("seg", edge index, end) or
# ("hair", vertex, slot); vertices are ("w", i), ("m", edge index), ("root",)


def _match_hairs(walk):
    """Sew midpoint hairs to white hairs of the same slot around the cyclic
    contour walk.

    Chords drawn in the tree's complementary disk must be mutually
    non-crossing, which forces a last-in-first-out discipline: a germ
    matches the unmatched germ it can see (the stack top) when the slots
    agree and the colors differ, otherwise it is pushed.  The walk is a
    cycle with no distinguished start, so it is run lap after lap with the
    stack kept between laps; a chord whose ends straddle the start of a lap
    closes in the next lap against the germ left on the stack.  The laps
    stop at the first lap that matches exactly as the one before it, and
    that lap's matching is returned.

    Why the stable lap is the planar sewing is not proved here.  The
    evidence: it gave exactly the map of the earlier decoder, which cut
    the walk at each position in turn and kept the first cut that sewed up
    into a valid sphere, on all 2905 trees with d <= 4 and on 230 random
    trees with d = 5..14; the laps settled within 5 laps on random trees up
    to d = 60.  A sewing that is not a sphere is still rejected by the
    checked map construction in _sew_hairy_tree.  Laps are capped at
    len(walk) + 2, past which NonTermination is raised.
    """
    hairs = [side for side in walk if side[1][0] == "hair"]
    stack: List[Tuple] = []
    previous = None
    for _ in range(len(walk) + 2):
        # a lap pops at most one entry per hair, so deeper ones never matter
        del stack[:-len(hairs) - 1]
        matched: Dict[Tuple, Tuple] = {}
        for side in hairs:
            if stack:
                tv, tg = stack[-1]
                if tg[2] == side[1][2] and (tv[0] == "w") != (side[0][0] == "w"):
                    other = stack.pop()
                    matched[side] = other
                    matched[other] = side
                    continue
            stack.append(side)
        if matched == previous:
            break
        previous = matched
    else:
        raise NonTermination("contour sewing still changes after %d laps"
                             % (len(walk) + 2))
    blues_left = [s for s in hairs if s[0][0] == "m" and s not in matched]
    if blues_left:
        raise MatchingStuck("unmatched midpoint hairs remain: %r" % blues_left[:3])
    return matched


def _hairy_rotations(t: EdgeLabeledTree):
    """Per hairy-tree vertex, the counterclockwise germ list.

    A segment with red label r occupies slot r-1 (cyclically): the red
    names the face just past the segment's chain, so the chain's surviving
    edge sits one slot below.  Around white vertices the slots increase
    counterclockwise, around blue vertices clockwise (measured on duals of
    actual covers).
    """
    d = t.d
    n = 2 * d - 2
    vertices = [("w", w) for w in range(d)] + [("m", i) for i in range(d - 1)]
    slots: Dict[Tuple, Dict[int, Tuple]] = {v: {} for v in vertices + [("root",)]}

    def slot(red):
        return (red - 2) % n + 1

    for i, (wa, wb, blue, ra, rb) in enumerate(t.edges):
        slots[("w", wa)][slot(ra)] = ("seg", i, 0)
        slots[("w", wb)][slot(rb)] = ("seg", i, 1)
        slots[("m", i)][slot(ra)] = ("seg", i, 0)
        slots[("m", i)][slot(rb)] = ("seg", i, 1)
    rot: Dict[Tuple, List[Tuple]] = {}
    for v, filled in slots.items():
        order = range(1, n + 1) if v[0] == "w" else range(n, 0, -1)
        rot[v] = [filled[s] if s in filled else ("hair", v, s) for s in order]
    return rot


def _contour_ccw(t: EdgeLabeledTree, rot) -> List[Tuple[Tuple, Tuple]]:
    """The counterclockwise contour as a list of (vertex, germ) sides."""
    pos = {}
    for v, germs in rot.items():
        for i, g in enumerate(germs):
            pos[(v, g)] = i

    def mate(side):
        v, g = side
        _, i, end = g
        wa, wb, blue, ra, rb = t.edges[i]
        if v[0] == "m":
            w = ("w", wa) if end == 0 else ("w", wb)
            return (w, g)
        return (("m", i), g)

    def rot_next(side):
        v, g = side
        germs = rot[v]
        i = pos[(v, g)]
        return (v, germs[(i + 1) % len(germs)])

    start = (("w", 0), rot[("w", 0)][0])
    out = []
    side = start
    while True:
        out.append(side)
        v, g = side
        if g[0] == "seg":
            side = rot_next(mate(side))
        else:
            side = rot_next(side)
        if side == start:
            break
    # the root floats in the tree's face and is sewn in afterwards
    total = sum(len(germs) for v, germs in rot.items() if v[0] != "root")
    if len(out) != total:
        raise MatchingStuck("contour misses germs (%d of %d)" % (len(out), total))
    return out


def tree_to_graph(t: EdgeLabeledTree) -> FaceLabeledGraph:
    """Inverse of graph_to_tree.

    Hairs grow to valence 2d-2 in the red slots, one pass of the cyclic
    contour walk sews same-slot hairs together under the planar
    (last-in-first-out) discipline, the root lands in the leftover region
    with its 2d-2 hairs, and the 2-gon faces collapse away.
    """
    t.validate()
    rot = _hairy_rotations(t)
    return _sew_hairy_tree(t, rot, _match_hairs(_contour_ccw(t, rot)))


def _sew_hairy_tree(t: EdgeLabeledTree, rot, matched) -> FaceLabeledGraph:
    """Complete a phase-1 matching into the preimage map and collapse it."""
    d = t.d
    n = 2 * d - 2
    matched = dict(matched)
    # phase 2: the root germ of slot s takes the remaining white hair there
    white_hairs = [(v, g) for v, germs in rot.items() for g in germs
                   if g[0] == "hair" and v[0] == "w" and (v, g) not in matched]
    by_slot: Dict[int, List[Tuple]] = {}
    for side in white_hairs:
        by_slot.setdefault(side[1][2], []).append(side)
    for s in range(1, n + 1):
        if len(by_slot.get(s, [])) != 1:
            raise MatchingStuck("slot %d has %d unmatched white hairs"
                                % (s, len(by_slot.get(s, []))))
        other = by_slot[s][0]
        rg = (("root",), ("hair", ("root",), s))
        matched[rg] = other
        matched[other] = rg

    sides = [(v, g) for v, germs in rot.items() for g in germs]
    dart_id = {side: i + 1 for i, side in enumerate(sides)}
    total = len(sides)
    sigma = [0] * (total + 1)
    alpha = [0] * (total + 1)
    for v, germs in rot.items():
        k = len(germs)
        for i, g in enumerate(germs):
            sigma[dart_id[(v, g)]] = dart_id[(v, germs[(i + 1) % k])]
    for i, (wa, wb, blue, ra, rb) in enumerate(t.edges):
        a = dart_id[(("m", i), ("seg", i, 0))]
        b = dart_id[(("w", wa), ("seg", i, 0))]
        alpha[a], alpha[b] = b, a
        a = dart_id[(("m", i), ("seg", i, 1))]
        b = dart_id[(("w", wb), ("seg", i, 1))]
        alpha[a], alpha[b] = b, a
    for side, other in matched.items():
        alpha[dart_id[side]] = dart_id[other]
    full = CombinatorialMap(sigma, alpha)

    vertex_name = {dart_id[(v, g)]: v
                   for v, germs in rot.items() for g in germs}

    # the red of a segment names the face left of its blue-end germ; that
    # face is a quadrilateral of the full preimage and survives collapsing
    red_of_full_face: Dict[int, int] = {}
    for i, (wa, wb, blue, ra, rb) in enumerate(t.edges):
        for end, red in ((0, ra), (1, rb)):
            b = dart_id[(("m", i), ("seg", i, end))]
            ff = full.face_of[b]
            if red_of_full_face.setdefault(ff, red) != red:
                raise MatchingStuck("face receives two red labels")

    m, kept = _collapse_bigons(full)

    name_of_vertex = {v: vertex_name[kept[v - 1]] for v in m.vertex_ids()}
    blue_vs = frozenset(v for v, nm in name_of_vertex.items() if nm[0] != "w")
    blue_labels = []
    for v, nm in name_of_vertex.items():
        if nm[0] == "m":
            blue_labels.append((v, t.edges[nm[1]][2]))
        elif nm[0] == "root":
            blue_labels.append((v, d))

    reds = []
    for orbit in m.faces:
        ff = full.face_of[kept[orbit[0] - 1]]
        r = red_of_full_face.get(ff, 0)
        if r == 0:
            raise MatchingStuck("a face received no red label")
        reds.append(r)
    g = FaceLabeledGraph(m, blue_vs, tuple(reds), tuple(sorted(blue_labels)))
    g.validate()
    return g


def _collapse_bigons(full: CombinatorialMap):
    """Merge the two parallel edges of every 2-gon face.

    Returns the collapsed map and the list of surviving original darts:
    new dart i+1 corresponds to kept[i].

    Which darts survive depends on the order of collapses, so the 2-gon
    with the smallest dart always goes first.  A 2-gon {x, y} has
    sigma^-1(x) = alpha(y) and sigma^-1(y) = alpha(x), so splicing it out
    changes the face successor of alpha(x) and alpha(y) only; any new
    2-gon contains one of them, and both darts of each such face are
    queued again.
    """
    sigma = list(full.sigma)
    alpha = list(full.alpha)
    alive = [False] + [True] * full.n
    work = list(range(1, full.n + 1))
    while work:
        x = heapq.heappop(work)
        if not alive[x]:
            continue
        y = sigma[alpha[x]]
        if y == x or alpha[x] == y or sigma[alpha[y]] != x:
            continue
        # drop darts x and y, pair alpha(x) with alpha(y)
        ax, ay = alpha[x], alpha[y]
        sigma[ay], sigma[ax] = sigma[x], sigma[y]
        alpha[ax], alpha[ay] = ay, ax
        alive[x] = alive[y] = False
        for z in (ax, ay):
            heapq.heappush(work, z)
            heapq.heappush(work, sigma[alpha[z]])

    kept = [x for x in range(1, full.n + 1) if alive[x]]
    new_id = {x: i + 1 for i, x in enumerate(kept)}
    sig2 = [0] * (len(kept) + 1)
    alp2 = [0] * (len(kept) + 1)
    for x in kept:
        sig2[new_id[x]] = new_id[sigma[x]]
        alp2[new_id[x]] = new_id[alpha[x]]
    return CombinatorialMap(sig2, alp2), kept


def verify_counting_chain(d: int) -> dict:
    """|trees| = (2d-2)! d^(d-3) and |classes| = |trees| / d!."""
    from .hurwitz import enumerate_classes
    trees = enumerate_trees(d)
    classes = enumerate_classes(d)
    expected_trees = math.factorial(2 * d - 2) * d ** (d - 3) if d >= 3 else 1
    return {
        "d": d,
        "trees": len(trees),
        "expected_trees": expected_trees,
        "classes": len(classes),
        "trees_over_dfact": len(trees) // math.factorial(d),
        "ok": (len(trees) == expected_trees
               and len(trees) == len(classes) * math.factorial(d)),
    }

"""Constructive realization of balanced maps as branched-cover monodromy.

A balanced diagram is enriched by per-edge counts of 2-valent vertices
until every face has exactly n = 2d-2 boundary vertices.  The vertices
themselves are never built: vertex labels in Z/n are integrated on the
4-valent diagram with a step of count(e) + 1 along each forward dart, and
tau_j is the pair of blue faces (sheets) at the vertex labeled j.  Counts
(edge id -> count) and labels (vertex id -> label) are plain dicts.  The
inverse direction glues d blue and d white n-gons according to a
transposition tuple, directly as the 4-valent diagram with its labels,
which makes realizability checkable with no reference to the balance
conditions.

Any solution of the face equations serves, with no search.  Labels step
up along blue and down along white faces, by n around each face, so they
wind once around it and only vertices sharing no face can tie.  Ranking
the critical vertices by (label, vertex id) keeps the cyclic order of
every face, so counts read off the ranks solve the face equations again
and integrate back to pairwise distinct labels: the constructive
balanced => realizable half of the theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from .balance import check_balance_flow, face_weights, is_balanced, matching_is_valid
from .errors import (
    InvalidMatching,
    InvalidTuple,
    LimitExceeded,
    Mismatch,
    NotBalanced,
)
from .maps import ColoredMap, CombinatorialMap, count_components

Pair = Tuple[int, int]

# enumerate_matchings stops with LimitExceeded past this many solutions
MATCHING_CAP = 100000


# -- transposition tuples --------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TranspositionTuple:
    """(tau_1, ..., tau_n) in S_d with trivial product and transitive
    action; construction raises InvalidTuple otherwise."""
    d: int
    taus: Tuple[Pair, ...]

    @property
    def n(self) -> int:
        return len(self.taus)

    def __post_init__(self) -> None:
        d = self.d
        if d < 2:
            raise InvalidTuple("degree must be at least 2")
        if len(self.taus) != 2 * d - 2:
            raise InvalidTuple("need 2d-2 transpositions")
        for p in self.taus:
            if len(p) != 2 or not (1 <= p[0] <= d and 1 <= p[1] <= d) or p[0] == p[1]:
                raise InvalidTuple("%r is not a transposition of 1..%d" % (p, d))
        prod = list(range(d + 1))  # tau_1 o ... o tau_n, identity iff its inverse is
        for a, b in self.taus:
            prod[a], prod[b] = prod[b], prod[a]
        if prod != list(range(d + 1)):
            raise InvalidTuple("product of the tuple is not the identity")
        if count_components(self.d, self.taus) != 1:
            raise InvalidTuple("tuple does not act transitively")


def _conjugate_flat(taus: Tuple[Pair, ...], g: Tuple[int, ...]) -> Tuple[Pair, ...]:
    """Rename every point x as g[x], keeping each pair sorted."""
    return tuple((g[a], g[b]) if g[a] < g[b] else (g[b], g[a]) for a, b in taus)


# -- enrichment --------------------------------------------------------------------


def enumerate_matchings(cm: ColoredMap) -> Iterator[Dict[int, int]]:
    """All nonnegative integer solutions of the face equations
    corners(F) + inserted(F) = V, in lexicographic order of per-edge counts.
    """
    m = cm.m
    edges = m.edges()
    rem = face_weights(cm)
    if min(rem) < 0 or 2 * sum(rem[f] for f in cm.blue_faces) != sum(rem):
        return
    sides = [m.edge_sides(e) for e in edges]
    k = len(edges)
    last = [0] * m.num_faces  # index of the last edge on each face
    for i, (f1, f2) in enumerate(sides):
        last[f1] = last[f2] = i
    # depth first with an explicit stack: counts[i] is the count tried on
    # edge i (-1 before the first).  A face must be full at its last edge,
    # so all faces are full once every edge has a count.
    counts = [-1] * k
    yielded = 0
    i = 0
    while i >= 0:
        if i == k:
            yielded += 1
            if yielded > MATCHING_CAP:
                raise LimitExceeded("matching enumeration cap exceeded")
            yield {edges[j]: counts[j] for j in range(k) if counts[j]}
            i -= 1
            continue
        f1, f2 = sides[i]
        c = counts[i] + 1
        if c:
            rem[f1] -= 1
            rem[f2] -= 1
        if rem[f1] < 0 or rem[f2] < 0:
            rem[f1] += c
            rem[f2] += c
            counts[i] = -1
            i -= 1
            continue
        counts[i] = c
        if (rem[f1] == 0 or last[f1] > i) and (rem[f2] == 0 or last[f2] > i):
            i += 1


def enrich(cm: ColoredMap, counts: Dict[int, int]) -> Dict[int, int]:
    """A copy of the inserted counts per edge id, which must solve the
    face equations; raises InvalidMatching otherwise."""
    if not matching_is_valid(cm, counts):
        raise InvalidMatching("matching violates a face equation")
    return dict(counts)


def integrate_labels(cm: ColoredMap, counts: Dict[int, int]) -> Dict[int, int]:
    """Integrate the coboundary from the vertex of dart 1, labeled 1: each
    forward dart of edge e steps by count(e) + 1, once per 2-valent vertex
    it passes and once more for its head.  Labels lie in 1..n, n = V.

    Always succeeds on counts that solve the face equations: the steps sum
    to n around every face, so they cancel mod n, and the sphere has no
    other cycles to obstruct.
    """
    m = cm.m
    n = m.num_vertices
    labels = {m.vertex_of[1]: 1}
    stack = list(labels)
    while stack:
        v = stack.pop()
        for x in m.vertex_cycle(v):
            step = counts.get(m.edge_of(x), 0) + 1
            want = (labels[v] - 1 + (step if cm.is_forward(x) else -step)) % n + 1
            w = m.vertex_of[m.alpha[x]]
            if w not in labels:
                labels[w] = want
                stack.append(w)
            elif labels[w] != want:
                raise Mismatch("label conflict at vertex %d (core map bug)" % w)
    return labels


# -- monodromy extraction -----------------------------------------------------------


def monodromy(cm: ColoredMap, labels: Dict[int, int]) -> TranspositionTuple:
    """Extract the transposition tuple of a diagram with pairwise distinct
    critical labels 1..n per vertex, as ranked by realize_generic or glued
    by graph_from_monodromy.

    Sheets are the blue faces in ascending face index, and tau_j is the
    pair of sheets whose blue faces meet at the vertex labeled j: crossing
    that vertex swaps their white neighbours and no others.  So shifting
    every label by k rotates the tuple by k.  The tuple checks itself.
    """
    m = cm.m
    n = m.num_vertices
    sheet = {f: i for i, f in enumerate(sorted(cm.blue_faces), 1)}
    pairs: List[List[int]] = [[] for _ in range(n + 1)]
    for x in range(1, m.n + 1):
        if m.face_of[x] in sheet:
            pairs[labels[m.vertex_of[x]]].append(sheet[m.face_of[x]])
    return TranspositionTuple(len(sheet), tuple(tuple(sorted(p)) for p in pairs[1:]))


# -- gluing a diagram from a tuple ---------------------------------------------------


@dataclass(slots=True)
class Realization:
    """A glued diagram and the critical label of each vertex; the blue dart
    from label j to label j' carries (j' - j - 1) mod n inserted vertices."""
    colored: ColoredMap
    labels: Dict[int, int]  # critical label per vertex


def _bucket_ids(keys: List[int], slots: Sequence[int], first: int, top: int) -> List[int]:
    """Consecutive ids from ``first`` on for ``slots``, grouped by their key
    in 1..top in ascending order and in the order of ``slots`` within a
    key, by one counting pass; indexed by slot."""
    start = [0] * (top + 1)
    for s in slots:
        start[keys[s]] += 1
    for k in range(1, top + 1):
        start[k], first = first, first + start[k]
    ids = [0] * len(keys)
    for s in slots:
        k = keys[s]
        ids[s] = start[k]
        start[k] += 1
    return ids


def _glue(t: TranspositionTuple) -> Tuple[List[int], List[int], List[int]]:
    """Glue d blue and d white n-gons along the sheet pairings of the tuple,
    keeping only the 4-valent corners: the ``sigma`` and ``alpha`` tables,
    and the critical label of each dart's vertex.

    Side j of blue polygon i, from its corner j to corner j+1, is glued to
    side j of white polygon beta_j(i), where beta_0 is the identity and
    beta_j = beta_{j-1} o tau_j.  The corners labeled j of the polygons
    outside tau_j are 2-valent, so blue face i visits the vertices j with
    i in tau_j in increasing j, and two consecutive visits j < j' are one
    edge carrying j' - j - 1 of them (cyclically).  The vertex labeled j
    is blue corner j of both sheets of tau_j = (a, b) and white corner j
    of beta_j(a) and beta_j(b).  The edge from sheet i's visit j ends at
    the white corner of beta_j(i) at i's next visit j', which is the
    white polygon of the other sheet of tau_j'.

    Darts are numbered as the polygon darts at 4-valent corners, blue
    before white, each by (polygon, side).  They live in flat tables over
    the slots 2j (sheet a of tau_j) and 2j + 1 (sheet b), and a counting
    pass per colour numbers them by polygon: blue darts in visit order,
    white ones taking j = 2..n, 1, since white polygon k meets vertex j
    with its side j-1 (side n for j = 1).  The tuple checked itself when
    it was built, so it is glued as given.
    """
    d, n = t.d, t.n
    beta = list(range(d + 1))
    sheet = [0, 0]  # per slot, its sheet
    white = [0, 0]  # per slot, beta_j of its sheet
    for a, b in t.taus:
        beta[a], beta[b] = beta[b], beta[a]
        sheet += (a, b)
        white += (beta[a], beta[b])
    slots = range(2, 2 * n + 2)
    blue = _bucket_ids(sheet, slots, 1, d)
    wid = _bucket_ids(white, [*slots[2:], 2, 3], 2 * n + 1, d)
    sigma = [0] * (4 * n + 1)
    alpha = [0] * (4 * n + 1)
    red = [0] * (4 * n + 1)
    slot = [0] * (2 * n + 2)  # per blue dart, its slot; 0 (no sheet) past the last
    for j in range(1, n + 1):
        s = 2 * j
        xa, ya, xb, yb = blue[s], wid[s], blue[s + 1], wid[s + 1]
        sigma[xa], sigma[ya], sigma[xb], sigma[yb] = ya, xb, yb, xa
        red[xa] = red[ya] = red[xb] = red[yb] = j
        slot[xa], slot[xb] = s, s + 1
    # blue dart x runs to its sheet's next visit, dart x + 1, or from the
    # last visit back to the first, and ends at the white dart of the
    # other slot of that visit
    first = 1
    for x in range(1, 2 * n + 1):
        if sheet[slot[x + 1]] == sheet[slot[x]]:
            nxt = slot[x + 1]
        else:
            nxt, first = slot[first], x + 1
        y = wid[nxt ^ 1]
        alpha[x], alpha[y] = y, x
    return sigma, alpha, red


def graph_from_monodromy(t: TranspositionTuple) -> Realization:
    """The diagram glued from the tuple, its first d faces blue, and each
    vertex's critical label; the map checks itself in full."""
    sigma, alpha, red = _glue(t)
    m = CombinatorialMap(sigma, alpha)
    return Realization(ColoredMap(m, range(t.d)), {v: red[v] for v in m.vertex_ids()})


# -- top-level decision procedures ----------------------------------------------------


def _ranked(cm: ColoredMap, counts: Dict[int, int]) -> Tuple[Dict[int, int], Dict[int, int]]:
    """From a face-equation solution to counts whose critical labels are
    their ranks under (label, vertex id), plus 1.

    A face's corners carry distinct labels that wind once around it, and
    the ranking keeps their cyclic order, so the counts
    (rank(head) - rank(tail) - 1) mod n solve the face equations again,
    which enrich checks (InvalidMatching otherwise).  They are the ranks'
    coboundary mod n, so they integrate back to the ranks.
    """
    labels = integrate_labels(cm, counts)
    order = sorted(labels, key=lambda v: (labels[v], v))
    rank = {v: i for i, v in enumerate(order)}
    m, n = cm.m, cm.m.num_vertices
    counts = {}
    for e in m.edges():
        d = cm.forward_dart(e)
        c = (rank[m.vertex_of[m.alpha[d]]] - rank[m.vertex_of[d]] - 1) % n
        if c:
            counts[e] = c
    return enrich(cm, counts), {v: r + 1 for v, r in rank.items()}


def realize_generic(cm: ColoredMap) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Inserted counts per edge and pairwise distinct critical labels per
    vertex, ranked from the face equations' solution in the balance report;
    raises NotBalanced with the report's witness when there is none.
    """
    report = is_balanced(cm)
    if not report.balanced:
        raise NotBalanced("map is not balanced", report.witness)
    return _ranked(cm, report.counts)


def is_realizable(cm: ColoredMap) -> bool:
    """Whether the diagram is the preimage of a circle under some generic
    branched self-cover of the sphere.

    Fully constructive, with no separate balance condition: rank the
    face-equation solution of one max flow, extract a monodromy tuple,
    reglue, and compare with the input.  Once the face equations are
    solvable the faces are Jordan and equal in number (check_balance_flow,
    points 1 and 2), and the comparison cannot fail: after ranking, tau_j
    is the pair of blue faces at the vertex labeled j, distinct as the
    faces are Jordan.  Each blue face meets its corners in increasing label
    order, with count(e) = j' - j - 1 on the edge between consecutive ones,
    which is exactly how the gluing of the tuple builds that face.

    So the isomorphism is known: the input's dart at the vertex labeled 1
    in the blue face of tau_1's lower sheet goes to the glued vertex
    labeled 1, whose id is that polygon dart.  One breadth-first trace from
    each side and the blue bit of every face, ordered by the trace, compare
    the two in linear time.  A mismatch is a bug, and raises Mismatch
    instead of answering.
    """
    m = cm.m
    ok, counts, _ = check_balance_flow(cm)
    if not ok:
        return False
    labels = _ranked(cm, counts)[1]
    t = monodromy(cm, labels)
    real = graph_from_monodromy(t)
    lower = sorted(cm.blue_faces)[t.taus[0][0] - 1]
    roots = (next(x for x in m.faces[lower] if labels[m.vertex_of[x]] == 1),
             next(v for v, l in real.labels.items() if l == 1))
    codes = []
    for c, root in zip((cm, real.colored), roots):
        trace, order = c.m._bfs_trace(root)
        codes.append(trace + c.face_bits(order))
    if codes[0] != codes[1]:
        raise Mismatch("the ranked tuple reglues to another diagram")
    return True

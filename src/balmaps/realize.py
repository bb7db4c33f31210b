"""Constructive realization of balanced maps as branched-cover monodromy.

A balanced diagram is enriched with 2-valent vertices until every face has
exactly n = 2d-2 boundary vertices, vertex labels in Z/n are integrated
along the derived edge directions, and the monodromy transpositions are
read off the blue/white sheet pairings.  The inverse direction glues d
blue and d white n-gons according to a transposition tuple and recovers
the diagram, which makes realizability checkable with no reference to the
balance conditions.

Any solution of the face equations serves, with no search.  Labels run +1
along blue and -1 along white faces, and an enriched face has n steps, so
its labels wind once around it and only vertices sharing no face can tie.
Ranking the critical vertices by (label, vertex id) keeps the cyclic order
of every face, so counts read off the ranks solve the face equations again
and integrate back to pairwise distinct labels: the constructive
balanced => realizable half of the theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .balance import Matching, is_balanced, matching_is_valid, solve_face_equations
from .errors import (
    InconsistentCocycle,
    InvalidInput,
    InvalidMatching,
    InvalidTuple,
    LimitExceeded,
    NotBalanced,
)
from .maps import ColoredMap, CombinatorialMap, count_components

Pair = Tuple[int, int]

# enumerate_matchings stops with LimitExceeded past this many solutions
MATCHING_CAP = 100000


# -- transposition tuples --------------------------------------------------------


@dataclass(frozen=True)
class TranspositionTuple:
    """(tau_1, ..., tau_n) in S_d with trivial product and transitive action."""
    d: int
    taus: Tuple[Pair, ...]

    @property
    def n(self) -> int:
        return len(self.taus)

    def validate(self) -> None:
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

    def conjugate(self, g: Tuple[int, ...]) -> "TranspositionTuple":
        return TranspositionTuple(self.d, _conjugate_flat(self.taus, g))


def _conjugate_flat(taus: Tuple[Pair, ...], g: Tuple[int, ...]) -> Tuple[Pair, ...]:
    """Rename every point x as g[x], keeping each pair sorted."""
    return tuple((g[a], g[b]) if g[a] < g[b] else (g[b], g[a]) for a, b in taus)


def canonical_tuple(t: TranspositionTuple) -> Tuple[Pair, ...]:
    """Lexicographically least flat encoding over all diagonal conjugations.

    A point met for the first time takes the least unused name: swapping
    any other unused name with that one leaves the earlier pairs alone and
    makes this pair smaller.  Only a pair of two new points leaves a
    choice, which of the two takes the smaller name; the search branches
    there and drops a branch once its prefix exceeds the best encoding
    found.
    """
    best: Optional[List[Pair]] = None
    stack = [([0] * (t.d + 1), [])]  # (name per point, 0 for none yet; encoding so far)
    while stack:
        name, img = stack.pop()
        tied = best is not None
        if tied and img != best[:len(img)]:
            if img > best[:len(img)]:
                continue
            tied = False
        free = max(name) + 1
        for a, b in t.taus[len(img):]:
            if not name[a] and not name[b]:
                alt = name[:]
                alt[a], alt[b] = free + 1, free
                stack.append((alt, img + [(free, free + 1)]))
            for x in (a, b):
                if not name[x]:
                    name[x] = free
                    free += 1
            pair = (name[a], name[b]) if name[a] < name[b] else (name[b], name[a])
            if tied and pair != best[len(img)]:
                if pair > best[len(img)]:
                    break
                tied = False
            img.append(pair)
        else:
            best = img
    return tuple(best)


def tuples_conjugate(a: TranspositionTuple, b: TranspositionTuple) -> bool:
    return a.d == b.d and canonical_tuple(a) == canonical_tuple(b)


# -- enrichment --------------------------------------------------------------------


@dataclass
class EnrichedMap:
    """A colored diagram with 2-valent vertices inserted on its edges.

    ``full`` is the subdivided map; ``full_blue`` its blue face indices;
    ``crit`` the ids of the original 4-valent vertices.
    """
    base: ColoredMap
    counts: Dict[int, int]
    full: CombinatorialMap
    full_blue: frozenset
    crit: frozenset

    @property
    def n(self) -> int:
        return len(self.crit)


@dataclass
class Labeling:
    """Vertex labels in Z/n, increasing by one along every directed edge."""
    labels: Dict[int, int]
    n: int

    def critical(self, em: EnrichedMap) -> Dict[int, int]:
        return {v: self.labels[v] for v in em.crit}

    def shifted(self, offset: int) -> "Labeling":
        return Labeling(
            {v: (l - 1 + offset) % self.n + 1 for v, l in self.labels.items()},
            self.n)


def enumerate_matchings(cm: ColoredMap) -> Iterator[Matching]:
    """All nonnegative integer solutions of the face equations
    corners(F) + inserted(F) = V, in lexicographic order of per-edge counts.
    """
    m = cm.m
    n = m.num_vertices
    edges = m.edges()
    rem = [n - len(orbit) for orbit in m.faces]
    if any(r < 0 for r in rem):
        return
    blue_total = sum(rem[f] for f in cm.blue_faces)
    white_total = sum(rem[f] for f in range(m.num_faces) if f not in cm.blue_faces)
    if blue_total != white_total:
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
            yield Matching({edges[j]: counts[j] for j in range(k) if counts[j]})
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


def enrich(cm: ColoredMap, matching: Matching) -> EnrichedMap:
    """Insert matching.counts[e] 2-valent vertices on each edge e."""
    if not matching_is_valid(cm, matching):
        raise InvalidMatching("matching violates a face equation")
    m = cm.m
    sigma = list(m.sigma)
    alpha = list(m.alpha)
    nxt = m.n
    for e in m.edges():
        k = matching.counts.get(e, 0)
        if k == 0:
            continue
        d, dp = e, m.alpha[e]
        new = list(range(nxt + 1, nxt + 2 * k + 1))
        nxt += 2 * k
        sigma.extend([0] * 2 * k)
        alpha.extend([0] * 2 * k)
        # chain d -(c1)- c2 ... -(ck)- dp; vertex c_i has darts new[2i-2], new[2i-1]
        for i in range(k):
            a, b = new[2 * i], new[2 * i + 1]
            sigma[a], sigma[b] = b, a
        alpha[d] = new[0]
        alpha[new[0]] = d
        for i in range(k - 1):
            alpha[new[2 * i + 1]] = new[2 * i + 2]
            alpha[new[2 * i + 2]] = new[2 * i + 1]
        alpha[new[2 * k - 1]] = dp
        alpha[dp] = new[2 * k - 1]
    full = CombinatorialMap(sigma, alpha)
    full_blue = frozenset(
        i for i, orbit in enumerate(full.faces)
        if m.face_of[next(d for d in orbit if d <= m.n)] in cm.blue_faces)
    crit = frozenset(m.vertex_of[d] for d in range(1, m.n + 1))
    em = EnrichedMap(cm, dict(matching.counts), full, full_blue, crit)
    n = m.num_vertices
    for orbit in full.faces:
        if len(orbit) != n:
            raise InvalidMatching("a face does not have exactly %d boundary vertices" % n)
    return em


def _directed_edges(em: EnrichedMap) -> List[Tuple[int, int, int]]:
    """(forward dart, tail vertex, head vertex) for every edge of the full map."""
    full = em.full
    out = []
    for e in full.edges():
        d = e if full.face_of[e] in em.full_blue else full.alpha[e]
        out.append((d, full.vertex_of[d], full.vertex_of[full.alpha[d]]))
    return out


def integrate_labels(em: EnrichedMap, seed_vertex: Optional[int] = None) -> Labeling:
    """Integrate the +1 coboundary from a seed vertex labeled 1.

    Always succeeds on a valid enrichment: every face has n boundary steps,
    so the increments cancel around every face and the sphere has no other
    cycles to obstruct.
    """
    full = em.full
    n = em.n
    if seed_vertex is None:
        seed_vertex = full.vertex_of[1]
    adj: Dict[int, List[Tuple[int, int]]] = {v: [] for v in full.vertex_ids()}
    for d, tail, head in _directed_edges(em):
        adj[tail].append((head, 1))
        adj[head].append((tail, -1))
    labels = {seed_vertex: 1}
    stack = [seed_vertex]
    while stack:
        v = stack.pop()
        for w, step in adj[v]:
            want = (labels[v] - 1 + step) % n + 1
            if w not in labels:
                labels[w] = want
                stack.append(w)
            elif labels[w] != want:
                raise InconsistentCocycle(
                    "label conflict at vertex %d (core map bug)" % w)
    return Labeling(labels, n)


# -- monodromy extraction -----------------------------------------------------------


def _sheet_bijections(em: EnrichedMap, lab: Labeling):
    """Per label j, the blue-to-white face pairing across arcs from label j
    to label j+1."""
    full = em.full
    n = em.n
    p = [dict() for _ in range(n + 1)]  # p[j]: blue face -> white face
    for d, tail, head in _directed_edges(em):
        j = lab.labels[tail]
        bf, wf = full.face_of[d], full.face_of[full.alpha[d]]
        if bf in p[j] and p[j][bf] != wf:
            raise InvalidInput("blue face crosses arc %d twice" % j)
        p[j][bf] = wf
    blues = sorted(em.full_blue)
    whites = sorted(set(range(full.num_faces)) - em.full_blue)
    for j in range(1, n + 1):
        if set(p[j]) != set(blues) or sorted(p[j].values()) != whites:
            raise InvalidInput("arc %d pairing is not a bijection" % j)
    return p, blues, whites


def monodromy(em: EnrichedMap, lab: Labeling) -> TranspositionTuple:
    """Extract the transposition tuple of a realized enriched diagram.

    Sheets are the blue faces in canonical order; whites are identified
    with blues through the arc between labels n and 1, so the product of
    the extracted transpositions telescopes to the identity.
    """
    crit = lab.critical(em)
    n = em.n
    if sorted(crit.values()) != list(range(1, n + 1)):
        raise InvalidInput("critical labels must be pairwise distinct")
    p, blues, whites = _sheet_bijections(em, lab)
    d = len(blues)
    sheet = {f: i + 1 for i, f in enumerate(blues)}
    whitenum = {p[n][f]: sheet[f] for f in blues}
    # P[j - 1][i - 1]: the sheet paired with blue sheet i across arc j
    P = [[whitenum[p[j][f]] for f in blues] for j in range(1, n + 1)]
    taus = []
    for j in range(n):
        moved = tuple(i + 1 for i in range(d) if P[j][i] != P[j - 1][i])
        if len(moved) != 2:
            raise InvalidInput("arc pairings at label %d are not a transposition" % (j + 1))
        taus.append(moved)
    t = TranspositionTuple(d, tuple(taus))
    t.validate()
    return t


# -- gluing a diagram from a tuple ---------------------------------------------------


@dataclass
class Realization:
    colored: ColoredMap
    enriched: EnrichedMap
    labeling: Labeling
    critical_labels: Dict[int, int]  # keyed by colored-map vertex

    def diagram_labels(self) -> Dict[int, int]:
        return dict(self.critical_labels)


def graph_from_monodromy(t: TranspositionTuple) -> Realization:
    """Glue d blue and d white n-gons along the sheet pairings of the tuple
    and suppress the 2-valent vertices.

    Side j of blue polygon i is glued to side j of white polygon
    beta_j(i), where beta_0 is the identity and beta_j = beta_{j-1} o tau_j.
    """
    t.validate()
    d, n = t.d, t.n
    beta = [list(range(d + 1))]
    for a, b in t.taus:
        prev = beta[-1]
        cur = list(prev)
        cur[a], cur[b] = prev[b], prev[a]
        beta.append(cur)
    if beta[n] != list(range(d + 1)):
        raise InvalidTuple("sheet pairings do not close up")

    def bdart(i, j):
        return (i - 1) * n + j

    def wdart(k, j):
        return d * n + (k - 1) * n + j

    total = 2 * d * n
    alpha = [0] * (total + 1)
    phi = [0] * (total + 1)
    for i in range(1, d + 1):
        for j in range(1, n + 1):
            b = bdart(i, j)
            w = wdart(beta[j][i], j)
            alpha[b], alpha[w] = w, b
            phi[b] = bdart(i, j % n + 1)
            phi[w] = wdart(beta[j][i], (j - 2) % n + 1)
    sigma = [0] * (total + 1)
    for x in range(1, total + 1):
        sigma[x] = phi[alpha[x]]
    full = CombinatorialMap(sigma, alpha)

    labels: Dict[int, int] = {}
    for i in range(1, d + 1):
        for j in range(1, n + 1):
            for dart, lab in ((bdart(i, j), j), (wdart(i, j), j % n + 1)):
                v = full.vertex_of[dart]
                if labels.setdefault(v, lab) != lab:
                    raise InvalidTuple("inconsistent corner labels (gluing bug)")
    full_blue = frozenset(full.face_of[bdart(i, 1)] for i in range(1, d + 1))
    if len(full_blue) != d:
        raise InvalidTuple("blue polygons did not stay distinct")
    cycles = full.vertices()
    crit = frozenset(cyc[0] for cyc in cycles if len(cyc) == 4)
    if len(crit) != n or any(len(cyc) not in (2, 4) for cyc in cycles):
        raise InvalidTuple("glued complex is not a generic diagram")

    reduced, red_blue, counts, keep = _suppress_two_valent(full, full_blue, crit)
    cm = ColoredMap(reduced, red_blue)
    em = EnrichedMap(cm, counts, full, full_blue, crit)
    lab = Labeling(labels, n)
    crit_labels = {v: labels[full.vertex_of[keep[v - 1]]]
                   for v in reduced.vertex_ids()}
    return Realization(cm, em, lab, crit_labels)


def _suppress_two_valent(full: CombinatorialMap, full_blue: frozenset,
                         crit: frozenset):
    """Forget the 2-valent vertices, fusing edge chains.

    Returns the reduced map (darts relabeled 1..4n), its blue face indices,
    and the per-reduced-edge insertion counts.
    """
    keep = sorted(d for d in range(1, full.n + 1) if full.vertex_of[d] in crit)
    new_id = {d: i + 1 for i, d in enumerate(keep)}
    sigma = [0] * (len(keep) + 1)
    alpha = [0] * (len(keep) + 1)
    chain_len: Dict[int, int] = {}
    for dart in keep:
        sigma[new_id[dart]] = new_id[full.sigma[dart]]
        cur = dart
        passed = 0
        while True:
            nxt = full.alpha[cur]
            if full.vertex_of[nxt] in crit:
                alpha[new_id[dart]] = new_id[nxt]
                break
            passed += 1
            cur = full.sigma[nxt]
        chain_len[new_id[dart]] = passed
    reduced = CombinatorialMap(sigma, alpha)
    red_blue = set()
    for i, orbit in enumerate(reduced.faces):
        old = keep[orbit[0] - 1]
        if full.face_of[old] in full_blue:
            red_blue.add(i)
    counts = {}
    for e in reduced.edges():
        if chain_len[e]:
            counts[e] = chain_len[e]
    return reduced, frozenset(red_blue), counts, keep


# -- top-level decision procedures ----------------------------------------------------


def _ranked(cm: ColoredMap, matching: Matching) -> Tuple[EnrichedMap, Labeling]:
    """Enrich by a face-equation solution, then re-enrich so that the
    critical labels become their ranks under (label, vertex id).

    A face's corners carry distinct labels that wind once around it, and
    the ranking keeps their cyclic order, so the counts
    (rank(head) - rank(tail) - 1) mod n solve the face equations again;
    integrating them from the lowest-ranked vertex gives back the ranks.
    Raises InvalidMatching if an enrichment fails.
    """
    em = enrich(cm, matching)
    lab = integrate_labels(em)
    order = sorted(em.crit, key=lambda v: (lab.labels[v], v))
    rank = {v: i for i, v in enumerate(order)}
    m, n = cm.m, em.n
    counts = {}
    for e in m.edges():
        d = cm.forward_dart(e)
        c = (rank[m.vertex_of[m.alpha[d]]] - rank[m.vertex_of[d]] - 1) % n
        if c:
            counts[e] = c
    em = enrich(cm, Matching(counts))
    return em, integrate_labels(em, order[0])


def realize_generic(cm: ColoredMap) -> Tuple[EnrichedMap, Labeling]:
    """Enrichment and labeling with pairwise distinct critical labels,
    ranked from the balance flow's matching.

    Raises NotBalanced, carrying the balance report's witness, when the
    map is not balanced.
    """
    report = is_balanced(cm)
    if not report.balanced:
        raise NotBalanced("map is not balanced", report.witness)
    return _ranked(cm, report.matching)


def is_realizable(cm: ColoredMap) -> bool:
    """Whether the diagram is the preimage of a circle under some generic
    branched self-cover of the sphere.

    Fully constructive and independent of the balance conditions: rank the
    face-equation solution of one max flow, extract a monodromy tuple,
    reglue, and compare with the input.  A realizable diagram is balanced,
    so any solution ranks to distinct labels and reglues.
    """
    m = cm.m
    if m.num_vertices % 2 or m.num_vertices < 2:
        return False
    solved = solve_face_equations(cm)
    if solved is None or solved[0] is None:
        return False
    try:
        t = monodromy(*_ranked(cm, solved[0]))
    except (InvalidMatching, InvalidInput, InvalidTuple):
        return False
    return graph_from_monodromy(t).colored.colored_code() == cm.colored_code()

"""Combinatorial maps on the sphere.

A map is encoded by a pair of permutations of the darts 1..2E: ``sigma``
cycles darts counterclockwise around each vertex, ``alpha`` swaps the two
darts of each edge.  The face permutation is ``phi = sigma o alpha``
(apply ``alpha`` first); each phi-orbit walks a face boundary keeping that
face on the left.

Vertices are identified by the minimal dart of their sigma-cycle, faces by
their index in the list of phi-orbits sorted by minimal dart.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Container, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    AlphaHasFixedPoint,
    AlphaNotInvolution,
    Disconnected,
    InvalidInput,
    InvalidPinch,
    LimitExceeded,
    NonZeroGenus,
    NotFourValent,
)

Perm = Tuple[int, ...]  # 1-based image table, slot 0 unused


def perm_from_cycles(cycles: Iterable[Sequence[int]], n: int) -> Perm:
    """Build a 1-based image table from a list of cycles on 1..n."""
    img = list(range(n + 1))
    seen = [False] * (n + 1)
    for cyc in cycles:
        for i, x in enumerate(cyc):
            if not 1 <= x <= n:
                raise InvalidInput("dart %r out of range 1..%d" % (x, n))
            if seen[x]:
                raise InvalidInput("dart %d appears in two cycles" % x)
            seen[x] = True
            img[x] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


def perm_cycles(perm: Perm) -> List[Tuple[int, ...]]:
    """Cycles of a permutation, each rotated to start at its minimal dart,
    sorted by that dart."""
    n = len(perm) - 1
    seen = [False] * (n + 1)
    out = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = perm[x]
        out.append(tuple(cyc))
    return out


def _check_perm(img: Sequence[int], n: int, name: str) -> Perm:
    if len(img) != n + 1:
        raise InvalidInput("%s image table must have length darts+1" % name)
    hit = [False] * (n + 1)
    for x in img[1:]:
        if not 1 <= x <= n or hit[x]:
            raise InvalidInput("%s is not a permutation of 1..%d" % (name, n))
        hit[x] = True
    return tuple(img)


def find(parent: List[int], x: int) -> int:
    """Class root of x in a union-find table, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def union(parent: List[int], a: int, b: int) -> bool:
    """Merge the classes of a and b under the lesser root, so that every
    class root is its least point; True if they were apart."""
    a, b = find(parent, a), find(parent, b)
    if a == b:
        return False
    if a > b:
        a, b = b, a
    parent[b] = a
    return True


def count_components(n: int, pairs: Iterable[Sequence[int]]) -> int:
    """Connected components of the graph on points 1..n whose edges are
    ``pairs``."""
    parent = list(range(n + 1))
    for a, b in pairs:
        if union(parent, a, b):
            n -= 1
    return n


class CombinatorialMap:
    """An embedded graph on the oriented sphere, as a rotation system."""

    __slots__ = ("n", "sigma", "alpha", "phi", "faces", "face_of",
                 "vertex_of", "_vertices", "_code", "_root", "_order", "_orbits")

    def __init__(self, sigma: Sequence[int], alpha: Sequence[int]):
        n = len(sigma) - 1
        if n < 2 or n % 2:
            raise InvalidInput("dart count must be a positive even integer")
        self.sigma = sigma = _check_perm(sigma, n, "sigma")
        self.alpha = alpha = _check_perm(alpha, n, "alpha")
        for d in range(1, n + 1):
            a = alpha[d]
            if a == d:
                raise AlphaHasFixedPoint("alpha fixes dart %d" % d)
            if alpha[a] != d:
                raise AlphaNotInvolution("alpha is not an involution at dart %d" % d)
        self.n = n
        self.phi = phi = (0, *map(sigma.__getitem__, alpha[1:]))

        self._vertices = vertices = perm_cycles(sigma)
        self.vertex_of = vertex_of = [0] * (n + 1)
        for cyc in vertices:
            v = cyc[0]
            for d in cyc:
                vertex_of[d] = v

        self.faces = faces = perm_cycles(phi)
        self.face_of = face_of = [0] * (n + 1)
        for i, orbit in enumerate(faces):
            for d in orbit:
                face_of[d] = i

        if reached(self, sigma, (1,), ()).count(True) != n:
            raise Disconnected("sigma and alpha do not act transitively")
        if self.num_vertices - self.num_edges + self.num_faces != 2:
            raise NonZeroGenus(
                "V-E+F = %d, not a sphere map"
                % (self.num_vertices - self.num_edges + self.num_faces))

        self._code = None

    # -- basic counts --------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return self.n // 2

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def vertices(self) -> List[Tuple[int, ...]]:
        return list(self._vertices)

    def vertex_ids(self) -> List[int]:
        return [cyc[0] for cyc in self._vertices]

    def vertex_cycle(self, v: int) -> Tuple[int, ...]:
        if not 1 <= v <= self.n or self.vertex_of[v] != v:
            raise InvalidInput("no vertex %d" % v)
        cyc = [v]
        while self.sigma[cyc[-1]] != v:
            cyc.append(self.sigma[cyc[-1]])
        return tuple(cyc)

    def edges(self) -> List[int]:
        """Edge ids: the smaller dart of each alpha-pair, ascending."""
        return [d for d in range(1, self.n + 1) if d < self.alpha[d]]

    def edge_of(self, d: int) -> int:
        return min(d, self.alpha[d])

    def edge_sides(self, e: int) -> Tuple[int, int]:
        """Face indices on the two sides of edge e."""
        return self.face_of[e], self.face_of[self.alpha[e]]

    def is_four_valent(self) -> bool:
        return all(len(c) == 4 for c in self._vertices)

    # -- isomorphism ----------------------------------------------------------

    def _bfs_trace(self, root: int, bound: Optional[List[int]] = None
                   ) -> Optional[Tuple[List[int], List[int]]]:
        """Relabel darts by BFS discovery from ``root``; return (trace, order).

        The trace lists, for each dart in discovery order, the discovery
        labels of its sigma- and alpha-images; ``order`` is the queue, every
        dart in discovery order, so the dart labelled k is ``order[k - 1]``.
        Two rooted maps are isomorphic iff their traces agree.
        Given a ``bound`` trace, return None at the first entry that makes
        the trace larger than it; comparison stops at the first difference.

        The bounded phase compares each dart's two entries with the
        bound's two, as pairs, so that their first difference decides, and
        records nothing: while they tie, the trace is the bound's prefix,
        copied once at a smaller pair (a whole tie returns the bound).  The
        free phase compares nothing.  One iterator over the growing
        discovery order serves both phases.
        """
        sigma, alpha = self.sigma, self.alpha
        lab = [0] * (self.n + 1)
        lab[root] = top = 1
        order = [root]
        darts = iter(order)
        if bound is None:
            trace = []
        else:
            k = 0
            for d in darts:
                nb = sigma[d]
                x = lab[nb]
                if not x:
                    order.append(nb)
                    top += 1
                    x = lab[nb] = top
                nb = alpha[d]
                y = lab[nb]
                if not y:
                    order.append(nb)
                    top += 1
                    y = lab[nb] = top
                b = bound[k]
                if x != b or y != bound[k + 1]:
                    if x > b or x == b and y > bound[k + 1]:
                        return None
                    trace = bound[:k] + [x, y]
                    break
                k += 2
            else:
                return bound, order
        for d in darts:
            nb = sigma[d]
            x = lab[nb]
            if not x:
                order.append(nb)
                top += 1
                x = lab[nb] = top
            nb = alpha[d]
            y = lab[nb]
            if not y:
                order.append(nb)
                top += 1
                y = lab[nb] = top
            trace.append(x)
            trace.append(y)
        return trace, order

    def _least_root(self):
        """The code (the dart count, then the least BFS trace over all
        roots), the least root that gives it, that root's BFS queue, and
        the union-find of the automorphism orbits found (None if no root
        tied).  A root whose trace exceeds the best is dropped at its first
        larger entry; one that ties it gives an automorphism, since one dart
        fixes it, and a root whose orbit holds a smaller dart is skipped:
        each traced tie at least doubles the group."""
        n = self.n
        trace_from = self._bfs_trace
        best = best_order = best_root = parent = None
        for root in range(1, n + 1):
            if parent is not None and parent[root] != root:
                continue
            res = trace_from(root, best)
            if res is None:
                continue
            trace, order = res
            # the trace is not above the best: it beats it unless the kernel
            # handed the best back, which it does for a whole tie
            if trace is not best:
                best, best_order, best_root = trace, order, root
            else:
                # the automorphism takes the k-th dart of best_root's queue
                # to the k-th dart of root's
                if parent is None:
                    parent = list(range(n + 1))
                for a, b in zip(best_order, order):
                    union(parent, a, b)
        return (n,) + tuple(best), best_root, best_order, parent

    def canonical_code(self) -> Tuple[int, ...]:
        """Lexicographically least BFS trace over all root darts.

        Complete invariant: two maps have equal codes iff some dart
        relabeling commutes with both sigma and alpha.  Scanned once, with
        the least root, its queue and the orbits kept."""
        if self._code is None:
            self._code, self._root, self._order, self._orbits = self._least_root()
        return self._code

    def canonical_roots(self) -> List[int]:
        """Roots whose BFS trace equals the canonical code; one per automorphism.

        Every such root ties the least one or is skipped for a smaller one
        in its orbit, so they form the least one's union-find class."""
        self.canonical_code()
        if self._orbits is None:
            return [self._root]
        return [d for d in range(1, self.n + 1) if find(self._orbits, d) == self._root]

    def __eq__(self, other):
        return (isinstance(other, CombinatorialMap)
                and self.sigma == other.sigma and self.alpha == other.alpha)

    def __hash__(self):
        return hash((self.sigma, self.alpha))

    def __repr__(self):
        return "CombinatorialMap(V=%d, E=%d, F=%d)" % (
            self.num_vertices, self.num_edges, self.num_faces)


def build_map(sigma_cycles: Iterable[Sequence[int]],
              alpha_pairs: Iterable[Sequence[int]], darts: int) -> CombinatorialMap:
    """Construct a validated map on darts 1..``darts`` from sigma cycles
    and alpha pairs."""
    cyc = [tuple(c) for c in sigma_cycles]
    pairs = [tuple(p) for p in alpha_pairs]
    for p in pairs:
        if len(p) != 2:
            raise AlphaNotInvolution("alpha must be given as dart pairs")
    sigma = perm_from_cycles(cyc, darts)
    alpha = perm_from_cycles(pairs, darts)
    return CombinatorialMap(sigma, alpha)


def map_of_code(code: Sequence[int]) -> CombinatorialMap:
    """The map a canonical code describes: after the dart count, the code
    lists each canonical dart's sigma and alpha images, the map's tables."""
    return CombinatorialMap((0, *code[1::2]), (0, *code[2::2]))


def isomorphic(a: CombinatorialMap, b: CombinatorialMap) -> bool:
    return a.canonical_code() == b.canonical_code()


# -- cycles and regions -------------------------------------------------------


def directed_cycles(m: CombinatorialMap, forward_darts: Iterable[int]) -> List[Tuple[int, ...]]:
    """All vertex-simple directed cycles when each edge points along its
    dart in ``forward_darts``.  Each cycle is listed from its minimal dart,
    in depth-first order over ascending darts.  Exponential in general;
    iterative, so the recursion limit plays no part."""
    vertex_of, alpha = m.vertex_of, m.alpha
    starts = sorted(forward_darts)
    out: List[List[int]] = [[] for _ in range(m.n + 1)]
    for f in starts:
        out[vertex_of[f]].append(f)
    cycles = []
    for start in starts:
        v0 = vertex_of[start]
        # frames: per vertex the path has entered, its untried out-darts
        path, used, frames = [start], {v0}, []
        while path:
            # path[-1] is new: record the cycle it closes, enter its head or drop it
            head = vertex_of[alpha[path[-1]]]
            if head == v0:
                cycles.append(tuple(path))
            if head in used:
                path.pop()
            else:
                used.add(head)
                frames.append((head, iter(out[head])))
            # extend by the next untried dart, backtracking out of exhausted
            # vertices; darts below the start belong to a cycle counted from there
            while frames:
                for nxt in frames[-1][1]:
                    if nxt > start:
                        break
                else:
                    used.remove(frames.pop()[0])
                    path.pop()
                    continue
                path.append(nxt)
                break
    return cycles


def reached(m: CombinatorialMap, perm: Sequence[int], seeds: Iterable[int],
            cut: Container[int]) -> List[bool]:
    """A flag per dart (slot 0 unused) for the darts a search from
    ``seeds`` reaches, walking the cycles of ``perm`` and crossing alpha at
    every dart not in ``cut``.  With sigma it finds the vertices joined by
    uncut edges; with phi, the faces joined across uncut edges."""
    alpha = m.alpha
    seen = [False] * (m.n + 1)
    stack = list(seeds)
    while stack:
        d = stack.pop()
        while not seen[d]:  # walk d's cycle, stacking each uncut alpha-image
            seen[d] = True
            if d not in cut:
                stack.append(alpha[d])
            d = perm[d]
    return seen


def left_faces(m: CombinatorialMap, darts: Sequence[int]) -> set:
    """Faces reachable from the faces left of ``darts`` without crossing an
    edge that carries one of them: for a directed cycle, its left side."""
    cut = {*darts, *map(m.alpha.__getitem__, darts)}
    return set(compress(m.face_of, reached(m, m.phi, darts, cut)))


# -- colored maps -------------------------------------------------------------


class ColoredMap:
    """A 4-valent sphere map with a chosen blue class of its checkerboard
    coloring.

    Each edge is implicitly directed so that its blue face is on the left:
    the forward dart of an edge is the dart whose face is blue.
    ``check=False`` is only for a colouring known to be valid.
    """

    __slots__ = ("m", "blue_faces", "_colored_code")

    def __init__(self, m: CombinatorialMap, blue_faces: Iterable[int], check: bool = True):
        self.m = m
        self.blue_faces = frozenset(blue_faces)
        self._colored_code = None
        if check:
            if not m.is_four_valent():
                raise NotFourValent("all vertices must have valence 4")
            for f in self.blue_faces:
                if not 0 <= f < m.num_faces:
                    raise InvalidInput("blue face index %r out of range" % (f,))
            blue = [f in self.blue_faces for f in range(m.num_faces)]
            face_of, alpha = m.face_of, m.alpha
            for d in range(1, m.n + 1):
                if blue[face_of[d]] == blue[face_of[alpha[d]]]:
                    raise InvalidInput("blue_faces is not a proper 2-coloring")

    def is_blue(self, face: int) -> bool:
        return face in self.blue_faces

    @property
    def white_faces(self) -> frozenset:
        return frozenset(range(self.m.num_faces)) - self.blue_faces

    def is_forward(self, d: int) -> bool:
        """True if dart d points along its edge's blue-left direction."""
        return self.m.face_of[d] in self.blue_faces

    def forward_dart(self, e: int) -> int:
        return e if self.is_forward(e) else self.m.alpha[e]

    def swapped(self) -> "ColoredMap":
        return ColoredMap(self.m, self.white_faces, check=False)

    def face_bits(self, order: Sequence[int]) -> List[int]:
        """The blue bit of every face, faces in order of first appearance in
        the BFS queue ``order``: a face's least dart label is the queue
        position of its first dart, so this is by least label."""
        blue = self.blue_faces
        return [1 if f in blue else 0
                for f in dict.fromkeys(map(self.m.face_of.__getitem__, order))]

    def swaps_colors(self) -> bool:
        """True if some automorphism of the map takes blue faces to white
        ones.  It keeps or swaps the colour classes as a whole, and the
        canonical roots are one orbit of Aut(m), so iff those roots lie on
        faces of both colours."""
        return len(set(map(self.is_forward, self.m.canonical_roots()))) == 2

    def colored_code(self) -> Tuple[int, ...]:
        """The map's code, then the least blue bits of the faces over its
        canonical roots, with no trace.  The first bit is the root face's,
        so any root on a white face gives the least: the bits read off the
        least root's queue, complemented if its face is blue and an
        automorphism swaps the colours."""
        if self._colored_code is None:
            m = self.m
            code = m.canonical_code()
            bits = self.face_bits(m._order)
            if self.is_forward(m._root) and self.swaps_colors():
                bits = [1 - b for b in bits]
            self._colored_code = code + tuple(bits)
        return self._colored_code

    def __eq__(self, other):
        return (isinstance(other, ColoredMap)
                and self.m == other.m and self.blue_faces == other.blue_faces)

    def __hash__(self):
        return hash((self.m, self.blue_faces))

    def __repr__(self):
        return "ColoredMap(V=%d, blue=%d, white=%d)" % (
            self.m.num_vertices, len(self.blue_faces),
            self.m.num_faces - len(self.blue_faces))


def checkerboard(m: CombinatorialMap) -> Tuple[ColoredMap, ColoredMap]:
    """The two proper face 2-colorings of a 4-valent map.

    The first coloring is the one where face 0 is blue.  A 4-valent sphere
    map has no bridge and even degrees, so its faces are 2-colourable, and
    ColoredMap checks the colouring.
    """
    if not m.is_four_valent():
        raise NotFourValent("checkerboard coloring needs a 4-valent map")
    color = [-1] * m.num_faces
    color[0] = 1
    stack = [0]
    while stack:
        f = stack.pop()
        for d in m.faces[f]:
            g = m.face_of[m.alpha[d]]
            if color[g] == -1:
                color[g] = 1 - color[f]
                stack.append(g)
    blue = frozenset(i for i, c in enumerate(color) if c == 1)
    first = ColoredMap(m, blue)
    return first, first.swapped()


# -- surgery -------------------------------------------------------------------


def rewire(cm: ColoredMap, vertices: Iterable[int], alpha_pairs: Iterable[Tuple[int, int]],
           extra_cycles: Iterable[Sequence[int]] = ()) -> ColoredMap:
    """The map on the darts at ``vertices`` plus one new vertex per extra
    sigma cycle (new darts are numbered above the old range), with every
    pair in ``alpha_pairs`` made an edge and every other dart keeping its
    alpha.  The darts are renumbered in ascending order.

    A face of the result is blue when it holds an old dart of a blue face.
    Corner colors alternate at every kept vertex, so a surgery that merges
    faces of both colors flips some vertices against the rest and fails
    the coloring check.
    """
    m = cm.m
    vertices = set(vertices)
    sig = {d: m.sigma[d] for d in range(1, m.n + 1) if m.vertex_of[d] in vertices}
    for cyc in extra_cycles:
        sig.update(zip(cyc, cyc[1:]))
        sig[cyc[-1]] = cyc[0]
    alp = {}
    for u, v in alpha_pairs:
        alp[u], alp[v] = v, u
    darts = sorted(sig)
    new_id = dict(zip(darts, range(1, len(darts) + 1)))
    sigma = [0] + [new_id[sig[d]] for d in darts]
    alpha = [0] + [new_id[alp[d] if d in alp else m.alpha[d]] for d in darts]
    out = CombinatorialMap(sigma, alpha)
    return ColoredMap(out, {out.face_of[new_id[d]] for d in darts
                            if d <= m.n and m.face_of[d] in cm.blue_faces})


# -- generators ---------------------------------------------------------------


def quadratic() -> CombinatorialMap:
    """Two circles crossing at two points: V=2, E=4, F=4."""
    return build_map([(1, 3, 5, 7), (2, 8, 6, 4)], [(1, 2), (3, 4), (5, 6), (7, 8)], 8)


def octahedron() -> CombinatorialMap:
    """The octahedron map: the 3 x 3 turkshead, a triangle inside a
    triangle with each inner vertex between two outer ones."""
    return turkshead(3)


def turkshead(n: int) -> CombinatorialMap:
    """The 3 x n turkshead: a drum-lacing diagram with 2n crossings.

    Vertices a_1..a_n on an outer circle and b_1..b_n on an inner one;
    edges are the outer arcs a_k-a_{k+1}, inner arcs b_k-b_{k+1} and the
    cords a_k-b_k, b_k-a_{k+1}.  V=2n, E=4n, F=2n+2.  The index is capped
    at 10**5 (about 360 MB) so that a huge n is refused before allocation.
    """
    if n < 1:
        raise InvalidInput("turkshead index must be >= 1")
    if n > 10 ** 5:
        raise LimitExceeded("turkshead index capped at 100000")
    # edge ids: outer_k = k, inner_k = n+k, cordA_k (a_k-b_k) = 2n+k,
    # cordB_k (b_k-a_{k+1}) = 3n+k; edge e runs from dart 2e+1 to dart 2e+2.
    # Each vertex lists its darts counterclockwise.
    rot = []
    for k in range(n):
        p = (k - 1) % n
        rot.append((2 * k + 1, 4 * n + 2 * k + 1, 6 * n + 2 * p + 2, 2 * p + 2))
    for k in range(n):
        p = (k - 1) % n
        rot.append((6 * n + 2 * k + 1, 2 * n + 2 * k + 1, 2 * n + 2 * p + 2, 4 * n + 2 * k + 2))
    return build_map(rot, [(2 * e + 1, 2 * e + 2) for e in range(4 * n)], 8 * n)


def pinch(cm: ColoredMap, dart1: int, dart2: int) -> ColoredMap:
    """Identify two boundary points of one face into a new 4-valent vertex.

    The points are interior points of the (distinct) edges carrying dart1
    and dart2, which must lie on the same face.  Splits that face in two;
    both parts keep the face's color, so that color's count goes up by one.
    """
    m = cm.m
    if not (1 <= dart1 <= m.n and 1 <= dart2 <= m.n):
        raise InvalidPinch("dart out of range")
    if m.face_of[dart1] != m.face_of[dart2]:
        raise InvalidPinch("darts lie on different faces")
    if m.edge_of(dart1) == m.edge_of(dart2):
        raise InvalidPinch("darts lie on the same edge")
    x1, y1, x2, y2 = range(m.n + 1, m.n + 5)
    # new vertex: counterclockwise (x1, y2, x2, y1)
    return rewire(cm, m.vertex_ids(),
                  [(dart1, x1), (m.alpha[dart1], y1), (dart2, x2), (m.alpha[dart2], y2)],
                  [(x1, y2, x2, y1)])


# -- duality -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FaceLabeledGraph:
    """Bipartite sphere map with red-labeled faces, the dual of a realized
    4-valent diagram.

    ``blue_vertices`` are vertex ids (minimal darts); ``face_red`` assigns a
    distinct label in 1..2d-2 to every face; ``blue_labels`` labels the
    blue vertices 1..d.  Construction raises InvalidInput unless all of
    this holds.
    """
    m: CombinatorialMap
    blue_vertices: frozenset
    face_red: Tuple[int, ...]
    blue_labels: Tuple[Tuple[int, int], ...]  # (vertex, label)

    @property
    def d(self) -> int:
        return len(self.blue_vertices)

    def blue_label_map(self) -> Dict[int, int]:
        return dict(self.blue_labels)

    def __post_init__(self) -> None:
        m = self.m
        blues = self.blue_vertices
        for e in m.edges():
            u, v = m.vertex_of[e], m.vertex_of[m.alpha[e]]
            if (u in blues) == (v in blues):
                raise InvalidInput("graph is not bipartite on blue/white vertices")
        d = len(blues)
        if m.num_vertices != 2 * d:
            raise InvalidInput("need equally many blue and white vertices")
        if m.num_faces != 2 * d - 2:
            raise InvalidInput("face count must be 2d-2")
        if sorted(self.face_red) != list(range(1, 2 * d - 1)):
            raise InvalidInput("face labels must be a bijection onto 1..2d-2")
        lab = self.blue_label_map()
        if set(lab) != set(blues) or sorted(lab.values()) != list(range(1, d + 1)):
            raise InvalidInput("blue vertex labels must be a bijection onto 1..d")
        for v in blues:
            if not (1 <= v <= m.n and m.vertex_of[v] == v):
                raise InvalidInput("blue vertex %r is not a vertex id" % (v,))


def dual_bipartite(sigma: Sequence[int], alpha: Sequence[int], red: Sequence[int],
                   blue_darts: Container[int]) -> FaceLabeledGraph:
    """Dual of a realized 4-valent diagram, given by its ``sigma`` and
    ``alpha`` tables: a blue vertex per face of ``blue_darts``, labeled
    1..d in ascending id order, a white per other face, an edge per edge,
    and a face per vertex, red-labeled ``red[x]`` at its darts x.  Only the
    dual is built: its map check is the diagram's with vertices and faces
    swapped, its bipartite check is the diagram's colouring, and labels
    not distinct in 1..V raise InvalidInput.
    """
    # dual on the same darts: sigma* = phi^(-1), alpha* = alpha.  With this
    # chirality the greater-label-left orientation of the dual has unique
    # incoming edges at blue vertices (and unique outgoing at white), which
    # the tree bijection relies on.  Dual faces are the primal vertices;
    # the face left of a dual dart c is the primal vertex of alpha(c).
    phi_inv = [0] * len(sigma)
    for x in range(1, len(sigma)):
        phi_inv[sigma[alpha[x]]] = x
    dual = CombinatorialMap(phi_inv, alpha)
    blue_vs = [v for v in dual.vertex_ids() if v in blue_darts]
    return FaceLabeledGraph(dual, frozenset(blue_vs),
                            tuple(red[alpha[orbit[0]]] for orbit in dual.faces),
                            tuple(zip(blue_vs, range(1, len(blue_vs) + 1))))

"""Cutting diagrams along curves meeting them in 2 or 4 points.

A 2-point cut exists when two edges share both side faces; cutting and
collapsing the wounds fuses the half-edges into regular points.  A 4-point
cut either creates a new 4-valent vertex on each side (odd/odd vertex
split) or, for globally balanced diagrams with an even/even split, seals
each side by merging its majority-color half-faces.  The Murasugi sum
glues two diagrams along rectangles in oppositely colored faces and is the
inverse of the even/even cut.  Iterating the cuts decomposes any diagram
into quadratic and hyperbolic pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Optional, Tuple

from .balance import check_global
from .errors import ColorMismatch, InvalidArc, InvalidRectangle
from .maps import ColoredMap, CombinatorialMap, pinch, reached, rewire


@dataclass(frozen=True, slots=True)
class CutCurve:
    """A combinatorial isotopy class of cut curves.

    For a two-point cut, ``darts`` holds one dart per crossed edge, both
    with the same left face; for a four-point cut it holds the cyclic
    sequence (y1, y2, y3, y4) where y_i crosses edge i and has the face
    entered after that crossing on its left.  Cuts are listed in signature
    order: two-point cuts first, by their two edge ids, then four-point
    cuts, by the least rotation or reversal of their darts.
    """
    kind: str  # "two_point" | "four_point"
    darts: Tuple[int, ...]


def _four_cut_canonical(m: CombinatorialMap, ys: Tuple[int, ...]) -> Tuple[int, ...]:
    rev = (m.alpha[ys[0]], m.alpha[ys[3]], m.alpha[ys[2]], m.alpha[ys[1]])
    return min(t[r:] + t[:r] for t in (ys, rev) for r in range(4))


# -- cut sides and stub fusion ---------------------------------------------------


def _cut_sides(m: CombinatorialMap, ys) -> Optional[Tuple[set, set]]:
    """The sides (X, Y) of the closed curve crossing the darts ``ys``: X
    holds the head and Y the base of every y.  None unless removing the
    crossed edges leaves exactly these two components.  Each side holds
    its seed, so neither is empty.  A two-point cut (a, b) is the curve
    (a, alpha(b))."""
    sigma, alpha = m.sigma, m.alpha
    cut = {*ys, *map(alpha.__getitem__, ys)}
    # a closed face walk whose edges leave two components crosses each one
    # way, from the base's side Y to the head's side X
    x = reached(m, sigma, (alpha[ys[0]],), cut)
    if x[ys[0]]:
        return None
    y = reached(m, sigma, (ys[0],), cut)
    if x.count(True) + y.count(True) != m.n:
        return None
    return set(compress(m.vertex_of, x)), set(compress(m.vertex_of, y))


def _fuse(cm: ColoredMap, ys, X: set, Y: set, x_arcs, y_arcs) -> Tuple[ColoredMap, ColoredMap]:
    """The pieces on the two sides of a cut.  On side X the stubs alpha(y_i)
    and alpha(y_{i+1}) (cyclically) fuse into one edge for each arc i in
    ``x_arcs``; on side Y the stubs y_i and y_{i+1}, for each i in ``y_arcs``."""
    xs = [cm.m.alpha[y] for y in ys]
    k = len(ys)
    return (rewire(cm, X, [(xs[i], xs[(i + 1) % k]) for i in x_arcs]),
            rewire(cm, Y, [(ys[i], ys[(i + 1) % k]) for i in y_arcs]))


# -- 2-point cuts -----------------------------------------------------------------


def _two_cut_candidates(m: CombinatorialMap) -> List[Tuple[int, int]]:
    """Dart pairs (a, b) on distinct edges with the same two side faces,
    both with the same face on their left, in signature order."""
    by_sides: Dict[Tuple[int, int], List[int]] = {}
    for e in m.edges():
        f1, f2 = m.edge_sides(e)
        by_sides.setdefault((min(f1, f2), max(f1, f2)), []).append(e)
    out = []
    for edges in by_sides.values():
        for i, a in enumerate(edges):
            for e2 in edges[i + 1:]:
                out.append((a, e2 if m.face_of[e2] == m.face_of[a] else m.alpha[e2]))
    out.sort(key=lambda ab: (ab[0], m.edge_of(ab[1])))
    return out


def find_two_cuts(cm: ColoredMap) -> List[CutCurve]:
    """All nontrivial curves meeting the diagram in two points, i.e. pairs
    of distinct edges with the same two side faces."""
    m = cm.m
    return [CutCurve("two_point", (a, b)) for a, b in _two_cut_candidates(m)
            if _cut_sides(m, (a, m.alpha[b])) is not None]


# -- 4-point cuts -----------------------------------------------------------------


def _four_cut_candidates(m: CombinatorialMap) -> List[Tuple[int, int, int, int]]:
    """Curves crossing four distinct edges whose heads, and whose bases,
    are not all at one vertex, in signature order.

    A curve is a closed walk F4 -> F1 -> F2 -> F3 -> F4 of faces, listed
    as a quadrangle through ``across[f][g]``, the darts on face f whose
    edge has face g on its other side.  Edges join the buckets in
    decreasing order, so each walk comes out once, from y1, the least of
    its eight darts y_i and alpha(y_i), where its signature starts.
    """
    alpha, face_of, vertex_of = m.alpha, m.face_of, m.vertex_of
    across: List[Dict[int, List[int]]] = [{} for _ in m.faces]
    out = []
    for y1 in range(m.n, 0, -1):
        x1 = alpha[y1]
        if x1 < y1:
            continue
        f4, f1 = face_of[x1], face_of[y1]
        n4 = across[f4]
        for f2 in across[f1]:
            n2 = across[f2]
            # the faces next to both f2 and f4, from the smaller bucket
            for f3 in (n2 if len(n2) <= len(n4) else n4):
                if f3 not in n2 or f3 not in n4:
                    continue
                for y2 in n2[f1]:
                    for y3 in across[f3][f2]:
                        if y3 in (y2, alpha[y2]):
                            continue
                        for y4 in n4[f3]:
                            if y4 in (y2, alpha[y2], y3, alpha[y3]):
                                continue
                            ys = (y1, y2, y3, y4)
                            # four heads (or bases) at one vertex are all of
                            # its darts: that vertex alone is a side
                            if (len({vertex_of[alpha[y]] for y in ys}) > 1
                                    and len({vertex_of[y] for y in ys}) > 1):
                                out.append(ys)
        across[f1].setdefault(f4, []).append(y1)
        across[f4].setdefault(f1, []).append(x1)
    out.sort()
    return out


def find_four_cuts(cm: ColoredMap) -> List[CutCurve]:
    """Nontrivial curves crossing four distinct edges, not encircling a
    single vertex, separating the diagram into two connected sides."""
    m = cm.m
    return [CutCurve("four_point", ys) for ys in _four_cut_candidates(m)
            if _cut_sides(m, ys) is not None]


def _classify(cm: ColoredMap, ys):
    """The sides (X, Y) of a four-point cut and whether both are odd, when a
    surgery applies; otherwise the reason none does.

    A valid curve crosses four distinct edges and leaves the face of y_i
    across y_{i+1}, so that face is also the face of alpha(y_{i+1}).  It
    leaves two sides, neither of them a single vertex.

    Odd/odd sides always split.  Even/even sides split only in a globally
    balanced diagram, along a curve whose four faces are distinct.  Their
    colors alternate anyway: the faces of y_i and y_{i+1} lie on the two
    sides of y_{i+1}'s edge.  A 2-cut piece can have an odd vertex count,
    so mixed-parity curves occur; neither surgery applies to them.
    """
    m = cm.m
    if (len(ys) != 4 or not all(1 <= y <= m.n for y in ys)
            or len({m.edge_of(y) for y in ys}) != 4
            or any(m.face_of[m.alpha[ys[(i + 1) % 4]]] != m.face_of[y]
                   for i, y in enumerate(ys))):
        return "not a valid four-point cut"
    sides = _cut_sides(m, ys)
    if sides is None or min(map(len, sides)) < 2:
        return "not a valid four-point cut"
    X, Y = sides
    odd = len(X) % 2 == 1
    if odd != (len(Y) % 2 == 1):
        return "no surgery applies to mixed-parity sides"
    if not odd:
        if not check_global(cm):
            return "even/even cut needs global balance"
        if len({m.face_of[y] for y in ys}) != 4:
            return "curve visits a face twice"
    return X, Y, odd


def _split_four(cm: ColoredMap, ys, X, Y, odd: bool) -> Tuple[ColoredMap, ColoredMap]:
    m = cm.m
    if odd:
        # each wound becomes a new vertex, the y_i ends fused to its darts;
        # the wound circle keeps X on its left when run against the curve
        zx = range(m.n + 1, m.n + 5)
        zy = range(m.n + 5, m.n + 9)
        px = rewire(cm, X, [(m.alpha[y], z) for y, z in zip(ys, zx)], [zx[::-1]])
        py = rewire(cm, Y, zip(ys, zy), [zy])
        return px, py
    # the side with more interior whites merges its whites, folding the
    # blue arcs (arc i runs through the face of y_i); the other side folds
    # the white arcs
    curve_faces = {m.face_of[y] for y in ys}
    bx = wx = 0
    for f, orbit in enumerate(m.faces):
        if f not in curve_faces and m.vertex_of[orbit[0]] in X:
            if f in cm.blue_faces:
                bx += 1
            else:
                wx += 1
    blue = [i for i, y in enumerate(ys) if cm.is_blue(m.face_of[y])]
    white = [i for i in range(4) if i not in blue]
    return _fuse(cm, ys, X, Y, *((blue, white) if wx > bx else (white, blue)))


# -- Murasugi sum ------------------------------------------------------------------


def murasugi_sum(a: ColoredMap, da1: int, da2: int,
                 b: ColoredMap, db1: int, db2: int) -> ColoredMap:
    """Glue two diagrams along rectangles in oppositely colored faces.

    ``da1, da2`` lie on the boundary of one face of ``a`` (on distinct
    edges), similarly ``db1, db2`` for ``b``; the faces must have opposite
    colors.  The gluing curve is an even/even four-point cut of the result
    and splitting there recovers both summands.
    """
    face_a = a.m.face_of[da1]
    face_b = b.m.face_of[db1]
    if a.m.face_of[da2] != face_a or b.m.face_of[db2] != face_b:
        raise InvalidRectangle("rectangle corners must lie on one face")
    if a.m.edge_of(da1) == a.m.edge_of(da2) or b.m.edge_of(db1) == b.m.edge_of(db2):
        raise InvalidRectangle("rectangle sides must sit on distinct edges")
    a_blue = face_a in a.blue_faces
    b_blue = face_b in b.blue_faces
    if a_blue == b_blue:
        raise ColorMismatch("rectangles must sit in oppositely colored faces")
    if a_blue:
        # normalize: the white-face diagram first
        return murasugi_sum(b, db1, db2, a, da1, da2)

    # b's darts follow a's, and the rectangle's four sides cross over
    ma, mb = a.m, b.m
    off = ma.n
    alpha = list(ma.alpha + tuple(off + x for x in mb.alpha[1:]))
    for x, y in ((da1, off + db2), (ma.alpha[da1], off + mb.alpha[db1]),
                 (da2, off + db1), (ma.alpha[da2], off + mb.alpha[db2])):
        alpha[x], alpha[y] = y, x
    m = CombinatorialMap(ma.sigma + tuple(off + x for x in mb.sigma[1:]), alpha)
    blue = {m.face_of[x] for x in range(1, off + 1) if ma.face_of[x] in a.blue_faces}
    blue.update(m.face_of[off + x] for x in range(1, mb.n + 1)
                if mb.face_of[x] in b.blue_faces)
    return ColoredMap(m, blue)


def gluing_curve(a: ColoredMap, b: ColoredMap, summed: ColoredMap,
                 da1: int, da2: int, db1: int, db2: int) -> CutCurve:
    """The even/even cut of a Murasugi sum that undoes it."""
    if a.m.face_of[da1] in a.blue_faces:
        a, b = b, a
        da1, da2, db1, db2 = db1, db2, da1, da2
    off = a.m.n
    ys = (off + db2, off + b.m.alpha[db1], off + db1, off + b.m.alpha[db2])
    return CutCurve("four_point", _four_cut_canonical(summed.m, ys))


# -- arc collapse ------------------------------------------------------------------


def collapse_arc(cm: ColoredMap, dart1: int, dart2: int) -> ColoredMap:
    """Collapse an arc across a face between the first and third of three
    consecutive boundary edges, creating a new 4-valent vertex."""
    m = cm.m
    if m.phi[m.phi[dart1]] != dart2:
        raise InvalidArc("darts must be the first and third of three "
                         "consecutive boundary edges")
    if m.edge_of(dart1) == m.edge_of(dart2):
        raise InvalidArc("arc ends must sit on distinct edges")
    return pinch(cm, dart1, dart2)


# -- full decomposition ------------------------------------------------------------


@dataclass(slots=True)
class DecompositionTree:
    map: ColoredMap
    cut: Optional[CutCurve] = None
    pieces: Optional[Tuple["DecompositionTree", "DecompositionTree"]] = None
    kind: Optional[str] = None  # for leaves: "quadratic" | "hyperbolic"

    def leaves(self) -> List["DecompositionTree"]:
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            if node.pieces is None:
                out.append(node)
            else:
                stack += reversed(node.pieces)
        return out

    def to_dict(self) -> dict:
        root: dict = {}
        stack = [(self, root)]
        while stack:
            node, out = stack.pop()
            if node.pieces is None:
                out["kind"] = node.kind
                out["code"] = list(node.map.m.canonical_code())
            else:
                out["cut"] = [node.cut.kind, list(node.cut.darts)]
                out["pieces"] = [{}, {}]
                stack += zip(node.pieces, out["pieces"])
        return root


def _first_split(cm: ColoredMap) -> Optional[Tuple[CutCurve, Tuple[ColoredMap, ColoredMap]]]:
    """The lowest-signature cut that applies, 2-point first, with its
    pieces; None for a leaf.  Candidates are flooded in signature order,
    each once, up to the first that applies."""
    m = cm.m
    for a, b in _two_cut_candidates(m):
        ys = (a, m.alpha[b])
        sides = _cut_sides(m, ys)
        if sides is not None:
            return CutCurve("two_point", (a, b)), _fuse(cm, ys, *sides, [0], [0])
    if m.num_vertices < 4:
        return None  # a four-point cut needs two vertices on each side
    for ys in _four_cut_candidates(m):
        verdict = _classify(cm, ys)
        if not isinstance(verdict, str):
            return CutCurve("four_point", ys), _split_four(cm, ys, *verdict)
    return None


def decompose_full(cm: ColoredMap) -> DecompositionTree:
    """Greedily apply the lowest-signature cut (2-point first, then
    4-point) until only quadratic and hyperbolic pieces remain.

    The pieces wait on an explicit stack, so the tree's depth does not
    meet the recursion limit.
    """
    root = DecompositionTree(cm)
    stack = [root]
    while stack:
        node = stack.pop()
        split = _first_split(node.map)
        if split is None:
            # the quadratic is the only 2-vertex map with no 2-cut
            node.kind = "quadratic" if node.map.m.num_vertices == 2 else "hyperbolic"
            continue
        node.cut, (p1, p2) = split
        node.pieces = (DecompositionTree(p1), DecompositionTree(p2))
        stack += reversed(node.pieces)
    return root

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
from typing import Dict, List, Optional, Tuple

from .balance import check_global
from .errors import (
    ColorMismatch,
    InvalidArc,
    InvalidRectangle,
    NotApplicable,
    TrivialCut,
)
from .maps import ColoredMap, CombinatorialMap, pinch, quadratic


@dataclass(frozen=True)
class CutCurve:
    """A combinatorial isotopy class of cut curves.

    For a two-point cut, ``darts`` holds one dart per crossed edge, both
    with the same left face; for a four-point cut it holds the cyclic
    sequence (y1, y2, y3, y4) where y_i crosses edge i and has the face
    entered after that crossing on its left.
    """
    kind: str  # "two_point" | "four_point"
    darts: Tuple[int, ...]

    def edges(self, m: CombinatorialMap) -> Tuple[int, ...]:
        return tuple(m.edge_of(d) for d in self.darts)

    def signature(self, m: CombinatorialMap) -> Tuple:
        if self.kind == "two_point":
            return (0,) + tuple(sorted(self.edges(m)))
        return (1,) + _four_cut_canonical(m, self.darts)


def _four_cut_canonical(m: CombinatorialMap, ys: Tuple[int, ...]) -> Tuple[int, ...]:
    cands = []
    for r in range(4):
        rot = ys[r:] + ys[:r]
        cands.append(rot)
    rev = (m.alpha[ys[0]], m.alpha[ys[3]], m.alpha[ys[2]], m.alpha[ys[1]])
    for r in range(4):
        cands.append(rev[r:] + rev[:r])
    return min(cands)


# -- 2-point cuts -----------------------------------------------------------------


def find_two_cuts(cm: ColoredMap) -> List[CutCurve]:
    """All nontrivial curves meeting the diagram in two points, i.e. pairs
    of distinct edges with the same two side faces."""
    m = cm.m
    by_sides: Dict[Tuple[int, int], List[int]] = {}
    for e in m.edges():
        f1, f2 = m.edge_sides(e)
        by_sides.setdefault((min(f1, f2), max(f1, f2)), []).append(e)
    out = []
    for sides, edges in sorted(by_sides.items()):
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                e1, e2 = edges[i], edges[j]
                a = e1
                b = e2 if m.face_of[e2] == m.face_of[a] else m.alpha[e2]
                comps = _side_components(m, [e1, e2])
                if len(comps) == 2 and all(comps):
                    out.append(CutCurve("two_point", (a, b)))
    out.sort(key=lambda c: c.signature(m))
    return out


def _side_components(m: CombinatorialMap, cut_edges) -> List[set]:
    cut = set(cut_edges)
    seen = set()
    comps = []
    for v0 in m.vertex_ids():
        if v0 in seen:
            continue
        comp = {v0}
        stack = [v0]
        seen.add(v0)
        while stack:
            v = stack.pop()
            for d in m.vertex_cycle(v):
                if m.edge_of(d) in cut:
                    continue
                w = m.vertex_of[m.alpha[d]]
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def _piece(cm: ColoredMap, vertices: set,
           alpha_overrides: Dict[int, int],
           extra_cycles: List[List[int]] = ()) -> ColoredMap:
    """Restrict a colored map to a vertex set, rewiring alpha per the
    overrides; extra sigma cycles introduce new vertices (their darts use
    ids above the old dart range)."""
    m = cm.m
    darts = [d for d in range(1, m.n + 1) if m.vertex_of[d] in vertices]
    for cyc in extra_cycles:
        darts.extend(cyc)
    darts.sort()
    new_id = {d: i + 1 for i, d in enumerate(darts)}
    sigma = [0] * (len(darts) + 1)
    alpha = [0] * (len(darts) + 1)
    extra = {d for cyc in extra_cycles for d in cyc}
    for cyc in extra_cycles:
        k = len(cyc)
        for i, d in enumerate(cyc):
            sigma[new_id[d]] = new_id[cyc[(i + 1) % k]]
    for d in darts:
        if d in extra:
            continue
        sigma[new_id[d]] = new_id[m.sigma[d]]
    pairing = dict(alpha_overrides)
    for d in darts:
        if d in pairing:
            alpha[new_id[d]] = new_id[pairing[d]]
        elif d not in extra:
            alpha[new_id[d]] = new_id[m.alpha[d]]
    piece = CombinatorialMap(sigma, alpha)
    blue = set()
    for i, orbit in enumerate(piece.faces):
        old = next((darts[x - 1] for x in orbit if darts[x - 1] <= m.n
                    and darts[x - 1] not in extra), None)
        if old is not None and m.face_of[old] in cm.blue_faces:
            blue.add(i)
    return ColoredMap(piece, blue)


def split_two_cut(cm: ColoredMap, cut: CutCurve) -> Tuple[ColoredMap, ColoredMap]:
    """Cut along a two-point curve; on each side the two half-edges fuse
    into one edge through a regular point."""
    m = cm.m
    a, b = cut.darts
    if m.edge_of(a) == m.edge_of(b):
        raise TrivialCut("both intersection points on one edge")
    comps = _side_components(m, [m.edge_of(a), m.edge_of(b)])
    if len(comps) != 2:
        raise TrivialCut("curve does not separate the diagram")
    X = next(c for c in comps if m.vertex_of[m.alpha[a]] in c)
    Y = next(c for c in comps if c is not X)
    if m.vertex_of[b] not in X or m.vertex_of[a] not in Y:
        raise TrivialCut("cut ends do not separate coherently")
    ap, bp = m.alpha[a], m.alpha[b]
    px = _piece(cm, X, {ap: b, b: ap})
    py = _piece(cm, Y, {a: bp, bp: a})
    return px, py


# -- 4-point cuts -----------------------------------------------------------------


def find_four_cuts(cm: ColoredMap) -> List[CutCurve]:
    """Nontrivial curves crossing four distinct edges, not encircling a
    single vertex, separating the diagram into two connected sides."""
    m = cm.m
    seen = set()
    out = []
    for y1 in range(1, m.n + 1):
        f1 = m.face_of[y1]
        for a2 in m.faces[f1]:
            y2 = m.alpha[a2]
            for a3 in m.faces[m.face_of[y2]]:
                y3 = m.alpha[a3]
                for a4 in m.faces[m.face_of[y3]]:
                    y4 = m.alpha[a4]
                    if m.face_of[m.alpha[y1]] != m.face_of[y4]:
                        continue
                    ys = (y1, y2, y3, y4)
                    edges = tuple(m.edge_of(d) for d in ys)
                    if len(set(edges)) != 4:
                        continue
                    sig = _four_cut_canonical(m, ys)
                    if sig in seen:
                        continue
                    seen.add(sig)
                    if _four_cut_sides(cm, ys) is not None:
                        out.append(CutCurve("four_point", sig))
    out.sort(key=lambda c: c.signature(m))
    return out


def _four_cut_sides(cm: ColoredMap, ys) -> Optional[Tuple[set, set]]:
    m = cm.m
    comps = _side_components(m, [m.edge_of(d) for d in ys])
    if len(comps) != 2:
        return None
    X = next(c for c in comps if m.vertex_of[m.alpha[ys[0]]] in c)
    Y = next(c for c in comps if c is not X)
    for y in ys:
        if m.vertex_of[m.alpha[y]] not in X or m.vertex_of[y] not in Y:
            return None
    if len(X) < 2 or len(Y) < 2:
        return None  # the curve goes around a single vertex
    return X, Y


def split_four_cut(cm: ColoredMap, cut: CutCurve) -> Tuple[ColoredMap, ColoredMap]:
    """Split along a four-point curve.

    Odd/odd vertex counts: each wound collapses to a new 4-valent vertex.
    Even/even (requires global balance): each side seals by folding the
    arcs of its minority color, fusing the corresponding half-edges.
    """
    m = cm.m
    ys = cut.darts
    sides = _four_cut_sides(cm, ys)
    if sides is None:
        raise NotApplicable("not a valid four-point cut")
    X, Y = sides
    if len(X) % 2 == 1 and len(Y) % 2 == 1:
        return _split_odd(cm, ys, X, Y)
    if len(X) % 2 == 0 and len(Y) % 2 == 0:
        if not check_global(cm):
            raise NotApplicable("even/even cut needs global balance")
        return _split_even(cm, ys, X, Y)
    raise NotApplicable("no surgery applies to mixed-parity sides")


def _split_odd(cm: ColoredMap, ys, X, Y) -> Tuple[ColoredMap, ColoredMap]:
    m = cm.m
    base = m.n
    zx = [base + 1, base + 2, base + 3, base + 4]
    zy = [base + 5, base + 6, base + 7, base + 8]
    over_x = {}
    over_y = {}
    for i, y in enumerate(ys):
        over_x[m.alpha[y]] = zx[i]
        over_x[zx[i]] = m.alpha[y]
        over_y[y] = zy[i]
        over_y[zy[i]] = y
    # the wound circle keeps X on its left when run against the curve
    px = _piece(cm, X, over_x, extra_cycles=[[zx[3], zx[2], zx[1], zx[0]]])
    py = _piece(cm, Y, over_y, extra_cycles=[[zy[0], zy[1], zy[2], zy[3]]])
    return px, py


def _split_even(cm: ColoredMap, ys, X, Y) -> Tuple[ColoredMap, ColoredMap]:
    m = cm.m
    arc_blue = [cm.is_blue(m.face_of[y]) for y in ys]  # color of F_{i,i+1}
    if arc_blue.count(True) != 2:
        raise NotApplicable("cut faces do not alternate in color")
    interior = {f: None for f in range(m.num_faces)}
    bx = wx = 0
    curve_faces = {m.face_of[y] for y in ys}
    if len(curve_faces) != 4:
        raise NotApplicable("curve visits a face twice")
    for i, orbit in enumerate(m.faces):
        if i in curve_faces:
            continue
        inside_x = m.vertex_of[orbit[0]] in X
        if inside_x:
            if i in cm.blue_faces:
                bx += 1
            else:
                wx += 1
    # the side with more interior whites merges its whites, folding the
    # blue arcs; fusion pairs stubs across arcs of the folded color
    def overrides(side_darts, fold_blue):
        over = {}
        for i in range(4):
            if arc_blue[i] == fold_blue:
                d1, d2 = side_darts[i], side_darts[(i + 1) % 4]
                over[d1] = d2
                over[d2] = d1
        return over

    x_darts = [m.alpha[y] for y in ys]
    y_darts = list(ys)
    if wx > bx:
        over_x = overrides(x_darts, True)
        over_y = overrides(y_darts, False)
    else:
        over_x = overrides(x_darts, False)
        over_y = overrides(y_darts, True)
    px = _piece(cm, X, over_x)
    py = _piece(cm, Y, over_y)
    return px, py


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

    ma, mb = a.m, b.m
    off = ma.n
    sigma = list(ma.sigma) + [0] * mb.n
    alpha = list(ma.alpha) + [0] * mb.n
    for d_ in range(1, mb.n + 1):
        sigma[off + d_] = off + mb.sigma[d_]
        alpha[off + d_] = off + mb.alpha[d_]

    a1p, a2p = ma.alpha[da1], ma.alpha[da2]
    b1p, b2p = mb.alpha[db1], mb.alpha[db2]
    pairs = [(da1, off + db2), (a1p, off + b1p),
             (da2, off + db1), (a2p, off + b2p)]
    for u, v in pairs:
        alpha[u], alpha[v] = v, u
    glued = CombinatorialMap(sigma, alpha)
    blue = set()
    for i, orbit in enumerate(glued.faces):
        d0 = orbit[0]
        if d0 <= off:
            if ma.face_of[d0] in a.blue_faces:
                blue.add(i)
        else:
            if mb.face_of[d0 - off] in b.blue_faces:
                blue.add(i)
    return ColoredMap(glued, blue)


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


@dataclass
class DecompositionTree:
    map: ColoredMap
    cut: Optional[CutCurve] = None
    pieces: Optional[Tuple["DecompositionTree", "DecompositionTree"]] = None
    kind: Optional[str] = None  # for leaves: "quadratic" | "hyperbolic"

    def leaves(self) -> List["DecompositionTree"]:
        if self.pieces is None:
            return [self]
        return self.pieces[0].leaves() + self.pieces[1].leaves()

    def to_dict(self) -> dict:
        if self.pieces is None:
            return {"kind": self.kind,
                    "code": list(self.map.m.canonical_code())}
        return {"cut": [self.cut.kind, list(self.cut.darts)],
                "pieces": [p.to_dict() for p in self.pieces]}


_QUADRATIC_CODE = None


def _is_quadratic(cm: ColoredMap) -> bool:
    global _QUADRATIC_CODE
    if _QUADRATIC_CODE is None:
        _QUADRATIC_CODE = quadratic().canonical_code()
    return cm.m.canonical_code() == _QUADRATIC_CODE


def applicable_four_cuts(cm: ColoredMap) -> List[CutCurve]:
    """Four-point cuts whose split applies (odd/odd always; even/even only
    under global balance)."""
    m = cm.m
    out = []
    for cut in find_four_cuts(cm):
        sides = _four_cut_sides(cm, cut.darts)
        if sides is None:
            continue
        X, Y = sides
        if len(X) % 2 == 1 and len(Y) % 2 == 1:
            out.append(cut)
        elif len(X) % 2 == 0 and len(Y) % 2 == 0:
            if not check_global(cm):
                continue
            arc_blue = [cm.is_blue(m.face_of[y]) for y in cut.darts]
            if arc_blue.count(True) == 2 and len({m.face_of[y] for y in cut.darts}) == 4:
                out.append(cut)
        # a 2-cut piece can have odd vertex count, making mixed-parity
        # 4-point curves possible; neither surgery applies to those
    return out


def decompose_full(cm: ColoredMap) -> DecompositionTree:
    """Greedily apply the lowest-signature cut (2-point first, then
    4-point) until only quadratic and hyperbolic pieces remain."""
    two = find_two_cuts(cm)
    if two:
        cut = two[0]
        p1, p2 = split_two_cut(cm, cut)
        return DecompositionTree(cm, cut, (decompose_full(p1), decompose_full(p2)))
    four = applicable_four_cuts(cm)
    if four:
        cut = four[0]
        p1, p2 = split_four_cut(cm, cut)
        return DecompositionTree(cm, cut, (decompose_full(p1), decompose_full(p2)))
    kind = "quadratic" if _is_quadratic(cm) else "hyperbolic"
    return DecompositionTree(cm, kind=kind)

"""Deciding whether an oriented 4-valent sphere map is balanced.

Three conditions: every face is a Jordan domain, the two color classes
have equally many faces, and every directed simple cycle that keeps blue
faces on its left sees strictly more blue than white faces on its left
side.  The face equations corners(F) + inserted(F) = V, solved as one max
flow from the blue faces to the white ones, decide all three at once: a
face with more corners than V, or unequal face counts, leaves them
unsolvable, and a solution integrates to labels that no non-Jordan face
could carry.  is_balanced still checks the first two, to name the one
that fails and give its witness without running the flow.  The solution
is a plain dict of inserted counts per edge; exhaustive cycle enumeration
is kept as an independent oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Tuple

from .errors import LimitExceeded, Mismatch, PreconditionFailed
from .maps import ColoredMap, directed_cycles, left_faces

# the curve oracle is exponential in the vertex count
CURVE_ORACLE_MAX_VERTICES = 10


@dataclass(slots=True)
class BalanceReport:
    jordan_ok: bool
    global_ok: bool
    local_ok: Optional[bool]  # None when gated off by an earlier failure
    witness: Optional[dict]  # None when balanced
    counts: Optional[Dict[int, int]]  # the flow's face-equation solution, if it ran and filled

    @property
    def balanced(self) -> bool:
        return bool(self.jordan_ok and self.global_ok and self.local_ok)

    def to_dict(self) -> dict:
        out = {"jordan": self.jordan_ok, "global": self.global_ok,
               "local": self.local_ok, "balanced": self.balanced}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def face_weights(cm: ColoredMap) -> List[int]:
    """w(F) = V - corners(F) for every face."""
    n = cm.m.num_vertices
    return [n - len(orbit) for orbit in cm.m.faces]


def check_jordan(cm: ColoredMap) -> Tuple[bool, Optional[dict]]:
    """A face is a Jordan domain iff its boundary walk meets no vertex twice."""
    m = cm.m
    for i, orbit in enumerate(m.faces):
        seen = set()
        for d in orbit:
            v = m.vertex_of[d]
            if v in seen:
                return False, {"face": i, "vertex": v}
            seen.add(v)
    return True, None


def check_global(cm: ColoredMap) -> bool:
    """Equal face counts: #blue = #white = V/2 + 1."""
    return 2 * len(cm.blue_faces) == cm.m.num_faces


# -- curve oracle ---------------------------------------------------------------


def enumerate_blue_left_curves(cm: ColoredMap):
    """All vertex-simple directed cycles following the blue-left edge
    directions, each with the blue/white face counts of its left side.

    Returns a list of (darts, B, W).  Exponential; guarded by a vertex cap.
    """
    m = cm.m
    if m.num_vertices > CURVE_ORACLE_MAX_VERTICES:
        raise LimitExceeded("curve oracle capped at %d vertices" % CURVE_ORACLE_MAX_VERTICES)
    forward = [cm.forward_dart(e) for e in m.edges()]
    return [(darts,) + curve_left_counts(cm, darts)
            for darts in directed_cycles(m, forward)]


def curve_left_counts(cm: ColoredMap, darts: Tuple[int, ...]) -> Tuple[int, int]:
    """Blue/white face counts in the open disk left of a directed cycle.

    Each side is grown from the faces next to the curve, crossing only
    edges the curve does not use; the two sides must partition the faces.
    """
    m = cm.m
    left = left_faces(m, darts)
    right = left_faces(m, [m.alpha[d] for d in darts])
    if left & right or len(left) + len(right) != m.num_faces:
        raise Mismatch("curve does not separate the sphere")
    B = sum(1 for f in left if f in cm.blue_faces)
    W = len(left) - B
    return B, W


def check_local_curves(cm: ColoredMap):
    """Local balance via the exhaustive curve oracle."""
    for darts, B, W in enumerate_blue_left_curves(cm):
        if B <= W:
            return False, {"curve": list(darts), "blue_left": B, "white_left": W}
    return True, None


# -- max-flow formulation --------------------------------------------------------


def check_balance_flow(cm: ColoredMap) -> Tuple[bool, Optional[Dict[int, int]], Optional[dict]]:
    """Whether the map is balanced, decided by one max flow on the face
    equations corners(F) + inserted(F) = V, as (ok, counts, info).

    Blue faces supply w(F) = V - corners(F), white faces demand as much,
    and each edge carries any amount from its blue side to its white side.
    The flow needs no other check, for any colouring:

    1. Equal weights <=> equal face counts.  Every vertex has two blue and
       two white corners, so both colours have 2V corners in all, and the
       blue and white weights agree exactly when the face counts do.
    2. Solvable face equations => every face is Jordan.  Labels integrated
       from a solution step by count(e) + 1 >= 1 around a face's corners
       and by V in all, so they are pairwise distinct on one face; a vertex
       met twice would carry two labels.
    3. Under those two, the equations are solvable iff the map is locally
       balanced, which the curve oracle audits.

    When a face has more corners than V or the weights differ, nothing
    solves the equations: not ok, with no counts and no info.  Otherwise
    the equations are solvable iff the flow fills the whole blue supply;
    then each blue-white pair's flow goes to its least shared edge.

    Augmenting paths are shortest (Edmonds-Karp), found by breadth-first
    search on the face indices: from the blue faces with supply left, in
    ascending order, to their white neighbours in ascending order, and from
    a white face back to a blue one only along positive flow, until a white
    face with demand left is reached.  On failure the counts are None and
    ``info`` holds the faces the last search reached, a Hall violator: the
    blue ones outweigh their white neighbours, all of which it reached, as
    a blue-to-white step is never blocked.
    """
    m = cm.m
    w = face_weights(cm)
    blue = cm.blue_faces
    total = sum(w[f] for f in blue)
    if min(w) < 0 or total != sum(w) - total:
        return False, None, None
    shared: Dict[Tuple[int, int], int] = {}  # (blue, white) -> least shared edge
    for e in m.edges():
        f1, f2 = m.edge_sides(e)
        shared.setdefault((f1, f2) if f1 in blue else (f2, f1), e)
    nbrs: List[List[int]] = [[] for _ in w]
    for b, wh in sorted(shared):
        nbrs[b].append(wh)
        nbrs[wh].append(b)
    flow = dict.fromkeys(sorted(shared), 0)
    left = w[:]  # supply left at blue faces, demand left at white ones
    value = 0
    sources = deque(sorted(blue))  # supply only falls: a pointer into sorted(blue)
    while value < total:
        while not left[sources[0]]:
            sources.popleft()
        # the sources with supply left pop first, ascending, before any face they reach
        parent, queue, end = {}, [], None
        for f in chain(filter(left.__getitem__, sources), queue):
            parent.setdefault(f, None)
            for g in nbrs[f]:
                if g in parent or (f not in blue and not flow[g, f]):
                    continue
                parent[g] = f
                if f in blue and left[g]:
                    end = g
                    break
                queue.append(g)
            if end is not None:
                break
        if end is None:
            blues = sorted(f for f in parent if f in blue)
            whites = sorted(f for f in parent if f not in blue)
            return False, None, {"flow_value": value, "capacity": total,
                                 "blue_faces": blues, "white_faces": whites,
                                 "blue_weight": sum(w[f] for f in blues),
                                 "white_weight": sum(w[f] for f in whites)}
        path = [end]  # white, blue, ..., white, blue
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        back = list(zip(path[1::2], path[2::2]))
        aug = min([left[end], left[path[-1]]] + [flow[p] for p in back])
        for p in zip(path[1::2], path[::2]):
            flow[p] += aug
        for p in back:
            flow[p] -= aug
        for f in (end, path[-1]):
            left[f] -= aug
        value += aug
    counts = {shared[p]: f for p, f in flow.items() if f}
    return True, counts, {"flow_value": value, "capacity": total}


def matching_is_valid(cm: ColoredMap, counts: Dict[int, int]) -> bool:
    """Every face equation corners(F) + inserted-on-boundary = V holds for
    the inserted count per edge id."""
    m = cm.m
    return all(c >= 0 for c in counts.values()) and all(
        len(orbit) + sum(counts.get(e, 0) for e in {m.edge_of(d) for d in orbit})
        == m.num_vertices for orbit in m.faces)


def is_balanced(cm: ColoredMap, oracle: str = "flow") -> BalanceReport:
    """Conjunction of the three balance conditions.

    The Jordan and global checks run first and pick the witness of the
    condition that fails; once both hold, ``oracle`` selects how local
    balance is decided: "flow" (default), "curves", or "both" (must agree,
    used for auditing).  ``counts`` holds the flow's solution when it ran
    and the map is balanced.
    """
    if oracle not in ("flow", "curves", "both"):
        raise PreconditionFailed("unknown oracle %r" % oracle)
    jordan, wit = check_jordan(cm)
    if not jordan:
        return BalanceReport(False, check_global(cm), None, wit, None)
    if not check_global(cm):
        blue = len(cm.blue_faces)
        wit = {"blue": blue, "white": cm.m.num_faces - blue}
        return BalanceReport(True, False, None, wit, None)
    counts, verdicts = None, []  # (ok, witness) per oracle asked, the flow's first
    if oracle != "curves":
        ok, counts, info = check_balance_flow(cm)
        verdicts.append((ok, None if ok else info))
    if oracle != "flow":
        verdicts.append(check_local_curves(cm))
    (first, _), (local, wit) = verdicts[0], verdicts[-1]
    if first != local:
        raise Mismatch("flow and curve oracles disagree: flow=%s curves=%s" % (first, local))
    return BalanceReport(True, True, local, wit, counts)

"""Deciding whether an oriented 4-valent sphere map is balanced.

Three conditions: every face is a Jordan domain, the two color classes
have equally many faces, and every directed simple cycle that keeps blue
faces on its left sees strictly more blue than white faces on its left
side.  The local condition is decided by a max-flow computation on the
face adjacency network; exhaustive cycle enumeration is kept as an
independent oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import PreconditionFailed, TooLarge
from .maps import ColoredMap, directed_cycles, left_faces

# the curve oracle is exponential in the vertex count
CURVE_ORACLE_MAX_VERTICES = 10


@dataclass
class Matching:
    """How many 2-valent vertices to insert on each edge (keyed by edge id)."""
    counts: Dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())


@dataclass
class BalanceReport:
    jordan_ok: bool
    global_ok: bool
    local_ok: Optional[bool]  # None when gated off by an earlier failure
    witness: Optional[dict] = None
    matching: Optional[Matching] = None

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
    blue = len(cm.blue_faces)
    white = cm.m.num_faces - blue
    return blue == white


# -- curve oracle ---------------------------------------------------------------


def enumerate_blue_left_curves(cm: ColoredMap):
    """All vertex-simple directed cycles following the blue-left edge
    directions, each with the blue/white face counts of its left side.

    Returns a list of (darts, B, W).  Exponential; guarded by a vertex cap.
    """
    m = cm.m
    if m.num_vertices > CURVE_ORACLE_MAX_VERTICES:
        raise TooLarge("curve oracle capped at %d vertices" % CURVE_ORACLE_MAX_VERTICES)
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
        raise PreconditionFailed("curve does not separate the sphere")
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


class _FlowNet:
    """Tiny deterministic Edmonds-Karp on integer capacities."""

    def __init__(self):
        self.adj: Dict[object, List[object]] = {}
        self.cap: Dict[Tuple[object, object], int] = {}

    def add_edge(self, u, v, c):
        if v not in self.adj.setdefault(u, []):
            self.adj[u].append(v)
        if u not in self.adj.setdefault(v, []):
            self.adj[v].append(u)
        self.cap[(u, v)] = self.cap.get((u, v), 0) + c
        self.cap.setdefault((v, u), 0)

    def max_flow(self, s, t):
        """(value, flow, the source side of a minimum cut: all the last,
        failed search reaches in the residual network)."""
        flow: Dict[Tuple[object, object], int] = {k: 0 for k in self.cap}
        total = 0
        while True:
            parent = {s: None}
            q = deque([s])
            while q and t not in parent:
                u = q.popleft()
                for v in self.adj.get(u, []):
                    if v not in parent and self.cap[(u, v)] - flow[(u, v)] > 0:
                        parent[v] = u
                        q.append(v)
            if t not in parent:
                return total, flow, set(parent)
            # bottleneck along the BFS path
            path = []
            v = t
            while parent[v] is not None:
                path.append((parent[v], v))
                v = parent[v]
            aug = min(self.cap[e] - flow[e] for e in path)
            for e in path:
                flow[e] += aug
                flow[(e[1], e[0])] -= aug
            total += aug


def solve_face_equations(cm: ColoredMap) -> Optional[Tuple[Optional[Matching], dict]]:
    """The face equations corners(F) + inserted(F) = V by one max flow.

    Blue faces supply w(F) = V - corners(F), white faces demand as much,
    and each edge carries any amount from its blue side to its white side.
    None when a face has more corners than V or the blue and white weights
    differ, as then nothing solves them.  Otherwise (matching, info): the
    equations are solvable iff the flow fills the whole blue supply, and
    then each blue-white pair's flow goes to its least shared edge.  On
    failure the matching is None and ``info`` holds the Hall violator on
    the source side of the minimum cut: blue faces outweighing all their
    white neighbours, which lie on that side too because blue-white links
    are never cut.
    """
    m = cm.m
    w = face_weights(cm)
    total_blue = sum(w[f] for f in cm.blue_faces)
    if min(w) < 0 or total_blue != sum(w[f] for f in cm.white_faces):
        return None
    net = _FlowNet()
    for f in sorted(cm.blue_faces):
        net.add_edge("D", ("b", f), w[f])
    for f in sorted(cm.white_faces):
        net.add_edge(("w", f), "A", w[f])
    shared: Dict[Tuple[int, int], List[int]] = {}
    for e in m.edges():
        f1, f2 = m.edge_sides(e)
        b, wh = (f1, f2) if f1 in cm.blue_faces else (f2, f1)
        shared.setdefault((b, wh), []).append(e)
    for b, wh in sorted(shared):
        net.add_edge(("b", b), ("w", wh), total_blue)  # effectively unbounded
    value, flow, source_side = net.max_flow("D", "A")
    info = {"flow_value": value, "capacity": total_blue}
    if value < total_blue:
        blues = sorted(f for kind, f in source_side - {"D"} if kind == "b")
        whites = sorted(f for kind, f in source_side - {"D"} if kind == "w")
        info.update(blue_faces=blues, white_faces=whites,
                    blue_weight=sum(w[f] for f in blues),
                    white_weight=sum(w[f] for f in whites))
        return None, info
    counts: Dict[int, int] = {}
    for (b, wh), edges in sorted(shared.items()):
        f = flow.get((("b", b), ("w", wh)), 0)
        if f > 0:
            counts[min(edges)] = counts.get(min(edges), 0) + f
    return Matching(counts), info


def check_balance_flow(cm: ColoredMap) -> Tuple[bool, Optional[Matching], dict]:
    """Local balance via max flow: balanced iff solve_face_equations
    solves the face equations.  Under the preconditions it never returns
    None: a Jordan face has at most V corners, and equal face counts give
    equal weights, as every vertex has two corners of each color."""
    jordan, wit = check_jordan(cm)
    if not jordan or not check_global(cm):
        raise PreconditionFailed("flow test requires Jordan faces and global balance")
    matching, info = solve_face_equations(cm)
    return matching is not None, matching, info


def matching_is_valid(cm: ColoredMap, matching: Matching) -> bool:
    """Every face equation corners(F) + inserted-on-boundary = V holds."""
    m = cm.m
    n = m.num_vertices
    for i, orbit in enumerate(m.faces):
        boundary_edges = {m.edge_of(d) for d in orbit}
        ins = sum(matching.counts.get(e, 0) for e in boundary_edges)
        if len(orbit) + ins != n:
            return False
    return all(c >= 0 for c in matching.counts.values())


def is_balanced(cm: ColoredMap, oracle: str = "flow") -> BalanceReport:
    """Conjunction of the three balance conditions.

    ``oracle`` selects how local balance is decided: "flow" (default),
    "curves", or "both" (must agree, used for auditing).
    """
    if oracle not in ("flow", "curves", "both"):
        raise PreconditionFailed("unknown oracle %r" % oracle)
    jordan, wit = check_jordan(cm)
    if not jordan:
        return BalanceReport(False, check_global(cm), None, witness=wit)
    glob = check_global(cm)
    if not glob:
        blue = len(cm.blue_faces)
        wit = {"blue": blue, "white": cm.m.num_faces - blue}
        return BalanceReport(True, False, None, witness=wit)
    matching = None
    if oracle in ("flow", "both"):
        ok_flow, matching, info = check_balance_flow(cm)
    if oracle in ("curves", "both"):
        ok_curves, cwit = check_local_curves(cm)
    if oracle == "flow":
        local, wit = ok_flow, (None if ok_flow else info)
    elif oracle == "curves":
        local, wit = ok_curves, cwit
    else:
        if ok_flow != ok_curves:
            raise PreconditionFailed(
                "flow and curve oracles disagree: flow=%s curves=%s" % (ok_flow, ok_curves))
        local, wit = ok_flow, (cwit if not ok_curves else None)
    return BalanceReport(True, True, local, witness=wit,
                         matching=matching if local else None)

"""Exhaustive generation of connected 4-valent sphere maps.

With the vertex rotation fixed to the standard blocks (1 2 3 4)(5 6 7 8)...,
every 4-valent map appears as some edge involution alpha; the search pairs
the smallest unpaired dart first, opening a fresh vertex block only at
its first dart, so each rooted map (rooted at dart 1) comes out once, in
lexicographic order of alpha[1..n].  Opened blocks always form a prefix;
once the smallest unpaired dart lies past them they are closed into one
component and the branch is cut.  Partial face orbits are tracked so that
only genus-0 completions survive.

Generation is orderly (Read, "Every one a winner", 1978): a completion is
kept only if no other root, relabeled by the same rule, gives a smaller
alpha, so each class yields its lex-least rooted labeling once and no
dedup by canonical form is needed; canonical codes only sort the result.

The mass formula sum(4V / |Aut|) over the classes equals the number of
rooted 4-valent sphere maps with V vertices, 2 * 3^V (2V)! / (V! (V+2)!),
which the test suite uses as an exhaustiveness oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from .errors import LimitExceeded
from .maps import ColoredMap, CombinatorialMap, checkerboard


def rooted_count(v: int) -> int:
    """Rooted 4-valent sphere maps with v vertices (= rooted planar maps
    with v edges)."""
    return 2 * 3 ** v * math.factorial(2 * v) // (
        math.factorial(v) * math.factorial(v + 2))


def enumerate_four_valent(n_vertices: int) -> List[CombinatorialMap]:
    """All connected 4-valent sphere maps with the given number of vertices,
    one representative per orientation-preserving isomorphism class: the
    lex-least rooted labeling, sorted by canonical code."""
    V = n_vertices
    n = 4 * V
    target_faces = V + 2
    sigma = [0] * (n + 1)
    for v in range(V):
        for i in range(4):
            sigma[4 * v + 1 + i] = 4 * v + 1 + (i + 1) % 4

    alpha = [0] * (n + 1)
    phi_next = [0] * (n + 1)  # partial phi, 0 = undefined
    kept: List[CombinatorialMap] = []

    def closed_faces(d: int, c: int) -> int:
        # new arrows d -> sigma[c] and c -> sigma[d] were just added;
        # count freshly completed phi-cycles (1 if both arrows lie on the
        # same cycle, else one per returning walk)
        x = phi_next[d]
        through_c = False
        while x and x != d:
            if x == c:
                through_c = True
            x = phi_next[x]
        if x == d:
            if through_c:
                return 1
            closed = 1
        else:
            closed = 0
        x = phi_next[c]
        while x and x != c:
            x = phi_next[x]
        return closed + (1 if x == c else 0)

    def is_least() -> bool:
        # relabel the completed map from every other root by the search's
        # own rule (the root's block becomes 1..4, each newly reached block
        # is opened at the dart that reaches it) and compare with alpha,
        # which is the relabeling from root 1, up to the first difference
        for r in range(2, n + 1):
            lab = [0] * (n + 1)  # dart -> new label
            orig = [0] * (n + 1)  # new label -> dart
            x = r
            for k in range(1, 5):
                lab[x] = k
                orig[k] = x
                x = sigma[x]
            top = 5  # first label of the next block to open
            for d in range(1, n + 1):
                y = alpha[orig[d]]
                if not lab[y]:
                    for k in range(top, top + 4):
                        lab[y] = k
                        orig[k] = y
                        y = sigma[y]  # back at y after the 4-cycle
                    top += 4
                if lab[y] != alpha[d]:
                    if lab[y] < alpha[d]:
                        return False
                    break
        return True

    def rec(first_free: int, faces_done: int, pairs_left: int, opened: int):
        # vertex blocks 0 .. opened - 1 are in use; the rest are untouched
        d = first_free
        while d <= n and alpha[d]:
            d += 1
        if d > n:
            # the face-count prune admits a last pair only if it brings
            # the faces to V + 2, so every completion is a sphere map
            if is_least():
                kept.append(CombinatorialMap(sigma, alpha))
            return
        top = 4 * opened
        if d > top:
            return  # the opened blocks are closed: disconnected
        cands = [c for c in range(d + 1, top + 1) if not alpha[c]]
        if opened < V:
            cands.append(top + 1)  # a fresh block, entered at its first dart
        for c in cands:
            alpha[d], alpha[c] = c, d
            phi_next[d] = sigma[c]
            phi_next[c] = sigma[d]
            fd = faces_done + closed_faces(d, c)
            if fd <= target_faces and fd + 2 * (pairs_left - 1) >= target_faces:
                rec(d + 1, fd, pairs_left - 1, opened + (c > top))
            alpha[d] = alpha[c] = 0
            phi_next[d] = phi_next[c] = 0

    rec(1, 0, n // 2, 1)
    return sorted(kept, key=CombinatorialMap.canonical_code)


@dataclass
class Corpus:
    """Every connected 4-valent sphere map with 2, 4, ..., max_vertices
    vertices, in both colorings, deduplicated up to colored isomorphism."""
    max_vertices: int
    colored: List[ColoredMap]
    uncolored: List[CombinatorialMap]


def build_corpus(max_vertices: int) -> Corpus:
    if max_vertices > 6:
        raise LimitExceeded("corpus generation capped at 6 vertices")
    uncolored: List[CombinatorialMap] = []
    colored: List[ColoredMap] = []
    seen = set()
    for v in range(2, max_vertices + 1, 2):
        for m in enumerate_four_valent(v):
            uncolored.append(m)
            for cm in checkerboard(m):
                code = cm.colored_code()
                if code not in seen:
                    seen.add(code)
                    colored.append(cm)
    return Corpus(max_vertices, colored, uncolored)

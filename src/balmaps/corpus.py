"""Exhaustive generation of connected 4-valent sphere maps.

With the vertex rotation fixed to the standard blocks (1 2 3 4)(5 6 7 8)...,
every 4-valent map is some edge involution alpha.  The search pairs the
smallest unpaired dart first and opens a fresh vertex block only at its
first dart, so each rooted map (rooted at dart 1) is reached once.  Opened
blocks that close early cut the branch; face orbits keep genus 0 only.

Generation is orderly (Read, "Every one a winner", 1978), with the test run
on partial labelings (McKay, "Isomorph-free exhaustive generation", 1998):
after every pair, each live root is relabeled by the search's own rule and
compared with alpha up to the first position undefined on either side.
Pairing fixes that prefix for every completion, so a smaller root prunes
the branch, a larger one leaves the live set, and ties pass down.  Each
root keeps its relabeling, and its next scan resumes where the last one
stopped.  On the complete alpha this is the full test: each class yields
its lex-least rooted labeling once, canonical codes only sort the result.

The corpus keeps both checkerboard colorings of a map unless some
automorphism swaps the colors, read off the canonical roots (an orbit of
Aut(m)); no colored code is computed.

The mass formula sum(4V / |Aut|) over the classes equals 2 * 3^V (2V)! /
(V! (V+2)!), the rooted count: the test suite's exhaustiveness oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .errors import InvalidInput, LimitExceeded
from .maps import ColoredMap, CombinatorialMap, checkerboard


ENUMERATION_MAX_VERTICES = 8


def rooted_count(v: int) -> int:
    """Rooted 4-valent sphere maps with v vertices (= rooted planar maps
    with v edges)."""
    return 2 * 3 ** v * math.factorial(2 * v) // (
        math.factorial(v) * math.factorial(v + 2))


def enumerate_four_valent(n_vertices: int) -> List[CombinatorialMap]:
    """All connected 4-valent sphere maps with the given number of vertices,
    one representative per orientation-preserving isomorphism class: the
    lex-least rooted labeling, sorted by canonical code.  Refused above
    ENUMERATION_MAX_VERTICES before any work: V = 8 takes 39-44 s on a
    2-vCPU x86_64 VM (CPython 3.11), and V = 9 would run for hours."""
    if n_vertices < 1:
        raise InvalidInput(f"n_vertices must be at least 1, got {n_vertices}")
    if n_vertices > ENUMERATION_MAX_VERTICES:
        raise LimitExceeded("enumeration capped at %d vertices" % ENUMERATION_MAX_VERTICES)
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
        # count freshly completed phi-cycles: the walk from d if it returns,
        # and the walk from c if it returns without meeting d (one cycle)
        closed = 0
        for start, meet in ((d, 0), (c, d)):
            x = phi_next[start]
            while x and x != start and x != meet:
                x = phi_next[x]
            closed += x == start
        return closed

    # one relabeling per root, kept between calls: labs[r] maps dart -> label
    # and origs[r] label -> dart; labels 1 .. tops[r] - 1 are written, and
    # origs[r][n + 1] stays 0, so a full tie stops past the last position
    labs = [[0] * (n + 1) for _ in range(n + 1)]
    origs = [[0] * (n + 2) for _ in range(n + 1)]
    tops = [5] * (n + 1)
    for r in range(1, n + 1):
        x = r
        for k in range(1, 5):
            labs[r][x] = k
            origs[r][k] = x
            x = sigma[x]

    def tied(live: List[Tuple[int, int, int, int]]):
        # relabel the partial alpha from each root by the search's rule (root
        # block 1..4, each new block opened at the dart reaching it); compare
        # with alpha, root 1's relabeling, up to the first position undefined
        # on either side, a prefix every completion keeps: None if a root is
        # smaller there, else the tied roots.  An entry (root, stop dart,
        # position, top) resumes its scan where it stopped: pairs are only
        # added along a branch, so the labels below top stand, and those at
        # or above it were written by a branch since abandoned
        out = []
        for entry in live:
            r, stop, d, top = entry
            if not (alpha[stop] and alpha[d]):  # the scan would stop there again
                out.append(entry)
                continue
            lab, orig = labs[r], origs[r]
            for k in range(top, tops[r]):
                lab[orig[k]] = orig[k] = 0
            diff = 0
            while True:
                stop = orig[d]  # 0 past the labeled blocks
                y = alpha[stop]
                if not (y and alpha[d]):
                    break
                if not lab[y]:
                    for k in range(top, top + 4):
                        lab[y] = k
                        orig[k] = y
                        y = sigma[y]  # back at y after the 4-cycle
                    top += 4
                diff = lab[y] - alpha[d]
                if diff:
                    break
                d += 1
            tops[r] = top
            if diff < 0:
                return None
            if not diff:
                out.append((r, stop, d, top))
        return out

    def rec(first_free: int, faces_done: int, pairs_left: int, opened: int,
            live: List[Tuple[int, int, int, int]]):
        # vertex blocks 0 .. opened - 1 are in use; the rest are untouched;
        # live holds the roots whose relabeling still ties with root 1
        d = first_free
        while d <= n and alpha[d]:
            d += 1
        if d > n:
            # the face-count prune admits a last pair only if it brings the
            # faces to V + 2 (a sphere map), and tied() was the orderly test
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
                if (still := tied(live)) is not None:
                    rec(d + 1, fd, pairs_left - 1, opened + (c > top), still)
            alpha[d] = alpha[c] = 0
            phi_next[d] = phi_next[c] = 0

    rec(1, 0, n // 2, 1, [(r, r, 1, 5) for r in range(2, n + 1)])
    return sorted(kept, key=CombinatorialMap.canonical_code)


@dataclass(slots=True)
class Corpus:
    """Every connected 4-valent sphere map with 2, 4, ..., max_vertices
    vertices, in both colorings, deduplicated up to colored isomorphism."""
    colored: List[ColoredMap]
    uncolored: List[CombinatorialMap]


def build_corpus(max_vertices: int) -> Corpus:
    if max_vertices < 2:
        raise InvalidInput(f"max_vertices must be at least 2, got {max_vertices}")
    if max_vertices > 6:
        raise LimitExceeded("corpus generation capped at 6 vertices")
    uncolored: List[CombinatorialMap] = []
    colored: List[ColoredMap] = []
    for v in range(2, max_vertices + 1, 2):
        for m in enumerate_four_valent(v):
            uncolored.append(m)
            first, second = checkerboard(m)
            colored.append(first)
            if not first.swaps_colors():
                colored.append(second)
    return Corpus(colored, uncolored)

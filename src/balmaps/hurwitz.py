"""Enumeration of monodromy tuples and the quartic census.

Tuples of 2d-2 transpositions in S_d with trivial product and transitive
action are enumerated with the first transposition pinned to (1 2) (every
diagonal-conjugacy class meets that slice), then grouped into classes by
exhausting conjugation orbits.  The census maps each class through the
polygon gluing and groups by the underlying 4-valent diagram.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import DegreeTooSmall, LimitExceeded, Mismatch
from .maps import ColoredMap, checkerboard, count_components, perm_cycles
from .realize import (
    TranspositionTuple,
    _conjugate_flat,
    enrich,
    enumerate_matchings,
    graph_from_monodromy,
    integrate_labels,
    left_multiply,
    monodromy,
)

Pair = Tuple[int, int]


def hurwitz_count(d: int) -> int:
    """(2d-2)! * d^(d-3) / d!, exactly.

    The degree 2 cover has an automorphism that the formula's derivation
    quotients away, so d >= 3 is required; enumerate_classes(2) still
    returns the single class.
    """
    if d < 3:
        raise DegreeTooSmall("closed formula requires d >= 3")
    # refuse, before computing, a count too long to print in decimal; the
    # count has more than d digits once d > 12, so huge d never reaches lgamma
    limit = sys.get_int_max_str_digits()
    if limit and (d > limit or (math.lgamma(2 * d - 1) + (d - 3) * math.log(d)
                                - math.lgamma(d + 1)) / math.log(10) + 1 > limit):
        raise LimitExceeded("the count has more than %d decimal digits" % limit)
    return math.factorial(2 * d - 2) * d ** (d - 3) // math.factorial(d)


@dataclass(frozen=True)
class TupleClass:
    """A diagonal-conjugacy class of transposition tuples."""
    representative: TranspositionTuple
    orbit_size: int


def _transpositions(d: int) -> List[Pair]:
    return [(a, b) for a in range(1, d + 1) for b in range(a + 1, d + 1)]


def _raw_tuples_first_fixed(d: int) -> List[Tuple[Pair, ...]]:
    """All valid tuples whose first transposition is (1 2).

    DFS over the remaining slots with parity/distance pruning (the final
    product of the first n-1 factors must itself be a transposition) and a
    connectivity-potential bound.
    """
    n = 2 * d - 2
    trans = _transpositions(d)
    results: List[Tuple[Pair, ...]] = []

    chosen: List[Pair] = [(1, 2)]
    start = left_multiply(tuple(range(d + 1)), 1, 2)

    def rec(k: int, prod: Tuple[int, ...]):
        # k transpositions chosen so far, prod = tau_k o ... o tau_1
        if k == n - 1:
            dist = d - len(perm_cycles(prod))
            if dist != 1:
                return
            moved = [x for x in range(1, d + 1) if prod[x] != x]
            last = (moved[0], moved[1])  # inverse of a transposition is itself
            full = chosen + [last]
            if count_components(d, full) == 1:
                results.append(tuple(full))
            return
        r = n - 1 - k  # free slots left before the forced last one
        dist = d - len(perm_cycles(prod))
        if dist > r + 1 or (dist + r) % 2 == 0:
            return
        if count_components(d, chosen) - 1 > r + 1:
            return
        for a, b in trans:
            chosen.append((a, b))
            rec(k + 1, left_multiply(prod, a, b))
            chosen.pop()

    rec(1, start)
    return results


def enumerate_classes(d: int, limit: int = 5) -> List[TupleClass]:
    """All diagonal-conjugacy classes of valid transposition tuples,
    canonical representatives in ascending order."""
    if d > limit:
        raise LimitExceeded("enumeration capped at degree %d" % limit)
    if d < 2:
        raise DegreeTooSmall("degree must be at least 2")
    if d == 2:
        t = TranspositionTuple(2, ((1, 2), (1, 2)))
        t.validate()
        return [TupleClass(t, 1)]
    raw = set(_raw_tuples_first_fixed(d))
    expected_slice = 2 * math.factorial(d - 2)  # conjugations fixing (1 2)
    classes = []
    visited = set()
    dfact = math.factorial(d)
    conjugators = [(0,) + g for g in itertools.permutations(range(1, d + 1))]
    for taus in sorted(raw):
        if taus in visited:
            continue
        best = None
        slice_imgs = set()
        for g in conjugators:
            img = _conjugate_flat(taus, g)
            if best is None or img < best:
                best = img
            if img[0] == (1, 2):
                slice_imgs.add(img)
        if len(slice_imgs) != expected_slice:
            # conjugation acts freely on transitive tuples for d >= 3
            raise Mismatch("conjugation orbit of %r is not free" % (taus,))
        if not slice_imgs <= raw:
            raise Mismatch("enumeration missed a conjugate of %r" % (taus,))
        visited.update(slice_imgs)
        t = TranspositionTuple(d, best)
        t.validate()
        classes.append(TupleClass(t, dfact))
    classes.sort(key=lambda c: c.representative.taus)
    count = hurwitz_count(d)
    if len(classes) != count:
        raise Mismatch("enumerated %d classes, formula gives %d"
                       % (len(classes), count))
    return classes


# -- census ------------------------------------------------------------------------


@dataclass
class CensusEntry:
    underlying: Tuple[int, ...]  # canonical code of the uncolored diagram
    class_count: int
    classes: List[TupleClass] = field(default_factory=list)
    sample: Optional[ColoredMap] = None

    def to_dict(self) -> dict:
        return {"underlying": list(self.underlying),
                "class_count": self.class_count}


def census(d: int) -> List[CensusEntry]:
    """Group the degree-d classes by the underlying 4-valent diagram.

    Entries are sorted by class count, then by canonical code.
    """
    if d > 4:
        raise LimitExceeded("census capped at degree 4")
    groups: Dict[Tuple[int, ...], CensusEntry] = {}
    for cls in enumerate_classes(d):
        real = graph_from_monodromy(cls.representative)
        code = real.colored.m.canonical_code()
        entry = groups.get(code)
        if entry is None:
            entry = groups[code] = CensusEntry(code, 0, [], real.colored)
        entry.class_count += 1
        entry.classes.append(cls)
    out = sorted(groups.values(), key=lambda e: (e.class_count, e.underlying))
    return out


def verify_labelings_per_graph(entry: CensusEntry) -> int:
    """Recount the covers of one underlying diagram from the realize side.

    Enumerates every coloring, matching and label offset of the diagram,
    extracts the monodromy tuple of each generic labeling, and counts
    distinct conjugacy classes.  Raises Mismatch if the recount disagrees
    with the census class count.
    """
    from .realize import canonical_tuple
    cm = entry.sample
    if cm is None:
        raise Mismatch("census entry carries no sample diagram")
    seen = set()
    for colored in checkerboard(cm.m):
        for matching in enumerate_matchings(colored):
            em = enrich(colored, matching)
            base = integrate_labels(em)
            crit = base.critical(em)
            if len(set(crit.values())) != em.n:
                continue
            for offset in range(em.n):
                lab = base.shifted(offset) if offset else base
                t = monodromy(em, lab)
                seen.add(canonical_tuple(t))
    if len(seen) != entry.class_count:
        raise Mismatch("recount %d != census %d" % (len(seen), entry.class_count))
    return len(seen)

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
from .maps import ColoredMap, checkerboard
from .realize import (
    TranspositionTuple,
    _conjugate_flat,
    enrich,
    enumerate_matchings,
    graph_from_monodromy,
    integrate_labels,
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

    Depth first over the free slots on an explicit stack.  The product
    tau_1 o ... o tau_k of the chosen factors, the inverse of
    tau_k o ... o tau_1, is kept in place (multiplying by (a b) on the
    right swaps two entries), with its distance d - #cycles and the
    component labels of the chosen pairs per depth.  (a b) splits
    the product's cycle through a and b or merges their two cycles, so one
    walk along a's cycle gives the new distance, one less or one more,
    before the factor is applied.  A factor is applied only if the distance
    and the component count less one stay within the factors left; at the
    last free slot the product must become a transposition, the forced last
    factor.  The distance changes parity with every factor, so it always
    has the parity the factors left need.
    """
    n = 2 * d - 2
    if n == 2:
        return [((1, 2), (1, 2))]
    trans = _transpositions(d)
    results: List[Tuple[Pair, ...]] = []
    prod = list(range(d + 1))
    prod[1], prod[2] = 2, 1
    taus: List[Pair] = [(1, 2)] * (n - 2)  # the factors before the last two
    # per depth (factors chosen): distance, component labels and count, next candidate
    dist = [1] * n
    comp = [[0, 1, 1] + list(range(3, d + 1))] * n
    ncomp = [d - 1] * n
    nxt = [0] * n
    k = 1
    while k:
        c = nxt[k]
        if c == len(trans):
            k -= 1
            if k:
                a, b = taus[k]
                prod[a], prod[b] = prod[b], prod[a]
            continue
        nxt[k] = c + 1
        a, b = trans[c]
        x = prod[a]
        while x != a and x != b:
            x = prod[x]
        dk = dist[k] - 1 if x == b else dist[k] + 1
        lab = comp[k]
        ca, cb = lab[a], lab[b]
        ck = ncomp[k] - (ca != cb)
        if k == n - 2:
            if dk == 1:
                prod[a], prod[b] = prod[b], prod[a]
                p, q = [y for y in range(1, d + 1) if prod[y] != y]
                prod[a], prod[b] = prod[b], prod[a]
                # (p q) must join what is left once (a b) has merged cb into ca
                cp, cq = (ca if lab[y] == cb else lab[y] for y in (p, q))
                if ck - (cp != cq) == 1:
                    results.append(tuple(taus) + ((a, b), (p, q)))
            continue
        left = n - k - 1  # factors still to choose, the forced last one included
        if dk > left or ck - 1 > left:
            continue
        prod[a], prod[b] = prod[b], prod[a]
        taus[k] = (a, b)
        k += 1
        dist[k], ncomp[k], nxt[k] = dk, ck, 0
        comp[k] = [ca if y == cb else y for y in lab] if ca != cb else lab
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
    # a conjugate stays in the (1 2) slice iff the conjugation fixes {1, 2},
    # so these 2 (d-2)! conjugations reach the orbit's whole slice, and the
    # lex-least conjugate, which starts with (1 2), lies in it
    stabilizer = [(0,) + ab + rest
                  for ab in ((1, 2), (2, 1))
                  for rest in itertools.permutations(range(3, d + 1))]
    classes = []
    visited = set()
    dfact = math.factorial(d)
    for taus in sorted(raw):
        if taus in visited:
            continue
        slice_imgs = {_conjugate_flat(taus, g) for g in stabilizer}
        if len(slice_imgs) != len(stabilizer):
            # conjugation acts freely on transitive tuples for d >= 3
            raise Mismatch("conjugation orbit of %r is not free" % (taus,))
        if not slice_imgs <= raw:
            raise Mismatch("enumeration missed a conjugate of %r" % (taus,))
        visited.update(slice_imgs)
        t = TranspositionTuple(d, min(slice_imgs))
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

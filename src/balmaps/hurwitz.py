"""Enumeration of monodromy tuples and the quartic census.

Tuples of 2d-2 transpositions in S_d with trivial product and transitive
action are enumerated with the first transposition pinned to (1 2): the
lex-least tuple of each diagonal-conjugacy class lies in that slice, and
the 2(d-2)! conjugations fixing {1, 2} are the ones that keep a tuple
there.  An orderly search emits only the slice tuples that are least among
their images under those conjugations, one per class, and the closed-form
count checks that none was missed.  The census maps each class through the
polygon gluing and groups by the underlying 4-valent diagram.

The classes are a stream: the search yields each tuple as it finds it,
built from one shared object per transposition, so the census holds its
entries and never the class list.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import InvalidInput, LimitExceeded, Mismatch
from .maps import checkerboard, map_of_code
from .realize import (
    TranspositionTuple,
    _conjugate_flat,
    enumerate_matchings,
    graph_from_monodromy,
    integrate_labels,
)

Pair = Tuple[int, int]


def hurwitz_count(d: int) -> int:
    """(2d-2)! * d^(d-3) / d!, exactly.

    The degree 2 cover has an automorphism that the formula's derivation
    quotients away, so d >= 3 is required; enumerate_classes(2) still
    returns the single class.
    """
    if d < 3:
        raise InvalidInput("closed formula requires d >= 3")
    # refuse, before computing, a count too long to print in decimal; the
    # count has more than d digits once d > 12, so huge d never reaches lgamma
    limit = sys.get_int_max_str_digits()
    if limit and (d > limit or (math.lgamma(2 * d - 1) + (d - 3) * math.log(d)
                                - math.lgamma(d + 1)) / math.log(10) + 1 > limit):
        raise LimitExceeded("the count has more than %d decimal digits" % limit)
    return math.factorial(2 * d - 2) * d ** (d - 3) // math.factorial(d)


@dataclass(frozen=True, slots=True)
class TupleClass:
    """A diagonal-conjugacy class of transposition tuples."""
    representative: TranspositionTuple
    orbit_size: int


def _transpositions(d: int) -> List[Pair]:
    return [(a, b) for a in range(1, d + 1) for b in range(a + 1, d + 1)]


def _stabilizer(d: int) -> List[Tuple[int, ...]]:
    """The 2 (d-2)! conjugations that fix {1, 2}, the identity first."""
    return [(0,) + ab + rest
            for ab in ((1, 2), (2, 1))
            for rest in itertools.permutations(range(3, d + 1))]


def _index_tables(d: int) -> Tuple[List[Pair], Dict[Pair, int], List[List[int]]]:
    """The transpositions in lexicographic order, each one's index, and per
    conjugation fixing {1, 2} (the identity first) the table from a
    transposition's index to its image's."""
    trans = _transpositions(d)
    index = {p: i for i, p in enumerate(trans)}
    return trans, index, [[index[p] for p in _conjugate_flat(trans, g)]
                          for g in _stabilizer(d)]


def _slice_images(taus: Tuple[Pair, ...], index: Dict[Pair, int],
                  tables: List[List[int]]) -> List[Tuple[int, ...]]:
    """The images of a tuple under the conjugations of ``tables``, each as
    the tuple of its transpositions' indices."""
    get = itemgetter(*itemgetter(*taus)(index))
    return [get(tab) for tab in tables]


def _tied(tables: List[List[int]], c: int) -> Optional[List[List[int]]]:
    """The tables that fix transposition index c, or None if one maps c
    below itself."""
    keep = []
    for tab in tables:
        i = tab[c]
        if i < c:
            return None
        if i == c:
            keep.append(tab)
    return keep


def _least_slice_tuples(d: int) -> Iterator[Tuple[Pair, ...]]:
    """The valid tuples that start with (1 2) and are least among their
    images under the conjugations fixing {1, 2}, yielded in ascending order
    as the search finds them; d >= 3.  Every factor is the search's own
    object for its transposition, so the tuples share their d(d-1)/2 pairs.

    Depth first over the free slots on an explicit stack, trying the
    transpositions in lexicographic order.  The product
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

    The search is orderly (McKay, "Isomorph-free exhaustive generation",
    1998): per depth it keeps the conjugations fixing {1, 2} that fix the
    factors chosen so far, each as a table from a transposition's index to
    its image's.  The indices follow the lexicographic order of the pairs,
    so a candidate that one of them maps below itself makes every
    completion greater than its image and is pruned, and a conjugation
    that maps the candidate above itself is no longer tied.  The forced
    last factor is the product of the others, so a conjugation that fixes
    them fixes it too and needs no test; one still tied at a leaf fixes
    the tuple, which is emitted for the caller to reject as not free.
    """
    n = 2 * d - 2
    trans, index, tables = _index_tables(d)
    tables = tables[1:]
    prod = list(range(d + 1))
    prod[1], prod[2] = 2, 1
    taus: List[Pair] = [trans[0]] * (n - 2)  # the factors before the last two
    # per depth (factors chosen): distance, component labels and count,
    # conjugations still tied, next candidate
    dist = [1] * n
    comp = [[0, 1, 1] + list(range(3, d + 1))] * n
    ncomp = [d - 1] * n
    tied = [tables] * n
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
                if ck - (cp != cq) == 1 and _tied(tied[k], c) is not None:
                    yield (*taus, trans[c], trans[index[p, q]])
            continue
        left = n - k - 1  # factors still to choose, the forced last one included
        if dk > left or ck - 1 > left:
            continue
        keep = _tied(tied[k], c)
        if keep is None:
            continue
        prod[a], prod[b] = prod[b], prod[a]
        taus[k] = trans[c]
        k += 1
        dist[k], ncomp[k], tied[k], nxt[k] = dk, ck, keep, 0
        comp[k] = [ca if y == cb else y for y in lab] if ca != cb else lab


def _classes(d: int) -> Iterator[TupleClass]:
    """All diagonal-conjugacy classes of valid transposition tuples,
    canonical representatives in ascending order, each checked as it is
    found and the whole count at the end; d >= 2.

    Each class's lex-least conjugate starts with (1 2), so it is the least
    of its images under the conjugations fixing {1, 2}, which are the ones
    that keep a tuple in the (1 2) slice: the search emits exactly these.
    Each is checked to be least with a free orbit, and the count against
    the closed formula stands for completeness.  The check reads each
    image off the search's index tables, one per conjugation, as a tuple
    of transposition indices.  Indices follow the lexicographic order of
    the pairs, so the orbit is free iff the images are distinct, and the
    tuple is least iff its own image, the identity's, is the least.
    """
    if d < 2:
        raise InvalidInput("degree must be at least 2")
    if d == 2:
        yield TupleClass(TranspositionTuple(2, ((1, 2), (1, 2))), 1)
        return
    _, index, tables = _index_tables(d)
    found = 0
    dfact = math.factorial(d)
    for taus in _least_slice_tuples(d):
        imgs = _slice_images(taus, index, tables)
        if len(set(imgs)) != len(imgs):
            # conjugation acts freely on transitive tuples for d >= 3
            raise Mismatch("conjugation orbit of %r is not free" % (taus,))
        if min(imgs) != imgs[0]:
            raise Mismatch("%r is not the least of its conjugates" % (taus,))
        found += 1
        yield TupleClass(TranspositionTuple(d, taus), dfact)
    count = hurwitz_count(d)
    if found != count:
        why = "missed a conjugate" if found < count else "kept a class twice"
        raise Mismatch("enumerated %d classes, formula gives %d: the search %s"
                       % (found, count, why))


def enumerate_classes(d: int) -> List[TupleClass]:
    """All diagonal-conjugacy classes of valid transposition tuples,
    canonical representatives in ascending order, checked as a whole."""
    if d > 5:
        raise LimitExceeded("enumeration capped at degree 5")
    return list(_classes(d))


# -- census ------------------------------------------------------------------------


@dataclass(slots=True)
class CensusEntry:
    underlying: Tuple[int, ...]  # canonical code of the uncolored diagram
    class_count: int

    def to_dict(self) -> dict:
        return {"underlying": list(self.underlying),
                "class_count": self.class_count}


def census(d: int) -> List[CensusEntry]:
    """Group the degree-d classes by the underlying 4-valent diagram,
    consuming the class stream, so only the entries are held.

    Entries are sorted by class count, then by canonical code.
    """
    if d > 6:
        raise LimitExceeded("census capped at degree 6")
    groups: Dict[Tuple[int, ...], CensusEntry] = {}
    for cls in _classes(d):
        code = graph_from_monodromy(cls.representative).colored.m.canonical_code()
        entry = groups.get(code)
        if entry is None:
            entry = groups[code] = CensusEntry(code, 0)
        entry.class_count += 1
    out = sorted(groups.values(), key=lambda e: (e.class_count, e.underlying))
    return out


def verify_labelings_per_graph(entry: CensusEntry) -> int:
    """Recount the covers of one underlying diagram from the realize side,
    by orbit counting.

    A class is the diagram with a colouring and pairwise distinct critical
    labels 1..n, up to isomorphism.  Each of the g face-equation solutions
    over both colourings whose integrated labels are distinct gives n
    labelings, one per shift of every label.  For d >= 3 the diagram's
    automorphisms, one per canonical root, act freely on these, so the
    class count is n g / |Aut|; the quadratic map's deck involution fixes
    every labeling, which halves |Aut| there.  Raises Mismatch if the
    quotient leaves a remainder or disagrees with the census class count.
    """
    m = map_of_code(entry.underlying)
    g = 0
    for colored in checkerboard(m):
        for counts in enumerate_matchings(colored):
            labels = integrate_labels(colored, counts)
            g += len(set(labels.values())) == len(labels)
    n = m.num_vertices
    aut = len(m.canonical_roots()) // (2 if n == 2 else 1)
    count, rem = divmod(n * g, aut)
    if rem or count != entry.class_count:
        raise Mismatch("recount %d * %d / %d != census %d"
                       % (n, g, aut, entry.class_count))
    return count

import dataclasses
import hashlib
import importlib.util
import itertools
import json
import math
import pathlib
import random
from collections import Counter

import pytest

from balmaps import balance, dps, hurwitz, mapio, maps, realize
from balmaps.errors import InvalidInput, InvalidTuple, LimitExceeded, Mismatch
from tests.conftest import mirror
from tests.test_dps import random_tree

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the script that writes the census fixtures, for its digests and paths
_spec = importlib.util.spec_from_file_location("census_check", ROOT / "checks" / "census.py")
census_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census_check)


def load_fixture(d):
    with open(census_check.fixture_path(d)) as fh:
        return json.load(fh)


# sha256 of repr([(representative taus, orbit size), ...]) per degree, and of
# repr of the list of the glued diagrams' canonical codes for d=5, in class order
CLASS_PINS = {
    3: "3d50a1c9246ca0bb890dd532e3e1484c7364aeac9203be2d598bdfeabb863116",
    4: "4a6e525a5c448a1c192674fad99695b69736c555cae8e9387b9b3eb2ada4019f",
    5: "9f67ee4330fa8bf7014af4cf5ddbf511e278f3799aa78975c017447e1e96bf70",
}
GLUED_CODES_5 = "e545dda0cefc9aa1f37c296d230e45991751069e5d0881b126cec87943d5bb1f"
GLUED_COLORED_CODES_5 = "a95e67a0ac3dbcb4034ee2ddc2bb7d58aa4bdfc28e8cd2389bb603366dd0f3ed"


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def class_digest(classes) -> str:
    return digest([(c.representative.taus, c.orbit_size) for c in classes])


def test_hurwitz_count_values():
    assert hurwitz.hurwitz_count(3) == 4
    assert hurwitz.hurwitz_count(4) == 120
    assert hurwitz.hurwitz_count(5) == 8400
    with pytest.raises(InvalidInput):
        hurwitz.hurwitz_count(2)


def partitions(n, most=None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, most or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def dim_and_content(shape):
    """The degree of the irreducible character of S_n for ``shape`` (hook
    length formula) and the sum of its cells' contents, which is the
    scalar by which the sum of all transpositions acts."""
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j) + (cols[j] - i) - 1
    content = sum(j - i for i, row in enumerate(shape) for j in range(row))
    return math.factorial(sum(shape)) // hooks, content


def transitive_tuple_counts(top):
    """c[n][k]: tuples of k transpositions in S_n with trivial product and
    a transitive action, for n <= top and k <= 2 top - 2.

    Frobenius: all such tuples number (1/n!) sum_shape dim^2 content^k.
    Split a tuple by the orbit of point 1 (its points and the positions of
    its transpositions): that is the exponential formula in both labels,
    solved here for the transitive part."""
    kmax = 2 * top - 2
    a = [[int(k == 0) for k in range(kmax + 1)]]
    for n in range(1, top + 1):
        chars = [dim_and_content(shape) for shape in partitions(n)]
        row = []
        for k in range(kmax + 1):
            total = sum(dim * dim * content ** k for dim, content in chars)
            assert total % math.factorial(n) == 0
            row.append(total // math.factorial(n))
        a.append(row)
    c = [[0] * (kmax + 1)]
    for n in range(1, top + 1):
        c.append([a[n][k] - sum(
            math.comb(n - 1, m - 1) * math.comb(k, j) * c[m][j] * a[n - m][k - j]
            for m in range(1, n) for j in range(k + 1))
            for k in range(kmax + 1)])
    return c


def test_hurwitz_count_matches_character_oracle():
    c = transitive_tuple_counts(12)
    assert c[1][0] == 1 and c[2][2] == 1 and c[3][4] == 24
    for d in range(3, 13):
        # conjugation acts freely on transitive tuples once d >= 3
        assert c[d][2 * d - 2] % math.factorial(d) == 0
        assert c[d][2 * d - 2] // math.factorial(d) == hurwitz.hurwitz_count(d)


def test_enumerate_classes_degree_two():
    classes = hurwitz.enumerate_classes(2)
    assert len(classes) == 1
    assert classes[0].representative.taus == ((1, 2), (1, 2))
    assert classes[0].orbit_size == 1


def test_enumerate_classes_degree_three():
    classes = hurwitz.enumerate_classes(3)
    assert len(classes) == 4
    for c in classes:
        assert c.orbit_size == 6
        # canonical representative: re-canonicalizing is idempotent
        assert brute_canonical_tuple(c.representative) == c.representative.taus


def test_enumerate_classes_degree_four(classes4):
    assert len(classes4) == 120
    reps = {c.representative.taus for c in classes4}
    assert len(reps) == 120
    # the tuples share the search's six pair objects, one per transposition
    assert len({id(p) for c in classes4 for p in c.representative.taus}) == 6


def test_conjugating_rep_is_idempotent(classes4):
    rng = random.Random(2)
    for cls in rng.sample(classes4, 12):
        g = list(range(1, 5))
        rng.shuffle(g)
        conj = conjugate(cls.representative, (0,) + tuple(g))
        assert brute_canonical_tuple(conj) == cls.representative.taus


def test_enumeration_limit(monkeypatch):
    with pytest.raises(LimitExceeded):
        hurwitz.enumerate_classes(6)
    # the census cap acts before the class stream starts
    monkeypatch.setattr(hurwitz, "_classes", None)
    with pytest.raises(LimitExceeded, match="census capped at degree 6"):
        hurwitz.census(7)


def test_census_degree_two():
    cen = hurwitz.census(2)
    assert len(cen) == 1
    assert cen[0].class_count == 1
    assert cen[0].underlying == maps.quadratic().canonical_code()


def test_census_degree_three():
    cen = hurwitz.census(3)
    assert [e.class_count for e in cen] == [2, 2]
    assert sum(e.class_count for e in cen) == 4


def test_census_degree_four_totals(census4):
    assert sum(e.class_count for e in census4) == 120
    sizes = Counter(e.class_count for e in census4)
    # verified census: 11 underlying diagrams; the classical hand-catalog's
    # five subtotals 36+60+6+6+12 regroup these as {36}, {18,12,12,12,6},
    # {4,2}, {6}, {6,6} (its drawings repeat sphere diagrams)
    assert sizes == Counter({6: 4, 12: 3, 36: 1, 18: 1, 4: 1, 2: 1})
    assert len(census4) == 11


def test_census_octahedron_entry(census4):
    oc = maps.octahedron().canonical_code()
    entry = next(e for e in census4 if e.underlying == oc)
    assert entry.class_count == 4
    assert hurwitz.verify_labelings_per_graph(entry) == 4


def test_census_full_recount(census4):
    """Independent per-diagram recount from the realize side."""
    for entry in census4:
        assert hurwitz.verify_labelings_per_graph(entry) == entry.class_count


def test_census_degree_two_recount():
    """The quadratic map's deck involution fixes each of its labelings, so
    the recount halves |Aut| there and still finds the one class."""
    entry, = hurwitz.census(2)
    assert hurwitz.verify_labelings_per_graph(entry) == 1


def test_recount_detects_a_wrong_class_count(census4):
    for entry in census4:
        wrong = dataclasses.replace(entry, class_count=entry.class_count + 1)
        with pytest.raises(Mismatch, match="recount"):
            hurwitz.verify_labelings_per_graph(wrong)


def test_degree_five_census_recount(glued5):
    """Grouped by canonical code and sorted as the census sorts, the 8400
    d=5 classes glue to the 89 diagrams of the frozen census with their
    class counts, and to its 144 coloured diagrams; the recount of a
    seeded sample of them gives each one's class count."""
    groups = {}
    for real in glued5:
        code = real.colored.m.canonical_code()
        groups.setdefault(code, hurwitz.CensusEntry(code, 0)).class_count += 1
    entries = sorted(groups.values(), key=lambda e: (e.class_count, e.underlying))
    golden = load_fixture(5)
    assert len(entries) == 89
    assert golden["total_covers"] == hurwitz.hurwitz_count(5)
    assert golden["entries"] == [e.to_dict() for e in entries]
    colored = [real.colored.colored_code() for real in glued5]
    assert golden["colored_codes"] == len(set(colored)) == 144
    assert golden["colored_digest"] == census_check.set_digest(colored)
    for entry in random.Random(5).sample(entries, 12):
        assert hurwitz.verify_labelings_per_graph(entry) == entry.class_count


@pytest.mark.parametrize("d, chiral", [(4, 4), (5, 56)])
def test_census_diagrams_under_the_theorem(d, chiral):
    """Every frozen census diagram up to degree 5, decoded from its code,
    passes the theorem's checks.  It decodes back to its own code.  On
    both colourings the flow's verdict is realizability, and both are
    balanced; each reglues through its labels and monodromy to its own
    coloured code.  Its mirror is a census diagram with the same class
    count, as reversing a tuple mirrors its diagram (law L1)."""
    counts = {tuple(e["underlying"]): e["class_count"] for e in load_fixture(d)["entries"]}
    balanced = mirrored_away = 0
    for code, count in counts.items():
        m = maps.map_of_code(code)
        assert m.canonical_code() == code
        for cm in maps.checkerboard(m):
            ok = balance.check_balance_flow(cm)[0]
            assert realize.is_realizable(cm) == ok
            if ok:
                balanced += 1
                t = realize.monodromy(cm, realize.realize_generic(cm)[1])
                assert realize.graph_from_monodromy(t).colored.colored_code() == cm.colored_code()
        image = mirror(maps.checkerboard(m)[0]).m.canonical_code()
        assert counts[image] == count
        mirrored_away += image != code
    assert balanced == 2 * len(counts)
    assert mirrored_away == chiral


def test_reversal_is_mirror(classes4, classes5):
    """Law L1: the tuple read backwards is the monodromy along the reversed
    curve, and glues to the mirror of the tuple's diagram; on every class
    at d = 3 and 4 and a seeded sample at d = 5.  Without the mirror the
    coloured codes agree on only some of the classes, so the law is not
    vacuous."""
    sample = {3: hurwitz.enumerate_classes(3), 4: classes4,
              5: random.Random(23).sample(classes5, 400)}
    plain = {}
    for d, classes in sample.items():
        plain[d] = 0
        for c in classes:
            t = c.representative
            glued = realize.graph_from_monodromy(t).colored
            back = realize.graph_from_monodromy(realize.TranspositionTuple(d, t.taus[::-1])).colored
            assert back.colored_code() == mirror(glued).colored_code()
            plain[d] += back.colored_code() == glued.colored_code()
    assert plain == {3: 4, 4: 84, 5: 203}


def test_reversed_realization_of_the_mirror():
    """Law L1 through realization: the tuple that realizes the mirror of
    a balanced census colouring, read backwards, glues to the colouring's
    own coloured code, on all 22 + 178 balanced colourings at d = 4 and 5.
    Reversing the colouring's own tuple gives its code on only 80 of the
    200, so the law is not vacuous."""
    law = plain = 0
    for d in (4, 5):
        for entry in load_fixture(d)["entries"]:
            for cm in maps.checkerboard(maps.map_of_code(entry["underlying"])):
                code = cm.colored_code()
                backs = []
                for c in (mirror(cm), cm):
                    taus = realize.monodromy(c, realize.realize_generic(c)[1]).taus
                    back = realize.TranspositionTuple(d, taus[::-1])
                    backs.append(realize.graph_from_monodromy(back).colored.colored_code())
                assert backs[0] == code
                law += 1
                plain += backs[1] == code
    assert (law, plain) == (200, 80)


@pytest.fixture(scope="module")
def tuples6():
    """A seeded sample of degree-6 tuples, each read off a uniform random
    edge-labeled tree: the trees biject with the tuples, and every orbit
    has d! tuples, so each sampled class is uniform among the classes."""
    rng = random.Random(6)
    return [dps.tree_to_tuple(random_tree(rng, 6)) for _ in range(40)]


def test_degree_six_census_fixture(tuples6):
    """The frozen d=6 census sums to the closed formula over 1260 distinct
    diagrams, in census order, and every sampled tuple glues to a listed
    diagram; the realize-side recount of some of them gives the frozen
    class count."""
    golden = load_fixture(6)
    entries = golden["entries"]
    counts = {e["underlying_digest"]: e["class_count"] for e in entries}
    assert len(entries) == len(counts) == 1260
    assert golden["total_covers"] == sum(counts.values()) == hurwitz.hurwitz_count(6)
    assert [e["class_count"] for e in entries] == sorted(counts.values())
    for k, t in enumerate(tuples6):
        colored = realize.graph_from_monodromy(t).colored
        code = colored.m.canonical_code()
        count = counts[census_check.code_digest(code)]
        if k < 2:
            entry = hurwitz.CensusEntry(code, count)
            assert hurwitz.verify_labelings_per_graph(entry) == count


def rotations(t):
    """Every cyclic shift of the tuple, the tuple itself first."""
    return [realize.TranspositionTuple(t.d, t.taus[k:] + t.taus[:k]) for k in range(t.n)]


def test_rotation_and_conjugation_keep_the_colored_code(classes5, tuples6):
    """Law L2: moving the base point along the curve rotates the tuple, and
    renaming the sheets conjugates it; neither changes the diagram.  Every
    rotation of each sampled tuple, as it is and conjugated by a seeded
    permutation, glues to the same coloured code."""
    rng = random.Random(17)
    sample = [c.representative for c in rng.sample(classes5, 40)] + tuples6
    for t in sample:
        want = realize.graph_from_monodromy(t).colored.colored_code()
        for r in rotations(t):
            for u in (r, random_conjugate(r, rng)):
                assert realize.graph_from_monodromy(u).colored.colored_code() == want


def test_census_matches_golden_fixture(census4):
    golden = load_fixture(4)
    assert golden["total_covers"] == sum(e.class_count for e in census4)
    assert golden["entries"] == [
        {"underlying": list(e.underlying), "class_count": e.class_count}
        for e in census4]
    # the fixture script rewrites it byte for byte
    with open(census_check.fixture_path(4)) as fh:
        assert mapio.dumps(census_check.census_data(4)) == fh.read()


def test_degree_five_fixture_from_one_census_pass(monkeypatch):
    """The fixture script rewrites census-d5.json byte for byte from the
    census pass alone: it glues each class once, and reads the coloured
    codes off the balanced colourings of the decoded entries, where
    test_degree_five_census_recount reads them off the glued classes."""
    glued = []
    glue = realize.graph_from_monodromy
    monkeypatch.setattr(hurwitz, "graph_from_monodromy", lambda t: glued.append(t) or glue(t))
    monkeypatch.setattr(realize, "graph_from_monodromy", None)
    monkeypatch.setattr(hurwitz, "enumerate_classes", None)
    text = mapio.dumps(census_check.census_data(5))
    assert len(glued) == len(set(glued)) == hurwitz.hurwitz_count(5)
    with open(census_check.fixture_path(5)) as fh:
        assert text == fh.read()


def test_census_all_entries_balanced(census4):
    for e in census4:
        for cm in maps.checkerboard(maps.map_of_code(e.underlying)):
            assert balance.is_balanced(cm, oracle="both").balanced


def test_census_stable_under_shuffled_regeneration(census4):
    rng = random.Random(7)
    classes = hurwitz.enumerate_classes(4)
    shuffled = classes[:]
    rng.shuffle(shuffled)
    groups = {}
    for cls in shuffled:
        code = realize.graph_from_monodromy(cls.representative).colored.m.canonical_code()
        groups[code] = groups.get(code, 0) + 1
    assert groups == {e.underlying: e.class_count for e in census4}


def test_class_representatives_pinned(classes4, classes5):
    assert class_digest(hurwitz.enumerate_classes(3)) == CLASS_PINS[3]
    assert class_digest(classes4) == CLASS_PINS[4]
    assert class_digest(classes5) == CLASS_PINS[5]


def test_glued_codes_pinned(glued5):
    codes = [real.colored.m.canonical_code() for real in glued5]
    assert len(set(codes)) == 89
    assert digest(codes) == GLUED_CODES_5
    colored = [real.colored.colored_code() for real in glued5]
    assert len(set(colored)) == 144
    assert digest(colored) == GLUED_COLORED_CODES_5


@pytest.mark.parametrize("d", [3, 4])
def test_least_slice_tuples_match_brute_force(d):
    """The orderly search emits exactly the valid (1 2)-slice tuples that
    are least among their images under the conjugations fixing {1, 2}, in
    ascending order."""
    stabilizer = [(0,) + g for g in itertools.permutations(range(1, d + 1))
                  if {g[0], g[1]} == {1, 2}]
    least = []
    for rest in itertools.product(hurwitz._transpositions(d), repeat=2 * d - 3):
        try:
            t = realize.TranspositionTuple(d, ((1, 2),) + rest)
        except InvalidTuple:
            continue
        if all(conjugate(t, g).taus >= t.taus for g in stabilizer):
            least.append(t.taus)
    assert len(least) == hurwitz.hurwitz_count(d)
    assert list(hurwitz._least_slice_tuples(d)) == least


def test_enumerate_classes_detects_a_missed_conjugate(monkeypatch):
    full = hurwitz._least_slice_tuples
    monkeypatch.setattr(hurwitz, "_least_slice_tuples", lambda d: list(full(d))[1:])
    with pytest.raises(Mismatch, match="missed a conjugate"):
        hurwitz.enumerate_classes(4)


def test_enumerate_classes_detects_a_fixed_tuple(monkeypatch):
    full = hurwitz._least_slice_tuples
    monkeypatch.setattr(hurwitz, "_least_slice_tuples",
                        lambda d: [*full(d), ((1, 2), (1, 2), (1, 2), (1, 2))])
    with pytest.raises(Mismatch, match="not free"):
        hurwitz.enumerate_classes(3)


def test_enumerate_classes_detects_a_tuple_that_is_not_least(monkeypatch):
    full = hurwitz._least_slice_tuples
    # swapping 1 and 2 keeps a tuple in the (1 2) slice; the image of a
    # least tuple with a free orbit is greater
    first = next(full(3))
    swapped = realize._conjugate_flat(first, (0, 2, 1, 3))
    assert swapped > first
    monkeypatch.setattr(hurwitz, "_least_slice_tuples", lambda d: [*full(d), swapped])
    with pytest.raises(Mismatch, match="not the least"):
        hurwitz.enumerate_classes(3)


def test_index_tables_decode_to_conjugates(classes4, classes5):
    """The post-search check reads each conjugate off an index table; for
    every d=4 and d=5 class and every conjugation fixing {1, 2}, the image
    decodes to the conjugate itself.  The indices follow the lexicographic
    order of the pairs, which the least check relies on."""
    for d, classes in ((4, classes4), (5, classes5)):
        trans, index, tables = hurwitz._index_tables(d)
        assert trans == sorted(set(trans)) and index == {p: i for i, p in enumerate(trans)}
        stabilizer = hurwitz._stabilizer(d)
        assert len(tables) == len(stabilizer) == 2 * math.factorial(d - 2)
        for c in classes:
            taus = c.representative.taus
            imgs = hurwitz._slice_images(taus, index, tables)
            assert len(imgs) == len(stabilizer)
            for g, img in zip(stabilizer, imgs):
                assert tuple(trans[i] for i in img) == realize._conjugate_flat(taus, g)


def conjugate(t, g):
    """The tuple t with every point x renamed g[x]."""
    return realize.TranspositionTuple(t.d, realize._conjugate_flat(t.taus, g))


def brute_canonical_tuple(t):
    return min(conjugate(t, (0,) + g).taus
               for g in itertools.permutations(range(1, t.d + 1)))


def random_conjugate(t, rng):
    g = list(range(1, t.d + 1))
    rng.shuffle(g)
    return conjugate(t, (0,) + tuple(g))


def test_canonical_tuple_matches_brute_force(classes4, classes5):
    """Each class representative is the least conjugate of its class."""
    rng = random.Random(13)
    small = [c.representative for d in (2, 3) for c in hurwitz.enumerate_classes(d)]
    for t in small + [c.representative for c in classes4]:
        assert brute_canonical_tuple(random_conjugate(t, rng)) == t.taus
    for c in rng.sample(classes5, 200):
        conj = random_conjugate(c.representative, rng)
        assert brute_canonical_tuple(conj) == c.representative.taus

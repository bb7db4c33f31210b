import hashlib
import itertools
import random
import sys
from collections import Counter

import pytest

from hypothesis import given, settings, strategies as st

from balmaps import balance, dps, hurwitz, mapio, maps, realize
from balmaps.errors import (
    InvalidMatching,
    InvalidTuple,
    Mismatch,
    NotBalanced,
)
from tests.conftest import mirror
from tests.test_balance import assert_hall_violator
from tests.test_dps import random_tree
from tests.test_hurwitz import brute_canonical_tuple, conjugate
from tests.test_maps import relabeled


def colored(m):
    return maps.checkerboard(m)[0]


def test_enrich_quadratic_empty_matching():
    cm = colored(maps.quadratic())
    assert realize.enrich(cm, {}) == {}


def test_enrich_octahedron():
    cm = colored(maps.octahedron())
    ok, matching, _ = balance.check_balance_flow(cm)
    counts = realize.enrich(cm, matching)
    assert counts == matching and counts is not matching
    assert sum(counts.values()) == 12  # 8 triangles, 3 inserted on each


def test_enrich_rejects_bad_matching():
    cm = colored(maps.octahedron())
    with pytest.raises(InvalidMatching):
        realize.enrich(cm, {cm.m.edges()[0]: 1})


def test_integrate_labels_quadratic():
    cm = colored(maps.quadratic())
    labels = realize.integrate_labels(cm, realize.enrich(cm, {}))
    assert sorted(labels.values()) == [1, 2]
    assert labels[cm.m.vertex_of[1]] == 1


def test_integrate_labels_octahedron_counts():
    cm = colored(maps.octahedron())
    counts, labels = realize.realize_generic(cm)
    assert sorted(labels.values()) == [1, 2, 3, 4, 5, 6]


def test_label_shift_rotates_monodromy(classes4):
    """Shifting every label by k moves tau_j to position j + k."""
    for cls in classes4:
        real = realize.graph_from_monodromy(cls.representative)
        taus, n = cls.representative.taus, len(cls.representative.taus)
        for k in range(n):
            shifted = {v: (l - 1 + k) % n + 1 for v, l in real.labels.items()}
            t = realize.monodromy(real.colored, shifted)
            assert t.taus == tuple(taus[(j - k) % n] for j in range(n))


def test_labels_progress_around_blue_faces():
    cm = colored(maps.octahedron())
    counts, labels = realize.realize_generic(cm)
    m, n = cm.m, cm.m.num_vertices
    for i, orbit in enumerate(m.faces):
        sign = 1 if cm.is_blue(i) else -1
        total = 0
        for d in orbit:
            step = sign * (counts.get(m.edge_of(d), 0) + 1)
            a, b = labels[m.vertex_of[d]], labels[m.vertex_of[m.alpha[d]]]
            assert b == (a - 1 + step) % n + 1
            total += step
        assert total == sign * n  # the labels wind once around the face


def test_monodromy_quadratic():
    cm = colored(maps.quadratic())
    t = realize.monodromy(cm, realize.realize_generic(cm)[1])
    assert t.taus == ((1, 2), (1, 2))


def test_monodromy_octahedron_valid():
    cm = colored(maps.octahedron())
    t = realize.monodromy(cm, realize.realize_generic(cm)[1])
    assert t.d == 4 and len(t.taus) == 6
    # the octahedron's sheets each meet three critical points
    moves = Counter()
    for a, b in t.taus:
        moves[a] += 1
        moves[b] += 1
    assert sorted(moves.values()) == [3, 3, 3, 3]


def test_tuple_validation_rejects_bad_product():
    with pytest.raises(InvalidTuple):
        realize.TranspositionTuple(3, ((1, 2), (1, 3), (1, 2), (1, 2)))
    with pytest.raises(InvalidTuple):
        realize.TranspositionTuple(
            4, ((1, 2), (1, 2), (3, 4), (3, 4), (1, 2), (1, 2)))  # not transitive


def test_tuple_file_is_checked_when_read():
    """A tuple read from a file checks itself when it is built, before any
    gluing."""
    with pytest.raises(InvalidTuple, match="product of the tuple is not the identity"):
        mapio.tuple_from_dict({"fmt": 1, "d": 3, "taus": [[1, 2], [1, 3], [1, 2], [1, 2]]})


def test_graph_from_monodromy_quadratic():
    t = realize.TranspositionTuple(2, ((1, 2), (1, 2)))
    real = realize.graph_from_monodromy(t)
    q = colored(maps.quadratic())
    assert real.colored.m.canonical_code() == q.m.canonical_code()


def test_monodromy_round_trip_octahedron():
    cm = colored(maps.octahedron())
    t = realize.monodromy(cm, realize.realize_generic(cm)[1])
    real = realize.graph_from_monodromy(t)
    assert real.colored.colored_code() == cm.colored_code()
    t2 = realize.monodromy(real.colored, real.labels)
    assert brute_canonical_tuple(t) == brute_canonical_tuple(t2)


def test_realize_generic_requires_balance():
    fig8 = colored(maps.build_map([[1, 2, 3, 4]], [[1, 2], [3, 4]], 4))
    with pytest.raises(NotBalanced):
        realize.realize_generic(fig8)


def test_is_realizable_basics():
    assert realize.is_realizable(colored(maps.quadratic()))
    assert realize.is_realizable(colored(maps.octahedron()))
    assert realize.is_realizable(colored(maps.turkshead(4)))
    fig8 = colored(maps.build_map([[1, 2, 3, 4]], [[1, 2], [3, 4]], 4))
    assert not realize.is_realizable(fig8)


def test_is_realizable_raises_on_reglue_mismatch(monkeypatch):
    """A reglue that differs from the input is a bug, not a negative
    verdict."""
    other = realize.graph_from_monodromy(
        realize.TranspositionTuple(2, ((1, 2), (1, 2))))
    monkeypatch.setattr(realize, "graph_from_monodromy", lambda t: other)
    with pytest.raises(Mismatch):
        realize.is_realizable(colored(maps.octahedron()))


def test_is_realizable_raises_on_color_swapped_reglue(monkeypatch):
    """A reglue of the right diagram with its colors swapped traces the
    same from the matched darts, so the blue bits must tell them apart.
    The octahedron's swap is even colored-isomorphic to it, but not by the
    isomorphism that the ranked labels fix."""
    glue = realize.graph_from_monodromy

    def swapped(t):
        real = glue(t)
        return realize.Realization(real.colored.swapped(), real.labels)
    monkeypatch.setattr(realize, "graph_from_monodromy", swapped)
    for cm in (colored(maps.octahedron()), braid_sample_map(7, random.Random(7))):
        with pytest.raises(Mismatch):
            realize.is_realizable(cm)


def test_matching_enumeration_order_and_validity():
    cm = colored(maps.octahedron())
    got = []
    for i, matching in enumerate(realize.enumerate_matchings(cm)):
        assert balance.matching_is_valid(cm, matching)
        got.append(tuple(sorted(matching.items())))
        if i > 50:
            break
    assert len(got) == len(set(got))


def test_duplicate_critical_labels_are_rejected(corpus6):
    """Some balanced diagram must have an early matching whose labeling
    repeats a critical label; ranking by (label, vertex id) breaks the tie
    and realization still gives distinct labels."""
    found_duplicate_case = False
    for cm in corpus6.colored:
        if not balance.is_balanced(cm).balanced:
            continue
        first = next(iter(realize.enumerate_matchings(cm)))
        labels = realize.integrate_labels(cm, realize.enrich(cm, first))
        if len(set(labels.values())) != cm.m.num_vertices:
            found_duplicate_case = True
            labels2 = realize.realize_generic(cm)[1]
            assert len(set(labels2.values())) == cm.m.num_vertices
    assert found_duplicate_case


def test_rebuilt_labels_occupy_positions(classes4):
    real = realize.graph_from_monodromy(classes4[0].representative)
    assert sorted(real.labels.values()) == list(range(1, 7))


def glued_counts(real):
    """The inserted count of each blue dart x, in ascending order, read off
    the labels: (l(head) - l(tail) - 1) mod n, kept where it is not 0."""
    cm, labels = real.colored, real.labels
    m = cm.m
    n = m.num_vertices
    counts = {}
    for x in range(1, m.n + 1):
        if cm.is_forward(x):
            c = (labels[m.vertex_of[m.alpha[x]]] - labels[m.vertex_of[x]] - 1) % n
            if c:
                counts[x] = c
    return counts


def gluing_layout_digest(reals, with_counts=False):
    h = hashlib.sha256()
    for real in reals:
        h.update(mapio.dumps(mapio.map_to_dict(real.colored)).encode())
        h.update(repr(sorted(real.labels.items())).encode())
        if with_counts:
            h.update(repr(list(glued_counts(real).items())).encode())
    return h.hexdigest()


def test_gluing_layout_pinned(classes4):
    """Dart ids, blue faces and critical labels of every d=4 gluing, as
    the from-tuple command and the tree decoding see them."""
    assert len(classes4) == 120
    assert gluing_layout_digest(
        realize.graph_from_monodromy(c.representative) for c in classes4) == (
        "ebf9f661303083b7cfe8d0068770d5fc6141cb66637101928c51ff1a058bf6d8")


def test_gluing_layout_pinned_degree_five(glued5):
    """The same for every d=5 gluing, with the counts in insertion order."""
    assert len(glued5) == 8400
    assert gluing_layout_digest(glued5, with_counts=True) == (
        "42d8185199ec7663f11f0f66afaa4f22c798324f84efa41294e0cf75966047e1")


@pytest.mark.parametrize("d, samples, pin", [
    (30, 3, "e3b77430a97c36a26b6016de516d59d0e23aa3c1e1b047562b879bbf83dc2b21"),
    (100, 1, "a19220d35144230433070ea8d7297fea988b05da54d8d869d4524d9ac22f2972"),
], ids=["d30", "d100"])
def test_gluing_layout_pinned_braid_samples(d, samples, pin):
    """The same for seeded braid samples far past the enumerated degrees."""
    rng = random.Random("gluing-%d" % d)
    reals = [realize.graph_from_monodromy(braid_sample(d, rng)) for _ in range(samples)]
    assert gluing_layout_digest(reals, with_counts=True) == pin


def assert_exact_round_trip(t):
    real = realize.graph_from_monodromy(t)
    assert realize.monodromy(real.colored, real.labels).taus == t.taus


def test_exact_round_trip_small_classes(classes4):
    """Extraction gives back the glued tuple itself, not a conjugate: the
    sheets are the blue faces in order and the labels are the positions."""
    for d in (2, 3):
        for cls in hurwitz.enumerate_classes(d):
            assert_exact_round_trip(cls.representative)
    for cls in classes4:
        assert_exact_round_trip(cls.representative)


@settings(max_examples=50, deadline=None)
@given(d=st.integers(2, 30), rng=st.randoms(use_true_random=False))
def test_exact_round_trip_random_tuples(d, rng):
    """On uniform random covers: the tuples of uniform random trees."""
    assert_exact_round_trip(dps.tree_to_tuple(random_tree(rng, d)))


def _first_solutions_digest(cm):
    sols = [sorted(m.items())
            for m in itertools.islice(realize.enumerate_matchings(cm), 50)]
    return len(sols), hashlib.sha256(repr(sols).encode()).hexdigest()


def test_matching_enumeration_order_pinned(corpus6):
    # digests of the first 50 solutions, captured from the recursive search
    assert _first_solutions_digest(colored(maps.octahedron())) == (
        50, "71585a14344b596d3f320767216bb982d0b44f4060a4f44a7041ad436e35d16d")
    cm = corpus6.colored[2105]
    assert cm.m.num_vertices == 6
    assert _first_solutions_digest(cm) == (
        46, "379c1aa2b97fa8bf3681cca3e3b6789c467bcf5fe739d4c9a0f6f5c3075b76aa")


def test_matching_enumeration_ignores_recursion_limit():
    cm = colored(maps.turkshead(100))
    stack_depth = 0
    frame = sys._getframe()
    while frame is not None:
        stack_depth += 1
        frame = frame.f_back
    margin = 50
    assert stack_depth + margin < cm.m.num_edges  # 400 edges, one level each
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth + margin)
    try:
        first = next(realize.enumerate_matchings(cm))
    finally:
        sys.setrecursionlimit(limit)
    assert balance.matching_is_valid(cm, first)


def assert_realizes(cm):
    """realize_generic gives distinct critical labels whose monodromy
    reglues to the input diagram."""
    counts, labels = realize.realize_generic(cm)
    assert sorted(labels.values()) == list(range(1, cm.m.num_vertices + 1))
    t = realize.monodromy(cm, labels)
    assert realize.graph_from_monodromy(t).colored.colored_code() == cm.colored_code()


def test_balanced_corpus_maps_realize_and_reglue(corpus6):
    balanced = [cm for cm in corpus6.colored if balance.is_balanced(cm).balanced]
    assert len(balanced) == 18
    for cm in balanced:
        assert_realizes(cm)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 12, 30])
def test_turkshead_realizes_and_reglues(n):
    assert_realizes(colored(maps.turkshead(n)))


def braid_sample(d, rng):
    """A degree-d cover reached from ((1 2), (1 2), (2 3), (2 3), ...) by
    20 d^2 random Hurwitz moves (t_i, t_i+1) -> (t_i+1, t_i+1 t_i t_i+1) and
    a random conjugation.  By Clebsch-Hurwitz the moves reach every cover.
    """
    taus = [(a, a + 1) for a in range(1, d) for _ in range(2)]
    for _ in range(20 * d * d):
        i = rng.randrange(len(taus) - 1)
        a, b = taus[i + 1]
        x, y = ({a: b, b: a}.get(p, p) for p in taus[i])
        taus[i], taus[i + 1] = taus[i + 1], (min(x, y), max(x, y))
    g = list(range(1, d + 1))
    rng.shuffle(g)
    return conjugate(realize.TranspositionTuple(d, tuple(taus)), (0,) + tuple(g))


def braid_sample_map(d, rng):
    """The diagram of braid_sample(d, rng), its darts relabeled at random."""
    cm = realize.graph_from_monodromy(braid_sample(d, rng)).colored
    perm = list(range(1, cm.m.n + 1))
    rng.shuffle(perm)
    perm = (0,) + tuple(perm)
    m = relabeled(cm.m, perm)
    blue = {m.face_of[perm[cm.m.faces[f][0]]] for f in cm.blue_faces}
    return maps.ColoredMap(m, blue)


@pytest.mark.parametrize("d", [7, 8, 10, 12, 16, 20])
def test_realize_braid_samples(d):
    rng = random.Random("braid-%d" % d)
    for _ in range(3):
        assert_realizes(braid_sample_map(d, rng))


def test_is_realizable_braid_samples():
    rng = random.Random("braid-small")
    for d in (2, 3, 4, 5, 7, 10, 20):
        for _ in range(4):
            assert realize.is_realizable(braid_sample_map(d, rng))


def pinch_in(cm, faces, rng):
    """Pinch two distinct edges of a random face among ``faces``."""
    m = cm.m
    f = rng.choice([f for f in sorted(faces)
                    if len({m.edge_of(x) for x in m.faces[f]}) > 1])
    a, b = rng.sample(m.faces[f], 2)
    while m.edge_of(a) == m.edge_of(b):
        a, b = rng.sample(m.faces[f], 2)
    return maps.pinch(cm, a, b)


def pinched_covers(seed, degrees, samples):
    """Seeded uniform random covers of a degree in ``degrees``, each
    pinched once in a blue and once in a white face."""
    rng = random.Random(seed)
    for _ in range(samples):
        t = dps.tree_to_tuple(random_tree(rng, rng.randint(*degrees)))
        cm = realize.graph_from_monodromy(t).colored
        cm = pinch_in(cm, cm.blue_faces, rng)
        yield pinch_in(cm, cm.white_faces, rng)


def test_realize_generic_agrees_with_balance(corpus6):
    """realize_generic decides from the face equations alone.  On every
    corpus colouring and a seeded pinch of each, a negative verdict
    carries is_balanced's witness, and a positive one gives labels that
    are a bijection onto 1..V and counts that solve the face equations."""
    rng = random.Random("realize-witness")
    verdicts = Counter()
    for base in corpus6.colored:
        for cm in (base, pinch_in(base, range(base.m.num_faces), rng)):
            rep = balance.is_balanced(cm)
            try:
                counts, labels = realize.realize_generic(cm)
            except NotBalanced as exc:
                assert not rep.balanced and exc.witness == rep.witness
                verdicts["negative"] += 1
                continue
            assert rep.balanced
            assert sorted(labels) == sorted(cm.m.vertex_ids())
            assert sorted(labels.values()) == list(range(1, cm.m.num_vertices + 1))
            assert balance.matching_is_valid(cm, counts)
            verdicts["positive"] += 1
    assert verdicts == {"positive": 18, "negative": 4246}


@pytest.mark.parametrize("seed, degrees, oracle, samples", [
    ("pinched-covers", (3, 5), "both", 200),
    ("pinched-covers-flow", (6, 30), "flow", 100),
], ids=["d3-5", "d6-30"])
def test_theorem_on_pinched_random_covers(seed, degrees, oracle, samples):
    """Beyond the corpus: uniform random covers, pinched once in a blue and
    once in a white face, keep equal face counts.  At degrees 3..5 they
    reach V <= 10 and the flow and curve oracles agree; past the curve
    oracle's cap of 10 vertices the flow decides alone.  Every failed flow
    names a Hall violator, and balanced <=> realizable."""
    local = 0
    for cm in pinched_covers(seed, degrees, samples):
        assert oracle == "flow" or cm.m.num_vertices <= 10
        rep = balance.is_balanced(cm, oracle=oracle)
        assert rep.global_ok
        ok, _, info = balance.check_balance_flow(cm)
        if info is not None and not ok:
            assert_hall_violator(cm, info)
        assert realize.is_realizable(cm) == rep.balanced
        local += rep.jordan_ok and not rep.local_ok
    assert local >= 20


def verdicts(cm):
    return (balance.is_balanced(cm).balanced, realize.is_realizable(cm),
            balance.check_balance_flow(cm)[0])


def test_verdicts_survive_swap_and_mirror(corpus6):
    """Swapping the colours is f^-1 of the reversed curve, and the mirror
    is the conjugate cover's preimage of the mirrored curve, so neither
    changes any verdict: on corpus6 and on both sets of pinched covers.
    Most inputs are chiral, so the mirror is another coloured map."""
    inputs = [*corpus6.colored, *pinched_covers("pinched-covers", (3, 5), 200),
              *pinched_covers("pinched-covers-flow", (6, 30), 100)]
    balanced = chiral = 0
    for cm in inputs:
        v = verdicts(cm)
        assert len(set(v)) == 1
        mirrored = mirror(cm)
        assert verdicts(cm.swapped()) == verdicts(mirrored) == v
        assert mirror(mirrored).colored_code() == cm.colored_code()
        balanced += v[0]
        chiral += mirrored.colored_code() != cm.colored_code()
    assert (len(inputs), balanced, chiral) == (2432, 156, 1539)

import hashlib

import pytest

from balmaps import corpus, maps
from balmaps.errors import InvalidInput, LimitExceeded

# first 16 hex digits of sha256(repr([m.alpha for m in maps])): the kept
# representatives and their order, pinned
ALPHA_DIGESTS = {
    1: "e59e1ef76dda1de0",
    2: "ef06bf55d6db3822",
    3: "0621e86edb685a2e",
    4: "ffa6a720f9e0499f",
    5: "3429bcfc7bad7135",
    6: "faac3a537fc5f9c5",
    7: "8960d1dffb5db0fb",
}


def _alpha_digest(ms):
    return hashlib.sha256(repr([m.alpha for m in ms]).encode()).hexdigest()[:16]


def _relabeled_alpha(m, root):
    """alpha after relabeling from ``root``: the root's vertex gets 1..4 in
    sigma order, and darts are scanned in new-label order, each unlabeled
    partner opening the next vertex with its own dart first."""
    new, order = {}, []

    def open_vertex(x):
        y = x
        while True:
            new[y] = len(order) + 1
            order.append(y)
            y = m.sigma[y]
            if y == x:
                return

    open_vertex(root)
    out = [0]
    for x in order:
        partner = m.alpha[x]
        if partner not in new:
            open_vertex(partner)
        out.append(new[partner])
    return tuple(out)


def test_mass_formula_small():
    """Exhaustiveness: sum of 4V/|Aut| over classes equals the number of
    rooted 4-valent sphere maps, which has a closed form."""
    for v in (1, 2, 3, 4, 5):
        ms = corpus.enumerate_four_valent(v)
        mass = sum(4 * v // len(m.canonical_roots()) for m in ms)
        assert mass == corpus.rooted_count(v)


@pytest.mark.parametrize("v", [1, 2, 3, 4, 5])
def test_alpha_lists_pinned(v):
    assert _alpha_digest(corpus.enumerate_four_valent(v)) == ALPHA_DIGESTS[v]


def test_alpha_list_pinned_six(corpus6):
    six = [m for m in corpus6.uncolored if m.num_vertices == 6]
    assert _alpha_digest(six) == ALPHA_DIGESTS[6]


def _assert_orderly(ms):
    """Each kept alpha is the least relabeling over all roots, and the roots
    that reproduce it are exactly the automorphisms."""
    for m in ms:
        relabelings = [_relabeled_alpha(m, r) for r in range(1, m.n + 1)]
        assert min(relabelings) == m.alpha
        assert relabelings.count(m.alpha) == len(m.canonical_roots())


@pytest.mark.parametrize("v", [1, 2, 3, 4, 5])
def test_orderly_representatives(v):
    _assert_orderly(corpus.enumerate_four_valent(v))


def test_orderly_representatives_six(corpus6):
    six = [m for m in corpus6.uncolored if m.num_vertices == 6]
    assert len(six) == 1070
    _assert_orderly(six)


def test_seven_vertices():
    """V=7 is past the build_corpus cap, so it is enumerated directly: the
    class count, the mass formula and the pinned representatives."""
    ms = corpus.enumerate_four_valent(7)
    assert len(ms) == 7515
    mass = sum(4 * 7 // len(m.canonical_roots()) for m in ms)
    assert mass == corpus.rooted_count(7)
    assert _alpha_digest(ms) == ALPHA_DIGESTS[7]
    for m in ms:
        first, second = maps.checkerboard(m)
        assert first.swaps_colors() == (
            first.colored_code() == second.colored_code())


@pytest.mark.parametrize("v", [0, -1])
def test_nonpositive_vertex_count_rejected(v):
    with pytest.raises(InvalidInput, match="n_vertices"):
        corpus.enumerate_four_valent(v)


def test_nine_vertices_refused_before_work():
    # the search would run for hours, so the cap must act before it starts
    with pytest.raises(LimitExceeded, match="capped at 8 vertices"):
        corpus.enumerate_four_valent(9)


def test_seven_vertex_corpus_refused_before_work(monkeypatch):
    def enumerate_four_valent(v):
        raise AssertionError("enumerated %d vertices" % v)
    monkeypatch.setattr(corpus, "enumerate_four_valent", enumerate_four_valent)
    with pytest.raises(LimitExceeded, match="corpus generation capped at 6 vertices"):
        corpus.build_corpus(7)


def test_known_small_counts():
    assert len(corpus.enumerate_four_valent(1)) == 1
    assert len(corpus.enumerate_four_valent(2)) == 3


def test_mass_formula_six(corpus6):
    by_v = {}
    for m in corpus6.uncolored:
        by_v.setdefault(m.num_vertices, []).append(m)
    assert sorted(by_v) == [2, 4, 6]
    for v, ms in by_v.items():
        mass = sum(4 * v // len(m.canonical_roots()) for m in ms)
        assert mass == corpus.rooted_count(v)


def test_corpus_contains_named_maps(corpus6):
    codes = {m.canonical_code() for m in corpus6.uncolored}
    assert maps.quadratic().canonical_code() in codes
    assert maps.turkshead(1).canonical_code() in codes
    assert maps.octahedron().canonical_code() in codes
    assert maps.turkshead(2).canonical_code() in codes


def test_corpus_contains_census_graphs(corpus6, census4):
    codes = {m.canonical_code() for m in corpus6.uncolored}
    for entry in census4:
        assert entry.underlying in codes


def test_colored_corpus_deduplicated(corpus6):
    codes = [cm.colored_code() for cm in corpus6.colored]
    assert len(codes) == len(set(codes))


def test_colored_corpus_matches_colored_code_dedup(corpus6):
    """The automorphism split keeps exactly the colourings that a dedup by
    colored code keeps, in the same order, so none is wrongly dropped."""
    seen, colored = set(), []
    for m in corpus6.uncolored:
        for cm in maps.checkerboard(m):
            code = cm.colored_code()
            if code not in seen:
                seen.add(code)
                colored.append(cm)
    assert colored == corpus6.colored


def test_one_least_root_scan_per_map(monkeypatch):
    """Building corpus6, coding both colourings of every map and listing
    its canonical roots scans each map's roots once; with the map's code
    cached, a colouring's code traces no root: it reads the least root's
    labels kept by the scan."""
    scanned, traced = [], []
    scan, trace = maps.CombinatorialMap._least_root, maps.CombinatorialMap._bfs_trace

    def scan_spy(self):
        scanned.append(self)
        return scan(self)

    def trace_spy(self, root, bound=None):
        traced.append(root)
        return trace(self, root, bound)
    monkeypatch.setattr(maps.CombinatorialMap, "_least_root", scan_spy)
    c = corpus.build_corpus(6)
    for m in c.uncolored:
        for cm in maps.checkerboard(m):
            cm.colored_code()
        m.canonical_roots()
    assert len(scanned) == len(c.uncolored) == 1106
    assert len(set(map(id, scanned))) == 1106
    monkeypatch.setattr(maps.CombinatorialMap, "_bfs_trace", trace_spy)
    for cm in c.colored:
        traced.clear()
        maps.ColoredMap(cm.m, cm.blue_faces, check=False).colored_code()
        assert traced == []
    assert len(scanned) == 1106


@pytest.mark.parametrize("v", [1, 0, -1])
def test_corpus_below_two_vertices_rejected(v):
    with pytest.raises(InvalidInput, match="max_vertices"):
        corpus.build_corpus(v)


def test_corpus_vertices_even(corpus6):
    assert all(cm.m.num_vertices in (2, 4, 6) for cm in corpus6.colored)

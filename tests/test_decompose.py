import hashlib
import itertools
import json
import random
import sys
from collections import Counter

import pytest

from balmaps import balance, decompose, dps, maps, realize
from balmaps.corpus import build_corpus, enumerate_four_valent
from balmaps.errors import ColorMismatch, InvalidArc, InvalidRectangle, MapError
from tests.test_dps import random_tree
from tests.test_maps import relabeled_colored
from tests.test_realize import pinch_in


class NotApplicable(MapError):
    """A four-point cut that the classifier declines to split."""


def colored(m):
    return maps.checkerboard(m)[0]


def split_two_cut(cm, cut):
    """Split along a listed two-point curve; on each side the two
    half-edges fuse into one edge through a regular point."""
    a, b = cut.darts
    ys = (a, cm.m.alpha[b])
    return decompose._fuse(cm, ys, *decompose._cut_sides(cm.m, ys, 1), [0], [0])


def split_four_cut(cm, cut):
    """Split along a four-point curve, or raise NotApplicable with the
    classifier's reason: odd/odd sides each collapse their wound to a new
    vertex, even/even sides (under global balance) seal by folding."""
    verdict = decompose._classify(cm, cut.darts)
    if isinstance(verdict, str):
        raise NotApplicable(verdict)
    return decompose._split_four(cm, cut.darts, *verdict)


def applicable_four_cuts(cm):
    """Four-point cuts whose split applies (odd/odd always; even/even only
    under global balance)."""
    return [decompose.CutCurve("four_point", ys) for ys in decompose._four_cut_candidates(cm.m)
            if not isinstance(decompose._classify(cm, ys), str)]


def test_quadratic_has_no_cuts():
    cq = colored(maps.quadratic())
    assert decompose.find_two_cuts(cq) == []
    assert decompose.find_four_cuts(cq) == []


def test_quadratic_leaf():
    tree = decompose.decompose_full(colored(maps.quadratic()))
    assert [l.kind for l in tree.leaves()] == ["quadratic"]


@pytest.mark.parametrize("make", [maps.octahedron,
                                  lambda: maps.turkshead(3),
                                  lambda: maps.turkshead(4),
                                  lambda: maps.turkshead(5)])
def test_hyperbolic_examples(make):
    cm = colored(make())
    assert decompose.find_two_cuts(cm) == []
    assert applicable_four_cuts(cm) == []
    tree = decompose.decompose_full(cm)
    assert [l.kind for l in tree.leaves()] == ["hyperbolic"]


def _rect_darts(cm, face):
    orbit = cm.m.faces[face]
    return orbit[0], orbit[1]


def _rectangles(a, b, seed=0):
    """Random rectangles in a white face of a and a blue face of b, as
    (da1, da2, db1, db2), or None if their sides share an edge or an
    opposite face."""
    rng = random.Random(seed)
    wa = rng.choice(sorted(a.white_faces))
    bb = rng.choice(sorted(b.blue_faces))
    oa = a.m.faces[wa]
    ob = b.m.faces[bb]
    ia = rng.randrange(len(oa) - 1)
    ib = rng.randrange(len(ob) - 1)
    da1, da2 = oa[ia], oa[ia + 1]
    db1, db2 = ob[ib], ob[ib + 1]
    if a.m.edge_of(da1) == a.m.edge_of(da2) or b.m.edge_of(db1) == b.m.edge_of(db2):
        return None
    opp_a = {a.m.face_of[a.m.alpha[da1]], a.m.face_of[a.m.alpha[da2]]}
    opp_b = {b.m.face_of[b.m.alpha[db1]], b.m.face_of[b.m.alpha[db2]]}
    if len(opp_a) != 2 or len(opp_b) != 2:
        return None
    return da1, da2, db1, db2


def _sum_pair(a, b, seed=0):
    """Murasugi sum of a and b along canonical rectangles; returns the sum
    and its gluing curve."""
    darts = _rectangles(a, b, seed)
    if darts is None:
        return None
    da1, da2, db1, db2 = darts
    s = decompose.murasugi_sum(a, da1, da2, b, db1, db2)
    curve = decompose.gluing_curve(a, b, s, da1, da2, db1, db2)
    return s, curve


def test_two_cut_round_trip():
    # build a composite with a 2-cut by doubling an edge structure: sum two
    # quadratics, then check the constructed 4-cut; 2-cut detection is
    # covered through composite pieces below
    a = colored(maps.quadratic())
    b = colored(maps.quadratic())
    res = _sum_pair(a, b, 1)
    assert res is not None
    s, curve = res
    p1, p2 = split_four_cut(s, curve)
    assert sorted([p1.colored_code(), p2.colored_code()]) == \
        sorted([a.colored_code(), b.colored_code()])


def test_murasugi_round_trips_many():
    pieces = [colored(maps.quadratic()), colored(maps.octahedron()),
              colored(maps.turkshead(2)), colored(maps.turkshead(3))]
    done = 0
    for seed in range(200):
        a, b = random.Random(seed).sample(pieces, 2)
        res = _sum_pair(a, b, seed)
        if res is None:
            continue
        s, curve = res
        fours = decompose.find_four_cuts(s)
        assert curve.darts in [decompose._four_cut_canonical(s.m, c.darts) for c in fours]
        p1, p2 = split_four_cut(s, curve)
        assert sorted([p1.colored_code(), p2.colored_code()]) == \
            sorted([a.colored_code(), b.colored_code()])
        done += 1
        if done >= 50:
            break
    assert done >= 50


def test_murasugi_sum_in_both_orders():
    """The summand with the blue rectangle may come first: the sum and
    its gluing curve put it behind the white one, so both argument orders
    give the same sum and curve, and the curve splits it back into both
    summands."""
    pieces = [colored(maps.quadratic()), colored(maps.octahedron()),
              colored(maps.turkshead(2)), colored(maps.turkshead(3))]
    for a, b in itertools.permutations(pieces, 2):
        da1, da2, db1, db2 = next(filter(None, (_rectangles(a, b, seed) for seed in range(50))))
        s = decompose.murasugi_sum(a, da1, da2, b, db1, db2)
        assert decompose.murasugi_sum(b, db1, db2, a, da1, da2) == s
        curve = decompose.gluing_curve(a, b, s, da1, da2, db1, db2)
        assert decompose.gluing_curve(b, a, s, db1, db2, da1, da2) == curve
        p1, p2 = split_four_cut(s, curve)
        assert sorted([p1.colored_code(), p2.colored_code()]) == \
            sorted([a.colored_code(), b.colored_code()])


def test_murasugi_rejects_same_colors():
    a = colored(maps.quadratic())
    b = colored(maps.quadratic())
    wa = next(iter(a.white_faces))
    wb = next(iter(b.white_faces))
    oa, ob = a.m.faces[wa], b.m.faces[wb]
    with pytest.raises(ColorMismatch):
        decompose.murasugi_sum(a, oa[0], oa[1], b, ob[0], ob[1])


def test_murasugi_rejects_bad_rectangle():
    a = colored(maps.quadratic())
    b = colored(maps.quadratic())
    wa = next(iter(a.white_faces))
    bb = next(iter(b.blue_faces))
    oa, ob = a.m.faces[wa], b.m.faces[bb]
    with pytest.raises(InvalidRectangle, match="corners must lie on one face"):
        decompose.murasugi_sum(a, oa[0], a.m.alpha[oa[0]], b, ob[0], ob[1])
    with pytest.raises(InvalidRectangle, match="sides must sit on distinct edges"):
        decompose.murasugi_sum(a, oa[0], oa[0], b, ob[0], ob[1])


def test_sum_decomposes_into_standard_pieces():
    # the greedy canonical order need not undo the gluing curve itself
    # (confluence is open), but every leaf must be quadratic or hyperbolic
    # and the result deterministic
    a = colored(maps.quadratic())
    b = colored(maps.octahedron())
    res = _sum_pair(b, a, 3) or _sum_pair(a, b, 3)
    s, _ = res
    kinds = sorted(l.kind for l in decompose.decompose_full(s).leaves())
    assert len(kinds) >= 2
    assert set(kinds) <= {"hyperbolic", "quadratic"}
    assert kinds == sorted(l.kind for l in decompose.decompose_full(s).leaves())


def test_collapse_arc_turkshead():
    cm = colored(maps.turkshead(4))
    blue_face = max(cm.blue_faces, key=lambda f: len(cm.m.faces[f]))
    orb = cm.m.faces[blue_face]
    once = decompose.collapse_arc(cm, orb[0], orb[2])
    assert once.m.num_vertices == 9
    assert not balance.check_global(once)
    assert abs(len(once.blue_faces) - (once.m.num_faces - len(once.blue_faces))) == 1
    white_face = max(once.white_faces, key=lambda f: len(once.m.faces[f]))
    orb2 = once.m.faces[white_face]
    both = decompose.collapse_arc(once, orb2[0], orb2[2])
    assert both.m.num_vertices == 10
    assert balance.check_global(both)


def test_collapse_arc_rejects_non_consecutive():
    cm = colored(maps.turkshead(4))
    blue_face = max(cm.blue_faces, key=lambda f: len(cm.m.faces[f]))
    orb = cm.m.faces[blue_face]
    with pytest.raises(InvalidArc, match="first and third of three"):
        decompose.collapse_arc(cm, orb[0], orb[1])


def test_collapse_arc_rejects_one_edge():
    """Around a bigon the third boundary edge is the first one again."""
    q = colored(maps.quadratic())
    d = q.m.faces[0][0]
    with pytest.raises(InvalidArc, match="ends must sit on distinct edges"):
        decompose.collapse_arc(q, d, d)


def closed_face_walks(m):
    """From every dart y1, walk the whole faces of y1, y2 and y3 for the
    next crossing; the walks (y1, y2, y3, y4) that close up through four
    distinct edges."""
    for y1 in range(1, m.n + 1):
        for a2 in m.faces[m.face_of[y1]]:
            y2 = m.alpha[a2]
            for a3 in m.faces[m.face_of[y2]]:
                y3 = m.alpha[a3]
                for a4 in m.faces[m.face_of[y3]]:
                    y4 = m.alpha[a4]
                    ys = (y1, y2, y3, y4)
                    if (m.face_of[m.alpha[y1]] == m.face_of[y4]
                            and len({m.edge_of(d) for d in ys}) == 4):
                        yield ys


def flooded_sides(m, ys):
    """The vertex sets left connected once the edges of ``ys`` are cut,
    flooded over the uncut edges."""
    cut = set(ys) | {m.alpha[y] for y in ys}
    nbrs = {v: set() for v in m.vertex_ids()}
    for x in range(1, m.n + 1):
        if x not in cut:
            nbrs[m.vertex_of[x]].add(m.vertex_of[m.alpha[x]])
    sides, left = [], set(nbrs)
    while left:
        todo = [left.pop()]
        side = set(todo)
        while todo:
            new = nbrs[todo.pop()] - side
            side |= new
            todo.extend(new)
        left -= side
        sides.append(side)
    return sides


def least_form(m, ys):
    """The least rotation of a walk or of its reverse, which crosses the
    same edges in the opposite order, each through its other dart."""
    back = tuple(m.alpha[y] for y in reversed(ys))
    return min(t[r:] + t[:r] for t in (ys, back) for r in range(len(ys)))


def three_face_walk(cm):
    """Reference for find_four_cuts, from the definitions and with none of
    decompose's kernels: the closed face walks, each in its least form to
    drop repeats, whose edges cut the map into exactly two sides of at
    least two vertices each."""
    m = cm.m
    seen = set()
    out = []
    for ys in closed_face_walks(m):
        sig = least_form(m, ys)
        if sig in seen:
            continue
        seen.add(sig)
        sides = flooded_sides(m, ys)
        if len(sides) == 2 and min(map(len, sides)) >= 2:
            out.append(decompose.CutCurve("four_point", sig))
    out.sort(key=lambda c: c.darts)
    return out


def test_two_sided_face_walks_cross_one_way():
    """Why _cut_sides checks no crossing's direction: a closed face walk
    over distinct edges whose removal leaves two components can be drawn
    as a simple closed curve (a walk that must cross itself leaves three),
    which crosses every edge from its base's side to its head's.  Checked
    on every four-edge walk and every two-point candidate."""
    rng = random.Random(15)
    cms = list(build_corpus(4).colored) + list(itertools.islice(pinched_covers(rng), 30))
    two_sided = 0
    for cm in cms:
        m = cm.m
        walks = [(a, m.alpha[b]) for a, b in decompose._two_cut_candidates(m)]
        for ys in walks + list(closed_face_walks(m)):
            comps = decompose._side_components(m, ys)
            if len(comps) == 2:
                two_sided += 1
                heads = {m.vertex_of[m.alpha[y]] for y in ys}
                bases = {m.vertex_of[y] for y in ys}
                assert heads <= comps[0] and bases <= comps[1] or (
                    heads <= comps[1] and bases <= comps[0]), (cm, ys)
    assert two_sided > 5000


def random_cover(rng, d):
    """A uniform random cover of degree d, as its colored diagram."""
    return realize.graph_from_monodromy(dps.tree_to_tuple(random_tree(rng, d))).colored


def pinched_covers(rng):
    """One random cover per degree 3..40, pinched 0, 1 and 2 times."""
    for d in range(3, 41):
        cm = random_cover(rng, d)
        once = pinch_in(cm, cm.blue_faces, rng)
        yield from (cm, once, pinch_in(once, once.white_faces, rng))


def relabeled_turksheads(rng):
    """turkshead(3..40) under a random dart relabeling, plain and pinched."""
    for n in range(3, 41):
        cm = relabeled_colored(colored(maps.turkshead(n)), rng)
        yield from (cm, pinch_in(cm, cm.blue_faces, rng))


@pytest.mark.parametrize("family", ["corpus6", "covers", "turksheads"])
def test_four_cuts_match_three_face_walk(family, request):
    """The quadrangle listing gives the three-face walk's cuts: the same
    darts in the same order."""
    rng = random.Random("four-cuts-" + family)
    cms = {"corpus6": lambda: request.getfixturevalue("corpus6").colored,
           "covers": lambda: pinched_covers(rng),
           "turksheads": lambda: relabeled_turksheads(rng)}[family]()
    cuts = 0
    for cm in cms:
        expected = three_face_walk(cm)
        assert decompose.find_four_cuts(cm) == expected
        cuts += len(expected)
    assert cuts > 0


def assert_split_accounting(cm, cut, p1, p2):
    """A 2-cut and an even/even 4-cut keep the vertex count; an odd/odd
    4-cut adds one vertex per side."""
    total = p1.m.num_vertices + p2.m.num_vertices
    if cut.kind == "four_point" and len(decompose._cut_sides(cm.m, cut.darts, 2)[0]) % 2:
        assert total == cm.m.num_vertices + 2
    else:
        assert total == cm.m.num_vertices


@pytest.mark.parametrize("d", [20, 50, 100])
def test_decomposition_of_random_covers(d):
    """Random covers up to degree 100 decompose into quadratic and
    hyperbolic leaves that have no cut left, with the vertex count kept
    at every split."""
    rng = random.Random("decompose-covers-%d" % d)
    for _ in range(3):
        tree = decompose.decompose_full(random_cover(rng, d))
        assert len(tree.leaves()) > 1
        stack = [tree]
        while stack:
            node = stack.pop()
            if node.pieces is None:
                assert node.kind in ("quadratic", "hyperbolic")
                assert decompose.find_two_cuts(node.map) == []
                assert applicable_four_cuts(node.map) == []
                continue
            p1, p2 = (piece.map for piece in node.pieces)
            assert_split_accounting(node.map, node.cut, p1, p2)
            stack += node.pieces


def test_four_cut_vertex_accounting(corpus6):
    checked = 0
    for cm in corpus6.colored:
        if checked >= 40:
            break
        for cut in applicable_four_cuts(cm):
            assert_split_accounting(cm, cut, *split_four_cut(cm, cut))
            checked += 1
            break


def test_two_cut_vertex_accounting(corpus6):
    checked = 0
    for cm in corpus6.colored:
        cuts = decompose.find_two_cuts(cm)
        if not cuts:
            continue
        assert_split_accounting(cm, cuts[0], *split_two_cut(cm, cuts[0]))
        checked += 1
        if checked >= 40:
            break
    assert checked > 0


def test_leaf_soundness(corpus6):
    rng = random.Random(4)
    sample = rng.sample(corpus6.colored, 60)
    for cm in sample:
        tree = decompose.decompose_full(cm)
        for leaf in tree.leaves():
            assert decompose.find_two_cuts(leaf.map) == []
            assert applicable_four_cuts(leaf.map) == []
            if leaf.kind == "quadratic":
                assert maps.isomorphic(leaf.map.m, maps.quadratic())


def _quadratic_chain(n):
    """A Murasugi sum of n quadratics, each glued into the least white face
    of the sum so far."""
    q = colored(maps.quadratic())
    s = q
    ob = q.m.faces[min(q.blue_faces)]
    for _ in range(n - 1):
        oa = s.m.faces[min(s.white_faces)]
        s = decompose.murasugi_sum(s, oa[0], oa[1], q, ob[0], ob[1])
    return s


def _tree_digest(cms):
    data = [decompose.decompose_full(cm).to_dict() for cm in cms]
    return hashlib.sha256(json.dumps(data, separators=(",", ":")).encode()).hexdigest()


def test_decomposition_pinned_corpus(corpus6):
    assert _tree_digest(corpus6.colored) == \
        "f592b9e4ad7f313786570333be030b500f467f04cc39ccb9998fa33c59c406d1"


def test_decomposition_pinned_turksheads_and_chains():
    assert _tree_digest(colored(maps.turkshead(n)) for n in range(3, 9)) == \
        "63eac9fd9e335e16306d93f6bf848cc2c1e5396ffdd49be9b36bce5694a536b3"
    chains = [_quadratic_chain(n) for n in (5, 10, 20)]
    assert [cm.m.num_vertices for cm in chains] == [10, 20, 40]
    assert _tree_digest(chains) == \
        "92242c6b39b1144a5a268ee49dfe717bf87068fc1576ad8099776e88231a120f"


def test_decomposition_ignores_recursion_limit():
    """A 16-piece chain decomposes, lists its leaves and serializes with
    only twelve nested calls left below the recursion limit, though its
    tree is 16 levels deep.  Twelve leaves room for the deepest chain of
    helpers below decompose_full (eight calls, down to the piece's
    4-valence check), not for one call per level."""
    from tests.conftest import headroom

    def depth(tree):
        return 1 if tree.pieces is None else 1 + max(map(depth, tree.pieces))

    cm = _quadratic_chain(16)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit - headroom() + 12)
    try:
        tree = decompose.decompose_full(cm)
        kinds = [leaf.kind for leaf in tree.leaves()]
        data = tree.to_dict()
    finally:
        sys.setrecursionlimit(limit)
    assert depth(tree) == 16
    assert kinds == ["quadratic"] * 16
    assert data == decompose.decompose_full(cm).to_dict()


def test_even_even_cut_needs_global_balance(corpus6):
    refused = 0
    for cm in corpus6.colored:
        if balance.check_global(cm):
            continue
        for cut in decompose.find_four_cuts(cm):
            try:
                p1, p2 = split_four_cut(cm, cut)
            except NotApplicable as exc:
                assert str(exc) == "even/even cut needs global balance"
                refused += 1
            else:
                # V is even, so every other cut is odd/odd and adds a vertex per side
                assert p1.m.num_vertices + p2.m.num_vertices == cm.m.num_vertices + 2
    assert refused == 2600


def test_mixed_parity_cut_of_pinched_map():
    cm = colored(maps.turkshead(3))
    orb = cm.m.faces[min(cm.blue_faces)]
    pinched = maps.pinch(cm, orb[0], orb[1])
    assert pinched.m.num_vertices == 7
    cuts = decompose.find_four_cuts(pinched)
    assert cuts
    assert applicable_four_cuts(pinched) == []
    for cut in cuts:
        with pytest.raises(NotApplicable, match="mixed-parity"):
            split_four_cut(pinched, cut)


def test_only_the_quadratic_is_a_quadratic_leaf():
    # a leaf is quadratic when it has 2 vertices, because the other two
    # 2-vertex maps always have a 2-cut
    seen = []  # (has a quadratic leaf, is the quadratic) per colored map
    for m in enumerate_four_valent(2):
        for cm in maps.checkerboard(m):
            is_quadratic = maps.isomorphic(m, maps.quadratic())
            assert bool(decompose.find_two_cuts(cm)) != is_quadratic
            leaves = [l.kind for l in decompose.decompose_full(cm).leaves()]
            seen.append(("quadratic" in leaves, is_quadratic))
    assert sorted(seen) == [(False, False)] * 4 + [(True, True)] * 2


def test_malformed_four_cut_is_not_applicable():
    cm = build_corpus(4).colored[42]
    with pytest.raises(NotApplicable, match="not a valid four-point cut"):
        split_four_cut(cm, decompose.CutCurve("four_point", (4, 6, 8, 7)))


def test_random_four_cuts_raise_only_map_errors():
    rng = random.Random(4)
    outcomes = Counter()
    for cm in build_corpus(4).colored:
        m = cm.m
        for _ in range(100):
            if rng.random() < 0.3:
                ys = [rng.randrange(-1, m.n + 2) for _ in range(4)]
            else:
                # a face walk, closed up when some crossing allows it
                ys = [rng.randrange(1, m.n + 1)]
                for _ in range(3):
                    ys.append(m.alpha[rng.choice(m.faces[m.face_of[ys[-1]]])])
                closing = [m.alpha[c] for c in m.faces[m.face_of[ys[2]]]
                           if m.face_of[c] == m.face_of[m.alpha[ys[0]]]]
                if closing:
                    ys[3] = rng.choice(closing)
            try:
                split_four_cut(cm, decompose.CutCurve("four_point", tuple(ys)))
            except MapError as exc:
                outcomes[str(exc)] += 1
            else:
                outcomes["split"] += 1
    assert outcomes["split"] > 0
    assert outcomes["not a valid four-point cut"] > 0
    assert outcomes["even/even cut needs global balance"] > 0

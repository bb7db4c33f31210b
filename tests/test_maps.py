import collections
import hashlib
import itertools
import operator
import random

import pytest

from balmaps import maps
from balmaps.errors import (
    AlphaHasFixedPoint,
    AlphaNotInvolution,
    Disconnected,
    InvalidInput,
    InvalidPinch,
    MapError,
    NonZeroGenus,
    NotFourValent,
)
from tests.conftest import dual_code, dual_decoration, dual_of, face_bit_decoration, mirror
from tests.test_hurwitz import load_fixture


def relabeled(m, perm):
    """Conjugate sigma and alpha by a dart permutation (an isomorphic copy)."""
    sigma = [0] * (m.n + 1)
    alpha = [0] * (m.n + 1)
    for d in range(1, m.n + 1):
        sigma[perm[d]] = perm[m.sigma[d]]
        alpha[perm[d]] = perm[m.alpha[d]]
    return maps.CombinatorialMap(sigma, alpha)


def isomorphism_brute_force(a, b):
    """Search all dart bijections for one commuting with sigma and alpha.

    Exponential; a test oracle for maps with at most ~8 darts.
    """
    if a.n != b.n:
        return None
    darts = range(1, a.n + 1)
    for images in itertools.permutations(darts):
        perm = (0,) + images
        ok = True
        for d in darts:
            if (perm[a.sigma[d]] != b.sigma[perm[d]]
                    or perm[a.alpha[d]] != b.alpha[perm[d]]):
                ok = False
                break
        if ok:
            return perm
    return None


def figure_eight():
    return maps.build_map([[1, 2, 3, 4]], [[1, 2], [3, 4]], 4)


def test_quadratic_counts():
    q = maps.quadratic()
    assert (q.num_vertices, q.num_edges, q.num_faces) == (2, 4, 4)
    assert q.is_four_valent()


def test_octahedron_counts():
    o = maps.octahedron()
    assert (o.num_vertices, o.num_edges, o.num_faces) == (6, 12, 8)
    assert all(len(f) == 3 for f in o.faces)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7])
def test_turkshead_counts(n):
    t = maps.turkshead(n)
    assert (t.num_vertices, t.num_edges, t.num_faces) == (2 * n, 4 * n, 2 * n + 2)


def test_octahedron_is_turkshead_three():
    assert maps.isomorphic(maps.octahedron(), maps.turkshead(3))


def test_generator_tables_pinned():
    """One sha256 over the exact sigma and alpha tables of the generators,
    so that no rewrite of them renumbers a dart."""
    h = hashlib.sha256()
    for m in [maps.quadratic(), maps.octahedron()] + [maps.turkshead(n) for n in range(1, 41)]:
        h.update(repr((m.sigma, m.alpha)).encode())
    assert h.hexdigest() == "25ade906eedb37e565cffcce79a78159e8c6571e3f1dedc9d417d25cc6b4f6d8"


def test_build_map_errors():
    # each case pins the check that fires first, by class and message
    cases = [
        # singleton alpha cycles are rejected as non-pairs by the builder
        (lambda: maps.build_map([[1, 2], [3, 4]], [[1, 2], [3], [4]], 4),
         AlphaNotInvolution, "alpha must be given as dart pairs"),
        (lambda: maps.CombinatorialMap((0, 2, 1, 4, 3), (0, 2, 1, 3, 4)),
         AlphaHasFixedPoint, "alpha fixes dart 3"),
        (lambda: maps.build_map([[1, 2, 3], [4]], [[1, 2, 3], [4]], 4),
         AlphaNotInvolution, "alpha must be given as dart pairs"),
        # two disjoint loops on separate vertices
        (lambda: maps.build_map([[1, 2], [3, 4]], [[1, 2], [3, 4]], 4),
         Disconnected, "sigma and alpha do not act transitively"),
        # torus: one vertex, two crossing loops
        (lambda: maps.build_map([[1, 2, 3, 4]], [[1, 3], [2, 4]], 4),
         NonZeroGenus, "V-E+F = 0, not a sphere map"),
    ]
    for build, cls, message in cases:
        with pytest.raises(MapError) as info:
            build()
        assert (type(info.value), str(info.value)) == (cls, message)


MALFORMED = [
    # tables where several checks could fire, with the class and message of the first
    pytest.param((0, 1, 2, 3), (0, 2, 1, 3), InvalidInput,
                 "dart count must be a positive even integer", id="odd dart count"),
    pytest.param((0, 2, 1, 4, 3), (0, 2, 1), InvalidInput,
                 "alpha image table must have length darts+1", id="alpha too short"),
    pytest.param((0, 1, 2, 3, 4), (0, 9, 9, 9), InvalidInput,
                 "alpha image table must have length darts+1",
                 id="alpha too short and out of range"),
    pytest.param((0, 2, 5, 4, 3), (0, 1, 1, 1, 1), InvalidInput,
                 "sigma is not a permutation of 1..4",
                 id="sigma out of range before alpha's fixed points"),
    pytest.param((0, 0, 1, 4, 3), (0, 2, 1, 4, 3), InvalidInput,
                 "sigma is not a permutation of 1..4", id="sigma maps to slot 0"),
    pytest.param((0, 2, 1, 4, 3), (0, 2, 2, 4, 3), InvalidInput,
                 "alpha is not a permutation of 1..4", id="alpha repeats an entry"),
    pytest.param((0, 2, 1, 4, 3), (0, 2, 1, 4, 5), InvalidInput,
                 "alpha is not a permutation of 1..4", id="alpha out of range"),
    pytest.param((0, 2, 3, 4, 1), (0, 1, 3, 4, 2), AlphaHasFixedPoint,
                 "alpha fixes dart 1", id="fixed point before a non-involution"),
    pytest.param((0, 2, 3, 4, 1), (0, 2, 3, 1, 4), AlphaNotInvolution,
                 "alpha is not an involution at dart 1", id="non-involution before a fixed point"),
    pytest.param((0, 2, 1, 4, 3), (0, 2, 1, 4, 3), Disconnected,
                 "sigma and alpha do not act transitively", id="two spheres, V-E+F = 4"),
    pytest.param((0, 2, 3, 4, 1), (0, 3, 4, 1, 2), NonZeroGenus,
                 "V-E+F = 0, not a sphere map", id="torus"),
    pytest.param((7, 2, 3, 4, 1), (9, 3, 4, 1, 2), NonZeroGenus,
                 "V-E+F = 0, not a sphere map", id="torus, slot 0 unread"),
]


@pytest.mark.parametrize("sigma,alpha,cls,message", MALFORMED)
def test_malformed_tables_raise_the_first_failed_check(sigma, alpha, cls, message):
    with pytest.raises(MapError) as info:
        maps.CombinatorialMap(sigma, alpha)
    assert (type(info.value), str(info.value)) == (cls, message)


def reference_map(sigma, alpha):
    """The constructor's checks and tables as its loops first computed
    them, apart from the class: (phi, faces, face_of, vertices,
    vertex_of), or the same exception."""
    n = len(sigma) - 1
    if n < 2 or n % 2:
        raise InvalidInput("dart count must be a positive even integer")
    sigma = tuple(maps._check_perm(sigma, n, "sigma"))
    alpha = tuple(maps._check_perm(alpha, n, "alpha"))
    for d in range(1, n + 1):
        if alpha[d] == d:
            raise AlphaHasFixedPoint("alpha fixes dart %d" % d)
        if alpha[alpha[d]] != d:
            raise AlphaNotInvolution("alpha is not an involution at dart %d" % d)
    phi = tuple(0 if d == 0 else sigma[alpha[d]] for d in range(n + 1))
    vertices = maps.perm_cycles(sigma)
    vertex_of = [0] * (n + 1)
    for cyc in vertices:
        for d in cyc:
            vertex_of[d] = cyc[0]
    faces = maps.perm_cycles(phi)
    face_of = [0] * (n + 1)
    for i, orbit in enumerate(faces):
        for d in orbit:
            face_of[d] = i
    seen = [False] * (n + 1)
    stack = [1]
    seen[1] = True
    cnt = 0
    while stack:
        d = stack.pop()
        cnt += 1
        for nb in (sigma[d], alpha[d]):
            if not seen[nb]:
                seen[nb] = True
                stack.append(nb)
    if cnt != n:
        raise Disconnected("sigma and alpha do not act transitively")
    if len(vertices) - n // 2 + len(faces) != 2:
        raise NonZeroGenus("V-E+F = %d, not a sphere map" % (len(vertices) - n // 2 + len(faces)))
    return phi, faces, face_of, vertices, vertex_of


def random_plane_tree(rng, edges):
    """The tables of a random plane tree: each vertex hangs below a random
    earlier one, and each vertex's darts go round in a random order."""
    at = [[] for _ in range(edges + 1)]
    alpha = [0] * (2 * edges + 1)
    for v in range(1, edges + 1):
        x, y = 2 * v - 1, 2 * v
        alpha[x], alpha[y] = y, x
        at[rng.randrange(v)].append(x)
        at[v].append(y)
    sigma = [0] * (2 * edges + 1)
    for darts in at:
        rng.shuffle(darts)
        for i, x in enumerate(darts):
            sigma[x] = darts[(i + 1) % len(darts)]
    return sigma, alpha


def corrupted(rng, sigma, alpha):
    """The tables with one random fault, which may or may not break them."""
    sigma, alpha = list(sigma), list(alpha)
    n = len(sigma) - 1
    a, b = rng.sample(range(1, n + 1), 2)
    kind = rng.randrange(7)
    if kind == 0:  # sigma stays a permutation: the genus or the connection may break
        sigma[a], sigma[b] = sigma[b], sigma[a]
    elif kind == 1:  # an entry out of range or repeated
        rng.choice((sigma, alpha))[a] = rng.choice((0, n + 1, -1, sigma[b]))
    elif kind == 2:  # two fixed points
        alpha[a], alpha[alpha[a]] = a, alpha[a]
    elif kind == 3:  # alpha stays a permutation but not an involution
        alpha[a], alpha[b] = alpha[b], alpha[a]
    elif kind == 4:  # two edges re-paired: alpha stays an involution
        c, e = alpha[a], alpha[b]
        if len({a, b, c, e}) == 4:
            alpha[a], alpha[b], alpha[c], alpha[e] = b, a, e, c
    elif kind == 5:  # a table one too long or too short
        table = rng.choice((sigma, alpha))
        table.append(n + 1) if rng.random() < 0.5 else table.pop()
    else:  # slot 0, which nothing reads
        sigma[0], alpha[0] = rng.randrange(-3, 3 * n), rng.randrange(-3, 3 * n)
    return sigma, alpha


def random_tables(rng, n):
    """A random permutation and a random fixed-point-free involution."""
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    darts = list(range(1, n + 1))
    rng.shuffle(darts)
    alpha = [0] * (n + 1)
    for x, y in zip(darts[::2], darts[1::2]):
        alpha[x], alpha[y] = y, x
    return [0] + sigma, alpha


def test_constructor_matches_reference(corpus6):
    """On valid tables up to 200 darts (corpus6, random covers, random
    plane trees), random tables and their corrupted copies, the map has
    the reference's tables or raises its exception class and message."""
    from tests.test_decompose import random_cover  # it imports this module
    rng = random.Random(15)
    valid = [(m.sigma, m.alpha) for m in corpus6.uncolored[::7]]
    valid += [(cm.m.sigma, cm.m.alpha) for cm in (random_cover(rng, d) for d in range(3, 27))]
    valid += [random_plane_tree(rng, rng.randrange(1, 101)) for _ in range(40)]
    tables = valid + [random_tables(rng, 2 * rng.randrange(1, 101)) for _ in range(100)]
    tables += [corrupted(rng, *rng.choice(valid)) for _ in range(600)]
    outcomes = collections.Counter()
    for sigma, alpha in tables:
        try:
            want = reference_map(sigma, alpha)
        except MapError as exc:
            want = (type(exc), str(exc))
        try:
            m = maps.CombinatorialMap(sigma, alpha)
            got = m.phi, m.faces, m.face_of, m._vertices, m.vertex_of
        except MapError as exc:
            got = (type(exc), str(exc))
        assert got == want, (sigma, alpha)
        outcomes[want[0] if isinstance(want[0], type) else "map"] += 1
    # every check fired somewhere
    assert set(outcomes) == {"map", InvalidInput, AlphaHasFixedPoint, AlphaNotInvolution,
                             Disconnected, NonZeroGenus}, outcomes


def reference_colouring_error(m, blue):
    """The colouring check over the edges and their sides: the exception
    it raises first, or None."""
    blue = frozenset(blue)
    if not m.is_four_valent():
        return NotFourValent("all vertices must have valence 4")
    for f in blue:
        if not 0 <= f < m.num_faces:
            return InvalidInput("blue face index %r out of range" % (f,))
    for e in m.edges():
        f1, f2 = m.edge_sides(e)
        if (f1 in blue) == (f2 in blue):
            return InvalidInput("blue_faces is not a proper 2-coloring")
    return None


def test_colouring_check_matches_reference(corpus6):
    """On the checkerboard colourings of corpus6 maps, copies with a face
    flipped, random face sets and sets with a face out of range, and on
    maps that are not 4-valent, ColoredMap raises what the reference does."""
    rng = random.Random(16)
    cases = []
    for m in corpus6.uncolored[::3]:
        faces = range(m.num_faces)
        for cm in maps.checkerboard(m):
            cases.append((m, set(cm.blue_faces)))
            cases.append((m, set(cm.blue_faces) ^ {rng.choice(faces)}))
        cases.append((m, {f for f in faces if rng.random() < 0.5}))
        cases.append((m, {rng.choice(faces), rng.choice((-1, m.num_faces))}))
    cases += [(maps.CombinatorialMap(*random_plane_tree(rng, 4)), {0}) for _ in range(5)]
    seen = collections.Counter()
    for m, blue in cases:
        want = reference_colouring_error(m, blue)
        try:
            maps.ColoredMap(m, blue)
            got = None
        except MapError as exc:
            got = exc
        assert (type(got), str(got)) == (type(want), str(want)), (m, blue)
        seen[type(want), "out of range" in str(want)] += 1
    assert len(seen) == 4, seen


def test_euler_for_generators():
    for m in (maps.quadratic(), maps.octahedron(), maps.turkshead(1),
              maps.turkshead(4), figure_eight()):
        assert m.num_vertices - m.num_edges + m.num_faces == 2
        for d in range(1, m.n + 1):
            assert m.alpha[m.alpha[d]] == d
            assert m.alpha[d] != d


def test_checkerboard_two_proper_colorings():
    for m in (maps.quadratic(), maps.octahedron(), maps.turkshead(4)):
        c1, c2 = maps.checkerboard(m)
        assert c1.blue_faces | c2.blue_faces == set(range(m.num_faces))
        assert c1.blue_faces.isdisjoint(c2.blue_faces)
        for cm in (c1, c2):
            for e in m.edges():
                f1, f2 = m.edge_sides(e)
                assert cm.is_blue(f1) != cm.is_blue(f2)


def test_checkerboard_counts():
    q1, q2 = maps.checkerboard(maps.quadratic())
    assert len(q1.blue_faces) == len(q2.blue_faces) == 2
    o1, o2 = maps.checkerboard(maps.octahedron())
    assert len(o1.blue_faces) == len(o2.blue_faces) == 4
    t1, _ = maps.checkerboard(maps.turkshead(4))
    assert len(t1.blue_faces) == 5


def test_checkerboard_requires_four_valent():
    tri = maps.build_map([[1, 2], [3, 4], [5, 6]],
                         [[1, 4], [3, 6], [5, 2]], 6)
    with pytest.raises(NotFourValent):
        maps.checkerboard(tri)


def test_forward_darts_alternate_at_vertices():
    for m in (maps.quadratic(), maps.octahedron(), maps.turkshead(4)):
        cm, _ = maps.checkerboard(m)
        for cyc in m.vertices():
            pattern = [cm.is_forward(d) for d in cyc]
            assert pattern in ([True, False, True, False],
                               [False, True, False, True])


def test_face_on_left_of_forward_dart_is_blue():
    cm, _ = maps.checkerboard(maps.octahedron())
    for e in cm.m.edges():
        f = cm.forward_dart(e)
        assert cm.is_blue(cm.m.face_of[f])


def test_canonical_code_relabeling_invariance():
    rng = random.Random(5)
    for m in (maps.quadratic(), maps.octahedron(), maps.turkshead(2)):
        for _ in range(5):
            perm = list(range(1, m.n + 1))
            rng.shuffle(perm)
            m2 = relabeled(m, (0,) + tuple(perm))
            assert m2.canonical_code() == m.canonical_code()


def test_canonical_code_distinguishes_quadratic_from_turkshead_one():
    q, t1 = maps.quadratic(), maps.turkshead(1)
    assert q.canonical_code() != t1.canonical_code()
    assert isomorphism_brute_force(q, t1) is None


def test_canonical_code_agrees_with_brute_force_on_8_darts():
    """Complete-invariant check on every pair of 2-vertex maps."""
    from balmaps.corpus import enumerate_four_valent
    small = enumerate_four_valent(2)
    rng = random.Random(9)
    shuffled = []
    for m in small:
        perm = list(range(1, m.n + 1))
        rng.shuffle(perm)
        shuffled.append(relabeled(m, (0,) + tuple(perm)))
    for a, b in itertools.product(small, shuffled):
        same_code = a.canonical_code() == b.canonical_code()
        bij = isomorphism_brute_force(a, b)
        assert same_code == (bij is not None)


def test_map_of_code_is_the_canonically_labelled_map(corpus6):
    """Read as tables, a canonical code is the map under its canonical
    labels: dart 1 is a canonical root of the decoded map, whose own code
    is the code.  A code that is no map's is refused like any table."""
    for m in corpus6.uncolored:
        code = m.canonical_code()
        decoded = maps.map_of_code(code)
        assert decoded.canonical_code() == code
        assert 1 in decoded.canonical_roots()
    code = list(maps.octahedron().canonical_code())
    code[1] = code[3]
    with pytest.raises(InvalidInput, match="sigma is not a permutation"):
        maps.map_of_code(code)


def test_colored_code_color_swap():
    # an asymmetric coloring must differ from its swap
    o1, _ = maps.checkerboard(maps.octahedron())
    f = next(iter(o1.blue_faces))
    orb = o1.m.faces[f]
    p = maps.pinch(o1, orb[0], orb[1])
    assert p.colored_code() != p.swapped().colored_code()
    assert p.m.canonical_code() == p.swapped().m.canonical_code()
    # the quadratic's two colorings are swapped by a rotation, so the
    # complete invariant makes them equal
    q1, q2 = maps.checkerboard(maps.quadratic())
    assert q1.colored_code() == q2.colored_code()


def test_pinch_splits_face_and_adds_vertex():
    o1, _ = maps.checkerboard(maps.octahedron())
    blue_before = len(o1.blue_faces)
    white_before = o1.m.num_faces - blue_before
    f = next(iter(o1.blue_faces))
    orb = o1.m.faces[f]
    p = maps.pinch(o1, orb[0], orb[1])
    assert p.m.num_vertices == 7
    assert len(p.blue_faces) == blue_before + 1
    assert p.m.num_faces - len(p.blue_faces) == white_before


def test_pinch_rejects_bad_darts():
    q = maps.quadratic()
    cm, _ = maps.checkerboard(q)
    orb = q.faces[0]
    with pytest.raises(InvalidPinch):
        maps.pinch(cm, orb[0], q.alpha[orb[0]])  # same edge
    other = next(i for i in range(q.num_faces) if i != 0)
    with pytest.raises(InvalidPinch):
        maps.pinch(cm, q.faces[0][0], q.faces[other][0])  # different faces


def test_dual_bipartite_quadratic():
    from balmaps import realize
    cm, _ = maps.checkerboard(maps.quadratic())
    counts, labels = realize.realize_generic(cm)
    g = dual_of(cm, labels)
    assert g.d == 2
    assert g.m.num_vertices == 4
    assert g.m.num_faces == 2
    assert sorted(g.face_red) == [1, 2]


def test_dual_bipartite_octahedron():
    from balmaps import realize
    cm, _ = maps.checkerboard(maps.octahedron())
    counts, labels = realize.realize_generic(cm)
    g = dual_of(cm, labels)
    assert g.d == 4
    assert len(g.blue_vertices) == 4
    assert g.m.num_vertices == 8
    assert g.m.num_faces == 6
    assert g.blue_labels == tuple(zip(sorted(g.blue_vertices), range(1, 5)))


def test_dual_bipartite_refuses_bad_labels():
    """Labels that are missing, repeated or out of range are refused by the
    dual's own check."""
    from balmaps import realize
    cm, _ = maps.checkerboard(maps.octahedron())
    labels = realize.realize_generic(cm)[1]
    v, w = sorted(labels)[:2]
    for bad in ({**labels, v: labels[w]}, {**labels, v: 0}, {**labels, v: 7},
                {u: l for u, l in labels.items() if u != v}):
        with pytest.raises(InvalidInput, match="bijection onto 1..2d-2"):
            dual_of(cm, bad)


def test_face_labeled_graph_checks_itself():
    """A malformed dual raises InvalidInput when it is built."""
    from balmaps import realize
    cm, _ = maps.checkerboard(maps.quadratic())
    g = dual_of(cm, realize.realize_generic(cm)[1])
    blue = sorted(g.blue_vertices)
    with pytest.raises(InvalidInput, match="bijection onto 1..2d-2"):
        maps.FaceLabeledGraph(g.m, g.blue_vertices, (1, 1), g.blue_labels)
    with pytest.raises(InvalidInput, match="bijection onto 1..d"):
        maps.FaceLabeledGraph(g.m, g.blue_vertices, g.face_red, ((blue[0], 1), (blue[1], 1)))
    with pytest.raises(InvalidInput, match="not bipartite"):
        maps.FaceLabeledGraph(g.m, frozenset(g.m.vertex_ids()), g.face_red, g.blue_labels)
    # every edge of this map has vertex 1 at one end, so only the vertex
    # check refuses a blue vertex that is no vertex
    star = maps.build_map([[1, 2, 3, 4], [5, 6], [7], [8]], [[1, 5], [2, 6], [3, 7], [4, 8]], 8)
    with pytest.raises(InvalidInput, match="blue vertex 99 is not a vertex id"):
        maps.FaceLabeledGraph(star, frozenset({1, 99}), (1, 2), ((1, 1), (99, 2)))
    # one blue centre and three white leaves: bipartite, but unbalanced
    with pytest.raises(InvalidInput, match="need equally many blue and white vertices"):
        maps.FaceLabeledGraph(star, frozenset({1}), (1, 2), ((1, 1),))


def test_vertex_cycle_refuses_an_unknown_vertex():
    q = maps.quadratic()
    assert q.vertex_cycle(1) == (1, 3, 5, 7)
    for v in (0, 3, 9):
        with pytest.raises(InvalidInput, match="no vertex %d" % v):
            q.vertex_cycle(v)


def test_equal_maps_hash_equal():
    """Maps built apart from equal tables are equal, hash equal and
    deduplicate in a set, plain and coloured; a colouring tells two
    coloured maps of one map apart."""
    a, b = maps.turkshead(3), maps.octahedron()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, maps.quadratic()}) == 2
    assert repr(a) == "CombinatorialMap(V=6, E=12, F=8)"
    first, second = maps.checkerboard(a)
    again = maps.ColoredMap(b, first.blue_faces)
    assert again == first and hash(again) == hash(first)
    assert len({first, second, again}) == 2


# Literal codes pin the code format: a change to it fails here, not only as a
# mismatch between two codes computed by the same new kernel.
OCTAHEDRON_COLORED = (
    24, 2, 3, 4, 5, 6, 1, 7, 8, 9, 2, 10, 11, 1, 12, 13, 4, 14, 15, 15, 16, 12,
    6, 17, 7, 18, 19, 19, 20, 3, 9, 21, 10, 22, 23, 23, 24, 5, 13, 16, 14, 24,
    22, 11, 21, 8, 17, 20, 18, 0, 1, 0, 1, 1, 0, 1, 0)


def test_colored_code_format_pinned():
    first, second = maps.checkerboard(maps.octahedron())
    assert first.colored_code() == OCTAHEDRON_COLORED
    assert second.colored_code() == OCTAHEDRON_COLORED


def test_canonical_code_format_pinned():
    assert maps.turkshead(2).canonical_code() == (
        16, 2, 3, 4, 5, 6, 1, 7, 8, 3, 2, 9, 10, 1, 11, 12, 4, 5, 12, 11, 6, 13,
        7, 14, 9, 15, 16, 16, 15, 10, 14, 8, 13)


@pytest.fixture(scope="module")
def pinned_maps(corpus6):
    """One colouring of each corpus6 map, of turkshead(3..30), and of a
    relabeled copy of each seeded random cover with d = 3..30 (the covers
    of test_least_trace_matches_full_scan); the pins read both colourings."""
    from tests.test_decompose import random_cover  # it imports this module
    rng = random.Random(11)
    covers = [random_cover(rng, d) for d in range(3, 31)]
    heads = [maps.turkshead(k) for k in range(3, 31)]
    return ([maps.checkerboard(m)[0] for m in list(corpus6.uncolored) + heads]
            + [relabeled_colored(cm, rng) for cm in covers])


def test_colored_codes_pinned(pinned_maps):
    """One sha256 over the colored code of both colourings of every
    pinned map: the exact codes, not only their agreement with a scan."""
    h = hashlib.sha256()
    for cm in pinned_maps:
        for c in (cm, cm.swapped()):
            h.update(repr(c.colored_code()).encode() + b";")
    assert h.hexdigest() == (
        "3d82a548e988d5ad1d94c1f0979a1477705c1132f125b0a52f3ba1c14c5392bf")


def test_face_bits_follow_least_labels(pinned_maps):
    """face_bits of every root's queue, in both colourings of every pinned
    map, are the blue bits of the faces ordered by reference least label."""
    for cm in pinned_maps:
        m, pair = cm.m, (cm, cm.swapped())
        references = [face_bit_decoration(c) for c in pair]
        for root in range(1, m.n + 1):
            order, lab = m._bfs_trace(root)[1], reference_trace(m, root)[1]
            assert [c.face_bits(order) for c in pair] == [ref(lab) for ref in references]


# -- the least-trace kernel against a full scan ----------------------------------------


def relabeled_copy(m, rng):
    """A random dart relabeling of m and the permutation used."""
    perm = list(range(1, m.n + 1))
    rng.shuffle(perm)
    perm = (0,) + tuple(perm)
    return relabeled(m, perm), perm


def relabeled_colored(cm, rng):
    m, perm = relabeled_copy(cm.m, rng)
    return maps.ColoredMap(m, {m.face_of[perm[cm.m.faces[f][0]]] for f in cm.blue_faces})


def relabeled_dual(g, rng):
    m, perm = relabeled_copy(g.m, rng)
    reds = [0] * m.num_faces
    for f, orbit in enumerate(g.m.faces):
        reds[m.face_of[perm[orbit[0]]]] = g.face_red[f]
    labels = tuple(sorted((m.vertex_of[perm[v]], l) for v, l in g.blue_labels))
    return maps.FaceLabeledGraph(
        m, frozenset(m.vertex_of[perm[v]] for v in g.blue_vertices), tuple(reds), labels)


def reference_trace(m, root):
    """A plain breadth-first relabeling from ``root``, written apart from
    the kernel: a queue of darts, each labelled on first sight.  The trace
    lists the labels of every dart's sigma- and alpha-image in queue
    order; ``lab`` maps each dart to its label."""
    lab = {root: 1}
    queue = collections.deque([root])
    trace = []
    while queue:
        d = queue.popleft()
        for image in (m.sigma[d], m.alpha[d]):
            if image not in lab:
                lab[image] = len(lab) + 1
                queue.append(image)
            trace.append(lab[image])
    return trace, [lab.get(x, 0) for x in range(m.n + 1)]


def reference_queue(m, lab):
    """The queue of a reference relabeling: the darts by their label."""
    return sorted(range(1, m.n + 1), key=lab.__getitem__)


def test_bfs_trace_matches_reference(corpus6):
    """Every root's trace is the reference's, and its queue lists the
    darts by their reference label.  Given a bound,
    the kernel returns None exactly when the reference trace is greater
    at the first difference, and the whole trace otherwise.  The bounds
    are the least trace, another root's trace, the root's own trace, and
    that trace with one random entry moved down or up."""
    from tests.test_decompose import random_cover  # it imports this module
    rng = random.Random(14)
    covers = [random_cover(rng, d).m for d in range(3, 21)]
    for m in list(corpus6.uncolored) + [maps.turkshead(k) for k in range(3, 13)] + covers:
        refs = [reference_trace(m, r) for r in range(1, m.n + 1)]
        least = min(trace for trace, _ in refs)
        for root, (trace, lab) in enumerate(refs, 1):
            order = reference_queue(m, lab)
            assert m._bfs_trace(root) == (trace, order)
            k = rng.randrange(len(trace))
            for bound in (least, refs[root % m.n][0], trace,
                          trace[:k] + [trace[k] - 1] + trace[k + 1:],
                          trace[:k] + [trace[k] + 1] + trace[k + 1:]):
                got = m._bfs_trace(root, bound)
                assert got == (None if trace > bound else (trace, order)), (m, root, bound)


def full_scan(m, decorate):
    """Every root's whole reference trace and decoration; the least one."""
    best = min(trace + (decorate(lab) if decorate else [])
               for trace, lab in (reference_trace(m, r) for r in range(1, m.n + 1)))
    return (m.n,) + tuple(best)


@pytest.fixture
def least_trace_calls(monkeypatch):
    """Record the map of every _least_root scan."""
    calls = []
    kernel = maps.CombinatorialMap._least_root

    def spy(self):
        calls.append(self)
        return kernel(self)
    monkeypatch.setattr(maps.CombinatorialMap, "_least_root", spy)
    return calls


def assert_kernel_matches_scan(code, calls, decorate=None):
    """The code came from one scan of its map, and equals the full scan
    of that map's roots with ``decorate``."""
    m, = calls
    calls.clear()
    assert code == full_scan(m, decorate)


def test_least_trace_matches_full_scan(corpus6, duals4, least_trace_calls):
    from tests.test_decompose import random_cover  # it imports this module
    rng = random.Random(11)
    heads = [maps.turkshead(k) for k in range(3, 13)]
    covers = [random_cover(rng, d) for d in range(3, 31)]
    for m in list(corpus6.uncolored) + heads + [cm.m for cm in covers]:
        m2 = relabeled_copy(m, rng)[0]
        assert_kernel_matches_scan(m2.canonical_code(), least_trace_calls)
        assert m2.canonical_code() == m.canonical_code()
        least_trace_calls.clear()
    # from turkshead(3) on, the plain group is twice the colour-preserving
    # one, so some trace ties come with an untied decoration
    heads += [maps.turkshead(k) for k in range(13, 31)]
    colored = (list(corpus6.colored) + [cm for m in heads for cm in maps.checkerboard(m)]
               + [c for cm in covers for c in (cm, cm.swapped())])
    for cm in colored:
        cm2 = relabeled_colored(cm, rng)
        assert_kernel_matches_scan(cm2.colored_code(), least_trace_calls,
                                   face_bit_decoration(cm2))
        assert cm2.colored_code() == cm.colored_code()
        least_trace_calls.clear()
    for g in duals4:
        g2 = relabeled_dual(g, rng)
        assert_kernel_matches_scan(dual_code(g2), least_trace_calls, dual_decoration(g2))
        assert dual_code(g2) == dual_code(g)
        least_trace_calls.clear()


def test_codes_of_large_covers_are_relabel_invariant():
    from tests.test_decompose import random_cover
    rng = random.Random(13)
    for d in (100, 200):
        cm = random_cover(rng, d)
        cm2 = relabeled_colored(cm, rng)
        assert cm2.m.canonical_code() == cm.m.canonical_code()
        assert cm2.colored_code() == cm.colored_code()
        assert cm2.swapped().colored_code() == cm.swapped().colored_code()


def dart_digraph(nx, m):
    """The darts of m with an arc d -> sigma(d) and an arc d -> alpha(d),
    each labelled by its kind: a bijection of the darts that keeps the
    labelled arcs commutes with sigma and alpha, so two of these digraphs
    are isomorphic iff their maps are."""
    g = nx.DiGraph()
    for d in range(1, m.n + 1):
        for kind, perm in (("sigma", m.sigma), ("alpha", m.alpha)):
            g.add_edge(d, perm[d])
            g[d][perm[d]][kind] = True  # the two arcs may share their head
    return g


def test_canonical_code_against_digraph_isomorphism(corpus6):
    """networkx's digraph isomorphism, which shares no code with the least
    trace, agrees with code equality on a seeded sample of equal-V corpus6
    pairs (the second map relabeled), on each pinched turkshead against a
    relabeled copy and against a pinch at another place, and on every
    degree-5 census diagram against its mirror."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(18)
    verdicts = collections.Counter()
    pairs = []
    by_v = collections.defaultdict(list)
    for m in corpus6.uncolored:
        by_v[m.num_vertices].append(m)
    groups = sorted(by_v.values(), key=len)
    for _ in range(400):
        group = rng.choice(groups)
        pairs.append((relabeled_copy(rng.choice(group), rng)[0], rng.choice(group)))
    for n in range(3, 31):
        cm = maps.checkerboard(maps.turkshead(n))[0]
        orbit = cm.m.faces[max(cm.blue_faces, key=lambda f: len(cm.m.faces[f]))]
        across = maps.pinch(cm, orbit[0], orbit[len(orbit) // 2]).m
        beside = maps.pinch(cm, orbit[0], orbit[1]).m
        pairs += [(relabeled_copy(across, rng)[0], across), (beside, across)]
    for entry in load_fixture(5)["entries"]:
        m = maps.map_of_code(entry["underlying"])
        pairs.append((m, mirror(maps.checkerboard(m)[0]).m))
    for a, b in pairs:
        same = a.canonical_code() == b.canonical_code()
        assert nx.is_isomorphic(dart_digraph(nx, a), dart_digraph(nx, b),
                                edge_match=operator.eq) == same, (a, b)
        verdicts[same] += 1
    assert verdicts == {True: 43 + 29 + 33, False: 357 + 27 + 56}


def test_symmetric_maps_trace_few_roots(monkeypatch):
    """turkshead(k) has 8k darts and 2k automorphisms (24 at k = 3); the
    roots of an automorphism orbit already met are skipped, not traced."""
    traced = []
    kernel = maps.CombinatorialMap._bfs_trace

    def spy(self, root, bound=None):
        traced.append(root)
        return kernel(self, root, bound)
    monkeypatch.setattr(maps.CombinatorialMap, "_bfs_trace", spy)
    for k in list(range(3, 61)) + [100, 300]:
        m = maps.turkshead(k)
        for code in (m.canonical_code, maps.checkerboard(m)[0].colored_code):
            traced.clear()
            code()
            assert len(traced) <= 16, (k, code.__name__, len(traced))


def test_canonical_roots_are_the_roots_of_the_code(corpus6):
    rng = random.Random(12)
    for m in list(corpus6.uncolored) + [maps.turkshead(k) for k in range(3, 13)]:
        m2 = relabeled_copy(m, rng)[0]
        code = list(m2.canonical_code()[1:])
        assert m2.canonical_roots() == [
            r for r in range(1, m2.n + 1) if m2._bfs_trace(r)[0] == code]
        assert m2._order == reference_queue(m2, reference_trace(m2, m2._root)[1])

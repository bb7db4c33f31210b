import hashlib

import pytest

from balmaps import balance, maps
from balmaps.errors import LimitExceeded, PreconditionFailed


def colored(m):
    return maps.checkerboard(m)[0]


def figure_eight():
    m = maps.build_map([[1, 2, 3, 4]], [[1, 2], [3, 4]], 4)
    return colored(m)


def test_jordan_quadratic():
    ok, wit = balance.check_jordan(colored(maps.quadratic()))
    assert ok and wit is None


def test_jordan_figure_eight_fails():
    ok, wit = balance.check_jordan(figure_eight())
    assert not ok
    assert wit["vertex"] == 1


def test_jordan_turkshead_one():
    # the loop faces are fine but each triangle-like face revisits a vertex
    cm = colored(maps.turkshead(1))
    ok, wit = balance.check_jordan(cm)
    assert not ok


def test_global_counts():
    assert balance.check_global(colored(maps.quadratic()))
    assert balance.check_global(colored(maps.octahedron()))
    o = colored(maps.octahedron())
    orb = o.m.faces[next(iter(o.blue_faces))]
    pinched = maps.pinch(o, orb[0], orb[1])
    assert not balance.check_global(pinched)


def test_face_weights():
    q = colored(maps.quadratic())
    assert balance.face_weights(q) == [0, 0, 0, 0]
    o = colored(maps.octahedron())
    assert balance.face_weights(o) == [3] * 8
    # corner sum identity
    for cm in (q, o, colored(maps.turkshead(4))):
        m = cm.m
        assert sum(len(f) for f in m.faces) == 4 * m.num_vertices


def test_flow_quadratic_zero_weights():
    ok, counts, info = balance.check_balance_flow(colored(maps.quadratic()))
    assert ok
    assert counts == {}
    assert info == {"flow_value": 0, "capacity": 0}


def test_flow_octahedron():
    ok, counts, info = balance.check_balance_flow(colored(maps.octahedron()))
    assert ok
    assert info == {"flow_value": 12, "capacity": 12}
    assert sum(counts.values()) == 12
    assert balance.matching_is_valid(colored(maps.octahedron()), counts)


def test_flow_decides_balance_alone(corpus6):
    """The flow needs no Jordan or global check before it: on every corpus6
    colouring its verdict is is_balanced's, and a balanced report carries
    its counts.  Unequal or negative weights give no flow info at all."""
    assert len(corpus6.colored) == 2132
    for cm in corpus6.colored:
        ok, counts, _ = balance.check_balance_flow(cm)
        rep = balance.is_balanced(cm)
        assert ok == rep.balanced and counts == rep.counts
    assert balance.check_balance_flow(figure_eight()) == (False, None, None)


def test_weight_identity_under_global_balance():
    for m in (maps.quadratic(), maps.octahedron(), maps.turkshead(3),
              maps.turkshead(4), maps.turkshead(5)):
        cm = colored(m)
        if balance.check_global(cm):
            w = balance.face_weights(cm)
            blue = sum(w[f] for f in cm.blue_faces)
            white = sum(w[f] for f in cm.white_faces)
            assert blue == white


def test_curve_oracle_quadratic():
    cm = colored(maps.quadratic())
    curves = balance.enumerate_blue_left_curves(cm)
    assert len(curves) == 4
    # each blue face's own boundary has exactly that face on its left
    face_cycles = [c for c in curves if len(c[0]) == 2
                   and cm.m.face_of[c[0][0]] in cm.blue_faces]
    assert any(B == 1 and W == 0 for _, B, W in curves)
    assert all(B > W for _, B, W in curves)


def test_curve_oracle_octahedron():
    cm = colored(maps.octahedron())
    curves = balance.enumerate_blue_left_curves(cm)
    assert curves
    assert all(B > W for _, B, W in curves)


def test_curve_oracle_cap():
    cm = colored(maps.turkshead(6))
    with pytest.raises(LimitExceeded):
        balance.enumerate_blue_left_curves(cm)


def test_unknown_oracle_refused():
    # the CLI's choices never pass one; a library caller can
    with pytest.raises(PreconditionFailed, match="unknown oracle 'bogus'"):
        balance.is_balanced(colored(maps.octahedron()), oracle="bogus")


def test_is_balanced_examples():
    assert balance.is_balanced(colored(maps.octahedron()), oracle="both").balanced
    assert balance.is_balanced(colored(maps.quadratic()), oracle="both").balanced
    rep = balance.is_balanced(figure_eight())
    assert not rep.balanced and not rep.jordan_ok and rep.local_ok is None
    o = colored(maps.octahedron())
    orb = o.m.faces[next(iter(o.blue_faces))]
    rep = balance.is_balanced(maps.pinch(o, orb[0], orb[1]))
    assert rep.jordan_ok and not rep.global_ok
    assert rep.witness == {"blue": 5, "white": 4}


def test_matching_from_flow_is_valid(corpus6):
    checked = 0
    for cm in corpus6.colored:
        if balance.is_balanced(cm).balanced:
            ok, counts, _ = balance.check_balance_flow(cm)
            assert ok and balance.matching_is_valid(cm, counts)
            checked += 1
    assert checked > 0


def assert_hall_violator(cm, wit):
    """The witness names blue faces and all their white neighbours, with
    weights that say no flow can fill the blue supply."""
    w = balance.face_weights(cm)
    blues = wit["blue_faces"]
    assert blues and set(blues) <= cm.blue_faces
    neighbours = set()
    for e in cm.m.edges():
        f1, f2 = cm.m.edge_sides(e)
        if f1 in blues or f2 in blues:
            neighbours |= {f1, f2} - cm.blue_faces
    assert wit["white_faces"] == sorted(neighbours)
    assert wit["blue_weight"] == sum(w[f] for f in blues)
    assert wit["white_weight"] == sum(w[f] for f in neighbours)
    assert wit["blue_weight"] > wit["white_weight"]
    assert wit["blue_weight"] - wit["white_weight"] == wit["capacity"] - wit["flow_value"]


def test_flow_failure_carries_hall_violator(corpus6):
    local = []
    for cm in corpus6.colored:
        rep = balance.is_balanced(cm)
        if rep.jordan_ok and rep.global_ok and not rep.local_ok:
            local.append((cm, rep.witness))
    assert len(local) == 2
    for cm, wit in local:
        ok, matching, info = balance.check_balance_flow(cm)
        assert not ok and info == wit
        assert_hall_violator(cm, wit)
        assert wit["blue_weight"] == 8 and wit["white_weight"] == 4


def face_equations_digest(colorings):
    h = hashlib.sha256()
    for cm in colorings:
        ok, counts, info = balance.check_balance_flow(cm)
        if info is None:
            h.update(b"None;")
            continue
        counts = sorted(counts.items()) if ok else None
        h.update(repr((counts, sorted(info.items()))).encode() + b";")
    return h.hexdigest()


def test_face_equations_pinned(corpus6):
    """Counts and flow info (Hall witness included) of every corpus6
    coloring, as a generic Edmonds-Karp network gave them before the
    face-indexed search replaced it."""
    assert len(corpus6.colored) == 2132
    assert face_equations_digest(corpus6.colored) == (
        "0effcb950846d93180ca533ac1112d25d6e065319f33c6208bad0527b8151a67")


def pinched_twice(cm):
    """``cm`` pinched across its largest blue face, then across the largest
    white face of the result, so that both counts rise by one and the
    flow runs on a less symmetric map."""
    for colour in ("blue_faces", "white_faces"):
        orbit = max((cm.m.faces[f] for f in sorted(getattr(cm, colour))), key=len)
        cm = maps.pinch(cm, orbit[0], orbit[len(orbit) // 2])
    return cm


def test_face_equations_pinned_on_turksheads():
    """Counts and flow info of turkshead(3..30) and a pinched copy of
    each, as the search gave them when it seeded every source again in
    each augmentation: the lazily seeded sources keep the BFS order."""
    heads = [colored(maps.turkshead(n)) for n in range(3, 31)]
    assert face_equations_digest([c for cm in heads for c in (cm, pinched_twice(cm))]) == (
        "c3f84116fa4557c2a6eea0fe4c8b25e07a2d44fd4841b68c5c746f0315f9776d")


def test_murasugi_sum_preserves_global_balance_counts():
    from balmaps import decompose
    a = colored(maps.quadratic())
    b = colored(maps.quadratic())
    wa = next(iter(a.white_faces))
    oa = a.m.faces[wa]
    bb = next(iter(b.blue_faces))
    ob = b.m.faces[bb]
    s = decompose.murasugi_sum(a, oa[0], oa[1], b, ob[0], ob[1])
    assert len(s.blue_faces) == len(a.blue_faces) + len(b.blue_faces) - 1
    assert (s.m.num_faces - len(s.blue_faces)
            == (a.m.num_faces - len(a.blue_faces))
            + (b.m.num_faces - len(b.blue_faces)) - 1)
    assert balance.check_global(s)

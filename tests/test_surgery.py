"""Exact outputs of map surgery: pinches, cut splits and Murasugi sums.

The decomposition digests hash canonical codes, which cannot see how the
darts of a piece are numbered.  The digest here hashes the exact sigma,
alpha and blue-face tables, so a change of numbering shows."""

import hashlib
import json
import random

import pytest

from balmaps import decompose, maps
from balmaps.cli import run
from balmaps.errors import InvalidInput
from tests.test_cli import write_map
from tests.test_decompose import (
    NotApplicable,
    _quadratic_chain,
    _sum_pair,
    colored,
    random_cover,
    split_four_cut,
    split_two_cut,
)


def tables(obj):
    """sigma, alpha and the blue faces (None for an uncolored map)."""
    if isinstance(obj, maps.ColoredMap):
        return [obj.m.sigma, obj.m.alpha, sorted(obj.blue_faces)]
    return [obj.sigma, obj.alpha, None]


def pinch_points(m, faces, rng):
    """Two darts on distinct edges of a random face among ``faces``, or None."""
    faces = [f for f in sorted(faces) if len({m.edge_of(x) for x in m.faces[f]}) > 1]
    if not faces:
        return None
    orbit = m.faces[rng.choice(faces)]
    a, b = rng.sample(orbit, 2)
    while m.edge_of(a) == m.edge_of(b):
        a, b = rng.sample(orbit, 2)
    return a, b


def surgery_outputs(sample, rng):
    """Pinches, the split of every listed cut, Murasugi sums, and the
    pieces of two decomposed covers."""
    for cm in sample[:60]:
        for faces in (cm.blue_faces, cm.white_faces):
            darts = pinch_points(cm.m, faces, rng)
            if darts is not None:
                yield maps.pinch(cm, *darts)
    for n in range(3, 9):
        m = maps.turkshead(n)
        cm = colored(m)
        yield maps.pinch(cm, *pinch_points(m, cm.white_faces, rng))
        yield maps.pinch(cm, *pinch_points(m, cm.blue_faces, rng)).m
    for cm in sample:
        for cut in decompose.find_two_cuts(cm):
            yield from split_two_cut(cm, cut)
        for cut in decompose.find_four_cuts(cm):
            try:
                yield from split_four_cut(cm, cut)
            except NotApplicable as exc:
                yield str(exc)
    pieces = [colored(maps.quadratic()), colored(maps.octahedron()),
              colored(maps.turkshead(2)), colored(maps.turkshead(3))]
    for seed in range(60):
        res = _sum_pair(*random.Random(seed).sample(pieces, 2), seed)
        if res is not None:
            yield res[0]
    yield from (_quadratic_chain(n) for n in (5, 10))
    stack = [decompose.decompose_full(random_cover(rng, d)) for d in (20, 30)]
    while stack:
        node = stack.pop()
        yield node.map
        stack += node.pieces or ()


def test_surgery_tables_pinned(corpus6, tmp_path, capsys):
    """One sha256 over the exact tables of pinches, splits and sums, and
    over the CLI JSON of `generate pinch`."""
    rng = random.Random("surgery")
    sample = rng.sample(corpus6.colored, 150)
    h = hashlib.sha256()
    count = 0
    for out in surgery_outputs(sample, rng):
        h.update(json.dumps(out if isinstance(out, str) else tables(out)).encode())
        count += 1
    for cm in sample[:20] + [colored(maps.turkshead(4))]:
        darts = pinch_points(cm.m, cm.blue_faces, rng)
        if darts is None:
            continue
        argv = ["generate", "pinch", "--map", write_map(tmp_path, cm),
                "--darts", str(darts[0]), str(darts[1])]
        assert run(argv) == 0
        h.update(capsys.readouterr().out.encode())
        count += 1
    assert count == 2521
    assert h.hexdigest() == (
        "22e23910525894b408d747ea824c4238ba224d28de34ee98c7ee2964f9bb022a")


def test_rewire_rejects_merging_both_colors():
    """Turning the quadratic's second vertex by one step before joining the
    edges again gives a sphere map, but each of its faces joins a blue
    half-face of the old map to a white one, so no coloring is inherited."""
    q = colored(maps.quadratic())
    m = q.m
    assert m.vertices() == [(1, 3, 5, 7), (2, 8, 6, 4)]
    pairs = [(1, 4), (3, 6), (5, 8), (7, 2)]
    alpha = [0] * (m.n + 1)
    for a, b in pairs:
        alpha[a], alpha[b] = b, a
    turned = maps.CombinatorialMap(m.sigma, alpha)
    assert (turned.num_vertices, turned.num_faces) == (2, 4)
    for face in turned.faces:
        assert {q.is_blue(m.face_of[d]) for d in face} == {True, False}
    with pytest.raises(InvalidInput):
        maps.rewire(q, m.vertex_ids(), pairs)

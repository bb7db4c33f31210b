import json

import pytest

from balmaps import mapio, maps
from balmaps.cli import run


def run_capture(capsys, argv, stdin=None, monkeypatch=None):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def write_map(tmp_path, obj, name="m.json"):
    p = tmp_path / name
    p.write_text(mapio.map_to_json(obj))
    return str(p)


def test_validate_ok(tmp_path, capsys):
    path = write_map(tmp_path, maps.quadratic())
    code, out = run_capture(capsys, ["validate", path])
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == 2 and data["four_valent"]


def test_validate_malformed(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"fmt":1,"darts":4,"sigma":[[1,2,3,4]],"alpha":[[1,3],[2,4]]}')
    code, out = run_capture(capsys, ["validate", str(p)])
    assert code == 2
    assert json.loads(out)["error"] == "NonZeroGenus"


def test_balance_exit_codes(tmp_path, capsys):
    path = write_map(tmp_path, maps.checkerboard(maps.octahedron())[0])
    code, out = run_capture(capsys, ["balance", path, "--oracle", "both"])
    assert code == 0
    assert json.loads(out)["balanced"]

    fig8 = maps.build_map([[1, 2, 3, 4]], [[1, 2], [3, 4]])
    path = write_map(tmp_path, maps.checkerboard(fig8)[0], "f8.json")
    code, out = run_capture(capsys, ["balance", path, "--witness"])
    assert code == 1
    data = json.loads(out)
    assert not data["balanced"] and "witness" in data


def test_realize_and_from_tuple(tmp_path, capsys):
    path = write_map(tmp_path, maps.checkerboard(maps.quadratic())[0])
    code, out = run_capture(capsys, ["realize", path])
    assert code == 0
    data = json.loads(out)
    assert data["tuple"]["taus"] == [[1, 2], [1, 2]]

    tp = tmp_path / "t.json"
    tp.write_text(json.dumps(data["tuple"]))
    code, out = run_capture(capsys, ["from-tuple", str(tp)])
    assert code == 0
    rebuilt = mapio.map_from_dict(json.loads(out))
    assert rebuilt.m.canonical_code() == maps.quadratic().canonical_code()


def test_realize_unbalanced_is_exit_one(tmp_path, capsys):
    fig8 = maps.build_map([[1, 2, 3, 4]], [[1, 2], [3, 4]])
    path = write_map(tmp_path, maps.checkerboard(fig8)[0])
    code, out = run_capture(capsys, ["realize", path])
    assert code == 1
    assert json.loads(out)["error"] == "NotBalanced"


def test_hurwitz_commands(capsys):
    code, out = run_capture(capsys, ["hurwitz", "count", "4"])
    assert code == 0 and json.loads(out)["count"] == 120
    code, out = run_capture(capsys, ["hurwitz", "enumerate", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 4 and len(data["classes"]) == 4


def test_census_command(capsys):
    code, out = run_capture(capsys, ["census", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["total_covers"] == 4
    assert data["underlying_graphs"] == 2
    assert "notes" in data


def test_generate_and_export(capsys):
    code, out = run_capture(capsys, ["generate", "turkshead", "4"])
    assert code == 0
    cm = mapio.map_from_dict(json.loads(out))
    assert cm.m.num_vertices == 8
    code, out = run_capture(capsys, ["generate", "quadratic"])
    assert code == 0


def test_export_dot(tmp_path, capsys):
    path = write_map(tmp_path, maps.checkerboard(maps.quadratic())[0])
    code, out = run_capture(capsys, ["export-dot", path])
    assert code == 0
    assert out.startswith("graph balmap {")
    assert "// faces" in out


def test_decompose_command(tmp_path, capsys):
    path = write_map(tmp_path, maps.checkerboard(maps.quadratic())[0])
    code, out = run_capture(capsys, ["decompose", path])
    assert code == 0
    assert json.loads(out)["leaves"] == ["quadratic"]


def test_dps_verify(capsys):
    code, out = run_capture(capsys, ["dps", "verify", "-d", "3"])
    assert code == 0
    assert json.loads(out)["ok"]


def test_dps_encode_decode(tmp_path, capsys, duals3):
    g = duals3[0]
    p = tmp_path / "dual.json"
    p.write_text(mapio.dumps(mapio.dual_to_dict(g)))
    code, out = run_capture(capsys, ["dps", "encode", str(p)])
    assert code == 0
    tree_data = json.loads(out)
    tp = tmp_path / "tree.json"
    tp.write_text(json.dumps(tree_data))
    code, out = run_capture(capsys, ["dps", "decode", str(tp)])
    assert code == 0
    g2 = mapio.dual_from_dict(json.loads(out))
    assert g2.canonical_code() == g.canonical_code()


@pytest.mark.parametrize("tree", [
    '{"fmt":1,"d":1,"edges":[]}',
    '{"fmt":1,"d":0,"edges":[]}',
    '{"fmt":1,"d":Infinity,"edges":[]}',
])
def test_dps_decode_malformed_tree(tmp_path, capsys, tree):
    p = tmp_path / "tree.json"
    p.write_text(tree)
    code, out = run_capture(capsys, ["dps", "decode", str(p)])
    assert code == 2
    assert json.loads(out)["error"] == "InvalidInput"


def test_corpus_command(capsys):
    code, out = run_capture(capsys, ["corpus", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["uncolored"] == 3
    assert data["colored"] == len(data["codes"])


def test_dps_verify_positional_degree(capsys):
    code, out = run_capture(capsys, ["dps", "verify", "4"])
    assert code == 0
    assert json.loads(out)["d"] == 4


def test_missing_file(capsys):
    assert run(["validate", "/nonexistent/x.json"]) == 2


def test_bad_thread_env(monkeypatch, capsys):
    monkeypatch.setenv("BALMAPS_THREADS", "zero")
    assert run(["hurwitz", "count", "3"]) == 2
    monkeypatch.setenv("BALMAPS_THREADS", "2")
    assert run(["hurwitz", "count", "3"]) == 0


def test_map_file_round_trip(corpus6):
    import random
    rng = random.Random(8)
    for cm in rng.sample(corpus6.colored, 25):
        text = mapio.map_to_json(cm)
        back = mapio.map_from_json(text)
        assert back == cm

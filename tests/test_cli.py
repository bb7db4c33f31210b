import hashlib
import json
import os
import subprocess
import sys

import pytest

from balmaps import balance, dps, hurwitz, mapio, maps, realize
from balmaps.cli import build_parser, run
from tests.conftest import dual_code


def run_capture(capsys, argv, stdin=None, monkeypatch=None):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def map_to_json(obj):
    return mapio.dumps(mapio.map_to_dict(obj))


def write_map(tmp_path, obj, name="m.json"):
    p = tmp_path / name
    p.write_text(map_to_json(obj))
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


def test_validate_disconnected(tmp_path, capsys):
    # two one-vertex maps (figure eights) side by side
    p = tmp_path / "two.json"
    p.write_text('{"fmt":1,"darts":8,"sigma":[[1,2,3,4],[5,6,7,8]],'
                 '"alpha":[[1,2],[3,4],[5,6],[7,8]]}')
    code, out = run_capture(capsys, ["validate", str(p)])
    assert code == 2
    assert json.loads(out)["error"] == "Disconnected"


def test_balance_exit_codes(tmp_path, capsys):
    path = write_map(tmp_path, maps.checkerboard(maps.octahedron())[0])
    code, out = run_capture(capsys, ["balance", path, "--oracle", "both"])
    assert code == 0
    assert json.loads(out)["balanced"]

    fig8 = maps.build_map([[1, 2, 3, 4]], [[1, 2], [3, 4]], 4)
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
    fig8 = maps.build_map([[1, 2, 3, 4]], [[1, 2], [3, 4]], 4)
    path = write_map(tmp_path, maps.checkerboard(fig8)[0])
    code, out = run_capture(capsys, ["realize", path])
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "NotBalanced"
    assert data["witness"] == {"face": 0, "vertex": 1}


def test_realize_other_errors_exit_two(tmp_path, capsys, monkeypatch):
    # exit 1 is only for the negative verdict; any other MapError is exit 2
    from balmaps import realize
    from balmaps.errors import InvalidMatching

    def fail(cm):
        raise InvalidMatching("a face does not have exactly 6 boundary vertices")
    monkeypatch.setattr(realize, "realize_generic", fail)
    path = write_map(tmp_path, maps.checkerboard(maps.octahedron())[0])
    code, out = run_capture(capsys, ["realize", path])
    assert code == 2
    assert json.loads(out)["error"] == "InvalidMatching"


def test_realize_locally_unbalanced_witness(tmp_path, capsys, corpus6):
    cm = corpus6.colored[2117]
    path = write_map(tmp_path, cm)
    code, out = run_capture(capsys, ["realize", path])
    assert code == 1
    wit = json.loads(out)["witness"]
    assert wit["blue_weight"] == 8 and wit["white_weight"] == 4


def pinched_negative():
    """A degree-4 cover pinched in a blue and then in a white face: Jordan
    faces and equal face counts, but not locally balanced."""
    t = realize.TranspositionTuple(4, ((1, 2), (1, 2), (1, 3), (1, 3), (1, 4), (1, 4)))
    cm = maps.pinch(realize.graph_from_monodromy(t).colored, 1, 2)
    return maps.pinch(cm, 18, 17)


@pytest.mark.parametrize("command", ["balance", "realize"])
def test_each_command_runs_the_flow_once(tmp_path, monkeypatch, command):
    """One face-equation solve per command, on a balanced map and on a
    pinched negative that reaches the flow."""
    runs = []
    flow = balance.check_balance_flow

    def counted(cm):
        runs.append(cm)
        return flow(cm)
    for module in (balance, realize):
        monkeypatch.setattr(module, "check_balance_flow", counted)
    negative = pinched_negative()
    rep = balance.is_balanced(negative)
    assert rep.jordan_ok and rep.global_ok and not rep.local_ok
    for cm, code in ((maps.checkerboard(maps.octahedron())[0], 0), (negative, 1)):
        runs.clear()
        assert run([command, write_map(tmp_path, cm)]) == code
        assert len(runs) == 1


@pytest.mark.parametrize("kind,args,digest", [
    ("quadratic", (), "241498e63baf450aeb385776c91bfcd8f72cbfde15077d8ccac0081dc702af5f"),
    ("octahedron", (), "267bc3344d6f8d749b2cc79664b26f58e1d9f4ab8226db7500e119b53dc7a4c1"),
    ("turkshead", (4,), "cb014adcc5491edc8e33d47404a8282257be56bd93456f7fc946b155bbad9069"),
])
def test_realize_output_pinned(tmp_path, capsys, kind, args, digest):
    # the quadratic output is unchanged by ranking; the other two changed
    m = getattr(maps, kind)(*args)
    path = write_map(tmp_path, maps.checkerboard(m)[0])
    code, out = run_capture(capsys, ["realize", path])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_realize_output_pinned_on_balanced_corpus6(tmp_path, capsys, corpus6):
    from balmaps import balance
    h = hashlib.sha256()
    balanced = [cm for cm in corpus6.colored if balance.is_balanced(cm).balanced]
    assert len(balanced) == 18
    for cm in balanced:
        code, out = run_capture(capsys, ["realize", write_map(tmp_path, cm)])
        assert code == 0
        h.update(out.encode())
    assert h.hexdigest() == (
        "82d98b420e0cf61fa31a9efdb0970806f665c0d5aef911e91ab982f8eb7690f5")


def test_hurwitz_commands(capsys):
    code, out = run_capture(capsys, ["hurwitz", "count", "4"])
    assert code == 0 and json.loads(out)["count"] == 120
    code, out = run_capture(capsys, ["hurwitz", "enumerate", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 4 and len(data["classes"]) == 4
    code, out = run_capture(capsys, ["hurwitz", "enumerate", "4"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8ab204e9059c63c7431b8e45a4887ee45c2fbb4ff43ddc46be732e70cf38bcb9")


def test_census_command(capsys):
    code, out = run_capture(capsys, ["census", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["total_covers"] == 4
    assert data["underlying_graphs"] == 2
    assert "notes" in data


@pytest.mark.parametrize("d,noted", [(4, True), (5, False), (6, False)])
def test_census_note_only_up_to_degree_four(capsys, monkeypatch, d, noted):
    """The note describes the degree-4 hand catalog, so ``census 5`` and
    ``census 6`` leave it out; the census itself is stubbed here."""
    monkeypatch.setattr(hurwitz, "census", lambda d: [])
    code, out = run_capture(capsys, ["census", str(d)])
    assert code == 0
    assert ("notes" in json.loads(out)) == noted


def test_generate_and_export(capsys):
    code, out = run_capture(capsys, ["generate", "turkshead", "4"])
    assert code == 0
    cm = mapio.map_from_dict(json.loads(out))
    assert cm.m.num_vertices == 8
    for kind in ("quadratic", "octahedron"):
        code, out = run_capture(capsys, ["generate", kind])
        assert code == 0
        cm = maps.checkerboard(getattr(maps, kind)())[0]
        assert out == mapio.dumps(mapio.map_to_dict(cm))


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
    code, out = run_capture(capsys, ["dps", "verify", "3"])
    assert code == 0
    assert json.loads(out)["ok"]


def test_dps_verify_degree_two(capsys):
    """The one degree-2 tuple is fixed by the deck involution, so its orbit
    is the single tuple that the single tree matches."""
    code, out = run_capture(capsys, ["dps", "verify", "2"])
    assert code == 0
    assert out == ('{"d":2,"trees":1,"expected_trees":1,"classes":1,'
                   '"trees_over_dfact":0,"ok":true}\n')


def test_dps_verify_short_shape_list_is_a_negative_verdict(monkeypatch, capsys):
    """A shape listing one short counts (2d-2)! trees too few: the chain
    fails with "ok": false and exit 1, not with an error."""
    listed = dps._edge_labeled_shapes
    monkeypatch.setattr(dps, "_edge_labeled_shapes", lambda d: listed(d)[:-1])
    code, out = run_capture(capsys, ["dps", "verify", "4"])
    assert code == 1
    data = json.loads(out)
    assert (data["trees"], data["expected_trees"], data["ok"]) == (2160, 2880, False)


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
    assert dual_code(g2) == dual_code(g)


def test_dps_encode_needs_blue_labels(tmp_path, capsys, duals3):
    """A dual without ``blue_labels`` is refused as it is read."""
    doc = mapio.dual_to_dict(duals3[0])
    del doc["blue_labels"]
    p = tmp_path / "dual.json"
    p.write_text(json.dumps(doc))
    code, out = run_capture(capsys, ["dps", "encode", str(p)])
    assert code == 2
    assert out == ('{"error":"InvalidInput","message":"dual object needs darts, sigma, '
                   'alpha, blue_vertices, face_reds and integer blue_labels: '
                   '\'blue_labels\'"}\n')


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


def test_dps_decode_above_degree_cap(tmp_path, capsys):
    from tests.test_dps import path_tree
    p = tmp_path / "tree.json"
    p.write_text(mapio.dumps(mapio.tree_to_dict(path_tree(dps.DECODE_DEGREE_CAP + 1))))
    code, out = run_capture(capsys, ["dps", "decode", str(p)])
    assert code == 2
    assert json.loads(out)["error"] == "LimitExceeded"


def test_from_tuple_bad_product_output_pinned(tmp_path, capsys):
    p = tmp_path / "t.json"
    p.write_text('{"fmt":1,"d":3,"taus":[[1,2],[1,3],[1,2],[1,2]]}')
    code, out = run_capture(capsys, ["from-tuple", str(p)])
    assert code == 2
    assert out == ('{"error":"InvalidTuple",'
                   '"message":"product of the tuple is not the identity"}\n')


def test_dps_encode_rejects_blue_non_vertex(tmp_path, capsys):
    """Every edge of this dual has vertex 1 at one end, so a blue vertex
    99, which is no vertex, passes the bipartite check; it is refused as
    the dual is read, not by the orientation."""
    star = maps.build_map([[1, 2, 3, 4], [5, 6], [7], [8]], [[1, 5], [2, 6], [3, 7], [4, 8]], 8)
    doc = dict(mapio.map_to_dict(star), blue_vertices=[1, 99], face_reds=[1, 2],
               blue_labels={"1": 1, "99": 2})
    p = tmp_path / "dual.json"
    p.write_text(json.dumps(doc))
    code, out = run_capture(capsys, ["dps", "encode", str(p)])
    assert code == 2
    assert out == ('{"error":"InvalidInput",'
                   '"message":"blue vertex 99 is not a vertex id"}\n')


def _map_doc():
    return mapio.map_to_dict(maps.checkerboard(maps.quadratic())[0])


def _dual_doc():
    tree = dps.EdgeLabeledTree(3, ((0, 1, 1, 1, 2), (1, 2, 2, 3, 4)))
    return mapio.dual_to_dict(dps.tree_to_graph(tree))


@pytest.mark.parametrize("argv,doc,key,edit", [
    (["validate"], _map_doc, "sigma", lambda s: [["1"] + s[0][1:]] + s[1:]),
    (["validate"], _map_doc, "blue_faces", lambda b: ["0"] + b[1:]),
    (["validate"], _map_doc, "blue_faces", lambda b: [[0]] + b[1:]),
    (["validate"], _map_doc, "sigma", lambda s: 5),
    (["validate"], _map_doc, "darts", lambda n: 1e9),
    (["validate"], _map_doc, "darts", lambda n: 10 ** 9),
    (["dps", "encode"], _dual_doc, "blue_labels", lambda lab: list(lab.values())),
    (["dps", "encode"], _dual_doc, "blue_labels", lambda lab: dict(lab, x=1)),
], ids=["string-sigma-dart", "string-blue-face", "nested-blue-face", "int-sigma",
        "float-darts", "huge-darts", "list-blue-labels", "string-blue-label-key"])
def test_malformed_json_exits_two(tmp_path, capsys, argv, doc, key, edit):
    data = doc()
    data[key] = edit(data[key])
    p = tmp_path / "in.json"
    p.write_text(json.dumps(data))
    code = run(argv + [str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"] == "InvalidInput"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["validate"], ["balance"], ["realize"], ["decompose"], ["export-dot"],
    ["from-tuple"], ["dps", "encode"], ["dps", "decode"],
], ids=lambda argv: "-".join(argv))
@pytest.mark.parametrize("content", [
    b'\xff{"fmt": 1}',
    b"[" * 100000 + b"]" * 100000,
    b'{"fmt": 1, "d": ' + b"7" * 5000 + b"}",
], ids=["not-utf8", "nested-100000-deep", "5000-digit-integer"])
def test_unreadable_document_exits_two(tmp_path, capsys, argv, content):
    p = tmp_path / "in.json"
    p.write_bytes(content)
    code = run(argv + [str(p)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("InvalidInput: ")
    assert json.loads(captured.out)["error"] == "InvalidInput"


def test_hurwitz_count_too_long_to_print(capsys):
    code, out = run_capture(capsys, ["hurwitz", "count", "2000"])
    assert code == 2
    assert json.loads(out)["error"] == "LimitExceeded"


@pytest.mark.parametrize("argv,message", [
    (["hurwitz", "count", "2"], "closed formula requires d >= 3"),
    (["hurwitz", "enumerate", "1"], "degree must be at least 2"),
], ids=["count-2", "enumerate-1"])
def test_hurwitz_degree_too_small_is_invalid_input(capsys, argv, message):
    code, out = run_capture(capsys, argv)
    assert code == 2
    assert out == '{"error":"InvalidInput","message":"%s"}\n' % message


@pytest.mark.parametrize("argv,message", [
    (["dps", "verify", "x"], "dps verify takes a degree, got 'x'"),
    (["generate", "turkshead"], "turkshead needs an index n"),
    (["generate", "pinch"], "pinch needs --map and --darts D1 D2"),
    (["dps", "verify"], "dps verify needs a degree"),
    (["dps", "encode"], "dps encode needs an input file"),
    (["dps", "decode"], "dps decode needs an input file"),
], ids=["dps-verify-x", "turkshead-no-n", "pinch-no-darts", "dps-verify-no-degree",
        "dps-encode-no-input", "dps-decode-no-input"])
def test_missing_or_malformed_argument_is_invalid_input(capsys, argv, message):
    code, out = run_capture(capsys, argv)
    assert code == 2
    assert out == '{"error":"InvalidInput","message":"%s"}\n' % message


@pytest.mark.parametrize("argv,refusal", [
    (["hurwitz", "census", "4"], "invalid choice: 'census'"),
    (["dps", "verify", "-d", "3"], "unrecognized arguments: -d"),
    (["dps", "encode", "in.json", "-d", "3"], "unrecognized arguments: -d 3"),
], ids=["hurwitz-census", "dps-verify-flag", "dps-encode-flag"])
def test_each_command_has_one_spelling(capsys, argv, refusal):
    """The census is ``census D`` and the chain's degree is positional;
    the parser refuses the other spellings."""
    assert run(argv) == 2
    assert refusal in capsys.readouterr().err


def _doc_file(tmp_path, doc):
    p = tmp_path / "in.json"
    p.write_text(json.dumps(doc))
    return str(p)


def _octahedron_file(tmp_path):
    return write_map(tmp_path, maps.checkerboard(maps.octahedron())[0])


def _digon_dual(tmp_path):
    """A blue and a white vertex joined by two edges: two faces, where a
    dual on one blue vertex has none."""
    digon = maps.build_map([[1, 3], [2, 4]], [[1, 2], [3, 4]], 4)
    return _doc_file(tmp_path, dict(mapio.map_to_dict(digon), blue_vertices=[1],
                                    face_reds=[1, 2], blue_labels={"1": 1}))


def _white_out_degree_two(tmp_path):
    """_dual_doc with its vertex colours swapped and its faces red-labeled
    in order: white vertex 3 then has two outgoing edges."""
    return _doc_file(tmp_path, dict(_dual_doc(), blue_vertices=[9, 11, 15],
                                    face_reds=[1, 2, 3, 4],
                                    blue_labels={"9": 1, "11": 2, "15": 3}))


def _tree_file(tmp_path, white, blue):
    return _doc_file(tmp_path, {"fmt": 1, "d": 2,
                                "edges": [{"white": white, "blue": blue, "red": [1, 2]}]})


@pytest.mark.parametrize("argv,error,message", [
    (lambda tmp: ["generate", "turkshead", "0"],
     "InvalidInput", "turkshead index must be >= 1"),
    (lambda tmp: ["generate", "pinch", "--map", _octahedron_file(tmp), "--darts", "0", "1"],
     "InvalidPinch", "dart out of range"),
    (lambda tmp: ["generate", "pinch", "--map", _octahedron_file(tmp), "--darts", "1", "1"],
     "InvalidPinch", "darts lie on the same edge"),
    (lambda tmp: ["census", "7"], "LimitExceeded", "census capped at degree 6"),
    (lambda tmp: ["dps", "encode", _digon_dual(tmp)],
     "InvalidInput", "face count must be 2d-2"),
    (lambda tmp: ["dps", "encode", _white_out_degree_two(tmp)],
     "DegreePropertyFailed", "white vertex 3 has out-degree 2"),
    (lambda tmp: ["dps", "decode", _tree_file(tmp, [0, 1], 2)],
     "InvalidInput", "blue labels must be a bijection onto 1..d-1"),
    (lambda tmp: ["dps", "decode", _tree_file(tmp, [0, 0], 1)],
     "InvalidInput", "bad white endpoints (0, 0)"),
], ids=["turkshead-0", "pinch-dart-out-of-range", "pinch-one-edge", "census-7",
        "dual-face-count", "dual-white-out-degree", "tree-blue-labels", "tree-white-endpoints"])
def test_input_errors_reached_from_the_cli(tmp_path, capsys, argv, error, message):
    code = run(argv(tmp_path))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "%s: %s\n" % (error, message)
    assert json.loads(captured.out) == {"error": error, "message": message}


def test_curve_oracle_refuses_more_than_ten_vertices(tmp_path, capsys):
    path = write_map(tmp_path, maps.checkerboard(maps.turkshead(6))[0])
    code, out = run_capture(capsys, ["balance", path, "--oracle", "curves"])
    assert code == 2
    assert out == ('{"error":"LimitExceeded",'
                   '"message":"curve oracle capped at 10 vertices"}\n')


def test_generate_huge_turkshead_is_refused(capsys):
    # refused before any table is built, so no memory is spent on it
    code, out = run_capture(capsys, ["generate", "turkshead", str(10 ** 9)])
    assert code == 2
    assert json.loads(out)["error"] == "LimitExceeded"


def test_corpus_command(capsys):
    code, out = run_capture(capsys, ["corpus", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["uncolored"] == 3
    assert data["colored"] == len(data["codes"])


def test_corpus_six_output_pinned(capsys):
    code, out = run_capture(capsys, ["corpus", "6"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "901cda8e7dc16585843f659ec613c5770304559050e45ba6f9c7407ef8389118")


@pytest.mark.parametrize("argv, flag", [
    (["hurwitz", "enumerate", "4"], "--out"),
    (["corpus", "4"], "--out"),
    (["decompose", None], "--tree"),
], ids=["hurwitz", "corpus", "decompose"])
def test_written_file_is_the_printed_json(tmp_path, capsys, argv, flag):
    """A file written by --out or --tree holds the JSON that the command
    prints without the flag (its "tree" for decompose)."""
    argv = [a or write_map(tmp_path, maps.checkerboard(maps.turkshead(4))[0]) for a in argv]
    code, printed = run_capture(capsys, argv)
    assert code == 0
    path = tmp_path / "out.json"
    code, out = run_capture(capsys, argv + [flag, str(path)])
    assert code == 0
    if argv[0] == "decompose":
        assert out == printed
        printed = mapio.dumps(json.loads(printed)["tree"])
    else:
        assert json.loads(out)["out"] == str(path)
    assert path.read_text() == printed


def test_dps_verify_positional_degree(capsys):
    code, out = run_capture(capsys, ["dps", "verify", "4"])
    assert code == 0
    assert json.loads(out)["d"] == 4


def test_parser_reuse_carries_no_state(tmp_path, capsys):
    """Calls of ``run`` in one process share one parser.  A malformed argv
    and ``--help`` before a valid call leave its output as a fresh process
    gives it."""
    path = write_map(tmp_path, maps.checkerboard(maps.octahedron())[0])
    assert run(["balance", "--oracle", "nope", path]) == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err
    assert run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: balmaps")
    assert run(["validate", path]) == 0
    reused = capsys.readouterr()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    fresh = subprocess.run([sys.executable, "-m", "balmaps.cli", "validate", path],
                           capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=src))
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, reused.out, reused.err)
    assert build_parser() is build_parser()


def test_missing_file(tmp_path, capsys):
    assert run(["validate", "/nonexistent/x.json"]) == 2
    assert run(["validate", str(tmp_path)]) == 2  # a directory


def test_map_file_round_trip(corpus6):
    import random
    rng = random.Random(8)
    for cm in rng.sample(corpus6.colored, 25):
        text = map_to_json(cm)
        back = mapio.map_from_json(text)
        assert back == cm

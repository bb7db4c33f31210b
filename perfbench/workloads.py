"""The four workloads.

A workload's ``prepare`` makes the inputs (and writes any input files); its
``run_pass`` is a generator that yields one ``Step`` at a time, receives
the step's result (``None`` if the step failed), and returns the list of
failed whole-pass checks.  Code between yields, and every ``check``, runs
outside the timed steps with tracing paused.

The random covers and random trees are drawn from fixed reference streams,
one per degree: the time of one relabeled cover's matching search or one
tree's contour sewing spreads over three orders of magnitude between
draws, so a pass that a run can afford would measure the draw rather than
the program.  Every other random choice (item order, dart relabelings of
the large diagrams and their copies, pinch points, the negative covers) is
drawn from the run's ``--seed``.  A pass runs its steps in the same order
each time, so item i of every pass is the same operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import inputs

REFERENCE_SEED = "reference-1"


@dataclass
class Step:
    name: str
    fn: Callable[[], object]
    item: bool = False
    check: Optional[Callable[[object], Optional[str]]] = None


def _rng(workload: str, seed) -> random.Random:
    return random.Random("%s:%s" % (workload, seed))


# -- corpus ----------------------------------------------------------------------------


CORPUS_SCALES = {
    # max vertices, uncolored classes per vertex count, colored maps, balanced maps
    "full": (6, {2: 3, 4: 33, 6: 1070}, 2132, 18),
    "smoke": (4, {2: 3, 4: 33}, 61, 3),
}


def corpus_prepare(bm, seed, scale, workdir, fixture):
    return {"scale": CORPUS_SCALES[scale], "seed": seed,
            "census_codes": {tuple(e["underlying"]) for e in fixture["entries"]}}


def corpus_pass(bm, st):
    max_v, per_v, n_colored, n_balanced = st["scale"]

    def check_corpus(c):
        counts = {}
        for m in c.uncolored:
            counts[m.num_vertices] = counts.get(m.num_vertices, 0) + 1
        if counts != per_v or len(c.colored) != n_colored:
            return "classes per V %r, colored %d" % (counts, len(c.colored))
        return None

    def classify(cm):
        fresh = bm.maps.ColoredMap(cm.m, cm.blue_faces, check=False)
        return fresh.colored_code(), bm.balance.is_balanced(cm)

    def check_item(result, cm):
        code, r = result
        if code != cm.colored_code():
            return "colored code of a fresh copy differs"
        if not isinstance(r.balanced, bool):
            return "verdict is not a bool"
        if not r.balanced and not r.witness:
            return "negative verdict without a witness"
        return None

    c = yield Step("corpus.build_corpus", lambda: bm.corpus.build_corpus(max_v),
                   check=check_corpus)
    if c is None:
        return ["corpus was not built"]
    order = list(range(len(c.colored)))
    _rng("corpus", st["seed"]).shuffle(order)
    balanced = []
    for i in order:
        cm = c.colored[i]
        result = yield Step("corpus.classify", lambda cm=cm: classify(cm), item=True,
                            check=lambda res, cm=cm: check_item(res, cm))
        if result is not None and result[1].balanced:
            balanced.append(cm)
    errors = []
    if len(balanced) != n_balanced:
        errors.append("%d balanced maps, expected %d" % (len(balanced), n_balanced))
    if max_v >= 6:
        codes = {cm.m.canonical_code() for cm in balanced if cm.m.num_vertices == 6}
        if codes != st["census_codes"]:
            errors.append("balanced V=6 diagrams differ from the d=4 census fixture")
    return errors


# -- covers ----------------------------------------------------------------------------


COVERS_SCALES = {
    # degree enumerated and glued, distinct underlying diagrams expected
    "full": (5, 89),
    "smoke": (4, 11),
}


def covers_prepare(bm, seed, scale, workdir, fixture):
    return {"scale": COVERS_SCALES[scale], "seed": seed,
            "census": fixture["entries"]}


def covers_pass(bm, st):
    d, n_diagrams = st["scale"]
    classes = yield Step(
        "hurwitz.enumerate_classes", lambda: bm.hurwitz.enumerate_classes(d),
        check=lambda cl: None if len(cl) == bm.hurwitz.hurwitz_count(d)
        else "%d classes, formula gives %d" % (len(cl), bm.hurwitz.hurwitz_count(d)))
    if classes is None:
        return ["classes were not enumerated"]
    errors = []
    order = list(range(len(classes)))
    _rng("covers", st["seed"]).shuffle(order)
    darts = 4 * (2 * d - 2)

    def glue_code(t):
        return bm.realize.graph_from_monodromy(t).colored.m.canonical_code()

    codes = set()
    for i in order:
        t = classes[i].representative
        code = yield Step("realize.graph_from_monodromy", lambda t=t: glue_code(t), item=True,
                          check=lambda c: None if c[0] == darts
                          else "glued map has %d darts" % c[0])
        codes.add(code)
    codes.discard(None)
    if len(codes) != n_diagrams:
        errors.append("%d underlying diagrams, expected %d" % (len(codes), n_diagrams))

    expected = st["census"]
    entries = yield Step(
        "hurwitz.census", lambda: bm.hurwitz.census(4),
        check=lambda es: None if [e.to_dict() for e in es] == expected
        else "census(4) differs from the fixture")
    for e in entries or []:
        yield Step("hurwitz.verify_labelings_per_graph",
                   lambda e=e: bm.hurwitz.verify_labelings_per_graph(e),
                   check=lambda n, e=e: None if n == e.class_count
                   else "recount %d != %d" % (n, e.class_count))
    yield Step("dps.verify_counting_chain", lambda: bm.dps.verify_counting_chain(4),
               check=lambda r: None if r["ok"] else "counting chain failed: %r" % r)
    return errors


# -- diagrams --------------------------------------------------------------------------


DIAGRAMS_SCALES = {
    # small covers per degree, pinched negatives, turkshead sizes, pinched turkshead size
    "full": ({4: 14, 5: 14, 6: 3}, 6, (60, 100), 80),
    "smoke": ({4: 1, 5: 1}, 1, (6,), 6),
}


def _cli(bm, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bm.cli.run(argv)
    return code, out.getvalue()


def _write(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def diagrams_prepare(bm, seed, scale, workdir, fixture):
    small, n_neg, sizes, pinch_size = DIAGRAMS_SCALES[scale]
    rng = _rng("diagrams", seed)
    items = []
    for d, count in sorted(small.items()):
        ref = _rng("diagrams", "%s:d%d" % (REFERENCE_SEED, d))
        for _ in range(count):
            mp = inputs.relabel(inputs.glue(d, inputs.sample_tuple(ref, d)), ref)
            items.append(("small", "d%d" % d, mp))
    for _ in range(n_neg):
        d = rng.choice((4, 5))
        mp = inputs.relabel(inputs.pinch(inputs.glue(d, inputs.sample_tuple(rng, d)), rng), rng)
        items.append(("negative", "d%d" % d, mp))
    for n in sizes:
        items.append(("large", "turkshead%d" % n, inputs.relabel(inputs.turkshead(n), rng)))
    items.append(("large-pinched", "turkshead%d" % pinch_size,
                  inputs.relabel(inputs.pinch(inputs.turkshead(pinch_size), rng), rng)))
    rng.shuffle(items)
    out = []
    for k, (kind, label, mp) in enumerate(items):
        path = os.path.join(workdir, "item%03d.json" % k)
        _write(path, inputs.map_dict(mp))
        copy = None
        if kind.startswith("large"):
            copy = os.path.join(workdir, "item%03d-copy.json" % k)
            _write(copy, inputs.map_dict(inputs.relabel(mp, rng)))
        out.append({"kind": kind, "label": label, "path": path, "copy": copy,
                    "tuple_path": os.path.join(workdir, "item%03d-tuple.json" % k)})
    return {"items": out}


def _small_item(bm, it):
    runs = {"balance": _cli(bm, ["balance", "--witness", it["path"]]),
            "realize": _cli(bm, ["realize", it["path"]])}
    if runs["realize"][0] == 0:
        with open(it["tuple_path"], "w") as fh:
            json.dump(json.loads(runs["realize"][1])["tuple"], fh)
        runs["from-tuple"] = _cli(bm, ["from-tuple", it["tuple_path"]])
    runs["decompose"] = _cli(bm, ["decompose", it["path"]])
    return runs


def _large_item(bm, it):
    runs = {"validate": _cli(bm, ["validate", it["path"]]),
            "balance": _cli(bm, ["balance", "--witness", it["path"]]),
            "decompose": _cli(bm, ["decompose", it["path"]])}
    with open(it["path"]) as fa, open(it["copy"]) as fb:
        a, b = bm.mapio.map_from_json(fa.read()), bm.mapio.map_from_json(fb.read())
    runs["isomorphic"] = bm.maps.isomorphic(a.m, b.m)
    return runs


def _check_diagram(bm, it, runs):
    positive = it["kind"] in ("small", "large")
    expect = {"balance": 0 if positive else 1, "realize": 0, "from-tuple": 0,
              "decompose": 0, "validate": 0}
    for cmd, expected in expect.items():
        if cmd in runs and runs[cmd][0] != expected:
            return "%s exited %d, expected %d" % (cmd, runs[cmd][0], expected)
    verdict = json.loads(runs["balance"][1])
    if verdict["balanced"] != positive:
        return "balance verdict %r" % verdict["balanced"]
    if not positive and not verdict.get("witness"):
        return "negative verdict without a witness"
    if "decompose" in runs:
        leaves = json.loads(runs["decompose"][1])["leaves"]
        if not leaves or not set(leaves) <= {"quadratic", "hyperbolic"}:
            return "decomposition leaves %r" % leaves
    if it["kind"] == "small":
        if "from-tuple" not in runs:
            return "realize produced no tuple"
        with open(it["path"]) as fh:
            original = bm.mapio.map_from_json(fh.read())
        reglued = bm.mapio.map_from_json(runs["from-tuple"][1])
        if reglued.colored_code() != original.colored_code():
            return "reglued diagram differs from the input"
    if it["kind"].startswith("large") and runs["isomorphic"] is not True:
        return "relabeled copy is not isomorphic"
    return None


def diagrams_pass(bm, st):
    for it in st["items"]:
        if it["kind"] == "small":
            fn = lambda it=it: _small_item(bm, it)
        elif it["kind"] == "negative":
            fn = lambda it=it: {"balance": _cli(bm, ["balance", "--witness", it["path"]])}
        else:
            fn = lambda it=it: _large_item(bm, it)
        yield Step("diagrams.%s.%s" % (it["kind"], it["label"]), fn, item=True,
                   check=lambda runs, it=it: _check_diagram(bm, it, runs))
    return []


# -- trees -----------------------------------------------------------------------------


TREES_SCALES = {
    "full": {6: 16, 8: 12, 10: 6, 12: 4, 14: 2},
    "smoke": {6: 1, 8: 1},
}


def trees_prepare(bm, seed, scale, workdir, fixture):
    trees = []
    for d, count in sorted(TREES_SCALES[scale].items()):
        ref = _rng("trees", "%s:d%d" % (REFERENCE_SEED, d))
        for _ in range(count):
            edges = inputs.sample_tree(ref, d)
            trees.append((bm.dps.EdgeLabeledTree(d, edges), inputs.tree_key(edges)))
    _rng("trees", seed).shuffle(trees)
    return {"trees": trees}


def trees_pass(bm, st):
    def round_trip(t):
        return bm.dps.graph_to_tree(bm.dps.tree_to_graph(t))

    for t, key in st["trees"]:
        yield Step("trees.d%d" % t.d, lambda t=t: round_trip(t), item=True,
                   check=lambda t2, key=key: None if inputs.tree_key(t2.edges) == key
                   else "round trip changed the tree")
    return []


# name -> (prepare, run_pass)
WORKLOADS = {
    "corpus": (corpus_prepare, corpus_pass),
    "covers": (covers_prepare, covers_pass),
    "diagrams": (diagrams_prepare, diagrams_pass),
    "trees": (trees_prepare, trees_pass),
}

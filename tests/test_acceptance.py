"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criterion 2's drawing-level figures count 17 diagrams with per-diagram
cover counts 6/12/2/6/6; the census up to orientation-preserving
isomorphism has 11 underlying diagrams (verified three independent ways),
so that sub-claim fails and the test records the analysis instead of
masking it.
"""

import random
import time
from collections import Counter

import pytest

from balmaps import balance, corpus, decompose, dps, hurwitz, maps, realize
from tests.conftest import dual_code, dual_of, felsner_by_reversals
from tests.test_decompose import split_four_cut
from tests.test_dps import canonical_key
from tests.test_hurwitz import brute_canonical_tuple


def _verdict(name, ok, detail=""):
    print("criterion %s: %s %s" % (name, "PASS" if ok else "FAIL", detail))
    return ok


def test_criterion_1_hurwitz_counts():
    t0 = time.time()
    n3 = len(hurwitz.enumerate_classes(3))
    n4 = len(hurwitz.enumerate_classes(4))
    small_time = time.time() - t0
    t0 = time.time()
    n5 = len(hurwitz.enumerate_classes(5))
    d5_time = time.time() - t0
    ok = (n3 == 4 == hurwitz.hurwitz_count(3)
          and n4 == 120 == hurwitz.hurwitz_count(4)
          and n5 == 8400 == hurwitz.hurwitz_count(5)
          and small_time < 10 and d5_time < 600)
    print("criterion 1 timing: d<=4 %.1fs, d=5 %.1fs" % (small_time, d5_time))
    assert _verdict("1 (hurwitz counts)", ok,
                    "d=3:%d d=4:%d d=5:%d" % (n3, n4, n5))


def test_criterion_2_census(census4):
    total = sum(e.class_count for e in census4)
    sizes = sorted((e.class_count for e in census4), reverse=True)
    catalog_subtotals = [36, 60, 6, 6, 12]
    # attainable parts: the 120 total and the subtotal regrouping
    ok_total = total == 120 == sum(catalog_subtotals)
    # 36 = {36}, 60 = {18,12,12,12,6}, 6 = {4,2}, 6 = {6}, 12 = {6,6}
    regrouped = sorted(
        [36] + [18, 12, 12, 12, 6] + [4, 2] + [6] + [6, 6], reverse=True)
    ok_regroup = regrouped == sizes
    print("criterion 2: census has %d underlying diagrams, sizes %s, total %d"
          % (len(census4), sizes, total))
    print("criterion 2: catalog subtotals 36+60+6+6+12 regroup consistently as"
          " {36} {18,12,12,12,6} {4,2} {6} {6,6}: %s" % ok_regroup)
    assert ok_total and ok_regroup
    # the criterion as stated counts 17 catalog drawings with per-drawing
    # counts 6/12/2/6/6; drawings repeat sphere diagrams (the octahedron is
    # two of them), so this fails against the isomorphism-class census,
    # which three independent pipelines (tuple enumeration + gluing,
    # balance flow over the exhaustive corpus, per-diagram labeling
    # recounts) all put at 11
    as_stated = (len(census4) == 17
                 and Counter(e.class_count for e in census4)
                 == Counter({6: 9, 12: 5, 2: 3}))
    _verdict("2 (census, as stated: 17 graphs at 6/12/2/6/6)", as_stated,
             "verified census: 11 graphs, octahedron fiber 4")
    assert as_stated, (
        "census as stated is unattainable: 17 counts plane drawings, the "
        "isomorphism-class census has 11 underlying diagrams "
        "(sizes %s); see decisions ledger" % sizes)


def test_criterion_3_theorem_equivalence(corpus6):
    t0 = time.time()
    exceptions = []
    for cm in corpus6.colored:
        b = balance.is_balanced(cm).balanced
        r = realize.is_realizable(cm)
        if b != r:
            exceptions.append((cm, b, r))
    elapsed = time.time() - t0
    for cm, b, r in exceptions:
        print("EXCEPTION: balanced=%s realizable=%s map=%s"
              % (b, r, cm.colored_code()))
    ok = not exceptions and elapsed < 300
    print("criterion 3 timing: %.1fs" % elapsed)
    assert _verdict("3 (balanced iff realizable)", ok,
                    "%d colored maps, %d exceptions"
                    % (len(corpus6.colored), len(exceptions)))


def test_criterion_4_decider_agreement(corpus6):
    disagreements = 0
    for cm in corpus6.colored:
        flow = balance.is_balanced(cm, oracle="flow")
        curves = balance.is_balanced(cm, oracle="curves")
        if flow.balanced != curves.balanced:
            disagreements += 1
    ok = disagreements == 0
    assert _verdict("4 (flow vs curve oracle)", ok,
                    "%d maps, %d disagreements"
                    % (len(corpus6.colored), disagreements))


def test_criterion_5_monodromy_round_trip(classes4):
    good = 0
    for cls in classes4:
        t = cls.representative
        real = realize.graph_from_monodromy(t)
        t2 = realize.monodromy(real.colored, real.labels)
        again = realize.graph_from_monodromy(t2)
        if (brute_canonical_tuple(t2) == t.taus
                and again.colored.colored_code() == real.colored.colored_code()):
            good += 1
    assert _verdict("5 (monodromy round trip)", good == 120, "%d/120" % good)


def test_criterion_6_dps_bijection(duals3, duals4):
    ok3 = 0
    for g in duals3:
        t = dps.graph_to_tree(g)
        if dual_code(dps.tree_to_graph(t)) == dual_code(g):
            ok3 += 1
    t0 = time.time()
    ok4 = 0
    trees4 = []
    for g in duals4:
        t = dps.graph_to_tree(g)
        trees4.append(t)
        if dual_code(dps.tree_to_graph(t)) == dual_code(g):
            ok4 += 1
    elapsed = time.time() - t0
    chain3 = dps.verify_counting_chain(3)
    chain4 = dps.verify_counting_chain(4)
    distinct4 = len({canonical_key(t) for t in trees4})
    ok = (ok3 == 24 and ok4 == 2880 and distinct4 == 2880
          and chain3["ok"] and chain4["ok"])
    print("criterion 6 timing: d=4 round trips %.1fs" % elapsed)
    assert _verdict("6 (tree bijection)", ok,
                    "d=3 %d/24, d=4 %d/2880, %d distinct trees, chains ok"
                    % (ok3, ok4, distinct4))


def test_criterion_7_felsner_uniqueness(classes4):
    duals = []
    for cls in classes4:
        real = realize.graph_from_monodromy(cls.representative)
        duals.append(dual_of(real.colored, real.labels))
    diffs = 0
    for i, g in enumerate(duals):
        o = dps.orient_greater_label_left(g)
        base = dps.felsner_normalize(o).tail
        for s in range(100):
            rng = random.Random(10007 * i + s)
            if felsner_by_reversals(o, rng).tail != base:
                diffs += 1
    assert _verdict("7 (felsner uniqueness)", diffs == 0,
                    "%d duals x 100 schedules, %d mismatches"
                    % (len(duals), diffs))


def test_criterion_8_decomposition():
    quad_tree = decompose.decompose_full(
        maps.checkerboard(maps.quadratic())[0])
    quad_ok = [l.kind for l in quad_tree.leaves()] == ["quadratic"]

    hyp_ok = True
    for make in (maps.octahedron, lambda: maps.turkshead(3),
                 lambda: maps.turkshead(4), lambda: maps.turkshead(5)):
        cm = maps.checkerboard(make())[0]
        leaves = decompose.decompose_full(cm).leaves()
        hyp_ok = hyp_ok and [l.kind for l in leaves] == ["hyperbolic"]

    pieces = [maps.checkerboard(m)[0] for m in
              (maps.quadratic(), maps.octahedron(), maps.turkshead(2),
               maps.turkshead(3), maps.turkshead(4))]
    done = failures = 0
    for seed in range(400):
        rng = random.Random(seed)
        a, b = rng.sample(pieces, 2)
        wa_choices = sorted(a.white_faces)
        bb_choices = sorted(b.blue_faces)
        wa = rng.choice(wa_choices)
        bb = rng.choice(bb_choices)
        oa, ob = a.m.faces[wa], b.m.faces[bb]
        ia, ib = rng.randrange(len(oa) - 1), rng.randrange(len(ob) - 1)
        da1, da2 = oa[ia], oa[ia + 1]
        db1, db2 = ob[ib], ob[ib + 1]
        if (a.m.edge_of(da1) == a.m.edge_of(da2)
                or b.m.edge_of(db1) == b.m.edge_of(db2)):
            continue
        if len({a.m.face_of[a.m.alpha[da1]], a.m.face_of[a.m.alpha[da2]]}) != 2:
            continue
        if len({b.m.face_of[b.m.alpha[db1]], b.m.face_of[b.m.alpha[db2]]}) != 2:
            continue
        s = decompose.murasugi_sum(a, da1, da2, b, db1, db2)
        curve = decompose.gluing_curve(a, b, s, da1, da2, db1, db2)
        p1, p2 = split_four_cut(s, curve)
        if sorted([p1.colored_code(), p2.colored_code()]) != \
                sorted([a.colored_code(), b.colored_code()]):
            failures += 1
        done += 1
        if done >= 50:
            break
    ok = quad_ok and hyp_ok and done >= 50 and failures == 0
    assert _verdict("8 (decomposition)", ok,
                    "quad leaf %s, hyperbolic %s, %d sum round trips, %d failures"
                    % (quad_ok, hyp_ok, done, failures))


def test_criterion_9_pinch_negative(corpus6):
    applicable = failures = 0
    for cm in corpus6.colored:
        m = cm.m
        pinch_at = None
        for f in sorted(cm.blue_faces):
            orbit = m.faces[f]
            for i in range(len(orbit)):
                for j in range(i + 1, len(orbit)):
                    if m.edge_of(orbit[i]) != m.edge_of(orbit[j]):
                        pinch_at = (orbit[i], orbit[j])
                        break
                if pinch_at:
                    break
            if pinch_at:
                break
        if pinch_at is None:
            continue
        applicable += 1
        blue_before = len(cm.blue_faces)
        white_before = m.num_faces - blue_before
        p = maps.pinch(cm, *pinch_at)
        blue_after = len(p.blue_faces)
        white_after = p.m.num_faces - blue_after
        if not (blue_after == blue_before + 1
                and white_after == white_before
                and not balance.check_global(p)):
            failures += 1
    ok = failures == 0 and applicable > 0
    assert _verdict("9 (pinch negative)", ok,
                    "%d applicable maps, %d failures" % (applicable, failures))

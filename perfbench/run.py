"""Benchmark of the balmaps pipeline: four seeded workloads, end-to-end
metrics from an untraced run, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; it imports ``balmaps`` from ``src/``
there and nowhere else, and reads ``fixtures/``.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it print every metric by name and unit.  Per-operation
results and the spans of a traced run are written under ``.perfbench/``.
See README.md in this directory for the workloads and metrics.
"""

import time

T_START = time.perf_counter()

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
FIXTURE = os.path.join(ROOT, "fixtures", "census-d4.json")

STEP_BUDGET_S = 60.0     # one timed step (an item or a stage) may take this long
DEADLINE_S = 150.0       # after this, remaining steps are recorded as timeouts
SETUP_SAMPLES = 5        # fresh processes whose set-up time gives setup_s
MIN_ROUNDS = 3           # times a short step is run in one measured run, at least
MAX_ROUNDS = 8           # and at most
SHORT_STEP_S = 0.25      # steps up to this long are repeated
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TREE_DEGREES = (6, 8, 10, 12, 14)
MAPIO_FUNCTIONS = ("map_from_json", "map_from_dict", "map_to_dict", "dumps",
                   "tuple_from_dict", "tuple_to_dict")

# (module, attribute, span name, kind); kind "generator" times each step
TARGETS = [
    ("balmaps.maps", "CombinatorialMap.__init__", "maps.map_init", "function"),
    ("balmaps.maps", "CombinatorialMap.canonical_code", "maps.canonical_code", "function"),
    ("balmaps.maps", "ColoredMap.colored_code", "maps.colored_code", "function"),
    ("balmaps.corpus", "build_corpus", "corpus.build_corpus", "function"),
    ("balmaps.corpus", "enumerate_four_valent", "corpus.enumerate_four_valent", "function"),
    ("balmaps.balance", "is_balanced", "balance.is_balanced", "function"),
    ("balmaps.balance", "check_balance_flow", "balance.check_balance_flow", "function"),
    ("balmaps.realize", "enumerate_matchings", "realize.enumerate_matchings", "generator"),
    ("balmaps.realize", "realize_generic", "realize.realize_generic", "function"),
    ("balmaps.realize", "enrich", "realize.enrich", "function"),
    ("balmaps.realize", "integrate_labels", "realize.integrate_labels", "function"),
    ("balmaps.realize", "monodromy", "realize.monodromy", "function"),
    ("balmaps.realize", "graph_from_monodromy", "realize.graph_from_monodromy", "function"),
    ("balmaps.hurwitz", "enumerate_classes", "hurwitz.enumerate_classes", "function"),
    ("balmaps.hurwitz", "census", "hurwitz.census", "function"),
    ("balmaps.hurwitz", "verify_labelings_per_graph", "hurwitz.verify_labelings_per_graph",
     "function"),
    ("balmaps.dps", "tree_to_graph", "dps.tree_to_graph", "function"),
    ("balmaps.dps", "graph_to_tree", "dps.graph_to_tree", "function"),
    ("balmaps.dps", "felsner_normalize", "dps.felsner_normalize", "function"),
    ("balmaps.dps", "bernardi_spanning_tree", "dps.bernardi_spanning_tree", "function"),
    ("balmaps.dps", "verify_counting_chain", "dps.verify_counting_chain", "function"),
    ("balmaps.decompose", "decompose_full", "decompose.decompose_full", "function"),
    ("balmaps.decompose", "find_two_cuts", "decompose.find_two_cuts", "function"),
    ("balmaps.decompose", "find_four_cuts", "decompose.find_four_cuts", "function"),
    ("balmaps.cli", "run", "cli.run", "function"),
] + [("balmaps.mapio", f, "mapio." + f, "function") for f in MAPIO_FUNCTIONS]

# tree_to_graph spans carry the degree, so each degree has its own self time
TAGS = {"dps.tree_to_graph": lambda t: "d%d" % t.d}


class BudgetExceeded(BaseException):
    """Raised by the alarm when a step runs past its budget; a BaseException
    so that no handler inside the program swallows it."""


def _alarm(signum, frame):
    raise BudgetExceeded()


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def import_program():
    if not os.path.isdir(os.path.join(SRC, "balmaps")):
        fail("no balmaps package under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import balmaps
        import balmaps.cli
    except ImportError as exc:
        fail("cannot import balmaps: %s" % exc)
    if not os.path.realpath(balmaps.__file__).startswith(os.path.realpath(SRC) + os.sep):
        fail("balmaps was imported from %s, not from this checkout" % balmaps.__file__)
    return balmaps


def load_fixture():
    try:
        with open(FIXTURE) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail("cannot read %s: %s" % (FIXTURE, exc))


def set_up(workload, seed, scale, workdir):
    """Import the program, load the fixture and make the seeded inputs."""
    bm = import_program()
    prepare, run_pass = workloads.WORKLOADS[workload]
    os.makedirs(workdir, exist_ok=True)
    state = prepare(bm, seed, scale, workdir, load_fixture())
    return bm, run_pass, state


# -- running passes ------------------------------------------------------------------


class Runner:
    def __init__(self):
        self.tracer = None      # a tracing.Tracer during the traced pass
        self.sampler = None     # a speed.Sampler during untraced rounds
        self.ops = []           # one record per operation, kept in the results file

    def step(self, step):
        """Run one step under its budget; return its result, or None if it failed."""
        tracer = self.tracer
        budget = min(STEP_BUDGET_S, DEADLINE_S - (time.perf_counter() - T_START))
        rec = {"op": step.name, "item": step.item, "seconds": 0.0, "status": "ok"}
        self.ops.append(rec)
        if budget <= 0:
            rec["status"] = "timeout"
            return None
        value = None
        depth = len(tracer.stack) if tracer else 0
        probed = self.sampler.overhead if self.sampler else 0.0
        signal.setitimer(signal.ITIMER_REAL, budget)
        t0 = time.perf_counter()
        try:
            try:
                if tracer:
                    tracer.active = True
                    span = tracer.open("bench.step")
                    try:
                        value = step.fn()
                    finally:
                        tracer.close(span)
                else:
                    value = step.fn()
            finally:
                t1 = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, 0)
        except BudgetExceeded:
            t1 = time.perf_counter()
            rec["status"] = "timeout"
        except Exception as exc:
            t1 = time.perf_counter()
            rec["status"] = "error"
            rec["detail"] = "%s: %s" % (type(exc).__name__, exc)
        finally:
            if tracer:
                tracer.active = False
                while len(tracer.stack) > depth:  # spans cut short by the alarm
                    tracer.close(tracer.stack[-1], tracing.RAISED)
        rec["window"] = (t0, t1)
        rec["seconds"] = t1 - t0 - ((self.sampler.overhead - probed) if self.sampler else 0.0)
        if rec["status"] != "ok":
            return None
        if step.check is not None:
            try:
                problem = step.check(value)
            except Exception as exc:
                problem = "check raised %s: %s" % (type(exc).__name__, exc)
            if problem:
                rec["status"] = "failed"
                rec["detail"] = problem
                return None
        return value

    def run_pass(self, bm, run_pass, state):
        """One pass, with its whole-pass checks; returns [(step, [record])]."""
        gc.collect()
        timed = []
        gen = run_pass(bm, state)
        result = None
        try:
            while True:
                step = gen.send(result)
                result = self.step(step)
                timed.append((step, [self.ops[-1]]))
        except StopIteration as stop:
            problems = stop.value or []
        self.ops.append({"op": "pass-checks", "item": False, "seconds": 0.0,
                         "status": "failed" if problems else "ok",
                         "detail": "; ".join(problems)})
        return timed


def run_rounds(runner, bm, run_pass, state, seconds):
    """A full pass, then rounds that repeat its steps of at most
    SHORT_STEP_S: MIN_ROUNDS rounds in all at least, more while the repeats
    take at most half of ``seconds``, MAX_ROUNDS at most.  A short step is
    the most exposed to a brief slowdown or a collector pause, so it gets
    the most rounds; a long step averages those out by itself.  Returns
    [(step, [record per round])] and the number of rounds.
    """
    timed = runner.run_pass(bm, run_pass, state)
    short = [i for i, (_, recs) in enumerate(timed) if recs[0]["seconds"] <= SHORT_STEP_S]
    rounds, repeating = 1, 0.0
    while short and rounds < MAX_ROUNDS and time.perf_counter() - T_START < DEADLINE_S / 2:
        last = sum(timed[i][1][-1]["seconds"] for i in short)
        if rounds >= MIN_ROUNDS and repeating + last > seconds / 2:
            break
        t0 = time.perf_counter()
        gc.collect()
        for i in short:
            step, recs = timed[i]
            runner.step(step)
            recs.append(runner.ops[-1])
        repeating += time.perf_counter() - t0
        rounds += 1
    return timed, rounds


# -- metrics -------------------------------------------------------------------------


def tail(values):
    """(percentile, value): the highest percentile with at least ten items
    beyond it (nearest rank), or the median for fewer than 11 items."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_PERCENTILES:
        k = math.ceil(q / 100.0 * n)
        if n - k >= 10 or q == 50.0:
            return q, ordered[max(k, 1) - 1]


def step_times(timed):
    """(seconds, is item) per step: the median of its scaled times over the
    rounds, or its raw time when nothing scaled it (traced runs)."""
    return [(statistics.median(r.get("scaled", r["seconds"]) for r in recs), step.item)
            for step, recs in timed]


def item_times(timed):
    return [t for t, item in step_times(timed) if item]


def end_to_end(timed, setup_samples):
    items = item_times(timed)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (sum(t for t, _ in step_times(timed)), "s"),
        "item_p50_ms": (1000 * statistics.median(items), "ms"),
        "item_tail_ms": (1000 * tail(items)[1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced_wall, overhead, items):
    """Per-layer metrics of the traced pass; ``traced_wall`` is its raw step
    time, ``overhead`` its scaled time over the untraced pass's."""
    s = tracing.summarize(tracer)
    calls, self_s, failed = s["calls"], s["self_s"], s["failed"]
    names = tracer.names

    def count_under(name, prefix, ok_only=False):
        return sum(1 for i, n in enumerate(names)
                   if n == name and (not ok_only or tracer.status[i] == tracing.OK)
                   and tracer.under(i, prefix) >= 0)

    m = {}
    for fn in ("map_init", "canonical_code", "colored_code"):
        m["maps.%s.calls" % fn] = (calls["maps." + fn], "count")
        m["maps.%s.self_s" % fn] = (self_s["maps." + fn], "s")
    m["maps.map_init.failed"] = (failed["maps.map_init"], "count")
    m["corpus.enumerate_four_valent.self_s"] = (self_s["corpus.enumerate_four_valent"], "s")
    attempted = count_under("maps.map_init", "corpus.enumerate_four_valent")
    kept = tracer.results.get("corpus.enumerate_four_valent", 0)
    m["corpus.useful_ratio"] = (kept / attempted if attempted else 0.0, "ratio")
    m["balance.check_balance_flow.self_s"] = (self_s["balance.check_balance_flow"], "s")
    m["decompose.decompose_full.calls"] = (calls["decompose.decompose_full"], "count")
    for fn in ("decompose_full", "find_two_cuts", "find_four_cuts"):
        m["decompose.%s.self_s" % fn] = (self_s["decompose." + fn], "s")
    for fn in MAPIO_FUNCTIONS:
        m["mapio.%s.self_s" % fn] = (self_s["mapio." + fn], "s")
    m["cli.run.self_s"] = (self_s["cli.run"], "s")
    yielded = sum(1 for i, n in enumerate(names)
                  if n == "realize.enumerate_matchings" and tracer.status[i] == tracing.OK)
    m["realize.enumerate_matchings.yielded"] = (yielded, "count")
    m["realize.enumerate_matchings.self_s"] = (self_s["realize.enumerate_matchings"], "s")
    tried = count_under("realize.enumerate_matchings", "realize.realize_generic", ok_only=True)
    found = calls["realize.realize_generic"] - failed["realize.realize_generic"]
    m["realize.generic_hit_ratio"] = (found / tried if tried else 0.0, "ratio")
    for fn in ("realize_generic", "enrich", "integrate_labels", "monodromy",
               "graph_from_monodromy"):
        m["realize.%s.self_s" % fn] = (self_s["realize." + fn], "s")
    m["realize.graph_from_monodromy.calls"] = (calls["realize.graph_from_monodromy"], "count")
    for fn in ("enumerate_classes", "census", "verify_labelings_per_graph"):
        m["hurwitz.%s.self_s" % fn] = (self_s["hurwitz." + fn], "s")
    decodes = 0
    for d in TREE_DEGREES:
        name = "dps.tree_to_graph.d%d" % d
        decodes += calls[name]
        mean = self_s[name] / calls[name] if calls[name] else 0.0
        m[name + ".self_s"] = (mean, "s")
    builds = count_under("maps.map_init", "dps.tree_to_graph")
    m["dps.tree_to_graph.map_builds"] = (builds / decodes if decodes else 0.0, "count")
    for fn in ("graph_to_tree", "felsner_normalize", "bernardi_spanning_tree"):
        m["dps.%s.self_s" % fn] = (self_s["dps." + fn], "s")
    m["bench.step.self_s"] = (self_s["bench.step"], "s")
    total_self = sum(self_s.values())
    m["trace.self_share"] = (total_self / traced_wall if traced_wall else 0.0, "ratio")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    m["trace.spans"] = (len(names), "count")
    pct, _ = tail(items)
    m["items.count"] = (len(items), "count")
    m["items.tail_pct"] = (pct, "%")
    return m


# -- one run -------------------------------------------------------------------------


def setup_probe(workload, seed, scale):
    """Set-up time of a fresh process: printed as one JSON line."""
    workdir = os.path.join(OUT, "work-%s-%d" % (workload, os.getpid()))
    try:
        set_up(workload, seed, scale, workdir)
        raw = time.perf_counter() - T_START
        print(json.dumps({"setup_s": raw * speed.PROBE_REF_S / speed.probe_time()}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def probe_setups(workload, seed, scale, n):
    samples, problems = [], []
    for _ in range(n):
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--setup-probe",
                 "--workload", workload, "--seed", str(seed), "--scale", scale],
                cwd=ROOT, capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            problems.append("setup probe ran past 60 s")
            continue
        try:
            samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        except (IndexError, ValueError, KeyError):
            problems.append("setup probe exited %d: %s" % (proc.returncode, proc.stderr[-300:]))
    return samples, problems


def measure(workload, seed, seconds, trace, scale="full", setup_samples=SETUP_SAMPLES):
    """Run one workload; returns (metrics, ops, info)."""
    workdir = os.path.join(OUT, "work-%s-%d" % (workload, os.getpid()))
    signal.signal(signal.SIGALRM, _alarm)
    try:
        t0 = time.perf_counter()
        bm, run_pass, state = set_up(workload, seed, scale, workdir)
        own_setup = time.perf_counter() - (T_START if scale == "full" else t0)
        own_setup *= speed.PROBE_REF_S / speed.probe_time()
        runner = Runner()
        runner.sampler = speed.Sampler()
        runner.sampler.start()
        try:
            if trace:
                timed, rounds = runner.run_pass(bm, run_pass, state), 1
                tracer = runner.tracer = tracing.Tracer()
                runner.sampler.on_probe = tracer.exclude
                targets = [(mod, attr, name, kind, TAGS.get(name))
                           for mod, attr, name, kind in TARGETS]
                with tracing.instrument(tracer, targets,
                                        results={"corpus.enumerate_four_valent": len}):
                    traced = runner.run_pass(bm, run_pass, state)
            else:
                timed, rounds = run_rounds(runner, bm, run_pass, state, seconds)
        finally:
            runner.sampler.stop()
        for r in runner.ops:
            if "window" in r:
                r["scaled"] = r["seconds"] * runner.sampler.scale(*r["window"])
        info = {"rounds": rounds, "items": len(item_times(timed))}
        if not trace:
            samples, problems = probe_setups(workload, seed, scale, setup_samples - 1)
            for p in problems:
                runner.ops.append({"op": "setup-probe", "item": False, "seconds": 0.0,
                                   "status": "error", "detail": p})
            metrics = end_to_end(timed, [own_setup] + samples)
            pct, _ = tail(item_times(timed))
            info["tail_pct"] = pct
            info["setup_samples"] = [own_setup] + samples
        else:
            traced_wall = sum(t for t, _ in step_times(traced))
            untraced_wall = sum(t for t, _ in step_times(timed))
            raw_wall = sum(r["seconds"] for _, recs in traced for r in recs)
            metrics = per_layer(tracer, raw_wall, traced_wall / untraced_wall,
                                item_times(traced))
            share = metrics["trace.self_share"][0]
            runner.ops.append({"op": "trace-accounting", "item": False, "seconds": 0.0,
                               "status": "ok" if abs(share - 1.0) <= 0.01 else "failed",
                               "detail": "self times sum to %.4f of traced wall" % share})
            os.makedirs(OUT, exist_ok=True)
            spans = os.path.join(OUT, "%s-seed%s.spans.csv.gz" % (workload, seed))
            tracer.write(spans)
            info["spans_file"] = os.path.relpath(spans, ROOT)
            info["traced_wall_s"] = traced_wall
            info["untraced_wall_s"] = untraced_wall
        return metrics, runner.ops, info
    finally:
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        shutil.rmtree(workdir, ignore_errors=True)


def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "machine": platform.machine()}


def report(workload, seed, trace, metrics, ops, info):
    """Print the metric table and the result line; write the results file."""
    attempted = len(ops)
    failures = [r for r in ops if r["status"] != "ok"]
    print("workload %s  seed %s  trace %d  %s" % (workload, seed, trace, json.dumps(machine())))
    for name, (value, unit) in metrics.items():
        print("  %-42s %16.6f %s" % (name, value, unit))
    if "tail_pct" in info:
        print("  item_tail_ms is p%g of %d items" % (info["tail_pct"], info["items"]))
    print("  operations %d  failed %d  error_rate %.6f"
          % (attempted, len(failures), len(failures) / attempted))
    for r in failures[:20]:
        sys.stderr.write("FAILED %s: %s %s\n" % (r["op"], r["status"], r.get("detail", "")))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%s-trace%d.json" % (workload, seed, trace))
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "trace": trace,
                   "machine": machine(), "info": info,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "ops": ops}, fh, indent=1)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def smoke():
    """Tiny inputs for every workload, both modes; asserts that the emitted
    metric names and units are exactly those in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = True
    for mode, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in sorted(w["name"] for w in spec["workloads"]):
            metrics, ops, info = measure(w, 0, 0, mode, scale="smoke", setup_samples=2)
            got = {k: u for k, (v, u) in metrics.items()}
            bad = [r for r in ops if r["status"] != "ok"]
            if got != want or bad:
                ok = False
                print("smoke %s trace %d: missing %s, extra %s, unit mismatches %s, failed %s"
                      % (w, mode, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                         sorted(k for k in set(got) & set(want) if got[k] != want[k]),
                         [(r["op"], r.get("detail")) for r in bad[:5]]))
            else:
                print("smoke %s trace %d: %d metrics ok" % (w, mode, len(got)))
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help=argparse.SUPPRESS)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload on tiny inputs and check the metric names")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.smoke:
        sys.exit(0 if smoke() else 1)
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.scale)
        return
    import_program()
    load_fixture()
    metrics, ops, info = measure(args.workload, args.seed, args.seconds, args.trace, args.scale)
    report(args.workload, args.seed, args.trace, metrics, ops, info)


if __name__ == "__main__":
    main()

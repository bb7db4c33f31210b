"""Command line interface.

Exit codes: 0 for success / positive verdicts, 1 for negative mathematical
verdicts, 2 for malformed input.  Results are printed as JSON on stdout,
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

from . import balance, corpus, decompose, dps, hurwitz, mapio, maps, realize
from .errors import InvalidInput, MapError, NotBalanced


def _load(path: str):
    """The JSON document in a file, or on stdin for "-".  Text that is not
    UTF-8 or not JSON, an integer past Python's digit limit (all three
    ValueErrors) and nesting past the recursion limit are InvalidInput."""
    try:
        if path == "-":
            return json.loads(sys.stdin.read())
        with open(path, encoding="utf-8") as fh:
            return json.loads(fh.read())
    except (ValueError, RecursionError) as exc:
        raise InvalidInput("%s is not a JSON document: %s" % (path, exc))


def _load_colored(path: str) -> maps.ColoredMap:
    obj = mapio.map_from_dict(_load(path))
    if isinstance(obj, maps.ColoredMap):
        return obj
    return maps.checkerboard(obj)[0]


def _emit(data) -> None:
    sys.stdout.write(mapio.dumps(data))


def _write(path: str, data) -> None:
    with open(path, "w") as fh:
        fh.write(mapio.dumps(data))


def cmd_validate(args) -> int:
    obj = mapio.map_from_dict(_load(args.map))
    m = obj.m if isinstance(obj, maps.ColoredMap) else obj
    _emit({"valid": True, "vertices": m.num_vertices, "edges": m.num_edges,
           "faces": m.num_faces, "four_valent": m.is_four_valent()})
    return 0


def cmd_balance(args) -> int:
    cm = _load_colored(args.map)
    report = balance.is_balanced(cm, oracle=args.oracle)
    out = report.to_dict()
    if not args.witness:
        out.pop("witness", None)
    _emit(out)
    return 0 if report.balanced else 1


def cmd_realize(args) -> int:
    cm = _load_colored(args.map)
    try:
        counts, labels = realize.realize_generic(cm)
    except NotBalanced as exc:
        _emit({"error": "NotBalanced", "message": str(exc), "witness": exc.witness})
        return 1
    t = realize.monodromy(cm, labels)
    _emit({
        "labels": {str(v): l for v, l in sorted(labels.items())},
        "inserted": {str(e): c for e, c in sorted(counts.items())},
        "tuple": mapio.tuple_to_dict(t),
    })
    return 0


def cmd_from_tuple(args) -> int:
    t = mapio.tuple_from_dict(_load(args.tuple))
    real = realize.graph_from_monodromy(t)
    _emit(mapio.map_to_dict(real.colored))
    return 0


def cmd_hurwitz(args) -> int:
    if args.action == "count":
        _emit({"d": args.d, "count": hurwitz.hurwitz_count(args.d)})
        return 0
    classes = hurwitz.enumerate_classes(args.d)
    data = {"d": args.d, "count": len(classes),
            "classes": [[list(p) for p in c.representative.taus]
                        for c in classes]}
    if args.out:
        _write(args.out, data)
        data = {"d": args.d, "count": len(classes), "out": args.out}
    _emit(data)
    return 0


def cmd_census(args) -> int:
    entries = hurwitz.census(args.d)
    data = {
        "d": args.d,
        "underlying_graphs": len(entries),
        "total_covers": sum(e.class_count for e in entries),
        "entries": [e.to_dict() for e in entries],
    }
    if args.d <= 4:
        # the note is on the degree-4 hand catalog; degrees 2 and 3 print it too
        data["notes"] = (
            "Counts are per underlying diagram up to orientation-preserving "
            "isomorphism.  The classical hand-catalog of the degree-4 case "
            "groups the same covers as 36+60+6+6+12 across 17 plane "
            "drawings; drawings repeat sphere diagrams (the octahedron "
            "appears twice), so the drawing-level counts 17 and 6/12/2/6/6 "
            "do not match the isomorphism-class census, and one stated "
            "per-drawing count ('three', against that group's own total "
            "of 36) is internally inconsistent.")
    _emit(data)
    return 0


def cmd_dps(args) -> int:
    if args.input is None:
        raise InvalidInput("dps %s needs %s" % (
            args.action, "a degree" if args.action == "verify" else "an input file"))
    if args.action == "encode":
        g = mapio.dual_from_dict(_load(args.input))
        t = dps.graph_to_tree(g)
        _emit(mapio.tree_to_dict(t))
        return 0
    if args.action == "decode":
        t = mapio.tree_from_dict(_load(args.input))
        g = dps.tree_to_graph(t)
        _emit(mapio.dual_to_dict(g))
        return 0
    try:
        d = int(args.input)
    except ValueError:
        raise InvalidInput("dps verify takes a degree, got %r" % args.input)
    result = dps.verify_counting_chain(d)
    _emit(result)
    return 0 if result["ok"] else 1


def cmd_decompose(args) -> int:
    cm = _load_colored(args.map)
    tree = decompose.decompose_full(cm)
    data = tree.to_dict()
    leaves = [l.kind for l in tree.leaves()]
    out = {"leaves": leaves, "tree": data}
    if args.tree:
        _write(args.tree, data)
    _emit(out)
    return 0


_NAMED_MAPS = {"quadratic": maps.quadratic, "octahedron": maps.octahedron}


def cmd_generate(args) -> int:
    if args.kind == "pinch":
        if not args.map or not args.darts:
            raise InvalidInput("pinch needs --map and --darts D1 D2")
        cm = maps.pinch(_load_colored(args.map), args.darts[0], args.darts[1])
    elif args.kind == "turkshead":
        if args.n is None:
            raise InvalidInput("turkshead needs an index n")
        cm = maps.checkerboard(maps.turkshead(args.n))[0]
    else:
        cm = maps.checkerboard(_NAMED_MAPS[args.kind]())[0]
    _emit(mapio.map_to_dict(cm))
    return 0


def cmd_corpus(args) -> int:
    c = corpus.build_corpus(args.max_vertices)
    data = {
        "max_vertices": args.max_vertices,
        "uncolored": len(c.uncolored),
        "colored": len(c.colored),
        "codes": [list(cm.colored_code()) for cm in c.colored],
    }
    if args.out:
        _write(args.out, data)
        data = {"max_vertices": args.max_vertices, "colored": len(c.colored), "out": args.out}
    _emit(data)
    return 0


def cmd_export_dot(args) -> int:
    obj = mapio.map_from_dict(_load(args.map))
    sys.stdout.write(mapio.export_dot(obj))
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared; a parse leaves no
    state in it."""
    p = argparse.ArgumentParser(prog="balmaps",
                                description="balanced 4-valent sphere maps toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("validate")
    s.add_argument("map")
    s.set_defaults(func=cmd_validate)

    s = sub.add_parser("balance")
    s.add_argument("map")
    s.add_argument("--oracle", choices=["curves", "flow", "both"], default="flow")
    s.add_argument("--witness", action="store_true")
    s.set_defaults(func=cmd_balance)

    s = sub.add_parser("realize")
    s.add_argument("map")
    s.set_defaults(func=cmd_realize)

    s = sub.add_parser("from-tuple")
    s.add_argument("tuple")
    s.set_defaults(func=cmd_from_tuple)

    s = sub.add_parser("hurwitz")
    s.add_argument("action", choices=["count", "enumerate"])
    s.add_argument("d", type=int)
    s.add_argument("--out")
    s.set_defaults(func=cmd_hurwitz)

    s = sub.add_parser("census")
    s.add_argument("d", type=int)
    s.set_defaults(func=cmd_census)

    s = sub.add_parser("dps")
    s.add_argument("action", choices=["encode", "decode", "verify"])
    s.add_argument("input", nargs="?")
    s.set_defaults(func=cmd_dps)

    s = sub.add_parser("decompose")
    s.add_argument("map")
    s.add_argument("--tree")
    s.set_defaults(func=cmd_decompose)

    s = sub.add_parser("generate")
    s.add_argument("kind", choices=["quadratic", "octahedron", "turkshead", "pinch"])
    s.add_argument("n", type=int, nargs="?")
    s.add_argument("--map", help="input map for pinch")
    s.add_argument("--darts", type=int, nargs=2, help="pinch darts")
    s.set_defaults(func=cmd_generate)

    s = sub.add_parser("corpus")
    s.add_argument("max_vertices", type=int, choices=[2, 4, 6])
    s.add_argument("--out")
    s.set_defaults(func=cmd_corpus)

    s = sub.add_parser("export-dot")
    s.add_argument("map")
    s.set_defaults(func=cmd_export_dot)
    return p


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except MapError as exc:
        sys.stderr.write("%s: %s\n" % (type(exc).__name__, exc))
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return 2
    except OSError as exc:
        sys.stderr.write("%s\n" % exc)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

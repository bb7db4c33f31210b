"""The frozen census fixtures: the glued side of the theorem at d = 4, 5, 6.

    python3 checks/census.py              # check every fixture, exit 1 on a difference
    python3 checks/census.py --write      # regenerate the fixtures

Run it from anywhere; it imports ``balmaps`` from this checkout's ``src/``.
Each degree runs ``hurwitz.census`` over the class stream and renders its
fixture; the check compares the rendering with ``fixtures/census-d<d>.json``
byte for byte, and prints each degree's entries, classes and time.

- census-d4.json: every entry's underlying code and class count.
- census-d5.json: the same, plus the number and the set digest of the
  coloured codes that the classes glue to.  By the theorem these are the
  balanced colourings of the listed diagrams, so they are read off the
  entries' decoded codes; Tier-1 derives them from the glued classes.
- census-d6.json: every entry's code digest and class count; the codes
  themselves would make the file ten times larger.

The entries keep the census order: by class count, then by code.  Tier-1
reads the d = 5 and d = 6 fixtures through ``code_digest`` and
``set_digest`` below, so a changed definition shows there too.
"""

import argparse
import hashlib
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "fixtures")
DEGREES = (4, 5, 6)


def _line(code) -> str:
    return ",".join(map(str, code))


def code_digest(code) -> str:
    """The first 16 hex digits of the sha256 of the code's entries,
    comma-separated."""
    return hashlib.sha256(_line(code).encode()).hexdigest()[:16]


def set_digest(codes) -> str:
    """The sha256 of the distinct codes in ascending order, one
    comma-separated line each."""
    return hashlib.sha256("".join(_line(c) + "\n" for c in sorted(set(codes))).encode()
                          ).hexdigest()


def fixture_path(d: int) -> str:
    return os.path.join(FIXTURES, "census-d%d.json" % d)


def census_data(d: int) -> dict:
    """The fixture of the degree-d census, as JSON data."""
    from balmaps import balance, hurwitz, mapio, maps
    entries = hurwitz.census(d)
    data = {"fmt": mapio.FMT, "d": d,
            "total_covers": sum(e.class_count for e in entries)}
    if d == 5:
        colored = {cm.colored_code() for e in entries
                   for cm in maps.checkerboard(maps.map_of_code(e.underlying))
                   if balance.check_balance_flow(cm)[0]}
        data.update(colored_codes=len(colored), colored_digest=set_digest(colored))
    if d >= 6:
        data["entries"] = [{"underlying_digest": code_digest(e.underlying),
                            "class_count": e.class_count} for e in entries]
    else:
        data["entries"] = [e.to_dict() for e in entries]
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the fixtures instead of checking them")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from balmaps import mapio
    bad = 0
    for d in DEGREES:
        start = time.perf_counter()
        data = census_data(d)
        text = mapio.dumps(data)
        took = time.perf_counter() - start
        path = fixture_path(d)
        if args.write:
            with open(path, "w") as fh:
                fh.write(text)
            verdict = "written"
        else:
            try:
                with open(path) as fh:
                    same = fh.read() == text
            except FileNotFoundError:
                same = False
            verdict = "ok" if same else "DIFFERS"
            bad += not same
        print("census-d%d.json: %d entries, %d classes, %.1f s, %s"
              % (d, len(data["entries"]), data["total_covers"], took, verdict), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""The statements of src/balmaps that the tests never run.

    python3 checks/coverage.py                  # the whole Tier-1 suite
    python3 checks/coverage.py tests/test_maps.py -k code   # any pytest arguments

Run it from anywhere; it runs pytest in this process on this checkout,
with ``balmaps`` imported from ``src/``.  A ``sys.settrace`` line
collector records every line of ``src/balmaps`` that runs; Hypothesis
replaces the trace function while it shrinks and explains, so the
collector installs itself again before each test's setup and call.  A
statement counts as run when a line of it ran: a simple statement's
lines, or a compound statement's header, up to its body.  Docstrings,
``try:``, ``global`` and ``nonlocal`` compile to no line of their own and
are not listed.  Tests run in a subprocess (``cli.main``) are not
followed.  The tracer slows the suite about ninefold.

Prints one ``file:line: source`` per statement never run, then their
count; the exit status is pytest's.
"""

import ast
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "balmaps")

hits = set()


def _line(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(SRC) else None


class Collector:
    """A pytest plugin that puts the tracer back before each test."""

    def pytest_runtest_setup(self, item):
        sys.settrace(_call)

    def pytest_runtest_call(self, item):
        sys.settrace(_call)


def statements(path):
    """(first line, lines that count as running it) of every statement
    that compiles to a line of its own."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(
                node, (ast.Try, ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        else:
            first = node.lineno
        out.append((node.lineno, range(first, max(last, node.lineno) + 1)))
    return sorted(out)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    os.chdir(ROOT)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    import pytest
    start = time.perf_counter()
    sys.settrace(_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider"] + (args or ["tests"]),
                             plugins=[Collector()])
    finally:
        sys.settrace(None)
    took = time.perf_counter() - start
    missed = 0
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path) as fh:
            lines = fh.read().splitlines()
        for lineno, span in statements(path):
            if not any((path, k) in hits for k in span):
                missed += 1
                print("src/balmaps/%s:%d: %s" % (name, lineno, lines[lineno - 1].strip()))
    print("%d statements never run, tests traced in %.0f s" % (missed, took))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())

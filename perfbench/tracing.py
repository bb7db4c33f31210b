"""Spans around the public functions of ``balmaps``, installed from outside.

``instrument`` replaces each listed function or method with a wrapper that
records a span (name, parent, start, duration, status) in memory, and puts
the originals back on exit.  A function that other ``balmaps`` modules
re-import with ``from .x import f`` is replaced under every name that holds
it.  A generator is wrapped so that every step it takes is one span.

Self time is a span's duration minus the time its child spans cover; the
spans are single-threaded and nest, so the self times of all spans add up
to the time of the root spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from collections import defaultdict

OK, RAISED, EXHAUSTED = 0, 1, 2


class Tracer:
    def __init__(self):
        self.names = []
        self.parent = []
        self.start = []
        self.duration = []
        self.child = []
        self.status = []
        self.stack = []
        self.active = False     # wrappers record only while this is set
        self.results = defaultdict(int)

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.duration.append(0.0)
        self.child.append(0.0)
        self.status.append(OK)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, status: int = OK) -> None:
        dur = time.perf_counter() - self.start[i]
        self.duration[i] = dur
        self.status[i] = status
        self.stack.pop()
        p = self.parent[i]
        if p >= 0:
            self.child[p] += dur

    def exclude(self, seconds: float) -> None:
        """Leave time spent outside the program (a speed probe) out of the
        innermost open span's self time."""
        if self.stack:
            self.child[self.stack[-1]] += seconds

    def self_time(self, i: int) -> float:
        return self.duration[i] - self.child[i]

    def under(self, i: int, prefix: str) -> int:
        """The nearest ancestor of span i whose name starts with prefix, or -1."""
        p = self.parent[i]
        while p >= 0 and not self.names[p].startswith(prefix):
            p = self.parent[p]
        return p

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,duration_s,self_s,status\n")
            t0 = self.start[0] if self.start else 0.0
            for i, name in enumerate(self.names):
                fh.write("%d,%d,%s,%.9f,%.9f,%.9f,%d\n" % (
                    i, self.parent[i], name, self.start[i] - t0,
                    self.duration[i], self.self_time(i), self.status[i]))


def _wrap_function(orig, name, tracer, tag, count):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return orig(*args, **kwargs)
        i = tracer.open(name if tag is None else name + "." + tag(*args, **kwargs))
        try:
            result = orig(*args, **kwargs)
        except BaseException:
            tracer.close(i, RAISED)
            raise
        tracer.close(i)
        if count is not None:
            tracer.results[name] += count(result)
        return result
    return wrapper


def _wrap_generator(orig, name, tracer):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        it = orig(*args, **kwargs)
        while True:
            if not tracer.active:
                try:
                    item = next(it)
                except StopIteration:
                    return
                yield item
                continue
            i = tracer.open(name)
            try:
                item = next(it)
            except StopIteration:
                tracer.close(i, EXHAUSTED)
                return
            except BaseException:
                tracer.close(i, RAISED)
                raise
            tracer.close(i)
            yield item
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, targets, results=None):
    """Wrap ``targets`` for the duration of the block.

    Each target is ``(module, attribute, span name, kind, tag)``.  The
    attribute may be ``Class.method``; kind is "function" or "generator";
    tag, if given, maps the call's arguments to a suffix of the span name.
    ``results`` maps a span name to a function of the call's result whose
    values are summed in ``tracer.results``.
    """
    results = results or {}
    restore = []
    try:
        for module, attr, name, kind, tag in targets:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            orig = owner.__dict__[attr]
            if kind == "generator":
                wrapper = _wrap_generator(orig, name, tracer)
            else:
                wrapper = _wrap_function(orig, name, tracer, tag, results.get(name))
            holders = [owner] if isinstance(owner, type) else [
                mod for mod_name, mod in list(sys.modules.items())
                if mod is not None and (mod_name == "balmaps"
                                        or mod_name.startswith("balmaps."))]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        restore.append((holder, key, orig))
                        setattr(holder, key, wrapper)
        yield tracer
    finally:
        for holder, key, orig in reversed(restore):
            setattr(holder, key, orig)


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, self seconds and raised count."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    failed = defaultdict(int)
    for i, name in enumerate(tracer.names):
        calls[name] += 1
        self_s[name] += tracer.self_time(i)
        if tracer.status[i] == RAISED:
            failed[name] += 1
    return {"calls": calls, "self_s": self_s, "failed": failed}

"""Span recording around fqsim's public functions, from outside the package.

`Tracer.install` replaces each traced function at every place the
package binds it (the defining module and every module or class that
imported or holds it), so calls between fqsim's modules are caught
where they happen.  Nothing under `src/` is edited.  `uninstall` puts
the originals back.

Each span is one tuple (id, parent, name, start_ns, end_ns, run, thread,
err, attrs).  Spans are kept in memory and written out once at the end.
The stack of open spans is per thread, so work done on a pool thread is
never charged to a span that another thread has open.  `run` is the
benchmark batch the span belongs to; spans of one batch share it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

ROOT = "bench.batch"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.run = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.active = True

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block are not recorded (the benchmark's
        own checks between batches)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, pre=None, post=None):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        attrs = pre(args, kwargs) if pre else {}
        stack.append(span_id)
        err = True
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            err = False
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            if not err and post:
                post(result, args, kwargs, attrs)
            self.spans.append((span_id, parent, name, start, end, self.run,
                               threading.get_ident(), err, attrs))
        return result

    def wrap(self, name, fn, pre=None, post=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, pre, post)
        return traced

    def root(self, run, fn):
        """Run fn() as the root span of batch `run`."""
        self.run = run
        return self.call(ROOT, fn, (), {})

    def install(self, package, targets) -> None:
        """Wrap every (module, qualname, layer, pre, post) target.

        `qualname` is a function name or Class.method.  A target the
        package no longer has is recorded in `missing` and skipped, so
        the trace keeps working when a later change removes a function.
        """
        prefix = package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        for module_name, qualname, layer, pre, post in targets:
            module = sys.modules.get(f"{prefix}.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{qualname}")
                continue
            wrapped = self.wrap(layer, original, pre, post)
            if owner_name:
                self._patch(owner, attr, original, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[0], "parent": s[1], "name": s[2], "start_ns": s[3],
                    "end_ns": s[4], "run": s[5], "thread": s[6], "err": s[7],
                    "attrs": s[8],
                }, sort_keys=True) + "\n")


def _covered(intervals, lo, hi) -> int:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> self time in ns: its duration minus the part of its
    interval that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append((s[3], s[4]))
    return {s[0]: (s[4] - s[3]) - _covered(children.get(s[0], ()), s[3], s[4])
            for s in spans}


def layer_totals(spans, run_factor=None) -> dict[str, dict]:
    """Per span name: calls, errors, self time in ms (each span's scaled by
    run_factor[run] when given) and the sum of every numeric attribute."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s[2], {"calls": 0, "errors": 0, "self_ms": 0.0,
                                    "wall_ms": 0.0, "attrs": defaultdict(int)})
        factor = run_factor[s[5]] if run_factor is not None else 1.0
        row["calls"] += 1
        row["errors"] += int(s[7])
        row["self_ms"] += selfs[s[0]] / 1e6 * factor
        row["wall_ms"] += (s[4] - s[3]) / 1e6 * factor
        for key, value in s[8].items():
            if not key.startswith("_"):
                row["attrs"][key] += value
    return out

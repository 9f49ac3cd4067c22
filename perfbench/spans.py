"""Span recording at fgcbeam's layer boundaries, and self-time arithmetic.

``install`` replaces every module attribute through which a caller
binds one of the ``LAYERS`` functions (``fgcbeam.solver.element_stiffness``,
``fgcbeam.studies.stress_at``, ...) by a wrapper that records a span:
name, start, end, parent span and op id.  Spans stay in memory until the
run ends.  A span's self time is its duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict
from typing import NamedTuple

#: (module, function) pairs of fgcbeam that delimit a layer.
LAYERS = (
    ("config", "parse_config"),
    ("materials", "effective_modulus"),
    ("section", "compute_rigidities"),
    ("element", "element_stiffness"),
    ("solver", "assemble"),
    ("solver", "assemble_load"),
    ("solver", "apply_bcs"),
    ("solver", "solve_static"),
    ("postproc", "displacement_at"),
    ("postproc", "stress_at"),
    ("postproc", "thickness_profile"),
    ("studies", "evaluate_case"),
    ("benchmarks", "benchmark_compare"),
    ("cli", "main"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at the top
    op: int
    failed: bool


class Tracer:
    """Collects spans of one thread; ``op`` is stamped on every span that ends."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span | None] = []
        self.op = 0
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name, fn, hook=None):
        """fn recording a span per call; hook(args, kwargs) sees each call first."""
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.op, failed)

        return traced


def install(tracer: Tracer, hooks=None):
    """Wrap every binding of the LAYERS functions; return a callable that undoes it.

    hooks maps a span name to its call hook.  A function the package no
    longer defines is skipped, so its metrics read zero instead of
    failing the run.
    """
    hooks = hooks or {}
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "fgcbeam" or n.startswith("fgcbeam."))]
    undo = []
    for mod_name, fn_name in LAYERS:
        home = sys.modules.get(f"fgcbeam.{mod_name}")
        original = getattr(home, fn_name, None)
        if original is None:
            continue
        name = f"{mod_name}.{fn_name}"
        wrapper = tracer.wrap(name, original, hooks.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))

    def restore():
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)

    return restore


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals, clipped to it."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append(s.end - s.start - covered)
    return out


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """{span name: {'calls', 'self_s', 'failed'}} summed over the spans."""
    totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "failed": 0})
    for s, own in zip(spans, self_times(spans)):
        t = totals[s.name]
        t["calls"] += 1
        t["self_s"] += own
        t["failed"] += s.failed
    return dict(totals)


def write_spans(spans, path) -> None:
    """Gzipped CSV of the spans, one row per span, in start order."""
    with gzip.open(path, "wt", encoding="utf-8") as f:
        f.write("index,name,start,end,parent,op,failed\n")
        for i, s in enumerate(spans):
            f.write(f"{i},{s.name},{s.start:.9f},{s.end:.9f},{s.parent},{s.op},{int(s.failed)}\n")

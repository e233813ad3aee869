"""Outside-in span tracer for the protofuse benchmark.

The tracer wraps public library functions by replacing their module (or
class) attributes, so every call that the library makes through those names
records a span: name, start, end, parent span and thread. Spans stay in
memory and are written out when the run ends. Nothing inside ``protofuse``
is modified.

A span opened on a worker thread with no open span of its own takes the
innermost open span of the installing thread as its parent; that is how the
evaluation thread pool's episodes attach to their ``episodes.evaluate``
call. A span's self time is its duration minus the union of its direct
children's intervals, so overlapping children from parallel threads are not
double counted.

``Window``s mark the stretches of a run that belong to one phase of the
pipeline (set-up, one training stretch, one evaluation call, ...) together
with the number of units of work done in them; per-layer statistics are
normalised per unit of the window kind in which each span starts.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int  # -1 for a root span
    thread: int


@dataclass
class Window:
    kind: str
    start_ns: int
    end_ns: int = 0
    units: int = 0


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.windows: list[Window] = []
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._owner_stack:
                parent = tracer._owner_stack[-1]
            else:
                parent = -1
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(Span(span_id, name, start, end, parent,
                                         threading.get_ident()))

        return traced

    def install(self, targets) -> None:
        """Patch every ``(owner, attribute, span_name)`` in ``targets``."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for owner, attribute, name in targets:
            original = owner.__dict__[attribute]
            setattr(owner, attribute, self.wrap(name, original))
            self._patched.append((owner, attribute, original))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    @contextmanager
    def suspended(self):
        """Run verification code without recording its library calls."""
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self.active = previous

    @contextmanager
    def window(self, kind: str):
        w = Window(kind, time.perf_counter_ns())
        try:
            yield w
        finally:
            w.end_ns = time.perf_counter_ns()
            if self.active:
                self.windows.append(w)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for w in self.windows:
                fh.write(json.dumps({"window": w.kind, "start_ns": w.start_ns,
                                     "end_ns": w.end_ns, "units": w.units}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"span": s.name, "id": s.span_id,
                                     "start_ns": s.start_ns, "end_ns": s.end_ns,
                                     "parent": s.parent, "thread": s.thread}) + "\n")


def _covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_stats(tracer: Tracer) -> dict:
    """Per window kind and span name: calls, total, self and child time per unit.

    A span is counted in every window kind whose window contains its start,
    so a window nested in another (training inside set-up) feeds both.
    Returns ``{kind: {"units": n, "layers": {name: {...}}}}``.
    """
    children = defaultdict(list)
    for s in tracer.spans:
        children[s.parent].append((s.start_ns, s.end_ns))
    by_kind = defaultdict(list)
    for w in tracer.windows:
        by_kind[w.kind].append(w)
    out = {}
    for kind, windows in by_kind.items():
        windows.sort(key=lambda w: w.start_ns)
        starts = [w.start_ns for w in windows]
        units = sum(w.units for w in windows)
        acc = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "child_ns": 0})
        for s in tracer.spans:
            i = bisect.bisect_right(starts, s.start_ns) - 1
            if i < 0 or s.start_ns > windows[i].end_ns:
                continue
            kids = children.get(s.span_id, ())
            duration = s.end_ns - s.start_ns
            entry = acc[s.name]
            entry["calls"] += 1
            entry["total_ns"] += duration
            entry["self_ns"] += duration - _covered_ns(kids, s.start_ns, s.end_ns)
            entry["child_ns"] += sum(end - start for start, end in kids)
        layers = {}
        for name, e in acc.items():
            layers[name] = {
                "calls": e["calls"] / units,
                "ms": e["total_ns"] / 1e6 / units,
                "self_ms": e["self_ns"] / 1e6 / units,
                "parallelism": e["child_ns"] / e["total_ns"] if e["total_ns"] else 0.0,
            }
        out[kind] = {"units": units, "layers": layers}
    return out


class NodeCounter:
    """Counts ``autodiff.Node`` constructions while installed."""

    def __init__(self, node_class):
        self._cls = node_class
        self._original = None
        self.count = 0

    def __enter__(self):
        original = self._original = self._cls.__dict__["__init__"]
        counter = self

        def counting_init(node, *args, **kwargs):
            counter.count += 1
            original(node, *args, **kwargs)

        self._cls.__init__ = counting_init
        return self

    def __exit__(self, *exc):
        self._cls.__init__ = self._original
        return False

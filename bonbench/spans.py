"""In-memory spans and call counts for the traced run.

A span is recorded around each call of a wrapped function: its name,
start and end (ns), the index of the enclosing span and the request id,
plus the FLOPs the request's meter gained during the call. Spans stay in
memory until the run writes them out. Self time (and self FLOPs) is a
span's own figure minus what its direct child spans cover; the run is one
thread, so children never overlap.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int | None
    request: int | None
    flops: int


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.request: int | None = None
        self.meter = None  # the current request's meter, read for FLOPs
        self._open: list[int] = []

    def _begin(self):
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append(idx)
        meter = self.meter
        f0 = 0 if meter is None else meter.flops_accumulated
        return idx, meter, f0, time.perf_counter_ns()

    def _end(self, name, idx, meter, f0, start):
        end = time.perf_counter_ns()
        self._open.pop()
        parent = self._open[-1] if self._open else None
        flops = 0 if meter is None else meter.flops_accumulated - f0
        self.spans[idx] = Span(name, start, end, parent, self.request, flops)

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call."""
        def traced(*args, **kwargs):
            opened = self._begin()
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(name, *opened)
        return traced

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the caller's own code."""
        opened = self._begin()
        try:
            yield
        finally:
            self._end(name, *opened)

    def count(self, name: str, fn):
        """``fn`` counting its calls under ``name``."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self, span_targets, count_targets):
        """Wrap ``(owner, attribute, label)`` targets while the block runs.

        Spans are named ``<owner>.<attribute>``; counts take the label. A
        missing attribute is listed in ``absent`` and left alone.
        """
        saved = []

        def patch(owner, attr, make):
            fn = getattr(owner, attr, None)
            if fn is None:
                if qualified_name(owner, attr) not in self.absent:
                    self.absent.append(qualified_name(owner, attr))
                return
            saved.append((owner, attr, fn))
            setattr(owner, attr, make(fn))

        try:
            for owner, attr, _ in span_targets:
                name = qualified_name(owner, attr)
                patch(owner, attr, lambda fn, name=name: self.wrap(name, fn))
            for owner, attr, label in count_targets:
                patch(owner, attr, lambda fn, label=label: self.count(label, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def own(self) -> list[tuple[int, int]]:
        """(self ns, self FLOPs) of each span, in recording order."""
        child_ns = [0] * len(self.spans)
        child_flops = [0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] += s.end - s.start
                child_flops[s.parent] += s.flops
        return [(s.end - s.start - cn, s.flops - cf)
                for s, cn, cf in zip(self.spans, child_ns, child_flops)]

    def self_totals(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, self ns, self FLOPs), summed over all spans."""
        totals: dict[str, list[int]] = {}
        for s, (ns, flops) in zip(self.spans, self.own()):
            t = totals.setdefault(s.name, [0, 0, 0])
            t[0] += 1
            t[1] += ns
            t[2] += flops
        return {k: tuple(v) for k, v in totals.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def qualified_name(owner, attr: str) -> str:
    """``toygen.matmul`` for ``latentscale.toygen``'s ``matmul``."""
    return f"{getattr(owner, '__name__', str(owner)).rsplit('.', 1)[-1]}.{attr}"

"""In-memory spans for the benchmark's traced pass.

A span is ``{name, start, end, parent, unit}``: ``name`` is the layer
metric it feeds (``enumeration.dp.optimize``), ``parent`` the index of
the span that caused it, ``unit`` the work unit (query name) it belongs
to, inherited from the parent when not given.  Spans live in a list
until :meth:`Tracer.write` dumps them as JSON lines when the run ends;
nothing is written while the clock is running.

Calls too frequent to record one by one (one estimator call per
connected subset) are *rolled up*: :meth:`Tracer.rollup` adds their
seconds to one aggregate child of the current span, so the parent's
self time still excludes them.

A name's **self time** is each of its spans' duration minus the part its
children (spans and rollups) cover, summed.  Self times of all names
under one root add up to the root's duration exactly, which is what
makes ``pipeline.driver.accounted_frac`` meaningful.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    """One timed interval; ``duration`` is valid once the block exits."""

    __slots__ = ("index", "name", "start", "end", "parent", "unit", "calls")

    def __init__(self, index, name, start, parent, unit):
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.unit = unit
        #: calls a rollup aggregates (``None`` for an ordinary span)
        self.calls = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """A stack of open spans plus exact counts taken at the same places."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        #: (parent index, name) -> index of that parent's rollup child
        self._rollups: dict[tuple[int, str], int] = {}

    @contextmanager
    def span(self, name: str, unit: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if unit is None and parent is not None:
            unit = self.spans[parent].unit
        span = Span(len(self.spans), name, time.perf_counter(), parent, unit)
        self._stack.append(span.index)
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def rollup(
        self, name: str, seconds: float, calls: int = 1,
        parent: Span | None = None,
    ) -> None:
        """Charge ``seconds`` of ``name`` to a span's children.

        The span is ``parent`` when given (it may already have ended),
        otherwise the innermost open one.
        """
        origin = parent if parent is not None else self.spans[self._stack[-1]]
        index = self._rollups.get((origin.index, name))
        if index is None:
            index = len(self.spans)
            span = Span(index, name, origin.start, origin.index, origin.unit)
            span.calls = 0
            self._rollups[(origin.index, name)] = index
            self.spans.append(span)
        span = self.spans[index]
        # a rollup's interval is synthetic: its length is the summed time
        span.end += seconds
        span.calls += calls

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    # ------------------------------------------------------------------ #

    def self_seconds(self, root: Span | None = None) -> dict[str, float]:
        """Self time per name, over every span (or one root's subtree)."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        keep = None
        if root is not None:
            keep = {root.index}
            # parents always precede their children in the list
            for index, span in enumerate(self.spans):
                if span.parent in keep:
                    keep.add(index)
        out: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if keep is None or index in keep:
                out[span.name] += span.duration - covered[index]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                record = {
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "unit": span.unit,
                }
                if span.calls is not None:
                    record["rollup_calls"] = span.calls
                handle.write(json.dumps(record) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")

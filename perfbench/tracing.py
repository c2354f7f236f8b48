"""Call-site timing for the benchmark: plain timing, or timing plus spans.

Every call into a library layer goes through `Recorder.call(name, fn,
*args)`.  The plain recorder only runs the call; the tracing recorder
also keeps a span (name, start, end, parent, op id) in memory.  Spans
are written out once, when the run ends, and per-layer self time is the
span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Recorder:
    """Untraced: runs each call with nothing around it."""

    tracing = False

    def begin_op(self, name: str) -> None:
        pass

    def end_op(self) -> None:
        pass

    def call(self, name, fn, *args):
        return fn(*args)

    def add(self, counter: str, amount: float) -> None:
        pass


class Tracer(Recorder):
    """Keeps one span per layer call, parented to the op that made it."""

    tracing = True

    def __init__(self):
        # each span is [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._op_span = -1
        self._op_id = -1

    def begin_op(self, name: str) -> None:
        self._op_id += 1
        self._op_span = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, -1, self._op_id])

    def end_op(self) -> None:
        self.spans[self._op_span][2] = perf_counter()
        self._op_span = -1

    def call(self, name, fn, *args):
        span = [name, perf_counter(), 0.0, self._op_span, self._op_id]
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] += amount

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - child_time[i]
        return {name: (c, s) for name, (c, s) in totals.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

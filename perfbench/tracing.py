"""In-memory spans, written out when the run ends.

A span records a name (``<layer>.<call>``), start and end times from
``time.perf_counter``, the span that caused it and the operation it belongs
to.  Spans are recorded by the benchmark around its own calls into each
layer; the library itself is not instrumented.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self._stack = []

    @contextmanager
    def span(self, name: str, op=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent][4]
        record = [name, time.perf_counter(), None, parent, op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> dict:
        """Self time per span name: duration minus the time covered by its
        direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
        return out

    def layer_self_ms(self, layers) -> dict:
        """Self time per layer (first component of the span name), in ms."""
        totals = {layer: 0.0 for layer in layers}
        for name, seconds in self.self_seconds().items():
            layer = name.split(".", 1)[0]
            if layer in totals:
                totals[layer] += seconds * 1000.0
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


class NullTracer:
    """Tracing off: the same interface at the cost of one call."""

    @contextmanager
    def span(self, name: str, op=None):
        yield None

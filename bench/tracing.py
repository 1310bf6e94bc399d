"""In-memory spans around the benchmark's calls into each thermocap layer.

A span name is ``<layer>.<call>``; its layer is the part before the first
dot.  Spans are kept in a list while the pass runs and written out once
it ends, so the cost of a span is two clock reads and a list append.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    """Records (name, start, end, parent, op) for every span."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None  # operation id stamped on new spans

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self, key=lambda name, op: name.split(".", 1)[0]) -> dict[str, float]:
        """Seconds not covered by child spans, summed by key(name, op).

        The default key is the span's layer; spans whose key is None are left out.
        """
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, _, op) in enumerate(self.spans):
            k = key(name, op)
            if k is not None:
                out[k] += (end - start) - child_time[idx]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


class _NoTrace:
    """Stand-in for Tracer when tracing is off: spans cost one call."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NO_TRACE = _NoTrace()

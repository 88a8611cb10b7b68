"""Spans recorded by the benchmark around its calls into the library.

A span is (name, start, end, parent index, operation id, call count); the
count is above 1 when one span times a batch of identical calls.  Spans stay in
memory until the run ends and are then written out as JSON lines.  A span's
self time is its duration minus the time its direct children cover.  The
untraced runs use `NullTracer`, which records nothing, so both runs execute
the same benchmark code.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    def span(self, name: str):
        return nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        """Yields the span record; a batch sets its call count in `rec[5]`."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, parent, self.op, 1]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> dict[str, float]:
        """Total self time (s) per span name."""
        child = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        total = defaultdict(float)
        for i, s in enumerate(self.spans):
            total[s[0]] += (s[2] - s[1]) - child[i]
        return dict(total)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, count) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "count": count}) + "\n")

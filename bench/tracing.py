"""In-memory spans for the traced run.

A span is [name, start, end, parent index, op id] with times from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans a child process
records line up with the parent's). Spans stay in a list until the run ends
and are then written out in one piece.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = perf_counter()

    def add(self, name: str, start: float, end: float, parent: int) -> None:
        self.spans.append([name, start, end, parent, self.op])

    def patch(self, module, attr: str, name: str) -> None:
        """Replace ``module.attr`` with a wrapper that records span ``name``
        around each call; :meth:`restore` puts the original back."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def per_op_times(spans) -> dict:
    """{(op, name): [inclusive seconds, self seconds]} summed over the spans
    of that name in that op. Self time is a span's duration minus the time
    its child spans cover (children of one span never overlap)."""
    covered = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = defaultdict(lambda: [0.0, 0.0])
    for index, (name, start, end, _, op) in enumerate(spans):
        acc = out[(op, name)]
        acc[0] += end - start
        acc[1] += end - start - covered[index]
    return out


def mean_ms(times: dict, name: str, ops, self_time: bool = False) -> float:
    """Mean per-op time (ms) of span ``name`` over the ``ops`` that reached
    it; 0 when none did."""
    values = [times[(op, name)][1 if self_time else 0]
              for op in ops if (op, name) in times]
    return 1e3 * sum(values) / len(values) if values else 0.0

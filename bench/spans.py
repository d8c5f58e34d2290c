"""Spans around the engine calls the benchmark makes, kept in memory.

A span is ``(name, start, end, parent, op)``: the layer function called,
its ``perf_counter`` interval, the index of the enclosing op span (None
for an op) and the op's sequence number.  ``OFF`` is the untraced
stand-in: it calls straight through and records nothing.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter


class Spans:
    on = True

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._op: int | None = None

    def begin_op(self, op_id: int) -> None:
        self._op = len(self.spans)
        self.spans.append(("op", perf_counter(), None, None, op_id))

    def end_op(self) -> None:
        name, start, _, parent, op_id = self.spans[self._op]
        self.spans[self._op] = (name, start, perf_counter(), parent, op_id)

    def call(self, name: str, fn, *args):
        start = perf_counter()
        out = fn(*args)
        end = perf_counter()
        self.spans.append((name, start, end, self._op,
                           self.spans[self._op][4]))
        return out

    def count(self, key: str, n: int) -> None:
        self.counts[key] += n

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total seconds); ``op.self`` is the time
        ops spent outside the layer calls they made."""
        calls: Counter = Counter()
        seconds: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            if end is None:
                continue
            calls[name] += 1
            seconds[name] += end - start
            if parent is not None:
                seconds["op.self"] -= end - start
        seconds["op.self"] += seconds["op"]
        return {name: (calls[name], seconds[name]) for name in seconds}

    def write(self, path) -> None:
        with open(path, "w") as out:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, out)


class _Off:
    on = False

    @staticmethod
    def call(name: str, fn, *args):
        return fn(*args)

    @staticmethod
    def count(key: str, n: int) -> None:
        pass


OFF = _Off()

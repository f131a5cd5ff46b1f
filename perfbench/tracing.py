"""In-memory span recorder for the traced benchmark runs.

A span is one call into a public entry point of the library, opened by
the benchmark's own code: either directly around a call the benchmark
makes, or by temporarily replacing a public attribute (a module-level
function or a `CodebookSet` method) with a wrapper while the traced
phase runs. No private (`_`) name is touched. Spans stay in memory and
are written out once, after the run.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext

# span record fields
NAME, START, END, PARENT, OP, TAG = range(6)


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    def span(self, name, tag=None):
        return nullcontext()

    def new_op(self):
        pass

    def count(self, name, amount=1):
        pass


class Tracer:
    """Records (name, start_ns, end_ns, parent index, op id, tag) spans.

    Spans nest by call order (the run is single-threaded), so a span's
    parent is the innermost span open when it starts. `op` is the id of
    the operation (a sweep row or a Monte Carlo trial) the span belongs
    to; the benchmark advances it with `new_op`.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = 0
        self.counts = {}

    def new_op(self):
        self.op += 1

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def span(self, name, tag=None):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter_ns(), None, parent, self.op, tag]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record[END] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, fn, name, on_result=None, starts_op=False):
        """`fn` wrapped in a span; `on_result(result)` records counts."""

        def traced(*args, **kwargs):
            if starts_op:
                self.new_op()
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- analysis -----------------------------------------------------------

    def durations(self, name, tag=None):
        """Seconds of every span with this name (and tag, if given)."""
        return [
            (s[END] - s[START]) * 1e-9
            for s in self.spans
            if s[NAME] == name and (tag is None or s[TAG] == tag)
        ]

    def total(self, name, tag=None):
        return sum(self.durations(name, tag))

    def self_times(self):
        """Seconds of each span not covered by its direct children."""
        own = [(s[END] - s[START]) * 1e-9 for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= (s[END] - s[START]) * 1e-9
        return own

    def self_total(self, name):
        return sum(t for s, t in zip(self.spans, self.self_times()) if s[NAME] == name)

    def layer_self(self):
        """Self seconds per layer; a span's layer is its name up to the dot."""
        out = {}
        for s, t in zip(self.spans, self.self_times()):
            layer = s[NAME].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
        return out

    def top_level_total(self):
        return sum((s[END] - s[START]) * 1e-9 for s in self.spans if s[PARENT] is None)

    def child_total(self, parent_name, child_name):
        """Seconds of `child_name` spans whose direct parent is `parent_name`."""
        return sum(
            (s[END] - s[START]) * 1e-9
            for s in self.spans
            if s[NAME] == child_name
            and s[PARENT] is not None
            and self.spans[s[PARENT]][NAME] == parent_name
        )

    def dump(self, path):
        fields = ["name", "start_ns", "end_ns", "parent", "op", "tag"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans, "counts": self.counts}, fh)


@contextmanager
def patched(targets):
    """Temporarily replace attributes: targets is [(owner, attr, wrapper)]."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, wrapper in targets:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def quantile(values, q):
    """q-quantile by the inclusive method; the median for q = 0.5."""
    if len(values) == 1:
        return values[0]
    if q == 0.5:
        return statistics.median(values)
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]

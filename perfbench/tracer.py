"""In-memory spans and counters for the traced benchmark run.

A span is (op, span_id, parent_id, name, start, end). Spans are recorded by
the benchmark around its own calls into the library's public functions.
Where a public function hides the calls we want to split (association_scan
calls fisher_exact, run_command calls count_text, ...), the benchmark first
times the real call and then replays its inner calls one by one as children
of that span. Self time is therefore "duration minus the summed durations of
the children", replayed or nested, not "minus the covered interval".
"""

from __future__ import annotations

import gc
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op_kind: dict[int, int] = {}  # op id -> which operation of the pass it ran
        self.op_counters: dict[int, dict[str, float]] = {}
        self.gauges: dict[str, float] = {}  # sizes that do not add up across operations
        self.collect_s: dict[int, float] = defaultdict(float)  # op id -> time in gc.collect
        self._stack: list[int] = []
        self._op = -1

    def begin_op(self, op_id: int, kind: int) -> None:
        self._op = op_id
        self.op_kind[op_id] = kind
        self.op_counters[op_id] = {}

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (self._op, sid, parent, name, start, end)

    @contextmanager
    def under(self, sid: int):
        """Make `sid` (an already closed span) the parent of spans opened inside."""
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()

    @contextmanager
    def replaying(self, sid: int):
        """Replay children of the closed span `sid`, starting from a collected
        heap so the replayed calls do not pay for garbage the real call left.
        The collection is timed apart and left out of the tracing overhead."""
        t0 = perf_counter()
        gc.collect()
        self.collect_s[self._op] += perf_counter() - t0
        with self.under(sid):
            yield

    def count(self, name: str, n: float = 1) -> None:
        counters = self.op_counters[self._op]
        counters[name] = counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = max(value, self.gauges.get(name, value))

    def per_op_times(self) -> dict[int, dict[str, tuple[float, float]]]:
        """For every op: span name -> (summed duration, summed self time)."""
        child_sum: dict[int, float] = defaultdict(float)
        for op, sid, parent, name, start, end in self.spans:
            if parent is not None:
                child_sum[parent] += end - start
        out: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0]))
        for op, sid, parent, name, start, end in self.spans:
            acc = out[op][name]
            acc[0] += end - start
            acc[1] += end - start - child_sum[sid]
        return {op: {n: tuple(v) for n, v in names.items()} for op, names in out.items()}

    def per_pass(self, value_of_op, n_kinds: int) -> float:
        """A per-operation quantity over the traced operations, scaled to one pass."""
        by_kind: dict[int, list[float]] = defaultdict(list)
        for op, kind in self.op_kind.items():
            by_kind[kind].append(value_of_op(op))
        return per_pass(by_kind, n_kinds)

    def layer_self_times(self, n_kinds: int) -> dict[str, float]:
        """Each layer's self time per pass (layer = span name up to the first dot)."""
        per_op = self.per_op_times()
        layers = sorted({name.split(".", 1)[0] for names in per_op.values() for name in names})
        return {layer: self.per_pass(
                    lambda op: sum(t[1] for n, t in per_op.get(op, {}).items() if n.split(".", 1)[0] == layer),
                    n_kinds)
                for layer in layers}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def per_pass(by_kind: dict[int, list[float]], n_kinds: int) -> float:
    """The median per kind of operation, summed over kinds and scaled up for
    kinds that have no value (a traced run traces only every second operation)."""
    return sum(statistics.median(v) for v in by_kind.values()) * n_kinds / len(by_kind)


def span(tracer: Tracer | None, name: str):
    """A span when tracing, otherwise a context that records nothing."""
    return nullcontext() if tracer is None else tracer.span(name)

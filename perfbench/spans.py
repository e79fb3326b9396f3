"""In-memory span recorder for the benchmark's layer trace.

A *span* is one timed call into a layer: ``id``, ``parent``, ``layer``,
``name``, ``start`` and ``end`` (``time.perf_counter`` seconds).  Calls
made millions of times per run (a daemon's ``select``, the model
checker's ``successor_keys``) are too hot for one record each; they go
through :meth:`Tracer.hot`, which keeps a per-name ``[calls, busy_s]``
aggregate and charges each call's duration to the innermost open span's
``hot_s``.

A span's *self time* is its duration minus the part of that interval its
child spans cover (:func:`self_times`); hot children are sequential on
the caller's stack, so their durations simply subtract.  Children
recorded in other processes (forked pool workers) can overlap, which is
why coverage is an interval union and not a sum.

``perf_counter`` reads ``CLOCK_MONOTONIC`` on Linux, a system-wide clock,
so spans recorded in forked workers share the parent's time base and
merge into one timeline.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentile ladder for tail reporting (see :func:`tail_percentile`).
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


class Tracer:
    """Spans, hot-call aggregates, counters and samples of one process.

    After ``fork`` the child holds a copy; :meth:`ensure_process` resets
    that copy to empty (keeping the open-span stack, so the child's spans
    name the parent's open span as their parent), and :meth:`flush_to`
    hands what the child recorded to the parent through a file.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._serial = 0
        self.spans: List[Dict[str, Any]] = []
        self.stack: List[Dict[str, Any]] = []
        self.hot_stats: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}

    # -- process identity ----------------------------------------------------
    def ensure_process(self) -> None:
        """Start empty in a forked child (the copy holds the parent's data)."""
        pid = os.getpid()
        if pid == self.pid:
            return
        self.pid = pid
        self._serial = 0
        self.spans = []
        self.counters = {}
        self.samples = {}
        # Hot wrappers hold their stat lists by reference: zero in place.
        for stat in self.hot_stats.values():
            stat[0] = 0
            stat[1] = 0.0

    # -- spans ---------------------------------------------------------------
    def begin(self, layer: str, name: str) -> Dict[str, Any]:
        """Open a span under the innermost open one."""
        self._serial += 1
        span = {
            "id": f"{self.pid}:{self._serial}",
            "parent": self.stack[-1]["id"] if self.stack else None,
            "layer": layer,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "hot_s": 0.0,
        }
        self.stack.append(span)
        return span

    def end(self, span: Dict[str, Any]) -> None:
        """Close ``span`` (the innermost open one) and keep it."""
        span["end"] = time.perf_counter()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError("spans must close innermost-first")
        self.spans.append(span)

    def timed(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` wrapped so that every call records one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return wrapper

    def hot(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` wrapped to count calls and busy time without span records."""
        stat = self.hot_stats.setdefault(f"{layer}.{name}", [0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                if stack:
                    stack[-1]["hot_s"] += dt

        return wrapper

    # -- counters and samples ------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # -- cross-process hand-off ----------------------------------------------
    def flush_to(self, directory: str) -> None:
        """Append this process's records to ``<directory>/worker-<pid>.jsonl``
        and clear them (the parent merges with :meth:`merge_dir`)."""
        record = {
            "spans": self.spans,
            "hot": {k: list(v) for k, v in self.hot_stats.items() if v[0]},
            "counters": self.counters,
            "samples": self.samples,
        }
        path = os.path.join(directory, f"worker-{self.pid}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(record) + "\n")
        self.spans = []
        self.counters = {}
        self.samples = {}
        for stat in self.hot_stats.values():
            stat[0] = 0
            stat[1] = 0.0

    def merge_dir(self, directory: str) -> None:
        """Merge and delete every worker file in ``directory``."""
        for entry in sorted(os.listdir(directory)):
            if not (entry.startswith("worker-") and entry.endswith(".jsonl")):
                continue
            path = os.path.join(directory, entry)
            with open(path) as fh:
                for line in fh:
                    self.merge(json.loads(line))
            os.remove(path)

    def merge(self, record: Dict[str, Any]) -> None:
        self.spans.extend(record["spans"])
        for key, (calls, busy) in record["hot"].items():
            stat = self.hot_stats.setdefault(key, [0, 0.0])
            stat[0] += calls
            stat[1] += busy
        for key, value in record["counters"].items():
            self.count(key, value)
        for key, values in record["samples"].items():
            self.samples.setdefault(key, []).extend(values)


# -- analysis ----------------------------------------------------------------

def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """``{span id: self time}``: duration minus what its children cover.

    Child intervals are clipped to the parent's interval before the
    union; hot-call time charged to the span (``hot_s``) is subtracted
    on top.
    """
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            children.setdefault(parent, []).append(
                (span["start"], span["end"]))
    out: Dict[str, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = union_length(
            (max(a, start), min(b, end))
            for a, b in children.get(span["id"], ())
        )
        out[span["id"]] = max(0.0, end - start - covered - span["hot_s"])
    return out


def tail_percentile(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)``: the highest ladder percentile that leaves
    at least ten samples beyond it (nearest rank).

    With fewer than twenty samples no ladder step qualifies; the maximum
    is reported as percentile 100.
    """
    if not values:
        return 0.0, 0.0
    ordered = sorted(values)
    count = len(ordered)
    best: Optional[Tuple[float, float]] = None
    for q in PERCENTILES:
        rank = max(1, math.ceil(q / 100.0 * count))
        if count - rank >= 10:
            best = (q, ordered[rank - 1])
    return best if best is not None else (100.0, ordered[-1])


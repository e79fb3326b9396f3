"""Measurement-first performance utilities.

"No optimization without measuring" — the batched numpy kernel exists
because a profile showed the scalar step loop dominating the scaling study.  These
helpers make that workflow one-liners:

* :class:`Stopwatch` — context-manager wall-clock timer with splits;
* :func:`time_callable` — repeat-and-summarize timing (like ``timeit`` but
  returning a :class:`~repro.analysis.statistics.Summary`);
* :func:`profile_callable` — run under :mod:`cProfile` and return the top
  hotspots as structured rows.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.statistics import Summary, summarize


class Stopwatch:
    """Wall-clock timer usable as a context manager.

    Example::

        with Stopwatch() as sw:
            run_simulation()
            sw.split("simulate")
            analyze()
            sw.split("analyze")
        print(sw.splits)
    """

    def __init__(self) -> None:
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        #: Named split points: (label, seconds since previous split).
        self.splits: List[Tuple[str, float]] = []
        self._last: Optional[float] = None

    def __enter__(self) -> "Stopwatch":
        self.start = self._last = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()

    def split(self, label: str) -> float:
        """Record the time since the previous split; returns it."""
        if self._last is None:
            raise RuntimeError("stopwatch not started")
        now = time.perf_counter()
        delta = now - self._last
        self.splits.append((label, delta))
        self._last = now
        return delta

    @property
    def elapsed(self) -> float:
        """Total seconds between enter and exit (or now, if still running)."""
        if self.start is None:
            raise RuntimeError("stopwatch not started")
        return (self.end or time.perf_counter()) - self.start


def time_callable(
    fn: Callable[[], Any], repeats: int = 5, warmup: int = 1
) -> Summary:
    """Time ``fn()`` ``repeats`` times (after ``warmup`` discarded calls).

    The returned :class:`~repro.analysis.statistics.Summary` carries the
    individual per-repeat timings on ``samples`` — histogram exporters
    (telemetry, the perf-bench JSON artifact) consume them directly.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return summarize(samples)


@dataclass(frozen=True)
class Hotspot:
    """One row of a profile: where the time went."""

    function: str
    calls: int
    cumulative_seconds: float
    total_seconds: float


def profile_callable(
    fn: Callable[[], Any], top: int = 10
) -> List[Hotspot]:
    """Run ``fn()`` under cProfile; return the ``top`` cumulative hotspots."""
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler, stream=io.StringIO())
    stats.sort_stats("cumulative")
    rows: List[Hotspot] = []
    for func, (cc, nc, tt, ct, callers) in stats.stats.items():  # type: ignore[attr-defined]
        filename, line, name = func
        rows.append(
            Hotspot(
                function=f"{filename}:{line}({name})",
                calls=nc,
                cumulative_seconds=ct,
                total_seconds=tt,
            )
        )
    rows.sort(key=lambda h: h.cumulative_seconds, reverse=True)
    return rows[:top]


def compare_engines(n: int = 8, trials: int = 50, seed: int = 0) -> Dict[str, float]:
    """Measured speedup of the batched kernel over the scalar engine.

    Runs the same convergence workload both ways and returns
    ``{"scalar_seconds": ..., "batch_seconds": ..., "speedup": ...}`` —
    the motivating measurement for :mod:`repro.kernels.batched`.  Each
    side reports the best of three runs, so one scheduler hiccup on a
    busy host cannot flip the ratio.
    """
    from repro.core.ssrmin import SSRmin
    from repro.daemons.distributed import BernoulliDaemon
    from repro.kernels.batched import run_convergence_cells
    from repro.simulation.convergence import convergence_steps

    scalar = time_callable(lambda: convergence_steps(
        algorithm_factory=lambda: SSRmin(n, n + 1),
        daemon_factory=lambda alg, s: BernoulliDaemon(0.5, seed=s),
        trials=trials,
        seed=seed,
    ), repeats=3, warmup=0).minimum
    batch = time_callable(lambda: run_convergence_cells(
        n, range(seed, seed + trials), "bernoulli:0.5"),
        repeats=3, warmup=0).minimum

    return {
        "scalar_seconds": scalar,
        "batch_seconds": batch,
        "speedup": scalar / batch if batch > 0 else float("inf"),
    }

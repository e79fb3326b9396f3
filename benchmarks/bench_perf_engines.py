"""Microbenchmarks of the simulation engines (steps/second).

Unlike the per-experiment benches (single-shot end-to-end reproductions),
these are classic repeated-timing microbenchmarks guarding the hot paths:

* the scalar composite-atomicity step loop,
* the batched numpy kernel's daemon step and legitimacy mask,
* CST event processing in the DES,
* the exhaustive model checker on the smallest SSRmin instance.

Regressions here directly inflate every experiment's runtime.

Besides the usual pytest-benchmark console table, the module writes a
machine-readable ``BENCH_perf_engines.json`` artifact (in the invocation
directory) summarizing every benchmark that ran — mean/min/max/stddev
seconds and round counts — so CI can archive and diff engine throughput
across commits without parsing terminal output.
"""

import json
import random

import pytest

from repro.core.ssrmin import SSRmin
from repro.kernels.batched import (
    STREAM_INIT_H,
    STREAM_INIT_X,
    batched_legitimate,
    batched_step,
)
from repro.kernels.prng import grid_integers
from repro.daemons.distributed import RandomSubsetDaemon, SynchronousDaemon
from repro.messagepassing.cst import transformed
from repro.messagepassing.links import UniformDelay
from repro.simulation.engine import SharedMemorySimulator

ARTIFACT = "BENCH_perf_engines.json"

#: benchmark name -> timing summary, flushed to ARTIFACT after the module.
_TIMINGS = {}


def _record(benchmark, name):
    """Stash a benchmark's timing stats for the JSON artifact.

    No-op when timing was disabled (``--benchmark-disable``): the fixture
    still calls the function once, but collects no stats.
    """
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    if stats is None or not getattr(stats, "data", None):
        return
    _TIMINGS[name] = {
        "mean_seconds": stats.mean,
        "min_seconds": stats.min,
        "max_seconds": stats.max,
        "stddev_seconds": stats.stddev,
        "rounds": stats.rounds,
    }


@pytest.fixture(scope="module", autouse=True)
def _write_artifact():
    """Write ``BENCH_perf_engines.json`` once the module's benches finish."""
    yield
    if not _TIMINGS:
        return
    payload = {
        "schema": 1,
        "suite": "perf_engines",
        "benchmarks": dict(sorted(_TIMINGS.items())),
    }
    with open(ARTIFACT, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def test_scalar_engine_steps(benchmark):
    """1000 composite-atomicity steps of the scalar engine (n=8)."""
    alg = SSRmin(8, 9)
    daemon = SynchronousDaemon()
    init = alg.initial_configuration()

    def run():
        sim = SharedMemorySimulator(alg, daemon)
        sim.run(init, max_steps=1000, record=False)

    benchmark(run)
    _record(benchmark, "scalar_engine_steps")


def test_scalar_engine_steps_naive(benchmark):
    """The same workload on the naive (kernel-free) reference path."""
    alg = SSRmin(8, 9)
    daemon = SynchronousDaemon()
    init = alg.initial_configuration()

    def run():
        sim = SharedMemorySimulator(alg, daemon, use_fastpath=False)
        sim.run(init, max_steps=1000, record=False)

    benchmark(run)
    _record(benchmark, "scalar_engine_steps_naive")


def test_scalar_engine_steps_telemetry(benchmark):
    """Telemetry-on (metrics session, no trace/subscribers) vs the
    telemetry-off bench above: batched counter aggregation must keep this
    within ~10% of ``scalar_engine_steps``."""
    from repro.telemetry import telemetry_session

    alg = SSRmin(8, 9)
    daemon = SynchronousDaemon()
    init = alg.initial_configuration()

    def run():
        with telemetry_session():
            sim = SharedMemorySimulator(alg, daemon)
            sim.run(init, max_steps=1000, record=False)

    benchmark(run)
    _record(benchmark, "scalar_engine_steps_telemetry")


def test_scalar_engine_recording(benchmark):
    """Same workload with full execution recording (memory-churn path)."""
    alg = SSRmin(8, 9)
    daemon = RandomSubsetDaemon(seed=0)
    init = alg.random_configuration(random.Random(0))

    def run():
        sim = SharedMemorySimulator(alg, daemon)
        sim.run(init, max_steps=300, record=True)

    benchmark(run)
    _record(benchmark, "scalar_engine_recording")


def test_batch_engine_steps(benchmark):
    """1000 vectorized steps over 256 parallel trials (n=8)."""
    seeds = list(range(256))

    def run():
        X = grid_integers(seeds, STREAM_INIT_X, 0, 8, 9)
        H = grid_integers(seeds, STREAM_INIT_H, 0, 8, 4)
        for k in range(1, 1001):
            X, H = batched_step(X, H, 9, seeds, "bernoulli", 0.5, k)

    benchmark(run)
    _record(benchmark, "batch_engine_steps")


def test_batch_legitimacy_mask(benchmark):
    """Vectorized Definition-1 check over 4096 random configurations."""
    seeds = list(range(4096))
    X = grid_integers(seeds, STREAM_INIT_X, 0, 8, 9)
    H = grid_integers(seeds, STREAM_INIT_H, 0, 8, 4)
    benchmark(batched_legitimate, X, H, 9)
    _record(benchmark, "batch_legitimacy_mask")


def test_cst_event_processing(benchmark):
    """100 simulated time units of a 5-node CST network (~2k events)."""
    def run():
        alg = SSRmin(5, 6)
        net = transformed(alg, seed=4, delay_model=UniformDelay(0.5, 1.5))
        net.run(100.0)

    benchmark(run)
    _record(benchmark, "cst_event_processing")


def test_model_checker_smallest_instance(benchmark):
    """Full exhaustive check of SSRmin n=3, K=4 (4096 configurations)."""
    from repro.verification import TransitionSystem, check_self_stabilization

    def run():
        alg = SSRmin(3, 4)
        report = check_self_stabilization(TransitionSystem(alg, "distributed"))
        assert report.self_stabilizing

    benchmark(run)
    _record(benchmark, "model_checker_smallest_instance")

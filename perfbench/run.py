#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-conv --seed 1 --seconds 33 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced passes with traced ones (the layer
wrappers of :mod:`perfbench.layers` installed) and reports the per-layer
metrics plus the tracing overhead.  Every pass re-runs the same generated
inputs; outputs are checked after each pass and digested, and all digests
of a run (traced or not) must agree.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the full record: environment fingerprint, engine selection, digest,
per-pass timings and any failures.

The run is hermetic: sweeps get explicit temporary ``base_dir`` and store
paths under ``.bench_build/``, byte-code caches go to
``.bench_build/pycache``, and the run fails if any other file of the
working tree changed.  It refuses to run when ``REPRO_FASTPATH`` or
``REPRO_FASTPATH_MP`` pins the reference engines.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
sys.pycache_prefix = os.path.join(BUILD_DIR, "pycache")
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

from perfbench import env  # noqa: E402
from perfbench.workloads import WORKLOADS, PassResult, make_inputs, make_workload  # noqa: E402

#: End-to-end metric units (BENCHMARK.json lists the same names).
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "units_per_s": "1/s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Fresh-interpreter set-ups per run, the run's own first; ``setup_s`` is
#: their median.
SETUP_SAMPLES = 3


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_setup(workload: str, seed: int, tmp: str):
    """Imports, input generation and workload set-up; returns the set-up
    workload and the seconds it took.  The benchmark's modules import
    nothing of the program, so in a fresh interpreter this includes every
    import the workload needs."""
    t0 = time.perf_counter()
    wl = make_workload(workload, make_inputs(workload, seed))
    wl.setup(tmp)
    return wl, time.perf_counter() - t0


def setup_probe(workload: str, seed: int) -> float:
    os.makedirs(BUILD_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="setup-", dir=BUILD_DIR)
    try:
        return timed_setup(workload, seed, tmp)[1]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure_setup(workload: str, seed: int, count: int) -> List[float]:
    """``count`` set-ups, each in a fresh interpreter."""
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_passes(wl, tmp: str, budget_s: float, trace=None
               ) -> Tuple[List[PassResult], List[PassResult]]:
    """``(untraced, traced)`` passes, run until the next one would end
    more than half a pass past ``budget_s``, so that the passes cover
    ``budget_s`` give or take half a pass.  There is at least one pass;
    with a ``trace``, at least one of each kind, alternating so that both
    see the same host load."""
    untraced: List[PassResult] = []
    traced: List[PassResult] = []
    start = time.perf_counter()
    while True:
        workdir = os.path.join(tmp, f"pass-{len(untraced) + len(traced)}")
        os.makedirs(workdir)
        gc.collect()
        if trace is not None and len(traced) < len(untraced):
            with trace:
                traced.append(wl.run_pass(workdir, trace))
        else:
            untraced.append(wl.run_pass(workdir))
        typical = statistics.median(p.wall_s for p in untraced + traced)
        if ((trace is None or traced)
                and time.perf_counter() - start + typical / 2 > budget_s):
            return untraced, traced


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any pool worker it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(passes: List[PassResult], setup: List[float],
               rss_mb: float) -> Dict[str, float]:
    """Times and rates pooled over the run's identical passes: total work
    over total time, so that every second of the run weighs the same.  The
    host's speed drifts over tens of seconds, and a median of a handful of
    passes follows whichever speed most of them saw; the pooled figure
    averages the drift.  The record line keeps every pass."""
    wall = sum(p.wall_s for p in passes)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall / len(passes),
        "units_per_s": sum(p.units for p in passes) / wall,
        "steps_per_s": (sum(p.steps for p in passes)
                        / sum(p.steps_s for p in passes)),
        "peak_rss_mb": rss_mb,
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro package under {ROOT}/src; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
        return 0

    before = env.tree_snapshot(ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR)
    setup: List[float] = []
    traced: List[PassResult] = []
    try:
        # Nothing of the program is imported yet: this set-up is the run's
        # first fresh sample of setup_s.
        wl, first_setup = timed_setup(args.workload, args.seed, tmp)
        selection = env.engine_selection()
        refusal = env.forced_reference(selection)
        if refusal:
            print(f"error: {refusal}; unset it to benchmark", file=sys.stderr)
            return 2
        if args.trace:
            from perfbench.layers import (
                PER_LAYER_UNITS, LayerTrace, per_layer_metrics)

            trace = LayerTrace()
            untraced, traced = run_passes(wl, tmp, args.seconds, trace)
            metrics = per_layer_metrics(
                trace.tracer,
                traced_walls=[p.wall_s for p in traced],
                untraced_walls=[p.wall_s for p in untraced],
                workers=wl.workers, extra=traced[0].extra,
            )
            units = PER_LAYER_UNITS
        else:
            untraced, _ = run_passes(wl, tmp, args.seconds)
            rss = peak_rss_mb()
            setup = [first_setup] + measure_setup(
                args.workload, args.seed, SETUP_SAMPLES - 1)
            metrics = end_to_end(untraced, setup, rss)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    passes = untraced + traced
    failures = [f for p in passes for f in p.failures]
    failed = sum(p.failed_units for p in passes)
    digest = passes[0].digest
    for index, p in enumerate(passes):
        if p.digest != digest:
            failures.append(f"pass {index}: digest {p.digest[:12]} differs "
                            f"from pass 0 ({digest[:12]})")
            failed += p.units - p.failed_units
    changed = env.tree_changes(before, env.tree_snapshot(ROOT))
    if changed:
        failures.append(f"working tree changed during the run: {changed[:10]}")
    correct = not failures

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env.fingerprint(ROOT, selection),
        "digest": digest,
        "untraced_walls_s": [p.wall_s for p in untraced],
        "traced_walls_s": [p.wall_s for p in traced],
        "setup_samples_s": setup,
        "failures": failures[:20],
    }
    print(json.dumps({"record": record}))
    for failure in failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p.units for p in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

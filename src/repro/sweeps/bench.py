"""Sweep-engine benchmark: batched cells vs one-task-per-cell (PR artifact).

Three measurements, written to ``BENCH_perf_sweep.json``:

* **grid throughput** — one phase-diagram convergence grid (>= 1000 cells
  full / a small smoke grid quick) executed twice through the *same*
  :func:`repro.sweeps.engine.run_sweep` entry point, once in ``per-cell``
  mode (one task per cell, the pre-kernel-layer execution shape) and once
  in ``batched`` mode (homogeneous cell groups vectorized through
  :mod:`repro.kernels.batched`).  Every cell's record is compared
  field-for-field across the two runs (engine / wall-clock excluded), so
  the speedup cannot come from diverging semantics — this is the
  counter-based-PRNG contract, enforced inline on the full grid;
* **average-case scaling fit** — batched convergence sweeps at ring
  sizes up to n = 10^4 (far past what one-task-per-cell reaches in CI
  time), mean steps under the randomized ``bernoulli:0.5`` daemon
  power-law-fitted with :func:`repro.analysis.scaling.fit_power_law`; the
  fitted exponent must stay within the paper's O(n^2) envelope.  It is
  not Theorem 2's bound, which is a worst case under the unfair daemon;
* **kernel** — the lockstep loop alone, per daemon family at n = 256 with
  12 seeds (n = 64 quick): microseconds per lockstep step of the
  definition (``batched_step`` plus ``batched_legitimate`` on every
  state) against :func:`repro.kernels.batched.batched_converge`, whose
  ``(steps, X, H)`` must equal the definition's (asserted inline).

Exit status is non-zero when the measured batched/per-cell throughput
ratio falls below ``--min-cell-speedup``, which is how the CI smoke job
uses it (``--quick --min-cell-speedup 2``).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Dict, List

import numpy as np

from repro.sweeps.engine import run_sweep
from repro.sweeps.spec import SweepSpec

#: Fields compared for cell identity (execution metadata excluded).
IDENTITY_FIELDS = ("index", "key", "params", "seed", "result")

#: The Theorem 2 bound is O(n^2); the fitted exponent must stay inside it.
MAX_SCALING_EXPONENT = 2.5


def _grid_spec(quick: bool) -> SweepSpec:
    if quick:
        return SweepSpec(
            name="bench-grid",
            n_values=(5, 8),
            daemons=("bernoulli:0.5", "central"),
            seeds=tuple(range(12)),
        )
    # 4 ring sizes x 3 daemon families x 84 seeds = 1008 cells.
    return SweepSpec(
        name="bench-grid",
        n_values=(8, 16, 32, 64),
        daemons=("bernoulli:0.5", "central", "synchronous"),
        seeds=tuple(range(84)),
    )


def _load_cells(base_dir: str, name: str) -> List[Dict[str, Any]]:
    path = os.path.join(base_dir, "sweeps", name, "cells.jsonl")
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return sorted(records, key=lambda r: r["index"])


def _identity(record: Dict[str, Any]) -> Dict[str, Any]:
    return {k: record[k] for k in IDENTITY_FIELDS}


def bench_grid(quick: bool) -> Dict[str, Any]:
    """Time the same grid through both engine modes; assert cell identity."""
    spec = _grid_spec(quick)
    timings: Dict[str, float] = {}
    cells_by_mode: Dict[str, List[Dict[str, Any]]] = {}
    for mode in ("per-cell", "batched"):
        with tempfile.TemporaryDirectory() as tmp:
            t0 = time.perf_counter()
            summary = run_sweep(spec, base_dir=tmp, mode=mode)
            timings[mode] = time.perf_counter() - t0
            if summary["completed"] != spec.total_cells():
                raise RuntimeError(
                    f"{mode} run incomplete: {summary['completed']}"
                    f"/{spec.total_cells()}"
                )
            cells_by_mode[mode] = _load_cells(tmp, spec.name)

    for per_cell, batched in zip(
        cells_by_mode["per-cell"], cells_by_mode["batched"]
    ):
        if _identity(per_cell) != _identity(batched):
            raise RuntimeError(
                "batched and per-cell results diverged at cell "
                f"{per_cell['index']} ({per_cell['key']}): "
                f"{per_cell['result']} vs {batched['result']}"
            )

    total = spec.total_cells()
    return {
        "workload": (
            f"convergence grid n={list(spec.n_values)} x "
            f"{len(spec.daemons)} daemon families x "
            f"{len(spec.seeds)} seeds = {total} cells, "
            "run_sweep per-cell vs batched"
        ),
        "cells": total,
        "per_cell_seconds": round(timings["per-cell"], 4),
        "batched_seconds": round(timings["batched"], 4),
        "per_cell_cells_per_second": round(total / timings["per-cell"], 1),
        "batched_cells_per_second": round(total / timings["batched"], 1),
        "speedup": round(timings["per-cell"] / timings["batched"], 2),
        "identical_cells": total,
    }


def bench_scaling_fit(quick: bool) -> Dict[str, Any]:
    """Average-case fit of mean steps at large n (up to 10^4 full)."""
    from repro.analysis.scaling import fit_power_law
    from repro.kernels.batched import run_convergence_cells

    n_values = (32, 64, 128) if quick else (100, 316, 1000, 3162, 10000)
    seeds = list(range(3))
    means: List[float] = []
    t0 = time.perf_counter()
    for n in n_values:
        results = run_convergence_cells(n, seeds, "bernoulli:0.5")
        if not all(r["converged"] for r in results):
            raise RuntimeError(f"unconverged cell at n={n}")
        means.append(sum(r["steps"] for r in results) / len(results))
    elapsed = time.perf_counter() - t0
    fit = fit_power_law(list(n_values), means)
    if fit.exponent > MAX_SCALING_EXPONENT:
        raise RuntimeError(
            f"fitted exponent {fit.exponent:.3f} breaks the O(n^2) "
            f"envelope (> {MAX_SCALING_EXPONENT})"
        )
    return {
        "workload": (
            f"average-case fit of mean steps, batched convergence at "
            f"n={list(n_values)}, {len(seeds)} seeds each, bernoulli:0.5 "
            "daemon (not Theorem 2's unfair-daemon worst case)"
        ),
        "n_values": list(n_values),
        "mean_steps": [round(m, 2) for m in means],
        "exponent": round(fit.exponent, 4),
        "prefactor": round(fit.prefactor, 4),
        "r_squared": round(fit.r_squared, 6),
        "seconds": round(elapsed, 4),
    }


def _definition_converge(X, H, K, seeds, kind, p, budget):
    """``batched_converge``'s definition: one full step + test per state."""
    from repro.kernels.batched import batched_legitimate, batched_step

    steps = np.full(X.shape[0], -1, dtype=np.int64)
    legit = batched_legitimate(X, H, K)
    steps[legit] = 0
    active = ~legit
    for k in range(1, budget + 1):
        if not active.any():
            break
        X, H = batched_step(X, H, K, seeds, kind, p, k, active)
        legit = batched_legitimate(X, H, K)
        steps[active & legit] = k
        active &= ~legit
    return steps, X, H


def bench_kernel(quick: bool) -> Dict[str, Any]:
    """Per-daemon lockstep cost: the definition loop vs ``batched_converge``."""
    from repro.analysis.profiling import time_callable
    from repro.kernels.batched import (
        STREAM_INIT_H,
        STREAM_INIT_X,
        batched_converge,
        parse_daemon,
    )
    from repro.kernels.prng import grid_integers

    n = 64 if quick else 256
    K, seeds = n + 1, list(range(12))
    budget = 60 * n * n + 600
    X = grid_integers(seeds, STREAM_INIT_X, 0, n, K)
    H = grid_integers(seeds, STREAM_INIT_H, 0, n, 4)
    rows = []
    for daemon in ("synchronous", "central", "bernoulli:0.5"):
        kind, p = parse_daemon(daemon)
        args = (X, H, K, seeds, kind, p, budget)
        runs: Dict[str, List[Any]] = {"definition": [], "converge": []}
        old_s = time_callable(
            lambda: runs["definition"].append(_definition_converge(*args)),
            repeats=3, warmup=0).minimum
        new_s = time_callable(
            lambda: runs["converge"].append(batched_converge(*args)),
            repeats=3, warmup=0).minimum
        got, want = runs["converge"][0], runs["definition"][0]
        if not all(np.array_equal(a, b) for a, b in zip(got, want)):
            raise RuntimeError(
                f"batched_converge diverged from its definition ({daemon})")
        lockstep = int(got[0].max())
        rows.append({
            "daemon": daemon,
            "lockstep_steps": lockstep,
            "definition_us_per_step": round(old_s / lockstep * 1e6, 1),
            "converge_us_per_step": round(new_s / lockstep * 1e6, 1),
            "speedup": round(old_s / new_s, 2),
        })
    return {
        "workload": (
            f"batched_converge vs the batched_step + batched_legitimate "
            f"loop, n={n}, K={K}, seeds 0..11, best of 3; (steps, X, H) "
            "identical"
        ),
        "n": n,
        "seeds": len(seeds),
        "daemons": rows,
    }


def run_sweep_bench(quick: bool = False) -> Dict[str, Any]:
    """Run the three measurements and assemble the artifact payload."""
    grid = bench_grid(quick)
    scaling = bench_scaling_fit(quick)
    kernel = bench_kernel(quick)
    return {
        "schema": 1,
        "suite": "perf_sweep",
        "mode": "quick" if quick else "full",
        "grid": grid,
        "scaling_fit": scaling,
        "kernel": kernel,
        "equivalence": (
            "per-cell and batched modes produced field-identical records "
            "for every grid cell (enforced inline; see "
            "tests/sweeps/test_engine.py for the differential suite)"
        ),
    }


def format_report(payload: Dict[str, Any]) -> str:
    """Human-readable summary lines for the CLI / CI log."""
    grid = payload["grid"]
    scaling = payload["scaling_fit"]
    kernel = [
        f"kernel {row['daemon']:<14}: "
        f"{row['definition_us_per_step']} -> "
        f"{row['converge_us_per_step']} us/step ({row['speedup']}x, "
        f"{row['lockstep_steps']} steps, n={payload['kernel']['n']}, "
        "identical)"
        for row in payload["kernel"]["daemons"]
    ]
    return "\n".join([
        f"grid throughput: {grid['speedup']}x "
        f"({grid['per_cell_cells_per_second']} -> "
        f"{grid['batched_cells_per_second']} cells/s, "
        f"{grid['cells']} cells, all identical)",
        f"avg-case fit   : mean steps ~ {scaling['prefactor']} * "
        f"n^{scaling['exponent']} (R^2 = {scaling['r_squared']}, "
        f"n up to {max(scaling['n_values'])}, {scaling['seconds']}s)",
        *kernel,
    ])


def check_gates(
    payload: Dict[str, Any], min_cell_speedup: float = None
) -> List[str]:
    """Failure messages for every gate the payload misses (empty = pass)."""
    failures = []
    grid = payload["grid"]
    if min_cell_speedup and grid["speedup"] < min_cell_speedup:
        failures.append(
            f"batched cells/sec speedup {grid['speedup']} < "
            f"{min_cell_speedup}"
        )
    return failures


__all__ = [
    "IDENTITY_FIELDS",
    "MAX_SCALING_EXPONENT",
    "bench_grid",
    "bench_kernel",
    "bench_scaling_fit",
    "check_gates",
    "format_report",
    "run_sweep_bench",
]

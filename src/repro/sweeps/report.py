"""Store-derived sweep reports: per-coordinate stats + an average-case scaling fit.

Reports are computed **from the run store's manifest index**, not from the
in-memory results of the run that just finished — the same numbers are
reproducible after the process (or machine) that ran the sweep is gone,
and the CI sweep-smoke job asserts on exactly this path.

A report groups cells by their phase-diagram coordinate (every axis except
``seed``), aggregates each group's headline metric over seeds
(count/mean/p50/p99/max), and — when the grid spans at least two ring
sizes — fits ``mean steps = a * n^alpha`` to the per-``n`` mean
convergence times with the same
:func:`repro.analysis.scaling.fit_power_law` the verification suite gates
with ``alpha <= 2.5``.  This is an *average-case* fit under randomized
daemons, not Theorem 2's bound, which is a worst case under the unfair
distributed daemon.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.observability.slo import quantile
from repro.observability.store import RunStore

#: Headline metric per sweep kind (the value aggregated over seeds).
KIND_METRICS: Dict[str, str] = {
    "convergence": "steps",
    "des": "stabilized_at",
}


def _metric(kind: str, result: Dict[str, Any]) -> Optional[float]:
    value = result.get(KIND_METRICS.get(kind, "steps"))
    if value is None:
        return None
    return float(value)


def _group_stats(values: List[float]) -> Dict[str, float]:
    return {
        "count": len(values),
        "mean": sum(values) / len(values),
        "p50": quantile(values, 0.50),
        "p99": quantile(values, 0.99),
        "max": max(values),
    }


def build_sweep_report(
    run_store: RunStore, name: str
) -> Dict[str, Any]:
    """Aggregate a named sweep's indexed cells into a report dict.

    Raises :class:`ValueError` when the sweep is unknown to the store.
    """
    row = run_store.get_sweep(name)
    if row is None:
        raise ValueError(f"no sweep named {name!r} in the run store")
    spec = row.get("spec") if isinstance(row.get("spec"), dict) else {}
    kind = spec.get("kind", "convergence")
    cells = run_store.sweep_cells_for(row["id"])

    groups: Dict[Tuple[Tuple[str, Any], ...], List[float]] = {}
    incomplete = 0
    for cell in cells:
        params = cell.get("params") or {}
        result = cell.get("result") or {}
        value = _metric(kind, result)
        if value is None or (
            kind == "convergence" and not result.get("converged", True)
        ):
            incomplete += 1
            continue
        coord = tuple(
            (k, v) for k, v in params.items() if k != "seed"
        )
        groups.setdefault(coord, []).append(value)

    group_rows = []
    for coord, values in sorted(groups.items(), key=lambda kv: str(kv[0])):
        group_rows.append({
            "params": dict(coord),
            "stats": _group_stats(values),
        })

    report: Dict[str, Any] = {
        "name": name,
        "kind": kind,
        "status": row.get("status"),
        "cells": row.get("cells"),
        "completed": len(cells),
        "unconverged": incomplete,
        "wall_seconds": row.get("wall_seconds"),
        "metric": KIND_METRICS.get(kind, "steps"),
        "groups": group_rows,
    }

    fit = fit_scaling(group_rows)
    if fit is not None:
        report["scaling_fit"] = fit
    return report


def fit_scaling(group_rows: List[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Power-law fit of mean metric vs n, when >=2 distinct ring sizes.

    Pools each ring size's per-coordinate means (across daemons / loss
    rates) so heterogeneous grids still produce one average-case curve.
    """
    from repro.analysis.scaling import fit_power_law

    by_n: Dict[int, List[float]] = {}
    for row in group_rows:
        n = row["params"].get("n")
        if n is None:
            continue
        by_n.setdefault(int(n), []).append(row["stats"]["mean"])
    if len(by_n) < 2:
        return None
    xs = sorted(by_n)
    ys = [sum(by_n[n]) / len(by_n[n]) for n in xs]
    fit = fit_power_law(xs, ys)
    return {
        "exponent": fit.exponent,
        "prefactor": fit.prefactor,
        "r_squared": fit.r_squared,
        "n_values": xs,
        "mean_metric": ys,
    }


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`build_sweep_report`'s dict."""
    lines = [
        f"sweep {report['name']} [{report['kind']}] — "
        f"{report['completed']}/{report['cells']} cells, "
        f"status {report['status']}",
        f"metric: {report['metric']}"
        + (f"  (unconverged cells: {report['unconverged']})"
           if report.get("unconverged") else ""),
    ]
    for row in report["groups"]:
        coord = " ".join(f"{k}={v}" for k, v in row["params"].items())
        s = row["stats"]
        lines.append(
            f"  {coord}: count={s['count']} mean={s['mean']:.2f} "
            f"p50={s['p50']:.2f} p99={s['p99']:.2f} max={s['max']:.0f}"
        )
    fit = report.get("scaling_fit")
    if fit:
        lines.append(
            f"scaling fit: metric = {fit['prefactor']:.3g} * "
            f"n^{fit['exponent']:.3f} (R^2 = {fit['r_squared']:.4f}, "
            f"n in {fit['n_values']})"
        )
    return "\n".join(lines)


def render_status(run_store: RunStore, name: Optional[str] = None) -> str:
    """One status line per sweep (or detail for one named sweep)."""
    rows = run_store.list_sweeps()
    if name is not None:
        rows = [r for r in rows if r.get("name") == name]
        if not rows:
            raise ValueError(f"no sweep named {name!r} in the run store")
    if not rows:
        return "no sweeps recorded"
    lines = []
    for row in rows:
        done = len(run_store.sweep_cell_indexes(row["id"]))
        total = row.get("cells") or 0
        wall = row.get("wall_seconds") or 0.0
        lines.append(
            f"{row['name']}: {done}/{total} cells, status "
            f"{row.get('status')}, wall {wall:.1f}s"
        )
    return "\n".join(lines)


def report_to_json(report: Dict[str, Any]) -> str:
    """Deterministically-ordered JSON rendering (``--json`` output)."""
    return json.dumps(report, indent=2, sort_keys=True)


__all__ = [
    "KIND_METRICS",
    "build_sweep_report",
    "fit_scaling",
    "render_report",
    "render_status",
    "report_to_json",
]

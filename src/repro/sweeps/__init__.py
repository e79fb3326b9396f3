"""First-class phase-diagram sweeps over the unified kernel layer.

The package is the repository's one sweep driver: the sweep CLI, the
Theorem-4 experiment (through the engine's DES cell worker) and the
benchmark all run their grids through it.

* :mod:`repro.sweeps.spec` — typed grid specifications
  (n × loss × delay × duplication × daemon-family) with deterministic
  cell identity;
* :mod:`repro.sweeps.engine` — batched-cell execution (homogeneous cell
  groups vectorized through :mod:`repro.kernels.batched`) and per-cell
  fallback, with per-cell-seed determinism making the two bit-identical;
* :mod:`repro.sweeps.store` — resumable checkpoints: JSONL write-ahead
  cells plus the RunStore's v3 ``sweeps``/``sweep_cells`` manifest index;
* :mod:`repro.sweeps.report` — store-derived aggregation and an
  average-case scaling fit of mean steps under randomized daemons (not
  Theorem 2's worst case).

CLI surface: ``repro sweep run|resume|status|report``.
"""

from repro.sweeps.engine import resume_sweep, run_sweep
from repro.sweeps.report import build_sweep_report, render_report, render_status
from repro.sweeps.spec import CellSpec, SweepSpec
from repro.sweeps.store import SweepStore, sweep_dir

__all__ = [
    "CellSpec",
    "SweepSpec",
    "SweepStore",
    "build_sweep_report",
    "render_report",
    "render_status",
    "resume_sweep",
    "run_sweep",
    "sweep_dir",
]

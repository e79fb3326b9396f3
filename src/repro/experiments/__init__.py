"""Experiment harness: one runner per paper figure / theorem / ablation.

Every experiment in DESIGN.md's per-experiment index is a function returning
an :class:`~repro.experiments.registry.ExperimentResult` (a titled table plus
the paper-claim-vs-measured verdict).  The registry maps experiment ids
(``fig04``, ``thm2``, ...) to runners; the CLI and the benchmarks call
through it, and :mod:`repro.experiments.report` renders EXPERIMENTS.md.
"""

from repro.experiments.registry import (
    ExperimentResult,
    REGISTRY,
    get_experiment,
    run_experiment,
    list_experiments,
)
from repro.experiments.parallel import run_experiments_parallel

__all__ = [
    "ExperimentResult",
    "REGISTRY",
    "get_experiment",
    "run_experiment",
    "list_experiments",
    "run_experiments_parallel",
]

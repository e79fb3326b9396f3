"""Analysis utilities: statistics, scaling fits, rule censuses, trace tables.

* :mod:`repro.analysis.statistics` — summary statistics with confidence
  intervals (numpy-backed).
* :mod:`repro.analysis.scaling` — log-log power-law fits for the
  convergence-time-vs-n study (Theorem 2's O(n^2)).
* :mod:`repro.analysis.census` — Lemma 5 / Lemma 8 rule-execution censuses
  (W135/W24 bookkeeping, 3n-run bound checks).
* :mod:`repro.analysis.tracefmt` — Figure-1/4-style execution tables.
* :mod:`repro.analysis.rounds` — round-complexity accounting (ext2).
* :mod:`repro.analysis.superstabilization` — single-fault recovery and
  safety-predicate studies (ext1).
* :mod:`repro.analysis.service` — critical-section service fairness (ext3).
* :mod:`repro.analysis.profiling` — stopwatches, repeat timing and cProfile
  hotspot extraction (the measure-before-optimizing workflow).
* :mod:`repro.analysis.fairness` — schedule starvation analysis (how unfair
  was the daemon, really).
* :mod:`repro.analysis.distributions` — two-sample statistical tests for
  comparing step/time distributions (scipy).
"""

import importlib

#: Public name -> defining submodule.  Exports resolve on first access
#: (PEP 562), so importing one submodule (say ``repro.analysis.scaling``)
#: does not pull in the others, and with them scipy.
_EXPORTS = {
    "Summary": "statistics",
    "summarize": "statistics",
    "PowerLawFit": "scaling",
    "fit_power_law": "scaling",
    "CensusReport": "census",
    "census_execution": "census",
    "format_trace": "tracefmt",
    "format_token_movement": "tracefmt",
    "RoundCounter": "rounds",
    "measure_rounds": "rounds",
    "SuperstabilizationReport": "superstabilization",
    "study_single_fault": "superstabilization",
    "ServiceMonitor": "service",
    "service_report": "service",
    "jain_fairness": "service",
    "Stopwatch": "profiling",
    "time_callable": "profiling",
    "profile_callable": "profiling",
    "FairnessReport": "fairness",
    "starvation_report": "fairness",
    "DistributionComparison": "distributions",
    "compare_distributions": "distributions",
    "effect_size": "distributions",
}


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "Summary",
    "summarize",
    "PowerLawFit",
    "fit_power_law",
    "CensusReport",
    "census_execution",
    "format_trace",
    "format_token_movement",
    "RoundCounter",
    "measure_rounds",
    "SuperstabilizationReport",
    "study_single_fault",
    "ServiceMonitor",
    "service_report",
    "jain_fairness",
    "Stopwatch",
    "time_callable",
    "profile_callable",
    "FairnessReport",
    "starvation_report",
    "DistributionComparison",
    "compare_distributions",
    "effect_size",
]

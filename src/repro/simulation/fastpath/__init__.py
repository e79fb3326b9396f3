"""Fast simulation kernels: packed state + incremental enabled-set maintenance.

The naive execution path re-evaluates every rule guard of every process at
every step (``RingAlgorithm.enabled_processes`` -> ``RuleSet.enabled_rule``),
recomputing the Dijkstra guard ``G_i`` up to three times per process — an
O(5n) Python-call cascade per transition.  A :class:`FastKernel` replaces
that with

* **packed state** — configurations live in flat parallel lists (``x`` plus a
  2-bit handshake code ``h = 2*rts + tra``) instead of tuples-of-tuples;
* **single-pass enabledness** — each process's unique enabled rule is
  resolved in one table lookup computing ``G_i`` exactly once;
* **incremental maintenance** — guards only read ``q_{i-1}, q_i, q_{i+1}``,
  so after a step firing selection ``S`` only the closed neighborhood
  ``{i-1, i, i+1 : i in S}`` can change enabledness, making the per-step
  cost O(|S|) instead of O(5n).

Kernels are wired behind the existing interfaces: the engine
(:class:`~repro.simulation.engine.SharedMemorySimulator`), the convergence
driver (:func:`~repro.simulation.convergence.converge`) and the
explicit-state :class:`~repro.verification.transition_system.TransitionSystem`
all probe
``algorithm.fast_kernel()`` and fall back to the naive path when it returns
``None``.  Every entry point takes ``use_fastpath=False`` as an escape
hatch, and the ``REPRO_FASTPATH=0`` environment variable (or the
:func:`fastpath_override` context manager) disables kernels globally.

Equivalence with the naive path — same enabled sets, same rule names, same
successor configurations — is enforced by the differential suite in
``tests/simulation/test_fastpath.py`` (randomized runs under every daemon
plus the exhaustive n=3 state space).  See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.simulation.fastpath.kernel import FastKernel, PackedView

#: Process-wide default, read once at import: ``REPRO_FASTPATH=0`` (or
#: ``false``/``no``/``off``) disables every kernel without touching call
#: sites — the coarse escape hatch for sweeps and worker processes.
_ENV_DEFAULT = os.environ.get("REPRO_FASTPATH", "1").strip().lower() not in (
    "0", "false", "no", "off",
)

#: Scoped override installed by :func:`fastpath_override` (None = defer to
#: the environment default).
_OVERRIDE: Optional[bool] = None


def fastpath_enabled(explicit: Optional[bool] = None) -> bool:
    """Resolve whether the fast path should be used.

    Precedence: an ``explicit`` per-call-site value (``use_fastpath=...``)
    beats the scoped :func:`fastpath_override`, which beats the
    ``REPRO_FASTPATH`` environment default (on).
    """
    if explicit is not None:
        return explicit
    if _OVERRIDE is not None:
        return _OVERRIDE
    return _ENV_DEFAULT


@contextmanager
def fastpath_override(enabled: bool) -> Iterator[None]:
    """Force the fast path on or off for a dynamic scope.

    Used by differential tests and by sweep drivers that want one naive
    reference run next to fast runs without re-plumbing every call.
    """
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = enabled
    try:
        yield
    finally:
        _OVERRIDE = previous


def resolve_kernel(algorithm, explicit: Optional[bool] = None):
    """The algorithm's kernel if fastpath is enabled and supported, else None.

    The capability probe is ``algorithm.fast_kernel()``: algorithms without
    a kernel (the base-class default) return ``None`` and every caller
    silently keeps the naive path.
    """
    if not fastpath_enabled(explicit):
        return None
    probe = getattr(algorithm, "fast_kernel", None)
    return probe() if callable(probe) else None


__all__ = [
    "FastKernel",
    "PackedView",
    "fastpath_enabled",
    "fastpath_override",
    "resolve_kernel",
]

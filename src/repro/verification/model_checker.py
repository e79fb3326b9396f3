"""Model checking self-stabilization on explicit transition systems.

:func:`check_self_stabilization` verifies, by exhaustive enumeration:

* **no deadlock** (Lemma 4): every configuration has a successor;
* **closure** (Lemma 1): successors of legitimate configurations are
  legitimate;
* **convergence** (Lemma 6): the *illegitimate* subgraph is acyclic — i.e.
  there is no infinite execution avoiding the legitimate set, no matter what
  the (unfair, distributed) daemon chooses;
* **worst-case convergence steps** (Theorem 2's quantity, exactly): the
  longest path through the illegitimate region, which equals the value of
  the game where the daemon maximizes time-to-Lambda.

The check runs in two stages over states numbered in
``configuration_space()`` order.  :func:`_build_graph` produces the
transition relation as numpy edge arrays: in one vectorized pass over the
whole key space when the kernel has a batched form
(:meth:`~repro.simulation.fastpath.kernel.FastKernel.batched_moves`), else
from the scalar ``successor_keys`` loop.  :func:`_peel` then peels the
illegitimate subgraph layer by layer (Kahn's algorithm on out-degrees):
layer ``L`` holds the states whose every successor lies in Lambda or in a
lower layer, so a state's layer is exactly its adversarial steps-to-Lambda
and the worst case is the last layer.  States left unpeeled all have an
unpeeled successor, so walking them exhibits an illegitimate cycle.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import RingAlgorithm
from repro.verification.transition_system import (
    TransitionSystem,
    nonempty_subsets,
)


@dataclass
class StabilizationReport:
    """Result of an exhaustive self-stabilization check.

    Attributes
    ----------
    state_count:
        Number of configurations examined.
    legitimate_count:
        Size of the legitimate set Lambda.
    deadlocks:
        Configurations with no enabled process (empty for a correct ring).
    closure_violations:
        ``(legitimate config, illegitimate successor)`` pairs (empty = Lemma 1
        holds).
    illegitimate_cycle:
        A cycle through illegitimate configurations if one exists (None =
        Lemma 6 holds).
    worst_case_steps:
        Exact maximum steps-to-Lambda over all configurations and daemon
        strategies; ``None`` if convergence fails.
    convergence_checked:
        Whether the cycle/longest-path analysis actually ran
        (``compute_worst_case=True``); without it, convergence is unknown
        and :attr:`self_stabilizing` refuses to claim success.
    """

    state_count: int
    legitimate_count: int
    deadlocks: List[Any]
    closure_violations: List[Tuple[Any, Any]]
    illegitimate_cycle: Optional[List[Any]]
    worst_case_steps: Optional[int]
    convergence_checked: bool = True

    @property
    def self_stabilizing(self) -> bool:
        """True iff no deadlocks, closure holds, convergence verified to hold.

        Also requires a non-empty legitimate set — an algorithm whose Lambda
        is empty vacuously satisfies closure but cannot converge to it.
        """
        return (
            self.convergence_checked
            and self.legitimate_count > 0
            and not self.deadlocks
            and not self.closure_violations
            and self.illegitimate_cycle is None
        )

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        verdict = "SELF-STABILIZING" if self.self_stabilizing else "NOT self-stabilizing"
        lines = [
            f"{verdict}: {self.state_count} configurations, "
            f"{self.legitimate_count} legitimate",
            f"  deadlocks: {len(self.deadlocks)}",
            f"  closure violations: {len(self.closure_violations)}",
            f"  illegitimate cycle: "
            f"{'none' if self.illegitimate_cycle is None else len(self.illegitimate_cycle)}",
        ]
        if self.worst_case_steps is not None:
            lines.append(f"  worst-case convergence steps: {self.worst_case_steps}")
        return "\n".join(lines)


@dataclass
class _Graph:
    """A transition relation over state indices ``0..M-1``.

    Indices follow ``configuration_space()`` order; the first ``counted``
    are the enumerated space, any further ones are successors outside an
    overridden space.  Only edges into *illegitimate* states are kept:
    neither the peeling nor the closure check needs the rest.
    """

    counted: int
    legit: np.ndarray
    has_succ: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    keys: Sequence[Any]
    index: Callable[[Any], int]


def _key_dtype(count: int) -> type:
    return np.int32 if count < 2 ** 31 else np.int64


def _batched_moves(ts: TransitionSystem) -> Optional[Tuple[np.ndarray, ...]]:
    """``kernel.batched_moves`` over the whole key space, or None.

    Packed keys enumerate the space in ``configuration_space()`` order, so
    ``np.arange(N)`` *is* the state list and a key is its own index.
    """
    kernel = ts._kernel
    if (kernel is None or type(ts.algorithm).configuration_space
            is not RingAlgorithm.configuration_space):
        return None
    count = kernel.key_base ** ts.algorithm.n
    return kernel.batched_moves(np.arange(count, dtype=_key_dtype(count)))


def _selection_edges(
    ts: TransitionSystem, enabled: np.ndarray, delta: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """``(src, dst)`` key arrays, one pair per daemon-allowed selection.

    A selection fires from every state where all its members are enabled,
    and lands on the key plus the sum of its members' solo shifts.
    """
    count, n = enabled.shape
    dtype = _key_dtype(count)
    for sel in nonempty_subsets(tuple(range(n)), ts.max_selection):
        src = np.flatnonzero(enabled[:, sel].all(axis=1)).astype(dtype)
        yield src, (src + delta[src][:, sel].sum(axis=1)).astype(dtype)


def _batched_graph(ts: TransitionSystem) -> Optional[_Graph]:
    """The whole edge set in numpy, or None without a batched form."""
    moves = _batched_moves(ts)
    if moves is None:
        return None
    enabled, delta, legit = moves
    srcs, dsts = [], []
    for src, dst in _selection_edges(ts, enabled, delta):
        keep = ~legit[dst]
        srcs.append(src[keep])
        dsts.append(dst[keep])
    count = len(legit)
    return _Graph(count, legit, enabled.any(axis=1), np.concatenate(srcs),
                  np.concatenate(dsts), range(count), operator.index)


def _scalar_graph(ts: TransitionSystem) -> _Graph:
    """Edges from the per-state ``successor_keys`` loop (any algorithm)."""
    keys: List[Any] = []
    index: Dict[Any, int] = {}
    succs: List[Tuple[Any, ...]] = []
    legit: List[bool] = []
    for config in ts.states():
        k = ts._key(config)
        index[k] = len(keys)
        keys.append(k)
        succs.append(ts.successor_keys(config, k))
        legit.append(ts.is_legitimate(config, k))
    counted = len(keys)
    src: List[int] = []
    dst: List[int] = []
    i = 0
    while i < len(keys):
        for sk in succs[i]:
            j = index.get(sk)
            if j is None:  # outside an overridden configuration_space
                j = index[sk] = len(keys)
                keys.append(sk)
                succs.append(ts.successor_keys_for(sk))
                legit.append(ts.is_legitimate_key(sk))
            src.append(i)
            dst.append(j)
        i += 1
    legit_arr = np.array(legit, dtype=bool)
    src_arr = np.array(src, dtype=np.int64)
    dst_arr = np.array(dst, dtype=np.int64)
    keep = ~legit_arr[dst_arr]
    return _Graph(counted, legit_arr, np.array([bool(s) for s in succs]),
                  src_arr[keep], dst_arr[keep], keys, index.__getitem__)


def _build_graph(ts: TransitionSystem) -> _Graph:
    return _batched_graph(ts) or _scalar_graph(ts)


def _peel(g: _Graph) -> Tuple[np.ndarray, Optional[List[int]]]:
    """``(value, cycle)``: steps-to-Lambda per state, or a cycle of indices.

    Kahn layer peeling of the illegitimate subgraph.  ``value`` is 0 on
    Lambda and the peeling layer elsewhere; ``cycle`` (first index equals
    last) is returned when some illegitimate states never peel.
    """
    m = len(g.legit)
    illegit = ~g.legit
    sub = illegit[g.src]
    src, dst = g.src[sub], g.dst[sub]
    outdeg = np.bincount(src, minlength=m)
    preds = src[np.argsort(dst)]
    ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=m), out=ptr[1:])
    value = np.zeros(m, dtype=np.int64)
    frontier = np.flatnonzero(illegit & (outdeg == 0))
    layer = 0
    while frontier.size:
        layer += 1
        value[frontier] = layer
        # Predecessors of the frontier: the concatenated CSR ranges.
        lo, lens = ptr[frontier], ptr[frontier + 1] - ptr[frontier]
        ends = np.cumsum(lens)
        at = np.repeat(lo - ends + lens, lens) + np.arange(ends[-1])
        touched, hits = np.unique(preds[at], return_counts=True)
        outdeg[touched] -= hits
        frontier = touched[outdeg[touched] == 0]
    stuck = illegit & (value == 0)
    if not stuck.any():
        return value, None
    # Every stuck state has a stuck successor: follow the smallest one.
    live = stuck[src] & stuck[dst]
    nxt = np.full(m, m, dtype=np.int64)
    np.minimum.at(nxt, src[live], dst[live])
    seen: Dict[int, int] = {}
    path: List[int] = []
    i = int(np.flatnonzero(stuck)[0])
    while i not in seen:
        seen[i] = len(path)
        path.append(i)
        i = int(nxt[i])
    return value, path[seen[i]:] + [i]


def check_self_stabilization(
    ts: TransitionSystem, compute_worst_case: bool = True
) -> StabilizationReport:
    """Run the full exhaustive check on a transition system.

    Builds the transition relation once, reads deadlocks and closure
    violations off the edge arrays and (optionally) peels the illegitimate
    subgraph for convergence + worst case.  Configurations are decoded only
    for the states a report lists.
    """
    g = _build_graph(ts)
    config = ts.config_for_key
    n0 = g.counted
    deadlocks = [config(g.keys[i])
                 for i in np.flatnonzero(~g.has_succ[:n0]).tolist()]
    bad = g.legit[g.src] & (g.src < n0)
    closure_violations = [
        (config(g.keys[a]), config(g.keys[b]))
        for a, b in sorted(set(zip(g.src[bad].tolist(), g.dst[bad].tolist())))
    ]

    worst: Optional[int] = None
    cycle: Optional[List[Any]] = None
    if compute_worst_case:
        value, path = _peel(g)
        if path is None:
            worst = int(value.max())
        else:
            cycle = [config(g.keys[i]) for i in path]

    return StabilizationReport(
        state_count=n0,
        legitimate_count=int(g.legit[:n0].sum()),
        deadlocks=deadlocks,
        closure_violations=closure_violations,
        illegitimate_cycle=cycle,
        worst_case_steps=worst,
        convergence_checked=compute_worst_case,
    )


def _values(ts: TransitionSystem) -> Tuple[_Graph, np.ndarray]:
    g = _build_graph(ts)
    value, cycle = _peel(g)
    if cycle is not None:
        raise AssertionError(
            f"algorithm does not converge: illegitimate cycle of length "
            f"{len(cycle)}"
        )
    return g, value


def worst_case_convergence_steps(ts: TransitionSystem) -> int:
    """Exact adversarial convergence time; raises if convergence fails."""
    return int(_values(ts)[1].max())


def worst_case_witness(ts: TransitionSystem) -> List[Any]:
    """An exact worst-case execution: the longest path into Lambda.

    Returns the configuration sequence ``[gamma_0, ..., gamma_T]`` where
    ``gamma_0`` maximizes the adversarial steps-to-Lambda, every transition
    is a legal daemon choice, and ``gamma_T`` is the first legitimate
    configuration.  This is the *ground truth* the heuristic
    :class:`~repro.daemons.adversarial.AdversarialDaemon` approximates.

    ``gamma_0`` is the first configuration (in ``configuration_space()``
    order) with the largest peeled value; each step then takes the first
    successor, in daemon-selection order, whose value is one less.
    """
    g, value = _values(ts)
    i = int(value[:g.counted].argmax())
    key = g.keys[i]
    path = [ts.config_for_key(key)]
    while not g.legit[i]:
        key = max(ts.successor_keys_for(key),
                  key=lambda k: value[g.index(k)])
        i = g.index(key)
        path.append(ts.config_for_key(key))
    return path

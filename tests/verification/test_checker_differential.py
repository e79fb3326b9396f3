"""Differential tests of the batched model checker.

The fast path builds the whole transition relation in one numpy pass over
the key space (``kernel.batched_moves``); the naive reference builds it from
per-state guard evaluation.  Both feed the same layer-peeling analysis, so
the analysis is also checked against an oracle it shares no code with:
fixed-point value iteration over the naive successor map.
"""

import pytest

from repro.algorithms.dijkstra import DijkstraKState
from repro.core.ssrmin import SSRmin
from repro.verification import model_checker as mc
from repro.verification.model_checker import check_self_stabilization
from repro.verification.transition_system import TransitionSystem

INSTANCES = [
    ("ssrmin", 3, 4),
    ("ssrmin", 3, 5),
    pytest.param("ssrmin", 4, 5, marks=pytest.mark.slow),
    ("dijkstra", 3, 2),
    ("dijkstra", 3, 3),
    ("dijkstra", 3, 4),
]
DAEMONS = [("central", None), ("distributed", None), ("distributed", 2)]

#: Largest space the pure-Python value-iteration oracle is run on.
ORACLE_MAX_STATES = 10_000


def _algorithm(name, n, K):
    if name == "ssrmin":
        return SSRmin(n, K)
    return DijkstraKState(n, K, allow_small_k=True)


def _batched_successors(ts):
    """Per key, the successor keys of the batched edge builder."""
    enabled, delta, legit = mc._batched_moves(ts)
    succ = [set() for _ in range(len(legit))]
    for src, dst in mc._selection_edges(ts, enabled, delta):
        for s, d in zip(src.tolist(), dst.tolist()):
            succ[s].add(d)
    return succ


def value_iteration_oracle(ts):
    """Deadlocks, closure violations and worst case by naive iteration.

    Keys are the transition system's own.  ``worst`` is None when the
    values never reach a fixed point, i.e. an illegitimate cycle exists.
    """
    succ, legit = {}, {}
    for config in ts.states():
        k = ts._key(config)
        succ[k] = ts.successor_keys(config, k)
        legit[k] = ts.is_legitimate(config, k)
    deadlocks = {k for k, s in succ.items() if not s}
    closure = {(k, s) for k, ss in succ.items() if legit[k]
               for s in ss if not legit[s]}
    value = dict.fromkeys(succ, 0)
    worst = None
    for _ in range(sum(not v for v in legit.values()) + 2):
        new = {k: 0 if legit[k] else 1 + max((value[s] for s in ss), default=0)
               for k, ss in succ.items()}
        if new == value:
            worst = max(value.values())
            break
        value = new
    return deadlocks, closure, worst


@pytest.mark.parametrize("daemon,cap", DAEMONS)
@pytest.mark.parametrize("name,n,K", INSTANCES)
def test_fast_path_matches_naive(name, n, K, daemon, cap):
    alg = _algorithm(name, n, K)
    fast = TransitionSystem(alg, daemon, max_selection=cap, use_fastpath=True)
    naive = TransitionSystem(alg, daemon, max_selection=cap, use_fastpath=False)
    assert mc._batched_moves(fast) is not None

    batched = _batched_successors(fast)
    configs = list(alg.configuration_space())
    assert len(batched) == len(configs)
    index = {}
    for i, config in enumerate(configs):
        assert fast._key(config) == i  # key order == configuration_space order
        index[naive._key(config)] = i
    for i, config in enumerate(configs):
        expected = {index[k] for k in naive.successor_keys(config)}
        assert batched[i] == expected, configs[i]

    report = check_self_stabilization(fast)
    assert report == check_self_stabilization(naive)

    if len(configs) <= ORACLE_MAX_STATES:
        deadlocks, closure, worst = value_iteration_oracle(naive)
        assert {naive._key(c) for c in report.deadlocks} == deadlocks
        assert {(naive._key(a), naive._key(b))
                for a, b in report.closure_violations} == closure
        assert report.worst_case_steps == worst
        assert (report.illegitimate_cycle is None) == (worst is not None)

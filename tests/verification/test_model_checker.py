"""Unit tests for the exhaustive self-stabilization model checker.

These include the headline mechanical verifications: SSRmin itself is
exhaustively proven self-stabilizing (closure, convergence, no deadlock)
for the smallest legal instance — machine-checked Lemmas 1, 4 and 6.
"""

import pytest

from repro.algorithms.base import RingAlgorithm
from repro.algorithms.dijkstra import DijkstraKState
from repro.core.rules import Rule, RuleSet
from repro.core.ssrmin import SSRmin
from repro.ring.topology import RingTopology
from repro.verification.model_checker import (
    check_self_stabilization,
    worst_case_convergence_steps,
)
from repro.verification.transition_system import TransitionSystem


class BrokenRing(RingAlgorithm):
    """A deliberately broken 2-value ring: oscillates outside Lambda.

    Every process flips its bit whenever it differs from its predecessor;
    Lambda = all-equal configurations.  The two alternating configurations
    (0,1,0,...) and (1,0,1,...) form an illegitimate cycle under the central
    daemon picking everyone in turn... they form cycles under synchronous
    moves, and mixed configurations can also deadlock-free oscillate.  Used
    to prove the checker detects non-convergence.
    """

    def __init__(self, n: int):
        self.ring = RingTopology(n, bidirectional=False)
        self.rule_set = RuleSet(
            [
                Rule(
                    "FLIP",
                    1,
                    guard=lambda c, i: c[i] != c[i - 1],
                    command=lambda c, i: 1 - c[i],
                )
            ]
        )

    def is_legitimate(self, config):
        return len(set(config)) == 1

    def privileged(self, config):
        return self.enabled_processes(config)

    def local_state_space(self):
        return (0, 1)

    def random_configuration(self, rng):
        return tuple(rng.randrange(2) for _ in range(self.n))


class StuckAtZero(DijkstraKState):
    """Mutant: the bottom never leaves x=0, so (0, ..., 0) deadlocks."""

    def fast_kernel(self):
        return None

    def _guard_bottom(self, config, i):
        return super()._guard_bottom(config, i) and config[0] != 0


class TokenAtBottomOnly(DijkstraKState):
    """Mutant: Lambda shrunk to the all-equal configurations, not closed."""

    def fast_kernel(self):
        return None

    def is_legitimate(self, config):
        return len(set(config)) == 1


def assert_real_cycle(ts, cycle):
    """First equals last, every state illegitimate, every hop a move."""
    assert cycle is not None and len(cycle) >= 2
    assert cycle[0] == cycle[-1]
    for config in cycle:
        assert not ts.is_legitimate(config)
    for a, b in zip(cycle, cycle[1:]):
        assert ts._key(b) in ts.successor_keys(a)


class TestDijkstraVerification:
    @pytest.mark.parametrize("n,K", [(3, 4), (4, 5)])
    def test_k_state_self_stabilizing_distributed(self, n, K):
        report = check_self_stabilization(
            TransitionSystem(DijkstraKState(n, K), "distributed")
        )
        assert report.self_stabilizing, report.summary()
        assert report.worst_case_steps is not None

    def test_small_k_fails(self):
        """K=2 < n=3: the ring is NOT self-stabilizing (the K > n rule)."""
        alg = DijkstraKState(3, 2, allow_small_k=True)
        report = check_self_stabilization(TransitionSystem(alg, "distributed"))
        assert not report.self_stabilizing
        assert report.illegitimate_cycle is not None

    def test_worst_case_helper_matches_report(self):
        alg = DijkstraKState(3, 4)
        ts = TransitionSystem(alg, "distributed")
        report = check_self_stabilization(ts)
        assert worst_case_convergence_steps(
            TransitionSystem(alg, "distributed")
        ) == report.worst_case_steps


class TestSSRminVerification:
    def test_ssrmin_exhaustively_self_stabilizing(self):
        """Machine-checked Lemmas 1 + 4 + 6 for n=3, K=4 (4096 configs)."""
        alg = SSRmin(3, 4)
        report = check_self_stabilization(TransitionSystem(alg, "distributed"))
        assert report.self_stabilizing, report.summary()
        assert report.legitimate_count == 3 * 3 * 4
        assert report.deadlocks == []
        assert report.closure_violations == []

    def test_ssrmin_worst_case_within_theorem2_budget(self):
        alg = SSRmin(3, 4)
        worst = worst_case_convergence_steps(
            TransitionSystem(alg, "distributed")
        )
        n = 3
        assert worst <= 60 * n * n + 600  # far inside the O(n^2) regime
        assert worst >= 1


class TestCheckerDetectsBreakage:
    def test_broken_ring_flagged(self):
        report = check_self_stabilization(TransitionSystem(BrokenRing(3)))
        assert not report.self_stabilizing
        assert report.illegitimate_cycle is not None

    def test_broken_ring_cycle_is_real(self):
        ts = TransitionSystem(BrokenRing(3))
        assert_real_cycle(ts, check_self_stabilization(ts).illegitimate_cycle)

    @pytest.mark.parametrize("fast", [True, False])
    def test_small_k_cycle_is_real(self, fast):
        alg = DijkstraKState(3, 2, allow_small_k=True)
        ts = TransitionSystem(alg, "distributed", use_fastpath=fast)
        assert_real_cycle(ts, check_self_stabilization(ts).illegitimate_cycle)

    def test_deadlock_reported(self):
        report = check_self_stabilization(
            TransitionSystem(StuckAtZero(3, 4), "distributed"))
        assert report.deadlocks == [(0, 0, 0)]
        assert report.closure_violations == []
        assert report.illegitimate_cycle is None
        assert not report.self_stabilizing

    def test_closure_violations_reported(self):
        report = check_self_stabilization(
            TransitionSystem(TokenAtBottomOnly(3, 4), "distributed"))
        assert report.closure_violations == [
            ((x, x, x), ((x + 1) % 4, x, x)) for x in range(4)
        ]
        assert report.deadlocks == []
        assert report.illegitimate_cycle is None
        assert not report.self_stabilizing

    def test_unchecked_convergence_never_claims_success(self):
        alg = DijkstraKState(3, 4)
        report = check_self_stabilization(
            TransitionSystem(alg, "distributed"), compute_worst_case=False
        )
        assert not report.convergence_checked
        assert not report.self_stabilizing  # refuses to claim without proof

    def test_summary_renders(self):
        report = check_self_stabilization(
            TransitionSystem(DijkstraKState(3, 4), "central")
        )
        text = report.summary()
        assert "SELF-STABILIZING" in text
        assert "worst-case" in text

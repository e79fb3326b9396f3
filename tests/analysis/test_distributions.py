"""Unit tests for distribution comparisons."""

import numpy as np
import pytest

from repro.analysis.distributions import (
    DistributionComparison,
    compare_distributions,
    effect_size,
)


class TestEffectSize:
    def test_identical_samples_zero(self):
        assert effect_size([1, 2, 3], [1, 2, 3]) == pytest.approx(0.0)

    def test_dominant_sample_positive(self):
        assert effect_size([10, 11], [1, 2]) == 1.0

    def test_dominated_sample_negative(self):
        assert effect_size([1, 2], [10, 11]) == -1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            effect_size([], [1])


class TestCompareDistributions:
    def test_rejects_tiny_samples(self):
        with pytest.raises(ValueError):
            compare_distributions([1], [1, 2])

    def test_same_distribution_indistinguishable(self):
        rng = np.random.default_rng(0)
        a = rng.normal(10, 2, 200)
        b = rng.normal(10, 2, 200)
        cmp = compare_distributions(a, b)
        assert not cmp.distinguishable(alpha=0.001)

    def test_shifted_distribution_detected(self):
        rng = np.random.default_rng(1)
        a = rng.normal(14, 2, 200)
        b = rng.normal(10, 2, 200)
        cmp = compare_distributions(a, b)
        assert cmp.distinguishable()
        assert cmp.a_stochastically_larger()
        assert cmp.cliffs_delta > 0.5


class TestOnRealWorkloads:
    def test_adversary_is_stochastically_slower_than_random(self):
        """abl2's narrative as a statistical claim: the adversarial daemon's
        convergence-step distribution dominates the random daemon's."""
        from repro.core.ssrmin import SSRmin
        from repro.daemons.adversarial import AdversarialDaemon
        from repro.daemons.distributed import RandomSubsetDaemon
        from repro.simulation.convergence import convergence_steps

        n = 5
        adv = convergence_steps(
            algorithm_factory=lambda: SSRmin(n, n + 1),
            daemon_factory=lambda alg, s: AdversarialDaemon(alg, depth=1,
                                                            seed=s),
            trials=40,
            seed=0,
        )
        rnd = convergence_steps(
            algorithm_factory=lambda: SSRmin(n, n + 1),
            daemon_factory=lambda alg, s: RandomSubsetDaemon(seed=s),
            trials=40,
            seed=0,
        )
        cmp = compare_distributions(adv, rnd)
        assert cmp.cliffs_delta > 0  # adversary tends slower

    def test_k_insensitivity_statistically(self):
        """abl5 as a statistical claim: K=n+1 vs K=16n convergence-step
        distributions are NOT meaningfully separated."""
        from repro.kernels.batched import run_convergence_cells

        def steps(K, seeds):
            rows = run_convergence_cells(n, seeds, "bernoulli:0.5", K=K)
            assert all(r["converged"] for r in rows)
            return [r["steps"] for r in rows]

        n = 8
        a = steps(n + 1, range(300))
        b = steps(16 * n, range(300, 600))
        cmp = compare_distributions(a, b)
        assert abs(cmp.cliffs_delta) < 0.3

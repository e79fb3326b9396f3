"""Property-based tests for the batched numpy kernel."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ssrmin import SSRmin
from repro.kernels.batched import (
    STREAM_INIT_H,
    STREAM_INIT_X,
    batched_converge,
    batched_guards,
    batched_legitimate,
    batched_step,
)
from repro.kernels.prng import grid_integers


def to_arrays(configs):
    """``(X, H)`` arrays (``H = 2*rts + tra``) of a list of configurations."""
    X = np.array([[x for x, _, _ in c] for c in configs], dtype=np.int64)
    H = np.array([[2 * r + t for _, r, t in c] for c in configs],
                 dtype=np.int64)
    return X, H


def row_states(X, H, t):
    return tuple(
        (int(X[t, i]), int(H[t, i]) >> 1, int(H[t, i]) & 1)
        for i in range(X.shape[1])
    )


@st.composite
def batch_with_scalar_twin(draw):
    """A batch of random configurations plus their SSRmin instance."""
    n = draw(st.integers(3, 7))
    K = n + draw(st.integers(1, 3))
    trials = draw(st.integers(1, 20))
    seed = draw(st.integers(0, 2 ** 16))
    alg = SSRmin(n, K)
    rng = random.Random(seed)
    configs = [alg.random_configuration(rng) for _ in range(trials)]
    return alg, configs


class TestScalarEquivalence:
    @given(batch_with_scalar_twin())
    @settings(max_examples=60, deadline=None)
    def test_legitimacy_mask_matches_scalar(self, pair):
        alg, configs = pair
        mask = batched_legitimate(*to_arrays(configs), alg.K)
        for t, config in enumerate(configs):
            assert bool(mask[t]) == alg.is_legitimate(config)

    @given(batch_with_scalar_twin())
    @settings(max_examples=60, deadline=None)
    def test_enabled_counts_match_scalar(self, pair):
        alg, configs = pair
        _, rule = batched_guards(*to_arrays(configs))
        counts = (rule > 0).sum(axis=1)
        for t, config in enumerate(configs):
            assert counts[t] == len(alg.enabled_processes(config))

    @given(batch_with_scalar_twin())
    @settings(max_examples=40, deadline=None)
    def test_synchronous_step_matches_scalar(self, pair):
        alg, configs = pair
        seeds = list(range(len(configs)))
        X, H = batched_step(*to_arrays(configs), alg.K, seeds,
                            "synchronous", 1.0, 1)
        for t, config in enumerate(configs):
            enabled = alg.enabled_processes(config)
            expected = alg.step(config, enabled) if enabled else config
            assert row_states(X, H, t) == expected.states

    @given(batch_with_scalar_twin())
    @settings(max_examples=30, deadline=None)
    def test_no_deadlock_in_batch(self, pair):
        """Lemma 4 holds batched: every trial has an enabled process."""
        _, configs = pair
        _, rule = batched_guards(*to_arrays(configs))
        assert ((rule > 0).sum(axis=1) >= 1).all()


class TestConvergenceProperties:
    @given(st.integers(3, 8), st.integers(0, 3), st.integers(0, 2 ** 16),
           st.floats(0.1, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_all_trials_converge_for_any_p(self, n, extra_k, seed, p):
        K = n + 1 + extra_k
        budget = 60 * n * n + 600
        seeds = list(range(seed, seed + 30))
        X = grid_integers(seeds, STREAM_INIT_X, 0, n, K)
        H = grid_integers(seeds, STREAM_INIT_H, 0, n, 4)
        steps, X, H = batched_converge(X, H, K, seeds, "bernoulli", p,
                                       budget)
        assert (steps >= 0).all()
        assert (steps <= budget).all()
        assert batched_legitimate(X, H, K).all()

    @given(st.integers(3, 7), st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_legitimate_starts_report_zero_steps(self, n, seed):
        alg = SSRmin(n, n + 1)
        X, H = to_arrays(
            [alg.initial_configuration(x % (n + 1)) for x in range(4)]
        )
        seeds = list(range(seed, seed + 4))
        steps, _, _ = batched_converge(X, H, n + 1, seeds, "bernoulli", 0.5,
                                       10)
        assert (steps == 0).all()

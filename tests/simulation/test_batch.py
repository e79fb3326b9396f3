"""The batched numpy kernel against the scalar simulation engine.

States go in as ``(trials, n)`` arrays: ``X`` holds the counters and ``H``
the handshake codes ``2*rts + tra`` (the low two bits of a packed word).
"""

import random

import numpy as np
import pytest

from repro.core.ssrmin import SSRmin
from repro.daemons.distributed import SynchronousDaemon
from repro.kernels.batched import (
    STREAM_INIT_H,
    STREAM_INIT_X,
    batched_converge,
    batched_guards,
    batched_legitimate,
    batched_privileged_counts,
    batched_step,
    run_convergence_cells,
)
from repro.kernels.packing import (
    pack_ssrmin,
    ssrmin_h,
    ssrmin_words_legitimate,
    ssrmin_x,
    unpack_ssrmin,
)
from repro.kernels.prng import grid_integers
from repro.simulation.engine import SharedMemorySimulator


def to_arrays(configs):
    """``(X, H)`` arrays of an iterable of configurations."""
    words = [[pack_ssrmin(*state) for state in config] for config in configs]
    X = np.array([[ssrmin_x(w) for w in row] for row in words], dtype=np.int64)
    H = np.array([[ssrmin_h(w) for w in row] for row in words], dtype=np.int64)
    return X, H


def row_states(X, H, t):
    """Row ``t`` of ``(X, H)`` as a tuple of ``(x, rts, tra)`` states."""
    return tuple(
        unpack_ssrmin((int(X[t, i]) << 2) | int(H[t, i]))
        for i in range(X.shape[1])
    )


def random_grid(n, K, seeds):
    """``(X, H)`` of the counter-based random starts for ``seeds``."""
    seeds = list(seeds)
    return (grid_integers(seeds, STREAM_INIT_X, 0, n, K),
            grid_integers(seeds, STREAM_INIT_H, 0, n, 4))


class TestConstruction:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            run_convergence_cells(2, [0])
        with pytest.raises(ValueError):
            run_convergence_cells(5, [0], K=5)
        with pytest.raises(ValueError):
            run_convergence_cells(5, [0], "bernoulli:0")
        assert run_convergence_cells(5, []) == []

    def test_set_and_read_configurations(self):
        alg = SSRmin(5, 6)
        c0 = alg.initial_configuration(3)
        c1 = alg.initial_configuration(0)
        X, H = to_arrays([c0, c1])
        assert row_states(X, H, 0) == c0.states
        assert row_states(X, H, 1) == c1.states
        words = [(int(x) << 2) | int(h) for x, h in zip(X[0], H[0])]
        assert ssrmin_words_legitimate(words, 6)
        assert batched_legitimate(X, H, 6).all()


class TestLegitimacyEquivalence:
    def test_matches_scalar_checker_on_random_configs(self):
        alg = SSRmin(5, 6)
        rng = random.Random(0)
        configs = [alg.random_configuration(rng) for _ in range(500)]
        mask = batched_legitimate(*to_arrays(configs), 6)
        for t, config in enumerate(configs):
            assert bool(mask[t]) == alg.is_legitimate(config), config

    def test_matches_scalar_on_all_legitimate(self):
        from repro.simulation.initial import all_legitimate

        alg = SSRmin(4, 5)
        configs = all_legitimate(alg)
        assert batched_legitimate(*to_arrays(configs), 5).all()

    def test_matches_scalar_exhaustively_small_instance(self):
        alg = SSRmin(3, 4)
        configs = list(alg.configuration_space())
        mask = batched_legitimate(*to_arrays(configs), 4)
        for t, config in enumerate(configs):
            assert bool(mask[t]) == alg.is_legitimate(config)


class TestStepEquivalence:
    def test_synchronous_step_matches_scalar_engine(self):
        """Synchronous batched stepping must replicate SynchronousDaemon."""
        alg = SSRmin(5, 6)
        rng = random.Random(7)
        for trial in range(10):
            init = alg.random_configuration(rng)
            sim = SharedMemorySimulator(alg, SynchronousDaemon())
            scalar = sim.run(init, max_steps=30)

            X, H = to_arrays([init])
            for k, expected in enumerate(
                scalar.execution.configurations[1:], start=1
            ):
                X, H = batched_step(X, H, 6, [trial], "synchronous", 1.0, k)
                assert row_states(X, H, 0) == expected.states

    def test_enabled_counts_match_scalar(self):
        alg = SSRmin(6, 7)
        rng = random.Random(3)
        configs = [alg.random_configuration(rng) for _ in range(200)]
        _, rule = batched_guards(*to_arrays(configs))
        counts = (rule > 0).sum(axis=1)
        for t, config in enumerate(configs):
            assert counts[t] == len(alg.enabled_processes(config))


class TestConvergence:
    def test_all_trials_converge(self):
        rows = run_convergence_cells(6, range(200))
        steps = np.array([r["steps"] for r in rows])
        assert steps.shape == (200,)
        assert (steps >= 0).all()
        assert steps.max() <= 60 * 36 + 600

    def test_deterministic_under_seed(self):
        a = run_convergence_cells(5, range(4, 54))
        b = run_convergence_cells(5, range(4, 54))
        assert a == b

    def test_converged_trials_frozen(self):
        """Once legitimate, a trial must not be stepped further (its steps
        value is final and its configuration stays legitimate)."""
        seeds = list(range(100))
        X, H = random_grid(5, 6, seeds)
        steps, X, H = batched_converge(
            X, H, 6, seeds, "bernoulli", 0.5, 10_000)
        assert (steps >= 0).all()
        assert batched_legitimate(X, H, 6).all()

    def test_budget_exhaustion_reported(self):
        rows = run_convergence_cells(8, range(50), budget=1)
        assert any(not r["converged"] for r in rows)

    def test_distribution_comparable_to_scalar(self):
        """Batched and scalar engines sample the same process; their mean
        convergence steps should agree within sampling noise."""
        from repro.daemons.distributed import BernoulliDaemon
        from repro.simulation.convergence import convergence_steps

        n = 5
        batch_steps = np.array([
            r["steps"] for r in run_convergence_cells(n, range(400))
        ])
        scalar_steps = convergence_steps(
            algorithm_factory=lambda: SSRmin(n, n + 1),
            daemon_factory=lambda alg, s: BernoulliDaemon(0.5, seed=s),
            trials=60,
            seed=0,
        )
        assert abs(batch_steps.mean() - np.mean(scalar_steps)) < 6.0


class TestPrivilegedCounts:
    def test_matches_scalar_on_random_configs(self):
        alg = SSRmin(6, 7)
        rng = random.Random(11)
        configs = [alg.random_configuration(rng) for _ in range(300)]
        counts = batched_privileged_counts(*to_arrays(configs))
        for t, config in enumerate(configs):
            assert counts[t] == len(alg.privileged(config)), config

    def test_theorem1_band_after_convergence(self):
        """Vectorized Theorem 1: once legitimate, 1 <= privileged <= 2 for
        every trial through continued stepping."""
        seeds = list(range(200))
        budget = 60 * 36 + 600
        X, H = random_grid(6, 7, seeds)
        steps, X, H = batched_converge(
            X, H, 7, seeds, "bernoulli", 0.5, budget)
        assert (steps >= 0).all()
        for k in range(budget + 1, budget + 101):
            counts = batched_privileged_counts(X, H)
            assert (counts >= 1).all() and (counts <= 2).all()
            X, H = batched_step(X, H, 7, seeds, "bernoulli", 0.5, k)

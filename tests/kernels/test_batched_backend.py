"""The vectorized convergence backend vs the scalar engines.

``run_convergence_cells`` is the batched-cell workhorse of the sweep
engine; these tests pin its two load-bearing contracts:

* **group-composition invariance** — a cell's result is identical whether
  it runs alone or inside any batch (the per-cell-seed determinism the
  resumable store relies on);
* **cross-engine agreement** — under the synchronous daemon the
  trajectory is a deterministic function of the initial configuration, so
  the batched backend must report exactly the step count the scalar
  fastpath engine measures from the same start;
* **the incremental loop is the definition** — ``batched_converge``
  returns exactly the ``(steps, X, H)`` of stepping ``batched_step`` and
  testing ``batched_legitimate`` on every state.
"""

import itertools

import numpy as np
import pytest

from repro.core.ssrmin import SSRmin
from repro.daemons.distributed import SynchronousDaemon
from repro.kernels.batched import (
    DAEMON_FAMILIES,
    STREAM_INIT_H,
    STREAM_INIT_X,
    _gate,
    batched_converge,
    batched_guards,
    batched_legitimate,
    batched_step,
    parse_daemon,
    run_convergence_cells,
)
from repro.kernels.prng import grid_integers
from repro.simulation.convergence import converge


@pytest.mark.parametrize("daemon", ["synchronous", "central",
                                    "bernoulli:0.5"])
def test_group_composition_invariance(daemon):
    seeds = list(range(10))
    together = run_convergence_cells(6, seeds, daemon)
    for seed, expected in zip(seeds, together):
        alone = run_convergence_cells(6, [seed], daemon)[0]
        assert alone == expected
    shuffled = run_convergence_cells(6, seeds[::-1], daemon)
    assert shuffled == together[::-1]


def test_all_daemon_families_converge():
    for daemon in ("synchronous", "central", "bernoulli:0.3",
                   "bernoulli:0.9"):
        results = run_convergence_cells(5, range(6), daemon)
        assert all(r["converged"] for r in results)
        assert all(r["steps"] >= 0 for r in results)


def test_synchronous_agrees_with_scalar_engine():
    n, K, seeds = 6, 7, list(range(8))
    X = grid_integers(seeds, STREAM_INIT_X, 0, n, K)
    H = grid_integers(seeds, STREAM_INIT_H, 0, n, 4)
    batched = run_convergence_cells(n, seeds, "synchronous", K=K)
    alg = SSRmin(n, K)
    for row, result in enumerate(batched):
        init = tuple(
            (int(X[row, i]), int(H[row, i]) >> 1, int(H[row, i]) & 1)
            for i in range(n)
        )
        scalar = converge(alg, SynchronousDaemon(), init)
        assert scalar.converged
        assert scalar.steps == result["steps"]


def test_budget_exhaustion_reports_unconverged():
    # A 2-step budget cannot converge every random start at n=8.
    results = run_convergence_cells(8, range(32), "central", budget=2)
    assert any(not r["converged"] for r in results)
    for r in results:
        assert r["budget"] == 2
        if not r["converged"]:
            assert r["steps"] == -1


def test_daemon_parsing():
    assert parse_daemon("synchronous")[0] == "synchronous"
    assert parse_daemon("central")[0] == "central"
    assert parse_daemon("bernoulli:0.25") == ("bernoulli", 0.25)
    assert set(DAEMON_FAMILIES) == {"synchronous", "central", "bernoulli"}
    with pytest.raises(ValueError):
        parse_daemon("lottery")
    with pytest.raises(ValueError):
        parse_daemon("bernoulli:0")
    with pytest.raises(ValueError):
        parse_daemon("bernoulli:1.5")


def test_parameter_validation():
    with pytest.raises(ValueError):
        run_convergence_cells(2, [0])
    with pytest.raises(ValueError):
        run_convergence_cells(5, [0], K=5)


# -- batched_converge vs its definition -----------------------------------


def _oracle_converge(X, H, K, seeds, kind, p, budget):
    """The definition: ``batched_step`` + ``batched_legitimate`` per step."""
    steps = np.full(X.shape[0], -1, dtype=np.int64)
    legit = batched_legitimate(X, H, K)
    steps[legit] = 0
    active = ~legit
    for k in range(1, budget + 1):
        if not active.any():
            break
        X, H = batched_step(X, H, K, seeds, kind, p, k, active)
        legit = batched_legitimate(X, H, K)
        steps[active & legit] = k
        active &= ~legit
    return steps, X, H


def _starts(n, K, seeds):
    """Random starts with two legitimate rows mixed in."""
    X = grid_integers(seeds, STREAM_INIT_X, 0, n, K)
    H = grid_integers(seeds, STREAM_INIT_H, 0, n, 4)
    X[1], H[1] = 0, 0                  # all equal, <0.1> at the token
    H[1, 0] = 1
    X[3, : n // 2], X[3, n // 2:] = 1, 0   # staircase, <1.0><0.1>
    H[3] = 0
    H[3, n // 2], H[3, (n // 2 + 1) % n] = 2, 1
    assert batched_legitimate(X[[1, 3]], H[[1, 3]], K).all()
    return X, H


@pytest.mark.parametrize("daemon", ["synchronous", "central",
                                    "bernoulli:0.5"])
@pytest.mark.parametrize("n", [3, 4, 5, 8, 17, 64])
@pytest.mark.parametrize("k_of_n", ["n+1", "3n"])
def test_converge_equals_oracle_loop(daemon, n, k_of_n):
    K = n + 1 if k_of_n == "n+1" else 3 * n
    kind, p = parse_daemon(daemon)
    seeds = [11 * n + s for s in range(8)]
    X, H = _starts(n, K, seeds)
    full = 60 * n * n + 600
    for budget in (0, 1, n, full):
        got = batched_converge(X, H, K, seeds, kind, p, budget)
        want = _oracle_converge(X, H, K, seeds, kind, p, budget)
        for a, b in zip(got, want):
            assert np.array_equal(a, b), (daemon, n, K, budget)
        if budget == full:
            assert (got[0] >= 0).all()
            # rows converge at different steps, legitimate starts at 0
            distinct = len(set(got[0].tolist()))
            assert distinct > (1 if kind == "synchronous" else 2)
            assert got[0][1] == got[0][3] == 0
        elif budget == n and n > 3:
            assert (got[0] == -1).any()


def test_converge_leaves_its_inputs_alone():
    seeds = list(range(6))
    X, H = _starts(8, 9, seeds)
    X0, H0 = X.copy(), H.copy()
    for kind in ("central", "synchronous"):
        batched_converge(X, H, 9, seeds, kind, 0.0, 200)
        assert np.array_equal(X, X0) and np.array_equal(H, H0)


def _all_states(n, K):
    xs = np.array(list(itertools.product(range(K), repeat=n)))
    hs = np.array(list(itertools.product(range(4), repeat=n)))
    X = np.repeat(xs, len(hs), axis=0)
    H = np.tile(hs, (len(xs), 1))
    return X, H


def test_gate_passes_every_legitimate_state():
    X, H = _all_states(3, 4)
    legit = batched_legitimate(X, H, 4)
    bounds = np.count_nonzero(X != np.roll(X, 1, axis=1), axis=1)
    gate = _gate(bounds)
    assert int(legit.sum()) == 36
    assert gate[legit].all()
    # A real filter: it rejects the 24 x-vectors with three boundaries.
    assert int(gate.sum()) == (4 + 36) * 4 ** 3


def test_no_state_is_deadlocked():
    """The central step relies on Lemma 4: every row has an enabled site."""
    X, H = _all_states(3, 4)
    _, rule = batched_guards(X, H)
    assert (rule > 0).any(axis=1).all()

"""Batched numpy backend over the shared rule table.

Every batched consumer — the ext4 scaling study, the sweep engine's
batched-cell mode, the profiling comparison and the benchmark — evaluates
the *same* array expressions against the *same*
:data:`~repro.kernels.rule_table.RULE_TABLE`: the rule-table gather, the
vectorized legitimacy/privilege predicates, the command vector and the
R1–R5 write block.

All functions take states as ``(trials, n)`` int64 arrays: ``X`` holds
the Dijkstra counters, ``H`` the 2-bit handshake codes.

The convergence path has three levels:

* :func:`batched_step` — one daemon selection (synchronous, central or
  Bernoulli) plus :func:`batched_execute`;
* :func:`batched_converge` — steps the illegitimate rows until each first
  satisfies Definition 1 and returns the final states too (publishing
  ``batch`` telemetry when a session is active);
* :func:`run_convergence_cells` — the sweep engine's cell executor: it
  draws one *homogeneous group* of cells (same ``n``, ``K``, daemon,
  budget — only seeds differ) and converges them in lockstep.

Randomness is counter-based (:mod:`repro.kernels.prng`): every draw hashes
``(seed, stream, step, lane)``, which makes each cell's trajectory a pure
function of its own seed.  Running a cell alone or inside any group
produces bit-identical results, the property the resumable sweep store
leans on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.prng import grid_integers, grid_uniforms
from repro.kernels.rule_table import RULE_TABLE
from repro.telemetry.session import current_session

#: The 128-entry guard-resolution table as a numpy LUT.
RULE_LUT = np.frombuffer(RULE_TABLE, dtype=np.uint8)

#: PRNG stream ids (:func:`repro.kernels.prng.grid_uniforms` coordinates).
STREAM_INIT_X = 0
STREAM_INIT_H = 1
STREAM_COINS = 2
STREAM_PICK = 3


def _pred(A: np.ndarray) -> np.ndarray:
    """Each column's ring predecessor (``np.roll(A, 1, axis=1)``)."""
    return np.concatenate((A[:, -1:], A[:, :-1]), axis=1)


def _succ(A: np.ndarray) -> np.ndarray:
    """Each column's ring successor (``np.roll(A, -1, axis=1)``)."""
    return np.concatenate((A[:, 1:], A[:, :1]), axis=1)


def batched_guards(X: np.ndarray, H: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(G, rule)`` arrays; rule in {0 (none), 1..5} after priority.

    One gather through the shared rule table (indexed
    ``(G << 6) | (h_pred << 4) | (h_own << 2) | h_succ``) replaces five
    separate guard masks + a ``np.select`` cascade.
    """
    n = X.shape[1]
    Xp = _pred(X)
    G = X != Xp
    G[:, 0] = X[:, 0] == X[:, n - 1]

    Hp = _pred(H)
    Hs = _succ(H)

    idx = (G.astype(np.int64) << 6) | (Hp << 4) | (H << 2) | Hs
    rule = RULE_LUT[idx].astype(np.int64)
    return G, rule


def batched_commands(X: np.ndarray, K: int) -> np.ndarray:
    """The command vector ``C_i`` per trial, from the *current* ``X``.

    The batched form of :func:`repro.kernels.successor.next_x`: the
    bottom column gets ``X[:, n-1] + 1 mod K``, everyone else a copy of
    the predecessor column (composite atomicity: all from the old state).
    """
    n = X.shape[1]
    C = _pred(X)
    C[:, 0] = (X[:, n - 1] + 1) % K
    return C


def batched_execute(
    X: np.ndarray, H: np.ndarray, fire: np.ndarray, K: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(new_X, new_H)`` after every process with ``fire > 0`` moves.

    ``fire`` holds the rule id each process executes (0 = stays put).
    All writes read the *old* state (composite atomicity), so firing every
    enabled process at once yields each process's solo update too.
    """
    C = batched_commands(X, K)
    new_H = H.copy()
    new_X = X.copy()
    new_H[fire == 1] = 2            # R1: <1.0>
    mask24 = (fire == 2) | (fire == 4)
    new_H[mask24] = 0               # R2/R4: <0.0>, x <- C_i
    new_X[mask24] = C[mask24]
    new_H[fire == 3] = 1            # R3: <0.1>
    new_H[fire == 5] = 0            # R5: <0.0>
    return new_X, new_H


def batched_privileged_counts(X: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Privileged processes per trial (vectorized token predicates).

    Mirrors :meth:`repro.core.ssrmin.SSRmin.privileged`: a process is
    privileged iff it holds the primary token (``G_i``) or the secondary
    token (``tra_i = 1`` or ``rts_i = 1`` with a quiet successor).
    """
    n = X.shape[1]
    Xp = _pred(X)
    G = X != Xp
    G[:, 0] = X[:, 0] == X[:, n - 1]
    Hs = _succ(H)
    rts = H >= 2
    tra = (H % 2) == 1
    secondary = tra | (rts & (Hs == 0))
    return (G | secondary).sum(axis=1)


def unpack_keys(
    keys: np.ndarray, base: int, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(digits, weights)``: the ``(N, n)`` digit columns of packed keys.

    The batched inverse of the scalar kernels' ``pack_key``: a key is
    ``sum(digits[:, i] * weights[i])`` with ``weights[i] = base**(n-1-i)``.
    """
    weights = base ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return (keys.astype(np.int64)[:, None] // weights) % base, weights


def batched_dijkstra_legitimate(
    X: np.ndarray, K: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(ok, pos)``: Dijkstra legitimacy of each x-vector and its token.

    Legitimate x-vectors are a staircase: all equal (token at 0) or a
    single interior boundary ``b`` with ``X[b-1] == X[b] + 1 (mod K)``
    (token at ``b``).  ``pos`` is 0 on illegitimate rows.
    """
    trials, n = X.shape

    interior_diff = X[:, 1:] != X[:, :-1]  # (trials, n-1)
    nb = interior_diff.sum(axis=1)

    # All-equal: token at position 0.
    d0 = nb == 0

    # Single interior boundary at b: X[b-1] == X[b] + 1 (mod K) and the
    # wraparound also steps: X[0] == X[n-1] + 1 (mod K).
    d1 = nb == 1
    boundary = np.where(interior_diff, 1, 0).argmax(axis=1) + 1  # first diff
    rows = np.arange(trials)
    step_ok = X[rows, boundary - 1] == (X[rows, boundary] + 1) % K
    wrap_ok = X[:, 0] == (X[:, n - 1] + 1) % K
    d1 = d1 & step_ok & wrap_ok
    return d0 | d1, np.where(d1, boundary, 0)


def batched_legitimate(X: np.ndarray, H: np.ndarray, K: int) -> np.ndarray:
    """Boolean mask of trials currently in a legitimate configuration.

    The batched form of Definition 1 (same predicate as
    :func:`repro.kernels.packing.ssrmin_words_legitimate`): the x-vector
    is a Dijkstra staircase with token position ``pos`` and the handshake
    vector is one of the three shapes anchored at ``pos``.
    """
    trials, n = X.shape
    dijkstra_ok, pos = batched_dijkstra_legitimate(X, K)

    # Handshake shapes relative to pos.
    rows = np.arange(trials)
    h_pos = H[rows, pos]
    h_succ = H[rows, (pos + 1) % n]
    nonzero = (H != 0).sum(axis=1)
    shape_a = (nonzero == 1) & (h_pos == 1)          # <0.1> at pos
    shape_b = (nonzero == 1) & (h_pos == 2)          # <1.0> at pos
    shape_c = (nonzero == 2) & (h_pos == 2) & (h_succ == 1)
    return dijkstra_ok & (shape_a | shape_b | shape_c)


# -- daemon families ---------------------------------------------------------

#: Daemon-family axis values the convergence runner understands.
DAEMON_FAMILIES = ("synchronous", "central", "bernoulli")


def parse_daemon(spec: str) -> Tuple[str, float]:
    """``"synchronous" | "central" | "bernoulli:<p>"`` -> (kind, p)."""
    if spec == "synchronous":
        return "synchronous", 1.0
    if spec == "central":
        return "central", 0.0
    if spec.startswith("bernoulli:"):
        p = float(spec.split(":", 1)[1])
        if not 0.0 < p <= 1.0:
            raise ValueError(f"bernoulli parameter must be in (0, 1], got {p}")
        return "bernoulli", p
    raise ValueError(
        f"unknown daemon family {spec!r}; expected one of "
        f"'synchronous', 'central', 'bernoulli:<p>'"
    )


def _pick_one_enabled(
    enabled: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """One-hot selection of the ``floor(u * count)``-th enabled process.

    ``enabled`` is (rows, n) boolean with at least one True per row;
    ``u`` is (rows,) uniforms.  The cumulative-sum trick lands on the
    chosen enabled column without python loops.
    """
    counts = enabled.sum(axis=1)
    target = np.minimum((u * counts).astype(np.int64), counts - 1) + 1
    cs = enabled.cumsum(axis=1)
    chosen = (cs == target[:, None]).argmax(axis=1)
    out = np.zeros_like(enabled)
    out[np.arange(enabled.shape[0]), chosen] = True
    return out


def batched_step(
    X: np.ndarray,
    H: np.ndarray,
    K: int,
    seeds: Sequence[int],
    kind: str,
    p: float,
    k: int,
    active: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(new_X, new_H)`` after one daemon step at step counter ``k``.

    Row ``r`` belongs to cell ``seeds[r]``; every daemon draw hashes
    ``(seeds[r], stream, k)``, so a step is a pure function of the state,
    the seeds and ``k``.  ``kind``/``p`` come from :func:`parse_daemon`.
    Rows masked out by ``active`` stay put.
    """
    _, rule = batched_guards(X, H)
    enabled = rule > 0
    if active is not None:
        enabled &= active[:, None]

    if kind == "synchronous":
        selected = enabled
    elif kind == "central":
        any_enabled = enabled.any(axis=1)
        u = grid_uniforms(seeds, STREAM_PICK, k, 1)[:, 0]
        selected = np.zeros_like(enabled)
        if any_enabled.any():
            selected[any_enabled] = _pick_one_enabled(
                enabled[any_enabled], u[any_enabled]
            )
    else:  # bernoulli
        coins = grid_uniforms(seeds, STREAM_COINS, k, X.shape[1]) < p
        selected = enabled & coins
        empty = enabled.any(axis=1) & ~selected.any(axis=1)
        if empty.any():
            u = grid_uniforms(seeds, STREAM_PICK, k, 1)[:, 0]
            selected[empty] = _pick_one_enabled(enabled[empty], u[empty])

    return batched_execute(X, H, np.where(selected, rule, 0), K)


def batched_converge(
    X: np.ndarray,
    H: np.ndarray,
    K: int,
    seeds: Sequence[int],
    kind: str,
    p: float,
    budget: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(steps, X, H)``: step every row until it first satisfies Definition 1.

    Step ``k`` (1-based) runs :func:`batched_step` at counter ``k`` on the
    rows still illegitimate; a row that turns legitimate is frozen there.
    ``steps`` holds the first legitimate step per row (0 for legitimate
    starts, ``-1`` if the budget ran out); ``X``/``H`` are the final states.

    Under an active telemetry session the loop publishes ``batch``
    ``run_start``/``batch_step``/``run_end`` events, counts
    ``batch_steps_total`` and observes each converged row's steps into
    ``convergence_steps{engine="batch"}``; without one it costs a single
    session lookup.
    """
    trials = X.shape[0]
    tel = current_session()
    if tel is not None:
        batch_steps = tel.registry.counter(
            "batch_steps_total", "vectorized lockstep iterations")
        tel.bus.publish(
            "batch", "run_start", 0.0,
            algorithm="SSRmin", n=X.shape[1], K=K,
            daemon={"name": kind, "p": p}, trials=trials, max_steps=budget,
        )

    steps = np.full(trials, -1, dtype=np.int64)
    legit = batched_legitimate(X, H, K)
    steps[legit] = 0
    active = ~legit
    k = 0
    for k in range(1, budget + 1):
        if not active.any():
            k -= 1
            break
        X, H = batched_step(X, H, K, seeds, kind, p, k, active)
        if tel is not None:
            batch_steps.inc()
            tel.bus.publish("batch", "batch_step", float(k),
                            step=k, active=int(active.sum()))
        legit = batched_legitimate(X, H, K)
        steps[active & legit] = k
        active &= ~legit

    if tel is not None:
        hist = tel.registry.histogram(
            "convergence_steps", "steps until first legitimacy")
        for s in steps[steps >= 0]:
            hist.observe(float(s), engine="batch")
        tel.bus.publish("batch", "run_end", float(k), trials=trials,
                        converged=int((steps >= 0).sum()))
    return steps, X, H


def run_convergence_cells(
    n: int,
    seeds: Sequence[int],
    daemon: str = "bernoulli:0.5",
    *,
    K: Optional[int] = None,
    budget: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Advance one homogeneous group of convergence cells in lockstep.

    Each seed is one cell: states initialize from counter-based draws of
    that seed alone, every daemon decision at step ``k`` hashes
    ``(seed, stream, k)`` — so the returned
    ``{"steps", "converged", "budget"}`` rows are invariant under group
    composition (the per-cell execution path calls this with a single
    seed and must agree bitwise).

    ``steps`` is the number of daemon steps until the configuration first
    satisfied Definition 1 (``-1`` with ``converged=False`` if the budget
    — default ``60 n^2 + 600``, the Theorem-2 envelope with slack — runs
    out, which would falsify Lemma 6).
    """
    if n < 3:
        raise ValueError(f"SSRmin requires n >= 3, got {n}")
    K = n + 1 if K is None else K
    if K <= n:
        raise ValueError(f"K must exceed n (got K={K}, n={n})")
    kind, p = parse_daemon(daemon)
    budget = 60 * n * n + 600 if budget is None else int(budget)
    seeds = list(seeds)

    X = grid_integers(seeds, STREAM_INIT_X, 0, n, K)
    H = grid_integers(seeds, STREAM_INIT_H, 0, n, 4)
    steps, _, _ = batched_converge(X, H, K, seeds, kind, p, budget)
    return [
        {"steps": int(s), "converged": bool(s >= 0), "budget": budget}
        for s in steps
    ]


__all__ = [
    "DAEMON_FAMILIES",
    "RULE_LUT",
    "STREAM_COINS",
    "STREAM_INIT_H",
    "STREAM_INIT_X",
    "STREAM_PICK",
    "batched_commands",
    "batched_converge",
    "batched_dijkstra_legitimate",
    "batched_execute",
    "batched_guards",
    "batched_legitimate",
    "batched_privileged_counts",
    "batched_step",
    "parse_daemon",
    "run_convergence_cells",
    "unpack_keys",
]

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
  ``batch`` telemetry when a session is active).  Its loop is incremental
  — guards once per state, a gated legitimacy latch, block-drawn
  counters and, under the central daemon, a windowed one-site update —
  and bit-identical to repeating :func:`batched_step`;
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

from repro.kernels.prng import (
    grid_integers,
    grid_uniforms,
    grid_uniforms_block,
)
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


#: Handshake code each rule writes (index = rule id; 0 = no move).
_H_AFTER = np.array([0, 2, 0, 1, 0, 0], dtype=np.int64)
#: Rules that also write the command into ``x`` (R2, R4).
_X_MOVES = np.array([False, False, True, False, True, False])
#: Column offsets of the central step's window around the moved site.
_WINDOW = np.arange(-2, 3)
#: Upper bound on the uniforms one lockstep draw block holds.
_BLOCK_DRAWS = 1 << 15


def _gate(bounds: np.ndarray) -> np.ndarray:
    """Rows passing Definition 1's cheap necessary condition.

    A legitimate row has 0 or 2 cyclic x-boundaries: all counters equal,
    or one interior step plus the wraparound.
    """
    return (bounds | 2) == 2


def _boundaries(G: np.ndarray) -> np.ndarray:
    """Cyclic x-boundaries per row from the guard mask ``G``.

    ``G[:, i]`` is ``x_i != x_{i-1}`` except at column 0, where it is the
    equality ``x_0 == x_{n-1}``.
    """
    return G.sum(axis=1) + 1 - 2 * G[:, 0]


def _legitimate_rows(bounds: np.ndarray, X: np.ndarray, H: np.ndarray,
                     K: int) -> np.ndarray:
    """Indices of the rows satisfying Definition 1, behind the gate."""
    rows = _gate(bounds).nonzero()[0]
    if rows.size:
        rows = rows[batched_legitimate(X[rows], H[rows], K)]
    return rows


class _Draws:
    """One PRNG stream's per-step uniforms for the working rows.

    Consecutive step counters are hashed in blocks by
    :func:`~repro.kernels.prng.grid_uniforms_block`; a block doubles from
    8 steps up to :data:`_BLOCK_DRAWS` uniforms and never runs past
    ``last``, so short runs draw little and long ones pay one call per
    block.
    """

    def __init__(self, seeds: np.ndarray, stream: int, lanes: int,
                 last: int):
        self.seeds = seeds
        self.stream = stream
        self.lanes = lanes
        self.last = last
        self.k0 = 1
        self.span = 8
        self.block = np.empty((0, len(seeds), lanes))

    def at(self, k: int) -> np.ndarray:
        """``(rows, lanes)`` uniforms of step ``k`` (non-decreasing ``k``)."""
        j = k - self.k0
        if j >= len(self.block):
            cap = max(1, _BLOCK_DRAWS // (len(self.seeds) * self.lanes))
            span = min(self.span, cap, self.last - k + 1)
            self.block = grid_uniforms_block(
                self.seeds.tolist(), self.stream, k, span, self.lanes)
            self.k0, self.span, j = k, self.span * 2, 0
        return self.block[j]

    def keep(self, mask: np.ndarray) -> None:
        self.seeds = self.seeds[mask]
        self.block = self.block[:, mask]


class _ParallelLanes:
    """Synchronous and Bernoulli lockstep: every enabled site may move.

    Holds ``(G, rule)`` of the current state; one guard pass per step
    serves both the legitimacy latch and the next daemon selection.
    """

    def __init__(self, X, H, K, seeds, kind, p, budget):
        self.X, self.H, self.K, self.p = X, H, K, p
        self.G, self.rule = batched_guards(X, H)
        self.draws = None
        if kind == "bernoulli":
            self.draws = (_Draws(seeds, STREAM_COINS, X.shape[1], budget),
                          _Draws(seeds, STREAM_PICK, 1, budget))

    def legitimate(self) -> np.ndarray:
        """Indices of the working rows whose state satisfies Definition 1."""
        return _legitimate_rows(_boundaries(self.G), self.X, self.H, self.K)

    def step(self, k: int) -> None:
        fire = self.rule
        if self.draws is not None:
            coins, picks = self.draws
            fire = np.where(coins.at(k) < self.p, fire, 0)
            empty = np.flatnonzero(~fire.any(axis=1))
            if empty.size:
                rule = self.rule[empty]
                one = _pick_one_enabled(rule > 0, picks.at(k)[empty, 0])
                fire[empty] = np.where(one, rule, 0)
        self.X, self.H = batched_execute(self.X, self.H, fire, self.K)
        self.G, self.rule = batched_guards(self.X, self.H)

    def state(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.X, self.H

    def keep(self, mask: np.ndarray) -> None:
        self.X, self.H = self.X[mask], self.H[mask]
        self.G, self.rule = self.G[mask], self.rule[mask]
        if self.draws is not None:
            for draws in self.draws:
                draws.keep(mask)


def _window_rules() -> np.ndarray:
    """``(2**13, 3)`` rules of columns ``c-1, c, c+1`` by window key.

    The key packs the guards ``G`` of those three columns (bits 12..10,
    ``c-1`` highest) above the handshake codes of columns ``c-2 .. c+2``
    (two bits each, ``c-2`` highest): the rule-table gather of
    :func:`batched_guards`, pre-applied to every window.
    """
    key = np.arange(1 << 13)
    h = [(key >> (8 - 2 * i)) & 3 for i in range(5)]
    g = [(key >> (12 - j)) & 1 for j in range(3)]
    return np.stack([
        RULE_LUT[(g[j] << 6) | (h[j] << 4) | (h[j + 1] << 2) | h[j + 2]]
        for j in range(3)
    ], axis=1)


_WINDOW_RULES = _window_rules()
_WINDOW_ENABLED = _WINDOW_RULES > 0
_G_WEIGHTS = np.array([1 << 12, 1 << 11, 1 << 10])
_H_WEIGHTS = np.array([1 << 8, 1 << 6, 1 << 4, 1 << 2, 1])


class _CentralLanes:
    """Central-daemon lockstep: exactly one site per row moves.

    State, rules and enabled flags live in flat row-major arrays and are
    patched per step: the moved site's rule is applied through flat
    indices, the rules of columns ``c-1 .. c+1`` are re-resolved from the
    5-wide window ``c-2 .. c+2`` around it, and the gate's x-boundary
    count moves by its delta.  Every row keeps an enabled site because no
    configuration is deadlocked (Lemma 4).
    """

    def __init__(self, X, H, K, seeds, budget):
        self.n, self.K = X.shape[1], K
        G, rule = batched_guards(X, H)
        self.bounds = _boundaries(G)
        self.X, self.H, self.rule = X.ravel(), H.ravel(), rule.ravel()
        self.enabled = self.rule > 0
        self.draws = _Draws(seeds, STREAM_PICK, 1, budget)
        self._index(X.shape[0])

    def _index(self, rows: int) -> None:
        """Per-site window indices and column-0 flags for ``rows`` rows."""
        n = self.n
        cols = (np.arange(n)[:, None] + _WINDOW) % n
        base = np.arange(rows)[:, None, None] * n
        self.window = (base + cols).reshape(-1, 5)
        self.first = np.tile(cols[:, 1:4] == 0, (rows, 1))
        self.edges = np.arange(rows + 1) * n

    def legitimate(self) -> np.ndarray:
        """Indices of the working rows whose state satisfies Definition 1."""
        return _legitimate_rows(self.bounds, *self.state(), self.K)

    def step(self, k: int) -> None:
        X, H = self.X, self.H
        # The floor(u * count)-th enabled site of each row, in the order
        # of _pick_one_enabled (u < 1 keeps the index below count).
        sites = self.enabled.nonzero()[0]
        edges = sites.searchsorted(self.edges)
        count = edges[1:] - edges[:-1]
        u = self.draws.at(k)[:, 0]
        f = sites.take(edges[:-1] + (u * count).astype(np.int64))

        # Apply its rule; x counters lie in [0, K), so the command is
        # the predecessor's x plus one at column 0 only.
        r = self.rule.take(f)
        w = self.window.take(f, axis=0)
        first = self.first.take(f, axis=0)
        xw, hw = X.take(w), H.take(w)
        before = xw[:, 1:4] != xw[:, :3]
        x_new = np.where(_X_MOVES.take(r),
                         (xw[:, 1] + first[:, 1]) % self.K, xw[:, 2])
        h_new = _H_AFTER.take(r)
        X.put(f, x_new)
        H.put(f, h_new)
        xw[:, 2] = x_new
        hw[:, 2] = h_new

        # Re-resolve columns c-1 .. c+1 and count the x-boundary change.
        after = xw[:, 1:4] != xw[:, :3]
        self.bounds += (after.view(np.int8)
                        - before.view(np.int8)).sum(axis=1)
        key = ((after ^ first).view(np.int8).dot(_G_WEIGHTS)
               + hw.dot(_H_WEIGHTS))
        mid = w[:, 1:4]
        self.rule.put(mid, _WINDOW_RULES.take(key, axis=0))
        self.enabled.put(mid, _WINDOW_ENABLED.take(key, axis=0))

    def state(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.X.reshape(-1, self.n), self.H.reshape(-1, self.n)

    def keep(self, mask: np.ndarray) -> None:
        n = self.n
        self.X = self.X.reshape(-1, n)[mask].ravel()
        self.H = self.H.reshape(-1, n)[mask].ravel()
        self.rule = self.rule.reshape(-1, n)[mask].ravel()
        self.enabled = self.enabled.reshape(-1, n)[mask].ravel()
        self.bounds = self.bounds[mask]
        self.draws.keep(mask)
        self._index(len(self.bounds))


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

    Step ``k`` (1-based) is :func:`batched_step` at counter ``k`` on the
    rows still illegitimate; a row that turns legitimate is frozen there.
    ``steps`` holds the first legitimate step per row (0 for legitimate
    starts, ``-1`` if the budget ran out); ``X``/``H`` are the final states.

    The loop is incremental but bit-identical to that definition.  It
    steps only the rows still running, computes the guards once per state
    (they feed both the legitimacy latch and the next selection), runs the
    full Definition-1 test only on rows passing a counter gate, draws the
    daemon's uniforms in blocks of consecutive step counters, and under
    the central daemon patches the one moved site's neighbourhood instead
    of re-resolving the ring.

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

    X = np.array(X, dtype=np.int64)
    H = np.array(H, dtype=np.int64)
    seeds = np.asarray(list(seeds), dtype=np.int64)
    if kind == "central":
        lanes = _CentralLanes(X.copy(), H.copy(), K, seeds, budget)
    else:
        lanes = _ParallelLanes(X.copy(), H.copy(), K, seeds, kind, p,
                               budget)
    steps = np.full(trials, -1, dtype=np.int64)
    rows = np.arange(trials)        # original row of each working row
    k = 0
    while True:
        done = lanes.legitimate()
        if done.size:
            retired = rows[done]
            steps[retired] = k
            Xw, Hw = lanes.state()
            X[retired], H[retired] = Xw[done], Hw[done]
            keep = np.ones(rows.size, dtype=bool)
            keep[done] = False
            rows = rows[keep]
            lanes.keep(keep)
        if not rows.size or k == budget:
            break
        k += 1
        lanes.step(k)
        if tel is not None:
            batch_steps.inc()
            tel.bus.publish("batch", "batch_step", float(k),
                            step=k, active=int(rows.size))
    X[rows], H[rows] = lanes.state()

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

"""Differential suite for the packed message-passing fastpath.

Four layers of evidence that :class:`FastCSTNetwork` is the reference DES:

* **codec vs rule set** — exhaustive agreement of the packed local-view
  semantics (guard resolution, command execution, the own-view token
  predicate) with the reference ``RuleSet`` over *every* packable local
  view, for both shipped algorithms;
* **full-run lockstep** — seeded end-to-end runs under loss, random
  delays, duplication, slicing, transient corruption and link outages
  produce bit-identical observables (token timeline, states, caches,
  message statistics, event counts, final RNG state) on both engines;
* **golden traces** — the frozen fig13 corpus replays record-for-record
  with the fastpath forced on and forced off;
* **escape hatches** — the ``use_fastpath`` kwarg, the scoped override and
  the environment default compose with the documented precedence, and
  out-of-scope setups (custom token predicates, codec-less algorithms,
  tiny bidirectional rings, unpackable states) silently keep the
  reference engine.
"""

import json
import os
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.dijkstra import DijkstraKState
from repro.core.ssrmin import SSRmin
from repro.messagepassing.cst import (
    coherent_caches,
    legitimate_initial_states,
    transformed,
    transformed_from_chaos,
)
from repro.messagepassing.fastpath import (
    mp_fastpath_enabled,
    mp_fastpath_override,
    resolve_mp_codec,
)
from repro.messagepassing.fastpath.codecs import DijkstraMPCodec, SSRminMPCodec
from repro.messagepassing.fastpath.network import FastCSTNetwork
from repro.messagepassing.links import ExponentialDelay, UniformDelay
from repro.messagepassing.network import MessagePassingNetwork, build_cst_network


def fingerprint(net):
    """Everything two equivalent runs must agree on."""
    return {
        "timeline": tuple(net.timeline.points),
        "states": tuple(net.true_configuration()),
        "caches": tuple(
            tuple(sorted(node.cache.items())) for node in net.nodes
        ),
        "stats": net.message_stats(),
        "executed": net.queue.executed,
        "now": net.queue.now,
        "rng": net.rng.getstate(),
        "counters": tuple(
            (node.rules_executed, node.messages_received, node.timer_fires)
            for node in net.nodes
        ),
    }


def assert_lockstep(fast, ref):
    assert isinstance(fast, FastCSTNetwork)
    assert not isinstance(ref, FastCSTNetwork)
    fp_fast, fp_ref = fingerprint(fast), fingerprint(ref)
    for key in fp_ref:
        assert fp_fast[key] == fp_ref[key], f"diverged on {key}"


# ---------------------------------------------------------------------------
# codec vs reference rule set, exhaustively
# ---------------------------------------------------------------------------

def _exhaustive_codec_check(alg, codec, bidirectional):
    n = alg.n
    domain = range(codec.K << 2) if bidirectional else range(codec.K)
    succ_domain = domain
    for i in range(n):
        pred, succ = (i - 1) % n, (i + 1) % n
        for own in domain:
            for cpred in domain:
                for csucc in succ_domain:
                    view = [None] * n
                    view[i] = codec.unpack(own)
                    view[pred] = codec.unpack(cpred)
                    view[succ] = codec.unpack(csucc)
                    rid = codec.rule_id(own, cpred, csucc, i)
                    rule = alg.enabled_rule(view, i)
                    if rid:
                        assert rule is not None, (i, view)
                        assert codec.rule_names[rid] == rule.name, (i, view)
                        assert (
                            codec.unpack(codec.execute(rid, own, cpred, csucc, i))
                            == rule.execute(view, i)
                        ), (i, view)
                    else:
                        assert rule is None, (i, view)
                    assert (
                        codec.holds_token(own, cpred, csucc, i)
                        == alg.node_holds_token(view, i)
                    ), (i, view)


def test_ssrmin_codec_matches_rules_exhaustively():
    """All (own, cpred, csucc, i) packed local views at n=3, K=4."""
    alg = SSRmin(3, 4)
    _exhaustive_codec_check(alg, SSRminMPCodec(alg), bidirectional=True)


def test_dijkstra_codec_matches_rules_exhaustively():
    alg = DijkstraKState(3, 4)
    _exhaustive_codec_check(alg, DijkstraMPCodec(alg), bidirectional=False)


def test_codec_try_pack_rejects_out_of_domain():
    codec = SSRminMPCodec(SSRmin(5, 6))
    assert codec.try_pack((0, 0, 0)) == 0
    for bad in ((6, 0, 0), (-1, 1, 0), (0, 2, 0), "junk", None, (0, 0)):
        assert codec.try_pack(bad) is None
    dcodec = DijkstraMPCodec(DijkstraKState(5, 6))
    assert dcodec.try_pack(3) == 3
    for bad in (6, -1, "x", None, 2.5):
        assert dcodec.try_pack(bad) is None


@given(st.integers(0, 5), st.integers(0, 1), st.integers(0, 1))
def test_ssrmin_pack_roundtrip(x, rts, tra):
    codec = SSRminMPCodec(SSRmin(5, 6))
    state = (x, rts, tra)
    assert codec.unpack(codec.pack(state)) == state
    assert codec.try_pack(state) == codec.pack(state)


@given(st.integers(0, 7))
def test_dijkstra_pack_roundtrip(x):
    codec = DijkstraMPCodec(DijkstraKState(7, 8))
    assert codec.unpack(codec.pack(x)) == x


# ---------------------------------------------------------------------------
# full-run lockstep: fast engine vs reference, same seeds
# ---------------------------------------------------------------------------

def _both(builder, **kwargs):
    fast = builder(use_fastpath=True, **kwargs)
    ref = builder(use_fastpath=False, **kwargs)
    return fast, ref


@pytest.mark.parametrize("loss", [0.0, 0.3])
def test_lockstep_ssrmin_chaos_with_loss(loss):
    fast, ref = _both(
        transformed_from_chaos, algorithm=SSRmin(6, 7), seed=11,
        loss_probability=loss,
    )
    for net in (fast, ref):
        net.run(120.0)
    assert_lockstep(fast, ref)


def test_lockstep_ssrmin_legitimate_uniform_delay_sliced():
    fast, ref = _both(
        transformed, algorithm=SSRmin(5, 6), seed=3,
        delay_model=UniformDelay(0.5, 1.5),
    )
    for _ in range(7):
        for net in (fast, ref):
            net.run(13.0)
        assert_lockstep(fast, ref)


def test_lockstep_dijkstra_exponential_delay():
    fast, ref = _both(
        transformed_from_chaos, algorithm=DijkstraKState(6, 7), seed=5,
        delay_model=ExponentialDelay(0.2, 1.0), loss_probability=0.1,
    )
    for net in (fast, ref):
        net.run(150.0)
    assert_lockstep(fast, ref)


def test_lockstep_under_duplication():
    alg = SSRmin(5, 6)
    states = legitimate_initial_states(alg)

    def builder(use_fastpath):
        return build_cst_network(
            alg, states, initial_caches=coherent_caches(states, alg.n),
            duplicate_probability=0.2, loss_probability=0.1, seed=17,
            use_fastpath=use_fastpath,
        )

    fast, ref = _both(builder)
    for net in (fast, ref):
        net.run(150.0)
    assert_lockstep(fast, ref)
    assert fast.message_stats()["duplicated"] > 0


def test_lockstep_through_corruption_and_outage():
    fast, ref = _both(transformed, algorithm=SSRmin(5, 6), seed=9)
    for net in (fast, ref):
        net.run(30.0)
        net.corrupt_node(2, (3, 1, 1))
        net.corrupt_cache(1, 2, (0, 0, 1))
        net.fail_link(0, 1, 15.0)
        net.run(60.0)
    assert_lockstep(fast, ref)


def test_lockstep_token_observables_mid_run():
    fast, ref = _both(transformed_from_chaos, algorithm=SSRmin(5, 6), seed=23)
    for _ in range(10):
        for net in (fast, ref):
            net.run(7.0)
        assert fast.token_holders() == ref.token_holders()
        assert fast.true_token_holders() == ref.true_token_holders()


# ---------------------------------------------------------------------------
# golden traces replay under both engines
# ---------------------------------------------------------------------------

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


@pytest.mark.parametrize("enabled", [True, False])
def test_fig13_golden_replays_under_both_engines(enabled):
    from repro.experiments.golden import FIG13_FILE, fig13_timeline_records, read_jsonl

    frozen = read_jsonl(os.path.join(CORPUS, FIG13_FILE))
    with mp_fastpath_override(enabled):
        fresh = [json.loads(json.dumps(r, sort_keys=True))
                 for r in fig13_timeline_records()]
    assert fresh == frozen


# ---------------------------------------------------------------------------
# escape hatches and dispatch boundaries
# ---------------------------------------------------------------------------

def test_explicit_kwarg_beats_override():
    with mp_fastpath_override(False):
        assert mp_fastpath_enabled(True) is True
        net = transformed(SSRmin(4, 5), use_fastpath=True)
        assert isinstance(net, FastCSTNetwork)
    with mp_fastpath_override(True):
        assert mp_fastpath_enabled(False) is False
        net = transformed(SSRmin(4, 5), use_fastpath=False)
        assert not isinstance(net, FastCSTNetwork)


def test_override_beats_env_default():
    with mp_fastpath_override(False):
        assert mp_fastpath_enabled() is False
        assert resolve_mp_codec(SSRmin(4, 5)) is None
        assert not isinstance(transformed(SSRmin(4, 5)), FastCSTNetwork)
    # default environment in the test suite leaves the fastpath on
    assert isinstance(transformed(SSRmin(4, 5)), FastCSTNetwork)


def test_override_nests_and_restores():
    assert mp_fastpath_enabled() is True
    with mp_fastpath_override(False):
        with mp_fastpath_override(True):
            assert mp_fastpath_enabled() is True
        assert mp_fastpath_enabled() is False
    assert mp_fastpath_enabled() is True


def test_codecless_algorithm_keeps_reference_engine():
    from repro.algorithms.base import RingAlgorithm

    class Plain(DijkstraKState):
        def mp_codec(self):
            return RingAlgorithm.mp_codec(self)

    net = transformed(Plain(4, 5))
    assert not isinstance(net, FastCSTNetwork)


def test_custom_token_predicate_keeps_reference_engine():
    alg = SSRmin(4, 5)
    states = legitimate_initial_states(alg)
    net = build_cst_network(
        alg, states, token_predicate=lambda node: node.state[2] == 1,
    )
    assert not isinstance(net, FastCSTNetwork)


def test_unpackable_initial_state_falls_back():
    alg = SSRmin(4, 5)
    states = legitimate_initial_states(alg)
    states[1] = (99, 0, 0)  # outside the K-domain: reference handles it
    net = build_cst_network(alg, states, use_fastpath=True)
    assert not isinstance(net, FastCSTNetwork)


# ---------------------------------------------------------------------------
# projection: packed guard resolution equals the reference path
# ---------------------------------------------------------------------------

def test_projection_codec_agrees_with_reference_path():
    from repro.messagepassing.projection import SynchronousCSTProjection

    alg = SSRmin(5, 6)
    rng = random.Random(31)
    for _ in range(25):
        states = list(alg.random_configuration(rng))
        packed = SynchronousCSTProjection(alg, states)
        plain = SynchronousCSTProjection(alg, states)
        plain._codec = None
        # random channel-phase perturbations on both shadows
        for _ in range(3):
            op = rng.randrange(3)
            src = rng.randrange(alg.n)
            dst = (src + rng.choice((-1, 1))) % alg.n
            for proj in (packed, plain):
                if op == 0:
                    proj.deliver_stale(src, dst)
                elif op == 1:
                    proj.deliver_current(src, dst, copies=2)
                else:
                    proj.corrupt_cache(dst, src, states[(src + 1) % alg.n])
        assert packed.enabled() == plain.enabled()
        assert packed.own_view_holders() == plain.own_view_holders()
        for i in range(alg.n):
            assert packed.rule_name(i) == plain.rule_name(i)
        if packed.enabled():
            pick = [packed.enabled()[0]]
            packed.apply(pick)
            plain.apply(pick)
            assert packed.states() == plain.states()


# ---------------------------------------------------------------------------
# Loss sweeps through the sweep engine's DES cell worker
# ---------------------------------------------------------------------------

def _des_payloads(losses, seeds, gap_duration):
    """``_des_cell_worker`` payloads for an n=4 SSRmin (loss × seed) grid."""
    return [
        ("ssrmin", 4, loss, 1.0, 0.0, seed, 5.0, 20_000.0, gap_duration)
        for loss in losses
        for seed in seeds
    ]


def test_sweep_rejects_unknown_algorithm():
    from repro.sweeps.engine import _des_cell_worker

    with pytest.raises(ValueError, match="unknown algorithm"):
        _des_cell_worker(("nope",) + _des_payloads((0.0,), (0,), 10.0)[0][1:])


def test_sweep_grid_order_and_engine_independence():
    from repro.experiments.parallel import run_tasks_parallel
    from repro.sweeps.engine import _des_cell_worker

    payloads = _des_payloads((0.0, 0.2), range(2), 20.0)
    with mp_fastpath_override(True):
        fast = run_tasks_parallel(_des_cell_worker, payloads, workers=1)
    with mp_fastpath_override(False):
        ref = run_tasks_parallel(_des_cell_worker, payloads, workers=1)
    assert fast == ref
    # Pool workers complete in any order; cells still come back in grid
    # order, one per payload.
    assert run_tasks_parallel(_des_cell_worker, payloads, workers=2) == fast


def test_sweep_streams_cells_into_telemetry_session():
    from repro.experiments.runners_theorems import run_thm4
    from repro.telemetry import telemetry_session

    seen = []
    with telemetry_session() as session:
        session.subscribe(lambda ev: seen.append(ev))
        result = run_thm4(fast=True)
    assert result.match
    sweep_events = [ev for ev in seen if ev.kind == "sweep_cell"]
    assert len(sweep_events) == 9
    assert {ev.payload["seed"] for ev in sweep_events} == {100, 101, 102}
    assert {ev.payload["loss"] for ev in sweep_events} == {0.0, 0.1, 0.3}
    assert set(sweep_events[0].payload) == {
        "algorithm", "n", "loss", "seed", "stabilized_at", "min_tokens",
        "max_tokens", "zero_time", "events", "wall_seconds",
    }

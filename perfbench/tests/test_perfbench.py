"""Tests of the benchmark itself: inputs, digests, wrappers, self time.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

from perfbench.layers import LayerTrace
from perfbench.spans import Tracer, self_times, tail_percentile, union_length
from perfbench.workloads import WORKLOADS, digest_of, make_inputs, make_workload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def small_inputs(workload: str, seed: int) -> dict:
    """The workload's generated inputs cut down to a few seconds of work."""
    inputs = make_inputs(workload, seed)
    if workload == "scalar":
        inputs["trials"] = [inputs["trials"][0], inputs["trials"][-1]]
        inputs["check"] = {"n": 3, "K": 4}
    else:
        spec = inputs["spec"]
        spec["seeds"] = spec["seeds"][:2]
        spec["n_values"] = spec["n_values"][:1]
        if workload == "sweep-conv":
            spec["n_values"] = [16]
    return inputs


def run_one(workload: str, tmp_path, trace=None):
    wl = make_workload(workload, small_inputs(workload, 3))
    wl.setup(str(tmp_path))
    workdir = os.path.join(str(tmp_path), "traced" if trace else "plain")
    os.makedirs(workdir)
    return wl.run_pass(workdir, trace)


def test_inputs_are_fixed_for_a_seed():
    for workload in WORKLOADS:
        assert make_inputs(workload, 5) == make_inputs(workload, 5)
        assert make_inputs(workload, 5) != make_inputs(workload, 6)
    assert digest_of(make_inputs("scalar", 5)) == (
        "ea8633de7690806f4d226b497b2402af0ba80913e0f57c49949299f7dccade85")
    assert digest_of(make_inputs("sweep-des", 5)) == (
        "32fefca2f83e5d811d509942821ba1344d754493106f4fbcad825ccdd8dc6f6e")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_is_fixed_and_shared_by_the_traced_pass(workload, tmp_path):
    plain = run_one(workload, tmp_path / "a")
    again = run_one(workload, tmp_path / "b")
    with LayerTrace() as trace:
        traced = run_one(workload, tmp_path / "c", trace)
    assert plain.failures == [] and traced.failures == []
    assert plain.digest == again.digest == traced.digest
    assert trace.tracer.spans, "the traced pass recorded no spans"


def _targets():
    from repro.experiments import parallel
    from repro.kernels import batched
    from repro.messagepassing import cst, modelgap
    from repro.messagepassing.coherence import CoherenceTracker
    from repro.messagepassing.fastpath.network import FastCSTNetwork
    from repro.simulation import convergence
    from repro.sweeps import engine
    from repro.sweeps.store import SweepStore
    from repro.verification import model_checker
    from repro.verification.transition_system import TransitionSystem

    return [
        (convergence, "converge"), (TransitionSystem, "__init__"),
        (TransitionSystem, "successor_keys"),
        (model_checker, "check_self_stabilization"),
        (batched, "run_convergence_cells"), (engine, "run_sweep"),
        (engine, "resume_sweep"), (engine, "_des_cell_worker"),
        (SweepStore, "create"), (SweepStore, "attach"),
        (SweepStore, "completed"), (SweepStore, "record"),
        (SweepStore, "finish"), (parallel, "run_tasks_parallel"),
        (cst, "transformed_from_chaos"), (modelgap, "evaluate_gap"),
        (CoherenceTracker, "run_until_stabilized"), (FastCSTNetwork, "run"),
    ]


def test_wrappers_are_gone_after_the_traced_run(tmp_path):
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr in _targets()]
    with LayerTrace() as trace:
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original, (owner, attr)
        run_one("scalar", tmp_path / "s", trace)
        run_one("sweep-des", tmp_path / "d", trace)
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, (owner, attr)

    from repro.daemons.central import RandomCentralDaemon

    daemon = RandomCentralDaemon(1)
    trace = LayerTrace()
    trace.wrap_daemon(daemon)
    assert "select" in daemon.__dict__
    trace.unwrap_daemon(daemon)
    assert "select" not in daemon.__dict__


def test_des_worker_spans_are_merged_into_the_parent(tmp_path):
    with LayerTrace() as trace:
        run_one("sweep-des", tmp_path, trace)
    workers = [s for s in trace.tracer.spans if s["name"] == "worker"]
    assert len(workers) == 8  # 1 n x 2 loss x 2 duplication x 2 seeds
    assert all(not s["id"].startswith(f"{os.getpid()}:") for s in workers)
    parents = {s["id"]: s for s in trace.tracer.spans}
    assert {parents[s["parent"]]["name"] for s in workers} == {"run_tasks"}
    assert trace.tracer.hot_stats["messagepassing.run"][0] > 0


def _span(sid, parent, start, end, hot=0.0):
    return {"id": sid, "parent": parent, "layer": "l", "name": sid,
            "start": start, "end": end, "hot_s": hot}


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span("p", None, 0.0, 10.0, hot=0.5),
        _span("a", "p", 1.0, 4.0),
        _span("b", "p", 3.0, 6.0),      # overlaps a (another worker)
        _span("c", "p", 9.0, 12.0),     # clipped to the parent's end
        _span("d", "a", 2.0, 3.0),
    ]
    selfs = self_times(spans)
    assert selfs["p"] == pytest.approx(10.0 - (5.0 + 1.0) - 0.5)
    assert selfs["a"] == pytest.approx(2.0)
    assert selfs["d"] == pytest.approx(1.0)
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_recorded_nesting_yields_self_time():
    tracer = Tracer()
    inner = tracer.timed(lambda: sum(range(20000)), "inner", "f")
    outer = tracer.timed(lambda: [inner() for _ in range(3)], "outer", "g")
    outer()
    g = next(s for s in tracer.spans if s["name"] == "g")
    children = sum(s["end"] - s["start"] for s in tracer.spans
                   if s["parent"] == g["id"])
    assert self_times(tracer.spans)[g["id"]] == pytest.approx(
        g["end"] - g["start"] - children)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(1, 101))) == (90.0, 90)
    assert tail_percentile(list(range(1, 20))) == (100.0, 19)
    assert tail_percentile([]) == (0.0, 0.0)


def _bench(args, root, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py")] + args,
        cwd=root, capture_output=True, text=True, timeout=120, env=env)


def test_refuses_to_run_the_reference_engines():
    for var in ("REPRO_FASTPATH", "REPRO_FASTPATH_MP"):
        env = dict(os.environ, **{var: "0"})
        out = _bench(["--workload", "sweep-conv", "--seed", "1",
                      "--seconds", "1"], ROOT, env)
        assert out.returncode == 2
        assert var in out.stderr
        assert out.stdout == ""


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(str(tmp_path), "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    out = _bench(["--workload", "scalar", "--seed", "1", "--seconds", "1"],
                 str(tmp_path))
    assert out.returncode != 0
    assert out.stdout == ""

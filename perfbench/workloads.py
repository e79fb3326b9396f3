"""The three workloads: seeded inputs, one timed pass each, output checks.

``make_inputs(workload, seed)`` is the generator: it turns ``--seed``
into plain JSON data (initial configurations, daemon seeds, sweep grids)
and is the only place randomness enters; the program under test receives
nothing but that data.  A workload object does its set-up once
(:meth:`setup`, timed as ``setup_s``) and then runs identical passes, each
a fresh, complete job whose outputs are checked and digested.

Why these workloads (each exercises one mechanism and bypasses others):

* ``scalar`` -- SSRmin ``converge`` at n=256 under the random central and
  random subset daemons (the incremental scalar step loop), then the
  exhaustive n=4, K=5 model check under the distributed daemon (the same
  kernel walked by key arithmetic).  Kernels, sweeps and message passing
  stay idle.
* ``sweep-conv`` -- a batched convergence grid on large rings; the
  vectorized kernel dominates, the store is a small share.
* ``sweep-des`` -- a DES grid over n, loss, duplication and seed fanned
  out over two worker processes; bypasses the kernels and the scalar loop.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

WORKLOADS = ("scalar", "sweep-conv", "sweep-des")

#: Exact model-checker figures for SSRmin under the distributed daemon:
#: ``(n, K) -> (states, legitimate states, worst-case steps)``.
EXPECTED_CHECK = {(4, 5): (160_000, 60, 43), (3, 4): (4_096, 36, 16)}

#: Daemon families of the convergence sweeps.
SWEEP_DAEMONS = ["synchronous", "central", "bernoulli:0.5"]


def _rng(workload: str, seed: int) -> random.Random:
    digest = hashlib.sha256(f"perfbench/{workload}/{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _grid_seeds(rng: random.Random, count: int) -> List[int]:
    return sorted(rng.sample(range(1, 2 ** 31), count))


def make_inputs(workload: str, seed: int) -> Dict[str, Any]:
    """The generated inputs of ``workload`` for ``seed`` (plain JSON)."""
    rng = _rng(workload, seed)
    if workload == "scalar":
        n = 256
        k = n + 1
        trials = []
        for daemon in ["central"] * 12 + ["subset"] * 12:
            trials.append({
                "daemon": daemon,
                "seed": rng.getrandbits(32),
                "initial": [[rng.randrange(k), rng.randrange(2),
                             rng.randrange(2)] for _ in range(n)],
            })
        return {"n": n, "trials": trials, "check": {"n": 4, "K": 5}}
    if workload == "sweep-conv":
        return {"workers": 1, "spec": {
            "name": "conv", "kind": "convergence", "n_values": [64, 256],
            "daemons": SWEEP_DAEMONS, "seeds": _grid_seeds(rng, 12)}}
    if workload == "sweep-des":
        return {"workers": 2, "spec": {
            "name": "des", "kind": "des", "algorithm": "ssrmin",
            "n_values": [16, 32], "loss_rates": [0.0, 0.2],
            "duplication_rates": [0.0, 0.1], "seeds": _grid_seeds(rng, 6)}}
    raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")


def digest_of(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class PassResult:
    """One pass: timings, work done, checks and the output digest."""

    wall_s: float
    units: int
    #: Engine steps: daemon steps, or DES events on ``sweep-des``.
    steps: int
    #: The time the steps took (the convergence phase on ``scalar``).
    steps_s: float
    digest: str
    failed_units: int = 0
    failures: List[str] = field(default_factory=list)
    #: Exact per-pass figures for the layer report.
    extra: Dict[str, float] = field(default_factory=dict)


class Scalar:
    """``converge`` trials at n=256, then the exhaustive n=4, K=5 check."""

    workers = 1

    def __init__(self, inputs: Dict[str, Any]):
        self.inputs = inputs

    def setup(self, tmp: str) -> None:
        from repro.core.ssrmin import SSRmin
        from repro.daemons.central import RandomCentralDaemon
        from repro.daemons.distributed import RandomSubsetDaemon
        from repro.simulation import convergence  # noqa: F401
        from repro.verification import model_checker, transition_system  # noqa: F401

        n = self.inputs["n"]
        self.algorithm = SSRmin(n, n + 1)
        self.daemons = {"central": RandomCentralDaemon,
                        "subset": RandomSubsetDaemon}
        self.initials = [tuple(map(tuple, t["initial"]))
                         for t in self.inputs["trials"]]
        check = self.inputs["check"]
        self.check_algorithm = SSRmin(check["n"], check["K"])
        # Each pass builds its own TransitionSystem: it memoizes successors,
        # so a shared one would make every pass after the first a cache walk.
        transition_system.TransitionSystem(self.check_algorithm, "distributed")

    def run_pass(self, workdir: str, trace=None) -> PassResult:
        from repro.core.legitimacy import is_legitimate
        from repro.simulation import convergence
        from repro.verification import model_checker, transition_system

        alg = self.algorithm
        results = []
        t0 = time.perf_counter()
        for trial, initial in zip(self.inputs["trials"], self.initials):
            # A fresh daemon per trial: converge does not reset SSRmin's
            # daemon, so reuse would carry RNG state across passes.
            daemon = self.daemons[trial["daemon"]](trial["seed"])
            if trace is not None:
                trace.wrap_daemon(daemon)
            results.append(convergence.converge(alg, daemon, initial))
            if trace is not None:
                trace.unwrap_daemon(daemon)
        t1 = time.perf_counter()
        ts = transition_system.TransitionSystem(
            self.check_algorithm, "distributed")
        report = model_checker.check_self_stabilization(ts)
        t2 = time.perf_counter()

        failures = []
        for index, res in enumerate(results):
            if not res.converged or not is_legitimate(res.final_config, alg.K):
                failures.append(f"trial {index}: final configuration "
                                f"not legitimate after {res.steps} steps")
        check = self.inputs["check"]
        expected = EXPECTED_CHECK[(check["n"], check["K"])]
        found = (report.state_count, report.legitimate_count,
                 report.worst_case_steps)
        if not report.self_stabilizing or found != expected:
            failures.append(f"model check: self_stabilizing="
                            f"{report.self_stabilizing} {found} != {expected}")
        outputs = {
            "trials": [[r.steps, r.converged, r.dijkstra_steps,
                        [list(q) for q in r.final_config]] for r in results],
            "check": [report.state_count, report.legitimate_count,
                      report.worst_case_steps, len(report.deadlocks),
                      len(report.closure_violations),
                      report.illegitimate_cycle is None],
        }
        return PassResult(
            wall_s=t2 - t0,
            units=len(results) + 1,
            steps=sum(r.steps for r in results),
            steps_s=t1 - t0,
            digest=digest_of(outputs),
            failed_units=len(failures),
            failures=failures,
            extra={
                "verification.states": report.state_count,
                "verification.legitimate_states": report.legitimate_count,
                "verification.worst_case_steps": report.worst_case_steps or 0,
            },
        )


class Sweep:
    """One sweep through ``run_sweep`` then ``resume_sweep``, hermetic:
    every pass gets its own temporary ``base_dir`` and store path."""

    def __init__(self, inputs: Dict[str, Any]):
        self.inputs = inputs
        self.workers = inputs["workers"]

    def setup(self, tmp: str) -> None:
        from repro.observability.store import RunStore
        from repro.sweeps import engine  # noqa: F401
        from repro.sweeps.spec import SweepSpec

        if self.inputs["spec"]["kind"] == "des":
            # The per-cell path's imports (the process fan-out pulls in the
            # experiment registry); forked cell workers inherit them.
            from repro.experiments import parallel  # noqa: F401
            from repro.messagepassing import coherence, cst, links, modelgap  # noqa: F401

        self.spec = SweepSpec(**self.inputs["spec"])
        self.cells = self.spec.total_cells()
        # Opening a run store creates its schema: the first-use cost a
        # sweep user pays once.
        RunStore(os.path.join(tmp, "setup-store.sqlite")).close()

    def run_pass(self, workdir: str, trace=None) -> PassResult:
        from repro.sweeps import engine
        from repro.sweeps.store import sweep_dir

        spec = self.spec
        store_path = os.path.join(workdir, "store.sqlite")
        if trace is not None:
            trace.worker_dir = workdir
        t0 = time.perf_counter()
        summary = engine.run_sweep(spec, base_dir=workdir,
                                   run_store=store_path, workers=self.workers)
        resumed = engine.resume_sweep(spec.name, base_dir=workdir,
                                      run_store=store_path,
                                      workers=self.workers)
        wall = time.perf_counter() - t0
        if trace is not None:
            trace.tracer.merge_dir(workdir)

        cells_path = os.path.join(sweep_dir(workdir, spec.name), "cells.jsonl")
        records: Dict[int, Dict[str, Any]] = {}
        with open(cells_path) as fh:
            for line in fh:
                record = json.loads(line)
                records[record["index"]] = record
        checkpoint_bytes = os.path.getsize(cells_path)
        shutil.rmtree(workdir)

        failures = []
        failed = 0
        for cell in spec.cells():
            record = records.get(cell.index)
            problem = (f"cell {cell.key}: no checkpoint" if record is None
                       else self._check_cell(cell.key, record["result"]))
            if problem:
                failed += 1
                failures.append(problem)
        if summary["ran"] != self.cells:
            failures.append(f"run_sweep ran {summary['ran']} of {self.cells}")
        if resumed["ran"] != 0:
            failed += resumed["ran"]
            failures.append(f"resume ran {resumed['ran']} cells, expected 0")
        outputs = [[i, records[i]["key"], records[i]["result"]]
                   for i in sorted(records)]
        work_key = "events" if spec.kind == "des" else "steps"
        steps = sum(int(r["result"].get(work_key, 0)) for r in records.values())
        return PassResult(
            wall_s=wall,
            units=self.cells,
            steps=steps,
            steps_s=wall,
            digest=digest_of(outputs),
            failed_units=min(failed, self.cells),
            failures=failures,
            extra={"sweeps.checkpoint_bytes": checkpoint_bytes},
        )

    def _check_cell(self, key: str, result: Dict[str, Any]) -> Optional[str]:
        if self.spec.kind == "des":
            if result.get("stabilized_at") is None:
                return f"cell {key}: did not stabilize"
            if not (result["min_tokens"] >= 1 and result["max_tokens"] <= 2):
                return (f"cell {key}: tokens in [{result['min_tokens']}, "
                        f"{result['max_tokens']}], outside (1, 2)")
            return None
        steps = result.get("steps", -1)
        if not result.get("converged") or not 0 <= steps <= result["budget"]:
            return f"cell {key}: not converged within budget ({steps})"
        return None


def make_workload(workload: str, inputs: Dict[str, Any]):
    return Scalar(inputs) if workload == "scalar" else Sweep(inputs)

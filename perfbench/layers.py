"""The layer trace: span wrappers around the repository's layer boundaries.

Everything here lives in the benchmark.  :class:`LayerTrace` replaces the
public entry points of each layer with recording wrappers for the length
of a traced pass and puts the originals back afterwards; ``src/`` is not
edited.  The layers and their boundaries:

==============  ==========================================================
layer           wrapped calls
==============  ==========================================================
simulation      ``simulation.convergence.converge``
daemons         ``select`` of each daemon instance the benchmark creates
verification    ``TransitionSystem.__init__`` / ``.successor_keys``,
                ``model_checker.check_self_stabilization``
kernels         ``kernels.batched.run_convergence_cells``
sweeps          ``sweeps.engine.run_sweep`` / ``resume_sweep``, and
                ``SweepStore.create/attach/completed/record/finish`` (the
                checkpoint JSONL plus the observability ``RunStore``)
messagepassing  ``cst.transformed_from_chaos`` (build),
                ``CoherenceTracker.run_until_stabilized``,
                ``modelgap.evaluate_gap``, ``FastCSTNetwork.run``
parallel        ``experiments.parallel.run_tasks_parallel`` and the DES
                cell worker it fans out
==============  ==========================================================

Sweep DES cells run in forked pool workers.  The worker inherits the
installed wrappers; :func:`traced_des_cell` (put in place of the sweep
engine's DES worker, and picklable by reference) records the cell's spans
in the child and appends them to a file in :attr:`LayerTrace.worker_dir`,
which the parent merges after the sweep returns.
"""

from __future__ import annotations

import os
import statistics
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench.spans import Tracer, self_times, tail_percentile, union_length

#: The installed trace; forked DES workers find it here (module state is
#: the only channel a by-reference-pickled worker function has).
_ACTIVE: Optional["LayerTrace"] = None


class LayerTrace:
    """Install and remove the layer wrappers around one :class:`Tracer`."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        #: ``(owner, attribute, original __dict__ entry)`` per patch.
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Where forked DES workers leave their records.
        self.worker_dir: Optional[str] = None
        self.parent_pid = os.getpid()
        self._des_worker: Optional[Callable] = None
        self._last_network: Any = None

    # -- install / restore ---------------------------------------------------
    def _patch(self, owner: Any, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def install(self) -> "LayerTrace":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a layer trace is already installed")
        from repro.experiments import parallel
        from repro.kernels import batched
        from repro.messagepassing import cst, modelgap
        from repro.messagepassing.coherence import CoherenceTracker
        from repro.messagepassing.fastpath.network import FastCSTNetwork
        from repro.simulation import convergence
        from repro.sweeps import engine
        from repro.sweeps.store import SweepStore
        from repro.verification import model_checker, transition_system

        tr = self.tracer
        timed = tr.timed
        self._patch(convergence, "converge", self._traced_converge)
        self._patch(transition_system.TransitionSystem, "__init__",
                    lambda fn: timed(fn, "verification", "build"))
        self._patch(transition_system.TransitionSystem, "successor_keys",
                    lambda fn: tr.hot(fn, "verification", "successor_keys"))
        self._patch(model_checker, "check_self_stabilization",
                    lambda fn: timed(fn, "verification", "check"))
        self._patch(batched, "run_convergence_cells", self._traced_kernel)
        for name in ("run_sweep", "resume_sweep"):
            self._patch(engine, name,
                        lambda fn, name=name: timed(fn, "sweeps", name))
        for name in ("create", "attach", "completed", "finish"):
            self._patch(SweepStore, name,
                        lambda fn, name=name: timed(fn, "sweeps", name))
        self._patch(SweepStore, "record",
                    lambda fn: tr.hot(fn, "sweeps", "record"))
        self._patch(parallel, "run_tasks_parallel",
                    lambda fn: timed(fn, "parallel", "run_tasks"))
        self._patch(engine, "_des_cell_worker", self._swap_des_worker)
        self._patch(cst, "transformed_from_chaos", self._traced_build)
        self._patch(CoherenceTracker, "run_until_stabilized",
                    lambda fn: timed(fn, "messagepassing", "coherence"))
        self._patch(modelgap, "evaluate_gap",
                    lambda fn: timed(fn, "messagepassing", "gap"))
        self._patch(FastCSTNetwork, "run",
                    lambda fn: tr.hot(fn, "messagepassing", "run"))
        _ACTIVE = self
        return self

    def restore(self) -> None:
        global _ACTIVE
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        _ACTIVE = None

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- daemons (per instance) ----------------------------------------------
    def wrap_daemon(self, daemon: Any) -> Any:
        """Time ``daemon.select`` through an instance attribute that
        shadows the class method; :meth:`unwrap_daemon` deletes it."""
        tr = self.tracer
        select = tr.hot(daemon.select, "daemons", "select")

        def counted(enabled, config, step):
            selection = select(enabled, config, step)
            tr.counters["daemons.enabled"] = (
                tr.counters.get("daemons.enabled", 0) + len(enabled))
            tr.counters["simulation.moves"] = (
                tr.counters.get("simulation.moves", 0) + len(selection))
            return selection

        daemon.select = counted
        return daemon

    @staticmethod
    def unwrap_daemon(daemon: Any) -> None:
        del daemon.select

    # -- wrapper factories with layer counters -------------------------------
    def _traced_converge(self, fn: Callable) -> Callable:
        tr = self.tracer

        def converge(*args, **kwargs):
            span = tr.begin("simulation", "converge")
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end(span)
            tr.count("simulation.steps", result.steps)
            tr.sample("simulation.trial_ms",
                      (span["end"] - span["start"]) * 1e3)
            return result

        return converge

    def _traced_kernel(self, fn: Callable) -> Callable:
        tr = self.tracer

        def run_convergence_cells(n, seeds, *args, **kwargs):
            span = tr.begin("kernels", "run_convergence_cells")
            try:
                rows = fn(n, seeds, *args, **kwargs)
            finally:
                tr.end(span)
            # A lane steps until its cell converges or the budget runs out;
            # the call steps until its slowest lane stops.
            ran = [row["steps"] if row["converged"] else row["budget"]
                   for row in rows]
            lane_steps = max(ran) * len(rows) if rows else 0
            tr.count("kernels.cells", len(rows))
            tr.count("kernels.useful_steps",
                     sum(row["steps"] for row in rows if row["converged"]))
            tr.count("kernels.lane_steps", lane_steps)
            tr.count("kernels.site_updates", lane_steps * n)
            return rows

        return run_convergence_cells

    def _traced_build(self, fn: Callable) -> Callable:
        tr = self.tracer

        def transformed_from_chaos(*args, **kwargs):
            span = tr.begin("messagepassing", "build")
            try:
                net = fn(*args, **kwargs)
            finally:
                tr.end(span)
            self._last_network = net
            return net

        return transformed_from_chaos

    def _swap_des_worker(self, fn: Callable) -> Callable:
        self._des_worker = fn
        return traced_des_cell


def traced_des_cell(payload: tuple) -> Dict[str, Any]:
    """Stand-in for the sweep engine's DES cell worker while tracing.

    Runs the original worker inside a ``parallel.worker`` span, counts the
    cell's DES events and link statistics, and hands the records of this
    process to the parent through :attr:`LayerTrace.worker_dir`.
    """
    trace = _ACTIVE
    tr = trace.tracer
    tr.ensure_process()
    trace._last_network = None
    span = tr.begin("parallel", "worker")
    try:
        result = trace._des_worker(payload)
    finally:
        tr.end(span)
    tr.sample("messagepassing.cell_ms", (span["end"] - span["start"]) * 1e3)
    tr.sample("messagepassing.sim_time_to_stabilize", result["stabilized_at"])
    tr.count("messagepassing.events", result["events"])
    if trace._last_network is not None:
        stats = trace._last_network.message_stats()
        for key in ("sent", "lost", "duplicated"):
            tr.count(f"messagepassing.messages_{key}", stats[key])
    if tr.pid != trace.parent_pid:
        tr.flush_to(trace.worker_dir)
    return result


# -- per-layer metrics ---------------------------------------------------------

#: Per-layer metric names and units, in report order (BENCHMARK.json lists
#: the same names).
PER_LAYER_UNITS: Dict[str, str] = {
    "simulation.converge.calls": "count",
    "simulation.converge.busy_s": "s",
    "simulation.converge.self_s": "s",
    "simulation.steps": "count",
    "simulation.moves": "count",
    "simulation.trial_ms.p50": "ms",
    "simulation.trial_ms.tail": "ms",
    "simulation.trial_ms.tail_pct": "pct",
    "simulation.trial_ms.samples": "count",
    "daemons.select.calls": "count",
    "daemons.select.busy_s": "s",
    "daemons.enabled_mean": "count",
    "verification.build_s": "s",
    "verification.check.busy_s": "s",
    "verification.successor_keys.calls": "count",
    "verification.successor_keys.busy_s": "s",
    "verification.states": "count",
    "verification.legitimate_states": "count",
    "verification.worst_case_steps": "count",
    "verification.states_per_s": "1/s",
    "kernels.calls": "count",
    "kernels.busy_s": "s",
    "kernels.cells": "count",
    "kernels.useful_steps": "count",
    "kernels.lane_steps": "count",
    "kernels.lane_efficiency": "ratio",
    "kernels.site_updates": "count",
    "sweeps.create.busy_s": "s",
    "sweeps.record.busy_s": "s",
    "sweeps.attach.busy_s": "s",
    "sweeps.completed.busy_s": "s",
    "sweeps.finish.busy_s": "s",
    "sweeps.record.us_per_cell": "us",
    "sweeps.checkpoint_bytes": "bytes",
    "sweeps.self_s": "s",
    "messagepassing.build.busy_s": "s",
    "messagepassing.run.busy_s": "s",
    "messagepassing.coherence.busy_s": "s",
    "messagepassing.gap.busy_s": "s",
    "messagepassing.events": "count",
    "messagepassing.messages_sent": "count",
    "messagepassing.messages_lost": "count",
    "messagepassing.messages_duplicated": "count",
    "messagepassing.sim_time_to_stabilize.p50": "sim_time",
    "messagepassing.cell_ms.p50": "ms",
    "messagepassing.cell_ms.tail": "ms",
    "messagepassing.cell_ms.tail_pct": "pct",
    "messagepassing.cell_ms.samples": "count",
    "parallel.wall_s": "s",
    "parallel.worker_busy_s": "s",
    "parallel.efficiency": "ratio",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}


def per_layer_metrics(
    tracer: Tracer,
    *,
    traced_walls: Sequence[float],
    untraced_walls: Sequence[float],
    workers: int,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Fold the trace of ``len(traced_walls)`` passes into per-pass layer
    metrics (counts and busy times are means per traced pass)."""
    passes = max(1, len(traced_walls))
    spans = tracer.spans
    selfs = self_times(spans)
    busy: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    layer_self: Dict[str, float] = {}
    for span in spans:
        key = f"{span['layer']}.{span['name']}"
        busy[key] = busy.get(key, 0.0) + span["end"] - span["start"]
        calls[key] = calls.get(key, 0) + 1
        layer_self[span["layer"]] = (
            layer_self.get(span["layer"], 0.0) + selfs[span["id"]])
    for key, (count, seconds) in tracer.hot_stats.items():
        busy[key] = busy.get(key, 0.0) + seconds
        calls[key] = calls.get(key, 0) + count
        layer = key.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds

    def per_pass(value: float) -> float:
        return value / passes

    counter = tracer.counters.get
    samples = tracer.samples
    out: Dict[str, float] = {}

    def percentiles(prefix: str, values: List[float]) -> None:
        q, tail = tail_percentile(values)
        out[f"{prefix}.p50"] = statistics.median(values) if values else 0.0
        out[f"{prefix}.tail"] = tail
        out[f"{prefix}.tail_pct"] = q
        out[f"{prefix}.samples"] = len(values)

    out["simulation.converge.calls"] = per_pass(calls.get("simulation.converge", 0))
    out["simulation.converge.busy_s"] = per_pass(busy.get("simulation.converge", 0.0))
    out["simulation.converge.self_s"] = per_pass(layer_self.get("simulation", 0.0))
    out["simulation.steps"] = per_pass(counter("simulation.steps", 0))
    out["simulation.moves"] = per_pass(counter("simulation.moves", 0))
    percentiles("simulation.trial_ms", samples.get("simulation.trial_ms", []))
    select_calls = calls.get("daemons.select", 0)
    out["daemons.select.calls"] = per_pass(select_calls)
    out["daemons.select.busy_s"] = per_pass(busy.get("daemons.select", 0.0))
    out["daemons.enabled_mean"] = (
        counter("daemons.enabled", 0) / select_calls if select_calls else 0.0)

    out["verification.build_s"] = per_pass(busy.get("verification.build", 0.0))
    check_s = busy.get("verification.check", 0.0)
    out["verification.check.busy_s"] = per_pass(check_s)
    out["verification.successor_keys.calls"] = per_pass(
        calls.get("verification.successor_keys", 0))
    out["verification.successor_keys.busy_s"] = per_pass(
        busy.get("verification.successor_keys", 0.0))
    for key in ("states", "legitimate_states", "worst_case_steps"):
        out[f"verification.{key}"] = extra.get(f"verification.{key}", 0)
    out["verification.states_per_s"] = (
        out["verification.states"] * passes / check_s if check_s else 0.0)

    out["kernels.calls"] = per_pass(calls.get("kernels.run_convergence_cells", 0))
    out["kernels.busy_s"] = per_pass(busy.get("kernels.run_convergence_cells", 0.0))
    for key in ("cells", "useful_steps", "lane_steps", "site_updates"):
        out[f"kernels.{key}"] = per_pass(counter(f"kernels.{key}", 0))
    lane = counter("kernels.lane_steps", 0)
    out["kernels.lane_efficiency"] = (
        counter("kernels.useful_steps", 0) / lane if lane else 0.0)

    for name in ("create", "record", "attach", "completed", "finish"):
        out[f"sweeps.{name}.busy_s"] = per_pass(busy.get(f"sweeps.{name}", 0.0))
    records = calls.get("sweeps.record", 0)
    out["sweeps.record.us_per_cell"] = (
        busy.get("sweeps.record", 0.0) / records * 1e6 if records else 0.0)
    out["sweeps.checkpoint_bytes"] = extra.get("sweeps.checkpoint_bytes", 0)
    out["sweeps.self_s"] = per_pass(layer_self.get("sweeps", 0.0))

    for name in ("build", "run", "coherence", "gap"):
        out[f"messagepassing.{name}.busy_s"] = per_pass(
            busy.get(f"messagepassing.{name}", 0.0))
    out["messagepassing.events"] = per_pass(counter("messagepassing.events", 0))
    for key in ("sent", "lost", "duplicated"):
        out[f"messagepassing.messages_{key}"] = per_pass(
            counter(f"messagepassing.messages_{key}", 0))
    stab = samples.get("messagepassing.sim_time_to_stabilize", [])
    out["messagepassing.sim_time_to_stabilize.p50"] = (
        statistics.median(stab) if stab else 0.0)
    percentiles("messagepassing.cell_ms", samples.get("messagepassing.cell_ms", []))

    par_wall = busy.get("parallel.run_tasks", 0.0)
    worker_busy = busy.get("parallel.worker", 0.0)
    out["parallel.wall_s"] = per_pass(par_wall)
    out["parallel.worker_busy_s"] = per_pass(worker_busy)
    out["parallel.efficiency"] = (
        worker_busy / (par_wall * workers) if par_wall and workers else 0.0)

    traced = statistics.median(traced_walls) if traced_walls else 0.0
    untraced = statistics.median(untraced_walls) if untraced_walls else 0.0
    out["trace.overhead_pct"] = (
        (traced - untraced) / untraced * 100.0 if untraced else 0.0)
    pid_prefix = f"{tracer.pid}:"
    top = [(s["start"], s["end"]) for s in spans
           if s["parent"] is None and s["id"].startswith(pid_prefix)]
    total = sum(traced_walls)
    out["trace.coverage_pct"] = union_length(top) / total * 100.0 if total else 0.0
    return {name: out[name] for name in PER_LAYER_UNITS}

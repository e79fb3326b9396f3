"""Before/after benchmark for the packed fastpath kernel (PR artifact).

Measures the two workloads the fastpath was built for, naive vs fast, and
writes ``BENCH_perf_core.json``:

* **step loop** — run-until-legitimate from random starts on a large ring
  (n=256 full / n=64 quick) under a seeded random central daemon;
* **model checker** — exhaustive ``check_self_stabilization`` over the full
  state space (n=4, K=5 full — 160,000 configurations / n=3, K=4 quick):
  the fast side builds its edges in one numpy pass over the key space,
  the naive side from per-state guard evaluation of every daemon subset.

Every timed pair also cross-checks equivalence (same convergence steps,
same checker verdict and worst case), so the numbers cannot silently come
from diverging semantics.  Exit status is non-zero when a measured speedup
falls below the ``--min-*-speedup`` gates, which is how the CI smoke job
uses it (``--quick --min-step-speedup 3 --min-checker-speedup 30``).

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_core.py            # full
    PYTHONPATH=src python benchmarks/bench_perf_core.py --quick
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro.core.ssrmin import SSRmin
from repro.daemons.central import RandomCentralDaemon
from repro.simulation.convergence import converge
from repro.verification.model_checker import check_self_stabilization
from repro.verification.transition_system import TransitionSystem


def bench_step_loop(n: int, K: int, trials: int, seed: int) -> dict:
    """Time run-until-legitimate from identical random starts, both paths."""
    alg = SSRmin(n, K)
    starts = [
        alg.random_configuration(random.Random(seed + t))
        for t in range(trials)
    ]
    timings = {}
    steps_by_path = {}
    for label, fast in (("fastpath", True), ("naive", False)):
        total_steps = 0
        t0 = time.perf_counter()
        for t, init in enumerate(starts):
            res = converge(
                alg, RandomCentralDaemon(seed=seed + t), init,
                use_fastpath=fast,
            )
            if not res.converged:
                raise RuntimeError(f"trial {t} did not converge ({label})")
            total_steps += res.steps
        elapsed = time.perf_counter() - t0
        timings[label] = elapsed
        steps_by_path[label] = total_steps

    if steps_by_path["fastpath"] != steps_by_path["naive"]:
        raise RuntimeError(
            "fast and naive step loops diverged: "
            f"{steps_by_path['fastpath']} vs {steps_by_path['naive']} steps"
        )
    steps = steps_by_path["fastpath"]
    return {
        "workload": f"SSRmin n={n} K={K}, {trials} random-start convergence "
                    "runs, random central daemon",
        "n": n,
        "K": K,
        "trials": trials,
        "total_steps": steps,
        "naive_seconds": round(timings["naive"], 4),
        "fastpath_seconds": round(timings["fastpath"], 4),
        "naive_steps_per_second": round(steps / timings["naive"], 1),
        "fastpath_steps_per_second": round(steps / timings["fastpath"], 1),
        "speedup": round(timings["naive"] / timings["fastpath"], 2),
    }


def bench_model_checker(n: int, K: int) -> dict:
    """Time the exhaustive self-stabilization check, both paths."""
    timings = {}
    reports = {}
    for label, fast in (("fastpath", True), ("naive", False)):
        alg = SSRmin(n, K)
        ts = TransitionSystem(alg, "distributed", use_fastpath=fast)
        t0 = time.perf_counter()
        report = check_self_stabilization(ts)
        timings[label] = time.perf_counter() - t0
        reports[label] = report
        if not report.self_stabilizing:
            raise RuntimeError(f"check failed on the {label} path")

    fast_r, naive_r = reports["fastpath"], reports["naive"]
    if fast_r != naive_r:
        raise RuntimeError("fast and naive checker results diverged")
    return {
        "workload": f"exhaustive check_self_stabilization, SSRmin n={n} K={K} "
                    f"({fast_r.state_count} configurations, distributed daemon)",
        "n": n,
        "K": K,
        "state_count": fast_r.state_count,
        "worst_case_steps": fast_r.worst_case_steps,
        "naive_seconds": round(timings["naive"], 4),
        "fastpath_seconds": round(timings["fastpath"], 4),
        "speedup": round(timings["naive"] / timings["fastpath"], 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke sizes: n=64 step loop, n=3 K=4 checker")
    parser.add_argument(
        "--output", default="BENCH_perf_core.json",
        help="artifact path (default: %(default)s)")
    parser.add_argument(
        "--min-step-speedup", type=float, default=None,
        help="fail if the step-loop speedup is below this factor")
    parser.add_argument(
        "--min-checker-speedup", type=float, default=None,
        help="fail if the model-checker speedup is below this factor")
    args = parser.parse_args(argv)

    if args.quick:
        step = bench_step_loop(n=64, K=65, trials=3, seed=0)
        checker = bench_model_checker(n=3, K=4)
    else:
        step = bench_step_loop(n=256, K=257, trials=3, seed=0)
        checker = bench_model_checker(n=4, K=5)

    payload = {
        "schema": 1,
        "suite": "perf_core",
        "mode": "quick" if args.quick else "full",
        "step_loop": step,
        "model_checker": checker,
        "equivalence": (
            "fast and naive paths produced identical step counts and "
            "checker reports in every timed run (enforced inline; see "
            "tests/simulation/test_fastpath.py for the full differential "
            "suite)"
        ),
    }
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"step loop     : {step['speedup']}x "
          f"({step['naive_seconds']}s -> {step['fastpath_seconds']}s, "
          f"{step['total_steps']} steps)")
    print(f"model checker : {checker['speedup']}x "
          f"({checker['naive_seconds']}s -> {checker['fastpath_seconds']}s, "
          f"{checker['state_count']} states)")
    print(f"artifact      : {args.output}")

    failed = False
    if args.min_step_speedup and step["speedup"] < args.min_step_speedup:
        print(f"FAIL: step-loop speedup {step['speedup']} < "
              f"{args.min_step_speedup}", file=sys.stderr)
        failed = True
    if args.min_checker_speedup and checker["speedup"] < args.min_checker_speedup:
        print(f"FAIL: checker speedup {checker['speedup']} < "
              f"{args.min_checker_speedup}", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository's benchmark: ``whatif``, ``simulate`` and ``serve``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload whatif --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics.  ``--smoke`` runs every workload on cut
inputs for one or two passes, in seconds.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("whatif", "simulate", "serve")
#: Fresh set-ups per run, spread over it; ``setup_s`` is their median.
SETUPS = 3
MIN_PASSES = 3

END_TO_END_UNITS = {
    "op_ms_p50": "ms",
    "op_ms_p80": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Every per-layer metric with its unit.  A workload that does not run a
#: layer reports it as 0 (README.md lists which workload drives which).
PER_LAYER_UNITS = {
    "setup.import_ms": "ms",
    "setup.inputs_ms": "ms",
    "setup.serve_ready_ms": "ms",
    "core.boe_ms": "ms",
    "core.alg1_ms": "ms",
    "core.boe_system_solves": "count",
    "core.boe_cache_hit_frac": "fraction",
    "core.alg1_iterations": "count",
    "tuning.q21_ms": "ms",
    "core.bounds_ms": "ms",
    "sweep.evaluations": "count",
    "sweep.pruned_frac": "fraction",
    "sweep.reuse_frac": "fraction",
    "simulator.build_ms": "ms",
    "simulator.run_ms": "ms",
    "simulator.materialise_ms": "ms",
    "simulator.covered_frac": "fraction",
    "simulator.run_covered_frac": "fraction",
    "simulator.phase_pop_ms": "ms",
    "simulator.phase_solve_ms": "ms",
    "simulator.phase_launch_ms": "ms",
    "simulator.phase_bookkeep_ms": "ms",
    "simulator.events_per_task": "count",
    "simulator.cohort_mean": "count",
    "scheduler.grants": "count",
    "ensemble.replication_ms": "ms",
    "ensemble.driver_ms": "ms",
    "service.http_ms_p50": "ms",
    "service.model_ms_p50": "ms",
    "service.job_queue_ms": "ms",
    "service.sweep_ms": "ms",
    "service.ensemble_ms": "ms",
    "pool.chunks_pooled": "count",
    "pool.chunks_serial": "count",
    "pool.shm_bytes": "bytes",
    "trace.overhead_frac": "fraction",
}


def load_program() -> None:
    """Import the checkout's own ``src/repro``; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"error: no program to measure: {SRC}/repro is missing")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported repro from {repro.__file__}, not from {SRC}")


def make_workload(name: str, seed: int, smoke: bool, trace: bool):
    if name == "whatif":
        from whatif import WhatIf

        return WhatIf(ROOT)
    if name == "simulate":
        from simulate import Simulate

        return Simulate(ROOT, seed, smoke)
    from serve import Serve

    return Serve(ROOT, seed, trace, smoke)


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload and build the result object."""
    import harness

    harness.pin_to_one_cpu()
    workload = make_workload(name, seed, smoke, trace)
    try:
        out = harness.run(
            workload,
            seconds=seconds,
            seed=seed,
            traced=trace,
            setups=1 if smoke else SETUPS,
            min_passes=2 if trace else (1 if smoke else MIN_PASSES),
        )
        rss = workload.peak_rss_mb()
        layers = workload.layers() if trace else {}
    finally:
        problems = workload.close()
    tally = out.tally
    problems = out.problems + problems
    for line in tally.problems + problems:
        print(f"problem: {line}", file=sys.stderr)
    if trace:
        untraced = harness.op_times(tally.samples[False])
        traced = harness.op_times(tally.samples[True])
        common = untraced.keys() & traced.keys()
        base = sum(untraced[k] for k in common)
        layers["trace.overhead_frac"] = sum(traced[k] for k in common) / base - 1.0
        for key in ("import_ms", "inputs_ms", "serve_ready_ms"):
            if key in out.setups[0]:
                layers[f"setup.{key}"] = statistics.median(s[key] for s in out.setups)
        values = {k: float(layers.get(k, 0.0)) for k in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        values = harness.end_to_end(harness.op_times(tally.samples[False]))
        values["peak_rss_mb"] = rss
        values["setup_s"] = statistics.median(s["setup_s"] for s in out.setups)
        units = END_TO_END_UNITS
    return {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "passes": out.passes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload on cut inputs, in seconds")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke")
    load_program()
    if args.smoke:
        names = [args.workload] if args.workload else list(WORKLOADS)
        ok = True
        for name in names:
            result = measure(name, args.seed, 0.0, bool(args.trace), smoke=True)
            print(name, json.dumps(result))
            ok &= result["correct"] and result["failed"] == 0
        return 0 if ok else 1
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"{args.workload}: {result.pop('passes')} passes", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``simulate``: the simulator across its range, per pass:

* one skewed ``simulate()`` of each of the 57 named workflows on the
  default engine (sigma 0.2, the ``repro-dag simulate`` default) — paper
  scale, bound by fixed per-run costs, with skew breaking up same-instant
  cohorts;
* one serial ensemble of ``tpch`` with the ``repro-dag ensemble`` skew and
  failure defaults, whose replications run on the columnar engine;
* one uniform columnar replication of the WC+TS hybrid at ~195k tasks —
  bound by per-event costs, with uniform waves forming large cohorts.

Direct library calls, no pool, estimator idle.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional

from repro import (
    Cluster,
    EnsembleConfig,
    EnsembleRunner,
    FailureModel,
    SimulationConfig,
    Simulator,
    SkewModel,
    paper_cluster,
    replication_config,
    simulate,
)
from repro.cluster.node import PAPER_NODE
from repro.obs import get_metrics
from repro.units import gb
from repro.workloads import hybrid, micro_workflow, named_workflows

from harness import (
    CAL_REF_S,
    Op,
    Spans,
    Tally,
    Workload,
    calibrate,
    count_delta,
    counter_delta,
)

SCALE = 0.05
CATALOG_SKEW = 0.2
#: ``repro-dag ensemble`` defaults, with the replication count cut from 64
#: so that a pass stays short enough for several passes per run.
ENSEMBLE_WORKLOAD = "tpch"
ENSEMBLE_REPLICATIONS = 16
ENSEMBLE_SKEW = 0.3
ENSEMBLE_FAILURE_PROB = 0.05
#: WC+TS hybrid sized ~30 tasks per worker: 6,640 workers -> ~195k tasks.
HYBRID_WORKERS = 6640
#: Size of the once-per-run columnar-vs-fast agreement check (~10k tasks;
#: the object engine is too slow for the full-size hybrid).
PARITY_WORKERS = 340
MAKESPAN_TOL = 1e-9

ENSEMBLE_OP = f"ensemble:{ENSEMBLE_WORKLOAD}"
HYBRID_OP = "uniform:WC+TS"
PHASES = ("pop", "solve", "launch", "bookkeep")


def hybrid_workload(workers: int):
    size = gb(1.875 * workers)
    return hybrid("WC+TS", micro_workflow("wc", size), micro_workflow("ts", size))


def task_count(workflow) -> int:
    """Tasks a complete run of ``workflow`` finishes, from its definition."""
    return sum(job.num_map_tasks + job.num_reduce_tasks for job in workflow.jobs)


def ensemble_sim_config(engine: str = "fast") -> SimulationConfig:
    return SimulationConfig(
        skew=SkewModel(sigma=ENSEMBLE_SKEW),
        failures=FailureModel(probability=ENSEMBLE_FAILURE_PROB),
        engine=engine,
    )


def build_inputs(smoke: bool = False):
    """The cluster, the catalogue and the hybrid with its cluster."""
    workers = PARITY_WORKERS if smoke else HYBRID_WORKERS
    big = Cluster(node=PAPER_NODE, workers=workers, name=f"{workers}w")
    return paper_cluster(), named_workflows(SCALE), hybrid_workload(workers), big


class Simulate(Workload):
    name = "simulate"

    def __init__(self, root: str, seed: int, smoke: bool = False):
        super().__init__(root)
        self._cluster, catalogue, self._hybrid, self._big = build_inputs(smoke)
        self._catalogue = {n: catalogue[n] for n in sorted(catalogue)}
        self._expected = {n: task_count(w) for n, w in catalogue.items()}
        self._expected[HYBRID_OP] = task_count(self._hybrid)
        self._ensemble_wf = catalogue[ENSEMBLE_WORKLOAD]
        self._replications = 4 if smoke else ENSEMBLE_REPLICATIONS
        self._base_seed = seed
        self._first: Dict[str, object] = {}
        self._spans = Spans()
        self._acc: Dict[str, float] = {}
        self._before: Dict[str, Dict] = {}
        self._cal_ensemble = self._ensemble_s = 0.0
        self._cross: List[str] = []

    # -- operations ------------------------------------------------------------

    def make_pass(self, index: int, traced: bool) -> List[Op]:
        skewed = SimulationConfig(skew=SkewModel(sigma=CATALOG_SKEW))
        ops = []
        for name, workflow in self._catalogue.items():
            ops.append(self._sim_op(f"sim:{name}", name, workflow, self._cluster, skewed, traced))
        uniform = SimulationConfig(engine="columnar")
        ops.append(self._sim_op(HYBRID_OP, HYBRID_OP, self._hybrid, self._big, uniform, traced))
        runner = EnsembleRunner(
            self._cluster,
            config=ensemble_sim_config(),
            ensemble=EnsembleConfig(
                replications=self._replications,
                min_replications=min(8, self._replications),
                base_seed=self._base_seed,
            ),
        )
        ops.append(self._ensemble_op(runner, traced))
        if traced:
            self._spans.clear()
            self._acc = {}
            get_metrics().enable()
            self._before = get_metrics().snapshot()
        return ops

    def _sim_op(self, op_name, key, workflow, cluster, config, traced) -> Op:
        if not traced:
            return Op(op_name, lambda: simulate(workflow, cluster, config), lambda out: self._check_run(key, out))
        return Op(
            op_name,
            lambda: self._traced_simulation(workflow, cluster, config),
            lambda out: self._materialise_and_check(key, out),
        )

    def _traced_simulation(self, workflow, cluster, config):
        """Build and run one simulation under spans, with the registry's
        counters read around it."""
        spans = self._spans
        registry = get_metrics()
        before = registry.snapshot()
        with spans.span("sim.op"):
            with spans.span("sim.build"):
                sim = Simulator(cluster, workflow, config)
            t = time.perf_counter()
            with spans.span("sim.run"):
                result = sim.run()
            run_s = time.perf_counter() - t
        after = registry.snapshot()
        acc = self._acc
        for key in ("sim.events", "sim.scheduler_decisions"):
            acc[key] = acc.get(key, 0.0) + counter_delta(after, before, key)
        acc["tasks"] = acc.get("tasks", 0.0) + result.task_count
        if config.engine == "columnar":
            acc["columnar_run"] = acc.get("columnar_run", 0.0) + run_s
            for phase in PHASES:
                key = f"engine.phase_time{{phase={phase}}}"
                acc[phase] = acc.get(phase, 0.0) + counter_delta(after, before, key)
            acc["cohorts"] = acc.get("cohorts", 0.0) + count_delta(after, before, "engine.cohort_size")
            acc["cohort_tasks"] = acc.get("cohort_tasks", 0.0) + counter_delta(
                after, before, "engine.cohort_size"
            )
        return result

    def _materialise_and_check(self, key: str, result) -> Optional[str]:
        """Read the result's task traces (untimed, traced passes only)."""
        with self._spans.span("sim.materialise"):
            len(result.tasks)
        return self._check_run(key, result)

    def _ensemble_op(self, runner, traced) -> Op:
        if not traced:
            return Op(ENSEMBLE_OP, lambda: runner.run(self._ensemble_wf), self._check_ensemble)

        def calibrate_before():
            self._cal_ensemble = calibrate()

        def call():
            t = time.perf_counter()
            result = runner.run(self._ensemble_wf)
            self._ensemble_s = time.perf_counter() - t
            return result

        return Op(ENSEMBLE_OP, call, self._traced_ensemble_check, before=calibrate_before)

    def _traced_ensemble_check(self, result) -> Optional[str]:
        """Run the ensemble's replications again as direct ``simulate()``
        calls, right after it; both times are calibrated, because their
        difference is smaller than the host's drift between them."""
        problem = self._check_ensemble(result)
        if problem is not None:
            return problem
        cal_mid = calibrate()
        config = ensemble_sim_config("columnar")
        direct = []
        t = time.perf_counter()
        for i in range(self._replications):
            out = simulate(self._ensemble_wf, self._cluster, replication_config(config, self._base_seed, i))
            if out.task_count != self._expected[ENSEMBLE_WORKLOAD]:
                return f"replication {i} completed {out.task_count} tasks"
            direct.append(out.makespan)
        direct_s = time.perf_counter() - t
        cal_after = calibrate()
        if tuple(direct) != tuple(result.samples):
            return "ensemble samples differ from the same replications run directly"
        ensemble_s = self._ensemble_s * CAL_REF_S / math.sqrt(self._cal_ensemble * cal_mid)
        direct_s *= CAL_REF_S / math.sqrt(cal_mid * cal_after)
        self._acc["replication"] = direct_s / self._replications
        self._acc["driver"] = ensemble_s - direct_s
        return None

    def _check_run(self, key: str, result) -> Optional[str]:
        if result.task_count != self._expected[key]:
            return f"completed {result.task_count} tasks, the workflow defines {self._expected[key]}"
        if not (math.isfinite(result.makespan) and result.makespan > 0):
            return f"makespan {result.makespan!r} is not finite and positive"
        first = self._first.setdefault(key, result.makespan)
        if result.makespan != first:
            return f"makespan {result.makespan!r} differs from the first pass's {first!r}"
        return None

    def _check_ensemble(self, result) -> Optional[str]:
        m, q = result.makespan, result.quantiles
        if not m["min"] <= q[0.5] <= q[0.95] <= m["max"]:
            return f"aggregates out of order: min {m['min']} p50 {q[0.5]} p95 {q[0.95]} max {m['max']}"
        if result.replications != self._replications:
            return f"ran {result.replications} replications, asked for {self._replications}"
        seen = (tuple(sorted(m.items())), tuple(sorted(q.items())), result.samples)
        first = self._first.setdefault(ENSEMBLE_OP, seen)
        if seen != first:
            return "aggregates differ from the first pass's for the same base seed"
        return None

    def end_pass(self, index: int, traced: bool) -> None:
        if not traced:
            return
        registry = get_metrics()
        after = registry.snapshot()
        registry.disable()
        counted = counter_delta(after, self._before, "ensemble.replications")
        if counted != self._replications:
            self._cross.append(f"ensemble.replications counted {counted}, the ensemble ran {self._replications}")
        totals = self._spans.totals()
        acc = self._acc
        ms = {k: totals.get(f"sim.{k}", 0.0) * 1000.0 for k in ("op", "build", "run", "materialise")}
        phases = {p: acc.get(p, 0.0) * 1000.0 for p in PHASES}
        columnar_run = acc.get("columnar_run", 0.0) * 1000.0
        layers = {
            "simulator.build_ms": ms["build"],
            "simulator.run_ms": ms["run"],
            "simulator.materialise_ms": ms["materialise"],
            "simulator.covered_frac": (ms["build"] + ms["run"]) / ms["op"],
            "simulator.run_covered_frac": sum(phases.values()) / columnar_run,
            "simulator.events_per_task": acc["sim.events"] / acc["tasks"],
            "simulator.cohort_mean": acc["cohort_tasks"] / acc["cohorts"] if acc.get("cohorts") else 0.0,
            "scheduler.grants": acc["sim.scheduler_decisions"],
            "ensemble.replication_ms": acc.get("replication", 0.0) * 1000.0,
            "ensemble.driver_ms": acc.get("driver", 0.0) * 1000.0,
        }
        for phase in PHASES:
            layers[f"simulator.phase_{phase}_ms"] = phases[phase]
        self.pass_layers.append(layers)

    # -- once per run ----------------------------------------------------------

    def finish(self, tally: Tally) -> List[str]:
        small = Cluster(node=PAPER_NODE, workers=PARITY_WORKERS, name=f"{PARITY_WORKERS}w")
        workflow = hybrid_workload(PARITY_WORKERS)
        columnar = simulate(workflow, small, SimulationConfig(engine="columnar"))
        fast = simulate(workflow, small, SimulationConfig(engine="fast"))
        if columnar.task_count != fast.task_count or abs(columnar.makespan - fast.makespan) > MAKESPAN_TOL:
            tally.fail_all(
                HYBRID_OP,
                f"columnar ({columnar.makespan!r}, {columnar.task_count} tasks) and fast "
                f"({fast.makespan!r}, {fast.task_count} tasks) disagree",
            )
        return list(self._cross)


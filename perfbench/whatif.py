"""``whatif``: cold catalog estimates and one cold-start Q21 tuning per pass.

Direct library calls, no pool, simulator idle.  The 57 cold estimates
(fresh workflow objects, a fresh ``BOEModel``, the parallelism memo
cleared) bypass every cache; the tuning run leans on all of them (BOE
L1/L2, candidate memo, trajectory reuse, bound pruning).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro import BOEModel, BOESource, estimate_workflow, paper_cluster, tpch_query, tune_workflow
from repro.core.bounds import BoundsModel
from repro.core.parallelism import clear_parallelism_memo
from repro.obs import get_metrics
from repro.units import gb
from repro.workloads import named_workflows

from harness import Op, Spans, Tally, Workload, counter_delta

#: Input-volume scale of the named catalogue (the CLI and service default).
SCALE = 0.05
TUNE_OP = "tune:Q21"


def q21():
    return tpch_query(21, dataset_mb=gb(80) * SCALE)


def build_inputs():
    """Everything the first pass needs: the cluster, the catalogue, Q21."""
    return paper_cluster(), named_workflows(SCALE), q21()


class TimedSource:
    """A task-time source that records a span around every call into the
    wrapped BOE source; results pass through untouched."""

    def __init__(self, inner: BOESource, spans: Spans):
        self._inner = inner
        self._spans = spans

    def distribution(self, *args):
        with self._spans.span("core.boe"):
            return self._inner.distribution(*args)

    def distribution_batch(self, points):
        with self._spans.span("core.boe"):
            return self._inner.distribution_batch(points)


def estimate_problem(estimate) -> Optional[str]:
    """Method properties every estimate must have."""
    total = estimate.total_time
    if not (math.isfinite(total) and total > 0):
        return f"total {total!r} is not finite and positive"
    durations = math.fsum(s.duration for s in estimate.states)
    if not math.isclose(durations, total, rel_tol=1e-9, abs_tol=1e-9):
        return f"state durations sum to {durations!r}, total is {total!r}"
    return None


def timed_estimate(workflow, cluster, spans: Spans):
    """A cold estimate with the BOE calls and the whole call spanned."""
    with spans.span("core.estimate"):
        source = TimedSource(BOESource(BOEModel(cluster)), spans)
        return estimate_workflow(workflow, cluster, source=source)


def pruned_total(snapshot: Dict[str, Dict]) -> float:
    return sum(
        image.get("value", 0)
        for key, image in snapshot.items()
        if key == "sweep.pruned" or key.startswith("sweep.pruned{")
    )


class WhatIf(Workload):
    name = "whatif"

    def __init__(self, root: str):
        super().__init__(root)
        self._cluster, catalogue, _ = build_inputs()
        self._names = sorted(catalogue)
        self._first: Dict[str, tuple] = {}
        self._first_tune = None
        self._spans = Spans()
        self._before: Dict[str, Dict] = {}
        self._tune_result = None
        self._cross: List[str] = []

    # -- operations ------------------------------------------------------------

    def make_pass(self, index: int, traced: bool) -> List[Op]:
        catalogue = named_workflows(SCALE)  # fresh workflow objects per pass
        cluster = self._cluster
        spans = self._spans
        ops = []
        for name in self._names:
            workflow = catalogue[name]
            if traced:
                call = lambda w=workflow: timed_estimate(w, cluster, spans)  # noqa: E731
            else:
                call = lambda w=workflow: estimate_workflow(w, cluster)  # noqa: E731
            ops.append(
                Op(
                    f"estimate:{name}",
                    call,
                    lambda out, n=name, w=workflow, first=index == 0: self._check_estimate(
                        n, w, out, first
                    ),
                    before=clear_parallelism_memo,
                )
            )
        workflow = q21()
        if traced:
            def tune(w=workflow):
                with spans.span("tuning.q21"):
                    return tune_workflow(w, cluster, prune=True)
        else:
            def tune(w=workflow):
                return tune_workflow(w, cluster, prune=True)
        ops.append(Op(TUNE_OP, tune, self._check_tune, before=clear_parallelism_memo))
        if traced:
            spans.clear()
            get_metrics().enable()
            self._before = get_metrics().snapshot()
        return ops

    def _check_estimate(self, name: str, workflow, estimate, first_pass: bool) -> Optional[str]:
        problem = estimate_problem(estimate)
        if problem is not None:
            return problem
        seen = (estimate.total_time, len(estimate.states))
        first = self._first.setdefault(name, seen)
        if seen != first:
            return f"estimate {seen} differs from the first pass's {first}"
        if first_pass:
            bounds = BoundsModel.from_source(BOESource(BOEModel(self._cluster)))
            lower = bounds.bounds(workflow).lower_s
            if not lower <= estimate.total_time:
                return f"lower bound {lower!r} exceeds the estimate {estimate.total_time!r}"
        return None

    def _check_tune(self, out) -> Optional[str]:
        result, _ = out
        if not result.tuned_estimate_s <= result.baseline_estimate_s:
            return (
                f"tuned {result.tuned_estimate_s!r} is worse than the "
                f"baseline {result.baseline_estimate_s!r}"
            )
        seen = self._tune_key(result)
        if self._first_tune is None:
            self._first_tune = seen
        elif seen != self._first_tune:
            return f"tuning result {seen} differs from the first pass's {self._first_tune}"
        self._tune_result = result
        return None

    @staticmethod
    def _tune_key(result) -> tuple:
        return (
            tuple(sorted(result.assignment.items(), key=repr)),
            result.tuned_estimate_s,
            result.evaluations,
            result.pruned,
        )

    def end_pass(self, index: int, traced: bool) -> None:
        if not traced:
            return
        registry = get_metrics()
        after = registry.snapshot()
        registry.disable()
        before = self._before
        totals = self._spans.totals()
        hits = counter_delta(after, before, "boe.cache.hits")
        misses = counter_delta(after, before, "boe.cache.misses")
        result = self._tune_result
        report = result.sweep
        if pruned_total(after) - pruned_total(before) != result.pruned:
            self._cross.append(
                f"sweep.pruned counted {pruned_total(after) - pruned_total(before)}, "
                f"the tuning result reports {result.pruned}"
            )
        self.pass_layers.append(
            {
                "core.boe_ms": totals.get("core.boe", 0.0) * 1000.0,
                "core.alg1_ms": (totals.get("core.estimate", 0.0) - totals.get("core.boe", 0.0))
                * 1000.0,
                "core.boe_system_solves": counter_delta(after, before, "boe.system_solves"),
                "core.boe_cache_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
                "core.alg1_iterations": counter_delta(after, before, "est.iterations"),
                "tuning.q21_ms": totals.get("tuning.q21", 0.0) * 1000.0,
                "core.bounds_ms": report.phase_s.get("bounds", 0.0) * 1000.0,
                "sweep.evaluations": float(result.evaluations),
                "sweep.pruned_frac": result.pruned / result.evaluations,
                "sweep.reuse_frac": report.reuse.reuse_rate,
            }
        )

    # -- once per run ----------------------------------------------------------

    def finish(self, tally: Tally) -> List[str]:
        if self._first_tune is not None:
            clear_parallelism_memo()
            exhaustive, _ = tune_workflow(q21(), self._cluster, prune=False)
            pruned = self._first_tune[:2]
            if self._tune_key(exhaustive)[:2] != pruned:
                tally.fail_all(
                    TUNE_OP,
                    f"pruned winner {pruned} differs from the exhaustive "
                    f"winner {self._tune_key(exhaustive)[:2]}",
                )
        return list(self._cross)


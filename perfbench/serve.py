"""``serve``: one closed-loop HTTP client against ``repro-dag serve``.

The server runs as its own process with its default two pool workers and
is stopped with SIGINT.  The server and its pool workers share the
client's one CPU.  Passes come in groups of ``GROUP_PASSES``, each group
on a fresh server.  Per pass the client sends, one at a time over one
connection each:

* one ``/estimate`` of each of the 57 named workloads, on a cluster size
  not requested before on that server, so every request is computed;
* one pooled ``/sweep`` of TS-Q21 over 32 cluster sizes;
* one pooled ``/ensemble`` of 16 ``tpch`` replications.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro import (
    Cluster,
    EnsembleConfig,
    EnsembleRunner,
    SimulationConfig,
    estimate_workflow,
    paper_cluster,
)
from repro.cluster.node import PAPER_NODE
from repro.core.parallelism import clear_parallelism_memo
from repro.sweep import Candidate, SweepRunner
from repro.workloads import named_workflows

from harness import Op, Spans, Workload, child_env, percentile, setup_probe
from whatif import SCALE, estimate_problem, timed_estimate

#: Cluster sizes of the estimates: each workload draws ``GROUP_PASSES``
#: distinct sizes from this range and takes the next one every pass of a
#: group.  The estimate cost is flat across it (the catalogue's cold
#: estimate sums agree within noise from 8 to 100 workers).
ESTIMATE_SIZES = range(10, 100)
#: Seed of the size draws and of the pass order, which do not
#: depend on the run's seed.  The server's BOE call cache serves part of
#: an estimate whenever an earlier request gave a job the same stage
#: shape, and workloads share jobs (TS-Q4 and WC-Q4 share Q4), so the
#: sizes and the order of the requests before it decide what a request
#: costs.  Seeded sizes and order moved single workloads' medians by
#: 20-45% from seed to seed.
FIXED_SEED = 0
SWEEP_WORKLOAD = "TS-Q21"
SWEEP_SIZES = list(range(4, 68, 2))
ENSEMBLE_WORKLOAD = "tpch"
#: 16, not 64: at 64 the ensemble was over half of ``ops_per_s``, and its
#: median over a run's dozen samples spread 10% from run to run.
ENSEMBLE_REPLICATIONS = 16
SWEEP_OP = f"/sweep:{SWEEP_WORKLOAD}"
ENSEMBLE_OP = f"/ensemble:{ENSEMBLE_WORKLOAD}"
#: The server's memory grows with every request it serves, so its peak is
#: read after a fixed amount of work rather than at the end of the run.
RSS_PASSES = 8
#: Passes per server.  The server's memoised estimator warms with every
#: cluster size it sees, so later passes are faster.  Every group of this
#: many passes runs the same requests on a fresh server, so a run samples
#: the same stretch of that warm-up however many passes the host allows.
GROUP_PASSES = 12
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def exchange(port: int, method: str, path: str, body=None) -> Tuple[int, dict, Optional[str]]:
    """One request on its own connection: (status, JSON payload, trace id)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data is not None else {}
        conn.request(method, path, body=data, headers=headers)
        resp = conn.getresponse()
        payload = json.loads(resp.read())
        return resp.status, payload, resp.getheader("X-Repro-Trace-Id")
    finally:
        conn.close()


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid``, from ``/proc``."""
    out, todo = [], [pid]
    while todo:
        parent = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except FileNotFoundError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as fh:
                    kids = [int(k) for k in fh.read().split()]
            except FileNotFoundError:
                continue
            out.extend(kids)
            todo.extend(kids)
    return out


def alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, IndexError):
        return False


class Server:
    """One ``repro-dag serve`` process (the CLI module, run from ``src``)."""

    def __init__(self, root: str):
        self.port = free_port()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", str(self.port)],
            env=child_env(root),
            cwd=root,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            self.ready_s = self._wait_ready(t0)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def _wait_ready(self, t0: float) -> float:
        while time.perf_counter() - t0 < READY_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro-dag serve exited {self.proc.returncode}")
            try:
                status, _, _ = exchange(self.port, "GET", "/healthz")
            except OSError:
                time.sleep(0.005)
                continue
            if status == 200:
                return time.perf_counter() - t0
        raise RuntimeError(f"repro-dag serve not ready after {READY_TIMEOUT_S}s")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> List[str]:
        """SIGINT, wait, and report any process of the server's that lives on
        (those are killed, so nothing outlives the benchmark)."""
        started = descendants(self.proc.pid)
        self.proc.send_signal(signal.SIGINT)
        problems = []
        try:
            self.proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems.append(f"server did not exit within {STOP_TIMEOUT_S}s of SIGINT")
            self.proc.kill()
            self.proc.wait()
        deadline = time.perf_counter() + 5.0
        while any(alive(p) for p in started) and time.perf_counter() < deadline:
            time.sleep(0.05)
        for pid in started:
            if alive(pid):
                problems.append(f"server child {pid} outlived SIGINT shutdown")
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        return problems


def cluster_of(workers: int) -> Cluster:
    """The cluster the service builds for a ``workers`` override."""
    return Cluster(node=PAPER_NODE, workers=workers, name=f"{workers}w")


class Serve(Workload):
    name = "serve"

    group = GROUP_PASSES

    def __init__(self, root: str, seed: int, trace: bool, smoke: bool):
        super().__init__(root)
        self._trace = trace
        self._catalogue = named_workflows(SCALE)
        rng = random.Random(FIXED_SEED)
        self._sizes = {
            name: rng.sample(list(ESTIMATE_SIZES), GROUP_PASSES)
            for name in sorted(self._catalogue)
        }
        if smoke:
            self.group = 1
        self._seed = seed
        self._spans = Spans()
        self._problems: List[str] = []
        self._sweep_ref = None
        self._ensemble_ref = None
        self._pass: Dict[str, list] = {}
        self._before: Dict[str, Dict] = {}
        self._rss_mb: Optional[float] = None
        self._server = Server(root)
        try:
            self._warm_up()
        except BaseException:
            self._server.stop()
            raise

    def _warm_up(self) -> None:
        """One untimed sweep and ensemble, so the pool's workers exist
        before the first timed operation."""
        for kind, op in (("sweep", self._sweep_op()), ("ensemble", self._ensemble_op())):
            problem = op.check(op.call())
            if problem is not None:
                raise RuntimeError(f"warm-up {kind}: {problem}")

    def order_seed(self, seed: int) -> int:
        return FIXED_SEED

    def _restart(self) -> None:
        """Stop the server and start a fresh one for the next group."""
        self._problems.extend(self._server.stop())
        self._server = Server(self.root)
        self._warm_up()

    # -- operations ------------------------------------------------------------

    def _post(self, path: str, body: dict):
        t0 = time.perf_counter()
        status, payload, trace_id = exchange(self._server.port, "POST", path, body)
        return status, payload, trace_id, time.perf_counter() - t0

    def make_pass(self, index: int, traced: bool) -> List[Op]:
        if index and index % GROUP_PASSES == 0:
            self._restart()
        ops = []
        for name in sorted(self._catalogue):
            workers = self._sizes[name][index % GROUP_PASSES]
            body = {"workload": name, "workers": workers}
            ops.append(
                Op(
                    f"/estimate:{name}",
                    lambda b=body: self._post("/estimate", b),
                    lambda out, n=name, w=workers: self._check_estimate(n, w, out, traced),
                )
            )
        ops.append(self._sweep_op(traced))
        ops.append(self._ensemble_op(traced))
        if traced:
            self._spans.clear()
            self._pass = {"http": [], "model": [], "queue": [], "sweep": [], "ensemble": []}
            self._before = self._server_metrics()
        return ops

    def _sweep_op(self, traced: bool = False) -> Op:
        sweep = {"workload": SWEEP_WORKLOAD, "workers": SWEEP_SIZES}
        return Op(
            SWEEP_OP,
            lambda: self._post("/sweep", sweep),
            lambda out: self._check_job("sweep", out, traced),
        )

    def _ensemble_op(self, traced: bool = False) -> Op:
        ensemble = {
            "workload": ENSEMBLE_WORKLOAD,
            "replications": ENSEMBLE_REPLICATIONS,
            "seed": self._seed,
        }
        return Op(
            ENSEMBLE_OP,
            lambda: self._post("/ensemble", ensemble),
            lambda out: self._check_job("ensemble", out, traced),
        )

    def _server_metrics(self) -> Dict[str, Dict]:
        status, payload, _ = exchange(self._server.port, "GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return payload["metrics"]

    def _check_estimate(self, name: str, workers: int, out, traced: bool) -> Optional[str]:
        status, payload, _, seconds = out
        if status != 200 or not payload.get("ok"):
            return f"status {status}: {payload.get('error')}"
        if payload.get("served") != "computed":
            return f"served {payload.get('served')!r}, not computed"
        clear_parallelism_memo()
        cluster = cluster_of(workers)
        workflow = self._catalogue[name]
        if traced:
            direct = timed_estimate(workflow, cluster, self._spans)
            self._pass["http"].append(seconds * 1000.0 - payload["overhead_ms"])
            self._pass["model"].append(payload["overhead_ms"])
        else:
            direct = estimate_workflow(workflow, cluster)
        problem = estimate_problem(direct)
        if problem is not None:
            return f"direct estimate: {problem}"
        served = (payload["total_time_s"], payload["states"])
        if served != (direct.total_time, len(direct.states)):
            return f"served {served}, direct estimate gives {(direct.total_time, len(direct.states))}"
        return None

    def _check_job(self, kind: str, out, traced: bool) -> Optional[str]:
        status, payload, trace_id, seconds = out
        if status != 200:
            return f"status {status}: {payload.get('error')}"
        problem = self._check_sweep(payload) if kind == "sweep" else self._check_ensemble(payload)
        if problem is None and traced:
            self._pass[kind].append(seconds * 1000.0)
            status, flame, _ = exchange(self._server.port, "GET", f"/trace/{trace_id}")
            if status != 200:
                return f"/trace/{trace_id} answered {status}"
            self._pass["queue"].extend(
                e["dur"] / 1000.0 for e in flame["traceEvents"] if e.get("name") == "job.queue_wait"
            )
        return problem

    def _check_sweep(self, payload: dict) -> Optional[str]:
        if self._sweep_ref is None:
            clusters = [cluster_of(w) for w in SWEEP_SIZES]
            workflow = self._catalogue[SWEEP_WORKLOAD]
            results = SweepRunner(clusters[0]).evaluate(
                [Candidate(workflow, cluster=c, label=f"{w} workers") for w, c in zip(SWEEP_SIZES, clusters)]
            )
            self._sweep_ref = [
                [w, r.ok, r.total_time_s, r.states, r.error] for w, r in zip(SWEEP_SIZES, results)
            ]
        served = [
            [r["workers"], r["ok"], r["total_time_s"], r["states"], r["error"]] for r in payload["results"]
        ]
        if served != self._sweep_ref:
            return "pooled sweep differs from a serial SweepRunner.evaluate of the same candidates"
        if not payload.get("pool_used"):
            return "the sweep did not run on the pool"
        return None

    def _check_ensemble(self, payload: dict) -> Optional[str]:
        if self._ensemble_ref is None:
            ensemble = EnsembleConfig(
                replications=ENSEMBLE_REPLICATIONS,
                min_replications=8,
                base_seed=self._seed,
                exemplars=1,
                processes=1,
            )
            result = EnsembleRunner(paper_cluster(), config=SimulationConfig(), ensemble=ensemble).run(
                self._catalogue[ENSEMBLE_WORKLOAD]
            )
            self._ensemble_ref = {
                "replications": result.replications,
                "base_seed": result.base_seed,
                "makespan": result.makespan,
                "quantiles": {str(q): v for q, v in result.quantiles.items()},
                "ci": list(result.ci),
            }
        served = {k: payload.get(k) for k in self._ensemble_ref}
        if served != self._ensemble_ref:
            return "pooled ensemble differs from a serial EnsembleRunner with the same seed and config"
        if not payload.get("pool_used"):
            return "the ensemble did not run on the pool"
        return None

    def end_pass(self, index: int, traced: bool) -> None:
        if index + 1 == RSS_PASSES:
            self._rss_mb = self._server.peak_rss_mb()
        if not traced:
            return
        after = self._server_metrics()
        before = self._before

        def delta(key: str) -> float:
            read = lambda snap: float(snap.get(key, {}).get("value", 0.0))  # noqa: E731
            return read(after) - read(before)

        computed = delta("service.estimates{served=computed}")
        if computed != len(self._catalogue):
            self._problems.append(f"service counted {computed} computed estimates, sent {len(self._catalogue)}")
        replications = delta("ensemble.replications")
        if replications != ENSEMBLE_REPLICATIONS:
            self._problems.append(f"service counted {replications} replications, asked {ENSEMBLE_REPLICATIONS}")
        hits, misses = delta("boe.cache.hits"), delta("boe.cache.misses")
        totals = self._spans.totals()
        p = self._pass
        self.pass_layers.append(
            {
                "core.boe_ms": totals.get("core.boe", 0.0) * 1000.0,
                "core.alg1_ms": (totals.get("core.estimate", 0.0) - totals.get("core.boe", 0.0)) * 1000.0,
                "core.boe_system_solves": delta("boe.system_solves"),
                "core.boe_cache_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
                "core.alg1_iterations": delta("est.iterations"),
                "service.http_ms_p50": percentile(p["http"], 0.5),
                "service.model_ms_p50": percentile(p["model"], 0.5),
                "service.job_queue_ms": sum(p["queue"]),
                "service.sweep_ms": sum(p["sweep"]),
                "service.ensemble_ms": sum(p["ensemble"]),
                "pool.chunks_pooled": delta("pool.chunks{path=pooled,pool=service}"),
                "pool.chunks_serial": delta("pool.chunks{path=serial,pool=service}"),
                "pool.shm_bytes": delta("pool.shm_bytes"),
            }
        )

    # -- set-up, shutdown ------------------------------------------------------

    def setup(self) -> Dict[str, float]:
        """Start a fresh server, wait for ``/healthz``, stop it."""
        probe = Server(self.root)
        self._problems.extend(probe.stop())
        out = {"setup_s": probe.ready_s, "serve_ready_ms": probe.ready_s * 1000.0}
        if self._trace:
            imported = setup_probe(self.root, "import")
            out.update(import_ms=imported["import_ms"], inputs_ms=0.0)
        return out

    def peak_rss_mb(self) -> float:
        """Server peak after ``RSS_PASSES`` passes (or the run, if shorter)."""
        return self._rss_mb if self._rss_mb is not None else self._server.peak_rss_mb()

    def finish(self, tally) -> List[str]:
        return list(self._problems)


    def close(self) -> List[str]:
        return self._server.stop()

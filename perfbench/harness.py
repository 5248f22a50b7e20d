"""Measurement core shared by the three workloads.

A run makes k passes over a workload's operation list.  Every pass runs
each operation once, in an order drawn from the run's seed, so each
operation's k samples are spread over the whole run.

The shared host this was built on switches between a fast and a slow
state (about 2x apart) every few seconds, so no statistic of raw wall
times repeats from run to run: a run that happens to see no fast state
reads 20-30% slower (README.md has the figures).  Each sample is
therefore taken on the host's current speed: a fixed calibration (three
small kernels that call no program code) runs right before and right
after every operation, and the sample is the operation's wall time times
``CAL_REF_S`` over the geometric mean of the two calibrations.  Values
read as wall time on this host in its fast state.  An operation's time is
the median of its k calibrated samples.

The benchmark process and every process it starts run on one CPU, so
the calibration measures the CPU the operation ran on, and no operation
migrates between CPUs of different speeds or waits on the other CPU's
neighbours.

Checks run outside the timed call.  An operation whose output is wrong,
or that raises, counts as failed and contributes no sample.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

#: The tail percentile reported beside the median, and the number of
#: operations that must lie above it for it to be a tail at all.
TAIL_Q = 0.8
MIN_ABOVE_TAIL = 10


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def ops_above(n: int, q: float) -> int:
    """How many of ``n`` sorted values lie strictly above the ``q`` rank."""
    return n - 1 - math.floor(q * (n - 1))


def require_tail(n: int, q: float = TAIL_Q) -> None:
    """Refuse an operation list too short for its tail percentile."""
    if ops_above(n, q) < MIN_ABOVE_TAIL:
        raise ValueError(
            f"{n} operations leave {ops_above(n, q)} above p{q * 100:g}; "
            f"need at least {MIN_ABOVE_TAIL}"
        )


def op_times(samples: Dict[str, List[float]]) -> Dict[str, float]:
    """Each operation's time: the median of its calibrated samples.
    Operations with no sample (all attempts failed) drop out."""
    return {name: statistics.median(times) for name, times in samples.items() if times}


def end_to_end(per_op: Dict[str, float]) -> Dict[str, float]:
    """``op_ms_p50``, ``op_ms_p80`` and ``ops_per_s`` of per-operation times."""
    require_tail(len(per_op))
    times = list(per_op.values())
    return {
        "op_ms_p50": percentile(times, 0.5) * 1000.0,
        "op_ms_p80": percentile(times, TAIL_Q) * 1000.0,
        "ops_per_s": len(times) / sum(times),
    }


# -- operations and their accounting ------------------------------------------


@dataclass
class Op:
    """One timed call and the check of its output.

    ``check`` returns ``None`` for a correct output, else a one-line
    description of what is wrong.  ``before`` runs untimed just ahead of
    the call (e.g. to clear a memo the operation must not find warm).
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    before: Optional[Callable[[], None]] = None


class Tally:
    """Attempted and failed operations, and the samples of the ones that
    passed, split by whether the pass was traced."""

    def __init__(self) -> None:
        self.attempts: Dict[str, int] = {}
        self.failures: Dict[str, int] = {}
        self.samples: Dict[bool, Dict[str, List[float]]] = {False: {}, True: {}}
        self.problems: List[str] = []

    def record(self, name: str, seconds: float, problem: Optional[str], traced: bool) -> None:
        self.attempts[name] = self.attempts.get(name, 0) + 1
        if problem is None:
            self.samples[traced].setdefault(name, []).append(seconds)
        else:
            self.failures[name] = self.failures.get(name, 0) + 1
            self.problems.append(f"{name}: {problem}")

    def fail_all(self, name: str, problem: str) -> None:
        """A per-run check found ``name`` wrong: every attempt of it failed."""
        self.failures[name] = self.attempts.get(name, 0)
        for samples in self.samples.values():
            samples.pop(name, None)
        self.problems.append(f"{name}: {problem}")

    @property
    def attempted(self) -> int:
        return sum(self.attempts.values())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


# -- host-speed calibration ---------------------------------------------------

#: The calibration's duration on the reference host in its fast state
#: (its 5th percentile over half a minute there).
CAL_REF_S = 0.25e-3
#: A calibration older than this (a long check ran since) is re-taken
#: before the next operation.
RECALIBRATE_S = 0.005


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


_ARRAY = np.arange(1024.0)


def _interpreter_kernel() -> float:
    acc, table = 0.0, {}
    for i in range(1250):
        k = i & 255
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += table[k] % 7.0
    return acc


def _allocation_kernel() -> list:
    table = {}
    for i in range(500):
        table[(i & 511, i & 3)] = _Pair(i, (i & 63, float(i)))
    return sorted(table.values(), key=lambda p: p.value[1])


def _numpy_kernel() -> np.ndarray:
    a = _ARRAY.copy()
    for _ in range(35):
        a = np.sqrt(a * 1.0001 + 1.0)
        a[:128] = a[np.argsort(a[:128])]
    return a


def calibrate() -> float:
    """The current speed of the CPU this process is pinned to, as seconds
    for a fixed amount of work.

    Geometric mean of three kernels that stand for the program's mix
    (interpreter loops over dicts, object allocation, small numpy arrays).
    None of them touches program code, so a change to the program cannot
    move them.
    """
    logs = []
    for kernel in (_interpreter_kernel, _allocation_kernel, _numpy_kernel):
        t = time.perf_counter()
        kernel()
        logs.append(math.log(time.perf_counter() - t))
    return math.exp(sum(logs) / len(logs))


def pin_to_one_cpu() -> None:
    """Pin this process to the first CPU it may use; children inherit it."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# -- benchmark-side spans -----------------------------------------------------


class Spans:
    """Spans the benchmark records around its calls into the program.

    Each record is ``(name, parent index, start, end)``; they stay in
    memory and are summed per name by :meth:`totals`.
    """

    def __init__(self) -> None:
        self.records: List[Tuple[str, int, float, float]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        self.records.append((name, parent, time.perf_counter(), math.nan))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            _, _, start, _ = self.records[index]
            self.records[index] = (name, parent, start, time.perf_counter())

    def totals(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, _, start, end in self.records:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def clear(self) -> None:
        self.records.clear()


def counter_delta(after: Dict[str, Dict], before: Dict[str, Dict], key: str) -> float:
    """Change of a counter (``value``) or histogram (``sum``) between two
    registry snapshots; an instrument absent from both reads 0."""

    def read(snapshot: Dict[str, Dict]) -> float:
        image = snapshot.get(key)
        if image is None:
            return 0.0
        return float(image.get("value", image.get("sum", 0.0)) or 0.0)

    return read(after) - read(before)


def count_delta(after: Dict[str, Dict], before: Dict[str, Dict], key: str) -> float:
    """Change of a histogram's observation count between two snapshots."""
    return float(after.get(key, {}).get("count", 0)) - float(
        before.get(key, {}).get("count", 0)
    )


# -- fresh-interpreter set-up probes ------------------------------------------


def child_env(root: str) -> Dict[str, str]:
    """Environment for a child interpreter that must import the checkout's
    ``src/repro`` and nothing else."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def setup_probe(root: str, workload: str, timeout_s: float = 60.0) -> Dict[str, float]:
    """Time one fresh interpreter from spawn to inputs built.

    Returns ``setup_s`` (wall time measured here, interpreter start
    included) and the child's own ``import_ms`` / ``inputs_ms`` split.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py"), workload],
        stdout=subprocess.PIPE,
        env=child_env(root),
        cwd=root,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout_s)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe for {workload} exited {proc.returncode}")
    child = json.loads(line)
    return {"setup_s": wall, "import_ms": child["import_ms"], "inputs_ms": child["inputs_ms"]}


# -- the run loop -------------------------------------------------------------


class Workload:
    """What a workload supplies to :func:`run`.

    ``make_pass`` builds one pass's operations (fresh inputs, outside any
    timing); ``end_pass`` appends the pass's layer figures to
    ``pass_layers`` when the pass was traced; ``finish`` runs the
    once-per-run checks; ``setup`` times one fresh set-up.
    """

    name = ""
    #: Passes come in groups of this many; a run ends only after a whole
    #: group.
    group = 1

    def __init__(self, root: str):
        self.root = root
        self.pass_layers: List[Dict[str, float]] = []

    def order_seed(self, seed: int) -> int:
        """The seed of the pass order for a run of seed ``seed``."""
        return seed

    def make_pass(self, index: int, traced: bool) -> List[Op]:
        raise NotImplementedError

    def end_pass(self, index: int, traced: bool) -> None:
        pass

    def setup(self) -> Dict[str, float]:
        """A fresh interpreter imports ``repro`` and builds the inputs."""
        return setup_probe(self.root, self.name)

    def finish(self, tally: Tally) -> List[str]:
        """Per-run checks; failures that blame an operation go to
        ``tally.fail_all``; other problems are returned."""
        return []

    def peak_rss_mb(self) -> float:
        """Peak resident memory of this process, which runs the program."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layers(self) -> Dict[str, float]:
        """Median over the traced passes of each per-pass layer figure."""
        keys = self.pass_layers[0].keys() if self.pass_layers else ()
        return {k: statistics.median(p[k] for p in self.pass_layers) for k in keys}

    def close(self) -> List[str]:
        """Release what the workload started; returns problems found."""
        return []


@dataclass
class RunResult:
    tally: Tally
    passes: int
    setups: List[Dict[str, float]]
    problems: List[str]


def run(
    workload: Workload,
    seconds: float,
    seed: int,
    traced: bool,
    setups: int,
    min_passes: int,
) -> RunResult:
    """Run whole groups of passes for about ``seconds``, with ``setups``
    fresh set-ups spread over the run.  A traced run alternates untraced
    and traced passes so both see the same host conditions."""
    rng = random.Random(workload.order_seed(seed))
    tally = Tally()
    probes: List[Dict[str, float]] = []
    t0 = time.perf_counter()
    pass_s: List[float] = []
    group_s: List[float] = []
    index = 0
    while True:
        elapsed = time.perf_counter() - t0
        if len(probes) < setups and elapsed >= len(probes) * seconds / setups:
            probes.append(calibrated_setup(workload))
            continue
        traced_pass = traced and index % 2 == 1
        start = time.perf_counter()
        ops = workload.make_pass(index, traced_pass)
        cal_before, cal_at = calibrate(), time.perf_counter()
        for op in rng.sample(ops, len(ops)):
            if op.before is not None:
                op.before()
            if time.perf_counter() - cal_at > RECALIBRATE_S:
                cal_before = calibrate()
            t = time.perf_counter()
            try:
                out = op.call()
                problem = None
            except Exception as exc:  # an operation that raises has failed
                problem = f"raised {exc!r}"
            dt = time.perf_counter() - t
            cal_after, cal_at = calibrate(), time.perf_counter()
            if problem is None:
                problem = op.check(out)
            sample = dt * CAL_REF_S / math.sqrt(cal_before * cal_after)
            tally.record(op.name, sample, problem, traced_pass)
            cal_before = cal_after
        workload.end_pass(index, traced_pass)
        pass_s.append(time.perf_counter() - start)
        index += 1
        if index % workload.group:
            continue
        group_s.append(sum(pass_s[-workload.group :]))
        if index < min_passes:
            continue
        remaining = setups - len(probes)
        probe_s = max((p["wall_s"] for p in probes), default=2.0)
        finish_at = time.perf_counter() - t0 + statistics.median(group_s) + remaining * probe_s
        if finish_at > seconds:
            break
    while len(probes) < setups:
        probes.append(calibrated_setup(workload))
    problems = workload.finish(tally)
    return RunResult(tally, index, probes, problems)


def calibrated_setup(workload: Workload) -> Dict[str, float]:
    """One fresh set-up of ``workload``, its wall time taken on the host's
    speed as calibrated right before and after it."""
    cal_before = calibrate()
    out = workload.setup()
    cal_after = calibrate()
    out["wall_s"] = out["setup_s"]
    out["setup_s"] *= CAL_REF_S / math.sqrt(cal_before * cal_after)
    return out

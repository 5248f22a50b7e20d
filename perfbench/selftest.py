"""Self-tests of the benchmark: its statistics, its accounting, its checks.

Run from the root of a checkout::

    python3 perfbench/selftest.py

The last test runs ``run.py --smoke`` (every workload and its checks on
cut inputs, about half a minute).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
from harness import Op, Tally  # noqa: E402


class FakeWorkload(harness.Workload):
    """Operations whose outputs and checks the test chooses."""

    name = "fake"

    def __init__(self, ops_per_pass, wrong=()):
        super().__init__(ROOT)
        self.names = [f"op{i}" for i in range(ops_per_pass)]
        self.wrong = set(wrong)
        self.order = []

    def make_pass(self, index, traced):
        def call(name):
            self.order.append((index, name))
            return "wrong" if name in self.wrong else "right"

        return [
            Op(n, lambda n=n: call(n), lambda out: None if out == "right" else f"got {out}")
            for n in self.names
        ]

    def setup(self):
        return {"setup_s": 1.0}


class Statistics(unittest.TestCase):
    def test_percentile_interpolates_like_numpy(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(harness.percentile(values, 0.5), 3.0)
        self.assertAlmostEqual(harness.percentile(values, 0.8), 4.2)
        self.assertEqual(harness.percentile([7.0], 0.8), 7.0)

    def test_tail_needs_ten_operations_above_it(self):
        self.assertEqual(harness.ops_above(50, 0.8), 10)
        self.assertEqual(harness.ops_above(58, 0.8), 12)
        self.assertEqual(harness.ops_above(46, 0.8), 9)
        harness.require_tail(50)
        with self.assertRaises(ValueError):
            harness.require_tail(46)

    def test_end_to_end_uses_each_operations_median_sample(self):
        samples = {f"op{i}": [0.002 * (i + 1), 0.001 * (i + 1), 0.009 * (i + 1)] for i in range(50)}
        per_op = harness.op_times(samples)
        self.assertEqual(per_op["op0"], 0.002)
        metrics = harness.end_to_end(per_op)
        self.assertAlmostEqual(metrics["op_ms_p50"], 51.0)
        self.assertAlmostEqual(metrics["ops_per_s"], 50 / sum(0.002 * (i + 1) for i in range(50)))
        self.assertNotIn("gone", harness.op_times({"gone": []}))

    def test_samples_are_taken_on_the_calibrated_host_speed(self):
        out = harness.run(FakeWorkload(3), seconds=0.0, seed=1, traced=False, setups=1, min_passes=1)
        setup = out.setups[0]
        self.assertEqual(setup["wall_s"], 1.0)
        self.assertGreater(setup["setup_s"], 0.0)
        self.assertNotEqual(setup["setup_s"], setup["wall_s"])

    def test_passes_interleave_every_operation_in_seeded_order(self):
        runs = []
        for _ in range(2):
            wl = FakeWorkload(5)
            out = harness.run(wl, seconds=0.0, seed=7, traced=False, setups=1, min_passes=4)
            runs.append(wl.order)
            self.assertEqual(out.passes, 4)
            for p in range(4):
                self.assertEqual(sorted(n for i, n in wl.order if i == p), wl.names)
            self.assertEqual(len(out.tally.samples[False]["op0"]), 4)
        self.assertEqual(runs[0], runs[1])
        orders = {tuple(n for i, n in runs[0] if i == p) for p in range(4)}
        self.assertGreater(len(orders), 1)

    def test_runs_end_after_whole_groups_in_a_fixed_order(self):
        orders = []
        for seed in (1, 2):
            wl = FakeWorkload(5)
            wl.group = 3
            wl.order_seed = lambda seed: 0
            out = harness.run(wl, seconds=0.0, seed=seed, traced=False, setups=1, min_passes=1)
            self.assertEqual(out.passes, 3)
            orders.append(wl.order)
        self.assertEqual(orders[0], orders[1])

    def test_traced_runs_alternate_passes(self):
        out = harness.run(FakeWorkload(3), seconds=0.0, seed=1, traced=True, setups=1, min_passes=4)
        self.assertEqual(len(out.tally.samples[False]["op0"]), 2)
        self.assertEqual(len(out.tally.samples[True]["op0"]), 2)


class Accounting(unittest.TestCase):
    def test_wrong_output_counts_as_failed_every_pass(self):
        out = harness.run(FakeWorkload(4, wrong={"op2"}), seconds=0.0, seed=3, traced=False, setups=1, min_passes=3)
        self.assertEqual(out.tally.attempted, 12)
        self.assertEqual(out.tally.failed, 3)
        self.assertNotIn("op2", out.tally.samples[False])

    def test_raising_operation_counts_as_failed(self):
        wl = FakeWorkload(2)
        ops = wl.make_pass

        def raising(index, traced):
            made = ops(index, traced)
            made[0].call = lambda: 1 / 0
            return made

        wl.make_pass = raising
        out = harness.run(wl, seconds=0.0, seed=3, traced=False, setups=1, min_passes=2)
        self.assertEqual((out.tally.attempted, out.tally.failed), (4, 2))

    def test_per_run_check_fails_every_attempt(self):
        tally = Tally()
        for _ in range(3):
            tally.record("a", 0.1, None, False)
            tally.record("b", 0.1, None, False)
        tally.fail_all("a", "disagrees with its reference")
        self.assertEqual((tally.attempted, tally.failed), (6, 3))
        self.assertNotIn("a", tally.samples[False])


class Checkers(unittest.TestCase):
    """Deliberately wrong outputs fed to the workloads' own checkers."""

    def test_estimate_whose_states_do_not_sum_to_its_total(self):
        from whatif import estimate_problem

        states = [SimpleNamespace(duration=4.0), SimpleNamespace(duration=5.0)]
        self.assertIsNone(estimate_problem(SimpleNamespace(total_time=9.0, states=states)))
        self.assertIsNotNone(estimate_problem(SimpleNamespace(total_time=10.0, states=states)))
        self.assertIsNotNone(estimate_problem(SimpleNamespace(total_time=float("nan"), states=[])))

    def test_simulation_missing_a_task_fails_through_the_harness(self):
        from repro import paper_cluster, simulate
        from simulate import task_count
        from repro.workloads import named_workflows

        workflow = named_workflows(0.05)["tpch"]
        expected = task_count(workflow)
        result = simulate(workflow, paper_cluster())
        short = SimpleNamespace(task_count=result.task_count - 1, makespan=result.makespan)

        def check(out):
            return None if out.task_count == expected else f"{out.task_count} tasks"

        wl = FakeWorkload(0)
        wl.make_pass = lambda index, traced: [Op("sim:tpch", lambda: short, check)]
        out = harness.run(wl, seconds=0.0, seed=1, traced=False, setups=1, min_passes=2)
        self.assertEqual((out.tally.attempted, out.tally.failed), (2, 2))


class Smoke(unittest.TestCase):
    def test_every_workload_runs_and_passes_its_checks(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = [line.split(" ", 1) for line in proc.stdout.splitlines() if line[:1].isalpha()]
        self.assertEqual([name for name, _ in lines], ["whatif", "simulate", "serve"])
        for _, body in lines:
            result = json.loads(body)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of wres).

    python3 perfbench/selftest.py

Run from the root of a checkout.  The last test runs one short timed run of
boundary-tables, so the whole file takes about ten seconds.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

import checks
import run
import workloads

ROOT = Path.cwd()


def _op(name):
    return next(op for op in workloads.fixed_ops() if op["name"] == name)


class ReferenceTests(unittest.TestCase):
    def setUp(self):
        self.refs = checks.load_references()

    def test_every_fixed_op_has_a_reference(self):
        self.assertEqual(sorted(op["ref"] for op in workloads.fixed_ops()), sorted(self.refs))

    def test_reference_passes_its_own_checks(self):
        for op in workloads.fixed_ops():
            with self.subTest(op=op["name"]):
                self.assertEqual(checks.check_op(op, 0, self.refs[op["ref"]], self.refs), [])

    def test_corrupted_reference_fails_the_op(self):
        op = _op("verify_dim4_11")
        good = self.refs[op["ref"]]
        corrupted = dict(self.refs)
        corrupted[op["ref"]] = good.replace(b'"3/4"', b'"3/5"', 1)
        self.assertNotEqual(corrupted[op["ref"]], good)
        reasons = checks.check_op(op, 0, good, corrupted)
        self.assertTrue(any("differs from reference" in r for r in reasons), reasons)

    def test_missing_reference_fails_the_op(self):
        op = _op("heat_closed")
        refs = {k: v for k, v in self.refs.items() if k != op["ref"]}
        self.assertTrue(checks.check_op(op, 0, self.refs[op["ref"]], refs))

    def test_nonzero_exit_and_false_check_fail(self):
        op = _op("verify_dim3_11")
        report = self.refs[op["ref"]]
        self.assertTrue(checks.check_op(op, 1, report, self.refs))
        broken = json.loads(report)
        broken["checks"][0]["pass"] = False
        self.assertTrue(checks.check_op(dict(op, ref=None), 0, json.dumps(broken).encode(), self.refs))


class IndependentCheckTests(unittest.TestCase):
    def setUp(self):
        self.refs = checks.load_references()

    def test_rw_quadrature_matches_the_known_value(self):
        a0 = checks.rw_a0({"warp": ["fixed", ["cosh(t)"]], "interval": [-0.5, 0.5], "base_vol": 1.0})
        self.assertAlmostEqual(a0, 0.05757692108194564, places=15)

    def test_heat_a0_known_value(self):
        # p=2, q=1: total_dim 8, n 5, a0 = 1/4 pi^-5/2
        report = json.loads(self.refs["heat_bounded"])
        self.assertEqual(report["coefficients"]["a0"]["coef"], "1/4")
        self.assertEqual(report["coefficients"]["a0"]["unit"], ["pi^-5/2"])
        self.assertIsNone(checks.check_heat(report, {"p": 2, "q": 1, "vol": "1"}))

    def test_wrong_independent_checks_are_failures(self):
        cases = [
            (_op("heat_closed"), {"p": 2, "q": 2, "vol": "3"}),
            (_op("rw_fixed1"), {"warp": ["fixed", ["cosh(t)"]], "interval": [0.0, 1.0], "base_vol": 1.0}),
            (_op("oracle_fixed"), {"count": 100}),
        ]
        for op, params in cases:
            with self.subTest(op=op["name"]):
                wrong = dict(op, params=params)
                reasons = checks.check_op(wrong, 0, self.refs[op["ref"]], self.refs)
                self.assertEqual(len(reasons), 1, reasons)

    def test_a_check_that_cannot_run_is_a_failure(self):
        op = dict(_op("rw_fixed0"), params={"warp": ["no-such-family", []]})
        self.assertTrue(checks.check_op(op, 0, self.refs[op["ref"]], self.refs))
        op = dict(_op("rw_fixed0"), check="no-such-check")
        self.assertTrue(checks.check_op(op, 0, self.refs[op["ref"]], self.refs))

    def test_seeded_oracle_failures_are_counted(self):
        report = json.loads(self.refs["oracle_fixed"])
        report["suites"][1]["failures"] = 2
        self.assertIsNotNone(checks.check_oracle(report, {"count": 50}))


class SeedTests(unittest.TestCase):
    def blocks(self, workload, seed):
        return [workloads.block_ops(workload, seed, b) for b in range(3)]

    def test_same_seed_same_ops(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.blocks(workload, 5), self.blocks(workload, 5))

    def test_other_seed_other_ops(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(self.blocks(workload, 5), self.blocks(workload, 6))

    def test_seeded_inputs_differ(self):
        for workload in ("oracle-suites", "warped-heat"):
            def inputs(seed):
                return sorted(json.dumps([op["argv"], op["files"]])
                              for op in workloads.block_ops(workload, seed, 0))
            self.assertNotEqual(inputs(5), inputs(6))

    def test_oracle_strata_partition_the_pool(self):
        seeds = [s for stratum in workloads.ORACLE_STRATA for s in stratum]
        self.assertEqual(sorted(seeds), list(workloads.ORACLE_POOL))

    def test_oracle_blocks_draw_distinct_pool_seeds(self):
        for seed in range(20):
            ops = workloads.block_ops("oracle-suites", seed, 0)
            seeds = {int(op["argv"][2]) for op in ops}
            self.assertEqual(len(seeds), workloads.ORACLE_PER_BLOCK)
            self.assertLessEqual(seeds, set(workloads.ORACLE_POOL))
            self.assertTrue(all(op["ref"] and op["check"] == "oracle" for op in ops))

    def test_seeded_warps_stay_positive(self):
        for seed in range(50):
            for op in workloads.block_ops("warped-heat", seed, 0):
                if op["check"] == "rw" and op["ref"] is None:
                    f = checks.warp_function(op["params"]["warp"])
                    a, b = op["params"]["interval"]
                    self.assertGreater(min(f(a + (b - a) * k / 100) for k in range(101)), 0)


class OutputTests(unittest.TestCase):
    def specs(self, trace):
        return run.load_metric_specs(ROOT, trace)

    def fake_recs(self, workload, mode):
        recs = []
        for block in range(2):
            for i, op in enumerate(workloads.block_ops(workload, 1, block)):
                rec = {"name": op["name"], "metric": op["metric"], "argv0": run.argv0(op), "latency": 0.5 + i / 10, "setup": 0.1,
                       "rss_kb": 20000, "bytes": 100, "reasons": [], "block": block,
                       "scale": 1.0, "stderr": b"import time: 5 | 1000 | wres\n"}
                if mode != "timed":
                    rec["trace"] = {"spans": [["cli.main", 0.0, 0.4, -1],
                                              ["symbols.symbol_jet", 0.1, 0.2, 0]],
                                    "counts": {"symbolic.gr_add": 7},
                                    "distinct": {"symbols.symbol_jet": 1},
                                    "ns": {"symbolic.gr_add": 900.0}, "missing": []}
                recs.append(rec)
        return recs

    def test_timed_metrics_name_every_end_to_end_metric(self):
        for workload in workloads.WORKLOADS:
            values, _ = run.timed_metrics(self.fake_recs(workload, "timed"), [0, 1])
            self.assertEqual(sorted(values), sorted(self.specs(False)))

    def test_traced_metrics_name_every_per_layer_metric(self):
        for workload in workloads.WORKLOADS:
            timed = self.fake_recs(workload, "timed")
            spans = self.fake_recs(workload, "spans")
            block0 = workloads.block_ops(workload, 1, 0)
            imports = {r["argv0"]: r for r in timed}
            values, _ = run.traced_metrics([timed], [spans], spans, list(imports.values()), block0)
            self.assertLessEqual(set(self.specs(True)), set(values))
            self.assertEqual(values["symbols.symbol_jet.calls"], 2 * len(block0))
            self.assertAlmostEqual(values["cli.main.self_s"], 0.3 * 2 * len(block0))

    def test_import_costs_parse_importtime(self):
        text = (b"import time: 10 | 2000 | wres\n"
                b"import time: 10 | 30 |   wres.symbolic\n"
                b"import time: 10 | 500000 | scipy\n"
                b"import time: 10 | 100000 |   numpy\n"
                b"import time: 10 | 300000 | scipy.integrate\n")
        self.assertEqual(run.import_costs(text), {"wres": 0.002, "numpy": 0.1, "scipy": 0.8})

    def test_real_run_prints_every_metric_with_its_unit(self):
        proc = subprocess.run(
            [sys.executable, str(Path(run.__file__)), "--workload", "boundary-tables",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, self.specs(False))
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_a_worker_past_the_run_limit_is_killed(self):
        limit = run.RUN_LIMIT_S
        run.RUN_LIMIT_S = 0.2
        try:
            with run.Runner(ROOT, "oracle-suites", 1) as runner:
                with self.assertRaises(run.RunTimeout):
                    runner.spawn("timed", _op("oracle_fixed"))
        finally:
            run.RUN_LIMIT_S = limit

    def test_peak_rss_is_the_workers_own(self):
        ballast = b"x" * (64 << 20)  # resident in this process, not in the worker
        with run.Runner(ROOT, "boundary-tables", 1) as runner:
            rec = runner.spawn("timed", _op("verify_dim3_11"))
        self.assertEqual(rec["reasons"], [])
        self.assertLess(rec["rss_kb"], len(ballast) // 1024)
        self.assertNotIn(b"#perfbench-hwm", rec["stderr"])

    def test_refuses_to_run_without_a_checkout(self):
        proc = subprocess.run(
            [sys.executable, str(Path(run.__file__)), "--workload", "boundary-tables",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=Path(run.__file__).parent, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()

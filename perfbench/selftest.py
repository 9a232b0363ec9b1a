#!/usr/bin/env python3
"""Self-tests of the benchmark harness: python3 perfbench/selftest.py"""

from __future__ import annotations

import dataclasses
import json
import time
import unittest

import bench
import oracle
import run
import spans


class InputTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in bench.WORKLOADS:
            self.assertEqual(bench.make_inputs(workload, 7), bench.make_inputs(workload, 7))

    def test_different_seeds_different_inputs(self):
        for workload in bench.WORKLOADS:
            self.assertNotEqual(bench.make_inputs(workload, 7), bench.make_inputs(workload, 8))

    def test_every_cell_once_per_pass(self):
        inputs = bench.make_inputs("solve_sweep", 3)
        half = len(inputs) // bench.PASSES["solve_sweep"]
        for p in range(bench.PASSES["solve_sweep"]):
            cells = {(c.family, c.sector, c.two_j) for c in inputs[p * half:(p + 1) * half]}
            self.assertEqual(len(cells), half)


class OracleTests(unittest.TestCase):
    def test_perturbed_eigenvalue_is_rejected(self):
        case = bench.Case("sextic", "even", 3, 0.5)
        outcome = bench.run_solve(case)
        self.assertEqual(outcome.label, bench.OK)
        clean = oracle.check_run("solve_sweep", [case], [outcome])
        self.assertEqual((clean.wrong, clean.problems), (0, []))

        first = outcome.value[0]
        bad = dataclasses.replace(first, energy_base=first.energy_base * (1 + 1e-6))
        perturbed = dataclasses.replace(outcome, value=(bad, *outcome.value[1:]))
        verdict = oracle.check_run("solve_sweep", [case], [perturbed])
        self.assertEqual(verdict.wrong, 1)
        self.assertGreater(verdict.wrong_frac, clean.wrong_frac)

    def test_scan_output_is_checked_per_mu(self):
        argv = ("scan", "--family", "sextic", "--two-j", "1", "--sector", "odd", "--mu-range", "0:0.2:0.1")
        op = bench.CliOp("scan", bench.Case("sextic", "odd", 1, None), argv)
        verdict = oracle.check_run("cli_mix", [op], [bench.run_cli_in_process(op)])
        self.assertEqual((verdict.levels, verdict.wrong, verdict.problems), (6, 0, []))


class ClassifierTests(unittest.TestCase):
    def test_morse_two_j_12_fails_the_residual_gate(self):
        self.assertEqual(bench.run_solve(bench.Case("morse", None, 12, 1.0)).label, "residual_gate")

    def test_cli_usage_error_is_exit1(self):
        op = bench.CliOp("solve", bench.Case("morse", None, 0, 1.0),
                         ("solve", "--family", "morse", "--two-j", "-1", "--mu", "1"))
        self.assertEqual(bench.run_cli_in_process(op).label, "exit1")

    def test_unclassified_error_aborts(self):
        with self.assertRaises(bench.BenchAbort):
            bench.classify(bench.QesError("raised outside any qesolve layer"))


class PercentileTests(unittest.TestCase):
    def test_fixed_sample(self):
        # Reference values from scipy.stats.mstats.hdquantiles.
        sample = [40.0, 15.0, 50.0, 20.0, 35.0]
        self.assertAlmostEqual(bench.percentile(sample, 50), 32.1152, places=4)
        self.assertAlmostEqual(bench.percentile(sample, 75), 43.06065497, places=4)

    def test_symmetric_and_constant_samples(self):
        self.assertAlmostEqual(bench.percentile([float(x) for x in range(1, 10)], 50), 5.0, places=9)
        self.assertAlmostEqual(bench.percentile([2.5] * 7, 75), 2.5, places=12)

    def test_large_sample_matches_the_order_statistic(self):
        sample = [float(x) for x in range(1001)]
        self.assertAlmostEqual(bench.percentile(sample, 75), 750.0, delta=0.5)


class TracerTests(unittest.TestCase):
    def test_expected_names_cover_every_wrapped_name(self):
        self.assertEqual(set().union(*spans.EXPECTED.values()), set(spans.WRAPPED))

    def test_self_times_sum_to_root_duration(self):
        tracer = spans.Tracer()
        inner = tracer.wrap("inner", lambda: time.sleep(0.002))

        def outer():
            time.sleep(0.001)
            inner()
            inner()

        tracer.wrap("outer", outer)()
        own = tracer.own_times()
        root = tracer.spans[0]
        self.assertAlmostEqual(sum(own), root.end - root.start, delta=1e-9)
        self.assertGreater(tracer.self_times()["inner"], 0.004)

    def test_wrappers_are_removed_afterwards(self):
        before = bench.spectrum.solve_model
        with spans.Tracer().installed():
            self.assertIsNot(bench.spectrum.solve_model, before)
        self.assertIs(bench.spectrum.solve_model, before)


class CountTests(unittest.TestCase):
    def test_attempted_and_failed_do_not_depend_on_run_length(self):
        inputs = [bench.Case("sextic", "even", tj % 3, 0.5) for tj in range(8)]
        inputs.append(bench.Case("morse", None, 12, 1.0))
        counts = set()
        for seconds in (0.0, 0.5):
            args = run.parse_args(["--workload", "solve_sweep", "--seed", "1", "--seconds", str(seconds)])
            problems = []
            _, attempted, failed = run.untraced_run(bench, args, inputs, [], problems)
            self.assertEqual(problems, [])
            counts.add((attempted, failed))
        self.assertEqual(counts, {(9, 1)})


class BenchmarkFileTests(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(bench.WORKLOADS))


if __name__ == "__main__":
    unittest.main()

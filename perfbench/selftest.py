"""Self-tests of the benchmark. Run: python3 perfbench/selftest.py

The traced-pass test runs real chebgcn commands and takes about 15 s.
"""

import json
import os
import shutil
import unittest

import run
import workloads


class WorkDir(unittest.TestCase):
    def setUp(self):
        self.work = run.WORK_ROOT / f"selftest-{os.getpid()}-{self._testMethodName}"
        self.work.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)
        if run.WORK_ROOT.is_dir() and not any(run.WORK_ROOT.iterdir()):
            run.WORK_ROOT.rmdir()


class TestCohortGenerator(WorkDir):
    def test_same_seed_same_bytes_other_seed_differs(self):
        for name, seed in (("a", 7), ("b", 7), ("c", 8)):
            workloads.write_cohort(self.work / name, seed)
        for csv in ("features.csv", "meta.csv"):
            a, b, c = ((self.work / d / csv).read_bytes() for d in "abc")
            self.assertEqual(a, b, csv)
            self.assertNotEqual(a, c, csv)


class TestSelfTimes(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            ["outer", 0.0, 10.0, -1, 0, 0],
            ["inner", 1.0, 4.0, 0, 0, 5],
            ["leaf", 2.0, 3.0, 1, 0, 0],
            ["inner", 5.0, 6.0, 0, 0, 2],
        ]
        totals, spent = run.self_times([{"spans": spans, "peaks": {}}])
        self.assertEqual(totals["outer"], [6.0, 1, 0])
        self.assertEqual(totals["inner"], [3.0, 2, 7])
        self.assertEqual(totals["leaf"], [1.0, 1, 0])
        self.assertEqual(spent, 10.0)


class TestCalibration(unittest.TestCase):
    def test_each_step_is_divided_by_its_own_calibration(self):
        p = run.Pass("plain", walls=[1.0, 6.0], calibrations=[0.5, 2.0], kinds=["graph", "train"])
        unit = run.CALIBRATION_S
        self.assertAlmostEqual(p.norm("graph"), 2.0 * unit)
        self.assertAlmostEqual(p.norm("train"), 3.0 * unit)
        self.assertAlmostEqual(p.norm(), 5.0 * unit)
        self.assertEqual(p.wall, 7.0)


class TestCorrectnessGate(WorkDir):
    STEP = workloads.Step("train", (), "result")

    def check(self, runner, summary):
        out = self.work / "result"
        out.mkdir(exist_ok=True)
        (out / "summary.json").write_text(json.dumps(summary))
        return runner.check_outputs(0, self.STEP, run.Pass("plain"))

    def test_reference_divergence_and_changed_files_are_flagged(self):
        result = {"accuracies": [90.0, 80.0], "epochs": [5, 5], "failed_folds": []}
        runner = run.Runner([self.STEP], self.work, {}, {"model": [90.0, 80.0]})
        self.assertEqual(self.check(runner, {"result": result}), [])
        problems = self.check(runner, {"result": dict(result, accuracies=[90.0, 85.0])})
        self.assertEqual(len(problems), 2)
        self.assertIn("differ from the first pass", problems[0])
        self.assertIn("reference", problems[1])

        fresh = run.Runner([self.STEP], self.work, {}, None)
        problems = self.check(fresh, {"result": dict(result, failed_folds=[1])})
        self.assertEqual(len(problems), 1)
        self.assertIn("diverged", problems[0])


class TestTracedPass(WorkDir):
    def test_traced_pass_is_bit_identical_and_self_times_fit(self):
        reference = json.loads(run.REFERENCE.read_text())["cv-deep"]
        runner = run.Runner(workloads.prepare_cv_deep(self.work, run.DEFAULT_SEED), self.work, run.child_env(), reference)
        plain = runner.run_pass("plain")
        traced = runner.run_pass("spans")
        self.assertEqual(runner.failed, 0)  # includes: traced files equal untraced files
        self.assertEqual(plain.epochs, traced.epochs)
        totals, spent = run.self_times(traced.traces)
        self.assertLessEqual(spent, traced.wall)
        self.assertEqual(totals["cli.main"][1], 2)
        self.assertGreater(totals["graph.chebyshev_apply"][2], 0)


if __name__ == "__main__":
    unittest.main()

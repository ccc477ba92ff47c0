#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

  python3 perfbench/selftest.py           # all, including a small traced run
  python3 perfbench/selftest.py --quick   # skip the tests that build and run

Checks BENCHMARK.json against the benchmark contract, the metric map in
perfbench/layers.json against BENCHMARK.json, that the output check catches
a one-byte change, and (after building) that msol_trace's own checks
pass on small grids: the replayed event queue pops in the schedule's
completion order, the dispatched rank kernel matches the scalar one, and
the traced CSV byte-matches msol_run's.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
QUICK = "--quick" in sys.argv


def load_bench():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    assert os.path.getsize(path) <= 64 * 1024
    return run.load_benchmark()


class ContractTest(unittest.TestCase):
    def test_keys_and_limits(self):
        bench = load_bench()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        self.assertLessEqual(len(bench["command"]), 32)
        self.assertEqual(bench["paths"], ["perfbench"])
        self.assertIn(bench["run_seconds"], range(1, 61))
        self.assertTrue(2 <= len(bench["workloads"]) <= 8)
        self.assertTrue(1 <= len(bench["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(bench["per_layer"]) <= 128)
        for w in bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in bench["end_to_end"]))

    def test_metric_names_and_units(self):
        bench = load_bench()
        names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for x in bench[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_time_budget(self):
        # A full measurement (4 + 22 runs per workload and two cold builds)
        # must fit in 3420 s; one run overruns --seconds by at most ~6 s.
        bench = load_bench()
        runs = 4 + 22 * len(bench["workloads"])
        self.assertLessEqual(runs * (bench["run_seconds"] + 6) + 2 * 120, 3420)

    def test_workloads_and_layer_map(self):
        bench = load_bench()
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        with open(os.path.join(run.HERE, "layers.json"), encoding="utf-8") as f:
            layers = json.load(f)
        self.assertEqual(list(layers), [m["name"] for m in bench["per_layer"]])
        for entry in layers.values():
            self.assertTrue(entry["moves"] and entry["how"])


class InputDrawTest(unittest.TestCase):
    def test_draws_start_at_the_seed_and_never_repeat(self):
        draws = run.input_seeds(run.DEFAULT_SEED)
        self.assertEqual(draws[0], run.DEFAULT_SEED)
        self.assertEqual(len(draws), run.INPUT_DRAWS)
        others = {s for seed in range(2, 50) for s in run.input_seeds(seed)}
        self.assertEqual(len(set(draws)), len(draws))
        self.assertFalse(set(draws) & others)


class OutputCheckTest(unittest.TestCase):
    def reference(self, name):
        with open(os.path.join(run.REFERENCE_DIR, name + ".csv"), encoding="utf-8") as f:
            return f.read()

    def test_reference_passes(self):
        for name in run.WORKLOADS:
            check = run.OutputCheck(name, run.DEFAULT_SEED)
            self.assertEqual(check.check(self.reference(name), 0), 0, name)
            self.assertEqual(check.attempted, len(check.keys))

    def test_one_byte_change_is_caught(self):
        text = self.reference("paper")
        header_end = text.index("\n") + 1
        for offset in range(header_end, len(text), 997):
            if not text[offset].isdigit():
                continue
            changed = text[:offset] + str((int(text[offset]) + 1) % 10) + text[offset + 1:]
            check = run.OutputCheck("paper", run.DEFAULT_SEED)
            self.assertGreaterEqual(check.check(changed, 0), 1, offset)

    def test_missing_record_and_bad_exit(self):
        text = self.reference("meta_churn")
        lines = text.splitlines(keepends=True)
        check = run.OutputCheck("meta_churn", run.DEFAULT_SEED)
        self.assertGreaterEqual(check.check("".join(lines[:-1]), 0), 1)
        self.assertEqual(check.check(text, 1), len(check.keys))
        self.assertEqual(check.check(None, 0), len(check.keys))

    def test_other_seed_needs_every_record_then_identical_bytes(self):
        text = self.reference("paper")
        lines = text.splitlines(keepends=True)
        check = run.OutputCheck("paper", run.DEFAULT_SEED + 1)
        self.assertGreaterEqual(check.check("".join(lines[:-1]), 0), 1)
        self.assertEqual(check.check(text, 0), 0)
        self.assertEqual(check.check(text, 0), 0)
        changed = text.replace("fully-homogeneous,5", "fully-homogeneous,6", 1)
        self.assertGreaterEqual(check.check(changed, 0), 1)


@unittest.skipIf(QUICK, "--quick")
class TracerTest(unittest.TestCase):
    """A small fleet-like and a small churn grid through both binaries."""

    GRIDS = {
        "fleet_small": ("platforms = 1\ntasks = 3000\nclass = fully-heterogeneous\n"
                        "slaves = 64\narrival = poisson\nload = 0.9\nengine_shards = 4\n"
                        "shard_threads = 2\nalgorithms = LS, RR\n"),
        "churn_small": ("platforms = 1\ntasks = 300\nclass = fully-heterogeneous\n"
                        "slaves = 16\narrival = bursty\nload = 0.7\navail = always, churn\n"
                        "algorithms = SLJF, portfolio:LS;rank:queue+horizon:4, "
                        "hedge:LS;rank:queue+window:8+hyst:2\n"),
    }

    @classmethod
    def setUpClass(cls):
        cls.msol_run, cls.msol_trace = run.build()
        cls.dir = os.path.join(run.build_dir(), "selftest")
        os.makedirs(cls.dir, exist_ok=True)

    def test_msol_trace(self):
        for name, body in self.GRIDS.items():
            with self.subTest(grid=name):
                grid = os.path.join(self.dir, name + ".grid")
                with open(grid, "w", encoding="utf-8") as f:
                    f.write(f"name = {name}\nseed = 5\n" + body)
                out = os.path.join(self.dir, name + ".csv")
                subprocess.run([self.msol_run, grid, "--threads", "2", "--csv", out,
                                "--quiet"], check=True)
                traced = os.path.join(self.dir, name + ".traced.csv")
                runner_csv = os.path.join(self.dir, name + ".runner.csv")
                proc = subprocess.run(
                    [self.msol_trace, grid, "--threads", "2", "--seconds", "0.1",
                     "--csv", traced, "--runner-csv", runner_csv],
                    stdout=subprocess.PIPE, text=True, check=True)
                report = json.loads(proc.stdout)
                for path in (traced, runner_csv):
                    with open(path, encoding="utf-8") as a, open(out, encoding="utf-8") as b:
                        self.assertEqual(a.read(), b.read(), path)
                self.assertTrue(all(report["checks"].values()), report["checks"])
                for metric in report["metrics"]:
                    self.assertRegex(metric, NAME)
                if name == "fleet_small":
                    self.assertIn("event_queue_calendar_pops_in_completion_order",
                                  report["checks"])
                    self.assertIn("event_queue_heap_pops_in_completion_order",
                                  report["checks"])
                else:
                    self.assertGreater(report["metrics"]["algorithms.meta.switches"] +
                                       report["metrics"]["algorithms.meta.rebuilds_per_decision"],
                                       0)


if __name__ == "__main__":
    unittest.main(argv=[a for a in sys.argv if a != "--quick"])

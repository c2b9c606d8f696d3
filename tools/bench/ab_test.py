#!/usr/bin/env python3
"""Self-tests of the A/B compare tool (no build needed):

    python3 tools/bench/ab_test.py
"""

import io
import json
import os
import shutil
import sys
import tempfile
import textwrap
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import ab  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "success_rate", "unit": "frac", "better": "higher",
        "bound": 0.01}


def pairs_of(name, parent, change):
    return [{"parent": {name: p}, "change": {name: c}}
            for p, c in zip(parent, change)]


class Judge(unittest.TestCase):
    PARENT = [4.82, 4.73, 4.73, 4.75, 4.70, 4.80, 4.74, 4.76, 4.71, 4.78]

    def test_clear_gain(self):
        change = [1.74, 1.72, 1.73, 1.75, 1.70, 1.71, 1.76, 1.73, 1.72, 1.74]
        v = ab.judge(WALL, pairs_of("wall_s", self.PARENT, change), True)
        self.assertEqual(v["verdict"], "gain")
        self.assertEqual(v["wins"], 10)
        self.assertAlmostEqual(v["parent"][1], 4.745)

    def test_a_clear_gain_over_fewer_than_ten_pairs_only_holds(self):
        change = [1.74, 1.72, 1.73, 1.75, 1.70, 1.71, 1.76, 1.73, 1.72]
        v = ab.judge(WALL, pairs_of("wall_s", self.PARENT[:9], change), True)
        self.assertEqual(v["wins"], 9)
        self.assertEqual(v["verdict"], "holds (<10 pairs)")
        change[0] = 9.0
        v = ab.judge(WALL, pairs_of("wall_s", self.PARENT[:9], change), True)
        self.assertEqual(v["verdict"], "not met")

    def test_eight_of_ten_wins_is_not_a_gain(self):
        change = [p - 1.0 for p in self.PARENT]
        change[0] = change[1] = 9.0
        v = ab.judge(WALL, pairs_of("wall_s", self.PARENT, change), True)
        self.assertEqual(v["wins"], 8)
        self.assertEqual(v["verdict"], "not met")

    def test_gap_within_parent_iqr_is_not_a_gain(self):
        parent = [4.0, 5.0] * 5
        change = [p - 0.1 for p in parent]
        v = ab.judge(WALL, pairs_of("wall_s", parent, change), True)
        self.assertEqual(v["wins"], 10)
        self.assertEqual(v["verdict"], "not met")

    def test_ties_count_for_neither_side(self):
        v = ab.judge(WALL, pairs_of("wall_s", self.PARENT, self.PARENT),
                     False)
        self.assertEqual(v["wins"], 0)
        self.assertEqual(v["verdict"], "ok")

    def test_worse_by_more_than_the_bound_regresses(self):
        change = [p * 1.3 for p in self.PARENT]
        v = ab.judge(WALL, pairs_of("wall_s", self.PARENT, change), False)
        self.assertEqual(v["verdict"], "regressed")
        v = ab.judge(WALL, pairs_of("wall_s", self.PARENT,
                                    [p * 1.2 for p in self.PARENT]), False)
        self.assertEqual(v["verdict"], "ok")

    def test_wide_spread_is_unresolved_unless_always_better(self):
        parent = [1.0, 3.0] * 5
        v = ab.judge(WALL, pairs_of("wall_s", parent, parent[::-1]), False)
        self.assertEqual(v["verdict"], "unresolved")
        change = [0.1, 0.9] * 5
        v = ab.judge(WALL, pairs_of("wall_s", parent, change), False)
        self.assertEqual(v["verdict"], "ok")

    def test_higher_is_better_metrics(self):
        v = ab.judge(RATE, pairs_of("success_rate", [1.0] * 4, [0.9] * 4),
                     False)
        self.assertEqual(v["verdict"], "regressed")
        v = ab.judge(RATE, pairs_of("success_rate", [0.9] * 4, [1.0] * 4),
                     False)
        self.assertEqual(v["wins"], 4)
        self.assertEqual(v["verdict"], "ok")


STUB = textwrap.dedent("""\
    import json, os, sys
    side = os.path.basename(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    seconds = sys.argv[sys.argv.index("--seconds") + 1]
    with open(os.path.join(os.path.dirname(os.getcwd()), "order.log"),
              "a") as f:
        f.write(side + " " + seconds + "\\n")
    wall = {"parent": 2.0, "change": 1.0}[side]
    names = ["wall_s", "setup_s", "cpu_s", "peak_rss_mb", "success_rate"]
    metrics = {n: {"value": 1.0, "unit": "x"} for n in names}
    metrics["wall_s"]["value"] = wall
    correct = not os.path.exists(os.path.join(os.getcwd(), "INCORRECT"))
    print(json.dumps({"record": {}}))
    print(json.dumps({"correct": correct, "metrics": metrics}))
    """)


class Runs(unittest.TestCase):
    """The tool against two stub checkouts whose perfbench/run.py
    prints a fixed result and logs which side ran."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dirs = {}
        for side in ("parent", "change"):
            path = os.path.join(self.tmp.name, side)
            os.makedirs(os.path.join(path, "perfbench"))
            with open(os.path.join(path, "perfbench", "run.py"), "w") as f:
                f.write(STUB)
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                benchmark = json.load(f)
            # Only the parent's run length counts.
            benchmark["run_seconds"] = 3 if side == "parent" else 99
            with open(os.path.join(path, "BENCHMARK.json"), "w") as f:
                json.dump(benchmark, f)
            self.dirs[side] = path

    def tearDown(self):
        self.tmp.cleanup()

    def runs(self):
        """(side, --seconds) of every stub run, in order."""
        with open(os.path.join(self.tmp.name, "order.log")) as f:
            return [tuple(line.split()) for line in f]

    def compare(self, pairs, claim, log=lambda s: None):
        return ab.compare(self.dirs["parent"], self.dirs["change"],
                          "simulate", 1, pairs, claim, log=log)

    def test_sides_alternate_at_the_parents_run_length(self):
        out = io.StringIO()
        report = self.compare(3, "wall_s", log=lambda s: out.write(s + "\n"))
        self.assertEqual(self.runs(), [
            ("parent", "3"), ("change", "3"), ("change", "3"),
            ("parent", "3"), ("parent", "3"), ("change", "3")])
        self.assertEqual(report["seconds"], 3)
        verdicts = {v["metric"]: v for v in report["verdicts"]}
        self.assertEqual(verdicts["wall_s"]["verdict"], "holds (<10 pairs)")
        self.assertEqual(verdicts["wall_s"]["wins"], 3)
        self.assertEqual(verdicts["cpu_s"]["verdict"], "ok")
        self.assertIn("pair  2 (change first)  wall_s 2/1", out.getvalue())
        json.dumps(report)

    def test_a_gain_needs_ten_pairs(self):
        report = self.compare(10, "wall_s")
        verdicts = {v["metric"]: v for v in report["verdicts"]}
        self.assertEqual(verdicts["wall_s"]["verdict"], "gain")
        self.assertEqual(verdicts["wall_s"]["wins"], 10)
        self.assertEqual(len(self.runs()), 20)

    def test_an_incorrect_run_fails_the_comparison(self):
        open(os.path.join(self.dirs["change"], "INCORRECT"), "w").close()
        with self.assertRaises(ab.AbError):
            self.compare(2, None)
        self.assertEqual(ab.main([self.dirs["parent"], self.dirs["change"],
                                  "--workload", "simulate", "--pairs", "1"]),
                         1)

    def test_unknown_claim_is_a_usage_error(self):
        with self.assertRaises(SystemExit) as e:
            ab.parse_args([self.dirs["parent"], self.dirs["change"],
                           "--workload", "simulate", "--claim", "nope"])
        self.assertEqual(e.exception.code, 2)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests of the benchmark harness (no build needed):

    python3 perfbench/test_bench.py
"""

import json
import os
import re
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def span(name, start, end, parent):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent}


def trace_doc():
    """A small rp_trace document with one of every span kind."""
    spans = [span("pass.cold", 0, 100, -1),
             span("job.fig23", 0, 90, 0),
             span("api.dispatch", 0, 5, 1),
             span("api.sink_render", 80, 90, 1),
             span("pass.warm", 100, 160, -1),
             span("job.fig23", 100, 160, 4),
             span("probe.sys", 160, 200, -1),
             span("core.map", 160, 200, 6),
             span("sys.runDemo", 160, 180, 7),
             span("sys.runDemo", 160, 200, 7)]
    jobs = [{"experiment": "fig23", "pass": "cold", "state": "finished",
             "started_ns": 5, "finished_ns": 90, "cpu_ns": 170},
            {"experiment": "fig23", "pass": "warm", "state": "finished",
             "started_ns": 105, "finished_ns": 160, "cpu_ns": 100}]
    counters = {"sys.acts": 6, "device.store_bytes": 2000000}
    return {"spans": spans, "jobs": jobs, "counters": counters}


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        metrics = run.END_TO_END + run.per_layer_metrics()
        names = [m[0] for m in metrics]
        self.assertEqual(len(names), len(set(names)))
        for name, unit, better in metrics:
            self.assertRegex(name, NAME)
            self.assertRegex(unit, UNIT)
            self.assertIn(better, ("higher", "lower"))

    def test_benchmark_json_lists_what_run_reports(self):
        path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in bench["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in bench["per_layer"]],
                         run.per_layer_metrics())

    def test_layer_metrics_cover_every_name(self):
        metrics = run.layer_metrics(trace_doc(), threads=2)
        self.assertEqual(set(metrics),
                         {m[0] for m in run.per_layer_metrics()})
        for name in metrics:
            self.assertRegex(name, NAME)


class Digests(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = self.tmp.name
        self.write("fig23/algorithm_1.csv", "a,b\n1,2\n")
        self.write("fig23/result.json", json.dumps(
            {"experiment": "fig23", "config": {"threads": {"value": 4}},
             "datasets": [{"rows": [[1, 0.5]]}]}))
        self.write("fig24/medians.csv", "m,c\nfirst,221.1\n")
        self.experiments = ["fig23", "fig24"]
        self.states = {"fig23": "finished", "fig24": "finished"}

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, rel, text):
        path = os.path.join(self.dir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(text)

    def failed(self, expected, exit_code=0, states=None):
        digests = run.artifact_digests(self.dir, self.experiments)
        return run.failed_jobs(self.experiments, exit_code,
                               states or self.states, digests, expected)

    def test_matching_digests_pass(self):
        expected = run.artifact_digests(self.dir, self.experiments)
        self.assertEqual(self.failed(expected), [])

    def test_wrong_expected_digest_makes_fail_rate_nonzero(self):
        expected = run.artifact_digests(self.dir, self.experiments)
        expected["fig24/medians.csv"] = "0" * 64
        failed = self.failed(expected)
        self.assertEqual(failed, ["fig24"])
        self.assertGreater(len(failed) / len(self.experiments), 0)

    def test_missing_artifact_fails_its_job(self):
        expected = run.artifact_digests(self.dir, self.experiments)
        os.remove(os.path.join(self.dir, "fig23/algorithm_1.csv"))
        self.assertEqual(self.failed(expected), ["fig23"])

    def test_result_json_config_block_is_ignored(self):
        expected = run.artifact_digests(self.dir, self.experiments)
        self.write("fig23/result.json", json.dumps(
            {"experiment": "fig23", "config": {"threads": {"value": 1}},
             "datasets": [{"rows": [[1, 0.5]]}]}))
        self.assertEqual(self.failed(expected), [])

    def test_unfinished_job_or_bad_exit_fails(self):
        states = {"fig23": "finished", "fig24": "failed"}
        self.assertEqual(self.failed(None, states=states), ["fig24"])
        self.assertEqual(self.failed(None, exit_code=1), self.experiments)


class SelfTime(unittest.TestCase):
    def test_overlapping_and_clipped_children(self):
        spans = [span("p", 0, 100, -1),
                 span("a", 10, 30, 0),
                 span("b", 20, 50, 0),   # overlaps a: union [10, 50]
                 span("c", 90, 120, 0),  # clipped to [90, 100]
                 span("g", 15, 25, 1)]   # grandchild: counts for a only
        self.assertEqual(run.self_times(spans), [50, 10, 30, 30, 10])

    def test_sequential_children_sum_to_duration(self):
        spans = [span("job", 0, 90, -1), span("dispatch", 0, 5, 0),
                 span("sink", 80, 90, 0)]
        own = run.self_times(spans)
        self.assertEqual(own[0] + 5 + 10, 90)

    def test_job_metric_is_compute_time(self):
        metrics = run.layer_metrics(trace_doc(), threads=2)
        self.assertAlmostEqual(metrics["job.fig23_s"], 75e-9)
        self.assertAlmostEqual(metrics["api.dispatch_ms"], 5e-6)
        self.assertAlmostEqual(metrics["core.busy_frac.fig23"], 1.0)
        self.assertAlmostEqual(metrics["device.store_build_s"], 30e-9)
        self.assertEqual(metrics["core.tasks"], 2)
        self.assertAlmostEqual(metrics["sys.host_ns_per_act"], 10.0)


if __name__ == "__main__":
    unittest.main()

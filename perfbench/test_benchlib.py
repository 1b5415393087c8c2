"""Unit tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The driver-level test needs .bench_build/perfbench/perfbench_driver (any
run of perfbench/run.py builds it) and is skipped without it.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

DRIVER = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench_driver")


def validate_spec(spec):
    """Problems with a BENCHMARK.json document, as a list of strings."""
    problems = []
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != want:
        problems.append("keys %s != %s" % (sorted(spec), sorted(want)))
        return problems
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"}:
            problems.append("workload keys %s" % sorted(w))
        names.append(w.get("name", ""))
        if len(w.get("why", "")) > 200 or "\n" in w.get("why", ""):
            problems.append("workload %s: why too long" % w.get("name"))
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            if set(m) != keys:
                problems.append("%s %s keys %s" % (group, m.get("name"),
                                                    sorted(m)))
            names.append(m.get("name", ""))
            if not benchlib.UNIT_RE.match(m.get("unit", "")):
                problems.append("bad unit %r" % m.get("unit"))
            if m.get("better") not in ("higher", "lower"):
                problems.append("bad better %r" % m.get("better"))
            if group == "end_to_end" and not 0 < m.get("bound", 0) <= 0.25:
                problems.append("bad bound for %s" % m.get("name"))
    for n in names:
        if not benchlib.NAME_RE.match(n):
            problems.append("bad name %r" % n)
    if len(set(names)) != len(names):
        problems.append("names are not unique")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("2 to 8 workloads")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        problems.append("1 to 16 end_to_end metrics")
    if not 1 <= len(spec["per_layer"]) <= 128:
        problems.append("1 to 128 per_layer metrics")
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or \
            setup[0].get("better") != "lower":
        problems.append("setup_s must be an end_to_end metric in s, lower")
    if not (isinstance(spec["run_seconds"], int)
            and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    return problems


def fat_tree_tables(powertcp_p99="3.97"):
    """A rendered fat-tree result document with two points."""
    return """[
  {
    "title": "60% ToR-uplink load",
    "slug": "ws60_load60",
    "key_columns": ["algorithm"],
    "value_columns": ["5K", "flows"],
    "rows": [
      {"keys": {"algorithm": "powertcp"}, "values": {"5K": P99, "flows": 3961}},
      {"keys": {"algorithm": "dcqcn"}, "values": {"5K": 18.00, "flows": 3961}}
    ]
  }
]
""".replace("P99", powertcp_p99)


class AggregationTest(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, q2, q3 = benchlib.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(benchlib.median(values), 3.75)
        self.assertAlmostEqual(benchlib.spread(values), (q3 - q1) / q2)

    def test_times_scale_to_the_reference_speed(self):
        ref = benchlib.CALIB_REFERENCE_S
        # The kernel ran at half speed around this batch, so the batch
        # counts as half as long at the reference speed.
        self.assertAlmostEqual(
            benchlib.at_reference_speed(10.0, [2 * ref, 2 * ref]), 5.0)
        doc = {"points": 2, "setup_error": None, "peak_rss_mb": 1.0,
               "setup": [{"samples": [0.2, 0.4, 0.3],
                          "calib_s": [ref, ref]},
                         {"samples": [0.6], "calib_s": [ref, 3 * ref]}],
               "batches": [{"wall_s": w, "cpu_s": w, "error": None,
                            "calib_s": [c * ref, c * ref],
                            "tables": fat_tree_tables()}
                           for w, c in ((4.0, 1), (12.0, 3), (6.0, 1))]}
        _, failed, m = benchlib.untraced_result(doc, "fat_tree")
        self.assertEqual(failed, 0)
        self.assertAlmostEqual(m["wall_s"], 4.0)
        self.assertAlmostEqual(m["setup_s"], 0.3)

    def test_single_value_has_zero_spread(self):
        self.assertEqual(benchlib.quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(benchlib.spread([2.5]), 0.0)

    def test_layer_metrics_take_median_seconds_and_first_counts(self):
        def batch(run_s, ack_s):
            layers = {k: 10 for k in benchlib.LAYER_COUNTS}
            layers.update(sim_events=1000, net_tx_packets=500,
                          net_host_tx_packets=100, cc_on_ack_calls=50,
                          topo_build_s=0.1, workload_plan_s=0.1,
                          host_start_s=0.1, sim_run_s=run_s,
                          sim_run_cpu_s=run_s, cc_on_ack_s=ack_s,
                          stats_record_s=0.0, stats_summary_s=0.0)
            return {"wall_s": run_s, "untraced_wall_s": run_s / 2,
                    "attempted": 2, "layers": layers, "sharded": None,
                    "failed": []}

        batches = [batch(1.0, 0.1), batch(3.0, 0.3), batch(2.0, 0.2)]
        m = benchlib.layer_metrics(batches, 0.01)
        self.assertEqual(m["sim.run_s"], 2.0)
        self.assertEqual(m["sim.events"], 1000)
        self.assertAlmostEqual(m["sim.run_self_s"], 1.8)
        self.assertAlmostEqual(m["net.hops_per_packet"], 5.0)
        self.assertAlmostEqual(m["cc.share"], 0.1)
        self.assertAlmostEqual(m["trace.overhead"], 2.0)
        self.assertEqual(m["shard.speedup"], 1.0)
        self.assertTrue(benchlib.counts_agree(batches))
        batches[1]["layers"]["sim_events"] += 1
        self.assertFalse(benchlib.counts_agree(batches))


class GrammarTest(unittest.TestCase):
    def test_metric_names(self):
        for ok in ("wall_s", "sim.run_s", "shard.cpu_per_wall", "9x",
                   "a" * 64):
            self.assertTrue(benchlib.NAME_RE.match(ok), ok)
        for bad in ("", "_x", ".x", "has space", "a" * 65, "x/y"):
            self.assertFalse(benchlib.NAME_RE.match(bad), bad)

    def test_units(self):
        for ok in ("s", "ms", "1/s", "%", "count", "MB", "a" * 16):
            self.assertTrue(benchlib.UNIT_RE.match(ok), ok)
        for bad in ("", "a" * 17, "m s"):
            self.assertFalse(benchlib.UNIT_RE.match(bad), bad)

    def test_committed_spec_is_valid(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(validate_spec(spec), [])
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(benchlib.WORKLOADS))
        bad = dict(spec, run_seconds=61)
        self.assertTrue(validate_spec(bad))

    def test_emitted_names_match_spec(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        doc = {"points": 2, "setup_error": None, "peak_rss_mb": 10.0,
               "setup": [{"samples": [0.1], "calib_s": [0.1, 0.1]}],
               "batches": [{"wall_s": 1.0, "cpu_s": 1.0, "error": None,
                            "calib_s": [0.1, 0.1],
                            "tables": fat_tree_tables()}]}
        _, _, e2e = benchlib.untraced_result(doc, "fat_tree")
        self.assertEqual(set(e2e), {m["name"] for m in spec["end_to_end"]})
        layers = {k: 1 for k in benchlib.LAYER_COUNTS}
        layers.update({k: 0.5 for k in (
            "topo_build_s", "workload_plan_s", "host_start_s", "sim_run_s",
            "sim_run_cpu_s", "cc_on_ack_s", "stats_record_s",
            "stats_summary_s")})
        trace_doc = {"points": 2, "harness_load_s": 0.01,
                     "tables_error": None, "tables": fat_tree_tables(),
                     "batches": [{"wall_s": 1.1, "untraced_wall_s": 1.0,
                                  "attempted": 2, "failed": [],
                                  "layers": layers, "sharded": None}]}
        _, _, per_layer = benchlib.traced_result(trace_doc, "fat_tree")
        self.assertEqual(set(per_layer),
                         {m["name"] for m in spec["per_layer"]})


class DigestTest(unittest.TestCase):
    def test_digest_check_fires_on_altered_table(self):
        want = benchlib.point_digests(fat_tree_tables(), "fat_tree")
        self.assertEqual(set(want), {"ws60_load60/powertcp",
                                     "ws60_load60/dcqcn"})
        got = benchlib.point_digests(fat_tree_tables("3.98"), "fat_tree")
        self.assertEqual(benchlib.mismatched(got, want),
                         {"ws60_load60/powertcp"})
        batch = {"error": None, "tables": fat_tree_tables("3.98")}
        self.assertEqual(
            benchlib.count_batch_failures([batch], 2, "fat_tree", [want]),
            (2, 1))

    def test_nondeterministic_batches_fail(self):
        batches = [{"error": None, "tables": fat_tree_tables()},
                   {"error": None, "tables": fat_tree_tables("4.00")}]
        self.assertEqual(
            benchlib.count_batch_failures(batches, 2, "fat_tree"), (4, 1))

    def test_mixed_cc_rows_group_by_cell(self):
        tables = json.dumps([
            {"title": "t", "slug": "c_fairness",
             "key_columns": ["mix", "aqm", "rttus", "bufKB"],
             "value_columns": ["jain"],
             "rows": [{"keys": {"mix": "m", "aqm": "red", "rttus": "8.0",
                                "bufKB": "16"}, "values": {"jain": 0.9}}]},
            {"title": "s", "slug": "c_share",
             "key_columns": ["mix", "aqm", "rttus", "bufKB", "member"],
             "value_columns": ["hosts"],
             "rows": [{"keys": {"mix": "m", "aqm": "red", "rttus": "8.0",
                                "bufKB": "16", "member": x},
                       "values": {"hosts": 4}} for x in ("a", "b")]}])
        self.assertEqual(list(benchlib.point_digests(tables, "mixed_cc")),
                         ["m/red/8.0/16"])

    def test_committed_digests_cover_every_workload(self):
        with open(os.path.join(HERE, "digests.json")) as f:
            digests = json.load(f)
        self.assertEqual(set(digests), set(benchlib.WORKLOADS))
        for name, entry in digests.items():
            self.assertEqual(entry["seed"], benchlib.WORKLOADS[name]["seed"])
        self.assertEqual(len(digests["fattree_ws60"]["points"]), 2)
        self.assertEqual(len(digests["dumbbell_coexist"]["points"]), 8)

    def test_sharded_cross_check_compares_its_own_point_only(self):
        sequential = benchlib.point_digests(fat_tree_tables(), "fat_tree")
        sharded = {"ws60_load60/powertcp": sequential["ws60_load60/powertcp"]}
        batch = {"error": None, "tables": fat_tree_tables()}
        self.assertEqual(
            benchlib.count_batch_failures([batch], 2, "fat_tree", [sharded]),
            (2, 0))
        sharded["ws60_load60/powertcp"] = "0" * 64
        self.assertEqual(
            benchlib.count_batch_failures([batch], 2, "fat_tree", [sharded]),
            (2, 1))


class FailureAccountingTest(unittest.TestCase):
    def test_throwing_batch_fails_every_point(self):
        doc = {"points": 2, "setup_error": None, "peak_rss_mb": 1.0,
               "setup": [{"samples": [0.1], "calib_s": [0.1, 0.1]}],
               "batches": [{"wall_s": 1.0, "cpu_s": 1.0, "calib_s": [1, 1],
                            "error": "boom", "tables": ""}]}
        attempted, failed, _ = benchlib.untraced_result(doc, "fat_tree")
        self.assertEqual((attempted, failed), (2, 2))

    def test_failed_composed_point_counts(self):
        layers = {k: 0 for k in benchlib.LAYER_COUNTS}
        layers.update({k: 0.0 for k in (
            "topo_build_s", "workload_plan_s", "host_start_s", "sim_run_s",
            "sim_run_cpu_s", "cc_on_ack_s", "stats_record_s",
            "stats_summary_s")})
        doc = {"points": 2, "harness_load_s": 0.0, "tables_error": None,
               "tables": fat_tree_tables(),
               "batches": [{"wall_s": 1.0, "untraced_wall_s": 1.0,
                            "attempted": 2,
                            "failed": ["ws60_load60/dcqcn"],
                            "layers": layers, "sharded": None}]}
        attempted, failed, m = benchlib.traced_result(doc, "fat_tree")
        self.assertEqual((attempted, failed), (2, 1))
        self.assertEqual(m["points_failed"], 0.5)
        # An altered harness table fails its point once more.
        want = benchlib.point_digests(fat_tree_tables("3.98"), "fat_tree")
        attempted, failed, m = benchlib.traced_result(doc, "fat_tree",
                                                      [want])
        self.assertEqual((attempted, failed), (4, 2))

    @unittest.skipUnless(os.path.exists(DRIVER), "perfbench_driver not built")
    def test_driver_counts_a_throwing_point(self):
        # pods = 0 loads, but the FatTree constructor throws when the
        # point is built.
        config = """[experiment]
kind = fat_tree
slug = bad
schemes = powertcp, dcqcn
seed = 1

[topology]
preset = quick
pods = 0

[workload]
loads = 0.6
duration_ms = 1
"""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bad.toml")
            with open(path, "w") as f:
                f.write(config)
            out = subprocess.run([DRIVER, "run", path, "0", "0"],
                                 capture_output=True, text=True, timeout=60,
                                 check=True)
        doc = json.loads(out.stdout)
        self.assertIn("all counts must be positive", doc["setup_error"])
        attempted, failed, metrics = benchlib.untraced_result(doc,
                                                              "fat_tree")
        self.assertEqual((attempted, failed), (2, 2))
        self.assertEqual(metrics, {})


if __name__ == "__main__":
    unittest.main()

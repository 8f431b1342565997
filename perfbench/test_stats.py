#!/usr/bin/env python3
"""Tests of the benchmark's own statistics (perfbench/stats.py), of how
run.py combines a traced run with its served segment, and of the agreement
between run.py's metric tables and BENCHMARK.json.

    python3 perfbench/test_stats.py
"""

import json
import os
import random
import sys
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402
import stats  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_keeps_ten_samples_beyond(self):
        values = list(range(1, 201))  # 200 samples: p95 has exactly 10 beyond
        value, q, n, beyond = stats.tail_percentile(values)
        self.assertEqual((value, q, n, beyond), (190, 0.95, 200, 10))

    def test_lowers_the_percentile_when_samples_are_few(self):
        values = list(range(1, 101))  # p95 would leave only 5 beyond
        value, q, n, beyond = stats.tail_percentile(values)
        self.assertEqual(beyond, 10)
        self.assertEqual(value, 90)
        self.assertAlmostEqual(q, 0.90)

    def test_never_below_the_median(self):
        values = list(range(1, 13))  # 12 samples: 10 beyond would be p17
        value, q, _, beyond = stats.tail_percentile(values)
        self.assertEqual((value, beyond), (7, 5))  # upper of the middle pair
        self.assertGreaterEqual(value, stats.median(values))
        self.assertAlmostEqual(q, 7 / 12)
        self.assertEqual(stats.tail_percentile(list(range(1, 14)))[0], 7)

    def test_order_of_input_does_not_matter(self):
        values = list(range(1, 301))
        shuffled = values[:]
        random.Random(7).shuffle(shuffled)
        self.assertEqual(stats.tail_percentile(values),
                         stats.tail_percentile(shuffled))


class OpenLoopTest(unittest.TestCase):
    # A synthetic schedule whose generator stalled: queries due at 0.0, 0.1
    # and 0.2 s were sent at 0.0, 0.3 and 0.31 s, and each took 50 ms once
    # sent.  Latency counts from the due time, so the stall is charged to
    # every query it delayed.
    RECORDS = [
        {"due": 0.0, "sent": 0.0, "done": 0.05, "status": "ok"},
        {"due": 0.1, "sent": 0.3, "done": 0.35, "status": "ok"},
        {"due": 0.2, "sent": 0.31, "done": 0.36, "status": "ok"},
    ]

    def test_latency_is_timed_from_the_due_time(self):
        lat = stats.due_latencies(self.RECORDS, fail_ms=1e4)
        for got, want in zip(lat, [50.0, 250.0, 160.0]):
            self.assertAlmostEqual(got, want, places=6)

    def test_generator_lateness(self):
        late = stats.generator_lateness(self.RECORDS)
        for got, want in zip(late, [0.0, 200.0, 110.0]):
            self.assertAlmostEqual(got, want, places=6)

    def test_failed_queries_take_the_failure_latency(self):
        records = self.RECORDS + [
            {"due": 0.3, "sent": 0.3, "done": None, "status": "timeout"}]
        self.assertEqual(stats.due_latencies(records, fail_ms=1e4)[-1], 1e4)

    def test_goodput_counts_late_and_failed_queries_as_missed(self):
        records = self.RECORDS + [
            # Fast but wrong, and fast but rejected: neither is good.
            {"due": 0.4, "sent": 0.4, "done": 0.41, "status": "mismatch"},
            {"due": 0.5, "sent": 0.5, "done": None, "status": "rejected"},
        ]
        # Within 200 ms of due: only the first and third queries.
        self.assertAlmostEqual(stats.goodput(records, 200, 2.0), 1.0)
        self.assertAlmostEqual(stats.goodput(records, 1000, 2.0), 1.5)

    def test_paced_schedule_is_evenly_spaced_and_fixed_in_size(self):
        due = stats.paced_schedule(7.0, 30)
        self.assertEqual(len(due), 210)
        gaps = {round(b - a, 9) for a, b in zip(due, due[1:])}
        self.assertEqual(gaps, {round(1 / 7.0, 9)})
        self.assertTrue(0 < due[0] and due[-1] < 30)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            {"name": "query", "start": 0.0, "end": 1.0, "parent": -1},
            {"name": "serve.queue", "start": 0.1, "end": 0.4, "parent": 0},
            # Overlaps the queue span: the union is subtracted, not the sum.
            {"name": "serve.run", "start": 0.3, "end": 0.9, "parent": 0},
            {"name": "hash.build", "start": 2.0, "end": 2.5, "parent": -1},
        ]
        self.assertEqual([round(t, 9) for t in stats.self_times(spans)],
                         [0.2, 0.3, 0.6, 0.5])
        layers = stats.layer_self_seconds(spans)
        self.assertAlmostEqual(layers["query"], 0.2)
        self.assertAlmostEqual(layers["serve"], 0.9)
        self.assertAlmostEqual(layers["hash"], 0.5)


class ServeSegmentTest(unittest.TestCase):
    """A bulk workload's traced run takes only the serve layer's figures
    from the served segment that ends it."""

    @staticmethod
    def bulk_run():
        query = {"wall_s": 1.0, "total_s": 0.98, "traced": True, "ok": True,
                 "build_s": 0.4, "reshuffle_s": 0.2, "probe_s": 0.3,
                 "finish_s": 0.08, "split_s": 0.0, "handoff_s": 0.0,
                 "expansions": 2, "pool_exhausted": False, "extra_chunks": 10,
                 "source_chunks": 400, "load_imbalance": 1.1,
                 "spilled_tuples": 0, "fence_dropped_tuples": 0}
        spans = [
            {"name": "query", "start": 0.0, "end": 1.0, "parent": -1},
            {"name": "core.build", "start": 0.0, "end": 0.4, "parent": 0},
            {"name": "join.oracle", "start": 2.0, "end": 3.5, "parent": -1},
            {"name": "hash.build", "start": 4.0, "end": 4.25, "parent": -1},
        ]
        return types.SimpleNamespace(
            spec={"mode": "bulk"}, n_warm=0, oracle_s=[1.5], spans=spans,
            raw={"queries": [query, dict(query, traced=False)],
                 "layers": {"hash.build_ns_per_tuple": 30.0}})

    @staticmethod
    def segment():
        query = {"due": 0.0, "sent": 0.001, "accepted": 0.002, "done": 0.1,
                 "queue_s": 0.01, "run_s": 0.08, "retries": 0,
                 "status": "ok", "traced": True}
        spans = [
            {"name": "query", "start": 0.0, "end": 0.1, "parent": -1},
            {"name": "serve.queue", "start": 0.002, "end": 0.012, "parent": 0},
            {"name": "serve.run", "start": 0.012, "end": 0.092, "parent": 0},
            # Layers the segment must not add to the bulk run's figures.
            {"name": "join.oracle", "start": 1.0, "end": 9.0, "parent": -1},
            {"name": "hash.build", "start": 10.0, "end": 19.0, "parent": -1},
        ]
        return types.SimpleNamespace(
            spec={"mode": "serve"}, n_warm=0, spans=spans,
            raw={"queries": [query]})

    def test_only_serve_figures_come_from_the_segment(self):
        alone = run.layer_metrics(self.bulk_run(), None)
        with_segment = run.layer_metrics(self.bulk_run(), self.segment())
        for name in run.PER_LAYER:
            if name.startswith("serve."):
                continue
            self.assertEqual(with_segment[name], alone[name], name)
        self.assertAlmostEqual(with_segment["join.self_s"], 1.5)
        self.assertAlmostEqual(with_segment["hash.self_s"], 0.25)
        self.assertAlmostEqual(with_segment["serve.self_s"], 0.09)
        self.assertAlmostEqual(with_segment["serve.run_ms_p50"], 80.0)
        self.assertEqual(alone["serve.self_s"], 0.0)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        path = os.path.join(HERE, "..", "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("BENCHMARK.json not present")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        with open(os.path.join(HERE, "workloads.json")) as f:
            workloads = json.load(f)["workloads"]
        self.assertLessEqual({w["name"] for w in bench["workloads"]},
                             set(workloads))


if __name__ == "__main__":
    unittest.main()

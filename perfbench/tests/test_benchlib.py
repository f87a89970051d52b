"""Self-tests for the benchmark's reporting rules.

    python3 -m unittest discover -s perfbench/tests

Covers the percentile rule, metric naming, failure counting and ladder
judging. The load generator's own self-tests (the open-loop stall charge,
reply classification) are the C++ binary perfbench_selftest; run it from
the build directory, e.g. .bench_build/perfbench/perfbench_selftest.
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import benchlib as bl  # noqa: E402


def sample_line(i, outcome="ok", latency=1.0, code="-", due=None):
    due = float(i) if due is None else due
    lat = latency if outcome == "ok" else -1
    return f"{i} reach {outcome} {code} {due} {lat} 0.01 -1 0 -"


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        values = list(range(1, 1001))
        self.assertEqual(bl.percentile(values, 0.99), 990)  # 10 samples beyond
        with self.assertRaises(bl.InsufficientSamples):
            bl.percentile(values[:-1], 0.99)  # 999 samples: 9 beyond

    def test_p50_nearest_rank(self):
        self.assertEqual(bl.percentile([5, 1, 3], 0.5, 0), 3)
        self.assertEqual(bl.percentile([4, 1, 3, 2], 0.5, 0), 2)

    def test_empty_is_refused(self):
        with self.assertRaises(bl.InsufficientSamples):
            bl.percentile([], 0.5, 0)

    def test_failures_count_in_the_tail(self):
        lines = [sample_line(i) for i in range(990)]
        lines += [sample_line(990 + i, outcome="timeout", code="timeout") for i in range(10)]
        summary = bl.latency_summary(bl.parse_samples("\n".join(lines)))
        self.assertEqual(summary["count"], 1000)
        self.assertEqual(summary["p99_ms"], 1.0)
        lines.append(sample_line(1000, outcome="timeout", code="timeout"))
        summary = bl.latency_summary(bl.parse_samples("\n".join(lines)), min_beyond=0)
        self.assertEqual(summary["p99_ms"], bl.FAILED_LATENCY_MS)


class MetricNames(unittest.TestCase):
    def test_accepted_and_refused_names(self):
        bl.check_metric_names({"p99_ms": 1, "serve.phase.propagation.peer_us": 2, "a-b": 3})
        for bad in ("p99 ms", "lat(ms)", "", "µs"):
            with self.assertRaises(ValueError):
                bl.check_metric_names({bad: 1})

    def test_declared_metrics_follow_the_rule(self):
        path = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        bl.check_metric_names(dict.fromkeys(names))
        self.assertEqual(len(names), len(set(names)))


class FailureCounting(unittest.TestCase):
    def test_every_non_ok_outcome_fails(self):
        lines = [
            sample_line(0),
            sample_line(1, outcome="error", code="overloaded"),
            sample_line(2, outcome="error", code="unavailable"),
            sample_line(3, outcome="transport", code="overloaded"),  # refused at accept
            sample_line(4, outcome="timeout", code="timeout"),
            sample_line(5, outcome="partial", code="partial"),
        ]
        samples = bl.parse_samples("\n".join(lines))
        self.assertEqual(bl.count_failed(samples), 5)
        self.assertEqual([s.failed for s in samples], [False] + [True] * 5)

    def test_a_failed_rung_does_not_pass(self):
        ok = [sample_line(i) for i in range(1200)]
        self.assertTrue(bl.ladder_passes(bl.parse_samples("\n".join(ok)), 5.0))
        overloaded = ok[:-1] + [sample_line(1199, outcome="error", code="overloaded")]
        self.assertFalse(bl.ladder_passes(bl.parse_samples("\n".join(overloaded)), 5.0))


class Ladder(unittest.TestCase):
    def test_p99_limit_and_growing_backlog(self):
        slow = [sample_line(i, latency=9.0 if i % 50 == 0 else 1.0) for i in range(1200)]
        self.assertFalse(bl.ladder_passes(bl.parse_samples("\n".join(slow)), 5.0))
        growing = [sample_line(i, latency=0.1 + i * 0.004) for i in range(1200)]
        self.assertFalse(bl.ladder_passes(bl.parse_samples("\n".join(growing)), 5.0))

    def test_bisection_finds_the_highest_passing_rung(self):
        ladder = bl.geometric_ladder(100, 3200, 2.0)
        self.assertEqual(ladder, [100, 200, 400, 800, 1600, 3200])
        index, probed = bl.highest_passing(ladder, lambda rate: rate <= 800)
        self.assertEqual(ladder[index], 800)
        self.assertLessEqual(len(probed), 3)
        self.assertEqual(bl.highest_passing(ladder, lambda rate: False)[0], -1)


if __name__ == "__main__":
    unittest.main()

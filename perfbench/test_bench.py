#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py        (about half a minute)

Tiny-size runs of every workload, untraced and traced, check the result
line: its keys, every metric's name and unit against BENCHMARK.json, the
correctness gate and the failure count.  A run checked against
deliberately wrong references must fail every op it attempts.  A
directory holding only BENCHMARK.json and perfbench/ must make the
benchmark exit non-zero without a result.  The spread tool is checked on
known values and on two sets of tiny runs.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import spread  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Per-layer metrics each workload must move, and those it must leave at 0
# because the layer does not run there.
NONZERO = {
    "check-deep": ["modelcheck.explore_s", "modelcheck.analyze_s", "modelcheck.explore_states",
                   "modelcheck.analyze_share", "service.store_put_s", "harness.span_coverage"],
    "sweep-24": ["modelcheck.explore_s", "modelcheck.analyze_s", "modelcheck.witness_s",
                 "modelcheck.witness_replayed", "modelcheck.witness_ok", "service.store_put_s"],
    "bgp-100k": ["bgp.topology_gen_s", "bgp.partition_s", "bgp.shard_s", "bgp.shard_activations",
                 "bgp.shard_messages", "bgp.partition_cut_fraction"],
    "serve-mixed": ["service.rtt_ms.ping", "service.rtt_ms.check", "service.rtt_ms.sweep",
                    "service.rtt_ms.realize", "service.store_get_ms", "service.store_hit_ratio",
                    "service.cold_compute_s", "realization.closure_derive_s",
                    "realization.realize_ms"],
}
ZERO = {
    "check-deep": ["bgp.shard_s", "service.rtt_ms.ping"],
    "sweep-24": ["bgp.shard_s", "service.rtt_ms.ping"],
    "bgp-100k": ["modelcheck.explore_s", "modelcheck.analyze_s", "modelcheck.self_s",
                 "service.self_s", "service.store_put_s"],
    "serve-mixed": ["modelcheck.explore_s", "bgp.shard_s"],
}


def run(workload, trace, *extra, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


class Workloads(unittest.TestCase):
    def result(self, p):
        self.assertEqual(p.returncode, 0, p.stderr)
        r = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(r["attempted"], int)
        self.assertIsInstance(r["failed"], int)
        self.assertGreaterEqual(r["attempted"], 1)
        return r

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                p = run(w, 0)
                r = self.result(p)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertEqual({n: m["unit"] for n, m in r["metrics"].items()}, E2E)
                for n, m in r["metrics"].items():
                    self.assertGreater(m["value"], 0, n)
                self.assertIn("nproc=", p.stdout)
                self.assertIn("ocaml=", p.stdout)
                # The batch workloads time on the pace clock; serve-mixed,
                # whose sockets the sampler's timer would interrupt, does not.
                self.assertEqual("# host speed: reference kernel" in p.stdout,
                                 w != "serve-mixed", p.stdout)

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = self.result(run(w, 1))
                self.assertTrue(r["correct"])
                self.assertEqual({n: m["unit"] for n, m in r["metrics"].items()}, LAYERS)
                values = {n: m["value"] for n, m in r["metrics"].items()}
                for n in NONZERO[w]:
                    self.assertGreater(values[n], 0, n)
                for n in ZERO[w]:
                    self.assertEqual(values[n], 0, n)

    def test_sweep_witnesses(self):
        """Every model oscillates on the sweep, and every witness replays."""
        r = self.result(run("sweep-24", 1))
        values = {n: m["value"] for n, m in r["metrics"].items()}
        self.assertEqual(values["modelcheck.witness_replayed"], 24)
        self.assertEqual(values["modelcheck.witness_ok"], 24)

    def test_wrong_answers_fail(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = self.result(run(w, 0, "--expect-wrong"))
                self.assertFalse(r["correct"])
                self.assertEqual(r["failed"], r["attempted"])

    def test_bare_directory_fails(self):
        bare = os.path.join(ROOT, ".bench_run", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            p = run("check-deep", 0, root=bare)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class Spread(unittest.TestCase):
    def test_spread_of_known_values(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
        med, sp = spread.spread(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(med, statistics.median(values))
        self.assertAlmostEqual(sp, (q3 - q1) / med)
        self.assertAlmostEqual(spread.worse_by(11.0, 10.0, "lower"), 0.1)
        self.assertAlmostEqual(spread.worse_by(9.0, 10.0, "higher"), 0.1)

    def test_two_sets_of_runs(self):
        saved = os.path.join(ROOT, ".bench_run", "spread-first.json")
        tool = [sys.executable, os.path.join(HERE, "spread.py"), "--workloads", "check-deep",
                "--seeds", "1-3", "--seconds", "0.5", "--size", "tiny"]
        first = subprocess.run(tool + ["--save", saved], cwd=ROOT, capture_output=True,
                               text=True, timeout=300)
        self.assertIn("check-deep: 3 runs, 0/", first.stdout, first.stderr)
        second = subprocess.run(tool + ["--against", saved], cwd=ROOT, capture_output=True,
                                text=True, timeout=300)
        for m in SPEC["end_to_end"]:
            line = next(l for l in second.stdout.splitlines() if l.split()[:1] == [m["name"]])
            self.assertIn("spread", line)
            self.assertIn("bound %.2f" % m["bound"], line)
            self.assertIn("worse than earlier by", line)
        os.remove(saved)


if __name__ == "__main__":
    unittest.main(verbosity=2)

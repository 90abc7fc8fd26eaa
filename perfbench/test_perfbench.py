#!/usr/bin/env python3
"""Tests of the benchmark itself, every workload at test scale (--tiny).

    python3 perfbench/test_perfbench.py

Builds the binary first (as run.py does). Checks that every metric
BENCHMARK.json declares is printed with its unit, that the traced epoch
reproduces run_icpda_epoch on 1 and 4 shards, that one seed gives
identical counts twice, that compare.py refuses mixed hosts, and that
the benchmark fails cleanly without the simulator sources.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

BENCH = run.load_benchmark()
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SCRATCH = os.path.join(run.ROOT, ".bench_build", "test")


def perfbench(*args):
    """The built binary at test scale."""
    return subprocess.run([run.BINARY, *args, "--tiny", "--seconds", "0.5"],
                          capture_output=True, text=True, check=False)


def report_of(proc):
    return json.loads(proc.stdout.splitlines()[-1])


def counted(report):
    """Metrics that must repeat exactly for one seed: counts, and the
    simulated statistics (coverage, query latency)."""
    return {name: m["value"] for name, m in report["metrics"].items()
            if (m["unit"] in ("count", "bytes") and name != "trace.reproduced")
            or name == "coverage" or name.startswith("query_latency")}


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(SCRATCH, exist_ok=True)

    def test_every_declared_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                         "--trace", str(trace), "--tiny", "--seconds", "0.5"],
                        capture_output=True, text=True, check=False)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = BENCH["per_layer" if trace else "end_to_end"]
                    self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
                    for m in declared:
                        self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                    report = json.loads(next(l for l in lines if l.startswith('{"workload"')))
                    self.assertLessEqual({"nproc", "cpu", "build_type", "compiler", "commit",
                                          "seed"}, set(report["fingerprint"]))
                    for m in report["metrics"].values():
                        self.assertGreaterEqual(m["samples"], 1)

    def test_traced_epoch_matches_run_icpda_epoch_at_1_and_4_shards(self):
        # perfbench exits 3 when a traced epoch (unsharded, or its
        # 4-shard twin) differs from the untraced one in outcome or
        # executed events.
        proc = perfbench("--workload", "dense_epoch", "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        metrics = report_of(proc)["metrics"]
        self.assertGreaterEqual(metrics["trace.reproduced"]["value"], 1)
        self.assertGreater(metrics["engine.rounds"]["value"], 0)
        self.assertEqual(metrics["engine.lookahead_violations"]["value"], 0)

    def test_same_seed_gives_identical_counts(self):
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    first, second = (report_of(perfbench("--workload", workload, "--trace", trace,
                                                      "--seed", "7")) for _ in range(2))
                    self.assertTrue(counted(first))
                    self.assertEqual(counted(first), counted(second))

    def test_compare_refuses_different_hosts(self):
        proc = perfbench("--workload", "dense_epoch", "--seed", "3")
        line = proc.stdout.splitlines()[-1]
        other = json.loads(line)
        other["fingerprint"]["cpu"] = "another cpu"
        base, change = os.path.join(SCRATCH, "base.log"), os.path.join(SCRATCH, "change.log")
        with open(base, "w") as f:
            f.write(line + "\n")
        with open(change, "w") as f:
            f.write(json.dumps(other) + "\n")
        compare = [sys.executable, os.path.join(HERE, "compare.py")]
        self.assertEqual(subprocess.run(compare + [base, base], capture_output=True).returncode, 0)
        self.assertEqual(subprocess.run(compare + [base, change], capture_output=True).returncode, 2)

    def test_fails_without_the_simulator_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense_epoch"],
                              cwd=bare, capture_output=True, text=True, timeout=180, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

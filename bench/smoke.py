"""Smoke tests for the benchmark itself, at the tiny input scale.

Run from the repository root (about half a minute):

    python3 bench/smoke.py

They check that every metric BENCHMARK.json names is printed with its
unit, that the workload metrics are printed with their direction, that
one seed always yields the same output digest (traced or not), and that
another seed changes the inputs while every correctness check still
passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# The workload metrics each run prints before its result line.
DETAIL = {
    "utxo-ledger": {
        "build_tx_per_s": "higher", "build_growth_ratio": "lower",
        "replay_tx_per_s": "higher", "audit_tx_per_s": "higher",
        "trace_s": "lower", "export_s": "lower",
    },
    "replica-conflict": {"settle_tx_per_s": "higher", "round_ms_p50": "lower"},
    "cli-commands": {
        "cli_startup_ms": "lower", "cli_scenarios_ms": "lower", "cli_tables_ms": "lower",
    },
}
COMMON = {"setup_s": "lower", "peak_rss_mb": "lower"}


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done


def parse(done):
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(line.split()[1] for line in lines if line.startswith("output_digest "))
    return result, digest, lines[:-1]


class BenchmarkSmoke(unittest.TestCase):
    def run_ok(self, workload, seed, trace):
        done = bench(workload, seed, trace)
        self.assertEqual(done.returncode, 0, done.stdout[-2000:] + done.stderr[-2000:])
        result, digest, lines = parse(done)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result, digest, lines

    def test_workloads(self):
        for entry in SPEC["workloads"]:
            workload = entry["name"]
            with self.subTest(workload=workload):
                untraced, digest, lines = self.run_ok(workload, 1, 0)
                expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
                self.assertEqual(
                    {k: v["unit"] for k, v in untraced["metrics"].items()}, expected
                )
                for name, better in {**DETAIL[workload], **COMMON}.items():
                    self.assertTrue(
                        any(line.startswith(f"{workload} {name} = ")
                            and f"({better} is better, n=" in line for line in lines),
                        f"{name} not printed with its direction",
                    )

                traced, traced_digest, _ = self.run_ok(workload, 1, 1)
                expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
                self.assertEqual({k: v["unit"] for k, v in traced["metrics"].items()}, expected)
                self.assertEqual(traced_digest, digest, "traced output differs")

                _, again, _ = self.run_ok(workload, 1, 0)
                self.assertEqual(again, digest, "same seed, different output")

                _, other, _ = self.run_ok(workload, 2, 0)
                self.assertNotEqual(other, digest, "the seed does not change the inputs")

    def test_refuses_without_sources(self):
        lonely = ROOT / ".bench_out" / "smoke-no-sources"
        shutil.rmtree(lonely, ignore_errors=True)
        lonely.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", lonely)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, lonely / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("utxo-ledger", 1, 0, cwd=lonely)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(lonely, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

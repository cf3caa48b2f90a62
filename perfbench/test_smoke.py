"""Smoke tests for the benchmark harness at tiny sweep sizes.

Run from the root of a checkout: ``python3 -m unittest perfbench/test_smoke.py``.
Each test drives ``run.py`` as a child process, the way the benchmark is run,
against tiny workloads (binary words up to length 6 and so on) and reference
verdicts written into a temp dir, so the shipped references are never touched.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "necklace-bounds": {"via": "api", "jobs": 1, "checkpoint": False, "legs": [
        {"checks": ["bound-5-3", "case-bounds"], "alphabet": 2, "max_len": 6},
        {"checks": ["bound-5-3"], "alphabet": 3, "max_len": 5}]},
    "power-classes": {"via": "api", "jobs": 1, "checkpoint": True, "legs": [
        {"checks": ["class-parity", "class-circuits"], "alphabet": 3, "max_len": 5}]},
    "factor-graphs": {"via": "api", "jobs": 1, "checkpoint": False, "legs": [
        {"checks": ["circuit-rank"], "alphabet": 3, "max_len": 5},
        {"checks": ["count-chain"], "alphabet": 2, "max_len": 6}]},
    "suite-jobs2": {"via": "cli", "jobs": 2, "checkpoint": False, "legs": [
        {"checks": "all", "alphabet": 2, "max_len": 6}]},
}  # fmt: skip

# Per-layer metrics that count work; they must repeat exactly between runs.
EXACT = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] in ("count", "B")]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )  # fmt: skip


class HarnessSmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.tmp = Path(tempfile.mkdtemp())
        cls.spec = cls.tmp / "spec.json"
        cls.spec.write_text(json.dumps(TINY))
        cls.refs = cls.tmp / "ref"
        for name in TINY:
            done = bench(*cls.common(name), "--write-reference")
            assert done.returncode == 0, done.stderr

    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(cls.tmp, ignore_errors=True)

    @classmethod
    def common(cls, workload: str, refs: Path | None = None) -> list[str]:
        return [
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--spec", str(cls.spec),
            "--reference-dir", str(refs or cls.refs),
            "--results-dir", str(cls.tmp / "results"),
        ]  # fmt: skip

    def run_ok(self, workload: str, trace: int) -> tuple[str, dict]:
        done = bench(*self.common(workload), "--trace", str(trace))
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return done.stdout, result

    def assert_metrics(self, out: str, result: dict, kind: str) -> None:
        expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        lines = out.splitlines()
        for name, unit in [*expected.items(), ("failed_frac", "ratio")]:
            printed = [ln.split() for ln in lines if ln.split()[:1] == [name]]
            self.assertEqual(len(printed), 1, name)
            self.assertEqual(printed[0][2], unit, name)
        for name in expected:
            self.assertIsInstance(result["metrics"][name]["value"], (int, float), name)

    def test_end_to_end_metrics_printed_with_units(self) -> None:
        for name in TINY:
            with self.subTest(workload=name):
                out, result = self.run_ok(name, 0)
                self.assert_metrics(out, result, "end_to_end")
                self.assertGreater(result["metrics"]["sweep_s"]["value"], 0)
                self.assertIn("failed_frac", out)

    def test_traced_counts_repeat_exactly(self) -> None:
        for name in TINY:
            with self.subTest(workload=name):
                out, first = self.run_ok(name, 1)
                self.assert_metrics(out, first, "per_layer")
                _, second = self.run_ok(name, 1)
                for metric in EXACT:
                    self.assertEqual(
                        first["metrics"][metric]["value"],
                        second["metrics"][metric]["value"],
                        metric,
                    )

    def test_tampered_reference_fails_the_run(self) -> None:
        refs = self.tmp / "tampered"
        shutil.copytree(self.refs, refs, dirs_exist_ok=True)
        path = refs / "power-classes.json"
        doc = json.loads(path.read_text())
        doc["verdicts"][0]["words_tested"] += 1
        path.write_text(json.dumps(doc))
        done = bench(*self.common("power-classes", refs), "--trace", "0")
        self.assertEqual(done.returncode, 1, done.stdout + done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        frac = next(ln.split() for ln in done.stdout.splitlines() if ln.split()[:1] == ["failed_frac"])
        self.assertGreater(float(frac[1]), 0)

    def test_refuses_to_run_without_sources(self) -> None:
        bare = self.tmp / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "results"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = bench("--workload", "power-classes", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)  # fmt: skip
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()

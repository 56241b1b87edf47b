"""Self-test of the benchmark.  Run from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload once at the reduced ``--size small``, untraced and traced,
and checks that the result line names every metric of BENCHMARK.json with its
unit; checks that ``judge`` refuses wrong answers and accepts a lifted limit;
and checks that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


class WorkloadsReportEveryMetric(unittest.TestCase):
    def check(self, workload: str, trace: str, section: str) -> dict:
        proc = bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", trace, "--size", "small")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, wanted)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        return result["metrics"]

    def test_workloads(self) -> None:
        for workload in run.WORKLOADS:
            for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    metrics = self.check(workload, trace, section)
                    never_zero = metrics if section == "end_to_end" else ("frontier_points",)
                    for name in never_zero:
                        self.assertGreater(metrics[name]["value"], 0, name)


class Judge(unittest.TestCase):
    def outcome(self, cmd, code, out, err="", expected=None):
        workload = run.Workload([cmd], known={"m5": (20, 0), "m6": (30, 0)})
        o = run.Outcome()
        run.judge(cmd, code, out, err, expected or {}, workload, o)
        return o

    def verify_text(self, entry, verdicts):
        lines = [f"{v} {entry} {c}" for v, c in zip(verdicts, run.CHECKS)]
        fails = sum(v == "FAIL" for v in verdicts)
        return "\n".join(lines + [f"lattices: 1  checks: {len(lines)}  failures: {fails}"]) + "\n"

    def test_failed_check_on_known_pass_entry_is_wrong(self) -> None:
        cmd = run.Command("verify m5", ("verify", "m5.lat"), "verify", "m5")
        text = self.verify_text("m5", ["PASS"] * 14 + ["FAIL"])
        self.assertIsNotNone(self.outcome(cmd, 1, text).wrong)

    def test_unrecorded_output_is_wrong(self) -> None:
        cmd = run.Command("show m5", ("show", "m5.lat"), "show", "m5")
        self.assertIsNotNone(self.outcome(cmd, 0, "lattice m5\n").wrong)

    def test_wrong_point_count_is_wrong(self) -> None:
        cmd = run.Command("spec --bitop m5", ("spec", "m5.lat", "--bitop"), "spec-bitop", "m5")
        out = "bitopological spectrum of m5\npoints: 19\n"
        digest = {"spec --bitop m5": {"sha256": hashlib.sha256(out.encode()).hexdigest(), "exit": 0}}
        self.assertIsNotNone(self.outcome(cmd, 0, out, expected=digest).wrong)

    def test_limits_count_on_known_failing_entry(self) -> None:
        cmd = run.Command("verify m6", ("verify", "m6.lat"), "verify", "m6")
        verdicts = ["PASS"] + ["FAIL"] * 13 + ["PASS"]
        text = self.verify_text("m6", verdicts).replace(
            "FAIL m6 spectrum_map_laws", "FAIL m6 spectrum_map_laws witness=CarrierTooLarge: stop at 20 points"
        )
        o = self.outcome(cmd, 1, text)
        self.assertIsNone(o.wrong)
        self.assertEqual((o.units, o.limited, o.failed), (15, 1, 12))

    def test_lifted_limit_is_not_wrong(self) -> None:
        verify = run.Command("verify m6", ("verify", "m6.lat"), "verify", "m6")
        o = self.outcome(verify, 0, self.verify_text("m6", ["PASS"] * 15))
        self.assertEqual((o.wrong, o.limited, o.failed, o.passed_lattices), (None, 0, 0, ("m6",)))
        spec = run.Command("spec --bitop m6", ("spec", "m6.lat", "--bitop"), "spec-bitop", "m6")
        self.assertIsNone(self.outcome(spec, 0, "points: 30\n").wrong)
        self.assertIsNotNone(self.outcome(spec, 0, "points: 29\n").wrong)


class Oracles(unittest.TestCase):
    def test_closed_forms(self) -> None:
        chain = [((1 << 4) - 1) & ~((1 << i) - 1) for i in range(4)]  # chain of 4
        self.assertEqual((run.bitop_points(chain), run.prime_ideal_count(chain)), (3, 3))
        m3 = [0b11111, 0b10010, 0b10100, 0b11000, 0b10000]  # bottom, 3 atoms, top
        self.assertEqual((run.bitop_points(m3), run.prime_ideal_count(m3)), (6, 0))


class RefusesWithoutSources(unittest.TestCase):
    def test_bare_directory(self) -> None:
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare,
                capture_output=True,
                text=True,
                timeout=180,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

"""Toy-size self-test of the benchmark (no timing gate).

    python3 perfbench/selftest.py

Runs every workload at tiny n and realization counts through `run.py`,
with and without tracing, and checks that every metric is printed with its
unit and that the output invariants held.  It also feeds broken outputs to
the checks, so that a check that cannot fail is caught, and runs the
benchmark in a tree without `src/acakit`, where it must fail.
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
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Printed on the human-readable lines besides the JSON metrics.
EXTRA_LINES = ("failed_frac", "err.aca.log10_mean", "err.acagp.log10_mean")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class ToyRuns(unittest.TestCase):
    def check_run(self, workload: str, trace: int) -> None:
        proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--toy")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertTrue(
                any(ln.split()[:1] == [metric["name"]] and ln.split()[-1] == metric["unit"]
                    for ln in lines[:-1]),
                f"{metric['name']} is not printed with its unit",
            )
        if not trace:
            for name in EXTRA_LINES:
                self.assertTrue(any(ln.startswith(name + " ") for ln in lines), name)
            self.assertEqual(result["metrics"]["output_match"]["value"], 1)

    def test_stats(self) -> None:
        self.check_run("stats-n200", 0)
        self.check_run("stats-n200", 1)

    def test_sweep(self) -> None:
        self.check_run("sweep-n200", 0)
        self.check_run("sweep-n200", 1)

    def test_approx(self) -> None:
        self.check_run("approx-n10000", 0)
        self.check_run("approx-n10000", 1)

    def test_fails_without_sources(self) -> None:
        work = ROOT / ".perfbench_work"
        work.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            tree = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", tree)
            shutil.copytree(HERE, tree / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "stats-n200", "--seconds", "1", cwd=tree)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class BrokenOutputs(unittest.TestCase):
    """Each invariant check rejects an output that breaks it."""

    def run_toy(self, name: str):
        sys.path.insert(0, str(ROOT / "src"))
        import acakit.cli

        workdir = ROOT / ".perfbench_work"
        workdir.mkdir(exist_ok=True)
        capture = worker.Capture()
        capture.hook(acakit.cli, "aca_gp")
        capture.hook(acakit.cli, "place_clouds")
        try:
            wl = worker.make_workload(name, True, False, 7, workdir)
            _, stdouts = worker.run_op(acakit.cli.main, wl.invocations())
        finally:
            acakit.cli.aca_gp = acakit.acagp.aca_gp
            acakit.cli.place_clouds = acakit.geometry.place_clouds
        wl.check(stdouts, capture.results)
        return wl, stdouts, capture.results

    def test_stats_checks(self) -> None:
        wl, stdouts, captured = self.run_toy("stats-n200")
        lines = stdouts[0].splitlines()
        header = next(i for i, ln in enumerate(lines) if ln.startswith("rank,"))
        cols = lines[header].split(",")
        for method, column, value in (
            ("aca", "kernel_evals_mean", "1"),  # breaks the r(n+m) budget
            ("acagp", "e_log_mean", "-99"),  # below the SVD floor
        ):
            broken = list(lines)
            i = next(i for i, ln in enumerate(lines) if ln.split(",")[1:2] == [method])
            cells = broken[i].split(",")
            cells[cols.index(column)] = value
            broken[i] = ",".join(cells)
            with self.assertRaises(worker.CheckFailure):
                wl.check(["\n".join(broken) + "\n"], captured)

    def test_approx_checks(self) -> None:
        wl, stdouts, captured = self.run_toy("approx-n10000")

        def with_evals(text: str, delta: int) -> str:
            head, count = text.strip().rsplit("=", 1)
            return f"{head}={int(count) + delta}\n"

        # aca: a part of a row that is not a whole skipped row
        with self.assertRaises(worker.CheckFailure):
            wl.check([stdouts[0], with_evals(stdouts[1], 1)], captured)
        # acagp: beyond k(n+m) + k(|Ic|+|Jc|) + n + m
        with self.assertRaises(worker.CheckFailure):
            wl.check([with_evals(stdouts[0], 10**9), stdouts[1]], captured)

    def test_mean_log10_needs_a_value(self) -> None:
        with self.assertRaises(worker.CheckFailure):
            worker.mean_log10([0.0, float("inf")])


if __name__ == "__main__":
    unittest.main()

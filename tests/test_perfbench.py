"""Smoke test of the benchmark contract at toy size (no timing gate).

The benchmark's tracer wraps acakit's public functions and the counted
KernelHandle methods by name; a source change that unbinds one of them
breaks every traced run.  This runs one traced toy operation end to end.
"""
import json
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def test_traced_toy_run_reports_layers(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", "stats-n200",
         "--mode", "traced", "--seconds", "0", "--toy",
         "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    layers = result["layers"]
    for name in (
        "acagp.select_higher.calls",
        "kernel.eval.evals",
        "kernel.eval_row_subset.evals",
    ):
        assert min(layers[name]) > 0, name


def test_traced_toy_approximate_reports_placement(tmp_path):
    # The benchmark times placement through the acakit.cli.place_clouds
    # binding; this keeps that binding and the approximate path working.
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", "approx-n10000",
         "--mode", "traced", "--seconds", "0", "--toy",
         "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    assert result["output_match"] == 1
    assert min(result["layers"]["geometry.place_clouds.calls"]) >= 1

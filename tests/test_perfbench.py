"""Smoke test of the benchmark contract at toy size (no timing gate).

The benchmark's tracer wraps acakit's public functions and the counted
KernelHandle methods by name; a source change that unbinds one of them
breaks every traced run.  Each test runs one traced toy operation end to
end.
"""
import json
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def run_toy_worker(workload: str, workdir: Path) -> dict:
    """One traced toy operation of a workload; returns the worker's result."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload,
         "--mode", "traced", "--seconds", "0", "--toy",
         "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    return result


def test_traced_toy_run_reports_layers(tmp_path):
    layers = run_toy_worker("stats-n200", tmp_path)["layers"]
    for name in (
        "acagp.select_higher.calls",
        "kernel.eval.evals",
        "kernel.eval_row_subset.evals",
    ):
        assert min(layers[name]) > 0, name


def test_traced_toy_approximate_reports_placement(tmp_path):
    # The benchmark times placement through the acakit.cli.place_clouds
    # binding; this keeps that binding and the approximate path working.
    result = run_toy_worker("approx-n10000", tmp_path)
    assert result["output_match"] == 1
    assert min(result["layers"]["geometry.place_clouds.calls"]) >= 1


def test_traced_toy_sweep_reports_realizations(tmp_path):
    # The sweep check reads every `aggregate` call of run_eps_sweep, and the
    # tracer counts realizations through experiments.run_realization.
    result = run_toy_worker("sweep-n200", tmp_path)
    assert min(result["layers"]["experiments.run_realization.calls"]) > 0

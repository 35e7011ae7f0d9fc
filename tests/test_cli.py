import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import acakit
from acakit import __version__
from acakit.cli import main
from acakit.geometry import PointCloud, cloud_to_json, generate_cloud, place_clouds


def write_cloud_pair(tmp_path, seed=0, n=25, m=25, dist=2.5):
    x, y, _ = place_clouds(1.0, n, m, dist, np.random.default_rng(seed))
    fx = tmp_path / "x.json"
    fy = tmp_path / "y.json"
    fx.write_text(cloud_to_json(x))
    fy.write_text(cloud_to_json(y))
    return fx, fy


def run_cli_process(*args):
    """Run the CLI in a fresh interpreter, so an uncaught exception shows as
    a traceback on stderr and a non-contract exit code."""
    env = {**os.environ, "PYTHONPATH": str(Path(acakit.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "acakit.cli", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# --- approximate -----------------------------------------------------------

def test_approximate_generated_clouds_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = [
        "approximate", "--gen", "xi=1,n=40,m=40,dist=2.5",
        "--method", "acagp", "--epsilon", "1e-6", "--seed", "42",
    ]
    assert main(argv + ["--out", str(out1)]) == 0
    summary1 = capsys.readouterr().out
    assert main(argv + ["--out", str(out2)]) == 0
    summary2 = capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes()
    assert summary1 == summary2
    assert "rank=" in summary1
    data = json.loads(out1.read_text())
    assert data["rank"] >= 1
    assert data["meta"]["seed"] == 42
    assert data["meta"]["config"]["method"] == "acagp"


def test_approximate_rank_one_compression(tmp_path, capsys):
    out = tmp_path / "skel.json"
    rc = main([
        "approximate", "--gen", "xi=1,n=30,m=20,dist=2.5",
        "--method", "aca", "--max-rank", "1", "--out", str(out),
    ])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["rank"] == 1
    summary = capsys.readouterr().out
    assert f"compression={(30 + 20) / (30 * 20):.6f}" in summary


def test_approximate_cloud_files(tmp_path, capsys):
    fx, fy = write_cloud_pair(tmp_path)
    rc = main(["approximate", "--clouds", str(fx), str(fy)])
    assert rc == 0
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["rank"] >= 1
    assert "rank=" in captured.err


def test_approximate_inadmissible_exit_code(tmp_path, capsys):
    cloud = generate_cloud(1.0, 1.0, 15, np.random.default_rng(1))
    f = tmp_path / "c.json"
    f.write_text(cloud_to_json(cloud))
    rc = main(["approximate", "--clouds", str(f), str(f)])
    assert rc == 3
    assert "admissibility" in capsys.readouterr().err


def test_approximate_force_overrides_admissibility(tmp_path, capsys):
    cloud = generate_cloud(1.0, 1.0, 15, np.random.default_rng(2))
    shifted = cloud.transformed(shift=(0.8, 0.0))  # overlapping ranges
    fx = tmp_path / "x.json"
    fy = tmp_path / "y.json"
    fx.write_text(cloud_to_json(cloud))
    fy.write_text(cloud_to_json(shifted))
    rc = main(["approximate", "--clouds", str(fx), str(fy), "--force"])
    assert rc == 0
    assert "warning" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["aca", "acagp"])
def test_approximate_coincident_points_exit_code(tmp_path, method):
    """A point of X on a point of Y makes a kernel value singular; the CLI
    reports it as an input error, not a traceback."""
    fx = tmp_path / "x.json"
    fy = tmp_path / "y.json"
    fx.write_text(cloud_to_json(PointCloud(np.array([[0.0, 0.0], [0.1, 0.0]]))))
    fy.write_text(cloud_to_json(PointCloud(np.array([[0.0, 0.0], [0.2, 0.1]]))))
    proc = run_cli_process(
        "approximate", "--force", "--clouds", str(fx), str(fy), "--method", method
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_approximate_unreachable_target_exit_code():
    """Placement that cannot reach the target distance is an input error."""
    proc = run_cli_process(
        "approximate", "--gen", "xi=1,n=1,m=1,dist=0.000001", "--seed", "3", "--force"
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, field",
    [
        (["benchmark", "--realizations", "2", "--eta", "nan"], "eta"),
        (["benchmark", "--realizations", "2", "--dist", "nan"], "target_dist"),
        (["sweep-central", "--realizations", "2", "--dist", "inf"], "target_dist"),
        (["approximate", "--gen", "xi=1,n=50,m=50,dist=inf", "--force"], "target_dist"),
        (["sweep-central", "--realizations", "2", "--central", "nan:0.5:0.1"], "finite"),
        (["sweep-central", "--realizations", "2", "--central", "0.1:nan:0.1"], "finite"),
        (["sweep-central", "--realizations", "2", "--central", "0.1:0.5:inf"], "finite"),
    ],
)
def test_non_finite_input_exit_code(argv, field):
    proc = run_cli_process(*argv)
    assert proc.returncode == 2
    error = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
    assert len(error) == 1 and field in error[0]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "central, message",
    [
        ("0.1:0.5:1e-300", "does not advance"),
        ("0.1:0.5:1e-9", "more than 10000 values"),
        # The step advances start but not v once it reaches 2.0.
        ("1.9999999999999:2.0000000000009:1.2e-16", "more than 10000 values"),
    ],
)
def test_unbounded_sweep_range_exit_code(central, message):
    proc = run_cli_process("sweep-central", "--realizations", "2", "--central", central)
    assert proc.returncode == 2
    error = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
    assert len(error) == 1 and message in error[0]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "points", [{"a": 1}, [[0.0, {"b": 2}]], [[0.0, "x"]]], ids=["dict", "nested", "string"]
)
def test_non_numeric_points_exit_code(tmp_path, points):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": points}))
    _, good = write_cloud_pair(tmp_path)
    proc = run_cli_process("approximate", "--clouds", str(bad), str(good), "--force")
    assert proc.returncode == 2
    error = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
    assert len(error) == 1 and '"points"' in error[0]
    assert "Traceback" not in proc.stderr


def test_approximate_subnormal_central_fraction():
    """A tiny positive --central is valid; growing the central subsets from
    it must terminate."""
    proc = run_cli_process(
        "approximate", "--gen", "xi=1,n=30,m=30,dist=2", "--central", "5e-324",
        "--max-rank", "5", "--force",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rank"] == 5


def test_approximate_bad_gen_string(capsys):
    assert main(["approximate", "--gen", "xi=1,n=10"]) == 2
    assert "error:" in capsys.readouterr().err


def test_approximate_bad_cloud_file(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    assert main(["approximate", "--clouds", str(f), str(f)]) == 2


def test_approximate_missing_cloud_file(tmp_path):
    assert main([
        "approximate", "--clouds",
        str(tmp_path / "nope1.json"), str(tmp_path / "nope2.json"),
    ]) == 2


def test_approximate_gen_and_clouds_mutually_exclusive(tmp_path):
    fx, fy = write_cloud_pair(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([
            "approximate", "--gen", "xi=1,n=10,m=10,dist=2",
            "--clouds", str(fx), str(fy),
        ])
    assert exc.value.code == 2


# --- benchmark ----------------------------------------------------------------

BENCH_ARGS = [
    "benchmark", "--n", "30", "--m", "30", "--dist", "2.0",
    "--realizations", "4", "--max-rank", "3", "--central", "0.5",
]


def test_benchmark_stdout_layout(capsys):
    assert main(BENCH_ARGS) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().splitlines() if not ln.startswith("#")]
    assert lines[0].startswith("rank,method,")
    assert len(lines) == 1 + 3 * 3


def test_benchmark_writes_file(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(BENCH_ARGS + ["--out", str(out)]) == 0
    assert out.exists()
    assert "rank,method," in out.read_text()


def test_benchmark_thread_count_invariant(tmp_path):
    f1 = tmp_path / "t1.csv"
    f2 = tmp_path / "t2.csv"
    assert main(BENCH_ARGS + ["--threads", "1", "--out", str(f1)]) == 0
    assert main(BENCH_ARGS + ["--threads", "2", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_benchmark_single_realization(capsys):
    argv = [
        "benchmark", "--n", "25", "--m", "25", "--realizations", "1",
        "--max-rank", "2", "--central", "0.5",
    ]
    assert main(argv) == 0
    rows = [
        ln.split(",")
        for ln in capsys.readouterr().out.strip().splitlines()
        if not ln.startswith("#") and not ln.startswith("rank,")
    ]
    assert all(float(row[3]) == 0.0 for row in rows)


# --- sweep ------------------------------------------------------------------------

def test_sweep_central_range(capsys):
    argv = [
        "sweep-central", "--n", "30", "--m", "30", "--realizations", "3",
        "--max-rank", "2", "--central", "0.1:0.3:0.1",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    rows = [
        ln.split(",")
        for ln in out.strip().splitlines()
        if not ln.startswith("#") and not ln.startswith("epsilon_r,")
    ]
    eps_values = sorted({row[0] for row in rows})
    assert eps_values == ["0.1", "0.2", "0.3"]
    rank1_gains = {row[2] for row in rows if row[1] == "1"}
    assert len(rank1_gains) == 1


def test_sweep_central_bad_range(capsys):
    assert main(["sweep-central", "--central", "0.5:0.1:0.1"]) == 2


def test_sweep_central_rejects_grid_before_any_realization(monkeypatch, capsys):
    calls = []
    real = acakit.experiments.place_clouds

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(acakit.experiments, "place_clouds", counted)
    argv = ["sweep-central", "--n", "20", "--m", "20", "--realizations", "2",
            "--max-rank", "2", "--central", "0.5:1.5:0.5"]
    assert main(argv) == 2
    error = [ln for ln in capsys.readouterr().err.splitlines()
             if ln.startswith("error:")]
    assert len(error) == 1 and "epsilon_r" in error[0]
    assert calls == []


# --- genetic -----------------------------------------------------------------------

def test_genetic_csv(tmp_path):
    out = tmp_path / "gen.csv"
    grid = tmp_path / "grid.csv"
    argv = [
        "genetic", "--n", "12", "--m", "12", "--max-rank", "3",
        "--out", str(out), "--grid-out", str(grid),
    ]
    assert main(argv) == 0
    lines = out.read_text().strip().splitlines()
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header == "rank,genetic_error,aca_error,svd_error,genetic_i,genetic_j"
    rows = [ln.split(",") for ln in lines[lines.index(header) + 1:]]
    # The greedy exhaustive pivot beats the classical choice at rank 1;
    # beyond that the two condition on different histories.
    assert float(rows[0][1]) <= float(rows[0][2]) + 1e-12
    for rank, g_err, a_err, s_err, gi, gj in rows:
        assert float(s_err) <= float(g_err) + 1e-12
        assert float(s_err) <= float(a_err) + 1e-12
    glines = grid.read_text().strip().splitlines()
    gheader = next(ln for ln in glines if not ln.startswith("#"))
    assert gheader == "rank,i,j,rel_error"
    assert len(glines) > 10

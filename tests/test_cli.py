import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import acakit
import acakit._pool
from acakit import __version__
from acakit.cli import main
from acakit.geometry import (
    PointCloud,
    cloud_to_json,
    generate_cloud,
    is_admissible,
    place_clouds,
)


def write_cloud_pair(tmp_path, seed=0, n=25, m=25, dist=2.5):
    x, y, _ = place_clouds(1.0, n, m, dist, np.random.default_rng(seed))
    fx = tmp_path / "x.json"
    fy = tmp_path / "y.json"
    fx.write_text(cloud_to_json(x))
    fy.write_text(cloud_to_json(y))
    return fx, fy


def cli_error(capsys, *args):
    """Run `main` in process, expect exit status 2 and one `error:` line on
    stderr, and return that line.  An exception that leaves `main`, which a
    fresh interpreter would print as a traceback, fails the test."""
    assert main(list(args)) == 2
    err = capsys.readouterr().err
    error = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert len(error) == 1
    return error[0]


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
def test_approximate_coincident_points_exit_code(tmp_path, method, capsys):
    """A point of X on a point of Y makes a kernel value singular; the CLI
    reports it as an input error, not a traceback."""
    fx = tmp_path / "x.json"
    fy = tmp_path / "y.json"
    fx.write_text(cloud_to_json(PointCloud(np.array([[0.0, 0.0], [0.1, 0.0]]))))
    fy.write_text(cloud_to_json(PointCloud(np.array([[0.0, 0.0], [0.2, 0.1]]))))
    cli_error(
        capsys, "approximate", "--force", "--clouds", str(fx), str(fy),
        "--method", method,
    )


def test_approximate_stdout_and_out_file_match(tmp_path, capsys):
    """The document streamed to stdout is the bytes written to --out."""
    argv = ["approximate", "--gen", "xi=1,n=300,m=200,dist=2.5", "--seed", "3"]
    out = tmp_path / "skel.json"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def write_coincident_pair(tmp_path):
    fx = tmp_path / "x.json"
    fy = tmp_path / "y.json"
    fx.write_text(cloud_to_json(PointCloud(np.array([[0.0, 0.0], [0.1, 0.0]]))))
    fy.write_text(cloud_to_json(PointCloud(np.array([[0.0, 0.0], [0.2, 0.1]]))))
    return ["--force", "--clouds", str(fx), str(fy)], 2


def write_overlapping_pair(tmp_path):
    cloud = generate_cloud(1.0, 1.0, 15, np.random.default_rng(1))
    f = tmp_path / "c.json"
    f.write_text(cloud_to_json(cloud))
    return ["--clouds", str(f), str(f)], 3


@pytest.mark.parametrize(
    "inputs", [write_coincident_pair, write_overlapping_pair],
    ids=["coincident", "inadmissible"],
)
def test_approximate_failure_keeps_existing_out_file(tmp_path, inputs):
    """--out is opened only once the skeleton is built, so a run that
    fails leaves an existing file as it was."""
    args, code = inputs(tmp_path)
    out = tmp_path / "skel.json"
    out.write_bytes(b'{"kept": true}\n')
    assert main(["approximate", *args, "--out", str(out)]) == code
    assert out.read_bytes() == b'{"kept": true}\n'


def test_approximate_out_directory_exit_code(tmp_path, capsys):
    assert main(
        ["approximate", "--gen", "xi=1,n=20,m=20,dist=2.5", "--out", str(tmp_path)]
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_approximate_out_never_holds_the_document(tmp_path, capsys):
    """`approximate --out` streams the skeleton JSON: the run's traced peak
    allocation stays below the document's length.  Building the whole
    document before writing it peaked at 2.9 times its 3.7 MB here."""
    out = tmp_path / "skel.json"
    argv = ["approximate", "--max-rank", "20", "--epsilon", "1e-10", "--seed", "42",
            "--force", "--out", str(out)]
    # Imports and lazy tables load outside the traced run.
    assert main(argv[:-2] + ["--gen", "xi=1,n=60,m=60,dist=1.5", "--out", str(out)]) == 0
    tracemalloc.start()
    try:
        assert main(argv + ["--gen", "xi=1,n=4000,m=4000,dist=1.5"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < out.stat().st_size


def test_approximate_unreachable_target_exit_code(capsys):
    """Placement that cannot reach the target distance is an input error."""
    cli_error(
        capsys, "approximate", "--gen", "xi=1,n=1,m=1,dist=0.000001", "--seed", "3",
        "--force",
    )


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
        (["approximate", "--gen", "xi=1,n=20,m=20,dist=2", "--eta", "nan"], "eta"),
    ],
)
def test_non_finite_input_exit_code(argv, field, capsys):
    assert field in cli_error(capsys, *argv)


def extreme_scale_argv(command, scale, tmp_path):
    """`command` with clouds or a placement distance near `scale`."""
    if command == "benchmark":
        return ["benchmark", "--n", "10", "--m", "10", "--realizations", "2",
                "--max-rank", "3", "--dist", f"{scale:g}"]
    if command == "approximate --gen":
        return ["approximate", "--gen", f"xi=1,n=5,m=5,dist={scale:g}", "--force"]
    paths = []
    for name, sign in (("x", 1.0), ("y", -1.0)):
        path = tmp_path / f"{name}.json"
        points = [[sign * scale * (1.0 + 0.1 * k), float(k)] for k in range(5)]
        path.write_text(json.dumps({"points": points}))
        paths.append(str(path))
    return ["approximate", "--clouds", *paths, "--force"]


@pytest.mark.parametrize(
    "command", ["approximate --gen", "approximate --clouds", "benchmark"]
)
def test_extreme_scale_exit_code(command, tmp_path, capsys):
    """Coordinates or a distance past 1e150 would overflow the squared
    distances and zero every kernel entry, so they are input errors: one
    `error:` line, status 2 and no warning.  Cloud files at 1e100 still
    run; placement keeps 5 or 10 points apart up to a distance of 1e12 (it
    refuses 1e100, see test_merging_placement_exit_code)."""
    runs = 1e100 if command == "approximate --clouds" else 1e12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(extreme_scale_argv(command, 1e160, tmp_path)) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "1e+150" in err
        assert main(extreme_scale_argv(command, runs, tmp_path)) == 0


@pytest.mark.parametrize("command", ["approximate", "benchmark"])
def test_merging_placement_exit_code(command, capsys):
    """A placement distance so far that distinct points of X round to one
    point is an input error, not a skeleton of another matrix."""
    if command == "approximate":
        argv = ["approximate", "--gen", "xi=1,n=5,m=5,dist=1e100", "--force"]
    else:
        argv = ["benchmark", "--n", "10", "--m", "10", "--realizations", "2",
                "--max-rank", "3", "--dist", "1e100"]
    assert "merges distinct points of X" in cli_error(capsys, *argv)


@pytest.mark.parametrize(
    "central, message",
    [
        ("0.1:0.5:1e-300", "does not advance"),
        ("0.1:0.5:1e-9", "more than 10000 values"),
        # The step advances start but not v once it reaches 2.0.
        ("1.9999999999999:2.0000000000009:1.2e-16", "more than 10000 values"),
    ],
)
def test_unbounded_sweep_range_exit_code(central, message, capsys):
    argv = ["sweep-central", "--realizations", "2", "--central", central]
    assert message in cli_error(capsys, *argv)


@pytest.mark.parametrize(
    "points",
    [
        {"a": 1}, [[0.0, {"b": 2}]], [[0.0, "x"]], [["1", "2"]], [[True, False]],
        [[1, True]], [[10**400, 1]],
    ],
    ids=["dict", "nested", "string", "digit-strings", "bools", "one-bool", "huge-int"],
)
def test_non_numeric_points_exit_code(tmp_path, points, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": points}))
    _, good = write_cloud_pair(tmp_path)
    argv = ["approximate", "--clouds", str(bad), str(good), "--force"]
    assert '"points"' in cli_error(capsys, *argv)


def test_approximate_subnormal_central_fraction(capsys):
    """A tiny positive --central is valid; growing the central subsets from
    it must terminate."""
    rc = main([
        "approximate", "--gen", "xi=1,n=30,m=30,dist=2", "--central", "5e-324",
        "--max-rank", "5", "--force",
    ])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert json.loads(captured.out)["rank"] == 5


@pytest.mark.parametrize("method", ["aca", "acagp"])
@pytest.mark.parametrize("central", ["nan", "0", "2"])
def test_approximate_bad_central_exit_code(method, central, capsys):
    """--central is checked for every method, so `aca` never writes a bad
    radius into the skeleton's meta."""
    argv = ["approximate", "--gen", "xi=1,n=3,m=3,dist=2", "--method", method,
            "--central", central]
    assert "epsilon_r" in cli_error(capsys, *argv)


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    dist=st.sampled_from(["2", "0.3"]),
    method=st.sampled_from(["aca", "acagp"]),
    circles=st.sampled_from(["auto", "on", "off"]),
    central=st.sampled_from([None, "0.5", "0", "-1", "2", "nan", "inf"]),
    max_rank=st.sampled_from([None, "0", "1", "50"]),
    epsilon=st.sampled_from(["1e-6", "0", "nan"]),
    eta=st.sampled_from([None, "1", "0", "nan"]),
    force=st.booleans(),
)
@example(n=3, m=3, dist="2", method="aca", circles="auto", central="nan",
         max_rank=None, epsilon="1e-6", eta=None, force=True)
@example(n=2, m=5, dist="2", method="aca", circles="off", central="inf",
         max_rank="50", epsilon="1e-6", eta=None, force=True)
@example(n=4, m=4, dist="0.3", method="acagp", circles="auto", central=None,
         max_rank=None, epsilon="nan", eta=None, force=False)
@example(n=4, m=4, dist="0.3", method="acagp", circles="auto", central=None,
         max_rank=None, epsilon="1e-6", eta=None, force=False)  # exit 3
@example(n=4, m=4, dist="0.3", method="aca", circles="on", central="0.5",
         max_rank="1", epsilon="1e-6", eta="1", force=True)  # exit 0
def test_approximate_exit_code_contract(
    n, m, dist, method, circles, central, max_rank, epsilon, eta, force
):
    """An invalid option exits 2 with one `error:` line and nothing else,
    whether or not the clouds pass the admissibility test and whatever
    --force says.  Valid options exit 3 on clouds that fail the test
    without --force, and 0 otherwise with strict JSON (no NaN or
    Infinity)."""
    gen = f"xi=1,n={n},m={m},dist={dist}"
    argv = ["approximate", "--gen", gen, "--method", method,
            "--circles", circles, "--epsilon", epsilon]
    argv += ["--central", central] if central is not None else []
    argv += ["--max-rank", max_rank] if max_rank is not None else []
    argv += ["--eta", eta] if eta is not None else []
    argv += ["--force"] if force else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    invalid = (
        central in ("0", "-1", "2", "nan", "inf")
        or max_rank == "0"
        or epsilon in ("0", "nan")
        or eta in ("0", "nan")
    )
    if invalid:
        assert code == 2
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error:")
        assert out.getvalue() == ""
        return
    x, y, _ = place_clouds(1.0, n, m, float(dist), np.random.default_rng(0))
    admissible = is_admissible(x, y, float(eta or 1))
    assert code == (0 if admissible or force else 3)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=reject_constant)


def test_approximate_bad_gen_string(capsys):
    assert main(["approximate", "--gen", "xi=1,n=10"]) == 2
    assert "error:" in capsys.readouterr().err


def test_approximate_repeated_gen_key(capsys):
    assert main(["approximate", "--gen", "xi=1,n=5,m=5,dist=2,dist=3"]) == 2
    captured = capsys.readouterr()
    error = [ln for ln in captured.err.splitlines() if ln.startswith("error:")]
    assert len(error) == 1 and "'dist'" in error[0]
    assert captured.out == ""


@pytest.mark.parametrize("method", ["aca", "acagp"])
@pytest.mark.parametrize("central", [[], ["--central", "0.5"]], ids=["default", "given"])
def test_approximate_zero_max_rank_message(method, central, capsys):
    argv = [
        "approximate", "--gen", "xi=1,n=20,m=20,dist=2", "--force",
        "--method", method, "--max-rank", "0", *central,
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: k_max must be at least 1\n"
    assert captured.out == ""


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


@pytest.mark.parametrize(
    "command, threads", [("benchmark", "0"), ("sweep-central", "-3")]
)
def test_threads_below_one_exit_code(command, threads, capsys):
    argv = [command, "--realizations", "2", "--threads", threads]
    assert "threads" in cli_error(capsys, *argv)


POOL_ARGS = {
    "benchmark": (200, []),
    "sweep-central": (70, ["--central", "0.1:0.3:0.1"]),
}


# 70 realizations x 3 radii = 210 runs: 2 workers.
POOL_SWEEP = [
    "sweep-central", "--n", "30", "--m", "30", "--dist", "2.0",
    "--max-rank", "4", "--realizations", "70", "--central", "0.1:0.3:0.1",
]


@pytest.mark.parametrize("command", sorted(POOL_ARGS))
def test_pooled_csv_matches_serial(command, tmp_path, monkeypatch):
    realizations, extra = POOL_ARGS[command]
    monkeypatch.setattr(acakit.experiments, "_usable_cpus", lambda: 2)
    assert acakit.experiments._worker_count(2, realizations, 3 if extra else 1) == 2
    pools = []

    class Spy(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(acakit._pool, "ProcessPoolExecutor", Spy)
    argv = [
        command, "--n", "30", "--m", "30", "--dist", "2.0", "--max-rank", "4",
        "--realizations", str(realizations), *extra,
    ]
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.csv"
        assert main(argv + ["--threads", threads, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert pools == [2]
    assert outs[0] == outs[1]


def test_pooled_runs_in_one_process_match_serial(tmp_path, monkeypatch):
    """In one process, a pooled sweep, a pooled benchmark with another n
    and seed, the first sweep again and a 3-worker sweep each give their
    serial run's bytes.  Each run has its own pool, and every worker is
    forked from one fork server."""
    pools = []

    class Spy(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            super().__init__(max_workers, **kwargs)
            self.workers = max_workers
            self.forked_by = set()
            pools.append(self)

        def shutdown(self, *args, **kwargs):
            probes = [self.submit(os.getppid) for _ in range(self.workers)]
            self.forked_by.update(probe.result(timeout=60) for probe in probes)
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(acakit._pool, "ProcessPoolExecutor", Spy)
    monkeypatch.setattr(acakit.experiments, "_usable_cpus", lambda: 2)
    bench = [
        "benchmark", "--n", "24", "--m", "24", "--dist", "2.0",
        "--max-rank", "4", "--realizations", "200", "--seed", "7",
    ]

    def csv(argv, threads):
        out = tmp_path / "out.csv"
        assert main(argv + ["--threads", threads, "--out", str(out)]) == 0
        return out.read_bytes()

    for argv in (POOL_SWEEP, bench, POOL_SWEEP):
        assert csv(argv, "2") == csv(argv, "1")
    # 70 realizations x 5 radii = 350 runs: 3 workers.
    monkeypatch.setattr(acakit.experiments, "_usable_cpus", lambda: 3)
    wide = POOL_SWEEP[:-1] + ["0.1:0.5:0.1"]
    assert csv(wide, "3") == csv(wide, "1")
    assert [p.workers for p in pools] == [2, 2, 2, 3]
    servers = set().union(*(p.forked_by for p in pools))
    assert len(servers) == 1 and os.getpid() not in servers


# Run as the main module, so every worker imports it again and gets the
# planted failure while the marker file exists; the parent keeps the real
# function.  A realization runs FAILURE.  MAIN is the main block's body.
PLANTED_WORKER = """
import multiprocessing
import os
import sys
from pathlib import Path

import acakit.experiments

real = acakit.experiments.run_realization
MARKER = Path(__file__).with_name("failing")


def planted(config, index, classical=None):
    if multiprocessing.parent_process() is not None and MARKER.exists():
        FAILURE
    return real(config, index, classical)


acakit.experiments.run_realization = planted
acakit.experiments._usable_cpus = lambda: 2

if __name__ == "__main__":
    from acakit.cli import main

    MAIN
"""
PLANTED_ARGS = [
    "benchmark", "--n", "30", "--m", "30", "--max-rank", "4",
    "--realizations", "200", "--threads", "2",
]


def run_planted_worker(tmp_path, failure, timeout, body="sys.exit(main(sys.argv[1:]))"):
    """Run the planted script on a pooled benchmark's arguments; its
    workers fail until the script deletes the marker file."""
    script = tmp_path / "planted_worker.py"
    script.write_text(PLANTED_WORKER.replace("FAILURE", failure).replace("MAIN", body))
    (tmp_path / "failing").touch()
    env = {**os.environ, "PYTHONPATH": str(Path(acakit.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, str(script), *PLANTED_ARGS],
        capture_output=True, text=True, env=env, timeout=timeout, cwd=tmp_path,
    )


def test_worker_value_error_exit_code(tmp_path):
    proc = run_planted_worker(
        tmp_path,
        'raise ValueError(f"planted failure in realization {index}")',
        timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    error = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
    assert len(error) == 1 and "planted failure" in error[0]


def test_dead_worker_exit_code(tmp_path):
    """A worker that exits mid-task (killed, out of memory) fails the run
    instead of leaving the parent waiting for its chunk."""
    proc = run_planted_worker(tmp_path, "os._exit(1)", timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    error = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
    assert len(error) == 1


# A pooled run whose worker dies, then the same run pooled and serially
# once the marker is gone, all in one process.
RECOVERY = """codes = [main(sys.argv[1:] + ["--out", "dead.csv"])]
    MARKER.unlink()
    codes.append(main(sys.argv[1:] + ["--out", "pooled.csv"]))
    codes.append(main(sys.argv[1:] + ["--threads", "1", "--out", "serial.csv"]))
    print(codes)"""


def test_dead_worker_fails_only_its_run(tmp_path):
    """A worker that dies fails its run as before, and the next pooled run
    in the process gets the serial bytes."""
    proc = run_planted_worker(tmp_path, "os._exit(1)", timeout=120, body=RECOVERY)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    error = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
    assert len(error) == 1
    assert proc.stdout.strip() == "[2, 0, 0]"
    pooled = (tmp_path / "pooled.csv").read_bytes()
    assert pooled == (tmp_path / "serial.csv").read_bytes()


# Puts acakit on sys.path at run time, as perfbench does, runs a pooled
# sweep and prints the fork server's pid, whether the server has numpy
# loaded, and the pids of any worker still running.
SERVER_PROBE = """
import json
import multiprocessing
import multiprocessing.forkserver
import sys

sys.path.insert(0, sys.argv.pop(1))
import acakit.experiments
from acakit.cli import main

acakit.experiments._usable_cpus = lambda: 2
code = main(sys.argv[1:])
server = multiprocessing.forkserver._forkserver._forkserver_pid
with open(f"/proc/{server}/maps") as maps:
    numpy_loaded = "_multiarray_umath" in maps.read()
print(json.dumps([server, numpy_loaded, [p.pid for p in multiprocessing.active_children()]]))
sys.exit(code)
"""


def running(pid):
    """Whether `pid` runs: it exists and is no zombie left to be reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    stat = Path(f"/proc/{pid}/stat")
    return not stat.exists() or stat.read_text().rsplit(")", 1)[1].split()[0] != "Z"


def test_fork_server_preloads_numpy_and_exits_with_its_process(tmp_path):
    """The fork server imports acakit, so numpy, even when acakit is only
    on the caller's sys.path.  A process that returns normally after a
    pooled run leaves nothing running: each run joins its workers, and
    the server exits with the process that started it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", SERVER_PROBE, str(Path(acakit.__file__).parents[1]),
         *POOL_SWEEP, "--threads", "2", "--out", str(tmp_path / "sweep.csv")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    server, numpy_loaded, workers = json.loads(proc.stdout)
    assert numpy_loaded and workers == []
    # The server exits with the probe; the deadline covers its exit.
    deadline = time.monotonic() + 5
    while running(server) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not running(server)


CLOSED_STDOUT = """
import sys

import acakit.experiments
from acakit.cli import main

acakit.experiments._usable_cpus = lambda: 2
sys.exit(main(sys.argv[1:]))
"""


def test_pooled_run_with_stdout_closed(tmp_path):
    """A pooled run whose caller has descriptor 1 closed (`>&-`) writes
    its --out file as a serial run does."""
    env = {**os.environ, "PYTHONPATH": str(Path(acakit.__file__).parents[1])}
    out = {}
    for threads in ("2", "1"):
        out[threads] = tmp_path / f"sweep-{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-c", CLOSED_STDOUT, *POOL_SWEEP,
             "--threads", threads, "--out", str(out[threads])],
            stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            preexec_fn=lambda: os.close(1),
        )
        assert proc.returncode == 0, proc.stderr
    assert out["2"].read_bytes() == out["1"].read_bytes()


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


def record_calls(monkeypatch, module, *names):
    """Replace each named function of `module` by a wrapper that records
    its name, and return the record."""
    calls = []
    for name in names:
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_sweep_central_rejects_grid_before_any_realization(monkeypatch, capsys):
    calls = record_calls(monkeypatch, acakit.experiments, "place_clouds")
    argv = ["sweep-central", "--n", "20", "--m", "20", "--realizations", "2",
            "--max-rank", "2", "--central", "0.5:1.5:0.5"]
    assert "epsilon_r" in cli_error(capsys, *argv)
    assert calls == []


@pytest.mark.parametrize("command", ["benchmark", "sweep-central"])
@pytest.mark.parametrize("dist", ["1e200", "nan"])
def test_bad_dist_starts_no_worker_and_places_no_cloud(
    command, dist, monkeypatch, capsys
):
    """`place_clouds`' rule refuses --dist before the first realization,
    with 200 realizations on two threads that would otherwise pool."""
    calls = record_calls(
        monkeypatch, acakit.experiments, "pool_map", "place_clouds"
    )
    argv = [command, "--dist", dist, "--threads", "2", "--realizations", "200",
            "--n", "5", "--m", "5"]
    assert cli_error(capsys, *argv) == (
        "error: target_dist must be finite, positive and at most 1e+150"
    )
    assert calls == []


@pytest.mark.parametrize("argv, message", [
    (["genetic", "--max-rank", "0"], "k_max must be at least 1"),
    (["approximate", "--gen", "xi=1,n=4,m=4,dist=0.3", "--epsilon", "nan"],
     "epsilon must be finite and positive"),
], ids=["genetic", "approximate"])
def test_bad_option_places_and_tests_no_cloud(argv, message, monkeypatch, capsys):
    calls = record_calls(monkeypatch, acakit.cli, "place_clouds", "is_admissible")
    assert cli_error(capsys, *argv) == f"error: {message}"
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

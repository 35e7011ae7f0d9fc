"""One benchmark process: set up acakit, run one workload, check every output.

Started by `run.py`, once per measurement, so that set-up time and peak
memory belong to one workload in one process.  Modes:

- `setup`: import acakit and run the workload's toy-size warm-up, then exit;
- `untraced`: set up, then run operations in a closed loop (one caller, the
  next operation after the previous one returns) for `--seconds`;
- `traced`: the same loop with `tracing.Tracer` installed after set-up.

Operations go through the public CLI entry point `acakit.cli.main`
in-process.  The last line on stdout is one JSON object for `run.py`.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 42
WORKLOADS = ("stats-n200", "sweep-n200", "approx-n10000")
SAMPLE_ROWS = 64  # matrix rows on which approx-n10000 measures true errors
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
)


class CheckFailure(Exception):
    """An output broke an invariant or its recorded hash."""


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    """CPU count and affinity, BLAS build and thread variables, versions."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "nproc": usable_cores(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
        },
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# --- workloads -----------------------------------------------------------

# Per workload: the measured size, the toy size used by selftest.py, and
# the warm-up size that belongs to set-up (one of each per workload path).
SIZES = {
    "stats-n200": {
        "full": {"n": 200, "realizations": 100, "k": 10},
        "warm": {"n": 200, "realizations": 2, "k": 10},
        "toy": {"n": 30, "realizations": 4, "k": 5},
        "toy-warm": {"n": 20, "realizations": 2, "k": 3},
    },
    "sweep-n200": {
        "full": {"n": 200, "realizations": 50, "k": 10, "grid": None},
        "warm": {"n": 200, "realizations": 2, "k": 10, "grid": "0.1:0.15:0.05"},
        "toy": {"n": 30, "realizations": 3, "k": 5, "grid": "0.1:0.2:0.05"},
        "toy-warm": {"n": 20, "realizations": 2, "k": 3, "grid": "0.1:0.15:0.05"},
    },
    "approx-n10000": {
        "full": {"n": 10000, "k": 30},
        "warm": {"n": 1000, "k": 30},
        "toy": {"n": 300, "k": 10},
        "toy-warm": {"n": 100, "k": 5},
    },
}
SWEEP_DEFAULT_GRID = "0.1:0.5:0.05"  # the CLI's default --central for sweep-central


def grid_values(text: str) -> list[float]:
    start, stop, step = (float(p) for p in text.split(":"))
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def parse_csv(text: str) -> list[dict[str, str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def mean_log10(values) -> float:
    logs = [math.log10(v) for v in values if v > 0.0 and math.isfinite(v)]
    if not logs:
        raise CheckFailure("no finite positive value to average")
    return sum(logs) / len(logs)


def check_rank_stats(stats, k: int, n: int, m: int) -> None:
    """Invariants (a) and (b) on one aggregated benchmark."""
    if len(stats) != k:
        raise CheckFailure(f"expected {k} ranks, got {len(stats)}")
    for s in stats:
        e = s.e_log_mean
        if e["aca"] < e["svd"] or e["acagp"] < e["svd"]:
            raise CheckFailure(f"rank {s.rank}: log error below the SVD floor")
        if s.kernel_evals_mean["aca"] != s.rank * (n + m):
            raise CheckFailure(f"rank {s.rank}: aca spent {s.kernel_evals_mean['aca']}")


class Workload:
    """Builds one operation's CLI invocations and checks their outputs.

    `check` returns (output bytes, per-operation values) and raises
    CheckFailure on a broken invariant.  The values are keyed
    kernel_evals.*, err.*.log10_mean and gain.log10_mean.
    """

    def __init__(self, name: str, size: dict, seed: int, workdir: Path):
        self.name = name
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.n = self.m = size["n"]

    @property
    def realizations(self) -> int:
        raise NotImplementedError

    def invocations(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, stdouts: list[str], captured: dict) -> tuple[bytes, dict]:
        raise NotImplementedError


class Stats(Workload):
    """`acakit benchmark`: the pinned statistics protocol, single-threaded."""

    @property
    def realizations(self) -> int:
        return self.size["realizations"]

    def invocations(self):
        s = self.size
        return [[
            "benchmark", "--xi", "1", "--n", str(s["n"]), "--m", str(s["n"]),
            "--dist", "1.5", "--realizations", str(s["realizations"]),
            "--max-rank", str(s["k"]), "--central", "0.25", "--threads", "1",
            "--seed", str(self.seed),
        ]]

    def check(self, stdouts, captured):
        k, n, m = self.size["k"], self.n, self.m
        rows = parse_csv(stdouts[0])
        cell = defaultdict(dict)
        for row in rows:
            cell[row["method"]][int(row["rank"])] = row
        if any(sorted(cell[meth]) != list(range(1, k + 1)) for meth in ("aca", "acagp", "svd")):
            raise CheckFailure("CSV does not hold every (rank, method) row")
        for r in range(1, k + 1):
            e = {meth: float(cell[meth][r]["e_log_mean"]) for meth in cell}
            if e["aca"] < e["svd"] or e["acagp"] < e["svd"]:
                raise CheckFailure(f"rank {r}: log error below the SVD floor")
            if float(cell["aca"][r]["kernel_evals_mean"]) != r * (n + m):
                raise CheckFailure(f"rank {r}: aca evaluations differ from r(n+m)")
        values = {
            "kernel_evals.aca": float(cell["aca"][k]["kernel_evals_mean"]),
            "kernel_evals.acagp": float(cell["acagp"][k]["kernel_evals_mean"]),
            "err.aca.log10_mean": sum(float(cell["aca"][r]["e_log_mean"]) for r in range(1, k + 1)) / k,
            "err.acagp.log10_mean": sum(float(cell["acagp"][r]["e_log_mean"]) for r in range(1, k + 1)) / k,
            "gain.log10_mean": mean_log10(
                float(cell["acagp"][r]["gain_log_mean"]) for r in range(1, k + 1)
                if cell["acagp"][r]["gain_log_mean"] not in ("", "inf")
            ),
        }
        return stdouts[0].encode(), values


class Sweep(Workload):
    """`acakit sweep-central` over the default grid, on all usable cores."""

    @property
    def grid(self) -> str:
        return self.size["grid"] or SWEEP_DEFAULT_GRID

    @property
    def realizations(self) -> int:
        return self.size["realizations"] * len(grid_values(self.grid))

    def invocations(self):
        s = self.size
        argv = [
            "sweep-central", "--n", str(s["n"]), "--m", str(s["n"]), "--dist", "1.5",
            "--realizations", str(s["realizations"]), "--max-rank", str(s["k"]),
            "--threads", str(usable_cores()), "--seed", str(self.seed),
        ]
        if s["grid"] is not None:
            argv += ["--central", s["grid"]]
        return [argv]

    def check(self, stdouts, captured):
        k, n, m = self.size["k"], self.n, self.m
        grid = grid_values(self.grid)
        rows = parse_csv(stdouts[0])
        if len(rows) != len(grid) * k:
            raise CheckFailure(f"expected {len(grid) * k} sweep rows, got {len(rows)}")
        aggregates = captured["aggregate"]
        if len(aggregates) != len(grid):
            raise CheckFailure(f"expected {len(grid)} aggregations, got {len(aggregates)}")
        for stats in aggregates:
            check_rank_stats(stats, k, n, m)

        def over_grid(fn) -> float:
            return sum(fn(stats) for stats in aggregates) / len(aggregates)

        values = {
            "kernel_evals.aca": over_grid(lambda st: st[-1].kernel_evals_mean["aca"]),
            "kernel_evals.acagp": over_grid(lambda st: st[-1].kernel_evals_mean["acagp"]),
            "err.aca.log10_mean": over_grid(lambda st: sum(s.e_log_mean["aca"] for s in st) / k),
            "err.acagp.log10_mean": over_grid(lambda st: sum(s.e_log_mean["acagp"] for s in st) / k),
            "gain.log10_mean": mean_log10(
                float(row["gain_log_mean"]) for row in rows
                if row["gain_log_mean"] not in ("", "inf")
            ),
        }
        return stdouts[0].encode(), values


SUMMARY = re.compile(r"method=(\w+) rank=(\d+) .* kernel_evals=(\d+)")


class Approx(Workload):
    """`acakit approximate` on one 10k x 10k placement, acagp then aca.

    The CLI seed stays 42, as in the pinned operation, whatever the
    benchmark seed: one operation is one cloud pair, too few to average
    out how placement cost, rank and the per-pair gain swing between cloud
    pairs (about 20 % in wall time and 100 % in gain over seeds 1-5).
    Every run therefore also checks the recorded hash.  `--force` keeps
    clouds that fail the eta = 1 admissibility test (about half of all
    pairs at dist 1.5) from exiting with code 3; it changes no output byte.
    """

    realizations = 1  # one cloud pair, approximated by both methods

    def __init__(self, name: str, size: dict, seed: int, workdir: Path):
        super().__init__(name, size, DEFAULT_SEED, workdir)

    def path(self, method: str) -> Path:
        return self.workdir / f"{self.name}-{method}.json"

    def invocations(self):
        s = self.size
        gen = f"xi=1,n={s['n']},m={s['n']},dist=1.5"
        return [
            ["approximate", "--gen", gen, "--max-rank", str(s["k"]), "--epsilon", "1e-10",
             "--seed", str(self.seed), "--method", method, "--force",
             "--out", str(self.path(method))]
            for method in ("acagp", "aca")
        ]

    def check(self, stdouts, captured):
        n, m, k_max = self.n, self.m, min(self.size["k"], self.n, self.m)
        blobs, skeletons, evals = [], {}, {}
        for method, text in zip(("acagp", "aca"), stdouts):
            match = SUMMARY.search(text)
            if match is None or match.group(1) != method:
                raise CheckFailure(f"{method}: no CLI summary line")
            rank, evals[method] = int(match.group(2)), int(match.group(3))
            blob = self.path(method).read_bytes()
            blobs.append(blob)
            skel = json.loads(blob)
            if skel["rank"] != rank or len(set(skel["pivot_rows"])) != rank \
                    or len(set(skel["pivot_cols"])) != rank:
                raise CheckFailure(f"{method}: rank and pivots disagree")
            skeletons[method] = skel
        rank = skeletons["aca"]["rank"]
        extra = evals["aca"] - rank * (n + m)
        if extra < 0 or extra % m:
            raise CheckFailure(f"aca: {evals['aca']} evaluations at rank {rank}")
        (gp,) = captured["aca_gp"]
        budget = k_max * (n + m) + k_max * (gp.central_row_count + gp.central_col_count) + n + m
        if evals["acagp"] > budget:
            raise CheckFailure(f"acagp: {evals['acagp']} evaluations exceed {budget}")
        x, y, _ = captured["place_clouds"][0]
        errors = sampled_errors(x.points, y.points, skeletons)
        values = {
            "kernel_evals.aca": float(evals["aca"]),
            "kernel_evals.acagp": float(evals["acagp"]),
            "err.aca.log10_mean": mean_log10(errors["aca"]),
            "err.acagp.log10_mean": mean_log10(errors["acagp"]),
            "gain.log10_mean": mean_log10(
                (a - s) / (g - s)
                for a, g, s in zip(errors["aca"], errors["acagp"], errors["svd"])
                if g - s > 1e-14
            ),
        }
        return b"".join(blobs), values


def sampled_errors(xp, yp, skeletons: dict) -> dict[str, list[float]]:
    """Per-rank relative errors of both skeletons on a block of evenly
    spaced rows, with that block's truncated-SVD floor.

    The block's best rank-r error never exceeds the error of any rank-r
    product restricted to it, so invariant (a) holds exactly on the block.
    """
    rows = np.unique(np.linspace(0, len(xp) - 1, SAMPLE_ROWS).astype(int))
    block = 1.0 / np.linalg.norm(xp[rows, None, :] - yp[None, :, :], axis=2)
    fro = float(np.linalg.norm(block))
    rank = min(skel["rank"] for skel in skeletons.values())
    out: dict[str, list[float]] = {}
    for method, skel in skeletons.items():
        u = np.asarray(skel["U"])[:, rows]  # (k, rows)
        v = np.asarray(skel["V"])  # (k, m)
        residual = block.copy()
        errs = []
        for r in range(rank):
            residual -= np.outer(u[r], v[r])
            errs.append(float(np.linalg.norm(residual)) / fro)
        out[method] = errs
    s = np.linalg.svd(block, compute_uv=False)
    tail = np.sqrt(np.maximum(np.cumsum((s * s)[::-1])[::-1], 0.0))
    out["svd"] = [float(tail[r + 1]) / fro if r + 1 < len(tail) else 0.0 for r in range(rank)]
    for method in ("aca", "acagp"):
        for r, (e, floor) in enumerate(zip(out[method], out["svd"]), start=1):
            if e < floor * (1.0 - 1e-12):
                raise CheckFailure(f"{method} rank {r}: sampled error below the SVD floor")
    return out


def make_workload(name: str, toy: bool, warm: bool, seed: int, workdir: Path) -> Workload:
    key = {(False, False): "full", (False, True): "warm",
           (True, False): "toy", (True, True): "toy-warm"}[(toy, warm)]
    cls = {"stats-n200": Stats, "sweep-n200": Sweep, "approx-n10000": Approx}[name]
    return cls(name, SIZES[name][key], seed, workdir)


# --- running ---------------------------------------------------------------

class Capture:
    """Keeps the return values of a few library calls for the output checks.

    One Python call per captured function per operation; installed outside
    any span, so it adds nothing measurable to either run.
    """

    def __init__(self) -> None:
        self.results: dict[str, list] = defaultdict(list)

    def hook(self, module, attr: str) -> None:
        fn = getattr(module, attr)
        results = self.results[attr]

        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            results.append(result)
            return result

        setattr(module, attr, captured)

    def clear(self) -> None:
        for results in self.results.values():
            results.clear()


def run_op(cli_main, invocations) -> tuple[float, list[str]]:
    """Time one operation; raises CheckFailure on a non-zero exit code."""
    stdouts = []
    start = time.perf_counter()
    for argv in invocations:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        if code != 0:
            raise CheckFailure(f"exit code {code} from {argv[0]}: {err.getvalue().strip()}")
        stdouts.append(out.getvalue())
    return time.perf_counter() - start, stdouts


def expected_digest(workload: Workload, toy: bool) -> str | None:
    if toy or workload.seed != DEFAULT_SEED:
        return None
    return json.loads((HERE / "expected.json").read_text())["sha256"][workload.name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="JSONL file for the spans (traced mode)")
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for selftest.py")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import acakit.cli

    warm = make_workload(args.workload, args.toy, True, args.seed, args.workdir)
    run_op(acakit.cli.main, warm.invocations())
    setup_s = time.perf_counter() - start
    result: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import acakit.experiments

    capture = Capture()
    capture.hook(acakit.experiments, "aggregate")
    capture.hook(acakit.cli, "aca_gp")
    capture.hook(acakit.cli, "place_clouds")
    cli_main = acakit.cli.main

    workload = make_workload(args.workload, args.toy, False, args.seed, args.workdir)
    invocations = workload.invocations()
    reference = expected_digest(workload, args.toy)
    walls: list[float] = []
    values: dict[str, list[float]] = defaultdict(list)
    failures: list[str] = []
    digests: list[str] = []
    ok_ops: list[int] = []
    deadline = time.perf_counter() + args.seconds
    op = 0
    while True:
        op += 1
        if tracer is not None:
            tracer.op = op
        capture.clear()
        try:
            wall, stdouts = run_op(cli_main, invocations)
            walls.append(wall)
            blob, op_values = workload.check(stdouts, capture.results)
            digest = hashlib.sha256(blob).hexdigest()
            digests.append(digest)
            reference = reference or digest
            if digest != reference:
                raise CheckFailure(f"sha256 {digest[:12]} differs from {reference[:12]}")
            for key, value in op_values.items():
                values[key].append(value)
            ok_ops.append(op)
        except Exception as exc:  # an operation's failure is counted, never retried
            failures.append(f"op {op}: {type(exc).__name__}: {exc}")
        if time.perf_counter() >= deadline:
            break

    result.update(
        attempted=op,
        failed=len(failures),
        failures=failures[:5],
        walls=walls,
        realizations=workload.realizations,
        digests=sorted(set(digests)),
        output_match=int(bool(digests) and all(d == reference for d in digests)),
        values=values,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    if tracer is not None:
        from tracing import layer_metrics

        if args.spans is not None:
            tracer.write_jsonl(args.spans)
        result["spans"] = len(tracer.spans)
        result["layers"] = layer_metrics(tracer.spans, ok_ops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""acakit benchmark: end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).

    python3 perfbench/run.py --workload stats-n200 --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, end-to-end metrics

Run from anywhere inside a checkout that has `src/acakit`.  Each
measurement runs in its own `worker.py` process, started after the previous
one has ended:

- `--trace 0`: SETUP_SAMPLES - MEASURERS set-up-only processes, then
  MEASURERS processes that each set up and run the workload for
  `--seconds / MEASURERS`.  Operation times are pooled over the measuring
  processes, so that no single process's thread placement sets the
  median; `setup_s` is the median of all SETUP_SAMPLES set-up times.
- `--trace 1`: TRACE_ROUNDS rounds of one untraced and one traced
  process, `--seconds / (2 * TRACE_ROUNDS)` each, so that a drift in
  machine speed hits both sides alike; `trace_overhead` compares their
  median operation times.

Human-readable lines (median, quartiles and sample count of every metric,
the environment, failed_frac) come first; the last stdout line is the JSON
result.  Spans of the traced runs go to
`.perfbench_work/trace-<workload>-<round>.jsonl`.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
SETUP_SAMPLES = 7
MEASURERS = 3
TRACE_ROUNDS = 2
RUN_LIMIT_S = 170.0  # every run ends well inside 180 s


def load_spec(trace: int) -> dict[str, dict]:
    """Name -> BENCHMARK.json entry of every metric a run reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def summary(name: str, values: list[float]) -> tuple[float, float, float]:
    """(q1, value, q3); the value is the median, or the 90th percentile for
    a `.p90` metric."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    if name.endswith(".p90"):
        return q1, statistics.quantiles(values, n=10, method="inclusive")[-1], q3
    return q1, statistics.median(values), q3


class Run:
    """Worker processes of one benchmark run, all under one deadline."""

    def __init__(self, workload: str, seed: int, toy: bool):
        self.workload = workload
        self.seed = seed
        self.toy = toy
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def worker(self, mode: str, seconds: float, *extra: str) -> dict:
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--seconds", str(seconds), "--mode", mode,
            "--workdir", str(WORKDIR), *extra,
        ] + (["--toy"] if self.toy else [])
        timeout = max(1.0, self.deadline - time.monotonic())
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(run: Run, seconds: float) -> tuple[dict, list[dict]]:
    """Sample lists of every end-to-end metric, and the workers' results."""
    setups = [run.worker("setup", 0)["setup_s"] for _ in range(SETUP_SAMPLES - MEASURERS)]
    workers = [run.worker("untraced", seconds / MEASURERS) for _ in range(MEASURERS)]
    setups += [w["setup_s"] for w in workers]

    def pooled(key: str) -> list[float]:
        return [v for w in workers for v in w["values"].get(key, [])]

    walls = [wall for w in workers for wall in w["walls"]]
    samples = {
        "setup_s": setups,
        "wall_s": walls,
        "realizations_per_s": [workers[0]["realizations"] / w for w in walls],
        "peak_rss_mb": [w["peak_rss_mb"] for w in workers],
        "kernel_evals.aca": pooled("kernel_evals.aca"),
        "kernel_evals.acagp": pooled("kernel_evals.acagp"),
        # Log10 errors are negative; reported as decades below 1 so that
        # every metric stays positive and its bound reads as a share.
        "err.aca.neg_log10_mean": [-v for v in pooled("err.aca.log10_mean")],
        "err.acagp.neg_log10_mean": [-v for v in pooled("err.acagp.log10_mean")],
        "gain.log10_mean": pooled("gain.log10_mean"),
        "output_match": [min(w["output_match"] for w in workers)],
    }
    return samples, workers


def per_layer(run: Run, seconds: float) -> tuple[dict, list[dict]]:
    share = seconds / (2 * TRACE_ROUNDS)
    untraced, traced = [], []
    for i in range(TRACE_ROUNDS):
        untraced.append(run.worker("untraced", share))
        spans = WORKDIR / f"trace-{run.workload}-{i}.jsonl"
        traced.append(run.worker("traced", share, "--spans", str(spans)))
    samples: dict[str, list[float]] = {}
    for w in traced:
        for name, values in w["layers"].items():
            samples.setdefault(name, []).extend(values)
    # A layer the workload never calls has no per-call sample: it reads 0.
    samples = {name: values or [0.0] for name, values in samples.items()}
    walls = {
        mode: [wall for w in workers for wall in w["walls"]]
        for mode, workers in (("untraced", untraced), ("traced", traced))
    }
    if walls["untraced"] and walls["traced"]:
        samples["trace_overhead"] = [
            statistics.median(walls["traced"]) / statistics.median(walls["untraced"]) - 1.0
        ]
    return samples, untraced + traced


def run_workload(workload: str, seed: int, seconds: float, trace: int, toy: bool) -> dict:
    spec = load_spec(trace)
    run = Run(workload, seed, toy)
    samples, workers = (per_layer if trace else end_to_end)(run, seconds)
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    digests = {d for w in workers for d in w["digests"]}
    missing = [name for name in spec if not samples.get(name)]
    correct = (
        failed == 0
        and not missing
        and len(digests) == 1
        and all(w["output_match"] == 1 for w in workers)
    )
    env = workers[0]["env"]
    print(f"== {workload} seed={seed} seconds={seconds:g} trace={trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>5s}  unit")
    metrics = {}
    for name in spec:
        values = samples.get(name)
        if not values:
            continue
        q1, med, q3 = summary(name, values)
        unit = spec[name]["unit"]
        metrics[name] = {"value": med, "unit": unit}
        print(f"{name:40s} {med:14.6g} {q1:14.6g} {q3:14.6g} {len(values):5d}  {unit}")
    if not trace:
        for name in ("err.aca", "err.acagp"):
            values = samples[f"{name}.neg_log10_mean"]
            if values:
                print(f"{name + '.log10_mean':40s} {-statistics.median(values):14.6g}"
                      f" {'':14s} {'':14s} {len(values):5d}  decades")
    print(f"{'failed_frac':40s} {failed / attempted:14.6g}"
          f" {'':14s} {'':14s} {attempted:5d}  ratio")
    for w in workers:
        for failure in w["failures"]:
            print(f"failure: {failure}")
    if missing:
        print(f"missing metrics: {', '.join(missing)}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny sizes and no recorded hashes (selftest.py)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "acakit" / "cli.py").is_file():
        print(f"error: no acakit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.toy)
        print(json.dumps(result))
        return 0
    results = {
        w: run_workload(w, args.seed, args.seconds, args.trace, args.toy) for w in WORKLOADS
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{name}": metric
            for w, r in results.items() for name, metric in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: approximate (one skeleton), benchmark (statistics over many
realizations), sweep-central (benchmark over a grid of central radii) and
genetic (exhaustive pivot oracle on a small instance).  Exit codes:
0 success, 2 usage or input error, 3 admissibility violation without
--force.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import _pool
from ._version import __version__
from .acagp import CircleHeuristics, GpOptions, aca_gp, default_epsilon_r
from .experiments import (
    RUN_TO_RANK_EPSILON,
    ExperimentConfig,
    _fmt,
    render_benchmark_csv,
    render_sweep_csv,
    run_benchmark,
    run_eps_sweep,
)
from .geometry import _check_placement, cloud_from_json, is_admissible, place_clouds
from .kernel import DenseCapExceededError, KernelHandle, SingularEvaluationError
from .lowrank import (
    StoppingParams,
    aca,
    compression_ratio,
    resolve_k_max,
    write_skeleton_json,
)
from .oracle import genetic_search, rank_errors, svd_rank_errors

__all__ = ["main"]

GEN_KEYS = ("xi", "n", "m", "dist")

# Most values a sweep-central range may give.
MAX_GRID_POINTS = 10_000


def _parse_gen(text: str) -> tuple[float, int, int, float]:
    """Parse a generation string like "xi=1,n=100,m=100,dist=2.5" into
    (xi, n, m, dist)."""
    out: dict = {}
    for part in text.split(","):
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in GEN_KEYS:
            raise ValueError(f"bad --gen entry {part!r}; keys are {GEN_KEYS}")
        if key in out:
            raise ValueError(f"--gen repeats key {key!r}")
        out[key] = value.strip()
    missing = [k for k in GEN_KEYS if k not in out]
    if missing:
        raise ValueError(f"--gen is missing {missing}")
    return float(out["xi"]), int(out["n"]), int(out["m"]), float(out["dist"])


def _parse_central_range(text: str) -> list[float]:
    """Parse "start:stop:step" (inclusive) or a single value."""
    if ":" not in text:
        return [float(text)]
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("range must be start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError("range start, stop and step must be finite")
    if step <= 0.0 or stop < start:
        raise ValueError("range needs step > 0 and stop >= start")
    if start + step == start:
        raise ValueError(f"range step {step!r} does not advance start {start!r}")
    too_many = f"range gives more than {MAX_GRID_POINTS} values"
    if (stop - start) / step >= MAX_GRID_POINTS:
        raise ValueError(too_many)
    values = []
    v = start
    while v <= stop + 1e-12:
        # A step that advanced start can stop advancing v past a power of
        # two, so the loop is bounded as well.
        if len(values) == MAX_GRID_POINTS:
            raise ValueError(too_many)
        values.append(round(v, 12))
        v += step
    return values


def _cmd_approximate(args) -> int:
    # Every option is checked before a cloud is placed or tested (--eta by
    # the test itself, first), so an input error exits 2 even for clouds
    # that would fail admissibility.
    if args.gen is not None:
        xi, n, m, dist = _parse_gen(args.gen)
        _check_placement(xi, n, m, dist)
    else:
        x = cloud_from_json(Path(args.clouds[0]).read_text())
        y = cloud_from_json(Path(args.clouds[1]).read_text())
        n, m = len(x), len(y)
    k_max = resolve_k_max(args.max_rank, n, m)
    # Checked before the default radius rule reads k_max, so a bad
    # --max-rank is reported as such whatever --method and --central say.
    stop = StoppingParams(epsilon=args.epsilon, k_max=k_max)
    central = (
        args.central
        if args.central is not None
        else default_epsilon_r(k_max, min(n, m))
    )
    # Checked for every method: the meta records --central with `aca` too.
    opts = GpOptions(central, CircleHeuristics(args.circles))
    rng = np.random.default_rng(args.seed)
    if args.gen is not None:
        x, y, _ = place_clouds(xi, n, m, dist, rng)
    if not is_admissible(x, y, args.eta):
        if not args.force:
            print(
                f"error: clouds fail the admissibility test (eta={args.eta});"
                " rerun with --force to proceed",
                file=sys.stderr,
            )
            return 3
        print("warning: clouds fail the admissibility test", file=sys.stderr)
    kernel = KernelHandle()
    if args.method == "aca":
        skeleton = aca(x, y, kernel, stop, rng)
    else:
        skeleton = aca_gp(x, y, kernel, stop, opts, rng=rng)
    meta = {
        "version": __version__,
        "config": {
            "method": args.method,
            "epsilon": args.epsilon,
            "k_max": k_max,
            "epsilon_r": central,
            "eta": args.eta,
            "n": n,
            "m": m,
            "source": args.gen if args.gen is not None else list(args.clouds),
        },
        "seed": args.seed,
    }
    rel_residual = (
        skeleton.residual_norm / skeleton.approx_norm
        if skeleton.approx_norm > 0.0
        else 0.0
    )
    summary = (
        f"method={args.method} rank={skeleton.rank}"
        f" rel_residual={rel_residual:.3e}"
        f" compression={compression_ratio(skeleton, n, m):.6f}"
        f" kernel_evals={kernel.eval_count}"
    )
    if args.out is not None:
        with Path(args.out).open("w") as fh:
            write_skeleton_json(skeleton, fh, meta)
            fh.write("\n")
        print(summary)
    else:
        write_skeleton_json(skeleton, sys.stdout, meta)
        sys.stdout.write("\n")
        print(summary, file=sys.stderr)
    return 0


def _benchmark_config(args, epsilon_r: float | None = None) -> ExperimentConfig:
    return ExperimentConfig(
        xi=args.xi,
        n=args.n,
        m=args.m,
        target_dist=args.dist,
        realizations=args.realizations,
        k_max=args.max_rank,
        epsilon_r=epsilon_r if epsilon_r is not None else args.central,
        base_seed=args.seed,
        eta=args.eta,
    )


def _emit(text: str, out: str | None) -> None:
    if out is not None:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_benchmark(args) -> int:
    config = _benchmark_config(args)
    stats = run_benchmark(config, args.threads)
    _emit(render_benchmark_csv(stats, config), args.out)
    return 0


def _cmd_sweep_central(args) -> int:
    values = _parse_central_range(args.central)
    config = _benchmark_config(args, epsilon_r=values[0])
    stats = run_eps_sweep(config, values, args.threads)
    _emit(render_sweep_csv(values, stats, config), args.out)
    return 0


def _cmd_genetic(args) -> int:
    stop = StoppingParams(epsilon=RUN_TO_RANK_EPSILON, k_max=args.max_rank)
    rng = np.random.default_rng(args.seed)
    x, y, _ = place_clouds(args.xi, args.n, args.m, args.dist, rng)
    kernel = KernelHandle()
    a = kernel.assemble_dense(x, y)
    result = genetic_search(a, args.max_rank, return_grids=args.grid_out is not None)
    kern_aca = KernelHandle()
    skeleton = aca(x, y, kern_aca, stop, rng)
    k_found = len(result.ranks)
    e_aca = rank_errors(a, skeleton, k_found)
    e_svd = svd_rank_errors(a, k_found)
    lines = [
        f"# acakit {__version__}",
        f"# config: xi={_fmt(args.xi)} n={args.n} m={args.m}"
        f" target_dist={_fmt(args.dist)} k_max={args.max_rank}",
        f"# seed: {args.seed}",
        "rank,genetic_error,aca_error,svd_error,genetic_i,genetic_j",
    ]
    for r in result.ranks:
        lines.append(
            f"{r.rank},{_fmt(r.rel_error)},{_fmt(e_aca[r.rank - 1])},"
            f"{_fmt(e_svd[r.rank - 1])},{r.pivot[0]},{r.pivot[1]}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    if args.grid_out is not None:
        glines = [
            f"# acakit {__version__}",
            f"# per-pivot relative errors, seed: {args.seed}",
            "rank,i,j,rel_error",
        ]
        for rank_idx, grid in enumerate(result.grids, start=1):
            for i, j in np.argwhere(~np.isnan(grid)):
                glines.append(f"{rank_idx},{i},{j},{_fmt(grid[i, j])}")
        Path(args.grid_out).write_text("\n".join(glines) + "\n")
    return 0


def _add_benchmark_flags(
    p: argparse.ArgumentParser, central_default, central_type=float
) -> None:
    p.add_argument("--xi", type=float, default=1.0, help="rectangle aspect ratio")
    p.add_argument("--n", type=int, default=200, help="points in X")
    p.add_argument("--m", type=int, default=200, help="points in Y")
    p.add_argument("--dist", type=float, default=1.5, help="target cloud distance")
    p.add_argument("--realizations", type=int, default=100)
    p.add_argument("--max-rank", type=int, default=10)
    p.add_argument(
        "--central",
        type=central_type,
        default=central_default,
        help="central radius fraction (sweep-central: start:stop:step)",
    )
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument(
        "--threads", type=int, default=1,
        help="most worker processes for the realizations, one BLAS thread each"
        " (default 1: serial); runs too small to pay for starting workers"
        " stay serial, and the output is the same for every value",
    )
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acakit",
        description="Low-rank cross approximation of kernel matrices "
        "between 2-D point clouds",
    )
    parser.add_argument(
        "--version", action="version", version=f"acakit {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approximate", help="build one skeleton")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--clouds", nargs=2, metavar=("X.json", "Y.json"), help="cloud files"
    )
    source.add_argument(
        "--gen", default=None, help='generate clouds, e.g. "xi=1,n=100,m=100,dist=2.5"'
    )
    p.add_argument("--method", choices=("aca", "acagp"), default="acagp")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--max-rank", type=int, default=None)
    p.add_argument("--central", type=float, default=None)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--circles", choices=("auto", "on", "off"), default="auto",
        help="rank-2/3 circle heuristics",
    )
    p.add_argument("--force", action="store_true", help="run on inadmissible clouds")
    p.add_argument("--out", default=None, help="skeleton JSON path (default: stdout)")
    p.set_defaults(func=_cmd_approximate)

    p = sub.add_parser("benchmark", help="error statistics over realizations")
    _add_benchmark_flags(p, central_default=0.25, central_type=float)
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser(
        "sweep-central", help="benchmark over a grid of central radii"
    )
    _add_benchmark_flags(p, central_default="0.1:0.5:0.05", central_type=str)
    p.set_defaults(func=_cmd_sweep_central)

    p = sub.add_parser("genetic", help="exhaustive pivot oracle on a small instance")
    p.add_argument("--n", type=int, default=24)
    p.add_argument("--m", type=int, default=24)
    p.add_argument("--max-rank", type=int, default=5)
    p.add_argument("--xi", type=float, default=1.0)
    p.add_argument("--dist", type=float, default=1.5)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.add_argument("--grid-out", default=None, help="per-pivot error grid CSV path")
    p.set_defaults(func=_cmd_genetic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ValueError,
        OSError,
        DenseCapExceededError,
        SingularEvaluationError,
        # Python evaluates this tuple only when an exception reaches it, so
        # the lazy `_pool` attribute imports the process machinery on the
        # error path alone, never in a serial run that succeeds.
        _pool.BrokenProcessPool,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

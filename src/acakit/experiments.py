"""Statistical comparison of pivot strategies over random cloud pairs.

Each realization draws a fresh cloud pair, runs the classical and the
geometry-aided method on the same clouds, and measures true relative
errors at every rank against the dense matrix, with the truncated SVD as
the per-realization optimum.  Because relative errors are log-normally
distributed across realizations, statistics are taken on log10 errors;
gains are aggregated geometrically.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ._pool import _usable_cpus, pool_map
from ._version import __version__
from .acagp import GpOptions, aca_gp
from .geometry import PointCloud, _check_eta, _check_placement, place_clouds
from .kernel import KernelHandle, _MatrixKernel
from .lowrank import Skeleton, StoppingParams, aca, resolve_k_max
from .oracle import _curve_from, _curve_head, gain, rank_errors, svd_rank_errors

__all__ = [
    "ExperimentConfig",
    "RankStats",
    "RealizationResult",
    "aggregate",
    "render_benchmark_csv",
    "render_sweep_csv",
    "run_benchmark",
    "run_eps_sweep",
    "run_realization",
    "run_realizations",
]

METHODS = ("aca", "acagp", "svd")

# Practically unreachable residual tolerance: benchmark runs always
# proceed to k_max so every rank gets an error sample.
RUN_TO_RANK_EPSILON = 1e-30

# log10 guard for exactly-zero errors or gains (never hit in practice).
LOG_FLOOR = 1e-300

# Fewest realization runs (realizations x grid values) that pay for one
# worker process.  Starting two spawned workers, running a toy task and
# shutting them down takes about 0.35 s, most of it importing numpy.
# With workers forked from the fork server (`_pool._worker_context`) that
# is 0.16 to 0.24 s for the run that starts the server, and 0.01 to 0.03 s
# for every later run in the process.  At n = m = 200, k = 10 on 2 CPUs, two
# spawned workers against one process take 0.73 s against 0.90 s on a
# 9-radius sweep of 198 runs, 1.2 s against 2.2 s at 450, and 1.3 s
# against 2.35 s on a 200-realization benchmark.  They win even at 100
# realizations (0.88 s against 1.1 s); the gate stays at 100 so that the
# pinned 100-realization benchmark runs serially.
MIN_RUNS_PER_WORKER = 100


def _check_seed(seed: int) -> None:
    """The rule for every seed, applied before any work rather than where
    `np.random.default_rng` first meets it."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark setting; defaults give the desk-scale reference run.

    Clouds are drawn in xi x 1 rectangles, n points against m, separated
    to target_dist.  Realization r uses seed base_seed + r for placement
    and for both methods, so any realization can be reproduced alone.

    The fields are checked here, before any realization, by each rule's
    owner: `place_clouds`' check for xi, n, m and target_dist,
    `StoppingParams` for k_max and `GpOptions` for epsilon_r, both built
    once as `stopping` (to the resolved k_max) and `gp_options`,
    `_check_seed` for base_seed and `is_admissible`'s check for eta.  No
    run tests admissibility; the eta check keeps a bad eta out of the CSV.
    """

    xi: float = 1.0
    n: int = 200
    m: int = 200
    target_dist: float = 1.5
    realizations: int = 100
    k_max: int = 10
    epsilon_r: float = 0.25
    base_seed: int = 42
    eta: float = 1.0
    stopping: StoppingParams = field(init=False, repr=False, compare=False)
    gp_options: GpOptions = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_placement(self.xi, self.n, self.m, self.target_dist)
        _check_seed(self.base_seed)
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        k_max = resolve_k_max(self.k_max, self.n, self.m)
        stopping = StoppingParams(epsilon=RUN_TO_RANK_EPSILON, k_max=k_max)
        object.__setattr__(self, "stopping", stopping)
        object.__setattr__(self, "gp_options", GpOptions(epsilon_r=self.epsilon_r))
        _check_eta(self.eta)


@dataclass(frozen=True, eq=False)
class RealizationResult:
    """Per-rank outcomes of one cloud draw (arrays of length k_max)."""

    index: int
    theta: float
    errors: dict[str, np.ndarray]
    eval_counts: dict[str, np.ndarray]
    gains: np.ndarray  # NaN where the gain is unbounded
    central_row_count: int
    central_col_count: int


@dataclass(frozen=True, eq=False)
class RankStats:
    """Aggregated statistics for one rank.

    e_log_mean/e_log_std are mean and population standard deviation of
    log10 relative errors per method.  gain_log_mean is the geometric
    mean of the finite gains (None when no finite gain exists);
    gain_log_std stays in log10 units.  Unbounded gains are excluded and
    counted in inf_gain_count.
    """

    rank: int
    e_log_mean: dict[str, float]
    e_log_std: dict[str, float]
    gain_log_mean: float | None
    gain_log_std: float | None
    inf_gain_count: int
    kernel_evals_mean: dict[str, float]


def _per_rank_counts(skeleton: Skeleton, total: int, k_max: int) -> np.ndarray:
    """Evaluations spent up to each rank.  Ranks the skeleton never reached
    take `total`, the run's whole count, which includes the rows a driver
    evaluated and skipped after its last cross."""
    counts = list(skeleton.rank_eval_counts[:k_max])
    counts += [total] * (k_max - len(counts))
    return np.asarray(counts, dtype=np.int64)


@dataclass(eq=False)
class _Classical:
    """The part of one realization that no central radius changes.

    rng is the realization's generator and rng_state its state right after
    the classical run, where the geometry-aided run picks up the stream.
    The radii of a record share rng: each resets it to rng_state before it
    draws, so they run one after another, never concurrently.  gp_curve is
    the geometry-aided error curve's head (`oracle._curve_head`: |A|_F, the
    rank-1 residual R_1 and e_1), None until the record's first radius sets
    it from its own skeleton; every later radius continues it, since no
    radius changes `aca_gp`'s first cross.
    """

    x: PointCloud
    y: PointCloud
    theta: float
    a: np.ndarray
    aca_errors: np.ndarray
    aca_counts: np.ndarray
    svd_errors: np.ndarray
    rng: np.random.Generator
    rng_state: dict
    gp_curve: tuple[float, np.ndarray | None, float] | None = None


def _classical(config: ExperimentConfig, index: int) -> _Classical:
    """Place realization `index`, assemble its dense matrix, run classical
    ACA and take the SVD floors.

    The matrix is assembled first, on a handle of its own, so that the
    row and column probes of both methods are read from it
    (`kernel._MatrixKernel`): the same values and the same count as
    computing them.
    """
    rng = np.random.default_rng(config.base_seed + index)
    x, y, theta = place_clouds(
        config.xi, config.n, config.m, config.target_dist, rng
    )
    stop = config.stopping
    a = KernelHandle().assemble_dense(x, y)
    kernel = _MatrixKernel(x, y, a)
    skel_aca = aca(x, y, kernel, stop, rng)
    rng_state = rng.bit_generator.state
    return _Classical(
        x=x,
        y=y,
        theta=theta,
        a=a,
        aca_errors=rank_errors(a, skel_aca, stop.k_max),
        aca_counts=_per_rank_counts(skel_aca, kernel.eval_count, stop.k_max),
        svd_errors=svd_rank_errors(a, stop.k_max),
        rng=rng,
        rng_state=rng_state,
    )


def run_realization(
    config: ExperimentConfig, index: int, classical: _Classical | None = None
) -> RealizationResult:
    """Draw, place, approximate and measure one cloud pair.

    A single RNG stream seeded with base_seed + index drives placement,
    then the classical run, then the geometry-aided run; both methods see
    identical clouds.  Kernel evaluations are counted per method on
    separate handles.  `classical` is `_classical(config, index)`, computed
    here when not given; a sweep passes one record to every radius.

    The geometry-aided run is `aca_gp` run whole, on the record's
    generator reset to rng_state.  The record's first run takes the error
    curve's head (R_1) from its own skeleton, and every run goes on from
    it, which gives the errors of `rank_errors`.  It reads its
    row, column and subset probes from the record's dense matrix, as the
    classical run does; its single-entry probes (the circle walks) are
    computed from the points.
    """
    if classical is None:
        classical = _classical(config, index)
    x, y, a = classical.x, classical.y, classical.a
    k_max = config.stopping.k_max
    rng = classical.rng
    rng.bit_generator.state = classical.rng_state
    kernel = _MatrixKernel(x, y, a)
    skel_gp = aca_gp(x, y, kernel, config.stopping, config.gp_options, rng=rng)
    if classical.gp_curve is None:
        classical.gp_curve = _curve_head(a, skel_gp)
    errors = {
        "aca": classical.aca_errors,
        "acagp": _curve_from(classical.gp_curve, skel_gp, k_max),
        "svd": classical.svd_errors,
    }
    eval_counts = {
        "aca": classical.aca_counts,
        "acagp": _per_rank_counts(skel_gp, kernel.eval_count, k_max),
        "svd": np.full(k_max, len(x) * len(y), dtype=np.int64),
    }
    return RealizationResult(
        index=index,
        theta=classical.theta,
        errors=errors,
        eval_counts=eval_counts,
        gains=gain(errors["aca"], errors["acagp"], errors["svd"]),
        central_row_count=skel_gp.central_row_count,
        central_col_count=skel_gp.central_col_count,
    )


def _run_block(
    configs: list[ExperimentConfig], indices: range
) -> list[list[RealizationResult]]:
    """Per realization index, one result per config.

    The configs differ only in epsilon_r, so each index is placed, run
    by classical ACA and given its SVD floors once for all of them.
    """
    rows = []
    for index in indices:
        classical = _classical(configs[0], index)
        rows.append([run_realization(cfg, index, classical) for cfg in configs])
    return rows


def _worker_count(threads: int, realizations: int, grid_size: int = 1) -> int:
    """Worker processes for `realizations` x `grid_size` runs; 1 means
    serial.  A worker takes whole realizations, so there are never more
    workers than realizations."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    runs = realizations * grid_size
    return max(
        1, min(threads, _usable_cpus(), realizations, runs // MIN_RUNS_PER_WORKER)
    )


def _run_grid(
    configs: list[ExperimentConfig], threads: int
) -> list[list[RealizationResult]]:
    """Results per config, each list in realization index order.

    A worker that dies raises BrokenProcessPool (a RuntimeError) here, as
    does a fork server that dies while this run starts a worker; the next
    run starts a new server.
    """
    count = configs[0].realizations
    workers = _worker_count(threads, count, len(configs))
    bounds = [count * w // workers for w in range(workers + 1)]
    chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    blocks = pool_map(partial(_run_block, configs), chunks, workers)
    rows = [row for block in blocks for row in block]
    return [list(per_config) for per_config in zip(*rows)]


def run_realizations(
    config: ExperimentConfig, threads: int = 1
) -> list[RealizationResult]:
    """All realizations of a config, in index order.

    `threads` caps the worker processes.  The count used is the smallest
    of `threads`, the usable CPUs and realizations // MIN_RUNS_PER_WORKER,
    at least 1; at 1 the realizations run in the calling process, so the
    pinned 100-realization benchmark always does.  Workers run one BLAS
    thread each and take contiguous index chunks.  Results do not depend
    on the worker count.

    Each pooled run starts its workers and shuts them down before it
    returns.  They are forked from a fork server that the first pooled
    run of the process starts (`_pool._worker_context`): that run pays
    about what spawning its workers did, and later runs skip the numpy
    import and the interpreter teardown of every worker.
    """
    return _run_grid([config], threads)[0]


def aggregate(results: list[RealizationResult]) -> list[RankStats]:
    """Log-domain statistics per rank over a set of realizations.

    Each RankStats value is one reduction along a row of a C-contiguous
    rank x realization array per method, built once; contiguous rows sum
    in the order of a rank's own sample.  Logs are taken above LOG_FLOOR.
    """
    if not results:
        raise ValueError("nothing to aggregate")

    def by_rank(rows: list[np.ndarray]) -> np.ndarray:
        return np.array(rows).T.copy()

    e_log_mean, e_log_std, evals_mean = {}, {}, {}
    for method in METHODS:
        errors = by_rank([r.errors[method] for r in results])
        logs = np.log10(np.maximum(errors, LOG_FLOOR))
        e_log_mean[method] = logs.mean(axis=1).tolist()
        e_log_std[method] = logs.std(axis=1).tolist()
        counts = by_rank([r.eval_counts[method] for r in results])
        evals_mean[method] = counts.mean(axis=1).tolist()
    stats: list[RankStats] = []
    for l, gains in enumerate(by_rank([r.gains for r in results])):
        glogs = np.log10(np.maximum(gains[~np.isnan(gains)], LOG_FLOOR))
        stats.append(RankStats(
            rank=l + 1,
            e_log_mean={m: e_log_mean[m][l] for m in METHODS},
            e_log_std={m: e_log_std[m][l] for m in METHODS},
            gain_log_mean=float(10.0 ** glogs.mean()) if glogs.size else None,
            gain_log_std=float(glogs.std()) if glogs.size else None,
            inf_gain_count=gains.size - glogs.size,
            kernel_evals_mean={m: evals_mean[m][l] for m in METHODS},
        ))
    return stats


def run_benchmark(config: ExperimentConfig, threads: int = 1) -> list[RankStats]:
    """Aggregate statistics over config.realizations cloud draws, on up
    to `threads` worker processes (see `run_realizations`)."""
    return aggregate(run_realizations(config, threads))


def run_eps_sweep(
    config: ExperimentConfig, eps_values: list[float], threads: int = 1
) -> list[list[RankStats]]:
    """Run the benchmark over a grid of central radius fractions.

    Entry k is what `run_benchmark(replace(config, epsilon_r=eps_values[k]))`
    returns.  Only the geometry-aided run depends on the radius.  Each
    realization is placed, approximated by classical ACA, assembled
    densely and given its SVD floors once, and that record is shared by
    every grid value; the geometry-aided run of each value resumes the
    realization's RNG stream where the classical run left it.  Every grid
    value is validated before the first realization.

    `threads` caps the worker processes as in `run_realizations`, with
    realizations x grid values runs counted against MIN_RUNS_PER_WORKER;
    a worker runs every grid value of its realizations.  Statistics are
    aggregated here, once per grid value, whatever the worker count.
    """
    if not eps_values:
        raise ValueError("empty epsilon_r grid")
    configs = [replace(config, epsilon_r=eps) for eps in eps_values]
    return [aggregate(results) for results in _run_grid(configs, threads)]


# --- CSV ---------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.9g}"


def config_echo(config: ExperimentConfig) -> str:
    """Resolved config on one line, defaults included."""
    return (
        f"xi={_fmt(config.xi)} n={config.n} m={config.m}"
        f" target_dist={_fmt(config.target_dist)}"
        f" realizations={config.realizations} k_max={config.k_max}"
        f" epsilon_r={_fmt(config.epsilon_r)} base_seed={config.base_seed}"
        f" eta={_fmt(config.eta)}"
    )


def _csv_header(config: ExperimentConfig) -> list[str]:
    return [
        f"# acakit {__version__}",
        f"# config: {config_echo(config)}",
        f"# seed: {config.base_seed}",
    ]


def _gain_cells(
    gain_log_mean: float | None, gain_log_std: float | None, inf_count: int
) -> tuple[str, str, str]:
    if gain_log_mean is None:
        mean_cell = "inf" if inf_count > 0 else ""
        std_cell = ""
    else:
        mean_cell = _fmt(gain_log_mean)
        std_cell = _fmt(gain_log_std)
    return mean_cell, std_cell, str(inf_count)


def render_benchmark_csv(stats: list[RankStats], config: ExperimentConfig) -> str:
    """One row per (rank, method); gain columns only on acagp rows."""
    lines = _csv_header(config)
    lines.append(
        "rank,method,e_log_mean,e_log_std,gain_log_mean,gain_log_std,"
        "inf_gain_count,kernel_evals_mean"
    )
    for s in stats:
        for method in METHODS:
            if method == "acagp":
                gm, gs, ic = _gain_cells(
                    s.gain_log_mean, s.gain_log_std, s.inf_gain_count
                )
            else:
                gm, gs, ic = "", "", ""
            lines.append(
                f"{s.rank},{method},{_fmt(s.e_log_mean[method])},"
                f"{_fmt(s.e_log_std[method])},{gm},{gs},{ic},"
                f"{_fmt(s.kernel_evals_mean[method])}"
            )
    return "\n".join(lines) + "\n"


def render_sweep_csv(
    eps_values: list[float], stats: list[list[RankStats]], config: ExperimentConfig
) -> str:
    """One row per (epsilon_r, rank) of a sweep's gain statistics."""
    lines = _csv_header(config)
    lines.append("epsilon_r,rank,gain_log_mean,gain_log_std,inf_gain_count")
    for eps, per_eps in zip(eps_values, stats):
        for s in per_eps:
            gm, gs, ic = _gain_cells(s.gain_log_mean, s.gain_log_std, s.inf_gain_count)
            lines.append(f"{_fmt(eps)},{s.rank},{gm},{gs},{ic}")
    return "\n".join(lines) + "\n"

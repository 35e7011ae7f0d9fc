import math
import multiprocessing.forkserver
import os
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import acakit._pool
import acakit.experiments
import acakit.geometry
from acakit._pool import BLAS_THREAD_VARS, _worker_context, _worker_environ
from acakit.acagp import GpOptions, aca_gp, epsilon_r_rule
from acakit.experiments import (
    METHODS,
    RUN_TO_RANK_EPSILON,
    ExperimentConfig,
    RankStats,
    RealizationResult,
    _classical,
    _per_rank_counts,
    _worker_count,
    aggregate,
    config_echo,
    render_benchmark_csv,
    render_sweep_csv,
    run_benchmark,
    run_eps_sweep,
    run_realization,
    run_realizations,
)
from acakit.geometry import place_clouds
from acakit.kernel import KernelHandle
from acakit.lowrank import StoppingParams, aca, resolve_k_max
from acakit.oracle import gain, rank_errors, svd_rank_errors

SMALL = dict(n=40, m=40, target_dist=2.0, k_max=4, epsilon_r=0.5)


def fake_result(index, err, gain_value, inf=False):
    """Single-rank realization with identical errors for all methods."""
    return RealizationResult(
        index=index,
        theta=0.0,
        errors={m: np.array([err]) for m in METHODS},
        eval_counts={m: np.array([100]) for m in METHODS},
        gains=np.array([math.nan if inf else gain_value]),
        central_row_count=0,
        central_col_count=0,
    )


# --- the rule of thumb -------------------------------------------------------

def test_epsilon_r_rule_values():
    assert epsilon_r_rule(10, 400) == pytest.approx(
        2.0 * math.sqrt(10.0 / 400.0), abs=1e-15
    )
    # Halving recovers the undoubled coverage bound ~0.158.
    assert epsilon_r_rule(10, 400) / 2.0 == pytest.approx(0.1581, abs=1e-3)
    assert epsilon_r_rule(1, 400) == pytest.approx(0.1, abs=1e-15)
    assert epsilon_r_rule(400, 400) == 2.0


def test_epsilon_r_rule_validation():
    with pytest.raises(ValueError):
        epsilon_r_rule(0, 100)
    with pytest.raises(ValueError):
        epsilon_r_rule(5, 0)


# --- config ---------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(xi=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(xi=1.2)
    with pytest.raises(ValueError):
        ExperimentConfig(n=0)
    with pytest.raises(ValueError):
        ExperimentConfig(target_dist=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(realizations=0)
    with pytest.raises(ValueError):
        ExperimentConfig(k_max=0)
    with pytest.raises(ValueError):
        ExperimentConfig(epsilon_r=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(epsilon_r=1.01)
    with pytest.raises(ValueError):
        ExperimentConfig(eta=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="target_dist must be finite"):
            ExperimentConfig(target_dist=bad)
        with pytest.raises(ValueError, match="eta must be finite"):
            ExperimentConfig(eta=bad)


def test_config_echo_lists_every_field():
    echo = config_echo(ExperimentConfig())
    for field in (
        "xi", "n", "m", "target_dist", "realizations", "k_max",
        "epsilon_r", "base_seed", "eta",
    ):
        assert field in echo


# --- aggregation ------------------------------------------------------------------

def test_aggregate_log_mean_and_std_by_hand():
    # Errors {1e-2, 1e-4}: mean of log10 is -3, population std is 1,
    # i.e. the one-sigma band is 10^(-3 +- 1).
    stats = aggregate([fake_result(0, 1e-2, 2.0), fake_result(1, 1e-4, 8.0)])
    assert len(stats) == 1
    st = stats[0]
    for method in METHODS:
        assert st.e_log_mean[method] == pytest.approx(-3.0, abs=1e-12)
        assert st.e_log_std[method] == pytest.approx(1.0, abs=1e-12)
    assert st.kernel_evals_mean["aca"] == 100.0


def test_aggregate_gain_geometric_mean():
    # Gains {2, 8}: 10^mean(log10) = sqrt(16) = 4.
    st = aggregate([fake_result(0, 1e-2, 2.0), fake_result(1, 1e-2, 8.0)])[0]
    assert st.gain_log_mean == pytest.approx(4.0, abs=1e-12)
    assert st.gain_log_std == pytest.approx(
        np.std([math.log10(2.0), math.log10(8.0)]), abs=1e-12
    )
    assert st.inf_gain_count == 0


def test_aggregate_single_realization_zero_std():
    st = aggregate([fake_result(0, 1e-3, 5.0)])[0]
    for method in METHODS:
        assert st.e_log_std[method] == 0.0
    assert st.gain_log_std == 0.0


def test_aggregate_excludes_unbounded_gains():
    st = aggregate(
        [fake_result(0, 1e-2, 2.0), fake_result(1, 1e-2, None, inf=True)]
    )[0]
    assert st.gain_log_mean == pytest.approx(2.0, abs=1e-12)
    assert st.inf_gain_count == 1


def test_aggregate_all_gains_unbounded():
    st = aggregate([fake_result(0, 1e-2, None, inf=True)])[0]
    assert st.gain_log_mean is None
    assert st.gain_log_std is None
    assert st.inf_gain_count == 1


def test_aggregate_empty_raises():
    with pytest.raises(ValueError):
        aggregate([])


def test_aggregate_order_independent():
    cfg = ExperimentConfig(realizations=6, **SMALL)
    results = run_realizations(cfg)
    a = aggregate(results)
    b = aggregate(list(reversed(results)))
    for st_a, st_b in zip(a, b):
        for method in METHODS:
            assert st_a.e_log_mean[method] == pytest.approx(
                st_b.e_log_mean[method], abs=1e-12
            )


def _aggregate_per_rank_reference(results):
    """The per-rank loop that gathers every rank's sample anew from each
    result: the reference that `aggregate` must match bit for bit."""
    stats = []
    for l in range(results[0].gains.shape[0]):
        e_log_mean, e_log_std, evals_mean = {}, {}, {}
        for method in METHODS:
            logs = np.log10(
                np.maximum(
                    [r.errors[method][l] for r in results],
                    acakit.experiments.LOG_FLOOR,
                )
            )
            e_log_mean[method] = float(np.mean(logs))
            e_log_std[method] = float(np.std(logs))
            evals_mean[method] = float(
                np.mean([r.eval_counts[method][l] for r in results])
            )
        gains = np.array([r.gains[l] for r in results])
        unbounded = np.isnan(gains)
        finite = gains[~unbounded]
        if finite.size:
            glogs = np.log10(np.maximum(finite, acakit.experiments.LOG_FLOOR))
            gain_log_mean = float(10.0 ** np.mean(glogs))
            gain_log_std = float(np.std(glogs))
        else:
            gain_log_mean = gain_log_std = None
        stats.append((
            l + 1, e_log_mean, e_log_std, gain_log_mean, gain_log_std,
            int(unbounded.sum()), evals_mean,
        ))
    return stats


def _synthetic_results(count, k_max, rng):
    """Log-normal errors and gains with the edge cases `aggregate` must
    keep: rank 1 has zero errors (floored at LOG_FLOOR), rank 2 some NaN
    gains and rank 3 only NaN gains."""
    results = []
    for index in range(count):
        errors = {m: 10.0 ** rng.normal(-4.0, 1.5, k_max) for m in METHODS}
        errors["svd"][0] = 0.0
        errors["aca"][0] = 0.0 if index % 2 else errors["aca"][0]
        gains = 10.0 ** rng.normal(0.3, 0.8, k_max)
        gains[1] = math.nan if index % 3 == 0 else gains[1]
        gains[2] = math.nan
        results.append(RealizationResult(
            index=index,
            theta=0.0,
            errors=errors,
            eval_counts={
                m: np.cumsum(rng.integers(300, 500, k_max)).astype(np.int64)
                for m in METHODS
            },
            gains=gains,
            central_row_count=0,
            central_col_count=0,
        ))
    return results


@pytest.mark.parametrize("count", [1, 2, 7, 8, 9, 129, 300])
def test_aggregate_matches_per_rank_loop_bit_for_bit(count):
    # Counts on both sides of numpy's pairwise-sum blocks (8 and 128): the
    # rank x realization reductions must sum in the reference's order.
    results = _synthetic_results(count, 10, np.random.default_rng(count))
    stats = aggregate(results)
    expected = _aggregate_per_rank_reference(results)
    assert len(stats) == len(expected) == 10
    for st, (rank, e_mean, e_std, g_mean, g_std, inf_count, evals) in zip(
        stats, expected
    ):
        assert st.rank == rank
        assert st.e_log_mean == e_mean and st.e_log_std == e_std
        assert st.kernel_evals_mean == evals
        assert st.gain_log_mean == g_mean and st.gain_log_std == g_std
        assert st.inf_gain_count == inf_count
        for value in [*st.e_log_mean.values(), *st.e_log_std.values(),
                      *st.kernel_evals_mean.values()]:
            assert type(value) is float
        assert type(st.inf_gain_count) is int
        for value in (st.gain_log_mean, st.gain_log_std):
            assert value is None or type(value) is float
    assert stats[0].e_log_mean["svd"] == math.log10(acakit.experiments.LOG_FLOOR)
    assert stats[2].gain_log_mean is None and stats[2].inf_gain_count == count
    assert 0 < stats[1].inf_gain_count <= count


# --- realizations ------------------------------------------------------------------

def test_run_realization_deterministic():
    cfg = ExperimentConfig(realizations=1, **SMALL)
    r1 = run_realization(cfg, 3)
    r2 = run_realization(cfg, 3)
    assert r1.theta == r2.theta
    for method in METHODS:
        assert np.array_equal(r1.errors[method], r2.errors[method])
    assert np.array_equal(r1.gains, r2.gains, equal_nan=True)


def test_run_realization_respects_svd_floor():
    cfg = ExperimentConfig(realizations=1, **SMALL)
    r = run_realization(cfg, 0)
    for method in ("aca", "acagp"):
        assert np.all(r.errors[method] >= r.errors["svd"] - 1e-12)


def test_run_realization_far_clouds_decay_fast():
    # Far-field smoothness: at distance 5 every method is already below
    # 1e-3 by rank 3.
    cfg = ExperimentConfig(
        n=60, m=60, target_dist=5.0, realizations=1, k_max=3, epsilon_r=0.5
    )
    r = run_realization(cfg, 1)
    for method in METHODS:
        assert r.errors[method][2] < 1e-3


def test_run_realization_classical_budget_exact():
    cfg = ExperimentConfig(realizations=1, **SMALL)
    r = run_realization(cfg, 2)
    n_plus_m = SMALL["n"] + SMALL["m"]
    np.testing.assert_array_equal(
        r.eval_counts["aca"], [k * n_plus_m for k in range(1, 5)]
    )
    assert r.eval_counts["svd"][0] == SMALL["n"] * SMALL["m"]


def test_counts_past_last_cross_include_skipped_rows():
    """When aca runs out of rows before k_max, the ranks it never reached
    report every evaluation its handle counted, skipped rows included."""
    cfg = ExperimentConfig(n=12, m=12, k_max=12, target_dist=10.0, realizations=20)
    stop = StoppingParams(epsilon=RUN_TO_RANK_EPSILON, k_max=12)
    short = 0
    for index in range(cfg.realizations):
        rng = np.random.default_rng(cfg.base_seed + index)
        x, y, _ = place_clouds(cfg.xi, cfg.n, cfg.m, cfg.target_dist, rng)
        kernel = KernelHandle()
        skel = aca(x, y, kernel, stop, rng)
        counts = run_realization(cfg, index).eval_counts
        short += skel.rank < stop.k_max
        np.testing.assert_array_equal(
            counts["aca"][: skel.rank], skel.rank_eval_counts
        )
        assert counts["aca"][-1] == kernel.eval_count
        for method in ("aca", "acagp"):
            assert np.all(np.diff(counts[method]) >= 0)
    assert short > 0


def test_benchmark_seed_stability():
    """Doubling the base seed moves every per-rank log-mean by less than
    3 sigma / sqrt(N_s)."""
    n_s = 120
    base = dict(n=60, m=60, realizations=n_s, k_max=6, epsilon_r=0.5)
    s1 = run_benchmark(ExperimentConfig(base_seed=42, **base))
    s2 = run_benchmark(ExperimentConfig(base_seed=84, **base))
    for st1, st2 in zip(s1, s2):
        for method in METHODS:
            drift = abs(st1.e_log_mean[method] - st2.e_log_mean[method])
            sigma = max(st1.e_log_std[method], st2.e_log_std[method])
            assert drift < 3.0 * sigma / math.sqrt(n_s)


def test_rank1_stats_independent_of_fraction():
    base = dict(n=50, m=50, target_dist=1.5, realizations=10, k_max=3)
    s_a = run_benchmark(ExperimentConfig(epsilon_r=0.1, **base))
    s_b = run_benchmark(ExperimentConfig(epsilon_r=0.3, **base))
    assert s_a[0].e_log_mean["acagp"] == s_b[0].e_log_mean["acagp"]
    assert s_a[0].gain_log_mean == s_b[0].gain_log_mean


# --- sweeps ----------------------------------------------------------------------------

def test_eps_sweep_shares_seeds_across_fractions():
    cfg = ExperimentConfig(
        n=80, m=80, target_dist=1.5, realizations=30, k_max=4,
        epsilon_r=0.1, base_seed=7,
    )
    sweep = run_eps_sweep(cfg, [0.1, 0.25, 0.5])
    assert [[s.rank for s in stats] for stats in sweep] == [[1, 2, 3, 4]] * 3
    # Rank 1 ignores the central fraction entirely.
    assert len({stats[0].gain_log_mean for stats in sweep}) == 1
    # Rank 2 is nearly neutral to it (the pool ordering shifts slightly).
    rank2 = sorted(stats[1].gain_log_mean for stats in sweep)
    assert math.log10(rank2[-1] / rank2[0]) < 0.35


def sweep_csvs(cfg, grid, threads=1):
    """Each entry of `run_eps_sweep` as `render_benchmark_csv` writes it
    at its radius."""
    sweep = run_eps_sweep(cfg, grid, threads)
    assert len(sweep) == len(grid)
    return [
        render_benchmark_csv(stats, replace(cfg, epsilon_r=eps))
        for eps, stats in zip(grid, sweep)
    ]


def benchmark_csvs(cfg, grid):
    """The CSV of a serial `run_benchmark` at each grid value."""
    configs = [replace(cfg, epsilon_r=eps) for eps in grid]
    return [render_benchmark_csv(run_benchmark(at), at) for at in configs]


def geometric_realization(cfg, index):
    """`run_realization(cfg, index)` as it runs with every probe computed
    from the points: aca and aca_gp on plain KernelHandles, drawing from
    one generator in that order, and the dense matrix assembled after."""
    rng = np.random.default_rng(cfg.base_seed + index)
    x, y, theta = place_clouds(cfg.xi, cfg.n, cfg.m, cfg.target_dist, rng)
    k = resolve_k_max(cfg.k_max, cfg.n, cfg.m)
    stop = StoppingParams(epsilon=RUN_TO_RANK_EPSILON, k_max=k)
    kern_aca, kern_gp = KernelHandle(), KernelHandle()
    skel_aca = aca(x, y, kern_aca, stop, rng)
    opts = GpOptions(epsilon_r=cfg.epsilon_r)
    skel_gp = aca_gp(x, y, kern_gp, stop, opts, rng=rng)
    a = KernelHandle().assemble_dense(x, y)
    errors = {
        "aca": rank_errors(a, skel_aca, k),
        "acagp": rank_errors(a, skel_gp, k),
        "svd": svd_rank_errors(a, k),
    }
    counts = {
        "aca": _per_rank_counts(skel_aca, kern_aca.eval_count, k),
        "acagp": _per_rank_counts(skel_gp, kern_gp.eval_count, k),
        "svd": np.full(k, cfg.n * cfg.m),
    }
    gains = gain(errors["aca"], errors["acagp"], errors["svd"])
    return theta, errors, counts, gains, skel_gp


@pytest.mark.parametrize(
    "n, m, k_max",
    [
        pytest.param(40, 40, 4, id="40-40"),
        pytest.param(30, 45, 4, id="30-45"),
        # n > m: aca_gp keeps the pair as given (for n < m it solves the
        # swapped pair and transposes back).
        pytest.param(45, 30, 4, id="45-30"),
        # The first cross ends every run: each radius returns the same
        # rank-1 skeleton, whose R_1 the record's first radius took.
        pytest.param(45, 30, 1, id="45-30-k1"),
        # Every run ends before k_max: later ranks take the whole count.
        pytest.param(45, 30, 30, id="45-30-k30"),
    ],
)
def test_eps_sweep_matches_per_radius_benchmark(n, m, k_max):
    cfg = ExperimentConfig(
        n=n, m=m, target_dist=2.0, realizations=5, k_max=k_max, epsilon_r=0.1
    )
    grid = [0.1, 0.25, 0.5]
    # Every radius continues the record's shared R_1; each benchmark its own.
    for eps, stats in zip(grid, run_eps_sweep(cfg, grid)):
        at = replace(cfg, epsilon_r=eps)
        alone = run_benchmark(at)
        assert render_benchmark_csv(stats, at) == render_benchmark_csv(alone, at)
        assert [s.kernel_evals_mean for s in stats] == [
            s.kernel_evals_mean for s in alone
        ]
    # A record computed at another radius gives the same realization, and
    # the errors and counts of aca_gp and rank_errors run whole.
    for i in range(cfg.realizations):
        wide = replace(cfg, epsilon_r=0.5)
        shared = run_realization(wide, i, _classical(cfg, i))
        alone = run_realization(wide, i)
        _, errors, counts, _, _ = geometric_realization(wide, i)
        assert np.array_equal(shared.errors["acagp"], errors["acagp"])
        assert np.array_equal(shared.eval_counts["acagp"], counts["acagp"])
        assert shared.theta == alone.theta
        assert shared.central_row_count == alone.central_row_count
        assert shared.central_col_count == alone.central_col_count
        for method in METHODS:
            assert np.array_equal(shared.errors[method], alone.errors[method])
            assert np.array_equal(
                shared.eval_counts[method], alone.eval_counts[method]
            )
        assert np.array_equal(shared.gains, alone.gains, equal_nan=True)


@st.composite
def realization_configs(draw):
    """One-realization configs with n < m, n = m or n > m in [12, 40]."""
    n = draw(st.integers(12, 40), label="n")
    order = draw(st.sampled_from(["n<m", "n=m", "n>m"]), label="order")
    if order == "n=m":
        m = n
    elif order == "n<m":
        assume(n < 40)
        m = draw(st.integers(n + 1, 40), label="m")
    else:
        assume(n > 12)
        m = draw(st.integers(12, n - 1), label="m")
    return ExperimentConfig(
        xi=draw(st.sampled_from([1.0, 0.4]), label="xi"),
        n=n,
        m=m,
        target_dist=draw(st.floats(0.5, 4.0), label="target_dist"),
        realizations=1,
        k_max=draw(st.integers(1, 6), label="k_max"),
        epsilon_r=draw(st.floats(0.0, 1.0, exclude_min=True), label="epsilon_r"),
        base_seed=draw(st.integers(0, 2**32 - 1), label="base_seed"),
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cfg=realization_configs())
def test_realization_equals_geometric_reference(cfg):
    """Probes read from the realization's dense matrix give the run that
    probes computed from the points give: the same errors, evaluation
    counts, gains, angle and central pools, bit for bit.  For n < m
    aca_gp probes the swapped pair, which reads the matrix transposed."""
    result = run_realization(cfg, 0)
    theta, errors, counts, gains, skel_gp = geometric_realization(cfg, 0)
    assert result.theta == theta
    for method in METHODS:
        np.testing.assert_array_equal(result.errors[method], errors[method])
        np.testing.assert_array_equal(result.eval_counts[method], counts[method])
    np.testing.assert_array_equal(result.gains, gains)
    np.testing.assert_array_equal(
        [result.central_row_count, result.central_col_count],
        [skel_gp.central_row_count, skel_gp.central_col_count],
    )


def test_eps_sweep_computes_each_aspect_ratio_once(monkeypatch):
    # `PointCloud.aspect_ratio` is the only caller of the hull in `src`.
    calls = []
    real = acakit.geometry._hull

    def counted(points):
        calls.append(points)
        return real(points)

    monkeypatch.setattr(acakit.geometry, "_hull", counted)
    cfg = ExperimentConfig(realizations=3, **SMALL)
    run_eps_sweep(cfg, [round(0.1 + 0.05 * i, 12) for i in range(9)])
    # Square clouds pass the aspect test, so both clouds are measured:
    # once per realization, not once per radius.
    assert len(calls) == 2 * cfg.realizations
    assert len({id(cloud) for cloud in calls}) == len(calls)


def test_eps_sweep_runs_aca_gp_once_per_radius(monkeypatch):
    """A record runs no aca_gp of its own: each radius runs it once, and
    the record's first radius takes the error curve's head."""
    calls = {"aca_gp": 0, "_curve_head": 0}

    def counted(name):
        real = getattr(acakit.experiments, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(acakit.experiments, name, wrapper)

    counted("aca_gp")
    counted("_curve_head")
    cfg = ExperimentConfig(realizations=3, **SMALL)
    run_eps_sweep(cfg, [0.1, 0.25, 0.5])
    assert calls == {"aca_gp": 9, "_curve_head": 3}


# --- worker processes -----------------------------------------------------------

@pytest.mark.parametrize("threads", [1, 2, 4, 64])
def test_worker_gate_keeps_small_runs_serial(threads, monkeypatch):
    monkeypatch.setattr(acakit.experiments, "_usable_cpus", lambda: 64)
    # perfbench warm-ups (2 realizations, up to 2 radii) and the pinned
    # 100-realization benchmark.
    assert _worker_count(threads, 2) == 1
    assert _worker_count(threads, 2, 2) == 1
    assert _worker_count(threads, 100) == 1
    # Never more workers than realizations, CPUs or `threads`.
    assert _worker_count(threads, 1, 10_000) == 1
    # sweep-n200: 50 realizations x 9 radii.
    assert _worker_count(threads, 50, 9) == min(threads, 4)
    monkeypatch.setattr(acakit.experiments, "_usable_cpus", lambda: 1)
    assert _worker_count(threads, 50, 9) == 1


@pytest.mark.parametrize("threads", [0, -3])
def test_worker_gate_rejects_fewer_than_one_thread(threads):
    with pytest.raises(ValueError, match="threads"):
        _worker_count(threads, 100)


def test_pooled_realizations_match_serial_and_restore_environ(monkeypatch):
    pools = []

    class Spy(ProcessPoolExecutor):
        """Record the worker count and, once every chunk is submitted and
        so every worker started, the thread variables a worker sees."""

        def __init__(self, max_workers, **kwargs):
            super().__init__(max_workers, **kwargs)
            self.workers = max_workers

        def shutdown(self, *args, **kwargs):
            probes = [self.submit(os.getenv, var) for var in BLAS_THREAD_VARS]
            seen = [probe.result(timeout=60) for probe in probes]
            pools.append((self.workers, seen))
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(acakit._pool, "ProcessPoolExecutor", Spy)
    monkeypatch.setattr(acakit.experiments, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "")
    cfg = ExperimentConfig(realizations=200, n=30, m=30, target_dist=2.0, k_max=4)
    assert _worker_count(2, cfg.realizations) == 2
    before = dict(os.environ)
    pooled = run_realizations(cfg, threads=2)
    assert dict(os.environ) == before
    assert pools == [(2, ["1", "1", "1"])]
    serial = run_realizations(cfg)
    assert [r.index for r in pooled] == list(range(cfg.realizations))
    for a, b in zip(pooled, serial):
        assert a.theta == b.theta
        for method in METHODS:
            assert np.array_equal(a.errors[method], b.errors[method])
            assert np.array_equal(a.eval_counts[method], b.eval_counts[method])
        assert np.array_equal(a.gains, b.gains, equal_nan=True)


@st.composite
def pooled_sweeps(draw):
    """Sweep configs and grids of at least 200 runs, so that two workers
    pass the gate, on clouds of at most 20 points and k_max <= 3."""
    grid = draw(
        st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=9),
        label="grid",
    )
    least = -(-200 // len(grid))
    cfg = ExperimentConfig(
        n=draw(st.integers(6, 20), label="n"),
        m=draw(st.integers(6, 20), label="m"),
        target_dist=draw(st.floats(1.0, 3.0), label="target_dist"),
        realizations=draw(st.integers(least, least + 20), label="realizations"),
        k_max=draw(st.integers(1, 3), label="k_max"),
        base_seed=draw(st.integers(0, 2**32 - 1), label="base_seed"),
    )
    return cfg, grid


@settings(max_examples=5, deadline=None, derandomize=True)
@given(sweep=pooled_sweeps())
def test_pooled_sweeps_match_serial(sweep):
    """A sweep's statistics do not depend on the worker count; the pooled
    run reads its probes from the dense matrix inside the workers."""
    cfg, grid = sweep
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acakit.experiments, "_usable_cpus", lambda: 2)
        assert _worker_count(2, cfg.realizations, len(grid)) == 2
        pooled = sweep_csvs(cfg, grid, threads=2)
    assert pooled == sweep_csvs(cfg, grid)


def test_pooled_eps_sweep_matches_per_radius_benchmark(monkeypatch):
    monkeypatch.setattr(acakit.experiments, "_usable_cpus", lambda: 2)
    cfg = ExperimentConfig(
        n=30, m=45, target_dist=2.0, realizations=67, k_max=4, epsilon_r=0.1
    )
    grid = [0.1, 0.25, 0.5]
    assert _worker_count(2, cfg.realizations, len(grid)) == 2
    assert sweep_csvs(cfg, grid, threads=2) == benchmark_csvs(cfg, grid)


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
def test_fork_server_does_not_hold_stdout(monkeypatch):
    """The fork server runs with stdout on os.devnull, so a pipe reading
    a pooled run's output ends when the run's process exits.  stderr
    stays the caller's, so worker tracebacks still show."""
    monkeypatch.setattr(acakit.experiments, "_usable_cpus", lambda: 2)
    cfg = ExperimentConfig(realizations=200, n=12, m=12, target_dist=2.0, k_max=2)
    run_realizations(cfg, threads=2)
    server = multiprocessing.forkserver._forkserver._forkserver_pid
    assert os.readlink(f"/proc/{server}/fd/1") == os.devnull
    assert os.readlink(f"/proc/{server}/fd/2") != os.devnull


def test_pooled_worker_starts_with_numpy_random_imported():
    """numpy imports numpy.random on first use; the fork server preloads
    it, so no worker pays for the import in its first realization."""
    probe = "'numpy.random' in __import__('sys').modules"
    with _worker_environ(), ProcessPoolExecutor(1, mp_context=_worker_context()) as pool:
        assert pool.submit(eval, probe).result(timeout=60)


def test_fork_server_that_dies_fails_one_run(monkeypatch):
    """A fork server that dies while a run waits for it to fork a worker
    fails that run with BrokenProcessPool; the next run starts a new
    server and gets the same results."""
    monkeypatch.setattr(acakit.experiments, "_usable_cpus", lambda: 2)
    cfg = ExperimentConfig(realizations=200, n=30, m=30, target_dist=2.0, k_max=4)
    first = run_realizations(cfg, threads=2)
    server = multiprocessing.forkserver._forkserver._forkserver_pid
    os.kill(server, signal.SIGSTOP)
    failures = []

    def run():
        try:
            run_realizations(cfg, threads=2)
        except BrokenProcessPool as exc:
            failures.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    time.sleep(1)  # the run now waits for the stopped server to fork
    os.kill(server, signal.SIGKILL)
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert len(failures) == 1
    again = run_realizations(cfg, threads=2)
    assert multiprocessing.forkserver._forkserver._forkserver_pid != server
    for a, b in zip(first, again):
        assert a.theta == b.theta
        assert np.array_equal(a.errors["acagp"], b.errors["acagp"])


# --- rendering --------------------------------------------------------------------------

def test_benchmark_csv_layout():
    cfg = ExperimentConfig(realizations=3, **SMALL)
    text = render_benchmark_csv(run_benchmark(cfg), cfg)
    lines = text.strip().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("config:" in ln for ln in comments)
    assert any("seed:" in ln for ln in comments)
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header == (
        "rank,method,e_log_mean,e_log_std,gain_log_mean,gain_log_std,"
        "inf_gain_count,kernel_evals_mean"
    )
    rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    assert len(rows) == 4 * 3  # k_max ranks x methods
    for row in rows:
        if row[1] == "acagp":
            assert row[4] != ""
        else:
            assert row[4] == "" and row[5] == "" and row[6] == ""


def test_benchmark_csv_single_realization_zero_std():
    cfg = ExperimentConfig(realizations=1, **SMALL)
    text = render_benchmark_csv(run_benchmark(cfg), cfg)
    rows = [
        ln.split(",")
        for ln in text.strip().splitlines()
        if not ln.startswith("#") and not ln.startswith("rank,")
    ]
    assert all(float(row[3]) == 0.0 for row in rows)


def test_benchmark_csv_inf_gain_literal():
    cfg = ExperimentConfig(realizations=1, **SMALL)
    stats = [
        RankStats(
            rank=1,
            e_log_mean={m: -2.0 for m in METHODS},
            e_log_std={m: 0.0 for m in METHODS},
            gain_log_mean=None,
            gain_log_std=None,
            inf_gain_count=1,
            kernel_evals_mean={m: 10.0 for m in METHODS},
        )
    ]
    text = render_benchmark_csv(stats, cfg)
    row = next(
        ln for ln in text.splitlines() if ln.startswith("1,acagp")
    )
    assert row.split(",")[4] == "inf"


def test_sweep_csv_layout():
    cfg = ExperimentConfig(
        n=40, m=40, target_dist=2.0, realizations=3, k_max=2, epsilon_r=0.1
    )
    grid = [0.1, 0.5]
    text = render_sweep_csv(grid, run_eps_sweep(cfg, grid), cfg)
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    assert lines[0] == "epsilon_r,rank,gain_log_mean,gain_log_std,inf_gain_count"
    assert len(lines) == 1 + 2 * 2

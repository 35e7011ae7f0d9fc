"""Acceptance suite: one test per criterion, each printing a status line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  Criterion 5 is a soft check and
reports PASS/WARN without ever failing the suite.  The last three tests
pin the bytes of the seed-42 outputs whose hashes the benchmark records
in perfbench/expected.json.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import acakit
from acakit.acagp import GpOptions, aca_gp, epsilon_r_rule
from acakit.cli import main
from acakit.experiments import (
    ExperimentConfig,
    aggregate,
    render_benchmark_csv,
    run_realization,
    run_realizations,
)
from acakit.geometry import place_clouds
from acakit.kernel import KernelHandle
from acakit.lowrank import StoppingParams, aca, dense, update_norms
from acakit.oracle import genetic_search, relative_error, svd_rank_errors

RUN_TO_RANK = StoppingParams(epsilon=1e-30, k_max=10)


def report(num, ok, detail, warn=False):
    status = "WARN" if (warn and not ok) else ("PASS" if ok else "FAIL")
    print(f"\nCRITERION {num}: {status} - {detail}")


def paired_run(seed, n, m, dist, k_max=10, epsilon_r=0.25):
    """Both methods on one seeded instance, plus the dense matrix."""
    rng = np.random.default_rng(seed)
    x, y, _ = place_clouds(1.0, n, m, dist, rng)
    stop = StoppingParams(epsilon=1e-30, k_max=k_max)
    skel_aca = aca(x, y, KernelHandle(), stop, rng)
    skel_gp = aca_gp(
        x, y, KernelHandle(), stop, GpOptions(epsilon_r=epsilon_r), rng=rng
    )
    a = KernelHandle().assemble_dense(x, y)
    return a, skel_aca, skel_gp


@pytest.fixture(scope="module")
def reference_run():
    """The desk-scale benchmark shared by criteria 4, 5 and 9:
    xi=1, dist=1.5, n=m=200, 100 realizations, fraction 0.25, seed 42."""
    config = ExperimentConfig()
    results = run_realizations(config)
    return config, results, aggregate(results)


def test_criterion_01_eckart_young_dominance():
    """50 seeded 100x100 instances over distances {1.5, 2.5, 5.0}: no
    method at any rank 1..10 beats the truncated-SVD floor."""
    t0 = time.perf_counter()
    dists = (1.5, 2.5, 5.0)
    worst = math.inf
    for seed in range(50):
        cfg = ExperimentConfig(
            n=100, m=100, target_dist=dists[seed % 3], realizations=1,
            k_max=10, epsilon_r=0.25, base_seed=seed,
        )
        r = run_realization(cfg, 0)
        for method in ("aca", "acagp"):
            worst = min(worst, np.min(r.errors[method] - r.errors["svd"]))
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-12 and elapsed < 60.0
    report(1, ok, f"min(E_k - E_k^svd) = {worst:.3e} over 50 instances, "
                  f"{elapsed:.1f}s")
    assert worst >= -1e-12
    assert elapsed < 60.0


def test_criterion_02_cross_interpolation_exactness():
    """20 instances: both final skeletons leave residuals at or below
    1e-8 * max|a_ij| on every pivot row and column."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        a, skel_aca, skel_gp = paired_run(seed, 120, 120, (1.5, 2.5, 5.0)[seed % 3])
        scale = np.abs(a).max()
        for skel in (skel_aca, skel_gp):
            resid = a - dense(skel)
            for i in skel.pivot_rows:
                worst = max(worst, np.abs(resid[i]).max() / scale)
            for j in skel.pivot_cols:
                worst = max(worst, np.abs(resid[:, j]).max() / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    report(2, ok, f"max pivot row/col residual = {worst:.3e} of max|a|, "
                  f"{elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_03_norm_recursion_oracle():
    """20 instances: the running norm recursion tracks the directly
    assembled Frobenius norm to 1e-9 relative at every rank."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        a, skel_aca, skel_gp = paired_run(seed + 100, 80, 80, 1.5)
        for skel in (skel_aca, skel_gp):
            norm = 0.0
            for k in range(skel.rank):
                norm = update_norms(
                    norm,
                    skel.u_matrix[:, :k], skel.v_matrix[:, :k],
                    skel.u_matrix[:, k], skel.v_matrix[:, k],
                ).approx_norm
                direct = np.linalg.norm(
                    skel.u_matrix[:, : k + 1] @ skel.v_matrix[:, : k + 1].T
                )
                worst = max(worst, abs(norm - direct) / direct)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    report(3, ok, f"max relative norm drift = {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_04_outperformance(reference_run):
    """Reference benchmark: the geometry-aided log-mean error must not
    exceed the classical one at any rank 1..10, and the mean gain must
    exceed 1 at ranks 2..6."""
    config, _, stats = reference_run
    margins = [
        st.e_log_mean["acagp"] - st.e_log_mean["aca"] for st in stats
    ]
    bad_ranks = [st.rank for st, m in zip(stats, margins) if m > 0.0]
    gains = {st.rank: st.gain_log_mean for st in stats}
    bad_gains = [
        r for r in range(2, 7) if gains[r] is None or gains[r] <= 1.0
    ]
    ok = not bad_ranks and not bad_gains
    detail = (
        f"worst log-mean margin {max(margins):+.4f} decades"
        f" (ranks above classical: {bad_ranks or 'none'});"
        f" gains r2-r6 {['%.2f' % gains[r] for r in range(2, 7)]}"
        f" (non-gaining: {bad_gains or 'none'})"
    )
    report(4, ok, detail)
    assert not bad_gains, f"gain <= 1 at ranks {bad_gains}"
    assert not bad_ranks, (
        f"log-mean error above classical at ranks {bad_ranks}; "
        f"margins {[f'{m:+.4f}' for m in margins]}"
    )


def test_criterion_05_geometric_mean_band(reference_run):
    """Soft check: at ranks 4..8 the geometry-aided log-mean error sits
    within half the classical-to-SVD log gap of the midpoint."""
    _, _, stats = reference_run
    deviations = []
    ok = True
    for st in stats:
        if not 4 <= st.rank <= 8:
            continue
        mid = 0.5 * (st.e_log_mean["aca"] + st.e_log_mean["svd"])
        gap = st.e_log_mean["aca"] - st.e_log_mean["svd"]
        dev = abs(st.e_log_mean["acagp"] - mid)
        deviations.append((st.rank, dev, 0.5 * gap))
        ok &= dev <= 0.5 * gap
    detail = "; ".join(
        f"r{r}: |dev| {d:.3f} vs bound {b:.3f}" for r, d, b in deviations
    )
    report(5, ok, detail, warn=True)
    # Soft criterion: reported, never failed.


def test_criterion_06_rank1_fraction_invariance():
    """Rank-1 skeletons are bit-identical across central fractions
    {0.1, 0.25, 0.5} on 20 fixed seeds."""
    t0 = time.perf_counter()
    identical = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x, y, _ = place_clouds(1.0, 100, 100, 1.5, rng)
        stop = StoppingParams(epsilon=1e-30, k_max=1)
        skels = [
            aca_gp(x, y, KernelHandle(), stop, GpOptions(epsilon_r=eps),
                   rng=np.random.default_rng(seed))
            for eps in (0.1, 0.25, 0.5)
        ]
        for s in skels[1:]:
            identical &= (
                s.pivot_rows == skels[0].pivot_rows
                and s.pivot_cols == skels[0].pivot_cols
                and np.array_equal(s.u_matrix, skels[0].u_matrix)
                and np.array_equal(s.v_matrix, skels[0].v_matrix)
            )
    elapsed = time.perf_counter() - t0
    ok = identical and elapsed < 10.0
    report(6, ok, f"20 seeds x 3 fractions bit-identical: {identical}, "
                  f"{elapsed:.1f}s")
    assert identical
    assert elapsed < 10.0


def brute_force_rank1(a):
    """Independent double-loop minimum over all rank-1 cross pivots,
    using the same scaled-cross arithmetic as the library."""
    fro = np.linalg.norm(a)
    floor = 1e-12 * np.abs(a).max()
    best_err, best_pivot = math.inf, None
    n, m = a.shape
    for i in range(n):
        for j in range(m):
            p = a[i, j]
            if abs(p) < floor:
                continue
            scale = math.sqrt(abs(p))
            sign = 1.0 if p > 0.0 else -1.0
            u = sign * a[:, j] / scale
            v = a[i, :] / scale
            err = float(np.linalg.norm(a - np.outer(u, v)))
            if err < best_err:
                best_err, best_pivot = err, (i, j)
    return best_err / fro, best_pivot


def test_criterion_07_genetic_oracle_consistency():
    """30 seeded 24x24 instances: the exhaustive rank-1 search never
    loses to the classical rank-1 cross and reproduces an independent
    brute-force enumeration exactly."""
    t0 = time.perf_counter()
    never_worse = True
    exact_match = True
    for seed in range(30):
        rng = np.random.default_rng(seed)
        x, y, _ = place_clouds(1.0, 24, 24, (1.5, 2.5, 5.0)[seed % 3], rng)
        a = KernelHandle().assemble_dense(x, y)
        skel = aca(
            x, y, KernelHandle(), StoppingParams(epsilon=1e-30, k_max=1), rng
        )
        gen = genetic_search(a, 1).ranks[0]
        never_worse &= gen.rel_error <= relative_error(a, skel) + 1e-15
        bf_err, bf_pivot = brute_force_rank1(a)
        exact_match &= gen.rel_error == bf_err and gen.pivot == bf_pivot
    elapsed = time.perf_counter() - t0
    ok = never_worse and exact_match and elapsed < 60.0
    report(7, ok, f"never worse than classical: {never_worse}; "
                  f"matches brute force exactly: {exact_match}; {elapsed:.1f}s")
    assert never_worse
    assert exact_match
    assert elapsed < 60.0


def test_criterion_08_parallel_determinism(tmp_path):
    """The reference benchmark emits byte-identical CSV with 1 worker
    and with 4."""
    # The subprocess finds the package where this one was imported from,
    # so a bare `pytest` (src on sys.path only through pyproject) works.
    env = {**os.environ, "PYTHONPATH": str(Path(acakit.__file__).parents[1])}
    files = []
    for threads in (1, 4):
        out = tmp_path / f"bench_t{threads}.csv"
        cmd = [
            sys.executable, "-m", "acakit.cli", "benchmark",
            "--n", "200", "--m", "200", "--dist", "1.5",
            "--realizations", "100", "--max-rank", "10",
            "--central", "0.25", "--seed", "42",
            "--threads", str(threads), "--out", str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        files.append(out.read_bytes())
    ok = files[0] == files[1]
    report(8, ok, f"CSV bytes identical across thread counts: {ok} "
                  f"({len(files[0])} bytes)")
    assert ok


def test_criterion_09_kernel_evaluation_budget(reference_run):
    """Every realization: the classical method spends exactly k(n+m)
    evaluations through rank k, the geometry-aided one stays within
    k(n+m) + k(|Ic|+|Jc|) + n + m."""
    config, results, _ = reference_run
    n, m = config.n, config.m
    aca_exact = True
    gp_within = True
    for r in results:
        expected = np.arange(1, config.k_max + 1) * (n + m)
        aca_exact &= np.array_equal(r.eval_counts["aca"], expected)
        k = config.k_max
        bound = (
            k * (n + m)
            + k * (r.central_row_count + r.central_col_count)
            + n + m
        )
        gp_within &= int(r.eval_counts["acagp"][-1]) <= bound
    ok = aca_exact and gp_within
    report(9, ok, f"classical exactly k(n+m): {aca_exact}; "
                  f"geometry-aided within budget: {gp_within}")
    assert aca_exact
    assert gp_within


def test_criterion_10_rule_of_thumb():
    """Halving the coverage rule at k_max=10, 400 points lands on the
    0.158 figure."""
    value = epsilon_r_rule(10, 400) / 2.0
    ok = abs(value - 0.1581) <= 1e-3
    report(10, ok, f"epsilon_r_rule(10, 400)/2 = {value:.4f}")
    assert ok


# --- pinned output bytes ------------------------------------------------

# Read only: the benchmark's record of each workload's seed-42 output.
EXPECTED_SHA256 = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text()
)["sha256"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_pinned_benchmark_csv_bytes(reference_run):
    """The pinned benchmark's CSV, as `acakit benchmark` writes it."""
    config, _, stats = reference_run
    csv = render_benchmark_csv(stats, config)
    assert sha256(csv.encode()) == EXPECTED_SHA256["stats-n200"]


def test_pinned_sweep_csv_bytes(tmp_path):
    """sweep-central's default 9 radii over 50 realizations at n = m = 200."""
    out = tmp_path / "sweep.csv"
    argv = ["sweep-central", "--n", "200", "--m", "200", "--dist", "1.5",
            "--realizations", "50", "--max-rank", "10", "--threads", "1",
            "--seed", "42", "--out", str(out)]
    assert main(argv) == 0
    assert sha256(out.read_bytes()) == EXPECTED_SHA256["sweep-n200"]


def test_pinned_approximate_json_bytes(tmp_path):
    """The n = m = 10 000 acagp skeleton JSON, then the aca one."""
    blobs = []
    for method in ("acagp", "aca"):
        out = tmp_path / f"{method}.json"
        argv = ["approximate", "--gen", "xi=1,n=10000,m=10000,dist=1.5",
                "--max-rank", "30", "--epsilon", "1e-10", "--seed", "42",
                "--method", method, "--force", "--out", str(out)]
        assert main(argv) == 0
        blobs.append(out.read_bytes())
    assert sha256(b"".join(blobs)) == EXPECTED_SHA256["approx-n10000"]

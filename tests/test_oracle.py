import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acakit.acagp import GpOptions, aca_gp
from acakit.geometry import place_clouds
from acakit.kernel import DenseCapExceededError, KernelHandle
from acakit.lowrank import Skeleton, StoppingParams, aca, dense
from acakit.oracle import (
    SVD_FLOOR,
    _fro,
    _sketch,
    gain,
    genetic_search,
    rank_errors,
    relative_error,
    svd_rank_errors,
)


def kernel_matrix(seed, n=20, m=20, dist=2.0):
    rng = np.random.default_rng(seed)
    x, y, _ = place_clouds(1.0, n, m, dist, rng)
    return KernelHandle().assemble_dense(x, y), x, y, rng


# --- SVD reference ------------------------------------------------------------

def test_svd_rank_one_matrix():
    a = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
    assert svd_rank_errors(a, 2)[0] <= 1e-12


def test_svd_identity():
    # Singular values (1, 1, 1): dropping two of three leaves sqrt(2/3).
    e = svd_rank_errors(np.eye(3), 2)
    assert e[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-14)
    assert e[1] == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-14)


def test_svd_diagonal_example():
    e = svd_rank_errors(np.diag([3.0, 2.0, 1.0]), 3)
    assert e[1] == pytest.approx(1.0 / math.sqrt(14.0), abs=1e-14)
    assert e[2] <= 1e-14


def test_svd_errors_nonincreasing():
    a, _, _, _ = kernel_matrix(0)
    e = svd_rank_errors(a, 10)
    assert np.all(np.diff(e) <= 1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_svd_refuses_non_finite_matrix(bad, capfd):
    # Both paths: a sketch fits the 60 x 50 matrix at k = 3, not at k = 40.
    a, _, _, _ = kernel_matrix(4, n=60, m=50)
    a[7, 3] = bad
    for k in (3, 40):
        with pytest.raises(ValueError, match="^matrix must be finite$"):
            svd_rank_errors(a, k)
    # LAPACK never saw the matrix, so it printed no DLASCL complaint.
    assert capfd.readouterr().err == ""


def full_svd_floors(a, k_max):
    """The floors from the full SVD's tail sums, as svd_rank_errors takes
    them where the sketch is not certified."""
    s = np.linalg.svd(a, compute_uv=False)
    tail = np.concatenate([np.cumsum((s * s)[::-1])[::-1], [0.0]])
    return np.sqrt(np.maximum(tail[1 : min(k_max, *a.shape) + 1], 0.0)) / math.sqrt(tail[0])


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of every matrix handed to np.linalg.svd during the test."""
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


def with_spectrum(n, m, s):
    """An n x m matrix with singular values s, from fixed random bases."""
    rng = np.random.default_rng(len(s))
    u, _ = np.linalg.qr(rng.standard_normal((n, len(s))))
    v, _ = np.linalg.qr(rng.standard_normal((m, len(s))))
    return (u * s) @ v.T


def geometric(ratio, count, rank=None):
    """ratio**i for i < rank (default: all count), then zeros."""
    s = ratio ** np.arange(count)
    if rank is not None:
        s[rank:] = 0.0
    return s


# (n, m, singular values, k_max, path): the sketch where the spectrum has
# decayed by ~k_max + 30, the full SVD where it has not or cannot have.
CERTIFICATE_CASES = {
    "fast-square": (80, 80, geometric(0.5, 80), 8, "sketch"),
    "fast-tall": (150, 60, geometric(0.5, 60), 10, "sketch"),
    "fast-wide": (60, 150, geometric(0.5, 60), 10, "sketch"),
    "slow": (80, 80, geometric(0.95, 80), 8, "full"),
    "flat": (80, 60, np.ones(60), 8, "full"),
    "rank-12-k5": (90, 70, geometric(0.7, 70, rank=12), 5, "sketch"),
    "rank-12-k15": (90, 70, geometric(0.7, 70, rank=12), 15, "full"),
    "k-widest-sketch": (40, 50, geometric(0.3, 40), 9, "sketch"),
    "k-too-wide": (40, 50, geometric(0.3, 40), 10, "full"),
    "k-at-min": (40, 50, geometric(0.3, 40), 40, "full"),
    "k-past-min": (50, 40, geometric(0.3, 40), 45, "full"),
}


@pytest.mark.parametrize("case", sorted(CERTIFICATE_CASES))
def test_svd_floors_certificate(case, svd_shapes):
    n, m, s, k_max, path = CERTIFICATE_CASES[case]
    a = with_spectrum(n, m, s)
    exact = full_svd_floors(a, k_max)
    svd_shapes.clear()
    floors = svd_rank_errors(a, k_max)
    assert (a.shape in svd_shapes) == (path == "full")
    if path == "full":
        assert floors.tobytes() == exact.tobytes()
        return
    # Floors are in units of |A|_F, so a few ulps of 1 is the rounding.
    ulps = 4 * np.finfo(float).eps
    tail = _sketch(a, k_max)
    rank = np.arange(1, k_max + 1)
    bound = np.sqrt(1.0 + rank * tail[-1] / tail[1 : k_max + 1])
    assert np.all(exact <= floors + ulps)
    assert np.all(floors <= exact * bound + ulps)


def test_pinned_realizations_take_the_sketch(svd_shapes):
    """The pinned protocol's floors (seed 42, k = 10) come from the sketch
    and agree with the full SVD's, so no change to the oversampling or the
    certificate falls back to the O(n^3) path unnoticed."""
    for n, count in ((200, 20), (400, 5)):
        for index in range(count):
            rng = np.random.default_rng(42 + index)
            x, y, _ = place_clouds(1.0, n, n, 1.5, rng)
            a = KernelHandle().assemble_dense(x, y)
            svd_shapes.clear()
            floors = svd_rank_errors(a, 10)
            assert a.shape not in svd_shapes, (n, index)
            np.testing.assert_allclose(floors, full_svd_floors(a, 10), rtol=1e-9, atol=0)


# --- error measures --------------------------------------------------------------

def test_relative_error_exact_rank():
    a, x, y, rng = kernel_matrix(1, n=8, m=8)
    skel = aca(
        x, y, KernelHandle(), StoppingParams(epsilon=1e-14, k_max=8), rng
    )
    assert relative_error(a, skel) <= 1e-10


def test_relative_error_matches_direct_norm():
    a, x, y, rng = kernel_matrix(2)
    skel = aca(x, y, KernelHandle(), StoppingParams(epsilon=1e-30, k_max=4), rng)
    direct = np.linalg.norm(a - dense(skel)) / np.linalg.norm(a)
    assert relative_error(a, skel) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("seed", [4, 5])
def test_rank_errors_match_direct_norms(seed):
    a, x, y, rng = kernel_matrix(seed, n=40, m=30)
    skel = aca(x, y, KernelHandle(), StoppingParams(epsilon=1e-30, k_max=8), rng)
    errors = rank_errors(a, skel, skel.rank)
    assert errors.shape == (skel.rank,)
    for l in range(1, skel.rank + 1):
        u, v = skel.u_matrix[:, :l], skel.v_matrix[:, :l]
        direct = np.linalg.norm(a - u @ v.T) / np.linalg.norm(a)
        assert errors[l - 1] == pytest.approx(direct, rel=1e-12)


def test_rank_errors_repeat_the_last_error_past_early_termination():
    a, x, y, rng = kernel_matrix(6)
    skel = aca(x, y, KernelHandle(), StoppingParams(epsilon=1e-4, k_max=10), rng)
    assert 1 <= skel.rank < 10
    errors = rank_errors(a, skel, 10)
    assert np.array_equal(errors[: skel.rank], rank_errors(a, skel, skel.rank))
    assert np.all(errors[skel.rank :] == errors[skel.rank - 1])
    assert errors[skel.rank - 1] == pytest.approx(relative_error(a, skel), rel=1e-12)


def direct_errors(a, skel, k):
    """|A - U_l V_l^T|_F / |A|_F formed directly, for l = 1..k."""
    fro = np.linalg.norm(a)
    return np.array(
        [
            np.linalg.norm(a - skel.u_matrix[:, :l] @ skel.v_matrix[:, :l].T) / fro
            for l in range(1, k + 1)
        ]
    )


def benchmark_skeletons(seed, n=200, m=200, k_max=10, epsilon_r=0.25):
    """The dense matrix and both drivers' skeletons for one realization at
    the pinned benchmark's distance and radius."""
    a, x, y, rng = kernel_matrix(seed, n=n, m=m, dist=1.5)
    stop = StoppingParams(epsilon=1e-30, k_max=k_max)
    skel_aca = aca(x, y, KernelHandle(), stop, rng)
    skel_gp = aca_gp(
        x, y, KernelHandle(), stop, GpOptions(epsilon_r=epsilon_r), rng=rng
    )
    return a, skel_aca, skel_gp


def cut(skel, k):
    """The skeleton of the first k crosses only."""
    return replace(
        skel,
        u_matrix=skel.u_matrix[:, :k].copy(),
        v_matrix=skel.v_matrix[:, :k].copy(),
        pivot_trace=skel.pivot_trace[:k],
    )


@pytest.mark.parametrize("seed", [42, 7, 1001])
def test_rank_errors_match_direct_norms_at_benchmark_scale(seed):
    a, skel_aca, skel_gp = benchmark_skeletons(seed)
    for skel in (skel_aca, skel_gp):
        assert skel.rank == 10
        np.testing.assert_allclose(
            rank_errors(a, skel, 10), direct_errors(a, skel, 10), rtol=1e-12, atol=0
        )


def test_rank_errors_match_direct_norms_for_transposed_acagp():
    # n < m: aca_gp runs on the swapped pair and transposes its skeleton.
    a, skel_aca, skel_gp = benchmark_skeletons(3, n=120, m=200)
    for skel in (skel_aca, skel_gp):
        assert skel.u_matrix.shape == (120, 10)
        np.testing.assert_allclose(
            rank_errors(a, skel, 10), direct_errors(a, skel, 10), rtol=1e-12, atol=0
        )


def test_rank_errors_of_a_zero_rank_skeleton_are_all_one():
    a, _, _, _ = kernel_matrix(8)
    skel = Skeleton(
        u_matrix=np.zeros((20, 0)),
        v_matrix=np.zeros((20, 0)),
        approx_norm=0.0,
        residual_norm=0.0,
    )
    assert rank_errors(a, skel, 5).tolist() == [1.0] * 5


def test_rank_errors_match_direct_norms_after_a_pivot_floor_stop():
    """aca_gp with small pools ends at a floor-level pool pivot, far below
    k_max, with errors near 1e-8.  There the float64 residual itself holds
    only 9 to 11 digits, whichever way it is formed, so the direct
    reference is matched to half a unit roundoff of |A| as well."""
    a, _, skel = benchmark_skeletons(0, k_max=40, epsilon_r=0.1)
    assert 10 < skel.rank < 40
    errors = rank_errors(a, skel, 40)
    np.testing.assert_allclose(
        errors[: skel.rank], direct_errors(a, skel, skel.rank), rtol=1e-12, atol=1e-16
    )
    assert np.all(errors[skel.rank :] == errors[skel.rank - 1])


@pytest.mark.parametrize("k", [1, 4, 9])
def test_rank_errors_count_only_the_first_k_max_crosses(k):
    a, skel_aca, skel_gp = benchmark_skeletons(11)
    for skel in (skel_aca, skel_gp):
        errors = rank_errors(a, skel, k)
        np.testing.assert_allclose(errors, direct_errors(a, skel, k), rtol=1e-12, atol=0)
        assert errors.tobytes() == rank_errors(a, cut(skel, k), k).tobytes()


@pytest.mark.parametrize("seed", [42, 7])
def test_rank_one_error_is_formed_directly(seed):
    a, skel_aca, skel_gp = benchmark_skeletons(seed)
    for skel in (skel_aca, skel_gp):
        u1, v1 = skel.u_matrix[:, 0], skel.v_matrix[:, 0]
        assert rank_errors(a, skel, 10)[0] == _fro(a - np.outer(u1, v1)) / _fro(a)


@pytest.mark.filterwarnings("error")
def test_every_oracle_refuses_a_zero_matrix():
    zero = np.zeros((6, 5))
    skel = Skeleton(
        u_matrix=np.ones((6, 1)),
        v_matrix=np.ones((5, 1)),
        approx_norm=math.sqrt(30.0),
        residual_norm=math.sqrt(30.0),
    )
    for oracle in (
        lambda: svd_rank_errors(zero, 3),
        lambda: svd_rank_errors(np.zeros((60, 50)), 3),  # the sketch's path
        lambda: rank_errors(zero, skel, 3),
        lambda: relative_error(zero, skel),
        lambda: genetic_search(zero, 1),
    ):
        with pytest.raises(ValueError, match="^zero matrix has no relative error$"):
            oracle()


def test_relative_error_dominated_by_svd():
    a, x, y, rng = kernel_matrix(3)
    skel = aca(x, y, KernelHandle(), StoppingParams(epsilon=1e-30, k_max=5), rng)
    e_svd = svd_rank_errors(a, skel.rank)[-1]
    assert relative_error(a, skel) >= e_svd - 1e-12


def test_gain_examples():
    assert gain(2e-3, 1.5e-3, 1e-3) == pytest.approx(2.0, abs=1e-12)
    assert gain(2e-3, 2e-3, 1e-3) == pytest.approx(1.0, abs=1e-12)
    assert np.isnan(gain(2e-3, 1e-3, 1e-3))


class InfiniteGainError(ArithmeticError):
    """Reference method already sits at the SVD floor; gain is unbounded."""


def scalar_gain(e_aca: float, e_acagp: float, e_svd: float) -> float:
    """Gain at one rank, raising where it is unbounded: the reference
    for the curve version."""
    excess = e_acagp - e_svd
    if excess <= SVD_FLOOR:
        raise InfiniteGainError("method error at the SVD baseline")
    return (e_aca - e_svd) / excess


@st.composite
def error_triples(draw):
    """(e_aca, e_acagp, e_svd), with e_acagp often at or just above the
    SVD floor; e_svd = 0 and e_acagp = SVD_FLOOR give an excess of exactly
    SVD_FLOOR."""
    unit = st.floats(0.0, 1.0)
    e_svd = draw(st.sampled_from([0.0, 0.5]) | unit)
    near = [e_svd, SVD_FLOOR, e_svd + SVD_FLOOR, e_svd + 2 * SVD_FLOOR]
    e_acagp = draw(st.sampled_from(near) | unit)
    return draw(unit), e_acagp, e_svd


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(error_triples(), min_size=1, max_size=12))
@example([(0.3, SVD_FLOOR, 0.0), (0.3, 2 * SVD_FLOOR, 0.0), (0.3, 0.1, 0.0)])
def test_gain_curve_matches_scalar_reference(triples):
    e_aca, e_acagp, e_svd = (np.array(c) for c in zip(*triples))
    want = np.empty(len(triples))
    for l in range(len(triples)):
        try:
            want[l] = scalar_gain(e_aca[l], e_acagp[l], e_svd[l])
        except InfiniteGainError:
            want[l] = np.nan
    assert gain(e_aca, e_acagp, e_svd).tobytes() == want.tobytes()


# --- exhaustive pivot search -------------------------------------------------------

def test_genetic_two_by_two_example():
    """A = [[4,1],[1,4]]: the diagonal pivots tie at residual norm 3.75
    and the lexicographically smaller (0,0) wins; the off-diagonal pivots
    leave residual norm 15."""
    a = np.array([[4.0, 1.0], [1.0, 4.0]])
    fro = np.linalg.norm(a)
    res = genetic_search(a, 2, return_grids=True)
    first = res.ranks[0]
    assert first.pivot == (0, 0)
    assert first.rel_error == pytest.approx(3.75 / fro, abs=1e-14)
    grid = res.grids[0]
    assert grid[0, 0] == pytest.approx(3.75 / fro, abs=1e-14)
    assert grid[1, 1] == pytest.approx(3.75 / fro, abs=1e-14)
    assert grid[0, 1] == pytest.approx(15.0 / fro, abs=1e-14)
    assert grid[1, 0] == pytest.approx(15.0 / fro, abs=1e-14)
    # Rank 2 exhausts a 2x2 matrix.
    assert res.ranks[1].rel_error <= 1e-12


def test_genetic_rank_one_matrix_all_pivots_exact():
    a = np.outer([1.0, -2.0, 0.5], [3.0, 1.0, 2.0, -1.0])
    res = genetic_search(a, 1, return_grids=True)
    grid = res.grids[0]
    assert np.nanmax(grid) <= 1e-12


def test_genetic_beats_classical_rank_one():
    for seed in range(10):
        a, x, y, rng = kernel_matrix(seed)
        skel = aca(
            x, y, KernelHandle(), StoppingParams(epsilon=1e-30, k_max=1), rng
        )
        e_aca = relative_error(a, skel)
        assert genetic_search(a, 1).ranks[0].rel_error <= e_aca + 1e-15


def test_genetic_pivots_distinct_rows_and_cols():
    a, _, _, _ = kernel_matrix(5, n=10, m=10)
    res = genetic_search(a, 6)
    rows = [r.pivot[0] for r in res.ranks]
    cols = [r.pivot[1] for r in res.ranks]
    assert len(set(rows)) == len(rows)
    assert len(set(cols)) == len(cols)


def test_genetic_errors_nonincreasing():
    a, _, _, _ = kernel_matrix(6, n=12, m=12)
    errs = [r.rel_error for r in genetic_search(a, 8).ranks]
    assert all(b <= a_ + 1e-15 for a_, b in zip(errs, errs[1:]))


def test_genetic_rank_truncated_to_matrix_size():
    a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert len(genetic_search(a, 10).ranks) == 2


def test_genetic_cap_and_zero_matrix():
    with pytest.raises(DenseCapExceededError):
        genetic_search(np.ones((65, 65)), 1)
    with pytest.raises(ValueError):
        genetic_search(np.zeros((3, 3)), 1)


def test_genetic_grids_only_on_request():
    a, _, _, _ = kernel_matrix(7, n=6, m=6)
    assert genetic_search(a, 2).grids is None
    res = genetic_search(a, 2, return_grids=True)
    assert len(res.grids) == 2
    assert res.grids[0].shape == (6, 6)
    # Used pivots are masked out at later ranks.
    i0, j0 = res.ranks[0].pivot
    assert np.isnan(res.grids[1][i0]).all()
    assert np.isnan(res.grids[1][:, j0]).all()

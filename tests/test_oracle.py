import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acakit.geometry import place_clouds
from acakit.kernel import DenseCapExceededError, KernelHandle
from acakit.lowrank import StoppingParams, aca, dense
from acakit.oracle import (
    SVD_FLOOR,
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

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from acakit.geometry import PointCloud, generate_cloud, place_clouds
from acakit.kernel import (
    DEFAULT_DENSE_CAP,
    DenseCapExceededError,
    KernelHandle,
    SingularEvaluationError,
)


def small_pair(seed=0, n=15, m=12, dist=2.0):
    rng = np.random.default_rng(seed)
    x, y, _ = place_clouds(1.0, n, m, dist, rng)
    return x, y


def test_eval_unit_distance():
    assert KernelHandle().eval((0.0, 0.0), (1.0, 0.0)) == 1.0


def test_eval_three_four_five():
    assert KernelHandle().eval((0.0, 0.0), (3.0, 4.0)) == pytest.approx(
        0.2, abs=1e-15
    )


def test_eval_coincident_points_raise():
    with pytest.raises(SingularEvaluationError):
        KernelHandle().eval((1.0, 1.0), (1.0, 1.0))


def test_eval_row_single_point_target():
    x = PointCloud(np.array([[0.0, 0.0]]))
    y = PointCloud(np.array([[2.0, 0.0]]))
    row = KernelHandle().eval_row(x, y, 0)
    assert row.shape == (1,)
    assert row[0] == 0.5


def test_eval_row_example_values():
    x = PointCloud(np.array([[0.0, 0.0]]))
    y = PointCloud(np.array([[1.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_array_equal(KernelHandle().eval_row(x, y, 0), [1.0, 0.5])


def test_rows_cols_and_dense_agree():
    x, y = small_pair()
    k = KernelHandle()
    a = k.assemble_dense(x, y)
    for i in range(len(x)):
        np.testing.assert_array_equal(k.eval_row(x, y, i), a[i])
    for j in range(len(y)):
        np.testing.assert_array_equal(k.eval_col(x, y, j), a[:, j])


def test_subsets_match_dense():
    x, y = small_pair(seed=3)
    k = KernelHandle()
    a = k.assemble_dense(x, y)
    cols = np.array([0, 3, 7])
    rows = np.array([1, 2, 9])
    np.testing.assert_array_equal(k.eval_row_subset(x, y, 4, cols), a[4, cols])
    np.testing.assert_array_equal(k.eval_col_subset(x, y, 5, rows), a[rows, 5])


def test_assemble_dense_single_entry():
    x = PointCloud(np.array([[0.0, 0.0]]))
    y = PointCloud(np.array([[2.0, 0.0]]))
    np.testing.assert_array_equal(KernelHandle().assemble_dense(x, y), [[0.5]])


def test_assemble_dense_corner_squares_entry():
    x = PointCloud(np.array([[0.5, 0.5], [-0.5, -0.5]]))
    y = PointCloud(np.array([[2.5, 0.5], [3.5, 0.5]]))
    a = KernelHandle().assemble_dense(x, y)
    assert a[0, 0] == 0.5


def test_dense_cap_enforced():
    """2001 x 2000 entries is just over DEFAULT_DENSE_CAP.  Every point
    coincides, so only a cap check made before any distance is computed
    raises DenseCapExceededError rather than SingularEvaluationError."""
    x = PointCloud(np.zeros((2001, 2)))
    y = PointCloud(np.zeros((2000, 2)))
    assert len(x) * len(y) > DEFAULT_DENSE_CAP >= (len(x) - 1) * len(y)
    k = KernelHandle()
    with pytest.raises(DenseCapExceededError):
        k.assemble_dense(x, y)
    assert k.eval_count == 0


def test_singular_pairs_rejected_in_bulk_paths():
    x = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]))
    y = PointCloud(np.array([[0.0, 0.0], [2.0, 0.0]]))
    k = KernelHandle()
    with pytest.raises(SingularEvaluationError):
        k.eval_row(x, y, 0)
    with pytest.raises(SingularEvaluationError):
        k.assemble_dense(x, y)


@pytest.mark.parametrize(
    "call",
    [
        lambda k, x, y: k.eval(x.points[0], y.points[0]),
        lambda k, x, y: k.eval_row(x, y, 0),
        lambda k, x, y: k.eval_col(x, y, 0),
        lambda k, x, y: k.eval_row_subset(x, y, 0, np.array([1, 0])),
        lambda k, x, y: k.eval_col_subset(x, y, 0, np.array([1, 0])),
        lambda k, x, y: k.assemble_dense(x, y),
    ],
    ids=[
        "eval", "eval_row", "eval_col", "eval_row_subset", "eval_col_subset",
        "assemble_dense",
    ],
)
def test_singular_pair_raises_and_counts_nothing(call):
    """x_0 and y_0 coincide: every entry point that touches the pair
    raises and leaves the counter where it was."""
    x = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]))
    y = PointCloud(np.array([[0.0, 0.0], [2.0, 0.0]]))
    k = KernelHandle()
    k.eval_row(x, y, 1)
    with pytest.raises(SingularEvaluationError):
        call(k, x, y)
    assert k.eval_count == 2


def test_eval_counter_arithmetic():
    """The counter reports scalar kernel values: 1 per eval, m per row,
    n per column, len per subset, n*m per dense block."""
    x, y = small_pair(seed=1, n=9, m=7)
    k = KernelHandle()
    assert k.eval_count == 0
    k.eval(x.points[0], y.points[0])
    assert k.eval_count == 1
    k.eval_row(x, y, 2)
    assert k.eval_count == 1 + 7
    k.eval_col(x, y, 3)
    assert k.eval_count == 1 + 7 + 9
    k.eval_row_subset(x, y, 0, np.array([1, 5]))
    assert k.eval_count == 1 + 7 + 9 + 2
    k.eval_col_subset(x, y, 0, np.array([0, 4, 8]))
    assert k.eval_count == 1 + 7 + 9 + 2 + 3
    k.assemble_dense(x, y)
    assert k.eval_count == 1 + 7 + 9 + 2 + 3 + 63


def test_eval_counter_thread_safe():
    x = generate_cloud(1.0, 1.0, 20, np.random.default_rng(2))
    y = PointCloud(x.points + np.array([5.0, 0.0]))
    k = KernelHandle()
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda i: k.eval_row(x, y, i % 20), range(400)))
    assert k.eval_count == 400 * 20


def test_separate_handles_count_independently():
    x, y = small_pair(seed=4)
    k1, k2 = KernelHandle(), KernelHandle()
    k1.eval_row(x, y, 0)
    assert k1.eval_count == len(y)
    assert k2.eval_count == 0


@pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e3, 1e8])
def test_assemble_dense_matches_cdist_bitwise(scale):
    """Dense assembly sums dx*dx + dy*dy like scipy's Euclidean cdist,
    so the two agree bit for bit."""
    cdist = pytest.importorskip("scipy.spatial.distance").cdist
    rng = np.random.default_rng(int(np.log10(scale)) + 20)
    for n, m in [(1, 1), (7, 300), (250, 180)]:
        x = PointCloud(scale * rng.normal(size=(n, 2)))
        y = PointCloud(scale * (rng.normal(size=(m, 2)) + (6.0, -2.0)))
        dense = KernelHandle().assemble_dense(x, y)
        assert np.array_equal(dense, 1.0 / cdist(x.points, y.points))


import numpy as np
import pytest

from acakit.geometry import PointCloud, generate_cloud, place_clouds
from acakit.kernel import (
    DEFAULT_DENSE_CAP,
    DenseCapExceededError,
    KernelHandle,
    SingularEvaluationError,
    _MatrixKernel,
)

# The handles a probe test runs on: "geometric" computes every value from
# the points, "matrix" reads a matrix handle built on (x, y), and
# "transposed" one built on (y, x), which serves (x, y) from its a.T.
HANDLES = ("geometric", "matrix", "transposed")


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


def scaled(x, y, scale):
    return PointCloud(scale * x.points), PointCloud(scale * y.points)


def handle(kind, x, y):
    """A fresh handle of HANDLES kind `kind` for probing (x, y)."""
    if kind == "geometric":
        return KernelHandle()
    if kind == "matrix":
        return _MatrixKernel(x, y, KernelHandle().assemble_dense(x, y))
    return _MatrixKernel(y, x, KernelHandle().assemble_dense(y, x))


def over_handles(*values):
    """(value, kind) parameters for every value and handle kind.  The
    geometric cases keep the value's own test id."""
    return [
        pytest.param(
            value, kind, id=str(value) if kind == "geometric" else f"{kind}-{value}"
        )
        for kind in HANDLES
        for value in values
    ]


@pytest.mark.parametrize("scale, kind", over_handles(1e-8, 1.0, 1e8))
def test_rows_cols_and_dense_agree(scale, kind):
    x, y = scaled(*small_pair(), scale)
    k = handle(kind, x, y)
    a = KernelHandle().assemble_dense(x, y)
    for i in range(len(x)):
        np.testing.assert_array_equal(k.eval_row(x, y, i), a[i])
    for j in range(len(y)):
        np.testing.assert_array_equal(k.eval_col(x, y, j), a[:, j])
    assert k.eval_count == 2 * a.size


@pytest.mark.parametrize("scale, kind", over_handles(1e-8, 1.0, 1e8))
def test_subsets_match_dense(scale, kind):
    x, y = scaled(*small_pair(seed=3), scale)
    k = handle(kind, x, y)
    a = KernelHandle().assemble_dense(x, y)
    cols = np.array([0, 3, 7])
    rows = np.array([1, 2, 9])
    np.testing.assert_array_equal(k.eval_row_subset(x, y, 4, cols), a[4, cols])
    np.testing.assert_array_equal(k.eval_col_subset(x, y, 5, rows), a[rows, 5])
    assert k.eval_count == cols.size + rows.size


@pytest.mark.parametrize(
    "probe, kind", over_handles("eval_row_subset", "eval_col_subset")
)
def test_empty_subset_is_empty_and_uncounted(probe, kind):
    x, y = small_pair()
    k = handle(kind, x, y)
    values = getattr(k, probe)(x, y, 0, np.array([], dtype=int))
    assert values.shape == (0,)
    assert k.eval_count == 0


@pytest.mark.parametrize(
    "probe",
    [
        lambda k, x, y: k.eval_row(x, y, 0),
        lambda k, x, y: k.eval_col(x, y, 0),
        lambda k, x, y: k.eval_row_subset(x, y, 0, np.array([1, 0])),
        lambda k, x, y: k.eval_col_subset(x, y, 0, np.array([1, 0])),
    ],
    ids=["eval_row", "eval_col", "eval_row_subset", "eval_col_subset"],
)
def test_matrix_handle_refuses_other_clouds(probe):
    """A matrix handle serves its own cloud pair, in either order, and
    raises ValueError for any other, even one with the same points."""
    x, y = small_pair()
    k = _MatrixKernel(x, y, KernelHandle().assemble_dense(x, y))
    twin = PointCloud(x.points.copy())
    for other in [(twin, y), (y, twin), (x, x), (y, y)]:
        with pytest.raises(ValueError, match="clouds"):
            probe(k, *other)
    assert k.eval_count == 0
    probe(k, x, y)
    probe(k, y, x)
    assert k.eval_count > 0


def test_matrix_handle_values_are_read_only():
    x, y = small_pair()
    a = KernelHandle().assemble_dense(x, y)
    k = _MatrixKernel(x, y, a)
    for values in (k.eval_row(x, y, 1), k.eval_col(y, x, 2)):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0
    assert a.flags.writeable


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


@pytest.mark.parametrize("kind", HANDLES)
def test_eval_counter_arithmetic(kind):
    """The counter reports scalar kernel values: 1 per eval, m per row,
    n per column, len per subset, n*m per dense block."""
    x, y = small_pair(seed=1, n=9, m=7)
    k = handle(kind, x, y)
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

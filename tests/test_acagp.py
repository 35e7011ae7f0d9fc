import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from acakit.acagp import (
    CENTRAL_MARGIN,
    CircleHeuristics,
    GpOptions,
    _walk_candidates,
    aca_gp,
    central_subset,
    default_epsilon_r,
    first_pivot,
    select_higher,
    select_rank2,
    select_rank3,
)
from acakit.geometry import (
    Circle,
    DegenerateGeometryError,
    PointCloud,
    _circle_distances,
    _cross2,
    _distances_to,
    circumcircle,
    place_clouds,
)
from acakit import acagp
from acakit.kernel import KernelHandle, _MatrixKernel
from acakit.lowrank import (
    PIVOT_FLOOR_REL,
    PivotsExhaustedError,
    StoppingParams,
    _SkeletonBuilder,
    aca,
    dense,
)

RUN_STOP = StoppingParams(epsilon=1e-30, k_max=10)


def pair(seed, n=100, m=100, dist=1.5, xi=1.0):
    rng = np.random.default_rng(seed)
    x, y, _ = place_clouds(xi, n, m, dist, rng)
    return x, y, rng


def rank1_builder(x, y, i1, j1):
    """Builder holding the first cross, for driving the selectors directly."""
    builder = _SkeletonBuilder(x, y, KernelHandle(), 1)
    row = builder.residual_row(i1)
    col = builder.residual_col(j1)
    builder.add_cross(i1, j1, float(row[j1]), row, col, "first")
    return builder


class StubKernel:
    """Duck-typed kernel returning canned values keyed by the y point."""

    def __init__(self, by_y_point=None, constant=None):
        self.by_y_point = by_y_point or {}
        self.constant = constant
        self.eval_count = 0

    def eval(self, xp, yp):
        self.eval_count += 1
        if self.constant is not None:
            return self.constant
        return self.by_y_point[(float(yp[0]), float(yp[1]))]

    def eval_row_subset(self, x, y, i, cols):
        self.eval_count += len(cols)
        return np.full(len(cols), self.constant)

    def eval_col_subset(self, x, y, j, rows):
        self.eval_count += len(rows)
        return np.full(len(rows), self.constant)


# --- defaults ---------------------------------------------------------------

def test_default_epsilon_r():
    assert default_epsilon_r(10, 400) == pytest.approx(
        2.0 * math.sqrt(10 / 400), abs=1e-15
    )
    assert default_epsilon_r(1, 400) == 0.25  # floor
    assert default_epsilon_r(100, 100) == 1.0  # ceiling


def test_gp_options_validation():
    with pytest.raises(ValueError):
        GpOptions(epsilon_r=0.0)
    with pytest.raises(ValueError):
        GpOptions(epsilon_r=1.5)
    GpOptions(epsilon_r=1.0)


# --- first pivot -------------------------------------------------------------

def test_first_pivot_collinear_example():
    x = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    y = PointCloud(np.array([[5.0, 0.0]]))
    i1, j1 = first_pivot(x, y)
    assert i1 == 2  # only (2, 0) faces the other cloud from the barycenter
    assert j1 == 0


def test_first_pivot_strict_halfplane_excludes_barycenter_point():
    x = PointCloud(
        np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    )
    y = PointCloud(np.array([[3.0, 0.0]]))
    i1, _ = first_pivot(x, y)
    assert i1 == 1  # the point at the barycenter has zero projection


def test_first_pivot_single_points():
    x = PointCloud(np.array([[0.0, 0.0]]))
    y = PointCloud(np.array([[5.0, 5.0]]))
    assert first_pivot(x, y) == (0, 0)


# --- central subsets -----------------------------------------------------------

def test_central_subset_full_fraction_is_whole_cloud():
    x, _, _ = pair(0, n=50, m=10)
    idx, eps = central_subset(x, 0, 5, 1.0)
    assert np.array_equal(idx, np.arange(50))
    assert eps == 1.0


def test_central_subset_grows_to_whole_cloud():
    x, _, _ = pair(1, n=12, m=10)
    idx, eps = central_subset(x, 3, 4, 0.05)  # k_max + CENTRAL_MARGIN = n
    assert np.array_equal(idx, np.arange(12))
    assert eps > 0.05


def test_central_subset_matches_direct_filter():
    """Seeded 400-point cloud, pivot near the center, fraction 0.25: the
    subset equals a direct distance filter, holds well over the k_max +
    CENTRAL_MARGIN floor (expected count ~150), and needs no growth."""
    rng = np.random.default_rng(42)
    cloud = PointCloud(rng.uniform(-0.5, 0.5, size=(400, 2)))
    piv = int(np.argmin(np.linalg.norm(cloud.points - cloud.barycenter, axis=1)))
    idx, eps = central_subset(cloud, piv, 10, 0.25)
    assert eps == 0.25
    dist = np.linalg.norm(cloud.points - cloud.points[piv], axis=1)
    np.testing.assert_array_equal(idx, np.flatnonzero(dist <= 0.25 * cloud.diameter))
    assert idx.size >= 18
    assert 100 <= idx.size <= 220


def test_central_subset_sorted_ascending():
    x, _, _ = pair(2, n=80, m=10)
    idx, _ = central_subset(x, 7, 10, 0.3)
    assert np.all(np.diff(idx) > 0)


def test_central_subset_rejects_bad_fraction():
    x, _, _ = pair(3, n=20, m=10)
    with pytest.raises(ValueError):
        central_subset(x, 0, 5, 0.0)


def _central_subset_reference(cloud, pivot_index, k_max, epsilon_r):
    """Re-filter the cloud at every growth step: the loop that
    `central_subset`'s scalar growth must reproduce exactly."""
    required = min(len(cloud), k_max + CENTRAL_MARGIN)
    dist = _distances_to(cloud.points, cloud.points[pivot_index])
    eps = epsilon_r
    idx = np.flatnonzero(dist <= eps * cloud.diameter)
    while idx.size < required:
        eps = max(eps * 1.1, math.nextafter(eps, math.inf))
        idx = np.flatnonzero(dist <= eps * cloud.diameter)
    return idx, eps


@pytest.mark.parametrize("seed", range(20))
def test_central_subset_matches_refiltering_loop(seed):
    # Random, duplicated and collinear clouds, with fractions from the
    # smallest subnormal (thousands of growth steps) to the whole cloud.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    pts = rng.uniform(-1.0, 1.0, size=(n, 2)) * 10.0 ** rng.uniform(-3, 3)
    if seed % 3 == 1:
        pts = pts[rng.integers(0, max(1, n // 3), n)]  # repeated points
    elif seed % 3 == 2:
        pts[:, 1] = 0.5 * pts[:, 0]  # collinear
    cloud = PointCloud(pts)
    pivot = int(rng.integers(0, n))
    k_max = int(rng.integers(1, n + 1))
    for eps_r in (1e-323, 1e-300, 0.01, 0.25, 0.7, 1.0):
        idx, eps = central_subset(cloud, pivot, k_max, eps_r)
        ref_idx, ref_eps = _central_subset_reference(cloud, pivot, k_max, eps_r)
        assert np.array_equal(idx, ref_idx)
        assert eps == ref_eps


def test_central_subset_growth_stops_on_a_point_at_the_radius():
    # Symmetric cloud about the pivot at the origin, diameter exactly 2.
    # Nine points lie within 0.1 * 2; the 10th nearest sits exactly at the
    # first grown radius, which holds it, so growth stops there.
    r = 0.1 * 1.1 * 2.0
    ys = [0.01, 0.02, 0.05, 0.1, r]
    pts = [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]
    pts += [[0.0, s * v] for v in ys for s in (1.0, -1.0)]
    cloud = PointCloud(np.array(pts))
    assert cloud.diameter == 2.0
    idx, eps = central_subset(cloud, 0, 2, 0.1)  # 2 + CENTRAL_MARGIN = 10
    assert eps == 0.1 * 1.1
    np.testing.assert_array_equal(idx, [0, *range(3, 13)])
    ref_idx, ref_eps = _central_subset_reference(cloud, 0, 2, 0.1)
    assert eps == ref_eps and np.array_equal(idx, ref_idx)


# --- rank-2 circle search -------------------------------------------------------

def stub_rank2_setup():
    """One x candidate off the pivot line plus three y candidates at
    increasing distance from the rank-2 circle."""
    x = PointCloud(np.array([[0.0, 0.0], [0.0, 1.0]]))
    c2 = circumcircle((0.0, 0.0), (2.0, 0.0), (0.0, 1.0))
    center, r = c2.center, c2.radius
    spots = [
        center + (r + d) * np.array([math.cos(a), math.sin(a)])
        for d, a in [(0.0, 0.3), (0.05, 1.1), (0.1, 2.0)]
    ]
    y = PointCloud(np.vstack([[2.0, 0.0], spots]))
    return x, y


def stub_builder(x, y, stub):
    """Builder with no cross yet, so residual probes return the stub's values."""
    return _SkeletonBuilder(x, y, stub, 1)


def test_select_rank2_single_candidate_no_iteration():
    x, y = stub_rank2_setup()
    stub = StubKernel(by_y_point={(float(p[0]), float(p[1])): 9.9 for p in y.points})
    i2, j2, pivot, _ = select_rank2(
        stub_builder(x, y, stub), 0, 0, [1], [2], np.random.default_rng(0)
    )
    assert (i2, j2) == (1, 2)
    assert pivot == 9.9
    assert stub.eval_count == 1


def test_select_rank2_stops_on_first_decrease():
    # Residual magnitudes 0.4, 0.7, 0.6 along the walk: the third check
    # fails to increase, so the second candidate wins.
    x, y = stub_rank2_setup()
    vals = {
        (float(y.points[1][0]), float(y.points[1][1])): 0.4,
        (float(y.points[2][0]), float(y.points[2][1])): 0.7,
        (float(y.points[3][0]), float(y.points[3][1])): 0.6,
    }
    stub = StubKernel(by_y_point=vals)
    i2, j2, pivot, c2 = select_rank2(
        stub_builder(x, y, stub), 0, 0, [1], [1, 2, 3], np.random.default_rng(0)
    )
    assert j2 == 2
    assert pivot == 0.7
    assert stub.eval_count == 3


def test_select_rank2_exhausted_pool_returns_best_seen():
    # Magnitudes keep increasing to the end: the best (last) candidate wins.
    x, y = stub_rank2_setup()
    vals = {
        (float(y.points[1][0]), float(y.points[1][1])): 0.4,
        (float(y.points[2][0]), float(y.points[2][1])): 0.7,
        (float(y.points[3][0]), float(y.points[3][1])): 0.9,
    }
    stub = StubKernel(by_y_point=vals)
    _, j2, pivot, _ = select_rank2(
        stub_builder(x, y, stub), 0, 0, [1], [1, 2, 3], np.random.default_rng(0)
    )
    assert j2 == 3
    assert pivot == 0.9


def test_select_rank2_empty_pool_raises():
    x, y = stub_rank2_setup()
    builder = stub_builder(x, y, StubKernel(constant=1.0))
    with pytest.raises(PivotsExhaustedError):
        select_rank2(builder, 0, 0, [], [1], np.random.default_rng(0))


def test_select_rank2_grid_pivot_lands_near_circle():
    """Structured 20x20 grids 1.5 apart: the chosen column point stays
    within two grid spacings of the constructed circle."""
    h = 1.0 / 19.0
    g = np.array([[i * h - 0.5, j * h - 0.5] for i in range(20) for j in range(20)])
    x = PointCloud(g)
    y = PointCloud(g + np.array([2.5, 0.0]))
    i1, j1 = first_pivot(x, y)
    builder = rank1_builder(x, y, i1, j1)
    ic, _ = central_subset(x, i1, 10, 0.25)
    jc, _ = central_subset(y, j1, 10, 0.25)
    jc_work = [int(j) for j in jc if j != j1]
    line = y.points[j1] - x.points[i1]
    off_line = [
        int(i)
        for i in ic
        if i != i1 and abs(_cross2(x.points[i] - x.points[i1], line)) > 1e-9
    ]
    for i2_choice in off_line[:10]:
        _, j2, _, c2 = select_rank2(
            builder, i1, j1, [i2_choice], list(jc_work), np.random.default_rng(0)
        )
        assert _circle_distances(y.points[[j2]], c2)[0] <= 2.0 * h


def reference_walk_candidates(points, work, circle, probe):
    """Reference for `_walk_candidates`: take the candidate nearest the
    circle among those left, probe it, remove it, repeat."""
    remaining = list(work)
    best_j, best_abs, best_val = -1, -1.0, 0.0
    prev_j, prev_abs, prev_val = -1, -1.0, 0.0
    first = True
    while remaining:
        arr = np.asarray(remaining)
        pos = int(np.argmin(_circle_distances(points[arr], circle)))
        j = int(arr[pos])
        val = float(probe(j))
        if not first and abs(val) <= prev_abs:
            return prev_j, prev_val
        if abs(val) > best_abs:
            best_j, best_abs, best_val = j, abs(val), val
        prev_j, prev_abs, prev_val = j, abs(val), val
        remaining.pop(pos)
        first = False
    return best_j, best_val


def recording_probe(values):
    """Probe returning values[k] on its k-th call, recording each index."""
    calls = []

    def probe(j):
        calls.append(j)
        return values[len(calls) - 1]

    return probe, calls


HALF_GRID = st.integers(-3, 3).map(lambda v: v / 2.0)
ANY_VALUES = st.lists(
    st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    | st.floats(-10.0, 10.0, allow_nan=False),
    min_size=30, max_size=30,
)
# Non-decreasing magnitudes with random signs; zero steps make plateaus,
# where the walk must stop.
GROWING_VALUES = st.tuples(
    st.lists(
        st.sampled_from([0.0, 0.5]) | st.floats(0.01, 1.0), min_size=30, max_size=30
    ),
    st.lists(st.sampled_from([-1.0, 1.0]), min_size=30, max_size=30),
).map(lambda t: [s * v for s, v in zip(t[1], np.cumsum(t[0]).tolist())])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), values=ANY_VALUES | GROWING_VALUES)
def test_walk_candidates_matches_repeated_argmin(data, values):
    """Points on a half-unit grid repeat and sit at equal distances from
    the circle, so ties are common; the walk must break them in pool
    order, probe the same candidates and return the same pivot."""
    size = data.draw(st.integers(1, 30), label="pool size")
    coords = data.draw(
        st.lists(st.tuples(HALF_GRID, HALF_GRID), min_size=size, max_size=size + 5)
    )
    points = np.array(coords)
    work = data.draw(st.permutations(range(len(coords))), label="order")[:size]
    circle = Circle(
        np.array(data.draw(st.tuples(HALF_GRID, HALF_GRID))),
        data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.5])),
    )
    probe, calls = recording_probe(values)
    ref_probe, ref_calls = recording_probe(values)
    assert _walk_candidates(points, work, circle, probe) == reference_walk_candidates(
        points, work, circle, ref_probe
    )
    assert calls == ref_calls


def test_walk_candidates_empty_pool():
    circle = Circle(np.zeros(2), 1.0)
    assert _walk_candidates(np.zeros((3, 2)), [], circle, None) == (-1, 0.0)


# --- rank-3 conjugate search ------------------------------------------------------

def test_select_rank3_single_row_candidate():
    x, y, _ = pair(4, n=30, m=30, dist=2.0)
    i1, j1 = first_pivot(x, y)
    builder = rank1_builder(x, y, i1, j1)
    other = next(i for i in range(len(x)) if i != i1)
    c2 = circumcircle(x.points[i1], y.points[j1], x.points[other])
    jc_work = [j for j in range(len(y)) if j != j1]
    i3, j3, _ = select_rank3(builder, i1, j1, c2, [5], jc_work)
    assert i3 == 5
    assert j3 in jc_work


def test_select_rank3_empty_pool_raises():
    x, y, _ = pair(5, n=10, m=10)
    i1, j1 = first_pivot(x, y)
    builder = rank1_builder(x, y, i1, j1)
    other = next(i for i in range(len(x)) if i != i1)
    c2 = circumcircle(x.points[i1], y.points[j1], x.points[other])
    with pytest.raises(PivotsExhaustedError):
        select_rank3(builder, i1, j1, c2, [], [1])


def repeated_point_pair():
    """5 points tiled 4 times (row i repeats row i mod 5) against 12 points
    shifted by (2, 1)."""
    x = PointCloud(np.tile(np.random.default_rng(0).uniform(0, 1, (5, 2)), (4, 1)))
    y = PointCloud(np.random.default_rng(0).uniform(0, 1, (12, 2)) + (2, 1))
    return x, y


def test_acagp_rank3_skips_rows_that_repeat_a_pivot_point():
    """A copy of x_i1 lies on the conjugate circle anchored at x_i1 and has
    a zero residual row; taking it ended this run at rank 2."""
    x, y = repeated_point_pair()
    skel = aca_gp(
        x, y, KernelHandle(), StoppingParams(1e-12, 10),
        GpOptions(epsilon_r=1.0, use_circle_heuristics=CircleHeuristics.ON),
        rng=np.random.default_rng(1),
    )
    assert skel.rank == 5
    assert [rec.selector for rec in skel.pivot_trace[:3]] == [
        "first", "circle2", "circle3"
    ]
    assert len({i % 5 for i in skel.pivot_rows}) == 5


def test_select_rank3_raises_when_every_row_repeats_a_pivot_point():
    x, y = repeated_point_pair()
    builder = rank1_builder(x, y, 3, 9)
    c2 = circumcircle(x.points[3], y.points[9], x.points[1])
    with pytest.raises(DegenerateGeometryError):
        select_rank3(builder, 3, 9, c2, [8, 13, 18], [0, 1, 2])


def test_rank3_beats_classical_on_most_instances():
    """Paired 100-seed comparison at rank 3; the conjugate-circle pivot
    should win at least 80% of the square-cloud instances."""
    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        x, y, _ = place_clouds(1.0, 100, 100, 1.5, rng)
        stop = StoppingParams(epsilon=1e-30, k_max=3)
        skel_aca = aca(x, y, KernelHandle(), stop, rng)
        skel_gp = aca_gp(
            x, y, KernelHandle(), stop, GpOptions(epsilon_r=0.25), rng=rng
        )
        a = KernelHandle().assemble_dense(x, y)
        fro = np.linalg.norm(a)
        e_aca = np.linalg.norm(a - dense(skel_aca)) / fro
        e_gp = np.linalg.norm(a - dense(skel_gp)) / fro
        wins += e_gp <= e_aca
    assert wins >= 80


# --- higher ranks -------------------------------------------------------------------

def test_select_higher_single_pair():
    x, y, _ = pair(6, n=20, m=20)
    builder = _SkeletonBuilder(x, y, KernelHandle(), 1)
    i, j, pivot = select_higher(builder, [3], [7], np.random.default_rng(0))
    assert (i, j) == (3, 7)
    assert pivot == KernelHandle().eval(x.points[3], y.points[7])


def test_select_higher_all_equal_takes_smallest_indices():
    x, y, _ = pair(7, n=10, m=10)
    stub = StubKernel(constant=5.0)
    i, j, pivot = select_higher(
        stub_builder(x, y, stub), [2, 5, 7], [1, 4], np.random.default_rng(0)
    )
    assert (i, j) == (2, 1)
    assert pivot == 5.0


def test_select_higher_empty_pool_raises():
    x, y, _ = pair(8, n=10, m=10)
    builder = _SkeletonBuilder(x, y, KernelHandle(), 1)
    with pytest.raises(PivotsExhaustedError):
        select_higher(builder, [], [1], np.random.default_rng(0))


def test_higher_rank_pivot_maximizes_residual_column():
    """At rank 4 the chosen row index must maximize the dense residual
    magnitude along the chosen column among unused central rows."""
    x, y, _ = pair(9)
    kernel = KernelHandle()
    skel = aca_gp(
        x, y, kernel, StoppingParams(epsilon=1e-30, k_max=4),
        GpOptions(epsilon_r=0.25), rng=np.random.default_rng(9),
    )
    assert skel.pivot_trace[3].selector == "central"
    i1 = skel.pivot_rows[0]
    ic, _ = central_subset(x, i1, 4, 0.25)
    assert skel.central_row_count == ic.size
    unused = [i for i in ic if i not in skel.pivot_rows[:3]]
    a = KernelHandle().assemble_dense(x, y)
    r3 = a - skel.u_matrix[:, :3] @ skel.v_matrix[:, :3].T
    j4, i4 = skel.pivot_cols[3], skel.pivot_rows[3]
    assert i4 in unused
    col = np.abs(r3[unused, j4])
    assert abs(r3[i4, j4]) >= col.max() * (1.0 - 1e-9)


# --- the assembled method --------------------------------------------------------------

def test_acagp_rank1_pivot_rule_and_fraction_independence():
    x, y, _ = pair(10)
    stop = StoppingParams(epsilon=1e-30, k_max=1)
    skeletons = [
        aca_gp(
            x, y, KernelHandle(), stop, GpOptions(epsilon_r=eps),
            rng=np.random.default_rng(10),
        )
        for eps in (0.1, 0.25, 0.5)
    ]
    i1, j1 = first_pivot(x, y)
    for skel in skeletons:
        assert skel.pivot_rows == (i1,)
        assert skel.pivot_cols == (j1,)
        assert skel.pivot_trace[0].selector == "first"
        assert np.array_equal(skel.u_matrix, skeletons[0].u_matrix)
        assert np.array_equal(skel.v_matrix, skeletons[0].v_matrix)


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("n, m", [(30, 45), (40, 40), (45, 30)])
def test_acagp_first_cross_is_shared_by_longer_runs(n, m, seed):
    """A k_max = 1 run returns the first cross of every longer run, whatever
    its central radius, circle mode or rng: a sweep's radii share the error
    curve's rank-1 residual, which its first radius takes."""
    x, y, _ = place_clouds(1.0, n, m, 2.0, np.random.default_rng(seed))
    first = aca_gp(
        x, y, KernelHandle(), StoppingParams(epsilon=1e-30, k_max=1),
        rng=np.random.default_rng(0),
    )
    assert first.rank == 1
    stop = StoppingParams(epsilon=1e-30, k_max=8)
    for eps in (0.1, 0.5, 1.0):
        for mode in CircleHeuristics:
            for rng_seed in (1, 2):
                skel = aca_gp(
                    x, y, KernelHandle(), stop,
                    GpOptions(epsilon_r=eps, use_circle_heuristics=mode),
                    rng=np.random.default_rng(rng_seed),
                )
                assert skel.rank > 1
                assert skel.pivot_trace[0] == first.pivot_trace[0]
                assert np.array_equal(skel.u_matrix[:, 0], first.u_matrix[:, 0])
                assert np.array_equal(skel.v_matrix[:, 0], first.v_matrix[:, 0])
                assert skel.rank_eval_counts[0] == first.rank_eval_counts[0]


def test_acagp_full_rank_exact():
    x, y, _ = pair(11, n=5, m=5)
    kernel = KernelHandle()
    skel = aca_gp(
        x, y, kernel, StoppingParams(epsilon=1e-12, k_max=5),
        rng=np.random.default_rng(11),
    )
    a = KernelHandle().assemble_dense(x, y)
    assert np.linalg.norm(a - dense(skel)) <= 1e-10 * np.linalg.norm(a)


def test_acagp_selector_sequence_square_clouds():
    x, y, _ = pair(12)
    skel = aca_gp(
        x, y, KernelHandle(), StoppingParams(epsilon=1e-30, k_max=6),
        GpOptions(epsilon_r=0.25), rng=np.random.default_rng(12),
    )
    selectors = [rec.selector for rec in skel.pivot_trace]
    assert selectors == ["first", "circle2", "circle3", "central", "central", "central"]


def test_acagp_circles_off_uses_magnitude_fallback():
    x, y, _ = pair(13)
    skel = aca_gp(
        x, y, KernelHandle(), StoppingParams(epsilon=1e-30, k_max=4),
        GpOptions(epsilon_r=0.25, use_circle_heuristics=CircleHeuristics.OFF),
        rng=np.random.default_rng(13),
    )
    selectors = [rec.selector for rec in skel.pivot_trace]
    assert selectors == ["first", "central", "central", "central"]


def test_acagp_auto_disables_circles_for_elongated_clouds():
    x, y, _ = pair(14, n=120, m=120, dist=2.0, xi=0.4)
    skel = aca_gp(
        x, y, KernelHandle(), StoppingParams(epsilon=1e-30, k_max=4),
        GpOptions(epsilon_r=0.4), rng=np.random.default_rng(14),
    )
    selectors = [rec.selector for rec in skel.pivot_trace]
    assert "circle2" not in selectors and "circle3" not in selectors


@pytest.mark.parametrize("seed", [9, 14, 23])
def test_acagp_rank3_needs_rank2_circle(seed):
    """Rank 3's conjugate circles come only from a rank-2 circle, in every
    mode.  Both clouds are 20 points on the x-axis plus 4 off it, so the
    first pivots lie on the axis and an on-axis trial row makes the rank-2
    circle degenerate; rank 2 then falls back, and so must rank 3, even
    though a circle through the fallback's pivot would exist."""
    rng = np.random.default_rng(seed)
    pts = np.vstack(
        [np.column_stack([rng.random(20), np.zeros(20)]), rng.random((4, 2))]
    )
    x, y = PointCloud(pts), PointCloud(pts + [3.0, 0.0])
    skel = aca_gp(
        x, y, KernelHandle(), StoppingParams(epsilon=1e-30, k_max=4),
        GpOptions(epsilon_r=1.0, use_circle_heuristics=CircleHeuristics.ON),
        rng=np.random.default_rng(seed),
    )
    selectors = [rec.selector for rec in skel.pivot_trace]
    assert selectors[:3] == ["first", "central", "central"]
    assert x.points[skel.pivot_rows[1], 1] != 0.0  # off the axis


def test_acagp_pivots_are_distinct():
    x, y, _ = pair(15)
    skel = aca_gp(
        x, y, KernelHandle(), RUN_STOP, GpOptions(epsilon_r=0.25),
        rng=np.random.default_rng(15),
    )
    assert len(set(skel.pivot_rows)) == skel.rank == 10
    assert len(set(skel.pivot_cols)) == skel.rank


def test_acagp_eval_budget():
    x, y, _ = pair(16, n=150, m=120)
    kernel = KernelHandle()
    skel = aca_gp(
        x, y, kernel, RUN_STOP, GpOptions(epsilon_r=0.25),
        rng=np.random.default_rng(16),
    )
    k, n, m = skel.rank, 150, 120
    budget = k * (n + m) + k * (skel.central_row_count + skel.central_col_count)
    assert kernel.eval_count <= budget + n + m


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    data=st.data(),
    eps_r=st.floats(0.0, 1.0, exclude_min=True),
    mode=st.sampled_from(CircleHeuristics),
    kind=st.sampled_from(["uniform", "collinear", "grid"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_acagp_eval_budget_random_clouds(n, m, data, eps_r, mode, kind, seed):
    """Criterion 9's bound r(n + m) + r(|Ic| + |Jc|) + n + m, with the pool
    sizes the skeleton reports, holds at every rank reached, and for the
    whole run at its final rank, which covers the probes of a selection
    refused at the pivot floor (3000 random runs of this kind use at most
    0.89 of it)."""
    k = data.draw(st.integers(1, min(n, m)), label="k_max")
    rng = np.random.default_rng(seed)
    x = property_cloud(kind, n, rng, (0.0, 0.0))
    y = property_cloud(kind, m, rng, (2.0, 1.0))
    kernel = KernelHandle()
    skel = aca_gp(
        x, y, kernel, StoppingParams(epsilon=1e-30, k_max=k),
        GpOptions(epsilon_r=eps_r, use_circle_heuristics=mode), rng=rng,
    )
    pools = skel.central_row_count + skel.central_col_count
    bounds = [r * (n + m) + r * pools + n + m for r in range(1, skel.rank + 1)]
    assert len(skel.rank_eval_counts) == skel.rank >= 1
    for count, bound in zip(skel.rank_eval_counts, bounds):
        assert count <= bound
    assert kernel.eval_count <= bounds[-1]


def assert_swap_is_exact_transpose(n, m, circles):
    """For n != m both orientations solve the same problem (the driver
    swaps to put the larger cloud on the rows); for n = m the row cloud is
    always X and the swapped call may pick other pivots."""
    rng_pair = np.random.default_rng(17)
    x, y, _ = place_clouds(1.0, n, m, 2.0, rng_pair)
    stop = StoppingParams(epsilon=1e-30, k_max=6)
    opts = GpOptions(epsilon_r=0.4, use_circle_heuristics=circles)
    s_xy = aca_gp(x, y, KernelHandle(), stop, opts, rng=np.random.default_rng(17))
    s_yx = aca_gp(y, x, KernelHandle(), stop, opts, rng=np.random.default_rng(17))
    assert np.array_equal(dense(s_xy), dense(s_yx).T)
    assert s_xy.pivot_rows == s_yx.pivot_cols
    assert s_xy.pivot_cols == s_yx.pivot_rows
    assert s_xy.central_row_count == s_yx.central_col_count


def test_acagp_swap_is_exact_transpose():
    assert_swap_is_exact_transpose(50, 80, CircleHeuristics.AUTO)  # len(y) > len(x)


@pytest.mark.parametrize(
    "n, m, circles",
    [
        (n, m, circles)
        for n, m in [(50, 80), (80, 50), (1, 7), (30, 31)]
        for circles in CircleHeuristics
        if (n, m, circles) != (50, 80, CircleHeuristics.AUTO)
    ],
)
def test_acagp_swap_is_exact_transpose_more_shapes(n, m, circles):
    assert_swap_is_exact_transpose(n, m, circles)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    circles=st.sampled_from(CircleHeuristics),
)
def test_acagp_swap_is_exact_transpose_random_shapes(n, m, circles):
    assume(n != m)
    assert_swap_is_exact_transpose(n, m, circles)


@pytest.mark.parametrize("n, m", [(30, 50), (50, 30)])
def test_acagp_pivot_sign_sits_on_v(n, m):
    """The Skeleton convention in both orientations: U is positive at each
    pivot row and V carries the pivot sign at each pivot column.  For
    n < m the skeleton is transposed back from the swapped run, so the
    sign must move across the factors."""
    x, y, _ = place_clouds(1.0, n, m, 2.0, np.random.default_rng(0))
    stop = StoppingParams(epsilon=1e-30, k_max=8)
    skel = aca_gp(
        x, y, KernelHandle(), stop, GpOptions(epsilon_r=0.4),
        rng=np.random.default_rng(0),
    )
    p = skel.pivot_values
    assert skel.rank == 8
    assert (p < 0).any()
    for l, (i, j) in enumerate(zip(skel.pivot_rows, skel.pivot_cols)):
        assert skel.u_matrix[i, l] > 0.0
        assert np.sign(skel.v_matrix[j, l]) == np.sign(p[l])


def property_cloud(kind, size, rng, shift):
    """Uniform points in the unit square, the same points moved onto the
    line y = x / 2, or rounded to a quarter grid (duplicates likely)."""
    pts = rng.uniform(-0.5, 0.5, size=(size, 2))
    if kind == "collinear":
        pts[:, 1] = 0.5 * pts[:, 0]
    elif kind == "grid":
        pts = np.round(4.0 * pts) / 4.0
    return PointCloud(pts + shift)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    data=st.data(),
    eps_r=st.floats(0.0, 1.0, exclude_min=True),
    mode=st.sampled_from(CircleHeuristics),
    kind=st.sampled_from(["uniform", "collinear", "grid"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_acagp_pivots_stay_in_central_subsets(n, m, data, eps_r, mode, kind, seed):
    """Every pivot after the first comes from the central subsets around the
    first pivot pair, and the subsets never run out before k_max.  The
    shift keeps the clouds apart and, for collinear clouds, puts both on
    one line, so every circle through pivots is degenerate."""
    k = data.draw(st.integers(1, min(n, m)), label="k_max")
    rng = np.random.default_rng(seed)
    x = property_cloud(kind, n, rng, (0.0, 0.0))
    y = property_cloud(kind, m, rng, (2.0, 1.0))
    skel = aca_gp(
        x, y, KernelHandle(), StoppingParams(epsilon=1e-30, k_max=k),
        GpOptions(epsilon_r=eps_r, use_circle_heuristics=mode), rng=rng,
    )
    assert 1 <= skel.rank <= k
    rows, _ = central_subset(x, skel.pivot_rows[0], k, eps_r)
    cols, _ = central_subset(y, skel.pivot_cols[0], k, eps_r)
    assert set(skel.pivot_rows) <= set(rows.tolist())
    assert set(skel.pivot_cols) <= set(cols.tolist())
    if k > 1:
        assert skel.central_row_count == rows.size
        assert skel.central_col_count == cols.size


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    data=st.data(),
    dist=st.sampled_from([1.0, 1.5, 3.0, 10.0]),
    eps_r=st.floats(0.05, 1.0),
    mode=st.sampled_from(CircleHeuristics),
    seed=st.integers(0, 2**32 - 1),
)
def test_drivers_cross_interpolate_random_clouds(n, m, data, dist, eps_r, mode, seed):
    """Both drivers leave A - U V^T at most 1e-10 * max|a| on every pivot
    row and column (3000 random runs of this kind reach ~4e-13)."""
    k = data.draw(st.integers(1, min(n, m)), label="k_max")
    x, y, rng = pair(seed, n=n, m=m, dist=dist)
    a = KernelHandle().assemble_dense(x, y)
    stop = StoppingParams(epsilon=1e-30, k_max=k)
    opts = GpOptions(epsilon_r=eps_r, use_circle_heuristics=mode)
    for skel in (
        aca(x, y, KernelHandle(), stop, rng),
        aca_gp(x, y, KernelHandle(), stop, opts, rng=rng),
    ):
        r = np.abs(a - dense(skel))
        tol = 1e-10 * np.abs(a).max()
        assert r[list(skel.pivot_rows)].max() <= tol
        assert r[:, list(skel.pivot_cols)].max() <= tol


def assert_trace_replays(x, y, a, skel, k_max, eps_r=None):
    """Replay each record of `skel.pivot_trace` against the dense residual
    R_l = A - U_l V_l^T of the l crosses before it, formed here from the
    skeleton's factors, in the orientation the driver ran (`aca_gp` solves
    the swapped pair when n < m).  `eps_r` is the central radius of an
    `aca_gp` run, None for `aca`.  Candidates within a few ulps x |A| of
    the best count as ties."""
    scale = np.abs(a).max()
    tol = 64 * np.finfo(float).eps * scale
    u, v = skel.u_matrix, skel.v_matrix
    res = [a - u[:, :l] @ v[:, :l].T for l in range(skel.rank + 1)]
    recs = [(r.i, r.j) for r in skel.pivot_trace]
    rows_cloud = x
    if eps_r is not None and len(y) > len(x):
        rows_cloud = y
        res = [r.T for r in res]
        recs = [(j, i) for i, j in recs]
    floor = PIVOT_FLOOR_REL * abs(skel.pivot_trace[0].pivot_value)
    skipped: set[int] = set()
    for l, rec in enumerate(skel.pivot_trace):
        (i, j), r = recs[l], res[l]
        used_rows = [p[0] for p in recs[:l]]
        free = np.ones(r.shape[1], dtype=bool)
        free[[p[1] for p in recs[:l]]] = False
        assert abs(rec.pivot_value - r[i, j]) <= 1e-12 * scale
        assert (rec.selector in ("random", "first")) == (l == 0)
        if rec.selector in ("random", "partial"):
            assert free[j]
            assert abs(r[i, j]) >= np.abs(r[i, free]).max() - tol
        if rec.selector == "partial":
            # Unused rows ahead of i on the previous column were skipped:
            # their residual row is at the floor on the unused columns.
            col = np.abs(res[l - 1][:, recs[l - 1][1]])
            assert i not in used_rows
            for row in np.flatnonzero(col > col[i] + tol).tolist():
                if row not in used_rows and row not in skipped:
                    assert np.abs(r[row, free]).max() <= floor + tol
                    skipped.add(row)
        elif rec.selector == "first":
            assert (rec.i, rec.j) == first_pivot(x, y)
        elif rec.selector == "central":
            pool, _ = central_subset(rows_cloud, recs[0][0], k_max, eps_r)
            pool = np.setdiff1d(pool, used_rows)
            assert i in pool
            assert abs(r[i, j]) >= np.abs(r[pool, j]).max() - tol
        elif rec.selector == "circle3":
            pts = rows_cloud.points
            assert pts[i].tolist() not in [pts[p].tolist() for p in used_rows]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    k=st.integers(1, 40),
    eps_r=st.floats(0.0, 1.0, exclude_min=True),
    kind=st.sampled_from(["uniform", "collinear", "grid"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, m=1, k=1, eps_r=1.0, kind="uniform", seed=0)
@example(n=14, m=30, k=10, eps_r=0.3, kind="uniform", seed=1)  # swapped pair
@example(n=40, m=40, k=40, eps_r=1.0, kind="grid", seed=2)  # repeated points
@example(n=30, m=25, k=25, eps_r=0.05, kind="collinear", seed=3)
def test_pivots_replay_against_dense_residual(n, m, k, eps_r, kind, seed):
    """Every pivot of both drivers, `aca_gp` in every circle mode, holds
    its value and its selector's rule on the dense residual."""
    k = min(k, n, m)
    rng = np.random.default_rng(seed)
    x = property_cloud(kind, n, rng, (0.0, 0.0))
    y = property_cloud(kind, m, rng, (2.0, 1.0))
    a = KernelHandle().assemble_dense(x, y)
    stop = StoppingParams(epsilon=1e-30, k_max=k)
    assert_trace_replays(x, y, a, aca(x, y, KernelHandle(), stop, rng), k)
    for mode in CircleHeuristics:
        opts = GpOptions(epsilon_r=eps_r, use_circle_heuristics=mode)
        skel = aca_gp(x, y, KernelHandle(), stop, opts, rng=rng)
        assert_trace_replays(x, y, a, skel, k, eps_r)


FIRST_CROSS_SHAPES = [(12, 12), (9, 14), (14, 9)]


@pytest.mark.parametrize("n, m", FIRST_CROSS_SHAPES)
def test_zero_matrix_ends_both_drivers_at_rank_zero(n, m):
    """On an all-zero matrix `aca` tries every row and `aca_gp` stops
    after the first pivot's row, on the smaller cloud's side."""
    x, y, rng = pair(n + m, n=n, m=m, dist=2.0)
    stop = StoppingParams(epsilon=1e-30, k_max=5)
    kernel = _MatrixKernel(x, y, np.zeros((n, m)))
    assert aca(x, y, kernel, stop, rng).rank == 0
    assert kernel.eval_count == n * m
    kernel = _MatrixKernel(x, y, np.zeros((n, m)))
    skel = aca_gp(x, y, kernel, stop, rng=rng)
    assert skel.rank == 0
    assert kernel.eval_count == min(n, m)
    assert skel.central_row_count == skel.central_col_count == 0


@pytest.mark.parametrize("n, m", FIRST_CROSS_SHAPES)
def test_zero_first_pivot_line_ends_only_acagp(n, m):
    """A matrix that vanishes on the first pivot's line (row i1, or column
    j1 when the driver runs on the swapped pair) ends `aca_gp` at rank 0,
    while `aca` skips that row if it meets it and reaches k_max."""
    x, y, rng = pair(n + m, n=n, m=m, dist=2.0)
    a = KernelHandle().assemble_dense(x, y)
    i1, j1 = first_pivot(x, y)
    if n < m:
        a[:, j1] = 0.0
    else:
        a[i1] = 0.0
    stop = StoppingParams(epsilon=1e-30, k_max=5)
    assert aca_gp(x, y, _MatrixKernel(x, y, a), stop, rng=rng).rank == 0
    assert aca(x, y, _MatrixKernel(x, y, a), stop, rng).rank == 5


@pytest.mark.parametrize("n, m", FIRST_CROSS_SHAPES)
def test_acagp_rank_one_run_forms_no_central_subset(n, m, monkeypatch):
    calls = []
    subset = acagp.central_subset
    monkeypatch.setattr(
        acagp, "central_subset", lambda *args: calls.append(args) or subset(*args)
    )
    x, y, rng = pair(n + m, n=n, m=m, dist=2.0)
    stop = StoppingParams(epsilon=1e-30, k_max=1)
    assert aca_gp(x, y, KernelHandle(), stop, rng=rng).rank == 1
    assert calls == []
    aca_gp(x, y, KernelHandle(), StoppingParams(epsilon=1e-30, k_max=2), rng=rng)
    assert len(calls) == 2


def degenerate_cloud(kind, size, scale, rng, shift):
    """`size` points of the unit square, moved onto the line y = x / 2
    ("collinear") or drawn as a quarter as many points each repeated
    ("duplicated"), shifted and then scaled by `scale`."""
    pts = rng.uniform(-0.5, 0.5, size=(size, 2))
    if kind == "collinear":
        pts[:, 1] = 0.5 * pts[:, 0]
    elif kind == "duplicated":
        pts = pts[np.arange(size) % max(1, size // 4)]
    return PointCloud(scale * (pts + shift))


def assert_budget(skel, kernel, n, m, k, pools=None):
    """The evaluation budget of `aca` (pools None) or of `aca_gp`."""
    counts = skel.rank_eval_counts
    if pools is None:
        steps = np.diff((0,) + counts) - (n + m)
        assert np.all(steps >= 0) and np.all(steps % m == 0)
        if skel.rank == k:
            assert kernel.eval_count == counts[-1]
        else:
            assert kernel.eval_count == n * m + skel.rank * n
    else:
        bounds = [r * (n + m) + r * pools + n + m for r in range(1, skel.rank + 1)]
        assert all(c <= b for c, b in zip(counts, bounds))
        assert kernel.eval_count <= bounds[-1]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 24),
    m=st.integers(1, 24),
    data=st.data(),
    kind=st.sampled_from(["collinear", "duplicated"]),
    scale=st.sampled_from([1e-8, 1.0, 1e8]),
    eps_r=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_drivers_on_degenerate_clouds(n, m, data, kind, scale, eps_r, seed):
    """Single points, collinear or repeated points at scales 1e-8 to 1e8:
    both drivers, `aca_gp` in every circle mode, keep the rank within
    min(n, m), pivots distinct, A - U V^T at most 1e-8 * max|a| on every
    pivot row and column, and their evaluation budgets."""
    k = data.draw(st.integers(1, min(n, m)), label="k_max")
    rng = np.random.default_rng(seed)
    x = degenerate_cloud(kind, n, scale, rng, (0.0, 0.0))
    y = degenerate_cloud(kind, m, scale, rng, (2.0, 1.0))
    a = KernelHandle().assemble_dense(x, y)
    stop = StoppingParams(epsilon=1e-30, k_max=k)
    kernel = KernelHandle()
    runs = [(aca(x, y, kernel, stop, rng), kernel, None)]
    for mode in CircleHeuristics:
        kernel = KernelHandle()
        opts = GpOptions(epsilon_r=eps_r, use_circle_heuristics=mode)
        skel = aca_gp(x, y, kernel, stop, opts, rng=rng)
        runs.append((skel, kernel, skel.central_row_count + skel.central_col_count))
    for skel, kernel, pools in runs:
        assert 1 <= skel.rank <= min(n, m, k)
        assert len(set(skel.pivot_rows)) == len(set(skel.pivot_cols)) == skel.rank
        r = np.abs(a - dense(skel))
        tol = 1e-8 * np.abs(a).max()
        assert r[list(skel.pivot_rows)].max() <= tol
        assert r[:, list(skel.pivot_cols)].max() <= tol
        assert_budget(skel, kernel, n, m, k, pools)


def test_acagp_epsilon_stop():
    x, y, _ = pair(18, n=80, m=80, dist=5.0)
    skel = aca_gp(
        x, y, KernelHandle(), StoppingParams(epsilon=1e-4, k_max=40),
        rng=np.random.default_rng(18),
    )
    assert skel.rank < 40
    assert skel.residual_norm <= 1e-4 * skel.approx_norm


# (seed, n, m, circle mode) -> pivot rows, pivot cols, selectors (F first,
# 2 circle2, 3 circle3, c central), kernel evaluations.  These pin pivot
# selection and residual arithmetic exactly: a refactor must reproduce them,
# and only a deliberate change of the method may update them.
PINNED_RUNS = {
    (0, 120, 120, "auto"): (
        [40, 102, 103, 81, 14, 64, 50, 70, 78, 19, 28, 86],
        [65, 112, 56, 13, 1, 46, 103, 38, 69, 51, 75, 97],
        "F23ccccccccc", 4919,
    ),
    (0, 120, 120, "on"): (
        [40, 102, 103, 81, 14, 64, 50, 70, 78, 19, 28, 86],
        [65, 112, 56, 13, 1, 46, 103, 38, 69, 51, 75, 97],
        "F23ccccccccc", 4919,
    ),
    (0, 120, 120, "off"): (
        [40, 81, 110, 6, 4, 14, 70, 34, 54, 13, 104, 17],
        [65, 13, 69, 5, 46, 38, 99, 1, 103, 2, 85, 74],
        "Fccccccccccc", 5388,
    ),
    (1, 120, 120, "auto"): (
        [52, 57, 75, 88, 41, 80, 11, 33, 26, 76, 8, 85],
        [100, 48, 39, 119, 30, 93, 12, 37, 108, 101, 105, 11],
        "F23ccccccccc", 4922,
    ),
    (1, 120, 120, "on"): (
        [52, 57, 75, 88, 41, 80, 11, 33, 26, 76, 8, 85],
        [100, 48, 39, 119, 30, 93, 12, 37, 108, 101, 105, 11],
        "F23ccccccccc", 4922,
    ),
    (1, 120, 120, "off"): (
        [52, 80, 41, 76, 33, 8, 5, 88, 26, 49, 104, 71],
        [100, 119, 75, 30, 34, 105, 66, 108, 54, 43, 37, 101],
        "Fccccccccccc", 5388,
    ),
    (2, 120, 120, "auto"): (
        [118, 99, 37, 115, 32, 72, 2, 105, 114, 95, 67, 79],
        [113, 75, 41, 70, 82, 111, 43, 90, 58, 62, 59, 74],
        "F23ccccccccc", 4922,
    ),
    (2, 120, 120, "on"): (
        [118, 99, 37, 115, 32, 72, 2, 105, 114, 95, 67, 79],
        [113, 75, 41, 70, 82, 111, 43, 90, 58, 62, 59, 74],
        "F23ccccccccc", 4922,
    ),
    (2, 120, 120, "off"): (
        [118, 72, 67, 79, 115, 69, 95, 32, 114, 85, 20, 82],
        [113, 74, 111, 70, 112, 82, 93, 41, 90, 117, 62, 59],
        "Fccccccccccc", 5388,
    ),
    # len(y) > len(x): solved on the swapped pair and transposed back.
    (3, 80, 120, "auto"): (
        [61, 9, 70, 31, 60, 10, 40, 75, 68, 38, 28, 22],
        [28, 97, 67, 78, 83, 112, 34, 15, 52, 106, 23, 10],
        "F23ccccccccc", 4079,
    ),
}
SELECTOR_CODES = {"F": "first", "2": "circle2", "3": "circle3", "c": "central"}


@pytest.mark.parametrize("case", sorted(PINNED_RUNS), ids=str)
def test_acagp_pinned_pivots_and_eval_counts(case):
    seed, n, m, mode = case
    rows, cols, codes, evals = PINNED_RUNS[case]
    x, y, _ = pair(seed, n=n, m=m)
    kernel = KernelHandle()
    skel = aca_gp(
        x, y, kernel, StoppingParams(epsilon=1e-30, k_max=12),
        GpOptions(use_circle_heuristics=CircleHeuristics(mode)),
        rng=np.random.default_rng(seed),
    )
    assert list(skel.pivot_rows) == rows
    assert list(skel.pivot_cols) == cols
    assert [r.selector for r in skel.pivot_trace] == [SELECTOR_CODES[c] for c in codes]
    assert kernel.eval_count == evals


def test_acagp_dominates_classical_at_reference_scale():
    """100-seed paired benchmark on 400-point square clouds at distance
    1.5 with fraction 0.25: the geometry-aided per-rank log-mean error
    stays at or below the classical one at every rank 1..10."""
    from acakit.experiments import ExperimentConfig, run_benchmark

    cfg = ExperimentConfig(
        n=400, m=400, target_dist=1.5, realizations=100, k_max=10,
        epsilon_r=0.25, base_seed=42,
    )
    for st in run_benchmark(cfg):
        assert st.e_log_mean["acagp"] <= st.e_log_mean["aca"]

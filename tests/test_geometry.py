import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import acakit.geometry
from acakit.geometry import (
    Circle,
    DegenerateGeometryError,
    PointCloud,
    _circle_distances,
    _cloud_gap,
    _distinct_count,
    _distances_to,
    _hull,
    _squared_distances,
    circumcircle,
    cloud_from_json,
    cloud_to_json,
    conjugate_circle,
    generate_cloud,
    is_admissible,
    place_clouds,
)
from acakit.kernel import SINGULAR_DISTANCE, _check_separated

SQRT2 = math.sqrt(2.0)


def corner_square(cx=0.0, cy=0.0):
    """Four unit-square corners around (cx, cy)."""
    return PointCloud(
        np.array(
            [
                [cx - 0.5, cy - 0.5],
                [cx + 0.5, cy - 0.5],
                [cx - 0.5, cy + 0.5],
                [cx + 0.5, cy + 0.5],
            ]
        )
    )


# --- primitives ---------------------------------------------------------

def test_point2_rejects_non_finite():
    """A circle centre must be a finite 2-D point."""
    with pytest.raises(ValueError):
        Circle((math.nan, 0.0), 1.0)
    with pytest.raises(ValueError):
        Circle((0.0, math.inf), 1.0)
    with pytest.raises(ValueError):
        Circle((0.0, 0.0, 0.0), 1.0)


def test_point2_array_round_trip():
    """A circle centre is a read-only copy of the 2-D point passed in."""
    source = np.array([1.5, -2.0])
    c = Circle(source, 1.0)
    source[0] = 7.0
    assert np.array_equal(c.center, [1.5, -2.0])
    with pytest.raises(ValueError):
        c.center[0] = 0.0


def test_circle_requires_positive_radius():
    with pytest.raises(ValueError):
        Circle((0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        Circle((0.0, 0.0), -1.0)


def test_admissibility_params_alpha():
    """eta sets alpha = eta / (1 + eta).  Clouds of diameter sqrt(2) whose
    barycenters are s sqrt(2) apart pass from s = 2 with alpha 1/2 (eta = 1,
    the default) and from s = 4/3 with alpha 3/4 (eta = 3)."""
    x = PointCloud(np.array([[-0.5, -0.5], [0.5, 0.5]]))
    assert is_admissible(x, x.transformed(shift=(2.01, 2.01)))
    assert not is_admissible(x, x.transformed(shift=(1.99, 1.99)))
    near = x.transformed(shift=(1.34, 1.34))
    assert is_admissible(x, near, eta=3.0)
    assert not is_admissible(x, near)
    assert not is_admissible(x, x.transformed(shift=(1.32, 1.32)), eta=3.0)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            is_admissible(x, near, eta=bad)


def test_cloud_requires_n_by_2_finite():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, np.inf]]))
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, np.nan]]))


def test_cloud_coordinates_at_most_1e150():
    """Squared distances between such points stay finite."""
    assert PointCloud(np.array([[-1e150, 1e150], [1e150, -1e150]])).diameter > 0
    for far in (1.001e150, -1e160):
        with pytest.raises(ValueError, match="at most 1e\\+150"):
            PointCloud(np.array([[0.0, 0.0], [far, 1.0]]))


def test_cloud_points_are_read_only():
    cloud = corner_square()
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 9.0


# --- barycenter and diameters -------------------------------------------

def test_barycenter_two_points():
    c = PointCloud(np.array([[0.0, 0.0], [2.0, 0.0]])).barycenter
    assert tuple(c) == (1.0, 0.0)


def test_barycenter_single_point():
    c = PointCloud(np.array([[1.0, 1.0]])).barycenter
    assert tuple(c) == (1.0, 1.0)


def test_barycenter_uniform_square_near_center():
    rng = np.random.default_rng(42)
    cloud = PointCloud(rng.uniform(0.0, 1.0, size=(400, 2)))
    cx, cy = cloud.barycenter
    assert abs(cx - 0.5) < 0.05 and abs(cy - 0.5) < 0.05


def test_diameter_square_corners():
    assert corner_square().diameter == pytest.approx(SQRT2, abs=1e-15)


def test_diameter_degenerate_cases():
    assert PointCloud(np.array([[0.0, 0.0]])).diameter == 0.0
    two = PointCloud(np.array([[0.0, 0.0], [4.0, 0.0]]))
    assert two.diameter == pytest.approx(4.0, abs=1e-15)


# --- distances and admissibility ----------------------------------------

def cloud_distance(p, q):
    """The true distance dist(X, Y) of two point sets: `_cloud_gap` with its
    default bounds, started from p's first point."""
    return _cloud_gap(p, q, 0)[0]


def test_true_distance_examples():
    x = np.array([[0.0, 0.0]])
    y = np.array([[3.0, 4.0]])
    assert cloud_distance(x, y) == pytest.approx(5.0, abs=1e-15)
    shared = np.array([[3.0, 4.0], [9.0, 9.0]])
    assert cloud_distance(y, shared) == 0.0


def test_true_distance_corner_squares():
    # Closest corners are (0.5, +-0.5) and (2.5, +-0.5).
    gap = cloud_distance(corner_square(0.0).points, corner_square(3.0).points)
    assert gap == pytest.approx(2.0, abs=1e-15)


COORDS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    points=st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=12),
    p=st.tuples(COORDS, COORDS),
    scale=st.sampled_from([1e-8, 1.0, 1e8]),
)
def test_distances_to_equal_axis_norm_bitwise(points, p, scale):
    pts = scale * np.array(points)
    p = scale * np.array(p)
    d = _distances_to(pts, p)
    assert np.array_equal(d, np.linalg.norm(pts - p, axis=1))
    assert np.array_equal(d, np.sqrt(_squared_distances(pts, p[None, :])[:, 0]))


def test_admissible_corner_squares():
    # min diameter sqrt(2) <= 0.5 * gap 3.
    assert is_admissible(corner_square(0.0), corner_square(3.0))


def test_admissible_rejects_identical_clouds():
    cloud = corner_square()
    assert not is_admissible(cloud, cloud)


def test_admissible_single_points_any_eta():
    x = PointCloud(np.array([[0.0, 0.0]]))
    y = PointCloud(np.array([[0.1, 0.0]]))
    assert is_admissible(x, y, eta=0.01)


# --- circles -------------------------------------------------------------

def test_circumcircle_right_triangle():
    c = circumcircle((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    assert tuple(c.center) == pytest.approx((0.5, 0.5), abs=1e-14)
    assert c.radius == pytest.approx(SQRT2 / 2.0, abs=1e-14)


def test_circumcircle_isoceles():
    c = circumcircle((0.0, 0.0), (2.0, 0.0), (1.0, 1.0))
    assert tuple(c.center) == pytest.approx((1.0, 0.0), abs=1e-14)
    assert c.radius == pytest.approx(1.0, abs=1e-14)


def test_circumcircle_collinear_raises():
    with pytest.raises(DegenerateGeometryError):
        circumcircle((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
    with pytest.raises(DegenerateGeometryError):
        circumcircle((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))


def test_circumcircle_equidistant_from_inputs():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pts = rng.uniform(-1.0, 1.0, size=(3, 2))
        try:
            c = circumcircle(pts[0], pts[1], pts[2])
        except DegenerateGeometryError:
            continue
        assert np.all(_circle_distances(pts, c) < 1e-10)


def test_conjugate_circle_example():
    c2 = Circle((0.5, 0.5), SQRT2 / 2.0)
    conj = conjugate_circle(c2, (0.0, 0.0), (3.0, 0.0))
    assert tuple(conj.center) == pytest.approx((0.5, -0.5), abs=1e-14)
    assert conj.radius == pytest.approx(SQRT2 / 2.0, abs=1e-14)
    # Radii at the shared anchor are orthogonal.
    r1 = np.array([0.0, 0.0]) - c2.center
    r2 = np.array([0.0, 0.0]) - conj.center
    assert abs(r1 @ r2) < 1e-14


def test_conjugate_circle_flips_with_direction():
    c2 = Circle((0.5, 0.5), SQRT2 / 2.0)
    conj = conjugate_circle(c2, (0.0, 0.0), (-3.0, 0.0))
    assert tuple(conj.center) == pytest.approx((-0.5, 0.5), abs=1e-14)


def test_conjugate_circle_contains_anchor():
    rng = np.random.default_rng(11)
    for _ in range(25):
        center = rng.uniform(-1.0, 1.0, size=2)
        radius = rng.uniform(0.1, 2.0)
        angle = rng.uniform(-math.pi, math.pi)
        anchor = center + radius * np.array([math.cos(angle), math.sin(angle)])
        direction = rng.uniform(-1.0, 1.0, size=2)
        if np.linalg.norm(direction) == 0.0:
            continue
        conj = conjugate_circle(Circle(center, radius), anchor, direction)
        assert _circle_distances(anchor[None, :], conj)[0] < 1e-10
        assert conj.radius == pytest.approx(radius, abs=1e-12)


def test_conjugate_circle_rejects_bad_inputs():
    c2 = Circle((0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        conjugate_circle(c2, (5.0, 0.0), (1.0, 0.0))  # anchor off the circle
    with pytest.raises(ValueError):
        conjugate_circle(c2, (1.0, 0.0), (0.0, 0.0))  # zero direction


def test_point_circle_distance_examples():
    c = Circle((0.0, 0.0), 1.0)
    d = _circle_distances(np.array([[1.0, 0.0], [0.0, 0.0], [3.0, 0.0]]), c)
    assert d[0] == 0.0
    assert d[1] == 1.0
    assert d[2] == pytest.approx(2.0, abs=1e-15)


# --- oriented bounding rectangle -----------------------------------------

def test_aspect_ratio_square():
    assert corner_square().aspect_ratio == pytest.approx(1.0, abs=1e-12)


def test_aspect_ratio_two_to_one_rectangle():
    cloud = PointCloud(
        np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
    )
    assert cloud.aspect_ratio == pytest.approx(0.5, abs=1e-12)


def test_aspect_ratio_rotation_invariant():
    cloud = PointCloud(
        np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
    )
    rotated = cloud.transformed(theta=0.7)
    assert rotated.aspect_ratio == pytest.approx(0.5, abs=1e-9)


def test_aspect_ratio_degenerate_clouds():
    assert PointCloud(np.array([[2.0, 3.0]])).aspect_ratio == 1.0
    collinear = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    assert collinear.aspect_ratio == 0.0


def test_aspect_ratio_degenerate_hulls():
    """Fewer than three distinct or non-collinear points give 0.0."""
    two = PointCloud(np.array([[0.0, 0.0], [1.0, 2.0]]))
    duplicates = PointCloud(np.tile([0.3, -0.7], (6, 1)))
    t = np.array([0.0, 0.5, 0.5, 2.0, 1.0, 2.0, 0.0])
    collinear = PointCloud(np.column_stack([3.0 + t, 1.0 + 2.0 * t]))
    for cloud in (two, duplicates, collinear):
        assert len(_hull(cloud.points)) < 3
        assert cloud.aspect_ratio == 0.0


@pytest.mark.parametrize("scale", [1e-8, 1e8])
def test_aspect_ratio_scale_invariant(scale):
    for seed in range(10):
        cloud = generate_cloud(0.5, 1.0, 200, np.random.default_rng(seed))
        cloud = cloud.transformed(theta=float(seed))
        scaled = PointCloud(scale * cloud.points)
        assert scaled.aspect_ratio == pytest.approx(cloud.aspect_ratio, rel=1e-9)


@pytest.mark.parametrize("shape", ["square", "rotated", "thin", "normal"])
def test_hull_vertices_match_qhull(shape):
    """The same vertex set as Qhull, counter-clockwise.  Qhull's start
    vertex is its own, so only sets are compared."""
    spatial = pytest.importorskip("scipy.spatial")
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 2000))
        if shape == "normal":
            pts = rng.normal(size=(n, 2))
        else:
            width = {"square": 1.0, "rotated": 0.3, "thin": 1e-3}[shape]
            cloud = generate_cloud(width, 1.0, n, rng)
            if shape != "square":
                cloud = cloud.transformed(theta=float(rng.uniform(-math.pi, math.pi)))
            pts = cloud.points
        hull = _hull(pts)
        reference = pts[spatial.ConvexHull(pts).vertices]
        assert set(map(tuple, hull.tolist())) == set(map(tuple, reference.tolist()))
        edges = np.roll(hull, -1, axis=0) - hull
        assert np.all(edges[:, 0] * np.roll(edges[:, 1], -1)
                      - edges[:, 1] * np.roll(edges[:, 0], -1) > 0.0)


# --- random clouds --------------------------------------------------------

def test_generate_cloud_single_point_inside_rectangle():
    cloud = generate_cloud(2.0, 1.0, 1, np.random.default_rng(0))
    (p,) = cloud.points
    assert -1.0 <= p[0] <= 1.0 and -0.5 <= p[1] <= 0.5


def test_generate_cloud_deterministic():
    a = generate_cloud(1.0, 1.0, 50, np.random.default_rng(5))
    b = generate_cloud(1.0, 1.0, 50, np.random.default_rng(5))
    assert np.array_equal(a.points, b.points)


def test_generate_cloud_mean_near_origin():
    cloud = generate_cloud(1.0, 1.0, 10_000, np.random.default_rng(1))
    assert np.all(np.abs(cloud.points.mean(axis=0)) < 0.02)


def test_generate_cloud_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate_cloud(1.0, 1.0, 0, rng)
    with pytest.raises(ValueError):
        generate_cloud(0.0, 1.0, 5, rng)


def test_place_clouds_hits_target_distance():
    for seed, dist in [(0, 1.5), (1, 2.5), (2, 5.0), (3, 1.5)]:
        x, y, _ = place_clouds(1.0, 80, 60, dist, np.random.default_rng(seed))
        assert abs(cloud_distance(x.points, y.points) - dist) <= 1e-3
        assert len(x) == 80 and len(y) == 60


def test_place_clouds_deterministic():
    x1, y1, t1 = place_clouds(0.5, 40, 40, 2.0, np.random.default_rng(9))
    x2, y2, t2 = place_clouds(0.5, 40, 40, 2.0, np.random.default_rng(9))
    assert np.array_equal(x1.points, x2.points)
    assert np.array_equal(y1.points, y2.points)
    assert t1 == t2


def dense_gap(p, q):
    """Smallest distance of a dense cdist scan over all pairs."""
    return float(cdist(p, q).min())


def brute_force_place_clouds(xi, n, m, target_dist, rng, gap=dense_gap):
    """Reference placement: the same draws and bisection, with every step
    taking the distance `gap(moved X points, Y points)`, by default a dense
    cdist scan over all n x m pairs.

    Returns (X points, Y points, theta, retried), where `retried` says the
    bracket was restarted from zero displacement.
    """
    y = generate_cloud(xi, 1.0, m, rng)
    x0 = generate_cloud(xi, 1.0, n, rng)
    theta = float(rng.uniform(-math.pi, math.pi))
    x0 = x0.transformed(theta=theta)
    phi = float(rng.uniform(-math.pi, math.pi))
    direction = np.array([math.cos(phi), math.sin(phi)])

    def dist_at(t):
        moved = x0.points + t * direction
        return gap(moved, y.points), moved

    lo = target_dist
    hi = target_dist + x0.diameter + y.diameter + 1.0
    d_lo, best = dist_at(lo)
    retried = d_lo > target_dist
    if retried:
        lo = 0.0
        d_lo, best = dist_at(lo)
        if d_lo > target_dist:
            raise ValueError("target distance unreachable for these clouds")
    if abs(d_lo - target_dist) <= 1e-3:
        return best, y.points, theta, retried
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        d_mid, best = dist_at(mid)
        if abs(d_mid - target_dist) <= 1e-3:
            break
        if d_mid < target_dist:
            lo = mid
        else:
            hi = mid
    return best, y.points, theta, retried


@pytest.mark.parametrize("n,m", [(1, 1), (2, 5), (80, 60), (200, 200), (300, 50)])
def test_place_clouds_matches_brute_force(n, m):
    for seed in range(30):
        for xi in (0.1, 1.0):
            for dist in (1.5, 5.0):
                x, y, theta = place_clouds(xi, n, m, dist, np.random.default_rng(seed))
                rx, ry, rtheta, _ = brute_force_place_clouds(
                    xi, n, m, dist, np.random.default_rng(seed)
                )
                assert np.array_equal(x.points, rx), (seed, xi, dist)
                assert np.array_equal(y.points, ry), (seed, xi, dist)
                assert theta == rtheta


@pytest.mark.parametrize("n", [2, 80, 200])
def test_place_clouds_matches_brute_force_at_rounding_scales(n):
    """Targets where the placement bounds' rounding margin is near the
    1e-3 tolerance (1e6) or far beyond it (1e12), and a target below the
    clouds' spacing (0.05)."""
    for seed in range(10):
        for xi in (0.1, 1.0):
            for dist in (0.05, 1e6, 1e12):
                try:
                    rx, ry, rtheta, _ = brute_force_place_clouds(
                        xi, n, n, dist, np.random.default_rng(seed)
                    )
                except ValueError:
                    with pytest.raises(ValueError, match="unreachable"):
                        place_clouds(xi, n, n, dist, np.random.default_rng(seed))
                    continue
                x, y, theta = place_clouds(xi, n, n, dist, np.random.default_rng(seed))
                assert np.array_equal(x.points, rx), (seed, xi, dist)
                assert np.array_equal(y.points, ry), (seed, xi, dist)
                assert theta == rtheta


def test_place_clouds_settles_most_steps_without_the_exact_gap(monkeypatch):
    """Over the 100 pinned placements (n = m = 200, dist 1.5, seeds 42 to
    141) the bisection takes 10.9 steps on average; bounds from a witness
    pair and from the push direction settle all but a few."""
    real = acakit.geometry._cloud_gap
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(acakit.geometry, "_cloud_gap", counted)
    for seed in range(42, 142):
        place_clouds(1.0, 200, 200, 1.5, np.random.default_rng(seed))
    assert len(calls) <= 5 * 100


def test_place_clouds_starts_each_exact_gap_from_the_last_closest_pair(
    monkeypatch,
):
    """Within a placement, every exact gap after the first starts from the
    point of X in the closest pair that the previous one returned."""
    real = acakit.geometry._cloud_gap
    placements = []

    def recorded(p, q, start, *args):
        result = real(p, q, start, *args)
        placements[-1].append((start, result[1]))
        return result

    monkeypatch.setattr(acakit.geometry, "_cloud_gap", recorded)
    for seed in range(42, 62):
        placements.append([])
        place_clouds(1.0, 200, 200, 1.5, np.random.default_rng(seed))
    chained = 0
    for calls in placements:
        for (_, closest), (start, _) in zip(calls, calls[1:]):
            assert start == closest
            chained += 1
    assert chained >= 20


def test_true_distance_matches_cdist_min():
    rng = np.random.default_rng(11)
    for n, m in [(1, 1), (1, 40), (40, 1), (50, 70), (300, 200)]:
        x = rng.uniform(-1.0, 1.0, size=(n, 2))
        y = rng.uniform(0.5, 3.0, size=(m, 2))
        assert cloud_distance(x, y) == cdist(x, y).min()
    shared = rng.uniform(-1.0, 1.0, size=(30, 2))
    x = shared[:20]
    y = shared[15:]
    assert cloud_distance(x, y) == 0.0 == cdist(x, y).min()


def test_cloud_gap_returns_a_closest_pair_from_any_start():
    """Started from any point of p, the gap is still the dense minimum, and
    the pair returned with it lies at that distance."""
    rng = np.random.default_rng(14)
    for n, m in [(1, 1), (1, 40), (50, 70), (300, 200)]:
        x = rng.uniform(-1.0, 1.0, size=(n, 2))
        y = rng.uniform(0.5, 3.0, size=(m, 2))
        for start in (0, n // 2, n - 1):
            d, i, j = _cloud_gap(x, y, start)
            assert d == cdist(x, y).min()
            assert cdist(x[i : i + 1], y[j : j + 1])[0, 0] == d


def test_true_distance_coincident_cross_point():
    rng = np.random.default_rng(12)
    x = rng.uniform(-1.0, 0.0, size=(40, 2))
    y = np.vstack([rng.uniform(2.0, 3.0, size=(40, 2)), x[17]])
    assert cloud_distance(x, y) == 0.0


@pytest.mark.parametrize("scale", [1e-8, 1e8])
def test_true_distance_extreme_scales_match_cdist(scale):
    rng = np.random.default_rng(13)
    for n, m in [(1, 30), (60, 80), (300, 200)]:
        x = scale * rng.uniform(-1.0, 1.0, size=(n, 2))
        y = scale * rng.uniform(0.5, 3.0, size=(m, 2))
        assert cloud_distance(x, y) == cdist(x, y).min()


def record_gap_queries(monkeypatch):
    """Route `place_clouds`' distance queries through a recorder; returns
    the list of (moved X points, Y points, result)."""
    real = acakit.geometry._cloud_gap
    queries = []

    def recorded(p, q, *args):
        result = real(p, q, *args)
        queries.append((p, q, result[0]))
        return result

    monkeypatch.setattr(acakit.geometry, "_cloud_gap", recorded)
    return queries


@pytest.mark.parametrize(
    "xi,target", [(1.0, 1.5), (0.3, 2.5), (0.1, 1.5), (1.0, 0.5), (0.3, 0.5)]
)
def test_cloud_gap_makes_kd_tree_bisection_decisions(xi, target, monkeypatch):
    """At n = 2000, where a dense reference is slow, every step that takes
    the exact gap reads the same decision from it as from a k-d tree query:
    within 1e-3 of the target or not, and on which side.  The steps that
    the O(1) bounds settle never reach the gap; they are checked through
    the result, which equals a bisection whose every step is a k-d tree
    query.  Target 0.5 starts from overlapping clouds."""
    spatial = pytest.importorskip("scipy.spatial")

    def kd_tree_gap(p, q):
        return float(spatial.cKDTree(q).query(p)[0].min())

    def decision(d):
        return abs(d - target) <= 1e-3, d < target

    queries = record_gap_queries(monkeypatch)
    for seed in range(14):
        x, y, theta = place_clouds(xi, 2000, 2000, target, np.random.default_rng(seed))
        rx, ry, rtheta, _ = brute_force_place_clouds(
            xi, 2000, 2000, target, np.random.default_rng(seed), gap=kd_tree_gap
        )
        assert np.array_equal(x.points, rx), seed
        assert np.array_equal(y.points, ry), seed
        assert theta == rtheta

    assert len(queries) >= 30
    for p, q, d in queries:
        exact = kd_tree_gap(p, q)
        assert decision(d) == decision(exact)
        assert d >= exact


@pytest.mark.parametrize("xi", [0.3, 1.0])
def test_cloud_gap_scans_few_pairs_from_overlapping_starts(xi, monkeypatch):
    """Clouds that start overlapped (target 0.5) still scan under 1 % of
    the n x m pairs per placement step at n = m = 10000."""
    real = acakit.geometry._squared_distances
    scanned = []

    def counted(p, q):
        scanned[-1] += len(p) * len(q)
        return real(p, q)

    real_gap = acakit.geometry._cloud_gap

    def gap(*args, **kwargs):
        scanned.append(0)
        return real_gap(*args, **kwargs)

    monkeypatch.setattr(acakit.geometry, "_squared_distances", counted)
    monkeypatch.setattr(acakit.geometry, "_cloud_gap", gap)
    for seed in range(6):
        place_clouds(xi, 10_000, 10_000, 0.5, np.random.default_rng(seed))
    assert len(scanned) >= 20
    assert max(scanned) < 10_000 * 10_000 // 100


def test_place_clouds_retries_from_zero_displacement():
    # Seed 4: the single point of X already sits beyond 0.5 from Y when
    # pushed by the nominal bracket 0.5, but not at zero displacement.
    x, y, theta = place_clouds(1.0, 1, 1, 0.5, np.random.default_rng(4))
    rx, ry, rtheta, retried = brute_force_place_clouds(
        1.0, 1, 1, 0.5, np.random.default_rng(4)
    )
    assert retried
    assert np.array_equal(x.points, rx) and np.array_equal(y.points, ry)
    assert theta == rtheta
    assert abs(cloud_distance(x.points, y.points) - 0.5) <= 1e-3


def test_place_clouds_unreachable_target():
    # Seed 0: the two single points are 0.65 apart before any push and
    # further apart after the nominal one, so 0.5 cannot be reached.
    with pytest.raises(ValueError, match="target distance unreachable"):
        place_clouds(1.0, 1, 1, 0.5, np.random.default_rng(0))
    with pytest.raises(ValueError, match="target distance unreachable"):
        brute_force_place_clouds(1.0, 1, 1, 0.5, np.random.default_rng(0))


@pytest.mark.parametrize(
    "n, merging, keeping", [(200, 1e14, 1e13), (50, 1e15, 1e14), (5, 1e100, 1e15)]
)
def test_place_clouds_refuses_to_merge_points(n, merging, keeping):
    """A push so long that distinct points of X round to one point would
    approximate another matrix; seed 0 at n = 50 and dist 1e15 kept only
    39 of 50 points."""
    with pytest.raises(ValueError, match="merges distinct points of X"):
        place_clouds(1.0, n, n, merging, np.random.default_rng(0))
    x, _, _ = place_clouds(1.0, n, n, keeping, np.random.default_rng(0))
    assert _distinct_count(x.points) == n


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    points=st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=1, max_size=20
    ),
    scale=st.sampled_from([1e-8, 1.0, 1e8]),
)
def test_distinct_count_matches_unique(points, scale):
    pts = scale * np.array(points, dtype=float)
    assert _distinct_count(pts) == len(np.unique(pts, axis=0))


COORDINATES = st.one_of(st.integers(-2, 2).map(float), st.floats(-2.0, 2.0))
CLOUD_POINTS = st.lists(st.tuples(COORDINATES, COORDINATES), min_size=1, max_size=12)
# Points of Y placed 0.5e-14 to 2e-14 from a point of X: (X index, distance,
# angle).
PLANTED = st.lists(
    st.tuples(st.integers(0, 11), st.floats(0.5e-14, 2e-14), st.floats(0.0, 6.3)),
    max_size=2,
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    xs=CLOUD_POINTS, ys=CLOUD_POINTS, scale=st.sampled_from([1e-3, 1.0, 1e6]),
    planted=PLANTED,
)
@example(xs=[(0.0, 0.0)], ys=[(0.0, 1.0), (0.0, -0.0)], scale=1.0, planted=[])
@example(xs=[(0.0, 0.0)], ys=[(2.0, 2.0)], scale=1.0, planted=[(0, 1e-14, 0.0)])
# An ulp apart in y, 1.1e-13 apart in their rounded projections.
@example(xs=[(1763.0, 19.0)], ys=[(1763.0, 19.000000000000004)], scale=1.0, planted=[])
def test_check_separated_matches_dense_scan(xs, ys, scale, planted):
    """Refused exactly when some X-Y pair is closer than 1e-14 as a dense
    scan measures it (-0.0 == 0.0), naming one such pair; points repeated
    within a cloud are allowed.  Lattice and axis-aligned points come from
    the integer coordinates."""
    x = scale * np.array(xs, float)
    y = [scale * np.array(p, float) for p in ys]
    for k, r, angle in planted:
        y.append(x[k % len(x)] + r * np.array([math.cos(angle), math.sin(angle)]))
    x, y = PointCloud(x), PointCloud(np.array(y))
    if np.sqrt(_squared_distances(x.points, y.points)).min() >= SINGULAR_DISTANCE:
        _check_separated(x, y)
        return
    message = r"^X\[\d+\] and Y\[\d+\] are closer than 1e-14$"
    with pytest.raises(ValueError, match=message) as err:
        _check_separated(x, y)
    i, j = map(int, re.findall(r"\d+(?=\])", str(err.value)))
    assert np.sqrt(_squared_distances(x.points[[i]], y.points[[j]])) < SINGULAR_DISTANCE


def test_check_separated_large_clouds():
    """n = m = 10^4 on the common line x = 0, then on two interleaved
    integer lattices, each first without and then with one pair 9.2e-15
    apart.  Both sort to O(n) window pairs, where a window on the x axis
    would hold all 10^8 pairs of the line."""
    k = np.arange(10_000.0)
    grid = np.indices((142, 142)).reshape(2, -1).T.astype(float)
    odd = grid.sum(axis=1) % 2 == 1
    line = (np.c_[0.0 * k, k], np.c_[0.0 * k, k + 0.5])
    for x, y in (line, (grid[~odd][:10_000], grid[odd][:10_000])):
        _check_separated(PointCloud(x), PointCloud(y))
        y[1234] = x[777] + (6e-15, -7e-15)
        with pytest.raises(ValueError, match=r"^X\[777\] and Y\[1234\] are closer"):
            _check_separated(PointCloud(x), PointCloud(y))


def test_place_clouds_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        place_clouds(0.0, 10, 10, 1.0, rng)
    with pytest.raises(ValueError):
        place_clouds(1.5, 10, 10, 1.0, rng)
    with pytest.raises(ValueError):
        place_clouds(1.0, 10, 10, -1.0, rng)
    for bad in (math.nan, math.inf, 1.01e150):
        with pytest.raises(ValueError, match="target_dist must be finite"):
            place_clouds(1.0, 10, 10, bad, rng)


def test_transformed_preserves_pairwise_distances():
    cloud = generate_cloud(1.0, 1.0, 30, np.random.default_rng(6))
    moved = cloud.transformed(theta=1.1, shift=(3.0, -2.0))
    d0 = np.linalg.norm(cloud.points[:, None] - cloud.points[None], axis=2)
    d1 = np.linalg.norm(moved.points[:, None] - moved.points[None], axis=2)
    np.testing.assert_allclose(d1, d0, atol=1e-12)


# --- JSON ------------------------------------------------------------------

def test_cloud_json_round_trip_exact():
    cloud = generate_cloud(1.0, 1.0, 20, np.random.default_rng(8))
    back = cloud_from_json(cloud_to_json(cloud))
    assert np.array_equal(back.points, cloud.points)


def test_cloud_from_json_rejects_bad_payloads():
    with pytest.raises(ValueError):
        cloud_from_json(json.dumps([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        cloud_from_json(json.dumps({"pts": [[0.0, 0.0]]}))
    with pytest.raises(json.JSONDecodeError):
        cloud_from_json("not json")

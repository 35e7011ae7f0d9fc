"""Planar point-cloud geometry: barycenters, diameters, cloud separation,
admissibility, circle constructions and randomized cloud placement.

All clouds live in R^2 and are stored as (n, 2) float arrays.  Diameters are
cheap linear estimates (twice the largest distance to the barycenter), never
convex-hull computations.  Cloud-to-cloud distances are exact minima over
the pairs that a cheap upper bound leaves possible, scanned in blocks of at
most GAP_BLOCK pairs, so no n x m array is ever allocated.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Circle",
    "DegenerateGeometryError",
    "PointCloud",
    "circumcircle",
    "cloud_from_json",
    "cloud_to_json",
    "conjugate_circle",
    "generate_cloud",
    "is_admissible",
    "place_clouds",
]


# Largest |coordinate| of a point cloud, and largest placement distance.
# Two such points are at most 2.9e150 apart, so squared distances (at most
# 8e300) and with them every kernel entry stay finite and nonzero.
MAX_COORDINATE = 1e150


class DegenerateGeometryError(ValueError):
    """A circle construction has no well-defined solution."""


@dataclass(frozen=True, eq=False)
class Circle:
    """Circle with a finite center and a strictly positive radius.

    The center is copied into a read-only (2,) float array.
    """

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        center = _as_xy(self.center).copy()
        if not np.all(np.isfinite(center)):
            raise ValueError("circle center must be finite")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError("circle radius must be finite and positive")
        center.setflags(write=False)
        object.__setattr__(self, "center", center)


def _cross2(u: np.ndarray, v: np.ndarray) -> float:
    """z-component of the 3-D cross product of two planar vectors."""
    return float(u[0] * v[1] - u[1] * v[0])


def _length(v: np.ndarray) -> float:
    """Euclidean length of a (2,) float array: the dot product and square
    root that `np.linalg.norm` takes for a 1-D array, so the same bits,
    without its Python-level dispatch."""
    return math.sqrt(float(v @ v))


def _as_xy(p) -> np.ndarray:
    """Coerce an array-like to a (2,) float array."""
    a = np.asarray(p, dtype=float)
    if a.shape != (2,):
        raise ValueError(f"expected a 2-D point, got shape {a.shape}")
    return a


# Turns an edge (dx, dy) into its normal (-dy, dx) when multiplied with the
# reversed edge.
_ACROSS = np.array([-1.0, 1.0])


@dataclass(frozen=True, eq=False)
class PointCloud:
    """An ordered, non-empty set of planar points.

    The barycenter (mean of the points) and the diameter estimate (twice
    the largest distance to the barycenter, at most twice the true
    diameter) are computed once at construction and cached, the aspect
    ratio once on first use; the coordinate array is frozen to keep the
    caches consistent.  Coordinates must be finite and at most
    MAX_COORDINATE in magnitude.
    """

    points: np.ndarray
    barycenter: np.ndarray = field(init=False)
    diameter: float = field(init=False)

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError("a point cloud is a non-empty (n, 2) array")
        if not np.abs(pts).max() <= MAX_COORDINATE:  # False for NaN
            raise ValueError(
                f"point coordinates must be finite and at most {MAX_COORDINATE:g}"
                " in magnitude"
            )
        pts.setflags(write=False)
        center, diam = _center_and_diameter(pts)
        center.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "barycenter", center)
        object.__setattr__(self, "diameter", diam)

    def __len__(self) -> int:
        return self.points.shape[0]

    @cached_property
    def aspect_ratio(self) -> float:
        """Aspect ratio (short side / long side) of the minimum-area oriented
        bounding rectangle of the cloud.

        1.0 means square-like, values near 0 mean elongated.  Degenerate
        clouds (fewer than three distinct points, or all collinear) give
        0.0; a single point gives 1.0.  One side of the optimal rectangle
        lies on a hull edge, so every edge is tried at once.
        """
        if len(self) == 1:
            return 1.0
        hull = _hull(self.points)
        if len(hull) < 3:
            return 0.0  # collinear: zero-width rectangle
        hull -= hull.sum(axis=0) / len(hull)
        edges = np.concatenate((hull[1:], hull[:1])) - hull
        # Extents along and across each edge, both scaled by its length.
        spans = np.concatenate((edges, edges[:, ::-1] * _ACROSS)) @ hull.T
        spans = spans.max(axis=1) - spans.min(axis=1)
        along, across = spans[: len(hull)], spans[len(hull) :]
        k = int((along * across / (edges * edges).sum(axis=1)).argmin())
        a, c = float(along[k]), float(across[k])
        return min(a, c) / max(a, c)

    def transformed(self, theta: float = 0.0, shift=(0.0, 0.0)) -> "PointCloud":
        """Rigidly move the cloud: rotate by theta about its barycenter,
        then translate by shift."""
        return PointCloud(_moved(self.points, self.barycenter, theta, shift))


def _center_and_diameter(points: np.ndarray) -> tuple[np.ndarray, float]:
    """A `PointCloud`'s barycenter and diameter estimate for its points."""
    center = points.mean(axis=0)
    return center, 2.0 * float(_distances_to(points, center).max())


def _moved(points: np.ndarray, center, theta: float, shift=(0.0, 0.0)) -> np.ndarray:
    """`PointCloud.transformed`'s points: rotated by theta about center,
    then translated by shift."""
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return (points - center) @ rot.T + center + np.asarray(shift, dtype=float)


# Pairs per block in the exact scan of `_cloud_gap`.
GAP_BLOCK = 1 << 16
# Most alternating nearest-point rounds behind `_cloud_gap`'s upper bound.
GAP_ROUNDS = 3


def _squared_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(len(p), len(q)) array of |p_i - q_j|^2, summed as dx*dx + dy*dy.

    That is the operation order of a dense Euclidean scan, so square roots
    of these entries match it bit for bit.
    """
    dx = np.subtract.outer(p[:, 0], q[:, 0])
    dy = np.subtract.outer(p[:, 1], q[:, 1])
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _squared_distances_to(points: np.ndarray, p) -> np.ndarray:
    """(len(points),) array of |points_i - p|^2, summed as dx*dx + dy*dy
    from the coordinate columns.

    A length-2 reduction adds x^2 + y^2 in that order, so square roots of
    these entries equal `np.linalg.norm(points - p, axis=1)` bit for bit,
    at half its time for 200 points and a seventh for 10000.
    """
    dx = points[:, 0] - p[0]
    dy = points[:, 1] - p[1]
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _distances_to(points: np.ndarray, p) -> np.ndarray:
    """(len(points),) array of |points_i - p|; see `_squared_distances_to`."""
    d = _squared_distances_to(points, p)
    return np.sqrt(d, out=d)


def _nearest(points: np.ndarray, p) -> tuple[int, float]:
    """Index of the point nearest to p, and its squared distance."""
    d = _squared_distances_to(points, p)
    k = int(d.argmin())
    return k, float(d[k])


def _cloud_gap(
    p: np.ndarray,
    q: np.ndarray,
    start: int,
    lower: float = 0.0,
    upper: float = math.inf,
) -> tuple[float, int, int]:
    """Distance of some pair (p[i], q[j]) of the point sets p (n, 2) and
    q (m, 2), returned as (distance, i, j).

    The distance is the smallest one, bitwise equal to the minimum of a
    dense scan, whenever that minimum lies in [lower, upper]; otherwise it
    lies on the same side of the interval as the minimum.

    An upper bound u and a direction w come from alternating nearest
    points, starting at p[start]: at most GAP_ROUNDS rounds, none after the
    pair repeats.  Started from the closest pair of a nearby query, a
    single round usually confirms it.  A pair closer than
    r = min(u, upper) is at most r apart along w, so only the points of
    both sets whose projections onto w lie in the overlap of the two sets'
    ranges, widened by r and a rounding margin, are scanned, in blocks of
    GAP_BLOCK pairs.  The bound costs O(n + m); the scan is small for
    separated clouds and O(nm) time at worst, when the slabs take in both
    clouds, with memory bounded by the block size.
    """
    i = start
    for _ in range(GAP_ROUNDS):
        prev = i
        j, _ = _nearest(q, p[i])
        i, best = _nearest(p, q[j])
        if i == prev:
            break
    u = math.sqrt(best)
    if u >= lower and u > 0.0:
        w = (q[j] - p[i]) / u
        r = min(u, upper)
        r += 1e-9 * (r + max(np.abs(p).max(), np.abs(q).max()))
        along_p, along_q = p @ w, q @ w
        lo = max(along_p.min(), along_q.min()) - r
        hi = min(along_p.max(), along_q.max()) + r
        rows_p = np.flatnonzero((along_p >= lo) & (along_p <= hi))
        cols_q = np.flatnonzero((along_q >= lo) & (along_q <= hi))
        if len(cols_q):
            slab_q = q[cols_q]
            step = max(1, GAP_BLOCK // len(cols_q))
            for first in range(0, len(rows_p), step):
                block = _squared_distances(p[rows_p[first : first + step]], slab_q)
                k = int(block.argmin())
                if block.flat[k] < best:
                    best = float(block.flat[k])
                    i = int(rows_p[first + k // len(cols_q)])
                    j = int(cols_q[k % len(cols_q)])
        u = math.sqrt(best)
    return u, i, j


def is_admissible(x: PointCloud, y: PointCloud, eta: float = 1.0) -> bool:
    """Separation test in reduced form:

        min(diam X, diam Y) <= alpha * |bary X - bary Y|,

    with alpha = eta/(1+eta), equivalent to the usual far-field criterion
    min(diam) <= eta * dist(X, Y) once dist is relaxed to the barycenter
    separation minus the smaller diameter.  eta must be finite and
    positive.
    """
    if not (math.isfinite(eta) and eta > 0.0):
        raise ValueError("eta must be finite and positive")
    gap = _length(x.barycenter - y.barycenter)
    return min(x.diameter, y.diameter) <= eta / (1.0 + eta) * gap


# --- circles -----------------------------------------------------------

def circumcircle(p1, p2, p3) -> Circle:
    """Circle through three points.

    Raises DegenerateGeometryError when the points are (nearly) collinear:
    twice the signed triangle area below 1e-10 times the squared largest
    pairwise distance.
    """
    a, b, c = _as_xy(p1), _as_xy(p2), _as_xy(p3)
    d2 = _cross2(b - a, c - a)  # twice the signed area
    dmax = max(_length(b - a), _length(c - a), _length(c - b))
    if dmax == 0.0 or abs(d2) < 1e-10 * dmax * dmax:
        raise DegenerateGeometryError("collinear or coincident points")
    # Intersection of the perpendicular bisectors, solved in closed form.
    sa, sb, sc = (a @ a), (b @ b), (c @ c)
    ux = (sa * (b[1] - c[1]) + sb * (c[1] - a[1]) + sc * (a[1] - b[1])) / (2.0 * d2)
    uy = (sa * (c[0] - b[0]) + sb * (a[0] - c[0]) + sc * (b[0] - a[0])) / (2.0 * d2)
    center = np.array([ux, uy])
    radius = _length(a - center)
    return Circle(center, radius)


def conjugate_circle(c2: Circle, anchor, direction) -> Circle:
    """Equal-radius circle tangent to c2 at `anchor` on the side of
    `direction`.

    The new center sits on the tangent line of c2 at the anchor, at one
    radius from the anchor, on whichever side has a positive projection
    onto `direction`.  When the projection is zero the side with positive
    cross product against `direction` is taken.
    """
    a = _as_xy(anchor)
    d = _as_xy(direction)
    c = c2.center
    r = c2.radius
    if abs(_length(a - c) - r) > 1e-6 * r:
        raise ValueError("anchor does not lie on the circle")
    if _length(d) == 0.0:
        raise ValueError("direction must be non-zero")
    radial = a - c
    tangent = np.array([-radial[1], radial[0]])
    tangent /= _length(tangent)
    proj = tangent @ d
    if proj == 0.0:
        # Tangent orthogonal to the direction: break the tie by the sign
        # of the cross product so the choice stays deterministic.
        if _cross2(tangent, d) < 0.0:
            tangent = -tangent
    elif proj < 0.0:
        tangent = -tangent
    center = a + r * tangent
    return Circle(center, r)


def _circle_distances(points: np.ndarray, c: Circle) -> np.ndarray:
    """Unsigned distance from each point of an (n, 2) array to the circle
    line."""
    return np.abs(_distances_to(points, c.center) - c.radius)


def _half_chain(points) -> list:
    """One half of Andrew's monotone chain over x-sorted points: each new
    point pops the last one while the triangle of the last two and the new
    one has no positive (counter-clockwise) area."""
    chain: list = []
    for p in points:
        px, py = p
        while len(chain) >= 2:
            (ax, ay), (bx, by) = chain[-2], chain[-1]
            if (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0.0:
                break
            chain.pop()
        chain.append(p)
    return chain


def _hull(pts: np.ndarray) -> np.ndarray:
    """Convex hull vertices of an (n, 2) array, counter-clockwise, without
    collinear or repeated vertices (fewer than three when degenerate).

    A point strictly inside the octagon of the eight directional extremes
    (of x, y, x + y and x - y) is no vertex, so the monotone chain runs only
    over the points outside it.  The test keeps every point within a
    rounding margin of an octagon edge, and stays sound when ties repeat
    or reorder the extremes.
    """
    x, y = pts[:, 0], pts[:, 1]
    s, d = x + y, x - y
    corners = pts[list(dict.fromkeys([
        y.argmin(), d.argmax(), x.argmax(), s.argmax(),
        y.argmax(), d.argmin(), x.argmin(), s.argmin(),
    ]))]
    if len(corners) >= 3:
        edges = np.concatenate((corners[1:], corners[:1])) - corners
        # (corners, n) cross products of each edge with the way to each
        # point, formed in place.
        left = y - corners[:, 1:]
        left *= edges[:, :1]
        right = x - corners[:, :1]
        right *= edges[:, 1:]
        left -= right
        margin = 1e-12 * float(np.abs(pts).max()) ** 2
        pts = pts[left.min(axis=0) <= margin]
    ordered = sorted(pts.tolist())  # by x, then y
    lower = _half_chain(ordered)
    upper = _half_chain(reversed(ordered))
    return np.array(lower[:-1] + upper[:-1])


# --- random clouds -----------------------------------------------------

def generate_cloud(
    width: float, height: float, count: int, rng: np.random.Generator
) -> PointCloud:
    """Uniform i.i.d. points in the centered rectangle
    [-width/2, width/2] x [-height/2, height/2].

    Public as the documented draw of each cloud of `place_clouds`.
    """
    return PointCloud(_uniform_points(width, height, count, rng))


def _uniform_points(
    width: float, height: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """The (count, 2) coordinates that `generate_cloud` draws."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if width <= 0.0 or height <= 0.0:
        raise ValueError("rectangle sides must be positive")
    lo = (-0.5 * width, -0.5 * height)
    hi = (0.5 * width, 0.5 * height)
    return rng.uniform(lo, hi, size=(count, 2))


def _check_placement(xi: float, n: int, m: int, target_dist: float) -> None:
    """The input rules of `place_clouds`, which callers apply before they
    start any work that ends in a placement."""
    if not 0.0 < xi <= 1.0:
        raise ValueError("xi must lie in (0, 1]")
    if n < 1 or m < 1:
        raise ValueError("cloud sizes must be at least 1")
    if not 0.0 < target_dist <= MAX_COORDINATE:
        raise ValueError(
            f"target_dist must be finite, positive and at most {MAX_COORDINATE:g}"
        )


def place_clouds(
    xi: float,
    n: int,
    m: int,
    target_dist: float,
    rng: np.random.Generator,
) -> tuple[PointCloud, PointCloud, float]:
    """Draw two clouds in xi x 1 rectangles and separate them.

    Y (m points) keeps its axis-aligned rectangle centered at the origin.
    X (n points) is rotated by a uniform angle theta about its own
    barycenter and pushed along a random unit direction until the true
    cloud distance hits `target_dist`; the push length is found by
    bisection (tolerance 1e-3, at most 60 halvings).  A step settles in
    O(1) when the distance of a witness pair lies below target - 1e-3, or
    the gap between the clouds' ranges along the push above
    target + 1e-3.  Any other step takes the exact gap, started from the
    witness, which it then replaces by the closest pair: O(n + m) plus a
    scan of the pairs in two slabs facing each other (see `_cloud_gap`);
    only clouds that interleave make it O(nm) time.  Every step decides as
    a dense scan would, so the result is the same bit for bit.  Memory
    stays O(n + m) plus one block of GAP_BLOCK pairs.

    The push keeps X's shape only while it leaves distinct points distinct
    (at seed 0, 200 points survive a target of 1e13 and 50 points 1e14); a
    target that merges them raises ValueError, as does one the clouds
    cannot reach.

    Args:
        xi: rectangle aspect ratio a/b in (0, 1]; the rectangles are a x b
            with b = 1.
        n, m: points in X and Y, at least 1 each.
        target_dist: required true distance between the clouds, in
            (0, MAX_COORDINATE].
        rng: source of all randomness (draw order: Y, X, theta, direction).

    Returns:
        (X, Y, theta).
    """
    _check_placement(xi, n, m, target_dist)
    a, b = xi, 1.0
    y = generate_cloud(a, b, m, rng)
    # X's points are drawn and rotated in the arithmetic of generate_cloud
    # and PointCloud.transformed; only the pushed X becomes a PointCloud.
    drawn = _uniform_points(a, b, n, rng)
    theta = float(rng.uniform(-math.pi, math.pi))
    x0 = _moved(drawn, drawn.mean(axis=0), theta)
    x0_diameter = _center_and_diameter(x0)[1]
    phi = float(rng.uniform(-math.pi, math.pi))
    direction = np.array([math.cos(phi), math.sin(phi)])

    # The bisection reads only on which side of target +- 1e-3 a distance
    # lies, so any value that its tests place on the same side serves: a
    # pair distance when the distance is outside target +- 2e-3 (see
    # `_cloud_gap`), an upper bound below the window or a lower bound above
    # it.  The upper bound is the distance of the witness pair, in the
    # dense scan's arithmetic: first the rearmost point of X and the
    # foremost point of Y along the push, then the closest pair of the
    # last exact call.  The lower bound is the gap between the clouds'
    # ranges along the push, less a margin far above their rounding error.
    (px, py), (qx, qy), (wx, wy) = x0.T, y.points.T, direction
    along_x, along_y = x0 @ direction, y.points @ direction
    x_min, x_max = float(along_x.min()), float(along_x.max())
    y_min, y_max = float(along_y.min()), float(along_y.max())
    scale = max(float(np.abs(x0).max()), float(np.abs(y.points).max()))
    witness = int(along_x.argmin()), int(along_y.argmax())

    def dist_at(t: float) -> float:
        nonlocal witness
        i, j = witness
        dx = (px[i] + t * wx) - qx[j]
        dy = (py[i] + t * wy) - qy[j]
        upper = math.sqrt(dx * dx + dy * dy)
        if upper < target_dist and abs(upper - target_dist) > 1e-3:
            return upper
        lower = max(y_min - (x_max + t), (x_min + t) - y_max)
        lower -= 1e-9 * (t + scale)
        if lower > target_dist and abs(lower - target_dist) > 1e-3:
            return lower
        gap, i, j = _cloud_gap(
            x0 + t * direction,
            y.points,
            i,
            target_dist - 2e-3,
            target_dist + 2e-3,
        )
        witness = i, j
        return gap

    lo = target_dist
    hi = target_dist + x0_diameter + y.diameter + 1.0
    d_lo = dist_at(lo)
    if d_lo > target_dist:
        # Tiny clouds can already sit beyond the target at the nominal
        # lower bracket; retry from zero displacement.
        lo = 0.0
        d_lo = dist_at(lo)
        if d_lo > target_dist:
            raise ValueError("target distance unreachable for these clouds")
    t = lo
    if abs(d_lo - target_dist) > 1e-3:
        for _ in range(60):
            t = 0.5 * (lo + hi)
            d_mid = dist_at(t)
            if abs(d_mid - target_dist) <= 1e-3:
                break
            if d_mid < target_dist:
                lo = t
            else:
                hi = t
    points = x0 + t * direction
    distinct = _distinct_count(points)
    if distinct < len(points) and distinct < _distinct_count(x0):
        raise ValueError(
            f"target_dist {target_dist:g} is too far: the push merges distinct"
            " points of X"
        )
    return PointCloud(points), y, theta


def _distinct_count(points: np.ndarray) -> int:
    """Number of distinct rows of an (n, 2) array: one lexsort and a
    neighbour compare, a fifth of `np.unique(axis=0)`'s time at n = 200."""
    s = points[np.lexsort((points[:, 1], points[:, 0]))]
    return 1 + int(np.count_nonzero((s[1:] != s[:-1]).any(axis=1)))


# --- JSON --------------------------------------------------------------

def cloud_to_json(cloud: PointCloud) -> str:
    """Serialize as {"points": [[x, y], ...]} at full double precision.

    Public as the writer of the `approximate --clouds` file format, which
    `cloud_from_json` reads.
    """
    return json.dumps({"points": cloud.points.tolist()})


def cloud_from_json(text: str) -> PointCloud:
    data = json.loads(text)
    if not isinstance(data, dict) or "points" not in data:
        raise ValueError('cloud JSON must be an object with a "points" key')
    try:
        entries = np.asarray(data["points"], dtype=object)
        points = entries.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f'cloud JSON "points" must be numeric: {exc}') from None
    # numpy converts the strings "1" and the booleans true and false too.
    if not all(type(v) in (int, float) for v in entries.flat):
        raise ValueError('cloud JSON "points" must hold JSON numbers only')
    return PointCloud(points)

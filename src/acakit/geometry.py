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
    "AdmissibilityParams",
    "Circle",
    "DegenerateGeometryError",
    "PointCloud",
    "bounding_aspect_ratio",
    "circumcircle",
    "cloud_from_json",
    "cloud_to_json",
    "conjugate_circle",
    "generate_cloud",
    "is_admissible",
    "place_clouds",
    "true_distance",
]


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


@dataclass(frozen=True)
class AdmissibilityParams:
    """Separation parameter eta > 0 and the derived ratio alpha = eta/(1+eta)."""

    eta: float = 1.0
    alpha: float = field(init=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError("eta must be finite and positive")
        object.__setattr__(self, "alpha", self.eta / (1.0 + self.eta))


def _cross2(u: np.ndarray, v: np.ndarray) -> float:
    """z-component of the 3-D cross product of two planar vectors."""
    return float(u[0] * v[1] - u[1] * v[0])


def _as_xy(p) -> np.ndarray:
    """Coerce an array-like to a (2,) float array."""
    a = np.asarray(p, dtype=float)
    if a.shape != (2,):
        raise ValueError(f"expected a 2-D point, got shape {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class PointCloud:
    """An ordered, non-empty set of planar points.

    The barycenter (mean of the points) and the diameter estimate (twice
    the largest distance to the barycenter, at most twice the true
    diameter) are computed once at construction and cached, the aspect
    ratio once on first use; the coordinate array is frozen to keep the
    caches consistent.
    """

    points: np.ndarray
    barycenter: np.ndarray = field(init=False)
    diameter: float = field(init=False)

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError("a point cloud is a non-empty (n, 2) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        pts.setflags(write=False)
        center = pts.mean(axis=0)
        center.setflags(write=False)
        diam = 2.0 * float(np.linalg.norm(pts - center, axis=1).max())
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "barycenter", center)
        object.__setattr__(self, "diameter", diam)

    def __len__(self) -> int:
        return self.points.shape[0]

    @cached_property
    def aspect_ratio(self) -> float:
        """`bounding_aspect_ratio` of this cloud."""
        return bounding_aspect_ratio(self)

    def transformed(self, theta: float = 0.0, shift=(0.0, 0.0)) -> "PointCloud":
        """Rigidly move the cloud: rotate by theta about its barycenter,
        then translate by shift."""
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        pts = (self.points - self.barycenter) @ rot.T + self.barycenter
        return PointCloud(pts + np.asarray(shift, dtype=float))


# Pairs per block in the exact scan of `_cloud_gap`.
GAP_BLOCK = 1 << 16
# Alternating nearest-point rounds behind `_cloud_gap`'s upper bound.
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


def _nearest(xs: np.ndarray, ys: np.ndarray, a: float, b: float) -> tuple[int, float]:
    """Index of the point (xs, ys) nearest to (a, b), and its squared
    distance, summed as in `_squared_distances`.  Taking coordinate columns
    and scalars saves a quarter of a small placement step's time over a
    one-row `_squared_distances`."""
    dx = xs - a
    dy = ys - b
    dx *= dx
    dy *= dy
    dx += dy
    k = int(dx.argmin())
    return k, float(dx[k])


def _cloud_gap(
    p: np.ndarray, q: np.ndarray, lower: float = 0.0, upper: float = math.inf
) -> float:
    """Distance of some pair of the point sets p (n, 2) and q (m, 2).

    It is the smallest one, bitwise equal to the minimum of a dense scan,
    whenever that minimum lies in [lower, upper]; otherwise it lies on the
    same side of the interval as the minimum.

    An upper bound u and a direction w come from GAP_ROUNDS rounds of
    alternating nearest points, started at the point of p farthest toward
    q's barycenter.  A pair closer than r = min(u, upper) is at most r
    apart along w, so only the points of both sets whose projections onto
    w lie in the overlap of the two sets' ranges, widened by r and a
    rounding margin, are scanned, in blocks of GAP_BLOCK pairs.  The bound
    costs O(n + m); the scan is small for separated clouds and O(nm) time
    at worst, when the slabs take in both clouds, with memory bounded by
    the block size.
    """
    toward = q.sum(axis=0) / len(q) - p.sum(axis=0) / len(p)
    i = int(np.argmax(p @ toward))
    px, py, qx, qy = p[:, 0], p[:, 1], q[:, 0], q[:, 1]
    for _ in range(GAP_ROUNDS):
        j, _ = _nearest(qx, qy, px[i], py[i])
        i, best = _nearest(px, py, qx[j], qy[j])
    u = math.sqrt(best)
    if u < lower or u == 0.0:
        return u
    w = (q[j] - p[i]) / u
    r = min(u, upper)
    r += 1e-9 * (r + max(np.abs(p).max(), np.abs(q).max()))
    along_p, along_q = p @ w, q @ w
    lo = max(along_p.min(), along_q.min()) - r
    hi = min(along_p.max(), along_q.max()) + r
    p = p[(along_p >= lo) & (along_p <= hi)]
    q = q[(along_q >= lo) & (along_q <= hi)]
    if len(q):
        rows = max(1, GAP_BLOCK // len(q))
        for start in range(0, len(p), rows):
            block = _squared_distances(p[start : start + rows], q)
            best = min(best, float(block.min()))
    return math.sqrt(best)


def true_distance(x: PointCloud, y: PointCloud) -> float:
    """Smallest pairwise distance between the two clouds, exact.

    Costs O(n + m) plus a scan of the pairs in two slabs facing each other
    (see `_cloud_gap`).  When the clouds interleave, the slabs hold both
    clouds and the scan takes O(nm) time; memory stays O(n + m) plus one
    block of GAP_BLOCK pairs.
    """
    return _cloud_gap(x.points, y.points)


def is_admissible(
    x: PointCloud, y: PointCloud, params: AdmissibilityParams | None = None
) -> bool:
    """Separation test in reduced form:

        min(diam X, diam Y) <= alpha * |bary X - bary Y|,

    with alpha = eta/(1+eta), equivalent to the usual far-field criterion
    min(diam) <= eta * dist(X, Y) once dist is relaxed to the barycenter
    separation minus the smaller diameter.
    """
    params = params or AdmissibilityParams()
    gap = float(np.linalg.norm(x.barycenter - y.barycenter))
    return min(x.diameter, y.diameter) <= params.alpha * gap


# --- circles -----------------------------------------------------------

def circumcircle(p1, p2, p3) -> Circle:
    """Circle through three points.

    Raises DegenerateGeometryError when the points are (nearly) collinear:
    twice the signed triangle area below 1e-10 times the squared largest
    pairwise distance.
    """
    a, b, c = _as_xy(p1), _as_xy(p2), _as_xy(p3)
    d2 = _cross2(b - a, c - a)  # twice the signed area
    dmax = max(
        np.linalg.norm(b - a), np.linalg.norm(c - a), np.linalg.norm(c - b)
    )
    if dmax == 0.0 or abs(d2) < 1e-10 * dmax * dmax:
        raise DegenerateGeometryError("collinear or coincident points")
    # Intersection of the perpendicular bisectors, solved in closed form.
    sa, sb, sc = (a @ a), (b @ b), (c @ c)
    ux = (sa * (b[1] - c[1]) + sb * (c[1] - a[1]) + sc * (a[1] - b[1])) / (2.0 * d2)
    uy = (sa * (c[0] - b[0]) + sb * (a[0] - c[0]) + sc * (b[0] - a[0])) / (2.0 * d2)
    center = np.array([ux, uy])
    radius = float(np.linalg.norm(a - center))
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
    if abs(np.linalg.norm(a - c) - r) > 1e-6 * r:
        raise ValueError("anchor does not lie on the circle")
    if np.linalg.norm(d) == 0.0:
        raise ValueError("direction must be non-zero")
    radial = a - c
    tangent = np.array([-radial[1], radial[0]])
    tangent /= np.linalg.norm(tangent)
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
    return np.abs(np.linalg.norm(points - c.center, axis=1) - c.radius)


def _turn(a, b, c) -> float:
    """Twice the signed area of the triangle a, b, c (> 0 counter-clockwise)."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _half_chain(points) -> list:
    """One half of Andrew's monotone chain over x-sorted points."""
    chain: list = []
    for p in points:
        while len(chain) >= 2 and _turn(chain[-2], chain[-1], p) <= 0.0:
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
        edges = np.roll(corners, -1, axis=0) - corners
        # (corners, n) cross products of each edge with the way to each point.
        left = (edges[:, :1] * (y - corners[:, 1:])
                - edges[:, 1:] * (x - corners[:, :1]))
        margin = 1e-12 * float(np.abs(pts).max()) ** 2
        pts = pts[~np.all(left > margin, axis=0)]
    ordered = pts[np.lexsort((pts[:, 1], pts[:, 0]))].tolist()
    lower = _half_chain(ordered)
    upper = _half_chain(reversed(ordered))
    return np.array(lower[:-1] + upper[:-1])


def bounding_aspect_ratio(cloud: PointCloud) -> float:
    """Aspect ratio (short side / long side) of the minimum-area oriented
    bounding rectangle of the cloud.

    1.0 means square-like, values near 0 mean elongated.  Degenerate
    clouds (fewer than three distinct points, or all collinear) return
    0.0; a single point returns 1.0.  One side of the optimal rectangle
    lies on a hull edge, so every edge is tried at once.
    """
    if len(cloud) == 1:
        return 1.0
    hull = _hull(cloud.points)
    if len(hull) < 3:
        return 0.0  # collinear: zero-width rectangle
    hull -= hull.mean(axis=0)
    edges = np.roll(hull, -1, axis=0) - hull
    # Extents along and across each edge, both scaled by its length.
    along = np.ptp(edges @ hull.T, axis=1)
    across = np.ptp((edges[:, ::-1] * (-1.0, 1.0)) @ hull.T, axis=1)
    k = int(np.argmin(along * across / np.einsum("ij,ij->i", edges, edges)))
    return float(min(along[k], across[k]) / max(along[k], across[k]))


# --- random clouds -----------------------------------------------------

def generate_cloud(
    width: float, height: float, count: int, rng: np.random.Generator
) -> PointCloud:
    """Uniform i.i.d. points in the centered rectangle
    [-width/2, width/2] x [-height/2, height/2]."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if width <= 0.0 or height <= 0.0:
        raise ValueError("rectangle sides must be positive")
    lo = (-0.5 * width, -0.5 * height)
    hi = (0.5 * width, 0.5 * height)
    return PointCloud(rng.uniform(lo, hi, size=(count, 2)))


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
    bisection (tolerance 1e-3, at most 60 halvings).  Each step costs
    O(n + m) plus a scan of the pairs in two slabs facing each other (see
    `_cloud_gap`); only clouds that interleave make it O(nm) time.  Memory
    stays O(n + m) plus one block of GAP_BLOCK pairs.

    Args:
        xi: rectangle aspect ratio a/b in (0, 1]; the rectangles are a x b
            with b = 1.
        n, m: points in X and Y.
        target_dist: required true distance between the clouds, > 0.
        rng: source of all randomness (draw order: Y, X, theta, direction).

    Returns:
        (X, Y, theta).
    """
    if not 0.0 < xi <= 1.0:
        raise ValueError("xi must lie in (0, 1]")
    if not (math.isfinite(target_dist) and target_dist > 0.0):
        raise ValueError("target_dist must be finite and positive")
    a, b = xi, 1.0
    y = generate_cloud(a, b, m, rng)
    x0 = generate_cloud(a, b, n, rng)
    theta = float(rng.uniform(-math.pi, math.pi))
    x0 = x0.transformed(theta=theta)
    phi = float(rng.uniform(-math.pi, math.pi))
    direction = np.array([math.cos(phi), math.sin(phi)])

    # The bisection reads only whether a distance is within 1e-3 of the
    # target and on which side, so outside target +- 2e-3 any pair distance
    # on the right side serves (see `_cloud_gap`).
    def dist_at(t: float) -> float:
        return _cloud_gap(
            x0.points + t * direction, y.points, target_dist - 2e-3, target_dist + 2e-3
        )

    lo = target_dist
    hi = target_dist + x0.diameter + y.diameter + 1.0
    d_lo = dist_at(lo)
    if d_lo > target_dist:
        # Tiny clouds can already sit beyond the target at the nominal
        # lower bracket; retry from zero displacement.
        lo = 0.0
        d_lo = dist_at(lo)
        if d_lo > target_dist:
            raise ValueError("target distance unreachable for these clouds")
    if abs(d_lo - target_dist) <= 1e-3:
        return PointCloud(x0.points + lo * direction), y, theta
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        d_mid = dist_at(mid)
        if abs(d_mid - target_dist) <= 1e-3:
            break
        if d_mid < target_dist:
            lo = mid
        else:
            hi = mid
    return PointCloud(x0.points + mid * direction), y, theta


# --- JSON --------------------------------------------------------------

def cloud_to_json(cloud: PointCloud) -> str:
    """Serialize as {"points": [[x, y], ...]} at full double precision."""
    return json.dumps({"points": cloud.points.tolist()})


def cloud_from_json(text: str) -> PointCloud:
    data = json.loads(text)
    if not isinstance(data, dict) or "points" not in data:
        raise ValueError('cloud JSON must be an object with a "points" key')
    try:
        points = np.asarray(data["points"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f'cloud JSON "points" must be numeric: {exc}') from None
    return PointCloud(points)

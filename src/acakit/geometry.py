"""Planar point-cloud geometry: barycenters, diameters, cloud separation,
admissibility, circle constructions and randomized cloud placement.

All clouds live in R^2 and are stored as (n, 2) float arrays.  Diameters are
cheap linear estimates (twice the largest distance to the barycenter), never
convex-hull computations.  Cloud-to-cloud distances come from a k-d tree on
one cloud queried with the other, so no n x m array is ever allocated.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

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
    "relaxed_distance",
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
    diameter) are computed once at construction and cached; the
    coordinate array is frozen to keep the caches consistent.
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

    def point(self, i: int) -> np.ndarray:
        return self.points[i]

    def transformed(self, theta: float = 0.0, shift=(0.0, 0.0)) -> "PointCloud":
        """Rigidly move the cloud: rotate by theta about its barycenter,
        then translate by shift."""
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        pts = (self.points - self.barycenter) @ rot.T + self.barycenter
        return PointCloud(pts + np.asarray(shift, dtype=float))


def true_distance(x: PointCloud, y: PointCloud) -> float:
    """Smallest pairwise distance between the two clouds.

    Builds a k-d tree on Y (O(m log m)) and queries every point of X for its
    nearest neighbour (O(n log m) expected); memory is O(n + m).
    """
    return float(cKDTree(y.points).query(x.points)[0].min())


def relaxed_distance(x: PointCloud, y: PointCloud) -> float:
    """Barycenter separation reduced by the smaller diameter estimate.

    A cheap stand-in for the true cloud distance: never exceeds the
    barycenter distance and needs no nearest-neighbour search.
    """
    return float(np.linalg.norm(x.barycenter - y.barycenter)) - min(
        x.diameter, y.diameter
    )


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


def bounding_aspect_ratio(cloud: PointCloud) -> float:
    """Aspect ratio (short side / long side) of the minimum-area oriented
    bounding rectangle of the cloud.

    1.0 means square-like, values near 0 mean elongated.  Degenerate
    clouds (fewer than three points, or all collinear) return 0.0; a
    single point returns 1.0.
    """
    pts = cloud.points
    if len(cloud) == 1:
        return 1.0
    try:
        hull = pts[ConvexHull(pts).vertices]
    except QhullError:
        return 0.0  # collinear: zero-width rectangle
    edges = np.diff(np.vstack([hull, hull[:1]]), axis=0)
    angles = np.arctan2(edges[:, 1], edges[:, 0])
    best_area = math.inf
    best_aspect = 0.0
    for ang in angles:
        c, s = math.cos(-ang), math.sin(-ang)
        # The extremes of a linear map over the cloud lie on hull vertices.
        rot = hull @ np.array([[c, -s], [s, c]]).T
        w = rot[:, 0].max() - rot[:, 0].min()
        h = rot[:, 1].max() - rot[:, 1].min()
        area = w * h
        if area < best_area:
            best_area = area
            best_aspect = min(w, h) / max(w, h) if max(w, h) > 0.0 else 0.0
    return float(best_aspect)


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
    bisection (tolerance 1e-3, at most 60 halvings).  One k-d tree on Y is
    built up front (O(m log m)) and each step queries the moved X against it
    (O(n log m) expected), so placement memory is O(n + m).

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

    tree = cKDTree(y.points)

    def dist_at(t: float) -> float:
        return float(tree.query(x0.points + t * direction)[0].min())

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

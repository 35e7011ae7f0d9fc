"""Geometry-aided pivot selection for cross approximation.

The classical method picks pivots from residual magnitudes alone.  For
asymptotically smooth kernels on well-separated clouds the best early
pivots are predictable from geometry: the first cross should anchor at the
mutually nearest region of the clouds, the second and third should spread
along level curves of the rank-1 residual, which are close to circles
through the first pivot pair.  Later pivots are chosen by residual magnitude
but restricted to central subsets around the first pivots, which keeps the
probe budget per rank proportional to the subset size instead of n or m.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    Circle,
    DegenerateGeometryError,
    PointCloud,
    _circle_distances,
    _distances_to,
    circumcircle,
    conjugate_circle,
)
from .kernel import KernelHandle
from .lowrank import (
    PivotsExhaustedError,
    Skeleton,
    StoppingParams,
    _SkeletonBuilder,
    resolve_k_max,
)

__all__ = [
    "CircleHeuristics",
    "GpOptions",
    "aca_gp",
    "central_subset",
    "default_epsilon_r",
    "epsilon_r_rule",
    "first_pivot",
    "select_higher",
    "select_rank2",
    "select_rank3",
]

# Central subsets grow until they hold at least k_max + CENTRAL_MARGIN points.
CENTRAL_MARGIN = 8
# AUTO enables the circle searches when both clouds' aspect ratios reach this.
ASPECT_THRESHOLD = 0.75


class CircleHeuristics(str, enum.Enum):
    """Whether ranks 2 and 3 may use circle-based candidate ordering."""

    AUTO = "auto"  # on when both clouds are square-like
    ON = "on"
    OFF = "off"


@dataclass(frozen=True)
class GpOptions:
    """Tuning knobs for the geometry-aided strategy.

    Args:
        epsilon_r: central-subset radius as a fraction of the cloud
            diameter.  None picks max(0.25, 2*sqrt(k_max/min(n, m))),
            clamped to 1.
        use_circle_heuristics: AUTO enables the rank-2/3 circle searches
            only when both clouds' bounding-rectangle aspect ratios reach
            ASPECT_THRESHOLD.
    """

    epsilon_r: float | None = None
    use_circle_heuristics: CircleHeuristics = CircleHeuristics.AUTO

    def __post_init__(self) -> None:
        if self.epsilon_r is not None and not (0.0 < self.epsilon_r <= 1.0):
            raise ValueError("epsilon_r must lie in (0, 1]")


def epsilon_r_rule(k_max: int, cloud_size: int) -> float:
    """Rule-of-thumb central radius fraction 2*sqrt(k_max/cloud_size),
    unclamped (default_epsilon_r clamps it)."""
    if k_max < 1 or cloud_size < 1:
        raise ValueError("k_max and cloud_size must be positive")
    return 2.0 * math.sqrt(k_max / cloud_size)


def default_epsilon_r(k_max: int, size: int) -> float:
    """Central radius fraction covering ~k_max + margin points:
    epsilon_r_rule kept within [0.25, 1]."""
    return min(1.0, max(0.25, epsilon_r_rule(k_max, size)))


def first_pivot(x: PointCloud, y: PointCloud) -> tuple[int, int]:
    """Mutually facing points nearest the barycenters.

    In each cloud, the candidate set is the open half-plane of points
    whose offset from the own barycenter has positive projection onto the
    direction toward the other cloud's barycenter; the candidate closest
    to the own barycenter wins (smallest index on ties).  An empty
    half-plane falls back to the unconstrained nearest point.
    """
    return (
        _nearest_facing(x, y.barycenter),
        _nearest_facing(y, x.barycenter),
    )


def _nearest_facing(cloud: PointCloud, target: np.ndarray) -> int:
    proj = (cloud.points - cloud.barycenter) @ (target - cloud.barycenter)
    dist = _distances_to(cloud.points, cloud.barycenter)
    mask = proj > 0.0
    if not mask.any():
        mask = np.ones(len(cloud), dtype=bool)
    return int(np.argmin(np.where(mask, dist, np.inf)))


def central_subset(
    cloud: PointCloud,
    pivot_index: int,
    k_max: int,
    epsilon_r: float,
) -> tuple[np.ndarray, float]:
    """Indices within epsilon_r * diameter of the pivot point.

    The radius fraction is grown by factors of 1.1 until the subset holds
    at least k_max + CENTRAL_MARGIN points (or the whole cloud).  The
    pivot point itself is always included, so for k_max <= len(cloud) the
    subset holds at least k_max points.  Returns the index array in
    ascending order together with the final fraction.
    """
    if epsilon_r <= 0.0:
        raise ValueError("epsilon_r must be positive")
    required = min(len(cloud), k_max + CENTRAL_MARGIN)
    dist = _distances_to(cloud.points, cloud.points[pivot_index])
    eps = epsilon_r
    idx = np.flatnonzero(dist <= eps * cloud.diameter)
    while idx.size < required:
        # nextafter: 1.1 * eps rounds back to eps for the smallest subnormals.
        eps = max(eps * 1.1, math.nextafter(eps, math.inf))
        idx = np.flatnonzero(dist <= eps * cloud.diameter)
    return idx, eps


def _walk_candidates(points, work, circle, probe) -> tuple[int, float]:
    """Probe candidates in order of distance to a circle.

    Evaluates the residual at the candidate nearest the circle, then the
    next nearest (ties in pool order), and stops as soon as the magnitude
    fails to increase, returning the previous candidate.  If the
    magnitudes grow until the pool empties, the last candidate is
    returned; an empty pool gives (-1, 0.0).
    """
    work = np.asarray(work, dtype=np.intp)
    order = np.argsort(_circle_distances(points[work], circle), kind="stable")
    best_j, best_abs, best_val = -1, -1.0, 0.0
    for j in work[order]:
        val = float(probe(int(j)))
        if abs(val) <= best_abs:
            break
        best_j, best_abs, best_val = int(j), abs(val), val
    return best_j, best_val


def select_rank2(
    builder: _SkeletonBuilder,
    i1: int,
    j1: int,
    ic_work: np.ndarray,
    jc_work: np.ndarray,
    rng: np.random.Generator,
) -> tuple[int, int, float, Circle]:
    """Second pivot via the circle through the first pivot pair.

    A trial row i2 is drawn uniformly from the central candidates; the
    circle through x_i1, y_j1, x_i2 orders the column candidates, whose
    residual entries are probed through `builder` until the magnitude
    stops increasing.

    Raises DegenerateGeometryError when the three points are collinear
    (the caller falls back to magnitude-only selection).
    """
    if not len(ic_work) or not len(jc_work):
        raise PivotsExhaustedError("central subsets exhausted")
    x, y = builder.x, builder.y
    cand = np.asarray(ic_work)
    i2 = int(cand[rng.integers(cand.size)])
    c2 = circumcircle(x.points[i1], y.points[j1], x.points[i2])
    j2, pivot = _walk_candidates(
        y.points, jc_work, c2, lambda j: builder.residual_probe(i2, j)
    )
    return i2, j2, pivot, c2


def select_rank3(
    builder: _SkeletonBuilder,
    i1: int,
    j1: int,
    c2: Circle,
    ic_work: np.ndarray,
    jc_work: np.ndarray,
) -> tuple[int, int, float]:
    """Third pivot via the circles conjugate to the rank-2 circle.

    The row candidate nearest the conjugate circle anchored at x_i1 is
    chosen outright; the column candidates are walked by distance to the
    conjugate circle anchored at y_j1, probing residual entries through
    `builder` with the same stopping rule as the rank-2 search.
    """
    if not len(ic_work) or not len(jc_work):
        raise PivotsExhaustedError("central subsets exhausted")
    x, y = builder.x, builder.y
    conj_x = conjugate_circle(c2, x.points[i1], y.points[j1] - x.points[i1])
    conj_y = conjugate_circle(c2, y.points[j1], x.points[i1] - y.points[j1])
    rows = np.asarray(ic_work)
    i3 = int(rows[np.argmin(_circle_distances(x.points[rows], conj_x))])
    j3, pivot = _walk_candidates(
        y.points, jc_work, conj_y, lambda j: builder.residual_probe(i3, j)
    )
    return i3, j3, pivot


def select_higher(
    builder: _SkeletonBuilder,
    ic_work: np.ndarray,
    jc_work: np.ndarray,
    rng: np.random.Generator,
) -> tuple[int, int, float]:
    """Pivot for ranks beyond the circle heuristics.

    One trial row is drawn uniformly from the central row candidates; the
    column candidate maximizing the residual magnitude along that row is
    fixed, then the row candidate maximizing the residual magnitude along
    that column wins.  Ties go to the smallest index.  Residuals come from
    `builder`, restricted to the candidates.
    """
    if not len(ic_work) or not len(jc_work):
        raise PivotsExhaustedError("central subsets exhausted")
    rows = np.asarray(ic_work)
    cols = np.asarray(jc_work)
    i_t = int(rows[rng.integers(rows.size)])
    probes_j = builder.residual_row_subset(i_t, cols)
    j_k = int(cols[np.argmax(np.abs(probes_j))])
    probes_i = builder.residual_col_subset(j_k, rows)
    pos = int(np.argmax(np.abs(probes_i)))
    return int(rows[pos]), j_k, float(probes_i[pos])


def _circles_enabled(opts: GpOptions, x: PointCloud, y: PointCloud) -> bool:
    if opts.use_circle_heuristics is CircleHeuristics.ON:
        return True
    if opts.use_circle_heuristics is CircleHeuristics.OFF:
        return False
    return x.aspect_ratio >= ASPECT_THRESHOLD and y.aspect_ratio >= ASPECT_THRESHOLD


def _transpose_skeleton(s: Skeleton) -> Skeleton:
    """Mirror a skeleton built on the swapped cloud pair.

    The product is transposed by exchanging the factors; the pivot sign
    normally carried by the u side is moved across by multiplying both
    factors with sign(p_l), which leaves u_l v_l^T unchanged.
    """
    signs = np.sign(s.pivot_values)
    u = s.v_matrix * signs
    v = s.u_matrix * signs
    u.setflags(write=False)
    v.setflags(write=False)
    return replace(
        s,
        u_matrix=u,
        v_matrix=v,
        pivot_trace=tuple(replace(r, i=r.j, j=r.i) for r in s.pivot_trace),
        central_row_count=s.central_col_count,
        central_col_count=s.central_row_count,
    )


def aca_gp(
    x: PointCloud,
    y: PointCloud,
    kernel: KernelHandle,
    stop: StoppingParams,
    opts: GpOptions | None = None,
    *,
    rng: np.random.Generator,
) -> Skeleton:
    """Cross approximation with geometry-aided pivots.

    Rank 1 uses the mutually facing nearest points; rank 2 uses the circle
    search when enabled, rank 3 the conjugate circles only when rank 2 found
    its circle, and all remaining ranks use trial-row magnitude selection
    restricted to the central subsets.  When the column cloud is larger
    than the row cloud the problem is solved on the swapped pair and the
    skeleton transposed back, so for n != m aca_gp(y, x) is the exact
    transpose of aca_gp(x, y).  For n = m the row cloud is always X, and
    the swapped call may pick other pivots.

    A selected pivot at or below the pivot floor (PIVOT_FLOOR_REL times the
    first pivot) ends the run with the rank reached so far; classical `aca`
    instead skips such a row and tries another.  Otherwise the run reaches
    k_max or the epsilon stop: the central subsets hold enough candidates
    for every rank up to k_max.

    Rank k costs at most k(n+m) + k(|ic|+|jc|) + n + m kernel evaluations.
    """
    if len(y) > len(x):
        return _transpose_skeleton(
            aca_gp(y, x, kernel, stop, opts, rng=rng)
        )
    opts = opts or GpOptions()
    n, m = len(x), len(y)
    k_max = resolve_k_max(stop.k_max, n, m)
    eps_r = (
        opts.epsilon_r
        if opts.epsilon_r is not None
        else default_epsilon_r(k_max, min(n, m))
    )
    builder = _SkeletonBuilder(x, y, kernel, k_max)
    i1, j1 = first_pivot(x, y)
    row = builder.residual_row(i1)
    p1 = float(row[j1])
    if abs(p1) <= builder.pivot_floor():
        return builder.build()
    col = builder.residual_col(j1)
    builder.add_cross(i1, j1, p1, row, col, "first")
    if k_max == 1 or builder.converged(stop.epsilon):
        return builder.build()

    # Each subset holds >= k_max points, the first pivot among them, and every
    # selector picks from the work arrays: neither runs dry before k_max.
    ic_idx, _ = central_subset(x, i1, k_max, eps_r)
    jc_idx, _ = central_subset(y, j1, k_max, eps_r)
    ic_work = ic_idx[ic_idx != i1]
    jc_work = jc_idx[jc_idx != j1]
    use_circles = _circles_enabled(opts, x, y)
    c2: Circle | None = None

    while builder.rank < k_max:
        r_next = builder.rank + 1
        selection: tuple[int, int, float] | None = None
        selector = "central"
        if r_next == 2 and use_circles:
            try:
                i_k, j_k, pivot, c2 = select_rank2(
                    builder, i1, j1, ic_work, jc_work, rng
                )
                selection = (i_k, j_k, pivot)
                selector = "circle2"
            except DegenerateGeometryError:
                pass  # collinear trial row: magnitude fallback below
        elif r_next == 3 and c2 is not None:
            selection = select_rank3(builder, i1, j1, c2, ic_work, jc_work)
            selector = "circle3"
        if selection is None:
            selection = select_higher(builder, ic_work, jc_work, rng)
        i_k, j_k, pivot = selection
        if abs(pivot) <= builder.pivot_floor():
            break
        ic_work = ic_work[ic_work != i_k]
        jc_work = jc_work[jc_work != j_k]
        row = builder.residual_row(i_k)
        col = builder.residual_col(j_k)
        builder.add_cross(i_k, j_k, pivot, row, col, selector)
        if builder.converged(stop.epsilon):
            break
    return builder.build(central_rows=ic_idx.size, central_cols=jc_idx.size)

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
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Circle,
    DegenerateGeometryError,
    PointCloud,
    _circle_distances,
    bounding_aspect_ratio,
    circumcircle,
    conjugate_circle,
)
from .kernel import KernelHandle
from .lowrank import (
    PivotRecord,
    PivotsExhaustedError,
    Skeleton,
    StoppingParams,
    _resolve_k_max,
    _SkeletonBuilder,
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
        delta: safety margin; subsets are grown until they hold at least
            k_max + delta points.
        use_circle_heuristics: AUTO enables the rank-2/3 circle searches
            only when both clouds pass the aspect test below.
        aspect_threshold: minimum bounding-rectangle aspect ratio for AUTO.
    """

    epsilon_r: float | None = None
    delta: int = 8
    use_circle_heuristics: CircleHeuristics = CircleHeuristics.AUTO
    aspect_threshold: float = 0.75

    def __post_init__(self) -> None:
        if self.epsilon_r is not None and not (0.0 < self.epsilon_r <= 1.0):
            raise ValueError("epsilon_r must lie in (0, 1]")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if not (0.0 <= self.aspect_threshold <= 1.0):
            raise ValueError("aspect_threshold must lie in [0, 1]")


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
    rel = cloud.points - cloud.barycenter
    proj = rel @ (target - cloud.barycenter)
    dist = np.linalg.norm(rel, axis=1)
    mask = proj > 0.0
    if not mask.any():
        mask = np.ones(len(cloud), dtype=bool)
    return int(np.argmin(np.where(mask, dist, np.inf)))


def central_subset(
    cloud: PointCloud,
    pivot_index: int,
    k_max: int,
    epsilon_r: float,
    delta: int = 8,
) -> tuple[np.ndarray, float]:
    """Indices within epsilon_r * diameter of the pivot point.

    The radius fraction is grown by factors of 1.1 until the subset holds
    at least k_max + delta points (or the whole cloud).  Returns the index
    array in ascending order together with the final fraction.
    """
    if epsilon_r <= 0.0:
        raise ValueError("epsilon_r must be positive")
    required = min(len(cloud), k_max + delta)
    dist = np.linalg.norm(cloud.points - cloud.points[pivot_index], axis=1)
    eps = epsilon_r
    idx = np.flatnonzero(dist <= eps * cloud.diameter)
    while idx.size < required:
        eps *= 1.1
        idx = np.flatnonzero(dist <= eps * cloud.diameter)
    return idx, eps


def _refill(
    cloud: PointCloud,
    pivot_index: int,
    eps: float,
    used: np.ndarray,
) -> tuple[list[int], int, float] | None:
    """Grow the central radius by 1.1 steps until an unused candidate
    appears.  Returns (candidates, subset size, new fraction), or None
    when every point of the cloud is already used."""
    dist = np.linalg.norm(cloud.points - cloud.points[pivot_index], axis=1)
    while True:
        eps *= 1.1
        idx = np.flatnonzero(dist <= eps * cloud.diameter)
        work = [int(i) for i in idx if not used[i]]
        if work:
            return work, int(idx.size), eps
        if idx.size == len(cloud):
            return None


def _walk_candidates(points, work, circle, probe) -> tuple[int, float]:
    """Probe candidates in order of distance to a circle.

    Evaluates the residual at the candidate nearest the circle, then the
    next nearest, and stops as soon as the magnitude fails to increase,
    returning the previous candidate.  If the magnitudes grow until the
    pool empties, the best candidate seen is returned.
    """
    if not work:
        raise PivotsExhaustedError("no candidates to walk")
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


def select_rank2(
    builder: _SkeletonBuilder,
    i1: int,
    j1: int,
    ic_work: list[int],
    jc_work: list[int],
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
    if not ic_work or not jc_work:
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
    ic_work: list[int],
    jc_work: list[int],
) -> tuple[int, int, float]:
    """Third pivot via the circles conjugate to the rank-2 circle.

    The row candidate nearest the conjugate circle anchored at x_i1 is
    chosen outright; the column candidates are walked by distance to the
    conjugate circle anchored at y_j1, probing residual entries through
    `builder` with the same stopping rule as the rank-2 search.
    """
    if not ic_work or not jc_work:
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
    ic_work: list[int],
    jc_work: list[int],
    rng: np.random.Generator,
) -> tuple[int, int, float]:
    """Pivot for ranks beyond the circle heuristics.

    One trial row is drawn uniformly from the central row candidates; the
    column candidate maximizing the residual magnitude along that row is
    fixed, then the row candidate maximizing the residual magnitude along
    that column wins.  Ties go to the smallest index.  Residuals come from
    `builder`, restricted to the candidates.
    """
    if not ic_work or not jc_work:
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
    return (
        bounding_aspect_ratio(x) >= opts.aspect_threshold
        and bounding_aspect_ratio(y) >= opts.aspect_threshold
    )


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
    trace = tuple(
        PivotRecord(r.rank, r.j, r.i, r.pivot_value, r.selector)
        for r in s.pivot_trace
    )
    return Skeleton(
        u_matrix=u,
        v_matrix=v,
        pivot_rows=s.pivot_cols,
        pivot_cols=s.pivot_rows,
        pivot_values=s.pivot_values,
        approx_norm=s.approx_norm,
        residual_norm=s.residual_norm,
        eval_count_snapshot=s.eval_count_snapshot,
        pivot_trace=trace,
        rank_eval_counts=s.rank_eval_counts,
        norm_clamped=s.norm_clamped,
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

    Rank 1 uses the mutually facing nearest points; ranks 2 and 3 use the
    circle searches when enabled, and all remaining ranks use trial-row
    magnitude selection restricted to the central subsets.  When the
    column cloud is larger than the row cloud the problem is solved on the
    swapped pair and the skeleton transposed back, so for n != m
    aca_gp(y, x) is the exact transpose of aca_gp(x, y).  For n = m the row
    cloud is always X, and the swapped call may pick other pivots.

    A selected pivot at or below the pivot floor (StoppingParams.epsilon_p,
    or PIVOT_FLOOR_REL times the first pivot) ends the run with the rank
    reached so far; classical `aca` instead skips such a row and tries
    another.

    Rank k costs at most k(n+m) + k(|ic|+|jc|) + n + m kernel evaluations.
    """
    if len(y) > len(x):
        return _transpose_skeleton(
            aca_gp(y, x, kernel, stop, opts, rng=rng)
        )
    opts = opts or GpOptions()
    n, m = len(x), len(y)
    k_max = _resolve_k_max(stop, n, m)
    eps_r = (
        opts.epsilon_r
        if opts.epsilon_r is not None
        else default_epsilon_r(k_max, min(n, m))
    )
    builder = _SkeletonBuilder(x, y, kernel, k_max)
    i1, j1 = first_pivot(x, y)
    row = builder.residual_row(i1)
    p1 = float(row[j1])
    if abs(p1) <= builder.pivot_floor(stop.epsilon_p):
        return builder.build()
    col = builder.residual_col(j1)
    builder.add_cross(i1, j1, p1, row, col, "first")
    if k_max == 1 or builder.converged(stop.epsilon):
        return builder.build()

    used_rows = np.zeros(n, dtype=bool)
    used_cols = np.zeros(m, dtype=bool)
    used_rows[i1] = True
    used_cols[j1] = True
    ic_idx, eps_x = central_subset(x, i1, k_max, eps_r, opts.delta)
    jc_idx, eps_y = central_subset(y, j1, k_max, eps_r, opts.delta)
    ic_size, jc_size = int(ic_idx.size), int(jc_idx.size)
    ic_work = [int(i) for i in ic_idx if i != i1]
    jc_work = [int(j) for j in jc_idx if j != j1]
    use_circles = _circles_enabled(opts, x, y)
    c2: Circle | None = None

    while builder.rank < k_max:
        if not ic_work:
            grown = _refill(x, i1, eps_x, used_rows)
            if grown is None:
                break
            ic_work, ic_size, eps_x = grown
        if not jc_work:
            grown = _refill(y, j1, eps_y, used_cols)
            if grown is None:
                break
            jc_work, jc_size, eps_y = grown
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
                selection = None
        elif r_next == 3 and use_circles:
            if c2 is None and opts.use_circle_heuristics is CircleHeuristics.ON:
                # Rank 2 came from the fallback; rebuild its circle from
                # the pivots actually taken.
                try:
                    c2 = circumcircle(
                        x.points[i1], y.points[j1],
                        x.points[builder.pivot_rows[1]],
                    )
                except DegenerateGeometryError:
                    c2 = None
            if c2 is not None:
                i_k, j_k, pivot = select_rank3(
                    builder, i1, j1, c2, ic_work, jc_work
                )
                selection = (i_k, j_k, pivot)
                selector = "circle3"
        if selection is None:
            try:
                i_k, j_k, pivot = select_higher(builder, ic_work, jc_work, rng)
            except PivotsExhaustedError:
                break
            selection = (i_k, j_k, pivot)
            selector = "central"
        i_k, j_k, pivot = selection
        if abs(pivot) <= builder.pivot_floor(stop.epsilon_p):
            break
        used_rows[i_k] = True
        used_cols[j_k] = True
        if i_k in ic_work:
            ic_work.remove(i_k)
        if j_k in jc_work:
            jc_work.remove(j_k)
        row = builder.residual_row(i_k)
        col = builder.residual_col(j_k)
        builder.add_cross(i_k, j_k, pivot, row, col, selector)
        if builder.converged(stop.epsilon):
            break
    return builder.build(central_rows=ic_size, central_cols=jc_size)

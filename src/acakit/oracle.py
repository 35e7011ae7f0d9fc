"""Reference error measures for cross approximations.

Four oracles: the true error curve of a skeleton against the dense
matrix, the SVD floors (the Frobenius-optimal error at each rank),
exhaustive greedy pivot search on small dense matrices (the best any
cross method could do one rank at a time), and the gain of one method
over another relative to the SVD floors.

The floors come from a range sketch that certifies its own accuracy
(Halko, Martinsson and Tropp, SIAM Review 53(2), 2011): each is the
error of a real rank-k approximant, at most a relative 5e-11 above the
optimum, and the full SVD runs only where that bound cannot be shown.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kernel import DenseCapExceededError
from .lowrank import Skeleton, dense

__all__ = [
    "GeneticRankResult",
    "GeneticSearchResult",
    "gain",
    "genetic_search",
    "rank_errors",
    "relative_error",
    "svd_rank_errors",
]

GENETIC_CAP = 64
SVD_FLOOR = 1e-14
# Oversampling and certificate threshold of the SVD floors' range sketch
# (`svd_rank_errors`).  At k = 10 on a 2-CPU SkylakeX-kernel VM, one floor took 3.55 -> 1.00 ms
# at n = m = 200 and 18.6 -> 4.8 ms at n = m = 400, and every one of the
# 100 pinned realizations was certified.  At k = 20 all 100 fall back:
# t_20 sits too near the rounding in R for the certificate to hold.
_OVERSAMPLE = 30
_CERTIFY = 1e-10


def svd_rank_errors(a: np.ndarray, k_max: int) -> np.ndarray:
    """Best possible relative Frobenius error at ranks 1..k_max.

    For singular values s_1 >= s_2 >= ..., the optimal rank-k error is
    t_k / |A|_F with t_k^2 = sum_{i>k} s_i^2.  These floors come from a
    certified range sketch (Halko, Martinsson and Tropp, SIAM Review
    53(2), 2011) instead of a full SVD.  With G the fixed m x l Gaussian
    of `_gaussian`, l = k_max + _OVERSAMPLE, Q an orthonormal basis of
    A G, B = Q^T A and R = A - Q B,

        t~_j^2 = |R|_F^2 + sum_{i>j} s_i(B)^2,

    the error of the rank-j approximant Q B_j.  As Q^T R = 0,
    A^T A = B^T B + R^T R, and Weyl's inequality gives

        0 <= t~_j^2 - t_j^2 <= j |R|_F^2.

    The sketch is kept only when k_max |R|_F^2 <= _CERTIFY t~_{k_max}^2,
    which bounds every floor's relative excess by about _CERTIFY / 2.
    Otherwise, or when l >= min(n, m), the floors come from the full
    `np.linalg.svd` of A.  A zero or non-finite matrix is refused.
    """
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("matrix must be finite")
    k_max = min(k_max, *a.shape)
    tail = _sketch(a, k_max)
    if tail is None:
        s = np.linalg.svd(a, compute_uv=False)
        tail = np.concatenate([np.cumsum((s * s)[::-1])[::-1], [0.0]])
    fro = math.sqrt(float(tail[0]))
    if fro == 0.0:
        raise ValueError("zero matrix has no relative error")
    errors = np.sqrt(np.maximum(tail[1 : k_max + 1], 0.0)) / fro
    return errors


def _sketch(a: np.ndarray, k_max: int) -> np.ndarray | None:
    """t~_j^2 for j = 0..l of `svd_rank_errors`' range sketch, the last
    being |R|_F^2; None when the sketch is no narrower than A or fails
    its certificate."""
    n, m = a.shape
    width = k_max + _OVERSAMPLE
    if width >= min(n, m):
        return None
    q, _ = np.linalg.qr(a @ _gaussian(m, width))
    b = q.T @ a
    s = np.linalg.svd(b, compute_uv=False)
    # Smallest terms first: |R|_F^2, then s_l(B)^2 up to s_1(B)^2.
    tail = np.cumsum(np.concatenate(([_fro_sq(a - q @ b)], (s * s)[::-1])))[::-1]
    return tail if k_max * tail[-1] <= _CERTIFY * tail[k_max] else None


@functools.lru_cache(maxsize=16)
def _gaussian(m: int, width: int) -> np.ndarray:
    """The sketch's read-only m x width test matrix, the same for every
    call of that shape; no caller's random stream is touched."""
    g = np.random.default_rng(0).standard_normal((m, width))
    g.flags.writeable = False
    return g


def relative_error(a: np.ndarray, skeleton: Skeleton) -> float:
    """|A - U V^T|_F / |A|_F against the dense matrix.

    Public for the README quick start, which measures a skeleton with it.
    """
    fro = _nonzero_fro(a)
    return _fro(a - dense(skeleton)) / fro


def rank_errors(a: np.ndarray, skeleton: Skeleton, k_max: int) -> np.ndarray:
    """True relative error after each of the first k_max crosses.

    Rank 1 is |A - u_1 v_1^T|_F / |A|_F, formed directly.  With r the
    smaller of k_max and the skeleton's rank, the residual R_r after the
    r-th cross is formed once, as R_1 - sum_{l=2..r} u_l v_l^T, and the
    ranks below r are reached by adding crosses W_l = u_l v_l^T back one
    at a time:

        |R_{l-1}|^2 = |R_l|^2 + 2<R_l, W_l> + |W_l|^2,
        <R_l, W_l> = u_l.(R_r v_l) + sum_{p>l} (u_l.u_p)(v_l.v_p),

    so each error depends only on A and the crosses up to its rank, at
    three passes over the n x m matrix instead of three per rank.  Ranks
    beyond r keep the final error (early termination).  Forming R_r and
    R_r V are BLAS calls, which OpenBLAS may split across threads; the
    norms are summed by numpy's own loops.

    The curve is its head (`_curve_head`: |A|_F, R_1 and e_1), which only
    the first cross decides, and the walk from it (`_curve_from`); skeletons
    that share their first cross, as a sweep's radii do, share the head.
    """
    return _curve_from(_curve_head(a, skeleton), skeleton, k_max)


def _curve_head(
    a: np.ndarray, skeleton: Skeleton
) -> tuple[float, np.ndarray | None, float]:
    """(|A|_F, R_1, e_1) of `rank_errors`, from the skeleton's first
    cross: R_1 = A - u_1 v_1^T, read-only, and e_1 = |R_1|_F / |A|_F.
    A skeleton of rank 0 gives (|A|_F, None, 1.0)."""
    fro = _nonzero_fro(a)
    if not skeleton.rank:
        return fro, None, 1.0
    residual = a - np.outer(skeleton.u_matrix[:, 0], skeleton.v_matrix[:, 0])
    residual.setflags(write=False)
    return fro, residual, _fro(residual) / fro


def _curve_from(
    head: tuple[float, np.ndarray | None, float], skeleton: Skeleton, k_max: int
) -> np.ndarray:
    """`rank_errors` of a skeleton whose first cross gave `head`."""
    fro, first_residual, first = head
    out = np.ones(k_max)
    r = min(k_max, skeleton.rank)
    if r == 0:
        return out
    out[0] = first
    if r > 1:
        u, v = skeleton.u_matrix[:, 1:r], skeleton.v_matrix[:, 1:r]
        residual = u @ v.T
        np.subtract(first_residual, residual, out=residual)
        gram = (u.T @ u) * (v.T @ v)
        inner = np.einsum("il,il->l", u, residual @ v) + np.triu(gram, 1).sum(axis=1)
        steps = 2.0 * inner + gram.diagonal()
        # |R_r|^2, then |R_{r-1}|^2 down to |R_2|^2.
        walk = np.cumsum(np.concatenate(([_fro_sq(residual)], steps[:0:-1])))
        out[1:r] = np.sqrt(np.maximum(walk[::-1], 0.0)) / fro
    out[r:] = out[r - 1]
    return out


def _fro_sq(a: np.ndarray) -> float:
    """Squared Frobenius norm of a 2-D array, without BLAS."""
    return float(np.einsum("ij,ij->", a, a))


def _fro(a: np.ndarray) -> float:
    """Frobenius norm of a 2-D array, without BLAS."""
    return math.sqrt(_fro_sq(a))


def _nonzero_fro(a: np.ndarray) -> float:
    """`_fro(a)`, refusing a zero matrix, whose relative error is undefined."""
    fro = _fro(a)
    if fro == 0.0:
        raise ValueError("zero matrix has no relative error")
    return fro


def gain(e_aca: np.ndarray, e_acagp: np.ndarray, e_svd: np.ndarray) -> np.ndarray:
    """How much closer one method sits to the SVD baseline than another,
    rank by rank:

        (e_aca - e_svd) / (e_acagp - e_svd).

    The gain is unbounded, and NaN, wherever e_acagp - e_svd <= SVD_FLOOR.
    """
    excess = e_acagp - e_svd
    return np.divide(
        e_aca - e_svd,
        excess,
        out=np.full(np.shape(excess), np.nan),
        where=excess > SVD_FLOOR,
    )


@dataclass(frozen=True)
class GeneticRankResult:
    rank: int
    pivot: tuple[int, int]
    rel_error: float


@dataclass(frozen=True, eq=False)
class GeneticSearchResult:
    """Greedy exhaustive pivot search outcome.

    ranks[k-1] holds the best pivot at step k and the relative error after
    applying it; grids[k-1] (when requested) holds the full per-pivot
    error landscape of step k, NaN at excluded pivots.
    """

    ranks: tuple[GeneticRankResult, ...]
    grids: tuple[np.ndarray, ...] | None = None


def _check_genetic_size(n: int, m: int) -> None:
    """`genetic_search`'s size cap, which callers apply before any work."""
    if n > GENETIC_CAP or m > GENETIC_CAP:
        raise DenseCapExceededError(
            f"genetic search takes n and m up to {GENETIC_CAP}, got n={n}, m={m}"
        )


def genetic_search(
    a: np.ndarray,
    k_max: int,
    return_grids: bool = False,
) -> GeneticSearchResult:
    """Greedy exhaustive pivot minimization on a small dense matrix.

    At every rank each unused (i, j) pair is tried as the next cross pivot
    and the pair minimizing the resulting dense Frobenius error wins, ties
    going to the lexicographically smallest pair.  Pivots below 1e-12
    times max|a_ij| are skipped.  Crosses are scaled exactly like skeleton
    columns, so errors compare bit-for-bit with skeleton reconstructions.

    Globally optimal per rank given the previous picks, hence a lower
    envelope for any single-pivot-per-rank strategy; exponential cost is
    avoided by never reconsidering earlier ranks.
    """
    a = np.asarray(a, dtype=float)
    n, m = a.shape
    _check_genetic_size(n, m)
    fro = float(np.linalg.norm(a))
    if fro == 0.0:
        raise ValueError("zero matrix has no relative error")
    floor = 1e-12 * float(np.abs(a).max())
    residual = a.copy()
    used_rows = np.zeros(n, dtype=bool)
    used_cols = np.zeros(m, dtype=bool)
    results: list[GeneticRankResult] = []
    grids: list[np.ndarray] = []
    for k in range(1, min(k_max, n, m) + 1):
        best_err = math.inf
        best: tuple[int, int, np.ndarray, np.ndarray] | None = None
        grid = np.full((n, m), np.nan) if return_grids else None
        for i in range(n):
            if used_rows[i]:
                continue
            for j in range(m):
                if used_cols[j]:
                    continue
                pivot = residual[i, j]
                if abs(pivot) < floor:
                    continue
                scale = math.sqrt(abs(pivot))
                sign = 1.0 if pivot > 0.0 else -1.0
                u = sign * residual[:, j] / scale
                v = residual[i, :] / scale
                err = float(np.linalg.norm(residual - np.outer(u, v)))
                if grid is not None:
                    grid[i, j] = err / fro
                if err < best_err:
                    best_err = err
                    best = (i, j, u, v)
        if best is None:
            break
        i, j, u, v = best
        residual = residual - np.outer(u, v)
        used_rows[i] = True
        used_cols[j] = True
        results.append(GeneticRankResult(k, (i, j), best_err / fro))
        if grid is not None:
            grids.append(grid)
    return GeneticSearchResult(
        ranks=tuple(results),
        grids=tuple(grids) if return_grids else None,
    )

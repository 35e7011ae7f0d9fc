"""Reference error measures for cross approximations.

Four oracles: the true error curve of a skeleton against the dense
matrix, truncated-SVD errors (the Frobenius-optimal baseline for any
rank), exhaustive greedy pivot search on small dense matrices (the best
any cross method could do one rank at a time), and the gain of one
method over another relative to the SVD baseline.
"""
from __future__ import annotations

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


def svd_rank_errors(a: np.ndarray, k_max: int) -> np.ndarray:
    """Best possible relative Frobenius error at ranks 1..k_max.

    For singular values s_1 >= s_2 >= ..., the optimal rank-k error is
    sqrt(sum_{i>k} s_i^2) / |A|_F.
    """
    s = np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)
    tail = np.concatenate([np.cumsum((s * s)[::-1])[::-1], [0.0]])
    fro = math.sqrt(float(tail[0]))
    if fro == 0.0:
        raise ValueError("zero matrix has no relative error")
    k_max = min(k_max, *a.shape)
    errors = np.sqrt(np.maximum(tail[1 : k_max + 1], 0.0)) / fro
    return errors


def relative_error(a: np.ndarray, skeleton: Skeleton) -> float:
    """|A - U V^T|_F / |A|_F against the dense matrix."""
    fro = _nonzero_fro(a)
    return _fro(a - dense(skeleton)) / fro


def rank_errors(a: np.ndarray, skeleton: Skeleton, k_max: int) -> np.ndarray:
    """True relative error after each of the first k_max crosses.

    Rank 1 is |A - u_1 v_1^T|_F / |A|_F, formed directly.  With r the
    smaller of k_max and the skeleton's rank, the residual R_r after the
    r-th cross is formed once, and the ranks below r are reached by
    adding crosses W_l = u_l v_l^T back one at a time:

        |R_{l-1}|^2 = |R_l|^2 + 2<R_l, W_l> + |W_l|^2,
        <R_l, W_l> = u_l.(R_r v_l) + sum_{p>l} (u_l.u_p)(v_l.v_p),

    so each error depends only on A and the crosses up to its rank, at
    three passes over the n x m matrix instead of three per rank.  Ranks
    beyond r keep the final error (early termination).  Forming R_r and
    R_r V are BLAS calls, which OpenBLAS may split across threads; the
    norms are summed by numpy's own loops.
    """
    fro = _nonzero_fro(a)
    out = np.ones(k_max)
    r = min(k_max, skeleton.rank)
    if r == 0:
        return out
    u, v = skeleton.u_matrix[:, :r], skeleton.v_matrix[:, :r]
    residual = a - np.outer(u[:, 0], v[:, 0])
    out[0] = _fro(residual) / fro
    if r > 1:
        u, v = u[:, 1:], v[:, 1:]
        residual -= u @ v.T
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
    if n > GENETIC_CAP or m > GENETIC_CAP:
        raise DenseCapExceededError(f"{n}x{m} exceeds genetic cap of {GENETIC_CAP}")
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

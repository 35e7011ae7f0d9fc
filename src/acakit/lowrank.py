"""Rank-revealing cross approximation of kernel interaction matrices.

A rank-k skeleton stores scaled cross vectors U (n x k) and V (m x k) such
that A ~= U V^T, built one residual row/column pair at a time.  Only k rows
and k columns of the matrix are ever evaluated; the Frobenius norm of the
approximant is tracked by a recursion instead of forming U V^T.

`write_skeleton_json` streams a skeleton's JSON document to a text file
a block of factor vectors at a time, as it is encoded, so the document
is never held whole.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, TextIO

import numpy as np

from .geometry import PointCloud
from .kernel import KernelHandle

__all__ = [
    "PivotRecord",
    "PivotsExhaustedError",
    "Skeleton",
    "StoppingParams",
    "aca",
    "compression_ratio",
    "dense",
    "resolve_k_max",
    "update_norms",
    "write_skeleton_json",
]

# Pivots at or below this fraction of the first pivot count as zero.
PIVOT_FLOOR_REL = 1e-12


class PivotsExhaustedError(RuntimeError):
    """No unused pivot candidates remain."""


@dataclass(frozen=True)
class StoppingParams:
    """Termination controls for a cross-approximation run.

    Args:
        epsilon: relative residual tolerance; the run stops once the norm
            of the last added cross drops below epsilon times the
            approximant norm.
        k_max: rank cap; None defaults to half the smaller cloud size,
            and every value is clamped to min(n, m) (see resolve_k_max).

    See `_SkeletonBuilder.run` for the pivot floor and what each driver does.
    """

    epsilon: float
    k_max: int | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError("epsilon must be finite and positive")
        if self.k_max is not None and self.k_max < 1:
            raise ValueError("k_max must be at least 1")


@dataclass(frozen=True)
class PivotRecord:
    """One accepted pivot: placement in the run plus how it was chosen."""

    rank: int
    i: int
    j: int
    pivot_value: float
    selector: str


@dataclass(frozen=True, eq=False)
class Skeleton:
    """Rank-k cross approximation A ~= U V^T.

    Column l of U is sign(p_l) * u~_l / sqrt(|p_l|) and column l of V is
    v~_l / sqrt(|p_l|), where u~_l, v~_l are the residual column/row of the
    l-th cross and p_l its pivot value.  Pivot rows and columns are
    distinct by construction; pivot_rows, pivot_cols and pivot_values are
    read from pivot_trace.
    """

    u_matrix: np.ndarray  # (n, k)
    v_matrix: np.ndarray  # (m, k)
    approx_norm: float
    residual_norm: float
    pivot_trace: tuple[PivotRecord, ...] = ()
    rank_eval_counts: tuple[int, ...] = ()
    norm_clamped: bool = False
    central_row_count: int = 0
    central_col_count: int = 0

    @property
    def rank(self) -> int:
        return self.u_matrix.shape[1]

    @property
    def pivot_rows(self) -> tuple[int, ...]:
        return tuple(r.i for r in self.pivot_trace)

    @property
    def pivot_cols(self) -> tuple[int, ...]:
        return tuple(r.j for r in self.pivot_trace)

    @property
    def pivot_values(self) -> np.ndarray:
        """A fresh (k,) float array of the pivot values."""
        return np.array([r.pivot_value for r in self.pivot_trace], dtype=float)


class NormUpdate(NamedTuple):
    approx_norm: float
    residual_norm: float
    clamped: bool


def resolve_k_max(k_max: int | None, n: int, m: int) -> int:
    """Rank cap of an n x m run: k_max, or half the smaller cloud size (at
    least 1) when None, clamped to min(n, m)."""
    if k_max is None:
        k_max = max(1, min(n, m) // 2)
    return min(k_max, n, m)


def update_norms(
    approx_norm: float,
    u_stack: np.ndarray,
    v_stack: np.ndarray,
    u_new: np.ndarray,
    v_new: np.ndarray,
) -> NormUpdate:
    """Advance the Frobenius norm of the approximant by one cross.

    With A'_k = A'_{k-1} + u_k v_k^T,

        |A'_k|^2 = |A'_{k-1}|^2 + 2 sum_l (u_k.u_l)(v_l.v_k) + |u_k|^2 |v_k|^2,

    so the norm update costs O(k(n+m)) instead of O(nm).  Floating-point
    cancellation can push the radicand below zero; it is clamped to zero
    and flagged.

    Public as the oracle of acceptance criterion 3, which replays each
    skeleton's crosses through it against the assembled norm.
    """
    norm_u = math.sqrt(float(u_new @ u_new))
    norm_v = math.sqrt(float(v_new @ v_new))
    residual_norm = norm_u * norm_v
    cross = 2.0 * float((u_stack.T @ u_new) @ (v_stack.T @ v_new))
    radicand = approx_norm * approx_norm + cross + residual_norm * residual_norm
    clamped = radicand < 0.0
    if clamped:
        radicand = 0.0
    return NormUpdate(math.sqrt(radicand), residual_norm, clamped)


class _SkeletonBuilder:
    """Incremental cross-approximation state shared by every pivot strategy.

    Holds the growing U/V factors, residual row/column evaluation against
    them, the norm recursion, the loop that ends every run, and the
    bookkeeping that ends up on the final Skeleton.
    """

    def __init__(
        self, x: PointCloud, y: PointCloud, kernel: KernelHandle, k_max: int | None
    ):
        self.x = x
        self.y = y
        self.kernel = kernel
        n, m = len(x), len(y)
        self.k_max = resolve_k_max(k_max, n, m)
        self._u = np.zeros((n, self.k_max))
        self._v = np.zeros((m, self.k_max))
        self.rank = 0
        self.approx_norm = 0.0
        self.residual_norm = math.inf
        self.norm_clamped = False
        self.trace: list[PivotRecord] = []
        self.rank_eval_counts: list[int] = []
        # Pivot magnitudes at or below this count as zero: PIVOT_FLOOR_REL
        # times the first pivot, set by the first cross.
        self.pivot_floor = 0.0
        self._start_count = kernel.eval_count
        # Sizes of the central subsets an `aca_gp` run selects from.
        self.central_row_count = self.central_col_count = 0

    def residual_row(self, i: int) -> np.ndarray:
        """Row i of the current residual A - U V^T (one row of kernel evals)."""
        row = self.kernel.eval_row(self.x, self.y, i)
        r = self.rank
        if r:
            row = row - self._v[:, :r] @ self._u[i, :r]
        return row

    def residual_col(self, j: int) -> np.ndarray:
        col = self.kernel.eval_col(self.x, self.y, j)
        r = self.rank
        if r:
            col = col - self._u[:, :r] @ self._v[j, :r]
        return col

    def residual_probe(self, i: int, j: int) -> float:
        """Single residual entry (one kernel evaluation)."""
        value = self.kernel.eval(self.x.points[i], self.y.points[j])
        r = self.rank
        if r:
            value -= float(self._u[i, :r] @ self._v[j, :r])
        return value

    def residual_row_subset(self, i: int, cols: np.ndarray) -> np.ndarray:
        values = self.kernel.eval_row_subset(self.x, self.y, i, cols)
        r = self.rank
        if r:
            values = values - self._v[cols, :r] @ self._u[i, :r]
        return values

    def residual_col_subset(self, j: int, rows: np.ndarray) -> np.ndarray:
        values = self.kernel.eval_col_subset(self.x, self.y, j, rows)
        r = self.rank
        if r:
            values = values - self._u[rows, :r] @ self._v[j, :r]
        return values

    def add_cross(
        self,
        i: int,
        j: int,
        pivot: float,
        residual_row: np.ndarray,
        residual_col: np.ndarray,
        selector: str,
    ) -> None:
        r = self.rank
        scale = math.sqrt(abs(pivot))
        u_new = residual_col / scale
        if pivot < 0.0:
            # The pivot's sign sits on u: (-c)/s is -(c/s) exactly.
            np.negative(u_new, out=u_new)
        v_new = residual_row / scale
        upd = update_norms(
            self.approx_norm, self._u[:, :r], self._v[:, :r], u_new, v_new
        )
        self._u[:, r] = u_new
        self._v[:, r] = v_new
        self.approx_norm = upd.approx_norm
        self.residual_norm = upd.residual_norm
        self.norm_clamped |= upd.clamped
        if not r:
            self.pivot_floor = PIVOT_FLOOR_REL * abs(pivot)
        self.rank = r + 1
        self.trace.append(PivotRecord(r + 1, int(i), int(j), float(pivot), selector))
        self.rank_eval_counts.append(self.kernel.eval_count - self._start_count)

    def run(self, pivots, epsilon: float, skip_floor: bool) -> Skeleton:
        """Take crosses from the proposals `pivots` until the run ends.

        A proposal is (i, j, pivot, residual row i or None, selector); an
        accepted one has its row evaluated if not given, then its column.
        A pivot at or below PIVOT_FLOOR_REL times the first one counts as
        zero: with skip_floor it is passed over (`aca` skips the row, its m
        evaluations counted, and may go on until every row is used), and
        otherwise it ends the run (`aca_gp`).  The run also ends at k_max,
        once the last cross's norm is at most epsilon times the
        approximant's, or when the proposals run out."""
        for i, j, pivot, row, selector in pivots:
            if abs(pivot) <= self.pivot_floor:
                if skip_floor:
                    continue
                break
            if row is None:
                row = self.residual_row(i)
            self.add_cross(i, j, pivot, row, self.residual_col(j), selector)
            converged = self.residual_norm <= epsilon * self.approx_norm
            if converged or self.rank == self.k_max:
                break
        return self.build()

    def build(self) -> Skeleton:
        u = self._u[:, : self.rank].copy()
        v = self._v[:, : self.rank].copy()
        u.setflags(write=False)
        v.setflags(write=False)
        return Skeleton(
            u_matrix=u,
            v_matrix=v,
            approx_norm=self.approx_norm,
            residual_norm=self.residual_norm if self.rank else 0.0,
            pivot_trace=tuple(self.trace),
            rank_eval_counts=tuple(self.rank_eval_counts),
            norm_clamped=self.norm_clamped,
            central_row_count=self.central_row_count,
            central_col_count=self.central_col_count,
        )


def aca(
    x: PointCloud,
    y: PointCloud,
    kernel: KernelHandle,
    stop: StoppingParams,
    rng: np.random.Generator,
) -> Skeleton:
    """Cross approximation with partially pivoted greedy selection.

    Each step evaluates one residual row, takes the largest unused entry as
    the pivot column, evaluates that residual column, and appends the
    scaled cross.  The first row is drawn uniformly from the unused rows;
    afterwards the unused row with the largest entry of the previous scaled
    column wins, ties going to the smallest index.  A floor-level row is
    skipped without spending a rank (see `_SkeletonBuilder.run`).  Without
    skipped rows, rank k costs exactly k(n+m) kernel evaluations.
    """
    builder = _SkeletonBuilder(x, y, kernel, stop.k_max)
    return builder.run(_partial_pivots(builder, rng), stop.epsilon, skip_floor=True)


def _partial_pivots(builder: _SkeletonBuilder, rng: np.random.Generator):
    """`aca`'s proposals: one per row, until every row is used."""
    used_rows = np.zeros(len(builder.x), dtype=bool)
    used_cols = np.zeros(len(builder.y), dtype=bool)
    while not used_rows.all():
        rank = builder.rank
        if rank == 0:
            unused = (~used_rows).nonzero()[0]
            i_k = int(unused[rng.integers(unused.size)])
        else:
            scores = np.abs(builder._u[:, rank - 1])
            scores[used_rows] = -1.0
            i_k = int(scores.argmax())
        row = builder.residual_row(i_k)
        used_rows[i_k] = True
        scores = np.abs(row)
        scores[used_cols] = -1.0
        j_k = int(scores.argmax())
        yield i_k, j_k, float(row[j_k]), row, "partial" if rank else "random"
        used_cols[j_k] = builder.rank > rank  # not when the row was skipped


def compression_ratio(skeleton: Skeleton, n: int, m: int) -> float:
    """Stored-entry fraction k(n+m)/(n*m)."""
    return skeleton.rank * (n + m) / (n * m)


def dense(skeleton: Skeleton) -> np.ndarray:
    """Materialize U V^T (testing and small problems only)."""
    return skeleton.u_matrix @ skeleton.v_matrix.T


def write_skeleton_json(
    skeleton: Skeleton, fh: TextIO, meta: dict | None = None
) -> None:
    """Write the skeleton document to the text stream fh as it is encoded,
    one block of factor vectors at a time, so it is never held whole.

    In order: the head (meta, rank and pivots), each factor as
    `_floatjson.rows_json` blocks of consecutive factor vectors, and the
    tail (approx_norm, pivot_trace).  Together they are `json.dumps` of
    one dict holding meta (when given), rank, pivot_rows, pivot_cols, U,
    V, approx_norm and pivot_trace, in that order, with U and V stored as
    k vectors each.
    """
    # Imported here, so runs that write no skeleton never load the encoder.
    from ._floatjson import rows_json

    head: dict = {} if meta is None else {"meta": meta}
    head.update(
        rank=skeleton.rank,
        pivot_rows=list(skeleton.pivot_rows),
        pivot_cols=list(skeleton.pivot_cols),
    )
    tail = {
        "approx_norm": skeleton.approx_norm,
        "pivot_trace": [asdict(rec) for rec in skeleton.pivot_trace],
    }
    fh.write(json.dumps(head)[:-1])
    for name, factor in (("U", skeleton.u_matrix), ("V", skeleton.v_matrix)):
        fh.write(f', "{name}": ')
        fh.writelines(rows_json(factor.T))
    fh.write(", " + json.dumps(tail)[1:])

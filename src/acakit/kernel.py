"""Scalar interaction kernels with exact evaluation accounting.

Every scalar kernel value produced anywhere in the library goes through a
KernelHandle, which counts evaluations; the counter is the ground truth for
all complexity claims and budget checks.
"""
from __future__ import annotations

import numpy as np

from .geometry import PointCloud, _as_xy, _distances_to, _length, _squared_distances

__all__ = [
    "DEFAULT_DENSE_CAP",
    "DenseCapExceededError",
    "KernelHandle",
    "SingularEvaluationError",
]

SINGULAR_DISTANCE = 1e-14
DEFAULT_DENSE_CAP = 4_000_000


class SingularEvaluationError(ArithmeticError):
    """Requested kernel value at (nearly) coincident points."""


class DenseCapExceededError(RuntimeError):
    """Dense assembly would exceed the entry cap."""


class KernelHandle:
    """Kernel kappa(x, y) = 1/|x - y| plus a monotone evaluation counter.

    The counter increments by the number of scalar kernel values computed
    (m for a row, n for a column, n*m for dense assembly); a handle belongs
    to one thread.

    The four vector probes (`eval_row`, `eval_col`, `eval_row_subset`,
    `eval_col_subset`) go through one step, `_entries`.  A run that already
    holds the dense matrix of its clouds serves them from it through
    `_MatrixKernel`, which overrides that step alone: the entries are the
    same bit for bit and are counted the same.  The scalar `eval` is always
    computed from the points, because its distance, `geometry._length`,
    can differ from a matrix entry in the last bit.
    """

    def __init__(self):
        self._count = 0

    @property
    def eval_count(self) -> int:
        return self._count

    def _counted(self, dist: np.ndarray) -> np.ndarray:
        """Kernel values 1/dist, one counted evaluation per distance; a
        singular distance raises before anything is counted."""
        if dist.size and dist.min() < SINGULAR_DISTANCE:
            raise SingularEvaluationError("points closer than 1e-14")
        self._count += dist.size
        return 1.0 / dist

    def _entries(self, x: PointCloud, y: PointCloud, rows, cols) -> np.ndarray:
        """Counted kappa(x_i, y_j) for i in rows and j in cols, as a vector:
        one of rows and cols is a single index, the other an index array
        or a slice."""
        xs, ys = x.points[rows], y.points[cols]
        if xs.ndim == 1:
            return self._counted(_distances_to(ys, xs))
        return self._counted(_distances_to(xs, ys))

    def eval(self, x, y) -> float:
        """Single kernel value; one counted evaluation.

        The distance is the dot product and square root that
        `np.linalg.norm` takes for one vector, on Python floats.  Pinned
        outputs depend on these bits: the circle walks of `aca_gp` compare
        single probes, and computing the distance as
        `math.sqrt(dx*dx + dy*dy)` instead moves the bytes of the seed-42
        `sweep-central` CSV (`tests/test_acceptance.py` pins them).  A
        probe merged into the vector primitive must keep them.
        """
        d = _as_xy(x) - _as_xy(y)
        dist = _length(d)
        if dist < SINGULAR_DISTANCE:
            raise SingularEvaluationError("points closer than 1e-14")
        self._count += 1
        return 1.0 / dist

    def eval_row(self, x: PointCloud, y: PointCloud, i: int) -> np.ndarray:
        """Row i of the interaction matrix: kappa(x_i, y_j) for all j."""
        return self._entries(x, y, i, slice(None))

    def eval_col(self, x: PointCloud, y: PointCloud, j: int) -> np.ndarray:
        """Column j of the interaction matrix: kappa(x_i, y_j) for all i."""
        return self._entries(x, y, slice(None), j)

    def eval_row_subset(
        self, x: PointCloud, y: PointCloud, i: int, cols: np.ndarray
    ) -> np.ndarray:
        """kappa(x_i, y_j) for j in cols only."""
        return self._entries(x, y, i, cols)

    def eval_col_subset(
        self, x: PointCloud, y: PointCloud, j: int, rows: np.ndarray
    ) -> np.ndarray:
        """kappa(x_i, y_j) for i in rows only."""
        return self._entries(x, y, rows, j)

    def assemble_dense(self, x: PointCloud, y: PointCloud) -> np.ndarray:
        """Full n x m matrix; refuses more than DEFAULT_DENSE_CAP entries."""
        n, m = len(x), len(y)
        if n * m > DEFAULT_DENSE_CAP:
            raise DenseCapExceededError(
                f"{n}x{m} exceeds cap of {DEFAULT_DENSE_CAP} entries"
            )
        dist = _squared_distances(x.points, y.points)
        return self._counted(np.sqrt(dist, out=dist))


class _MatrixKernel(KernelHandle):
    """A handle whose vector probes read a = `assemble_dense(x, y)`.

    Probes on (x, y) read a, and probes on the swapped pair (y, x), which
    `aca_gp` makes when n < m, read a.T; any other clouds raise
    ValueError.  The values are read-only views or gathers of a, counted
    as the computed ones are.  They need no singular-distance test: the
    assembly of a tested every entry.
    """

    def __init__(self, x: PointCloud, y: PointCloud, a: np.ndarray):
        super().__init__()
        self._x, self._y = x, y
        self._a = a.view()
        self._a.setflags(write=False)

    def _entries(self, x: PointCloud, y: PointCloud, rows, cols) -> np.ndarray:
        if x is self._x and y is self._y:
            values = self._a[rows, cols]
        elif x is self._y and y is self._x:
            values = self._a[cols, rows]
        else:
            raise ValueError("clouds differ from those of the matrix")
        self._count += values.size
        return values

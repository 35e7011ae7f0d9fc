"""Scalar interaction kernels with exact evaluation accounting.

Every scalar kernel value produced anywhere in the library goes through a
KernelHandle, which counts evaluations; the counter is the ground truth for
all complexity claims and budget checks.
"""
from __future__ import annotations

import math
import threading

import numpy as np

from .geometry import PointCloud, _as_xy, _distances_to, _squared_distances

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
    (m for a row, n for a column, n*m for dense assembly) and is safe to
    bump from concurrent threads.
    """

    def __init__(self):
        self._count = 0
        self._lock = threading.Lock()

    @property
    def eval_count(self) -> int:
        return self._count

    def _counted(self, dist: np.ndarray) -> np.ndarray:
        """Kernel values 1/dist, one counted evaluation per distance; a
        singular distance raises before anything is counted."""
        if dist.size and dist.min() < SINGULAR_DISTANCE:
            raise SingularEvaluationError("points closer than 1e-14")
        with self._lock:
            self._count += dist.size
        return 1.0 / dist

    def eval(self, x, y) -> float:
        """Single kernel value; one counted evaluation.

        The distance is the dot product and square root that
        `np.linalg.norm` takes for one vector, on Python floats.
        """
        d = _as_xy(x) - _as_xy(y)
        dist = math.sqrt(float(d @ d))
        if dist < SINGULAR_DISTANCE:
            raise SingularEvaluationError("points closer than 1e-14")
        with self._lock:
            self._count += 1
        return 1.0 / dist

    def eval_row(self, x: PointCloud, y: PointCloud, i: int) -> np.ndarray:
        """Row i of the interaction matrix: kappa(x_i, y_j) for all j."""
        return self._counted(_distances_to(y.points, x.points[i]))

    def eval_col(self, x: PointCloud, y: PointCloud, j: int) -> np.ndarray:
        """Column j of the interaction matrix: kappa(x_i, y_j) for all i."""
        return self._counted(_distances_to(x.points, y.points[j]))

    def eval_row_subset(
        self, x: PointCloud, y: PointCloud, i: int, cols: np.ndarray
    ) -> np.ndarray:
        """kappa(x_i, y_j) for j in cols only."""
        return self._counted(_distances_to(y.points[cols], x.points[i]))

    def eval_col_subset(
        self, x: PointCloud, y: PointCloud, j: int, rows: np.ndarray
    ) -> np.ndarray:
        """kappa(x_i, y_j) for i in rows only."""
        return self._counted(_distances_to(x.points[rows], y.points[j]))

    def assemble_dense(self, x: PointCloud, y: PointCloud) -> np.ndarray:
        """Full n x m matrix; refuses more than DEFAULT_DENSE_CAP entries."""
        n, m = len(x), len(y)
        if n * m > DEFAULT_DENSE_CAP:
            raise DenseCapExceededError(
                f"{n}x{m} exceeds cap of {DEFAULT_DENSE_CAP} entries"
            )
        dist = _squared_distances(x.points, y.points)
        return self._counted(np.sqrt(dist, out=dist))

"""Scalar interaction kernels with exact evaluation accounting.

Every scalar kernel value produced anywhere in the library goes through a
KernelHandle, which counts evaluations; the counter is the ground truth for
all complexity claims and budget checks.
"""
from __future__ import annotations

import threading

import numpy as np
from scipy.spatial.distance import cdist

from .geometry import PointCloud, _as_xy

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

    def _bump(self, k: int) -> None:
        with self._lock:
            self._count += k

    @staticmethod
    def _invert(dist: np.ndarray) -> np.ndarray:
        if dist.min() < SINGULAR_DISTANCE:
            raise SingularEvaluationError("points closer than 1e-14")
        return 1.0 / dist

    def eval(self, x, y) -> float:
        """Single kernel value; one counted evaluation."""
        d = float(np.linalg.norm(_as_xy(x) - _as_xy(y)))
        if d < SINGULAR_DISTANCE:
            raise SingularEvaluationError("points closer than 1e-14")
        self._bump(1)
        return 1.0 / d

    def eval_row(self, x: PointCloud, y: PointCloud, i: int) -> np.ndarray:
        """Row i of the interaction matrix: kappa(x_i, y_j) for all j."""
        values = self._invert(np.linalg.norm(y.points - x.points[i], axis=1))
        self._bump(len(y))
        return values

    def eval_col(self, x: PointCloud, y: PointCloud, j: int) -> np.ndarray:
        """Column j of the interaction matrix: kappa(x_i, y_j) for all i."""
        values = self._invert(np.linalg.norm(x.points - y.points[j], axis=1))
        self._bump(len(x))
        return values

    def eval_row_subset(
        self, x: PointCloud, y: PointCloud, i: int, cols: np.ndarray
    ) -> np.ndarray:
        """kappa(x_i, y_j) for j in cols only."""
        values = self._invert(
            np.linalg.norm(y.points[cols] - x.points[i], axis=1)
        )
        self._bump(len(values))
        return values

    def eval_col_subset(
        self, x: PointCloud, y: PointCloud, j: int, rows: np.ndarray
    ) -> np.ndarray:
        """kappa(x_i, y_j) for i in rows only."""
        values = self._invert(
            np.linalg.norm(x.points[rows] - y.points[j], axis=1)
        )
        self._bump(len(values))
        return values

    def assemble_dense(
        self, x: PointCloud, y: PointCloud, cap: int = DEFAULT_DENSE_CAP
    ) -> np.ndarray:
        """Full n x m matrix; refuses to build more than `cap` entries."""
        n, m = len(x), len(y)
        if n * m > cap:
            raise DenseCapExceededError(f"{n}x{m} exceeds cap of {cap} entries")
        values = self._invert(cdist(x.points, y.points))
        self._bump(n * m)
        return values

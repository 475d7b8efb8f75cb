"""Subspace bases with SVD rank decisions.

Rank cuts use singular values with a relative threshold
tau = rtol * sigma_max (default rtol 1e-8), so downstream code can reason
about dimensions of tangent spaces, quotient representatives and spans
without ad-hoc epsilons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SubspaceBasis", "RANK_RTOL", "nullspace", "orthonormal_columns", "rank"]

RANK_RTOL = 1e-8


def _svd_rank(s: np.ndarray, rtol: float) -> int:
    if s.size == 0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def rank(a: np.ndarray, rtol: float = RANK_RTOL) -> int:
    return _svd_rank(np.linalg.svd(a, compute_uv=False), rtol)


def nullspace(a: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis (columns) of the right null space of ``a``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    _, s, vh = np.linalg.svd(a)
    r = _svd_rank(s, rtol)
    return vh[r:].T


def orthonormal_columns(vectors: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of the column span, rank-truncated by ``rtol``."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    return u[:, : _svd_rank(s, rtol)]


@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace of R^ambient_dim spanned by orthonormal columns."""

    ambient_dim: int
    basis: np.ndarray
    rtol: float = RANK_RTOL

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ValueError(f"basis shape {b.shape} does not match ambient dim {self.ambient_dim}")
        object.__setattr__(self, "basis", b)

    @staticmethod
    def from_spanning(vectors: np.ndarray, rtol: float = RANK_RTOL) -> "SubspaceBasis":
        """Build from a matrix whose columns span the subspace."""
        cols = np.asarray(vectors, dtype=float)
        if cols.ndim != 2:
            raise ValueError("matrix input must be 2-D with spanning columns")
        return SubspaceBasis(cols.shape[0], orthonormal_columns(cols, rtol), rtol)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, v: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ v)

    def residual(self, v: np.ndarray) -> float:
        """Norm of the component of ``v`` outside the subspace."""
        v = np.asarray(v, dtype=float)
        return float(np.linalg.norm(v - self.project(v)))

    def complement(self) -> "SubspaceBasis":
        """Orthogonal complement within the ambient space."""
        comp = nullspace(self.basis.T, self.rtol) if self.dim else np.eye(self.ambient_dim)
        return SubspaceBasis(self.ambient_dim, comp, self.rtol)

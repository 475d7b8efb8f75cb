"""Subspace bases with SVD rank decisions.

Every rank cut in crorbit counts the singular values above one pinned
relative threshold, sigma_i > RANK_RTOL * sigma_max (numerical rank; Golub &
Van Loan, *Matrix Computations*, 2.5). No call, field or scenario sets
another one, so the dimensions of tangent spaces, quotient representatives
and spans are all decided the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SubspaceBasis", "RANK_RTOL", "nullspace", "orthonormal_columns", "rank"]

RANK_RTOL = 1e-8


def _svd_rank(s: np.ndarray) -> np.ndarray:
    """The rank of each matrix of a stack from its singular values ``s`` (..., k), descending."""
    return np.sum(s > RANK_RTOL * s[..., :1], axis=-1)


def rank(a: np.ndarray) -> int:
    return int(_svd_rank(np.linalg.svd(a, compute_uv=False)))


def nullspace(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the right null space of ``a``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    _, s, vh = np.linalg.svd(a)
    r = _svd_rank(s)
    return vh[r:].T


def orthonormal_columns(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, rank-truncated at ``RANK_RTOL``."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    return u[:, : _svd_rank(s)]


@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace of R^ambient_dim spanned by orthonormal columns."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ValueError(f"basis shape {b.shape} does not match ambient dim {self.ambient_dim}")
        object.__setattr__(self, "basis", b)

    @staticmethod
    def from_spanning(vectors: np.ndarray) -> "SubspaceBasis":
        """Build from a matrix whose columns span the subspace."""
        cols = np.asarray(vectors, dtype=float)
        if cols.ndim != 2:
            raise ValueError("matrix input must be 2-D with spanning columns")
        return SubspaceBasis(cols.shape[0], orthonormal_columns(cols))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, v: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ v)

    def complement(self) -> "SubspaceBasis":
        """Orthogonal complement within the ambient space."""
        comp = nullspace(self.basis.T) if self.dim else np.eye(self.ambient_dim)
        return SubspaceBasis(self.ambient_dim, comp)

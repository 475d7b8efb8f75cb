"""Vector fields with expression coefficients: brackets, symbols, Hamiltonian lifts."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .expr import ExprDomainError, Jet, ScalarExpr, add, differentiate, mul, parse_expr, sub

__all__ = [
    "VectorFieldSpec",
    "CotangentPoint",
    "lie_bracket",
    "lie_bracket_field",
    "symbol",
    "hamiltonian_field",
]


@dataclass(frozen=True)
class VectorFieldSpec:
    """A vector field ``sum_j a_j(x) d/dx_j`` with expression coefficients."""

    coefficients: tuple[ScalarExpr, ...]
    dim: int

    def __post_init__(self):
        if len(self.coefficients) != self.dim:
            raise ValueError(
                f"field has {len(self.coefficients)} coefficients for dimension {self.dim}"
            )

    @staticmethod
    def parse(
        texts: Sequence[str],
        dim: int,
        aliases: Sequence[str] | None = None,
    ) -> "VectorFieldSpec":
        return VectorFieldSpec(
            tuple(parse_expr(t, dim, aliases) for t in texts), dim
        )

    @cached_property
    def _jet(self) -> Jet:
        return Jet(self.coefficients, self.dim)

    def values(self, x: Sequence[float]) -> np.ndarray:
        """a(x) as a length-``dim`` array."""
        return self.values_and_jacobian(x)[0]

    def values_and_jacobian(self, x: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """(a(x), Da(x)) with Da[j, k] = da_j/dx_k.

        Interpreted on first use, compiled on reuse (:class:`~crorbit.expr.Jet`):
        every call returns the field's one kernel's bits.
        """
        return self._jet.at(x)

    def values_and_jacobian_rows(
        self, X: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, dict[int, ExprDomainError]]:
        """(a, Da) at every row of ``X`` (B, dim): arrays (B, dim) and (B, dim, dim).

        Each row's numbers are those of :meth:`values_and_jacobian` at that
        row, bit for bit; the third item maps the rows where the field is
        undefined to their error.
        """
        (vals, jac), errors = self._jet.rows(X)
        return vals, jac, errors

    def scaled(self, factor: ScalarExpr) -> "VectorFieldSpec":
        """The field ``factor * X`` with symbolic coefficients."""
        return VectorFieldSpec(
            tuple(mul(factor, c) for c in self.coefficients), self.dim
        )


@dataclass(frozen=True)
class CotangentPoint:
    """A point (x, xi) of the cotangent bundle over R^dim."""

    x: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        if self.x.shape != self.xi.shape:
            raise ValueError("base point and covector dimensions differ")

    @property
    def dim(self) -> int:
        return self.x.shape[0]


def _check_dims(X: VectorFieldSpec, Y: VectorFieldSpec) -> None:
    if X.dim != Y.dim:
        raise ValueError(f"field dimensions differ: {X.dim} vs {Y.dim}")


def lie_bracket(X: VectorFieldSpec, Y: VectorFieldSpec, x: Sequence[float]) -> np.ndarray:
    """[X, Y](x) = DY(x)·X(x) - DX(x)·Y(x), from exact first derivatives."""
    _check_dims(X, Y)
    ax, jx = X.values_and_jacobian(x)
    ay, jy = Y.values_and_jacobian(x)
    return jy @ ax - jx @ ay


def lie_bracket_field(X: VectorFieldSpec, Y: VectorFieldSpec) -> VectorFieldSpec:
    """The bracket as a field with symbolic coefficients (for iterated brackets)."""
    _check_dims(X, Y)
    n = X.dim
    coeffs = []
    for j in range(n):
        term = None
        for k in range(n):
            t = sub(
                mul(X.coefficients[k], differentiate(Y.coefficients[j], k)),
                mul(Y.coefficients[k], differentiate(X.coefficients[j], k)),
            )
            term = t if term is None else add(term, t)
        coeffs.append(term)
    return VectorFieldSpec(tuple(coeffs), n)


def symbol(X: VectorFieldSpec, p: CotangentPoint) -> float:
    """sigma(X)(x, xi) = sum_j a_j(x) xi_j."""
    if X.dim != p.dim:
        raise ValueError(f"field dimension {X.dim} does not match point dimension {p.dim}")
    return float(X.values(p.x) @ p.xi)


def hamiltonian_field(X: VectorFieldSpec, p: CotangentPoint) -> tuple[np.ndarray, np.ndarray]:
    """Hamiltonian field of sigma(X) at (x, xi): (xdot, xidot) = (a(x), -Da(x)^T xi)."""
    if X.dim != p.dim:
        raise ValueError(f"field dimension {X.dim} does not match point dimension {p.dim}")
    a, jac = X.values_and_jacobian(p.x)
    return a, -(jac.T @ p.xi)


"""The local-model partial connection on a flattened submanifold.

Coordinates split as x = (x', x'') in R^l x R^m with the submanifold
N = {x'' = 0}.  A frame of fields tangent to N along N induces a covariant
derivative on the normal bundle (coordinates (x', eta'')) via Lie brackets
reduced mod TN.  Three equivalent transport descriptions are implemented:

* the horizontal-lift ODE  eta_j' = sum_k (da_j/dx_k)(x',0) eta_k,
* the differential of the flow of the field, projected to the normal block,
* the dual ODE on the conormal coordinates (x', xi'') with the transposed,
  negated coefficient matrix,

together with consistency checks against the restricted Hamiltonian field
of the symbol and against the connection axioms.

Each transport walks a :class:`FlowWord` over the chart frame leg by leg,
one frame field per leg, each leg from t = 0 where the last one ended.  At
the first leg whose field is not tangent to N where it starts, it raises
:class:`ChartValidationError` before integrating that leg.  A ``path`` has
one row at t = 0, then one per accepted step at the elapsed |t| along the word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .expr import (
    Const,
    Jet,
    ScalarExpr,
    Var,
    add,
    eval_values_and_jacobian,
    mul,
    substitute,
)
from .flow import FlowWord, IntegratorConfig, _integrate, flow
from .linalg import rank
from .vectorfield import VectorFieldSpec, lie_bracket

__all__ = [
    "ChartSetup",
    "NormalVector",
    "ConormalCovector",
    "ChartValidationError",
    "ChartReport",
    "validate_chart",
    "covariant_derivative",
    "covariant_derivative_via_bracket",
    "horizontal_transport",
    "flow_transport",
    "dual_transport",
    "curve_transport",
    "xhat_field",
    "restricted_hamiltonian",
    "hamiltonian_restriction_check",
    "connection_axioms_check",
]

TANGENCY_TOL = 1e-12


class ChartValidationError(Exception):
    """A chart setup violates tangency or frame-rank requirements."""


@dataclass(frozen=True)
class ChartSetup:
    """Local model: dimensions (l, m), N = {x'' = 0}, and a frame tangent to N."""

    l: int
    m: int
    frame: tuple[VectorFieldSpec, ...]

    def __post_init__(self):
        if self.l < 1 or self.m < 0:
            raise ValueError("need l >= 1 and m >= 0")
        n = self.l + self.m
        for f in self.frame:
            if f.dim != n:
                raise ValueError(f"frame field dimension {f.dim} != l + m = {n}")

    @property
    def dim(self) -> int:
        return self.l + self.m

    @property
    def rank(self) -> int:
        return len(self.frame)


@dataclass(frozen=True)
class NormalVector:
    """A point (x', eta'') of the normal bundle in flattened coordinates."""

    base: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float))


@dataclass(frozen=True)
class ConormalCovector:
    """A point (x', xi'') of the conormal bundle in flattened coordinates."""

    base: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))


@dataclass
class ChartReport:
    passed: bool
    max_tangency_violation: float
    rank_ok: bool
    first_failure: int | None = None  # 1-based field index, 0 for a rank failure


def _restricted(field: VectorFieldSpec, c: ChartSetup, xp: Sequence[float]):
    """(a(x',0), B) with B[j,k] = da_{l+j}/dx_{l+k}(x',0), the normal block."""
    x = np.concatenate((np.asarray(xp, dtype=float), np.zeros(c.m)))
    a, jac = field.values_and_jacobian(x)
    return a, jac[c.l:, c.l:]


def validate_chart(c: ChartSetup, xp: Sequence[float]) -> ChartReport:
    """Check K-tangency (|a_j(x',0)| <= TANGENCY_TOL for j > l) and frame rank at x'."""
    worst = 0.0
    first: int | None = None
    vecs = []
    for f_idx, f in enumerate(c.frame, start=1):
        a, _ = _restricted(f, c, xp)
        viol = float(np.max(np.abs(a[c.l:]), initial=0.0))
        worst = max(worst, viol)
        if viol > TANGENCY_TOL and first is None:
            first = f_idx
        vecs.append(a)
    rank_ok = not vecs or rank(np.column_stack(vecs)) == c.rank
    if not rank_ok and first is None:
        first = 0
    return ChartReport(worst <= TANGENCY_TOL and rank_ok, worst, rank_ok, first)


def _require_valid(c: ChartSetup, X: VectorFieldSpec, xp: Sequence[float]):
    """Raise unless X is tangent to N at x'; returns ``_restricted(X, c, xp)``."""
    a, b = _restricted(X, c, xp)
    viol = float(np.max(np.abs(a[c.l:]), initial=0.0))
    if viol > TANGENCY_TOL:
        raise ChartValidationError(
            f"field is not tangent to N at {np.asarray(xp)}: |a''| = {viol:.3e}"
        )
    return a, b


def covariant_derivative(
    c: ChartSetup,
    X: VectorFieldSpec,
    eta: Sequence[ScalarExpr],
    xp: Sequence[float],
) -> np.ndarray:
    """Covariant derivative of the section eta (m expressions of x') along X at x'.

    Component j of the result is
    sum_{k<=l} a_k(x',0) d(eta_j)/dx_k  -  sum_{k>l} eta_k(x') da_j/dx_k(x',0).
    """
    if len(eta) != c.m:
        raise ValueError(f"section has {len(eta)} components, chart has m = {c.m}")
    a, b = _require_valid(c, X, xp)
    eta_vals, grads = eval_values_and_jacobian(eta, c.l, np.asarray(xp, dtype=float).tolist())
    out = np.array([float(a[: c.l] @ g) for g in grads])
    return out - b @ eta_vals


def lift_section(c: ChartSetup, eta: Sequence[ScalarExpr]) -> VectorFieldSpec:
    """Canonical lift of a normal-bundle section to a field with zero x' part."""
    zeros = [Const(0.0)] * c.l
    return VectorFieldSpec(tuple(zeros) + tuple(eta), c.dim)


def covariant_derivative_via_bracket(
    c: ChartSetup,
    X: VectorFieldSpec,
    lift: VectorFieldSpec,
    xp: Sequence[float],
) -> np.ndarray:
    """[X, lift](x', 0) reduced mod TN (the defining formula for the connection)."""
    x_full = np.concatenate((np.asarray(xp, dtype=float), np.zeros(c.m)))
    return lie_bracket(X, lift, x_full)[c.l:]


def _walk_start(c: ChartSetup, word: FlowWord, x0p, v0) -> tuple[np.ndarray, np.ndarray]:
    """(x0', v0) as float arrays, after checking the word's indices and their shapes (l,), (m,)."""
    word.validate(c.rank)
    xp, v = np.asarray(x0p, dtype=float), np.asarray(v0, dtype=float)
    if (xp.shape, v.shape) != ((c.l,), (c.m,)):
        raise ValueError("point components do not match chart dimensions")
    return xp, v


def _transport_ode(
    c: ChartSetup,
    word: FlowWord,
    x0p: Sequence[float],
    v0: Sequence[float],
    cfg: IntegratorConfig,
    dual: bool,
    path: list | None,
):
    """Shared base/fiber ODE for horizontal (b v) and dual (-b^T v) transport."""
    l, m = c.l, c.m
    x = np.zeros(l + m)  # (x', 0): the base point on N

    def rhs(_t, y):
        x[:l] = y[:l]
        vals, jac = X.values_and_jacobian(x)
        b = jac[l:, l:]
        return np.concatenate((vals[:l], -(b.T @ y[l:]) if dual else b @ y[l:]))

    def on_step(tt, y):
        path.append((t_offset + abs(tt), y[:l].copy(), y[l:].copy()))

    y = np.concatenate(_walk_start(c, word, x0p, v0))
    if path is not None:
        path.append((0.0, y[:l].copy(), y[l:].copy()))
    t_offset = 0.0
    for idx, t in word.steps:
        X = c.frame[idx - 1]  # rhs reads the current leg's field
        _require_valid(c, X, y[:l])
        y = _integrate(rhs, t, y, cfg, on_step=None if path is None else on_step)
        t_offset += abs(t)
    return y[:l], y[l:]


def horizontal_transport(
    c: ChartSetup,
    word: FlowWord,
    x0p: Sequence[float],
    eta0: Sequence[float],
    cfg: IntegratorConfig = IntegratorConfig(),
    path: list | None = None,
) -> NormalVector:
    """Parallel transport along ``word`` by integrating the horizontal-lift field."""
    base, eta = _transport_ode(c, word, x0p, eta0, cfg, False, path)
    return NormalVector(base, eta)


def dual_transport(
    c: ChartSetup,
    word: FlowWord,
    x0p: Sequence[float],
    xi0: Sequence[float],
    cfg: IntegratorConfig = IntegratorConfig(),
    path: list | None = None,
) -> ConormalCovector:
    """Dual transport along ``word`` on the conormal bundle (integral curves of X-hat)."""
    base, xi = _transport_ode(c, word, x0p, xi0, cfg, True, path)
    return ConormalCovector(base, xi)


def flow_transport(
    c: ChartSetup,
    word: FlowWord,
    x0p: Sequence[float],
    eta0: Sequence[float],
    cfg: IntegratorConfig = IntegratorConfig(),
) -> NormalVector:
    """Transport eta0 by the differential of the flow of ``word``, reduced mod TN.

    Lifts eta0 to (0, eta0), pushes it through the flow differential from
    (x0', 0) and keeps the last m coordinates.  The word is walked leg by leg
    as in :func:`horizontal_transport`, and the leg differentials compose.
    """
    xp, eta = _walk_start(c, word, x0p, eta0)
    x = np.concatenate((xp, np.zeros(c.m)))
    d = np.eye(c.dim)
    for idx, t in word.steps:
        _require_valid(c, c.frame[idx - 1], x[: c.l])
        res = flow(c.frame[idx - 1], x, t, cfg)
        x, d = res.endpoint, np.matmul(res.differential, d)
    lifted = np.concatenate((np.zeros(c.l), eta))
    return NormalVector(x[: c.l], (d @ lifted)[c.l:])


def curve_transport(
    c: ChartSetup,
    weights: Callable[[float], Sequence[float]],
    x0p: Sequence[float],
    eta0: Sequence[float],
    t: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    *,
    experimental: bool = False,
) -> NormalVector:
    """Horizontal transport along the curve steered by time-dependent frame weights.

    The base curve solves x' = sum_i w_i(t) a^(i)(x', 0) and eta rides the
    corresponding linear ODE.  This extends transport beyond piecewise
    integral curves of single frame fields; it is exposed behind the
    ``experimental`` flag because its agreement with composed-flow transport
    is not asserted by the test suite.
    """
    if not experimental:
        raise ValueError("curve_transport is experimental; pass experimental=True")
    l, m = c.l, c.m
    x = np.zeros(l + m)  # (x', 0): the base point on N

    def rhs(tt, y):
        w = np.asarray(weights(tt), dtype=float)
        x[:l] = y[:l]
        out = np.zeros(l + m)
        for wi, field in zip(w, c.frame):
            if wi == 0.0:
                continue
            vals, jac = field.values_and_jacobian(x)
            out[:l] += wi * vals[:l]
            out[l:] += wi * (jac[l:, l:] @ y[l:])
        return out

    y0 = np.concatenate((np.asarray(x0p, dtype=float), np.asarray(eta0, dtype=float)))
    y = _integrate(rhs, t, y0, cfg)
    return NormalVector(y[:l], y[l:])


def _on_n(X: VectorFieldSpec, c: ChartSetup, xp, xi) -> tuple[np.ndarray, ...]:
    """xi'' and (a, Da) at (x', 0) for rows x' (B, l) and xi'' (B, m).

    One ``X.values_and_jacobian_rows`` call: one row is one
    ``X.values_and_jacobian`` call, and the first undefined row raises.
    """
    xp, xi = np.asarray(xp, dtype=float), np.asarray(xi, dtype=float)
    if xp.ndim != 2 or (xp.shape, xi.shape) != ((len(xp), c.l), (len(xp), c.m)):
        raise ValueError("sample rows do not match chart dimensions")
    x = np.concatenate((xp, np.zeros((len(xp), c.m))), axis=1)
    a, jac, errors = X.values_and_jacobian_rows(x)
    if errors:
        raise errors[min(errors)]
    return xi, a, jac


def xhat_field(
    c: ChartSetup, X: VectorFieldSpec, p: tuple[Sequence[float], Sequence[float]]
) -> np.ndarray:
    """Evaluate the conormal transport field at (x', xi''): (a'(x',0), -B^T xi'').

    ``p`` is B samples, rows x' (B, l) and xi'' (B, m); one point is one
    row.  Returns (l + m, B): components on axis 0, so ``out[c.l:]`` is the
    xi''-velocity of every sample.
    """
    xi, a, jac = _on_n(X, c, *p)
    xidot = -(np.swapaxes(jac[:, c.l:, c.l:], 1, 2) @ xi[..., None])[..., 0]
    return np.concatenate((a[:, : c.l], xidot), axis=1).T


def restricted_hamiltonian(
    c: ChartSetup, X: VectorFieldSpec, xp: Sequence[float], xi: Sequence[float]
):
    """Hamiltonian field of sigma(X) at ((x', 0), (0, xi'')), read in (x', xi'').

    Returns the (x', xi'') velocities and the tangency defect: the largest
    x''- or xi'-velocity, which vanishes when the field is tangent to the
    conormal bundle.  Rows x' (B, l) and xi'' (B, m) give velocities laid
    out as in :func:`xhat_field` and B defects.
    """
    xi, a, jac = _on_n(X, c, xp, xi)
    xi_full = np.concatenate((np.zeros((len(xi), c.l)), xi), axis=1)
    xidot = -(np.swapaxes(jac, 1, 2) @ xi_full[..., None])[..., 0]
    tangency = np.max(np.abs(np.concatenate((a[:, c.l:], xidot[:, : c.l]), axis=1)), axis=1)
    return np.concatenate((a[:, : c.l], xidot[:, c.l:]), axis=1).T, tangency


@dataclass
class RestrictionReport:
    max_tangency: float
    max_mismatch: float
    max_multiplier_mismatch: float


def hamiltonian_restriction_check(
    c: ChartSetup,
    X: VectorFieldSpec,
    xp: np.ndarray,
    xi: np.ndarray,
    multiplier: ScalarExpr,
) -> RestrictionReport:
    """Compare the restricted Hamiltonian field of the symbol with the conormal field.

    At each sample, rows x' (B, l) and xi'' (B, m), the Hamiltonian field of
    sigma(X), evaluated at the embedded cotangent point ((x', 0), (0, xi'')),
    must be tangent to the conormal bundle (x''-velocities and xi'-velocities
    vanish) and its (x', xi'') part must equal :func:`xhat_field`.  The scalar ``multiplier``
    on X must rescale the restricted field by its value on the base.
    """
    restricted, tangency = restricted_hamiltonian(c, X, xp, xi)
    mismatch = np.abs(restricted - xhat_field(c, X, (xp, xi)))
    x_full = np.concatenate((xp, np.zeros((len(xp), c.m))), axis=1)
    phi_val, errors = Jet((multiplier,), c.dim, partials=False).rows(x_full)
    if errors:
        raise errors[min(errors)]
    phi_restricted, _ = restricted_hamiltonian(c, X.scaled(multiplier), xp, xi)
    mult_mismatch = np.abs(phi_restricted - phi_val[:, 0] * restricted)
    worst = (float(np.max(v, initial=0.0)) for v in (tangency, mismatch, mult_mismatch))
    return RestrictionReport(*worst)


@dataclass
class AxiomsReport:
    max_scaling_residual: float
    max_leibniz_residual: float
    max_lifting_residual: float
    worst_axiom: str  # the axiom with the largest residual, first on ties


def connection_axioms_check(
    c: ChartSetup,
    X: VectorFieldSpec,
    eta: Sequence[ScalarExpr],
    phi: ScalarExpr,
    samples: Sequence[Sequence[float]],
) -> AxiomsReport:
    """Check tensoriality in X, the Leibniz rule and lifting independence.

    ``phi`` is a scalar on the ambient chart (l + m variables).  The lifting
    check compares the bracket definition computed with the canonical lift
    of ``eta`` against the same bracket with a field tangent to N along N
    added: x''-weighted normal components and a free x' component.
    """
    zero_map = {i: Const(0.0) for i in range(c.l, c.dim)}
    phi_on_n = substitute(phi, zero_map)
    phi_eta = [mul(phi_on_n, ej) for ej in eta]
    lift = lift_section(c, eta)
    perturbation = [Const(0.0)] * c.dim
    perturbation[0] = Var(0)
    for j in range(c.l, c.dim):
        perturbation[j] = mul(Var(c.l), Var(j))
    perturbed = VectorFieldSpec(
        tuple(add(a, b) for a, b in zip(lift.coefficients, perturbation)), c.dim
    )

    max_scale = max_leib = max_lift = 0.0
    for xp in samples:
        xp = np.asarray(xp, dtype=float)
        x_full = np.concatenate((xp, np.zeros(c.m))).tolist()
        base = covariant_derivative(c, X, eta, xp)

        (phi_val,), (phi_grad,) = eval_values_and_jacobian((phi,), c.dim, x_full)
        scaled = covariant_derivative(c, X.scaled(phi), eta, xp)
        r_scale = float(np.max(np.abs(scaled - phi_val * base), initial=0.0))

        a, _ = _restricted(X, c, xp)
        x_phi = float(a @ phi_grad)
        eta_vals, _ = eval_values_and_jacobian(eta, c.l, xp.tolist())
        leib_lhs = covariant_derivative(c, X, phi_eta, xp)
        r_leib = float(
            np.max(np.abs(leib_lhs - (phi_val * base + x_phi * eta_vals)), initial=0.0)
        )

        b0 = covariant_derivative_via_bracket(c, X, lift, xp)
        b1 = covariant_derivative_via_bracket(c, X, perturbed, xp)
        r_lift = float(np.max(np.abs(b1 - b0), initial=0.0))

        max_scale = max(max_scale, r_scale)
        max_leib = max(max_leib, r_leib)
        max_lift = max(max_lift, r_lift)

    residuals = (max_scale, max_leib, max_lift)
    worst_axiom = ("scaling", "leibniz", "lifting")[int(np.argmax(residuals))]
    return AxiomsReport(*residuals, worst_axiom)

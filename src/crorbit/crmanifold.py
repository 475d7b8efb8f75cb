"""Generic submanifolds of C^n: complex structure, tangent spaces, conormal forms.

The ambient space C^n is modelled as R^{2n} with interleaved coordinates
(x1, y1, ..., xn, yn), z_k = x_k + i y_k.  The complex structure J rotates
each (x_k, y_k) pair.  Holomorphic 1-forms omega = sum zeta_j dz_j pair
with real vectors through <omega, v> = sum_j zeta_j (v_{x_j} + i v_{y_j}).

Convention for real forms: a conormal form omega is represented on tangent
vectors by the real 1-form Re<omega, .>; with this choice the
transposedness identity between the restriction map and the
complex-structure isomorphism holds exactly and the image annihilates the
complex tangent space.

Every object built at a point presupposes that M is generic there (the
d rho_i / dz are C-independent).  One pass, :func:`_conormal_geometry`,
decides it, for one point or a batch of rows, from the two SVDs that also
give T_zM and T^c_zM; the tangent, complex-tangent and conormal spaces,
the genericity report and the Lemma 2.1 checks all read that pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .connection import ChartSetup, dual_transport, flow_transport, validate_chart
from .expr import ExprDomainError, Jet, ScalarExpr, parse_expr
from .flow import FlowWord, IntegratorConfig
from .linalg import SubspaceBasis, _svd_rank, nullspace, orthonormal_columns, rank
from .vectorfield import VectorFieldSpec

__all__ = [
    "EmbeddedManifold",
    "HolomorphicForm",
    "AdaptedChart",
    "ManifoldError",
    "PointNotOnManifoldError",
    "NonGenericPointError",
    "jmat",
    "apply_j",
    "to_complex",
    "pair_form",
    "theta_covector",
    "genericity_check",
    "GenericityReport",
    "tangent_space",
    "complex_tangent_space",
    "cr_frame",
    "conormal_fiber",
    "lemma21_check",
    "lemma21_residuals",
    "Lemma21Report",
    "theta_isomorphism_check",
    "validate_adapted_chart",
    "AdaptedChartReport",
    "e_fiber",
    "EFiber",
    "theta_transport",
    "ThetaTransportResult",
    "theta_star_transport",
    "ThetaStarTransportResult",
    "pair_e_estar",
]

ON_MANIFOLD_TOL = 1e-9
MEMBERSHIP_TOL = 1e-9  # tangent vectors and paired forms, relative to max(1, |v|)
CR_FRAME_TOL = 1e-10  # |d rho (X)| and |d rho (JX)| of a complex-tangent frame field
THETA_SV_MIN = 1e-8  # smallest singular value of the restricted conormal basis


class ManifoldError(Exception):
    """Base class for embedded-manifold failures."""


class PointNotOnManifoldError(ManifoldError):
    pass


class NonGenericPointError(ManifoldError):
    pass


def jmat(n: int) -> np.ndarray:
    """The complex structure on R^{2n}: J dx_k = dy_k, J dy_k = -dx_k."""
    j = np.zeros((2 * n, 2 * n))
    for k in range(n):
        j[2 * k + 1, 2 * k] = 1.0
        j[2 * k, 2 * k + 1] = -1.0
    return j


def apply_j(v: np.ndarray) -> np.ndarray:
    """J v, for vectors along the last axis."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0::2] = -v[..., 1::2]
    out[..., 1::2] = v[..., 0::2]
    return out


def to_complex(v: np.ndarray) -> np.ndarray:
    """(x_k + i y_k)_k, for vectors along the last axis."""
    v = np.asarray(v, dtype=float)
    return v[..., 0::2] + 1j * v[..., 1::2]


@dataclass(frozen=True)
class HolomorphicForm:
    """omega = sum_j zeta_j dz_j."""

    zeta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "zeta", np.asarray(self.zeta, dtype=complex))

    @property
    def n(self) -> int:
        return self.zeta.shape[0]


def pair_form(omega: HolomorphicForm, v: np.ndarray) -> complex:
    """<omega, v> for a real ambient vector v."""
    return complex(omega.zeta @ to_complex(v))


def theta_covector(omega: HolomorphicForm) -> np.ndarray:
    """Real covector r with r . v = Re<omega, v> for all real v; stacked forms stack r."""
    r = np.empty(omega.zeta.shape[:-1] + (2 * omega.zeta.shape[-1],))
    r[..., 0::2] = omega.zeta.real
    r[..., 1::2] = -omega.zeta.imag
    return r


def _off_manifold(resid: float, x: Sequence[float]) -> PointNotOnManifoldError:
    return PointNotOnManifoldError(
        f"|rho| = {resid:.3e} exceeds {ON_MANIFOLD_TOL:.1e} at {np.asarray(x)}"
    )


@dataclass(frozen=True)
class EmbeddedManifold:
    """M = {rho_1 = ... = rho_d = 0} in C^n, given by real defining functions."""

    n: int
    rho: tuple[ScalarExpr, ...]

    def __post_init__(self):
        if not self.rho:
            raise ValueError("need at least one defining function")

    @staticmethod
    def parse(
        n: int, texts: Sequence[str], aliases: Sequence[str] | None = None
    ) -> "EmbeddedManifold":
        return EmbeddedManifold(
            n, tuple(parse_expr(t, 2 * n, aliases) for t in texts)
        )

    @property
    def d(self) -> int:
        return len(self.rho)

    @property
    def ambient_dim(self) -> int:
        return 2 * self.n

    @property
    def dim(self) -> int:
        return 2 * self.n - self.d

    @property
    def cr_dim(self) -> int:
        return self.n - self.d

    @cached_property
    def _rho_probe(self) -> Jet:  # values only: retraction and drift read rho more than d rho
        return Jet(self.rho, 2 * self.n, partials=False)

    @cached_property
    def _rho_jet(self) -> Jet:
        return Jet(self.rho, 2 * self.n)

    def rho_values(self, x: Sequence[float]) -> np.ndarray:
        """rho(x), or ExprDomainError where rho is undefined (a division by zero, log <= 0)."""
        return self._rho_probe.at(x)

    def rho_jacobian(self, x: Sequence[float]) -> np.ndarray:
        """d rho(x) as a d x 2n matrix."""
        return self._rho_jet.at(x)[1]

    def rho_value_rows(self, X: np.ndarray) -> tuple[np.ndarray, dict[int, ExprDomainError]]:
        """rho at every row of ``X`` (B, 2n), each row one point's bits, and where undefined."""
        return self._rho_probe.rows(X)

    def rho_jacobian_rows(self, X: np.ndarray) -> tuple[np.ndarray, dict[int, ExprDomainError]]:
        """d rho at every row of ``X`` (B, 2n), each row one point's bits, and where undefined."""
        (_, jac), errors = self._rho_jet.rows(X)
        return jac, errors

    def require_on_manifold(self, x: Sequence[float]) -> None:
        resid = float(np.max(np.abs(self.rho_values(x))))
        if not resid <= ON_MANIFOLD_TOL:  # also true for a NaN residual
            raise _off_manifold(resid, x)


def _complex_differentials(jac: np.ndarray) -> np.ndarray:
    """The d x n complex matrices (d rho_i / d z_j) = 0.5 (d/dx_j - i d/dy_j) rho_i (..., d, n)."""
    return 0.5 * (jac[..., 0::2] - 1j * jac[..., 1::2])


@dataclass
class GenericityReport:
    real_rank: int
    complex_rank: int
    generic: bool


def _conormal_geometry(m: EmbeddedManifold, z: np.ndarray) -> tuple:
    """Everything crorbit builds at one point z (2n,) or at rows z (B, 2n), and where it fails.

    Returns T_zM bases (B, 2n, dim), T^c_zM bases (B, 2n, 2 cr_dim), the
    forms i d rho_k (B, d, n), the real and complex ranks of d rho (B,) each,
    and the errors: by row, what the point path raises there, checked in
    this order: rho undefined, z off M, d rho undefined, z not generic.  One
    point is a batch of one, whose first three errors raise at once.

    This is the one place genericity is decided.  One SVD of d rho gives
    T_zM and the real rank; one SVD of the stack [d rho; d rho o J] gives
    T^c_zM = TM cap J TM.  The stack is the realification of the complex
    d x n matrix 2 d rho / dz, so its singular values are that matrix's,
    each twice, and half its rank is the complex rank.  Stacked SVDs give
    each row the bits of one SVD per point.
    """
    if z.ndim == 1:
        m.require_on_manifold(z)
        jac, errors = m.rho_jacobian(z)[None], {}
    else:
        vals, errors = m.rho_value_rows(z)
        resid = np.max(np.abs(vals), axis=1)
        for k in np.flatnonzero(~(resid <= ON_MANIFOLD_TOL)).tolist():
            errors.setdefault(k, _off_manifold(resid[k], z[k]))
        jac, jac_undefined = m.rho_jacobian_rows(z)
        for k, exc in jac_undefined.items():
            errors.setdefault(k, exc)
        jac[list(errors)] = 0.0  # keeps the SVDs of the other rows finite
    _, s, vh = np.linalg.svd(jac)
    _, s_c, vh_c = np.linalg.svd(np.concatenate((jac, jac @ jmat(m.n)), axis=1))
    real_rank, complex_rank = _svd_rank(s), _svd_rank(s_c) // 2
    for k in np.flatnonzero((real_rank != m.d) | (complex_rank != m.d)).tolist():
        msg = (
            f"point is not generic: real rank {real_rank[k]}, "
            f"complex rank {complex_rank[k]}, codimension {m.d}"
        )
        errors.setdefault(k, NonGenericPointError(msg))
    tangent = np.swapaxes(vh[:, m.d:], 1, 2)
    complex_tangent = np.swapaxes(vh_c[:, 2 * m.d:], 1, 2)
    forms = 1j * _complex_differentials(jac)
    return tangent, complex_tangent, forms, real_rank, complex_rank, errors


def _generic_point(m: EmbeddedManifold, z: Sequence[float]) -> tuple:
    """Row 0 of :func:`_conormal_geometry` at the point z; raises unless z is generic."""
    *geometry, errors = _conormal_geometry(m, np.asarray(z))
    if errors:
        raise errors[0]
    return tuple(a[0] for a in geometry)


def genericity_check(m: EmbeddedManifold, z: Sequence[float]) -> GenericityReport:
    """Rank report at a point of M; generic iff the d rho_i are C-independent."""
    *_, real_rank, complex_rank, _ = _conormal_geometry(m, np.asarray(z))
    real, complex_ = int(real_rank[0]), int(complex_rank[0])
    return GenericityReport(real, complex_, complex_ == m.d)


def tangent_space(m: EmbeddedManifold, z: Sequence[float]) -> SubspaceBasis:
    """T_zM = ker(d rho) as an orthonormal-column basis."""
    return SubspaceBasis(m.ambient_dim, _generic_point(m, z)[0])


def complex_tangent_space(m: EmbeddedManifold, z: Sequence[float]) -> SubspaceBasis:
    """T^c_zM = ker(d rho) intersect ker(d rho o J); dimension 2(n - d)."""
    return SubspaceBasis(m.ambient_dim, _generic_point(m, z)[1])


def cr_frame(
    m: EmbeddedManifold,
    z: Sequence[float],
    frame: Sequence[VectorFieldSpec],
    samples: Sequence[Sequence[float]] | None = None,
) -> list[VectorFieldSpec]:
    """Verified frame of complex-tangent sections.

    The supplied ambient fields are checked to satisfy d rho (X) = 0 and
    d rho (J X) = 0 at z and the sample points (so X and JX are tangent: X
    is a section of T^c).
    """
    pts = [np.asarray(z, dtype=float)] + [np.asarray(s, dtype=float) for s in (samples or [])]
    for f_idx, x_field in enumerate(frame, start=1):
        if x_field.dim != m.ambient_dim:
            raise ValueError(f"frame field {f_idx} has dimension {x_field.dim}")
        for pt in pts:
            jac = m.rho_jacobian(pt)
            v = x_field.values(pt)
            worst = max(
                float(np.max(np.abs(jac @ v), initial=0.0)),
                float(np.max(np.abs(jac @ apply_j(v)), initial=0.0)),
            )
            if worst > CR_FRAME_TOL:
                raise ManifoldError(
                    f"frame field {f_idx} is not a complex-tangent section at "
                    f"{pt}: residual {worst:.3e}"
                )
    return list(frame)


def conormal_fiber(m: EmbeddedManifold, z: Sequence[float]) -> list[HolomorphicForm]:
    """Basis i * d rho_k of the holomorphic forms with Im<omega, TM> = 0."""
    return [HolomorphicForm(row) for row in _generic_point(m, z)[2]]


@dataclass
class Lemma21Report:
    complex_identity_residual: float
    real_convention_residual: float


def lemma21_check(
    m: EmbeddedManifold,
    z: Sequence[float],
    omega: HolomorphicForm,
    x_vec: Sequence[float],
) -> Lemma21Report:
    """Transposedness identities for a conormal form and a tangent vector.

    Checks <omega, JX> = i <omega, X> exactly and, under the Re-pairing
    convention for real forms, Im<omega, JX> = theta(omega) . X.
    """
    basis, *_, errors = _conormal_geometry(m, np.asarray(z, dtype=float))
    r1, r2 = _lemma21_rows(basis, omega.zeta[None], np.asarray(x_vec, dtype=float)[None], errors)
    return Lemma21Report(float(r1[0]), float(r2[0]))


def _lemma21_rows(basis: np.ndarray, zeta: np.ndarray, x_vec: np.ndarray, errors: dict) -> tuple:
    """:func:`lemma21_check` for forms ``zeta`` (B, n) and vectors ``x_vec`` (B, 2n).

    ``basis`` and ``errors`` come from :func:`_conormal_geometry`.  A vector off T_zM, then a
    form off the conormal fiber, fails its row; the first failing row raises.
    """
    x_col = x_vec[..., None]
    off_tm = np.linalg.norm((x_col - basis @ (np.swapaxes(basis, 1, 2) @ x_col))[..., 0], axis=1)
    scale = np.maximum(1.0, np.linalg.norm(x_vec, axis=1))
    for k in np.flatnonzero(off_tm > MEMBERSHIP_TOL * scale).tolist():
        errors.setdefault(k, ManifoldError("vector is not tangent to M at z"))
    im_tm = (to_complex(np.swapaxes(basis, 1, 2)) @ zeta[..., None]).imag
    im_on_tm = np.max(np.abs(im_tm), axis=(1, 2))
    for k in np.flatnonzero(im_on_tm > MEMBERSHIP_TOL).tolist():
        msg = f"form fails the conormal membership test: max |Im<omega, TM>| = {im_on_tm[k]:.3e}"
        errors.setdefault(k, ManifoldError(msg))
    if errors:
        raise errors[min(errors)]
    pairs = (zeta[:, None, :] @ to_complex(v)[..., None] for v in (apply_j(x_vec), x_vec))
    lhs, rhs = (p[:, 0, 0] for p in pairs)
    theta_x = (theta_covector(HolomorphicForm(zeta))[:, None, :] @ x_col)[:, 0, 0]
    return np.abs(lhs - 1j * rhs), np.abs(lhs.imag - theta_x)


def lemma21_residuals(
    m: EmbeddedManifold, z: Sequence[float], weights: np.ndarray, coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`lemma21_check` at B samples, at one point z (2n,) or at rows z (B, 2n).

    Sample k weights the :func:`conormal_fiber` basis by ``weights[k]`` and
    the orthonormal T_zM basis by ``coeffs[k]``.  Returns both residuals,
    (B,) each; the first failing sample raises what one point raises.
    """
    basis, _, forms, *_, errors = _conormal_geometry(m, np.asarray(z, dtype=float))
    zeta = sum(weights[:, k, None] * forms[:, k] for k in range(m.d))
    x_vec = (basis @ coeffs[..., None])[..., 0]
    return _lemma21_rows(basis, zeta, x_vec, errors)


def theta_isomorphism_check(m: EmbeddedManifold, z: Sequence[float]):
    """Smallest singular value of the conormal basis restricted to TM.

    The restriction is an isomorphism when it reaches :data:`THETA_SV_MIN`.
    One point z (2n,) gives a float, rows z (B, 2n) an array (B,).
    """
    z = np.asarray(z, dtype=float)
    basis, _, forms, *_, errors = _conormal_geometry(m, z)
    if errors:
        raise errors[min(errors)]
    theta = theta_covector(HolomorphicForm(forms))
    # one vector-matrix product per form: a matrix product rounds differently
    rows = np.concatenate([theta[:, k : k + 1] @ basis for k in range(m.d)], axis=1)
    sv = np.linalg.svd(rows, compute_uv=False)[:, -1]
    return float(sv[0]) if z.ndim == 1 else sv


# ---------------------------------------------------------------------------
# adapted charts, the quotient bundle E and its transported connection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdaptedChart:
    """Parameterization psi of M near a point with S = psi({x'' = 0}).

    ``psi`` maps R^{l+m} (l = dim S, l + m = dim M) into R^{2n}; the first l
    parameters run along S.
    """

    l: int
    m: int
    psi: tuple[ScalarExpr, ...]

    @property
    def dim(self) -> int:
        return self.l + self.m

    @cached_property
    def _psi(self) -> Jet:
        return Jet(self.psi, self.dim)

    def point_and_frame(self, u: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """(psi(u), d psi(u)) with the differential as a (2n) x (l+m) matrix."""
        return self._psi.at(u)


@dataclass
class AdaptedChartReport:
    passed: bool
    max_rho_residual: float
    min_rank: int


def validate_adapted_chart(
    m: EmbeddedManifold,
    chart: AdaptedChart,
    samples: Sequence[Sequence[float]],
) -> AdaptedChartReport:
    """psi must land on M and be an immersion at the sample parameters."""
    worst = 0.0
    min_rank = chart.dim
    for u in samples:
        pt, dpsi = chart.point_and_frame(u)
        worst = max(worst, float(np.max(np.abs(m.rho_values(pt)))))
        min_rank = min(min_rank, rank(dpsi))
    passed = worst <= ON_MANIFOLD_TOL and min_rank == chart.dim
    return AdaptedChartReport(passed, worst, min_rank)


@dataclass
class EFiber:
    """Representatives of E = TC^n / (TM + JTS) and the paired form space."""

    point: np.ndarray
    e_basis: SubspaceBasis
    estar_forms: list[HolomorphicForm]
    low_basis: SubspaceBasis  # TM + JTS
    tangent: SubspaceBasis  # TM at the point
    dpsi: np.ndarray  # d psi at (x', 0)

    @property
    def dim(self) -> int:
        return self.e_basis.dim


def e_fiber(m: EmbeddedManifold, chart: AdaptedChart, xp: Sequence[float]) -> EFiber:
    """Orthogonal-complement representatives of the quotient at psi(x', 0).

    The paired space of forms is cut out by Im<omega, TM> = 0 together with
    Re<omega, TS> = 0, solved as a real linear system in (Re zeta, Im zeta).
    """
    u = np.concatenate((np.asarray(xp, dtype=float), np.zeros(chart.m)))
    z, dpsi = chart.point_and_frame(u)
    tm = tangent_space(m, z)  # raises PointNotOnManifoldError off M
    ts = orthonormal_columns(dpsi[:, : chart.l])
    jts = np.column_stack([apply_j(ts[:, k]) for k in range(ts.shape[1])]) if ts.size else ts
    low = SubspaceBasis.from_spanning(np.hstack((tm.basis, jts)))
    e_basis = low.complement()
    # quotient dimension: codim - dim S + 2 CRdim; a mismatch means the chart
    # does not parameterize a CR submanifold of the expected type at this point
    expected = m.d - chart.l + 2 * m.cr_dim
    if e_basis.dim != expected:
        raise ManifoldError(
            f"quotient fiber has dimension {e_basis.dim}, expected {expected}; "
            "chart and manifold are inconsistent at this point"
        )

    # rows of the real system: coefficients on (Re zeta_1, Im zeta_1, ...)
    def im_row(v: np.ndarray) -> np.ndarray:
        w = to_complex(v)
        row = np.empty(2 * m.n)
        row[0::2] = w.imag
        row[1::2] = w.real
        return row

    def re_row(v: np.ndarray) -> np.ndarray:
        w = to_complex(v)
        row = np.empty(2 * m.n)
        row[0::2] = w.real
        row[1::2] = -w.imag
        return row

    rows = [im_row(tm.basis[:, k]) for k in range(tm.dim)]
    rows += [re_row(ts[:, k]) for k in range(ts.shape[1])]
    sols = nullspace(np.array(rows))
    forms = [
        HolomorphicForm(sols[0::2, k] + 1j * sols[1::2, k]) for k in range(sols.shape[1])
    ]
    return EFiber(z, e_basis, forms, low, tm, dpsi)


@dataclass
class ThetaTransportResult:
    endpoint_parameters: np.ndarray
    value: np.ndarray  # E-representative at the endpoint


def theta_transport(
    m: EmbeddedManifold,
    chart: AdaptedChart,
    frame_chart: Sequence[VectorFieldSpec],
    word: FlowWord,
    eta: Sequence[float],
    xp: Sequence[float],
    cfg: IntegratorConfig = IntegratorConfig(),
) -> ThetaTransportResult:
    """Transport an E-representative along a composed flow of chart frame fields.

    The class is pulled back through the complex-structure isomorphism to a
    normal-bundle class of S in M (solved in the ambient space), transported
    with the flow-differential description in the chart, pushed forward by J
    and reduced mod (TM + JTS) at the endpoint.
    """
    k_chart = ChartSetup(chart.l, chart.m, tuple(frame_chart))
    chart_rep = validate_chart(k_chart, [np.asarray(xp, dtype=float)])
    if not chart_rep.passed:
        raise ManifoldError(f"frame is not tangent to S in the chart: {chart_rep}")

    start = e_fiber(m, chart, xp)
    eta = np.asarray(eta, dtype=float)
    tm0 = start.tangent

    # solve J Y + c = eta with Y in TM, c in TM + JTS
    lhs = np.hstack(
        (
            np.column_stack([apply_j(tm0.basis[:, k]) for k in range(tm0.dim)]),
            start.low_basis.basis,
        )
    )
    coeffs, *_ = np.linalg.lstsq(lhs, eta, rcond=None)
    y_vec = tm0.basis @ coeffs[: tm0.dim]
    resid = float(np.linalg.norm(lhs @ coeffs - eta))
    if resid > 1e-8 * max(1.0, float(np.linalg.norm(eta))):
        raise ManifoldError(
            f"representative cannot be matched in J(TM) + (TM + JTS): residual {resid:.3e}"
        )

    # chart coordinates of the class of Y mod TS
    u_coords, *_ = np.linalg.lstsq(start.dpsi, y_vec, rcond=None)
    eta_chart = u_coords[chart.l:]

    moved = flow_transport(k_chart, word, np.asarray(xp, dtype=float), eta_chart, cfg=cfg)
    end = e_fiber(m, chart, moved.base)
    y_end = end.dpsi @ np.concatenate((np.zeros(chart.l), moved.eta))
    value = end.e_basis.project(apply_j(y_end))
    return ThetaTransportResult(moved.base, value)


@dataclass
class ThetaStarTransportResult:
    endpoint_parameters: np.ndarray
    value: HolomorphicForm


def pair_e_estar(omega: HolomorphicForm, theta_rep: np.ndarray) -> float:
    """The duality pairing between a form in the paired space and an E-representative."""
    return pair_form(omega, theta_rep).imag


def theta_star_transport(
    m: EmbeddedManifold,
    chart: AdaptedChart,
    frame_chart: Sequence[VectorFieldSpec],
    word: FlowWord,
    omega: HolomorphicForm,
    xp: Sequence[float],
    cfg: IntegratorConfig = IntegratorConfig(),
) -> ThetaStarTransportResult:
    """Transport a paired-space form along a composed flow (dual route).

    The form is restricted through the real-part convention to conormal
    coordinates of S in M (its x'-components vanish because the form kills
    both Im<.,TM> and Re<.,TS>), moved with the conormal transport ODE in
    the chart, and re-expressed in the paired-space basis at the endpoint.
    Pairings with :func:`theta_transport` values are conserved.
    """
    k_chart = ChartSetup(chart.l, chart.m, tuple(frame_chart))
    start = e_fiber(m, chart, xp)
    theta_r = theta_covector(omega)
    tangential = float(np.max(np.abs(theta_r @ start.dpsi[:, : chart.l]), initial=0.0))
    tm0 = start.tangent
    conormal_resid = max(
        abs(pair_form(omega, tm0.basis[:, k]).imag) for k in range(tm0.dim)
    )
    if max(tangential, conormal_resid) > MEMBERSHIP_TOL:
        raise ManifoldError(
            "form is not in the paired space at the base point: "
            f"residual {max(tangential, conormal_resid):.3e}"
        )
    xi_chart = theta_r @ start.dpsi[:, chart.l:]

    moved = dual_transport(k_chart, word, xp, xi_chart, cfg)
    end = e_fiber(m, chart, moved.base)
    columns = np.array(
        [theta_covector(w) @ end.dpsi[:, chart.l:] for w in end.estar_forms]
    ).T
    coeffs, *_ = np.linalg.lstsq(columns, moved.xi, rcond=None)
    value = HolomorphicForm(
        sum(c * w.zeta for c, w in zip(coeffs, end.estar_forms))
    )
    return ThetaStarTransportResult(moved.base, value)

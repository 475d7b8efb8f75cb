"""Numerical flows of vector fields and their differentials.

The integrator is an adaptive embedded Runge-Kutta 5(4) pair
(Dormand-Prince) with a PI step controller.  Flow differentials solve the
variational equation dM/dt = Da(x(t)) M, M(0) = I, integrated jointly with
the state so endpoint and differential share the same step sequence.
A flow runs along a word of frame fields, and a single field's flow is the
one-step word: :func:`composed_flow` is the one leg loop, integrating each
leg from (x, I) and composing the leg differentials by the chain rule.
Trajectories on embedded manifolds can be retracted back to the zero set of
the defining functions after every accepted step; the residual drift is
monitored and reported, never silently corrected beyond tolerance.

One step does its work once:

- First same as last (Dormand & Prince 1980; Hairer-Norsett-Wanner,
  *Solving ODEs I*, II.4-5): the seventh stage is evaluated at the
  fifth-order solution, so after an accepted step it is the next step's
  first derivative.  Only a step hook that moves the state (a retraction
  Newton step) costs a fresh evaluation.
- Finiteness is tested once per step: the first derivative is checked, and
  after that a non-finite stage shows up as a NaN error estimate, because
  every stage enters ``_ERR @ k`` (a zero weight times inf is NaN too).
- The drift at an accepted point is the residual :func:`retract` computed
  there; the defining functions are probed separately only for flows on a
  manifold without retraction, and once at the start of a word.

An expression undefined along the trajectory (``ExprDomainError``) ends the
flow with :class:`FlowDomainError`, whether the right-hand side or the step
hook met it: the hook is where retraction and the drift probe read rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .expr import ExprDomainError
from .vectorfield import VectorFieldSpec

__all__ = [
    "IntegratorConfig",
    "FlowWord",
    "FlowResult",
    "FlowError",
    "FlowBlowupError",
    "FlowDomainError",
    "RetractionError",
    "flow",
    "composed_flow",
    "retract",
]


class FlowError(Exception):
    """Base class for flow failures."""


class FlowBlowupError(FlowError):
    """Step size underflow or non-finite state: the trajectory blew up."""


class FlowDomainError(FlowError):
    """The trajectory left the domain of the field's coefficients."""


class RetractionError(FlowError):
    """Gauss-Newton retraction failed to converge."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Adaptive step control and retraction settings (retraction needs a manifold)."""

    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float = math.inf
    retract: bool = True
    retract_tol: float = 1e-12
    drift_bound: float = 1e-9

    def __post_init__(self):
        for name in ("rtol", "atol", "max_step", "retract_tol", "drift_bound"):
            if not getattr(self, name) > 0.0:  # NaN is not positive either
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class FlowWord:
    """A composed flow: apply field ``steps[0][0]`` for time ``steps[0][1]``, then the next.

    Field indices are 1-based into the active frame, matching the notation
    X_{1,t_1}, X_{2,t_2}, ... used for composed flows.
    """

    steps: tuple[tuple[int, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "steps", tuple((int(i), float(t)) for i, t in self.steps)
        )

    @staticmethod
    def of(*steps: tuple[int, float]) -> "FlowWord":
        return FlowWord(tuple(steps))

    @staticmethod
    def empty() -> "FlowWord":
        return FlowWord(())

    def inverse(self) -> "FlowWord":
        return FlowWord(tuple((i, -t) for i, t in reversed(self.steps)))

    def validate(self, frame_size: int) -> None:
        for i, _ in self.steps:
            if not 1 <= i <= frame_size:
                raise ValueError(f"field index {i} outside frame of size {frame_size}")

    def __len__(self) -> int:
        return len(self.steps)


@dataclass
class FlowResult:
    """Endpoint, flow differential and sampled trajectory of one (composed) flow."""

    endpoint: np.ndarray
    differential: np.ndarray
    trajectory: list[tuple[float, np.ndarray]]
    drift: float = 0.0
    drift_exceeded: bool = False


class _DefinedByEquations(Protocol):
    def rho_values(self, x: Sequence[float]) -> np.ndarray: ...

    def rho_jacobian(self, x: Sequence[float]) -> np.ndarray: ...


# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_ERR = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)

_MAX_STEPS = 500_000
_RETRACT_MAX_ITER = 25
_DOMAIN_EXCS = (ExprDomainError,)
_MIN_STEP = 16 * np.finfo(float).eps  # relative to max(|t|, 1)


def _rms(v: np.ndarray) -> float:
    """Root mean square; the same bits as ``np.sqrt(np.mean(v**2))``."""
    return math.sqrt(np.add.reduce(v * v) / v.shape[0])


def _initial_step(rhs, t0, y0, f0, direction, rtol, atol, max_step):
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * direction * f0
    f1 = rhs(t0 + h0 * direction, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, max_step)


def _domain_error(exc: Exception) -> FlowDomainError:
    return FlowDomainError(f"trajectory left the expression domain: {exc}")


# the finiteness tests below decide blow-ups, so numpy need not warn about inf/NaN
@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def _integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t_span: tuple[float, float],
    y0: np.ndarray,
    cfg: IntegratorConfig,
    on_step: Callable[[float, np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Adaptive RK5(4) from t_span[0] to t_span[1]; returns the final state.

    ``on_step(t, y)`` sees every accepted state and returns the state to
    continue from: the same array when it leaves the state alone, which lets
    the next step reuse the last stage's derivative.
    """
    t0, t1 = t_span
    for bound in (t0, t1):
        if not math.isfinite(bound):
            raise ValueError(f"integration time {bound} is not finite")
    if t1 == t0:
        return y0.copy()
    direction = 1.0 if t1 > t0 else -1.0
    atol, rtol, max_step = cfg.atol, cfg.rtol, cfg.max_step
    t = t0
    y = y0.astype(float).copy()

    def checked_rhs(tt, yy):
        try:
            f = rhs(tt, yy)
        except _DOMAIN_EXCS as exc:
            raise _domain_error(exc) from exc
        if not np.all(np.isfinite(f)):
            raise FlowBlowupError("non-finite derivative encountered")
        return f

    # k[0] always holds f(t, y); the stages fill k[1:]
    k = np.empty((7, y.shape[0]))
    k[0] = checked_rhs(t, y)
    h = _initial_step(checked_rhs, t, y, k[0], direction, rtol, atol, max_step)
    h = min(h, abs(t1 - t0))
    err_prev = 1.0
    for _ in range(_MAX_STEPS):
        if h < _MIN_STEP * max(abs(t), 1.0):
            raise FlowBlowupError(f"step size underflow at t = {t}")
        h = min(h, abs(t1 - t), max_step)
        dt = direction * h
        for i in range(1, 7):
            y_new = y + dt * (_A[i] @ k[:i])
            try:
                f = rhs(t + _C[i] * dt, y_new)
            except _DOMAIN_EXCS as exc:
                # a stage fed by a non-finite derivative is a blow-up, not a domain exit
                if not np.all(np.isfinite(k[:i])):
                    raise FlowBlowupError("non-finite derivative encountered") from exc
                raise _domain_error(exc) from exc
            k[i] = f
        # stage 6 is evaluated at the fifth-order solution (_A[6] is _B5 without
        # its zero last weight), so k[6] = f(t + dt, y_new)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = _rms(dt * (_ERR @ k) / scale)
        # every weight of _ERR @ k multiplies its stage, so a non-finite stage
        # makes err NaN: one test per step covers all seven derivatives
        if not math.isfinite(err) and not np.all(np.isfinite(k)):
            raise FlowBlowupError("non-finite derivative encountered")
        if err <= 1.0:
            t = t1 if abs(t1 - (t + dt)) < 1e-15 * max(abs(t1), 1.0) else t + dt
            try:
                y = y_new if on_step is None else on_step(t, y_new)
            except _DOMAIN_EXCS as exc:
                raise _domain_error(exc) from exc
            if not np.all(np.isfinite(y)):
                raise FlowBlowupError("non-finite state encountered")
            # PI controller (Gustafsson); err_prev only after an accepted step
            factor = 0.9 * err ** (-0.7 / 5) * err_prev ** (0.4 / 5) if err > 0 else 10.0
            err_prev = max(err, 1e-10)
            h *= min(10.0, max(0.2, factor))
            if t == t1 or abs(t1 - t) <= 1e-15 * max(abs(t1), 1.0):
                return y
            # first same as last: t is t + dt exactly here, so k[6] = f(t, y)
            # unless the hook moved the state
            k[0] = k[6] if y is y_new else checked_rhs(t, y)
        else:
            h *= max(0.2, 0.9 * err ** (-0.2))
    raise FlowBlowupError("step budget exhausted")


def retract(
    manifold: _DefinedByEquations,
    x: Sequence[float],
    tol: float,
) -> tuple[np.ndarray, float]:
    """Gauss-Newton projection of ``x`` onto the zero set of the defining functions.

    Each update is the minimal-norm Newton step dx = -J^T (J J^T)^{-1} rho(x),
    so the displacement is minimal to first order.  Returns the point and its
    residual max |rho|; a float array already within ``tol`` is returned
    itself, not a copy.  Raises :class:`RetractionError` outside the
    convergence basin.
    """
    y = np.asarray(x, dtype=float)
    for _ in range(_RETRACT_MAX_ITER):
        r = manifold.rho_values(y)
        resid = float(np.max(np.abs(r), initial=0.0))
        if resid <= tol:
            return y, resid
        jac = manifold.rho_jacobian(y)
        try:
            lam = np.linalg.solve(jac @ jac.T, r)
        except np.linalg.LinAlgError as exc:
            raise RetractionError(f"singular normal equations at {y}") from exc
        y = y - jac.T @ lam
        if not np.all(np.isfinite(y)):
            raise RetractionError("retraction diverged")
    raise RetractionError(
        f"no convergence to |rho| <= {tol} within {_RETRACT_MAX_ITER} iterations"
    )


def _drift_of(manifold: _DefinedByEquations | None, x: np.ndarray) -> float:
    if manifold is None:
        return 0.0
    return float(np.max(np.abs(manifold.rho_values(x)), initial=0.0))


def flow(
    X: VectorFieldSpec,
    x0: Sequence[float],
    t: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    manifold: _DefinedByEquations | None = None,
) -> FlowResult:
    """Flow ``x0`` along ``X`` for time ``t``: the one-step word of :func:`composed_flow`."""
    return composed_flow((X,), FlowWord.of((1, t)), x0, cfg, manifold)


def composed_flow(
    frame: Sequence[VectorFieldSpec],
    word: FlowWord,
    x0: Sequence[float],
    cfg: IntegratorConfig = IntegratorConfig(),
    manifold: _DefinedByEquations | None = None,
) -> FlowResult:
    """Apply the word's steps in order; each leg integrates from (x, I).

    Leg differentials compose by the chain rule.  Returns the endpoint, the
    word's differential, the trajectory at the elapsed |t| along the word and
    the maximal defining-function drift when a manifold is supplied.
    """
    word.validate(len(frame))
    x = np.array(x0, dtype=float)
    for dim in {frame[idx - 1].dim for idx, _ in word.steps}:
        if x.shape != (dim,):
            raise ValueError(f"initial point has shape {x.shape}, expected ({dim},)")
    n = x.shape[0]

    def rhs(_t, y):
        vals, jac = X.values_and_jacobian(y[:n])  # a zero-time leg compiles nothing
        out = np.empty(n + n * n)
        out[:n] = vals
        np.matmul(jac, y[n:].reshape(n, n), out=out[n:].reshape(n, n))
        return out

    retracting = cfg.retract and manifold is not None
    trajectory: list[tuple[float, np.ndarray]] = [(0.0, x.copy())]
    drift = _drift_of(manifold, x)  # later points are probed by on_step

    def on_step(tt, y):
        nonlocal drift
        pt = y[:n]
        if retracting:
            moved, resid = retract(manifold, pt, cfg.retract_tol)
            if moved is not pt:
                y = np.concatenate((moved, y[n:]))
        else:
            resid = _drift_of(manifold, pt)
        trajectory.append((t_offset + abs(tt), y[:n].copy()))
        drift = max(drift, resid)
        return y

    differential = np.eye(n)
    t_offset = 0.0
    for idx, t in word.steps:
        X = frame[idx - 1]  # rhs reads the current leg's field
        y = _integrate(rhs, (0.0, t), np.concatenate((x, np.eye(n).ravel())), cfg, on_step)
        x = y[:n]
        differential = y[n:].reshape(n, n) @ differential
        t_offset += abs(t)
    return FlowResult(x, differential, trajectory, drift, drift > cfg.drift_bound)

"""Numerical flows of vector fields and their differentials.

The integrator is an adaptive embedded Runge-Kutta 5(4) pair
(Dormand-Prince) with a PI step controller.  Flow differentials solve the
variational equation dM/dt = Da(x(t)) M, M(0) = I, integrated jointly with
the state so endpoint and differential share the same step sequence.
A flow runs along a word of frame fields, and a single field's flow is the
one-step word: :func:`composed_flow` is the one leg loop, integrating each
leg from (x, I) and composing the leg differentials by the chain rule.
A flow given a manifold is retracted back to the zero set of the defining
functions after every accepted step (to :data:`RETRACT_TOL`); the residual
drift is monitored and reported against :data:`DRIFT_BOUND`, never silently
corrected beyond tolerance.

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
  there; the defining functions are probed separately only once, at the
  start of a word.

An expression undefined along the trajectory (``ExprDomainError``) ends the
flow with :class:`FlowDomainError`, whether the right-hand side or rho met
it: at the start point's probe or in a step's retraction.

Many words at once: :func:`composed_flows` returns one result or error per
word.  A batch of one runs :func:`composed_flow`; two or more words (cut
into batches of :data:`MAX_BATCH`) run one lockstep loop over a (B, n + n^2)
state, in which every member keeps its own leg, t, h, err_prev, FSAL stage,
step count, differential, drift and trajectory, and fails alone.  The
choice depends on the batch size only: a lockstep step makes the same numpy
calls whatever B is, which pays for many members and loses for one.  Each
member gets exactly the bits :func:`composed_flow` gives for its word alone,
because every row operation rounds as the one-word operation it replaces:

- stage sums and the error estimate are ``np.matmul(_A[i], K[:, :i])`` and
  ``np.matmul(_ERR, K)``: a stacked matmul equals ``@`` slice by slice, as
  do the stacked ``Da M`` products and leg compositions (``np.einsum`` sums
  in another order);
- :func:`_rms` reduces the last axis, the same pairwise sum for one row or
  many;
- Python's ``**`` is ``np.float_power`` (the same libm ``pow``; an array
  ``x**2`` squares instead), and ``max``/``min`` are :func:`_max`/:func:`_min`,
  which keep Python's NaN order;
- the right-hand side and the rho probe evaluate rows with column kernels
  (:func:`~crorbit.expr.evaluate_rows`), which give each row its point
  kernel's bits or its error;
- one batched rho probe decides which accepted states are within
  :data:`RETRACT_TOL`; only the others run :func:`retract`, so a Newton
  step keeps its bits, and a state it moves re-evaluates its derivative;
- a zero-time leg evaluates nothing: its differential is I.

:func:`_initial_step` is written once, over rows; the one-word loop passes
one row.  Rows are grouped by their current field with a Python set
(``np.unique`` would import ``numpy.ma``).
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
    "composed_flows",
    "retract",
    "MAX_BATCH",
    "RETRACT_TOL", "DRIFT_BOUND",
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
    """Error tolerances of the adaptive step control.

    Retraction has no settings: see :data:`RETRACT_TOL` and :data:`DRIFT_BOUND`.
    """

    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        for name in ("rtol", "atol"):
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

    # rho at each row and the rows where undefined; only lockstep batches read it
    def rho_value_rows(self, X: np.ndarray) -> tuple[np.ndarray, dict[int, ExprDomainError]]: ...


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
RETRACT_TOL = 1e-12  # max |rho| an accepted point may keep without a Newton step
DRIFT_BOUND = 1e-9  # max |rho| along a flow before FlowResult.drift_exceeded is set
MAX_BATCH = 64  # lockstep members per batch: bounds the (B, 7, n + n^2) stage array
_RETRACT_MAX_ITER = 25
_DOMAIN_EXCS = (ExprDomainError,)
_MIN_STEP = 16 * np.finfo(float).eps  # relative to max(|t|, 1)


def _max(a, b):
    """Python's ``max(a, b)`` elementwise, NaN order included: ``b`` only where ``b > a``."""
    return np.where(b > a, b, a)


def _min(a, b):
    """Python's ``min(a, b)`` elementwise: ``b`` only where ``b < a``."""
    return np.where(b < a, b, a)


def _rms(v: np.ndarray) -> np.ndarray:
    """Root mean square of each row (last axis); the same bits as ``np.sqrt(np.mean(v**2))``."""
    return np.sqrt(np.add.reduce(v * v, axis=-1) / v.shape[-1])


def _initial_step(rhs, t0, y0, f0, direction, rtol, atol):
    """First step sizes (Hairer-Norsett-Wanner II.4) for the rows of ``y0``, ``f0`` (B, N).

    ``rhs(t, y)`` takes times (B,) and states (B, N).  Python's ``**``,
    ``max`` and ``min`` of the one-row original are ``np.float_power``,
    :func:`_max` and :func:`_min`, so every row gets the one-row bits.
    """
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    step = h0 * direction
    f1 = rhs(t0 + step, y0 + step[:, None] * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    h1 = np.where(
        (d1 <= 1e-15) & (d2 <= 1e-15),
        _max(1e-6, h0 * 1e-3),
        np.float_power(0.01 / _max(d1, d2), 0.2),
    )
    return _min(100 * h0, h1)


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
    atol, rtol = cfg.atol, cfg.rtol
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
    h = _initial_step(
        lambda tt, yy: checked_rhs(float(tt[0]), yy[0])[None],
        t, y[None], k[:1], direction, rtol, atol,
    )
    h = min(float(h[0]), abs(t1 - t0))
    err_prev = 1.0
    for _ in range(_MAX_STEPS):
        if h < _MIN_STEP * max(abs(t), 1.0):
            raise FlowBlowupError(f"step size underflow at t = {t}")
        h = min(h, abs(t1 - t))
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
        err = float(_rms(dt * (_ERR @ k) / scale))
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


def retract(manifold: _DefinedByEquations, x: Sequence[float]) -> tuple[np.ndarray, float]:
    """Gauss-Newton projection of ``x`` onto the zero set of the defining functions.

    Each update is the minimal-norm Newton step dx = -J^T (J J^T)^{-1} rho(x),
    so the displacement is minimal to first order.  Returns the point and its
    residual max |rho|; a float array already within :data:`RETRACT_TOL` is
    returned itself, not a copy.  Raises :class:`RetractionError` outside the
    convergence basin.
    """
    y = np.asarray(x, dtype=float)
    for _ in range(_RETRACT_MAX_ITER):
        r = manifold.rho_values(y)
        resid = float(np.max(np.abs(r), initial=0.0))
        if resid <= RETRACT_TOL:
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
        f"no convergence to |rho| <= {RETRACT_TOL} within {_RETRACT_MAX_ITER} iterations"
    )


def _start_drift(manifold: _DefinedByEquations | None, x: np.ndarray) -> float:
    """max |rho| at a word's start point; :class:`FlowDomainError` where rho is undefined."""
    if manifold is None:
        return 0.0
    try:
        return float(np.max(np.abs(manifold.rho_values(x)), initial=0.0))
    except _DOMAIN_EXCS as exc:
        raise _domain_error(exc) from exc


def flow(
    X: VectorFieldSpec,
    x0: Sequence[float],
    t: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    manifold: _DefinedByEquations | None = None,
) -> FlowResult:
    """Flow ``x0`` along ``X`` for time ``t``: the one-step word of :func:`composed_flow`."""
    return composed_flow((X,), FlowWord.of((1, t)), x0, cfg, manifold)


def _start_point(
    frame: Sequence[VectorFieldSpec], word: FlowWord, x0: Sequence[float]
) -> np.ndarray:
    """``x0`` as a new float array, after checking the word's indices and the point's shape."""
    word.validate(len(frame))
    x = np.array(x0, dtype=float)
    for dim in {frame[idx - 1].dim for idx, _ in word.steps}:
        if x.shape != (dim,):
            raise ValueError(f"initial point has shape {x.shape}, expected ({dim},)")
    return x


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
    x = _start_point(frame, word, x0)
    n = x.shape[0]

    def rhs(_t, y):
        vals, jac = X.values_and_jacobian(y[:n])  # a zero-time leg compiles nothing
        out = np.empty(n + n * n)
        out[:n] = vals
        np.matmul(jac, y[n:].reshape(n, n), out=out[n:].reshape(n, n))
        return out

    trajectory: list[tuple[float, np.ndarray]] = [(0.0, x.copy())]
    drift = _start_drift(manifold, x)  # later points are probed by their retraction

    def on_step(tt, y):
        nonlocal drift
        if manifold is not None:
            pt = y[:n]
            moved, resid = retract(manifold, pt)
            if moved is not pt:
                y = np.concatenate((moved, y[n:]))
            drift = max(drift, resid)
        trajectory.append((t_offset + abs(tt), y[:n].copy()))
        return y

    differential = np.eye(n)
    t_offset = 0.0
    for idx, t in word.steps:
        X = frame[idx - 1]  # rhs reads the current leg's field
        y = _integrate(rhs, (0.0, t), np.concatenate((x, np.eye(n).ravel())), cfg, on_step)
        x = y[:n]
        differential = y[n:].reshape(n, n) @ differential
        t_offset += abs(t)
    return FlowResult(x, differential, trajectory, drift, drift > DRIFT_BOUND)


def composed_flows(
    frame: Sequence[VectorFieldSpec],
    words: Sequence[FlowWord],
    x0s: Sequence[Sequence[float]],
    cfg: IntegratorConfig = IntegratorConfig(),
    manifold: _DefinedByEquations | None = None,
) -> list[FlowResult | FlowError]:
    """:func:`composed_flow` of each word from its start point: a result or the flow's error.

    Words run in lockstep batches of up to :data:`MAX_BATCH` members; a
    batch of one runs :func:`composed_flow` itself.  Every member gets
    exactly the bits :func:`composed_flow` gives for its word alone, and a
    failing member fails alone, with the error that call raises.  Bad input
    (a field index outside the frame, a start point of the wrong shape, a
    time that is not finite) raises ``ValueError`` before its batch runs.
    """
    words, x0s = list(words), list(x0s)
    if len(words) != len(x0s):
        raise ValueError(f"{len(words)} word(s) but {len(x0s)} start point(s)")
    out: list[FlowResult | FlowError] = []
    for lo in range(0, len(words), MAX_BATCH):
        chunk, starts = words[lo : lo + MAX_BATCH], x0s[lo : lo + MAX_BATCH]
        if len(chunk) > 1:
            out += _Lockstep(frame, chunk, starts, cfg, manifold).run()
            continue
        try:
            out.append(composed_flow(frame, chunk[0], starts[0], cfg, manifold))
        except FlowError as exc:
            out.append(exc)
    return out


def _caused(err: FlowError, exc: Exception) -> FlowError:
    """``err`` as ``raise err from exc`` leaves it."""
    err.__cause__ = exc
    return err


class _Lockstep:
    """One Dormand-Prince 5(4) loop for a batch of words, one row per running member.

    Each row carries its member's leg, t, h, err_prev, FSAL stage, step
    count, differential, elapsed time, drift and trajectory, and runs
    :func:`_integrate`'s arithmetic in its order; a member leaves the rows
    when its word ends or fails.  The right-hand side groups the rows by
    their current field.
    """

    _ROWS = ("ids", "leg", "field", "t", "t1", "h", "err_prev", "steps", "y", "k", "d",
             "t_offset", "drift", "gone")

    def __init__(self, frame, words, x0s, cfg, manifold):
        xs = [_start_point(frame, word, x0) for word, x0 in zip(words, x0s)]
        for word in words:
            for _, t in word.steps:
                if not math.isfinite(t):
                    raise ValueError(f"integration time {t} is not finite")
        if len({x.shape for x in xs}) != 1:
            raise ValueError("start points of one batch differ in shape")
        b, n = len(xs), xs[0].shape[0]
        self.frame, self.words, self.cfg, self.manifold, self.n = frame, words, cfg, manifold, n
        self.results: list[FlowResult | FlowError | None] = [None] * b
        self.trajectories = [[(0.0, x.copy())] for x in xs]
        self.ids = np.arange(b)
        self.leg = np.zeros(b, dtype=int)
        self.field = np.zeros(b, dtype=int)  # 0-based frame index of the current leg
        self.t, self.t1, self.h = np.zeros(b), np.zeros(b), np.zeros(b)
        self.err_prev = np.ones(b)
        self.steps = np.zeros(b, dtype=int)
        self.y = np.empty((b, n + n * n))
        self.y[:, :n] = xs
        self.k = np.empty((b, 7, n + n * n))
        self.d = np.broadcast_to(np.eye(n), (b, n, n)).copy()
        self.t_offset = np.zeros(b)
        self.drift = np.zeros(b)
        self.gone = np.zeros(b, dtype=bool)  # finished or failed, until the next _compact
        for r, x in enumerate(xs):  # run() drops the members whose start point fails
            try:
                self.drift[r] = _start_drift(manifold, x)
            except FlowDomainError as exc:
                self._fail(r, exc)

    @np.errstate(invalid="ignore", divide="ignore", over="ignore")
    def run(self) -> list[FlowResult | FlowError]:
        self._compact()
        self._start(np.arange(len(self.ids)))
        self._compact()
        while len(self.ids):
            self._step()
        return self.results

    # -- membership ---------------------------------------------------------

    def _fail(self, r: int, err: FlowError) -> None:
        if not self.gone[r]:
            self.results[self.ids[r]] = err
            self.gone[r] = True

    def _finish(self, r: int) -> None:
        drift = float(self.drift[r])
        self.results[self.ids[r]] = FlowResult(
            self.y[r, : self.n].copy(), self.d[r].copy(), self.trajectories[self.ids[r]],
            drift, drift > DRIFT_BOUND,
        )
        self.gone[r] = True

    def _compact(self, *local: np.ndarray) -> list[np.ndarray]:
        """Drop the gone rows from the state and from the row arrays ``local``."""
        if not self.gone.any():
            return list(local)
        keep = ~self.gone
        for name in self._ROWS:
            setattr(self, name, getattr(self, name)[keep])
        return [a[keep] for a in local]

    # -- right-hand side ----------------------------------------------------

    def _groups(self, rows) -> list[tuple[int, np.ndarray | slice]]:
        """``rows`` by current field: (0-based field index, positions in ``rows``)."""
        fields = self.field[rows]
        distinct = set(fields.tolist())
        if len(distinct) == 1:
            return [(distinct.pop(), slice(None))]
        return [(f, np.flatnonzero(fields == f)) for f in distinct]

    def _rhs(self, groups, ys: np.ndarray) -> tuple[np.ndarray, dict[int, ExprDomainError]]:
        """(a(x), Da(x) M) at the states ``ys``, field by field, and the rows where undefined."""
        n, b = self.n, len(ys)
        out = np.empty_like(ys)
        jac = np.empty((b, n, n))
        errors: dict[int, ExprDomainError] = {}
        for f, sel in groups:
            try:
                out[sel, :n], jac[sel], errs = self.frame[f].values_and_jacobian_rows(ys[sel, :n])
            except _DOMAIN_EXCS as exc:  # the field's code cannot be generated
                errs = dict.fromkeys(range(len(jac[sel])), exc)
            if errs:
                positions = np.arange(b)[sel]
                errors.update((int(positions[j]), exc) for j, exc in errs.items())
        out[:, n:] = np.matmul(jac, ys[:, n:].reshape(b, n, n)).reshape(b, n * n)
        return out, errors

    def _checked_rhs(self, rows: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """:meth:`_rhs` under ``checked_rhs``'s contract: a failing row fails its member."""
        out, errors = self._rhs(self._groups(rows), ys)
        for j, exc in errors.items():
            self._fail(rows[j], _caused(_domain_error(exc), exc))
        for j in np.flatnonzero(~np.isfinite(out).all(axis=1)).tolist():
            self._fail(rows[j], FlowBlowupError("non-finite derivative encountered"))
        return out

    # -- legs ----------------------------------------------------------------

    def _start(self, rows: np.ndarray) -> None:
        """Start each row's next leg; a row past its word's last leg finishes.

        A zero-time leg evaluates nothing: its differential is I.
        """
        n, eye = self.n, np.eye(self.n).ravel()
        real = []
        while len(rows):
            zero = []
            for r in rows.tolist():
                steps = self.words[self.ids[r]].steps
                if self.leg[r] == len(steps):
                    self._finish(r)
                    continue
                idx, t = steps[self.leg[r]]
                self.y[r, n:] = eye
                self.field[r], self.t1[r] = idx - 1, t
                (real if t != 0.0 else zero).append(r)
            rows = np.array(zero, dtype=int)
            self._compose(rows)
        if real:
            self._begin(np.array(real))

    def _compose(self, rows: np.ndarray) -> None:
        """End the current leg of ``rows``: the chain rule, the elapsed time, the next leg."""
        n = self.n
        self.d[rows] = np.matmul(self.y[rows, n:].reshape(-1, n, n), self.d[rows])
        self.t_offset[rows] += np.abs(self.t1[rows])
        self.leg[rows] += 1

    def _begin(self, rows: np.ndarray) -> None:
        """First derivative and first step size of the legs ``rows`` start at t = 0."""
        self.t[rows], self.steps[rows], self.err_prev[rows] = 0.0, 0, 1.0
        ys = self.y[rows]
        f0 = self.k[rows, 0] = self._checked_rhs(rows, ys)
        live = ~self.gone[rows]
        rows, ys, f0 = rows[live], ys[live], f0[live]
        if not len(rows):
            return
        t1 = self.t1[rows]
        h = _initial_step(
            lambda _t, y1: self._checked_rhs(rows, y1), 0.0, ys, f0,
            np.where(t1 > 0, 1.0, -1.0), self.cfg.rtol, self.cfg.atol,
        )
        self.h[rows] = _min(h, np.abs(t1))

    # -- one step of every row ----------------------------------------------

    def _step(self) -> None:
        cfg = self.cfg
        for r in np.flatnonzero(self.steps >= _MAX_STEPS).tolist():
            self._fail(r, FlowBlowupError("step budget exhausted"))
        for r in np.flatnonzero(self.h < _MIN_STEP * _max(np.abs(self.t), 1.0)).tolist():
            self._fail(r, FlowBlowupError(f"step size underflow at t = {float(self.t[r])}"))
        self._compact()
        if not len(self.ids):
            return
        self.h = _min(self.h, np.abs(self.t1 - self.t))
        dt = np.where(self.t1 > 0, self.h, -self.h)
        groups = self._groups(slice(None))  # the field of a row is fixed within a step
        for i in range(1, 7):
            ys = self.y + dt[:, None] * np.matmul(_A[i], self.k[:, :i])
            f, errors = self._rhs(groups, ys)
            self.k[:, i] = f
            for r, exc in errors.items():
                # a stage fed by a non-finite derivative is a blow-up, not a domain exit
                if np.isfinite(self.k[r, :i]).all():
                    self._fail(r, _caused(_domain_error(exc), exc))
                else:
                    blowup = FlowBlowupError("non-finite derivative encountered")
                    self._fail(r, _caused(blowup, exc))
            if errors:
                dt, ys = self._compact(dt, ys)
                groups = self._groups(slice(None))
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(self.y), np.abs(ys))
        err = _rms(dt[:, None] * np.matmul(_ERR, self.k) / scale)
        for r in np.flatnonzero(~np.isfinite(err)).tolist():
            if not np.isfinite(self.k[r]).all():
                self._fail(r, FlowBlowupError("non-finite derivative encountered"))
        dt, ys, err = self._compact(dt, ys, err)
        self.steps += 1
        rejected = ~(err <= 1.0)
        self.h[rejected] *= _max(0.2, 0.9 * np.float_power(err[rejected], -0.2))
        a = np.flatnonzero(~rejected)
        if len(a):
            self._accept(a, ys[a], err[a], dt[a])
        self._compact()

    def _accept(self, a: np.ndarray, ya: np.ndarray, err: np.ndarray, dt: np.ndarray) -> None:
        t1 = self.t1[a]
        t = self.t[a] + dt
        t = self.t[a] = np.where(np.abs(t1 - t) < 1e-15 * _max(np.abs(t1), 1.0), t1, t)
        moved = self._on_step(a, ya)
        self.y[a] = ya
        for j in np.flatnonzero(~np.isfinite(ya).all(axis=1)).tolist():
            self._fail(a[j], FlowBlowupError("non-finite state encountered"))
        # PI controller (Gustafsson); err_prev only after an accepted step
        factor = np.where(
            err > 0,
            0.9 * np.float_power(err, -0.7 / 5) * np.float_power(self.err_prev[a], 0.4 / 5),
            10.0,
        )
        self.err_prev[a] = _max(err, 1e-10)
        self.h[a] *= _min(10.0, _max(0.2, factor))
        done = (t == t1) | (np.abs(t1 - t) <= 1e-15 * _max(np.abs(t1), 1.0))
        # first same as last, unless the retraction moved the state
        same = a[~done & ~moved]
        self.k[same, 0] = self.k[same, 6]
        fresh = a[~done & moved & ~self.gone[a]]
        if len(fresh):
            self.k[fresh, 0] = self._checked_rhs(fresh, self.y[fresh])
        ended = a[done & ~self.gone[a]]
        if len(ended):
            self._compose(ended)
            self._start(ended)

    def _on_step(self, a: np.ndarray, ya: np.ndarray) -> np.ndarray:
        """``composed_flow``'s step hook for the accepted states ``ya`` of rows ``a``.

        One batched rho probe decides which states are within
        :data:`RETRACT_TOL`; only the others run :func:`retract`, so a Newton
        step keeps its bits.  Moves states in place, updates drift and
        trajectories, and returns the mask of moved states.
        """
        n, m = self.n, self.manifold
        moved = np.zeros(len(a), dtype=bool)
        if m is not None:
            rho, errors = m.rho_value_rows(ya[:, :n])
            resid = np.max(np.abs(rho), axis=1, initial=0.0)
            for j, exc in errors.items():
                self._fail(a[j], _caused(_domain_error(exc), exc))
            for j in np.flatnonzero(~(resid <= RETRACT_TOL)):
                if j in errors:
                    continue
                try:
                    point, resid[j] = retract(m, ya[j, :n])
                except _DOMAIN_EXCS as exc:
                    self._fail(a[j], _caused(_domain_error(exc), exc))
                    continue
                except FlowError as exc:
                    self._fail(a[j], exc)
                    continue
                ya[j, :n] = point
                moved[j] = True
            self.drift[a] = _max(self.drift[a], resid)
        times = (self.t_offset[a] + np.abs(self.t[a])).tolist()
        for member, time, point in zip(self.ids[a].tolist(), times, ya[:, :n].copy()):
            self.trajectories[member].append((time, point))
        return moved

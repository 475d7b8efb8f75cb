"""Numerical flows of vector fields and their differentials.

The integrator is an adaptive embedded Runge-Kutta 5(4) pair
(Dormand-Prince) with a PI step controller.  Flow differentials solve the
variational equation dM/dt = Da(x(t)) M, M(0) = I, integrated jointly with
the state so endpoint and differential share the same step sequence.
A flow runs along a word of frame fields, each leg from (x, I), and the leg
differentials compose by the chain rule.  A flow given a manifold is
retracted back to the zero set of the defining functions after every
accepted step (to :data:`RETRACT_TOL`); the residual drift is monitored and
reported against :data:`DRIFT_BOUND`, never silently corrected beyond
tolerance.

Every flow of frame fields runs in one loop, :class:`_Lockstep`:
:func:`composed_flows` cuts its words into batches of :data:`MAX_BATCH`,
:func:`composed_flow` is a batch of one word and :func:`flow` the one-step
word.  The loop runs over a (B, n + n^2) state, in which every member keeps
its own leg, t, h, err_prev, FSAL stage, step count, differential, drift and
trajectory, and fails alone.  A step's arithmetic is stacked over the
members, a fixed number of numpy calls that each grow a little with B; each
member's step control is a few Python float operations.  A member gets the
same bits in a batch of any size, because every row operation rounds as the
operation on that row alone:

- stage sums and the error estimate are ``np.matmul(_A[i], K[:, :i])`` and
  ``np.matmul(_ERR, K)``: a stacked matmul equals ``@`` slice by slice, as
  do the stacked ``Da M`` products and leg compositions (``np.einsum`` sums
  in another order);
- :func:`_rms` reduces the last axis, the same pairwise sum for one row or
  many;
- the step control is :func:`_integrate`'s Python float arithmetic, run
  member by member;
- the right-hand side and the rho probe evaluate rows with column kernels
  (:func:`~crorbit.expr.evaluate_rows`), which give each row its point
  kernel's bits or its error; a field that one member flows, and a probe
  of one state, call the point kernel itself (:meth:`~crorbit.expr.Jet.rows`);
- one batched rho probe decides which accepted states are within
  :data:`RETRACT_TOL`; only the others take :func:`retract`'s Newton steps,
  from that probe, so a Newton step keeps its bits;
- a zero-time leg evaluates nothing: its differential is I.

One step does its work once:

- First same as last (Dormand & Prince 1980; Hairer-Norsett-Wanner,
  *Solving ODEs I*, II.4-5): the seventh stage is evaluated at the
  fifth-order solution, so after an accepted step it is the next step's
  first derivative.  Only a state moved by a retraction's Newton steps
  costs a fresh evaluation.
- Finiteness is tested once per step: the first derivative is checked, and
  after that a non-finite stage shows up as a NaN error estimate, because
  every stage enters ``_ERR @ k`` (a zero weight times inf is NaN too).
- The drift at an accepted point is the residual of its retraction; the
  defining functions are probed separately only once, at the start of a
  word.

An expression undefined along the trajectory (``ExprDomainError``) ends the
flow with :class:`FlowDomainError`, whether the right-hand side or rho met
it: at the start point's probe or in a step's retraction.

:func:`_integrate` is the same step for one state without a manifold, whose
step hook only observes; it integrates the transport ODEs of
:mod:`crorbit.connection` and the symbol check of :mod:`crorbit.verify`.
:func:`_initial_step` is written once, over rows; :func:`_integrate` passes
one row.  Its norms are stacked :func:`_rms` reductions, and the rest is
each row's Python float arithmetic.
The lockstep keeps its rows sorted by current field, so each field's rows
are one slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
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

    # rho at each row and the rows where undefined: a flow's start and step probes
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
# lockstep members per batch: bounds the (B, 7, n + n^2) stage array (301 KB at dim 6),
# and holds an orbit run's post-search words, a certificate's few, 9 span and 60 cloud words
MAX_BATCH = 128
_RETRACT_MAX_ITER = 25
_DOMAIN_EXCS = (ExprDomainError,)
_MIN_STEP = 16 * np.finfo(float).eps  # relative to max(|t|, 1)


def _rms(v: np.ndarray) -> np.ndarray:
    """Root mean square of each row (last axis); the same bits as ``np.sqrt(np.mean(v**2))``."""
    return np.sqrt(np.add.reduce(v * v, axis=-1) / v.shape[-1])


def _initial_step(rhs, t0, y0, f0, directions, rtol, atol) -> list[float]:
    """First step sizes (Hairer-Norsett-Wanner II.4) for the rows of ``y0``, ``f0`` (B, N).

    ``rhs(t, y)`` takes times (B,) and states (B, N); ``directions`` holds
    each row's sign of time.  The norms are stacked :func:`_rms` reductions;
    the rest is each row's Python float arithmetic, with only the chosen
    branch evaluated, so a row gets the bits of one row alone.  Its power
    is ``np.float_power``, the libm ``pow`` (an array ``x**2`` squares
    instead).
    """
    scale = atol + np.abs(y0) * rtol
    d0s, d1s = _rms(y0 / scale).tolist(), _rms(f0 / scale).tolist()
    h0s = [1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1 for d0, d1 in zip(d0s, d1s)]
    step = np.multiply(h0s, directions)
    f1 = rhs(t0 + step, y0 + step[:, None] * f0)
    out, powered, quotients = [], [], []
    for h0, d1, r in zip(h0s, d1s, _rms((f1 - f0) / scale).tolist()):
        d2 = r / h0 if h0 else (math.inf if r > 0 else math.nan)  # numpy's r / 0.0
        if d1 <= 1e-15 and d2 <= 1e-15:
            out.append(min(100 * h0, max(1e-6, h0 * 1e-3)))
            continue
        d = max(d1, d2)  # d1 if d2 is NaN, so d may be 0.0: numpy's quotient is inf
        powered.append(len(out))
        quotients.append(0.01 / d if d else math.copysign(math.inf, d))
        out.append(100 * h0)
    for i, h1 in zip(powered, np.float_power(quotients, 0.2).tolist()):
        out[i] = min(out[i], h1)
    return out


def _domain_error(exc: Exception) -> FlowDomainError:
    return FlowDomainError(f"trajectory left the expression domain: {exc}")


# the finiteness tests below decide blow-ups, so numpy need not warn about inf/NaN
@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def _integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t_span: tuple[float, float],
    y0: np.ndarray,
    cfg: IntegratorConfig,
    on_step: Callable[[float, np.ndarray], object] | None = None,
) -> np.ndarray:
    """Adaptive RK5(4) from t_span[0] to t_span[1]; returns the final state.

    ``on_step(t, y)`` sees every accepted state and leaves it alone: the next
    step reuses the last stage's derivative there.
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
    [h] = _initial_step(
        lambda tt, yy: checked_rhs(float(tt[0]), yy[0])[None],
        t, y[None], k[:1], [direction], rtol, atol,
    )
    h = min(h, abs(t1 - t0))
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
            y = y_new
            if on_step is not None:
                on_step(t, y)
            if not np.all(np.isfinite(y)):
                raise FlowBlowupError("non-finite state encountered")
            # PI controller (Gustafsson); err_prev only after an accepted step
            factor = 0.9 * err ** (-0.7 / 5) * err_prev ** (0.4 / 5) if err > 0 else 10.0
            err_prev = max(err, 1e-10)
            h *= min(10.0, max(0.2, factor))
            if t == t1 or abs(t1 - t) <= 1e-15 * max(abs(t1), 1.0):
                return y
            k[0] = k[6]  # first same as last: t is t + dt exactly here, so k[6] = f(t, y)
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
    return _newton(manifold, y, manifold.rho_values(y))


def _newton(
    manifold: _DefinedByEquations, y: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, float]:
    """:func:`retract` from ``y``, a float array whose rho ``r`` the caller has already probed."""
    for i in range(_RETRACT_MAX_ITER):
        if i:
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
    """``x0`` as a new float array, after checking the word's indices and the point's shape.

    The shape is checked against every frame field, also for the empty word.
    """
    word.validate(len(frame))
    x = np.array(x0, dtype=float)
    for dim in {field.dim for field in frame}:
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
    """Apply the word's steps in order: a lockstep batch of this one word.

    Each leg integrates from (x, I), and the leg differentials compose by the
    chain rule.  Returns the endpoint, the word's differential, the
    trajectory at the elapsed |t| along the word and the maximal
    defining-function drift when a manifold is supplied; raises the
    :class:`FlowError` that ends the flow.
    """
    [res] = _Lockstep(frame, [word], [x0], cfg, manifold).run()
    if isinstance(res, FlowError):
        raise res
    return res


def composed_flows(
    frame: Sequence[VectorFieldSpec],
    words: Sequence[FlowWord],
    x0s: Sequence[Sequence[float]],
    cfg: IntegratorConfig = IntegratorConfig(),
    manifold: _DefinedByEquations | None = None,
) -> list[FlowResult | FlowError]:
    """:func:`composed_flow` of each word from its start point: a result or the flow's error.

    Words run in lockstep batches of up to :data:`MAX_BATCH` members.  Every
    member gets the bits of its word flowed alone, in a batch of one, and a
    failing member fails alone, with the error :func:`composed_flow` raises
    for it.  Bad input (a field index outside the frame, a start point whose
    shape is not the frame's, a time that is not finite) raises
    ``ValueError`` before its batch runs.
    """
    words, x0s = list(words), list(x0s)
    if len(words) != len(x0s):
        raise ValueError(f"{len(words)} word(s) but {len(x0s)} start point(s)")
    out: list[FlowResult | FlowError] = []
    for lo in range(0, len(words), MAX_BATCH):
        chunk, starts = words[lo : lo + MAX_BATCH], x0s[lo : lo + MAX_BATCH]
        out += _Lockstep(frame, chunk, starts, cfg, manifold).run()
    return out


def _caused(err: FlowError, exc: Exception) -> FlowError:
    """``err`` as ``raise err from exc`` leaves it."""
    err.__cause__ = exc
    return err


class _Lockstep:
    """One Dormand-Prince 5(4) loop for a batch of words, one row per running member.

    The numerics are stacked: the states ``y`` (B, n + n^2), the stages ``k``
    (B, 7, n + n^2) and the differentials ``d`` (B, n, n) hold one row per
    running member, in the order of ``rows`` (member indices).  The step
    control is Python floats per member, indexed by member: leg, field, t,
    t1, h, err_prev, the step count at which the leg began, elapsed time,
    drift and trajectory.  Each member runs :func:`_integrate`'s scalar
    arithmetic in its order, so control costs a few Python operations per
    member and no numpy call, and a step where nothing fails, is rejected
    or is retracted pays one Python test per member for those branches.
    A member leaves the rows when its word ends or fails.  The rows are
    kept in the order of their current field, so the right-hand side
    evaluates each field's rows as one slice.
    """

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
        self.rows = list(range(b))  # the running members, one per array row
        self.leg, self.field, self.begun = [0] * b, [0] * b, [0] * b
        self.t, self.t1, self.h, self.err_prev = [0.0] * b, [0.0] * b, [0.0] * b, [1.0] * b
        self.direction, self.t_tol = [1.0] * b, [0.0] * b  # sign of t1; where t reaches t1
        self.t_offset, self.drift = [0.0] * b, [0.0] * b
        self.count = 0  # steps taken by the loop; a member's leg has taken count - begun
        self.y = np.empty((b, n + n * n))
        self.y[:, :n] = xs
        self.k = np.empty((b, 7, n + n * n))
        self.d = np.broadcast_to(np.eye(n), (b, n, n)).copy()
        self.gone = False  # a member finished or failed since the last _compact
        self.arranged = False  # the rows are in field order, and groups holds their runs
        self.groups: list[tuple[int, slice]] = []
        if manifold is not None:  # one probe of the start points
            rho, errors = manifold.rho_value_rows(self.y[:, :n])
            self.drift = np.abs(rho).max(axis=1, initial=0.0).tolist()
            for r, exc in errors.items():  # run() drops these members
                self._fail(r, _caused(_domain_error(exc), exc))

    @np.errstate(invalid="ignore", divide="ignore", over="ignore")
    def run(self) -> list[FlowResult | FlowError]:
        self._compact()
        self._start(list(range(len(self.rows))))
        self._compact()
        while self.rows:
            self._step()
        return self.results

    # -- membership ---------------------------------------------------------

    def _fail(self, r: int, err: FlowError) -> None:
        """Member ``r`` ends with ``err``, unless it already failed."""
        if self.results[r] is None:
            self.results[r] = err
            self.gone = True

    def _finish(self, j: int) -> None:
        r, drift = self.rows[j], self.drift[self.rows[j]]
        self.results[r] = FlowResult(
            self.y[j, : self.n].copy(), self.d[j].copy(), self.trajectories[r],
            drift, drift > DRIFT_BOUND,
        )
        self.gone = True

    def _compact(self, *local: np.ndarray) -> list[np.ndarray]:
        """Drop the gone members' rows, and keep the rows in field order.

        The arrays and the row arrays ``local`` are permuted alike, and
        :attr:`groups` is set to each field's contiguous rows.
        """
        if not self.gone and self.arranged:
            return list(local)
        fields = self.field
        keep = sorted((j for j, r in enumerate(self.rows) if self.results[r] is None),
                      key=lambda j: fields[self.rows[j]])
        self.rows = [self.rows[j] for j in keep]
        self.y, self.k, self.d = self.y[keep], self.k[keep], self.d[keep]
        self.gone, self.arranged = False, True
        self.groups = self._groups(range(len(keep)))
        return [a[keep] for a in local]

    # -- right-hand side ----------------------------------------------------

    def _groups(self, positions) -> list[tuple[int, slice]]:
        """``positions`` in runs of one current field: (0-based field index, slice of them).

        Rows in field order make one run per field.
        """
        fields = [self.field[self.rows[j]] for j in positions]
        runs, lo = [], 0
        for i in range(1, len(fields) + 1):
            if i == len(fields) or fields[i] != fields[lo]:
                runs.append((fields[lo], slice(lo, i)))
                lo = i
        return runs

    def _rhs(self, groups, ys: np.ndarray, out: np.ndarray) -> dict[int, ExprDomainError]:
        """(a(x), Da(x) M) at the states ``ys`` into ``out``, run by run; the rows where undefined.

        A run of one row is its field's point-kernel call (:meth:`~crorbit.expr.Jet.rows`).
        """
        n = self.n
        errors: dict[int, ExprDomainError] = {}
        for f, run in groups:
            x = ys[run]
            try:
                vals, jac, errs = self.frame[f].values_and_jacobian_rows(x[:, :n])
            except _DOMAIN_EXCS as exc:  # the field's code cannot be generated
                errs = dict.fromkeys(range(len(x)), exc)
            else:
                out[run, :n] = vals
                out[run, n:] = np.matmul(jac, x[:, n:].reshape(-1, n, n)).reshape(-1, n * n)
            if errs:
                errors.update((run.start + i, exc) for i, exc in errs.items())
        return errors

    def _checked_rhs(self, positions: list[int], ys: np.ndarray) -> np.ndarray:
        """:meth:`_rhs` under ``checked_rhs``'s contract: a failing row fails its member."""
        out = np.empty_like(ys)
        errors = self._rhs(self._groups(positions), ys, out)
        for i, exc in errors.items():
            self._fail(self.rows[positions[i]], _caused(_domain_error(exc), exc))
        if not np.isfinite(out).all():
            for i in np.flatnonzero(~np.isfinite(out).all(axis=1)).tolist():
                blowup = FlowBlowupError("non-finite derivative encountered")
                self._fail(self.rows[positions[i]], blowup)
        return out

    # -- legs ----------------------------------------------------------------

    def _start(self, positions: list[int]) -> None:
        """Start the next leg of the rows ``positions``; a row past its word's last leg finishes.

        A zero-time leg evaluates nothing: its differential is I.
        """
        n, eye = self.n, np.eye(self.n).ravel()
        real = []
        while positions:
            zero = []
            for j in positions:
                r = self.rows[j]
                steps = self.words[r].steps
                if self.leg[r] == len(steps):
                    self._finish(j)
                    continue
                idx, t = steps[self.leg[r]]
                self.y[j, n:] = eye
                self.field[r], self.t1[r] = idx - 1, t
                self.arranged = False
                (real if t != 0.0 else zero).append(j)
            positions = zero
            self._compose(zero)
        if real:
            self._begin(real)

    def _compose(self, positions: list[int]) -> None:
        """End the current leg of ``positions``: the chain rule, the elapsed time, the next leg."""
        if not positions:
            return
        n = self.n
        self.d[positions] = np.matmul(self.y[positions, n:].reshape(-1, n, n), self.d[positions])
        for j in positions:
            r = self.rows[j]
            self.t_offset[r] += abs(self.t1[r])
            self.leg[r] += 1

    def _begin(self, positions: list[int]) -> None:
        """First derivative and first step size of the legs ``positions`` start at t = 0."""
        positions = sorted(positions, key=lambda j: self.field[self.rows[j]])  # groups are runs
        for j in positions:
            r = self.rows[j]
            t1 = self.t1[r]
            self.t[r], self.err_prev[r], self.begun[r] = 0.0, 1.0, self.count
            self.direction[r] = 1.0 if t1 > 0 else -1.0
            self.t_tol[r] = 1e-15 * max(abs(t1), 1.0)
        ys = self.y[positions]
        f0 = self.k[positions, 0] = self._checked_rhs(positions, ys)
        live = [i for i, j in enumerate(positions) if self.results[self.rows[j]] is None]
        if len(live) < len(positions):
            positions, ys, f0 = [positions[i] for i in live], ys[live], f0[live]
        if not positions:
            return
        members = [self.rows[j] for j in positions]
        h = _initial_step(
            lambda _t, y1: self._checked_rhs(positions, y1), 0.0, ys, f0,
            [self.direction[r] for r in members], self.cfg.rtol, self.cfg.atol,
        )
        for r, h0 in zip(members, h):
            self.h[r] = min(h0, abs(self.t1[r]))

    # -- one step of every row ----------------------------------------------

    def _step(self) -> None:
        cfg, rows, t_, h_ = self.cfg, self.rows, self.t, self.h
        if self.count >= _MAX_STEPS:
            for r in rows:
                if self.count - self.begun[r] >= _MAX_STEPS:
                    self._fail(r, FlowBlowupError("step budget exhausted"))
        dts = []
        for r in rows:
            t, h = t_[r], h_[r]
            if h < _MIN_STEP * max(abs(t), 1.0):
                self._fail(r, FlowBlowupError(f"step size underflow at t = {t}"))
            h = h_[r] = min(h, abs(self.t1[r] - t))
            dts.append(self.direction[r] * h)
        (dt,) = self._compact(np.array(dts)[:, None])
        if not self.rows:
            return
        self.count += 1
        for i in range(1, 7):
            ys = self.y + dt * np.matmul(_A[i], self.k[:, :i])
            errors = self._rhs(self.groups, ys, self.k[:, i])
            if not errors:
                continue
            for j, exc in errors.items():
                # a stage fed by a non-finite derivative is a blow-up, not a domain exit
                if np.isfinite(self.k[j, :i]).all():
                    self._fail(self.rows[j], _caused(_domain_error(exc), exc))
                else:
                    blowup = FlowBlowupError("non-finite derivative encountered")
                    self._fail(self.rows[j], _caused(blowup, exc))
            dt, ys = self._compact(dt, ys)
            if not self.rows:
                return
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(self.y), np.abs(ys))
        err = _rms(dt * np.matmul(_ERR, self.k) / scale).tolist()
        t1_, tol_, err_prev = self.t1, self.t_tol, self.err_prev
        accepted, members = [], []
        for j, (r, e) in enumerate(zip(self.rows, err)):
            if e <= 1.0:
                accepted.append(j)
                members.append(r)
                t, t1 = t_[r] + self.direction[r] * h_[r], t1_[r]  # t + dt
                t_[r] = t1 if abs(t1 - t) < tol_[r] else t
                # PI controller (Gustafsson); err_prev only after an accepted step
                factor = 0.9 * e ** (-0.7 / 5) * err_prev[r] ** (0.4 / 5) if e > 0 else 10.0
                err_prev[r] = max(e, 1e-10)
                h_[r] *= min(10.0, max(0.2, factor))
            elif not math.isfinite(e) and not np.isfinite(self.k[j]).all():
                self._fail(r, FlowBlowupError("non-finite derivative encountered"))
            else:
                h_[r] *= max(0.2, 0.9 * e ** (-0.2))
        if accepted:
            self._accept(accepted, members, ys)
        self._compact()

    def _accept(self, a: list[int], members: list[int], ys: np.ndarray) -> None:
        """Finish the step of the accepted rows ``a`` (of ``members``), whose t and h are set.

        Their new states are those rows of ``ys``: the step hook, trajectory
        and drift, then the first-same-as-last stage, a fresh derivative or
        the next leg.
        """
        rows, t_, t1_, tol_ = self.rows, self.t, self.t1, self.t_tol
        every = len(a) == len(rows)
        ya = ys if every else ys[a]
        moved, resid = self._on_step(members, ya)
        if every:
            self.y = ya
        else:
            self.y[a] = ya
        if not np.isfinite(ya).all():
            for i in np.flatnonzero(~np.isfinite(ya).all(axis=1)).tolist():
                self._fail(members[i], FlowBlowupError("non-finite state encountered"))
        same, fresh, ended = [], [], []
        drift, results = self.drift, self.results
        points = ya[:, : self.n].copy()
        for j, r, point, m, res in zip(a, members, points, moved, resid):
            t, t1 = t_[r], t1_[r]
            self.trajectories[r].append((self.t_offset[r] + abs(t), point))
            drift[r] = max(drift[r], res)
            if t == t1 or abs(t1 - t) <= tol_[r]:
                if results[r] is None:
                    ended.append(j)
            elif not m:
                same.append(j)  # first same as last
            elif results[r] is None:
                fresh.append(j)  # the retraction moved the state
        if len(same) == len(rows):
            self.k[:, 0] = self.k[:, 6]
        elif same:
            self.k[same, 0] = self.k[same, 6]
        if fresh:
            self.k[fresh, 0] = self._checked_rhs(fresh, self.y[fresh])
        if ended:
            self._compose(ended)
            self._start(ended)

    def _on_step(self, members: list[int], ya: np.ndarray):
        """The step hook of a flow on a manifold, for the accepted states ``ya`` of ``members``.

        One rho probe of the rows decides which states are within
        :data:`RETRACT_TOL`; only the others take :func:`retract`'s Newton
        steps, from that probe, so a Newton step keeps its bits and no point
        is probed twice.  Moves states in place and returns which moved
        and the residual max |rho| of each (0.0 without a manifold).
        """
        n, m = self.n, self.manifold
        if m is None:
            return repeat(False), repeat(0.0)
        moved = [False] * len(members)
        rho, errors = m.rho_value_rows(ya[:, :n])
        resid = np.abs(rho).max(axis=1, initial=0.0).tolist()
        for i, r in enumerate(members):
            if i in errors:
                self._fail(r, _caused(_domain_error(errors[i]), errors[i]))
            elif not resid[i] <= RETRACT_TOL:
                try:
                    point, resid[i] = _newton(m, ya[i, :n], rho[i])
                except _DOMAIN_EXCS as exc:
                    self._fail(r, _caused(_domain_error(exc), exc))
                    continue
                except FlowError as exc:
                    self._fail(r, exc)
                    continue
                ya[i, :n] = point
                moved[i] = True
        return moved, resid

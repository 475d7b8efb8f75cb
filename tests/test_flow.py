"""Flows, variational differentials, composed words and retraction."""

import importlib
import math
import re
import sys

import numpy as np
import pytest

from crorbit.crmanifold import EmbeddedManifold
from crorbit.expr import ExprDomainError
from crorbit.flow import (
    FlowBlowupError,
    FlowDomainError,
    FlowWord,
    IntegratorConfig,
    RetractionError,
    MAX_BATCH,
    DRIFT_BOUND,
    FlowError,
    FlowResult,
    _domain_error,
    _initial_step,
    _integrate,
    _rms,
    composed_flow,
    composed_flows,
    flow,
    retract,
)
from crorbit.orbit import random_words
from crorbit.scenario import builtin_scenario
from crorbit.vectorfield import VectorFieldSpec

EXP_FIELD = VectorFieldSpec.parse(["1", "x2"], 2)
LEWY = EmbeddedManifold.parse(2, ["v - x^2 - y^2"], ["x", "y", "u", "v"])
LEWY_FRAME = [
    VectorFieldSpec.parse(["1", "0", "2*y", "2*x"], 4, ["x", "y", "u", "v"]),
    VectorFieldSpec.parse(["0", "1", "-2*x", "2*y"], 4, ["x", "y", "u", "v"]),
]
INTRINSIC_FRAME = [
    VectorFieldSpec.parse(["1", "0", "2*x2"], 3),
    VectorFieldSpec.parse(["0", "1", "-2*x1"], 3),
]
CIRCLE = EmbeddedManifold.parse(1, ["x1^2 + x2^2 - 1"])
ROTATION = VectorFieldSpec.parse(["-1*x2", "x1"], 2)
LOOSE = IntegratorConfig(rtol=1e-6, atol=1e-8)  # drift above RETRACT_TOL: Newton steps
WORDS = 64  # words per lockstep comparison; one test runs MAX_BATCH + 1


class _CountingManifold:
    """A manifold whose defining-function evaluations are counted."""

    def __init__(self, manifold):
        self.manifold = manifold
        self.values = self.jacobians = 0

    def rho_values(self, x):
        self.values += 1
        return self.manifold.rho_values(x)

    def rho_jacobian(self, x):
        self.jacobians += 1
        return self.manifold.rho_jacobian(x)

    def rho_value_rows(self, X):
        self.values += len(X)
        return self.manifold.rho_value_rows(X)


class _CountingField:
    """A frame field whose evaluated points are counted in ``log``, one per row."""

    def __init__(self, field, log):
        self.field, self.dim, self.log = field, field.dim, log

    def values_and_jacobian(self, x):
        self.log["rhs"] += 1
        return self.field.values_and_jacobian(x)

    def values_and_jacobian_rows(self, X):
        self.log["rhs"] += len(X)
        return self.field.values_and_jacobian_rows(X)


class TestFlow:
    def test_closed_form_endpoint_and_differential(self):
        res = flow(EXP_FIELD, [0.0, 1.0], 1.0)
        assert np.allclose(res.endpoint, [1.0, math.e], atol=1e-9)
        assert np.allclose(res.differential, [[1.0, 0.0], [0.0, math.e]], atol=1e-9)

    def test_zero_time_is_exact_identity(self):
        res = flow(EXP_FIELD, [0.4, -0.3], 0.0)
        assert np.array_equal(res.endpoint, [0.4, -0.3])
        assert np.array_equal(res.differential, np.eye(2))
        assert res.drift == 0.0

    def test_group_law_and_reversibility(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            x0 = rng.uniform(-0.5, 0.5, 2)
            s, t = rng.uniform(-1, 1, 2)
            ab = flow(EXP_FIELD, flow(EXP_FIELD, x0, s).endpoint, t)
            full = flow(EXP_FIELD, x0, s + t)
            assert np.max(np.abs(full.endpoint - ab.endpoint)) <= 1e-8
            back = flow(EXP_FIELD, flow(EXP_FIELD, x0, t).endpoint, -t)
            assert np.max(np.abs(back.endpoint - x0)) <= 1e-8

    def test_cocycle_of_differentials(self):
        x0 = np.array([0.2, 0.8])
        s, t = 0.6, -0.4
        first = flow(EXP_FIELD, x0, s)
        second = flow(EXP_FIELD, first.endpoint, t)
        full = flow(EXP_FIELD, x0, s + t)
        assert (
            np.max(np.abs(full.differential - second.differential @ first.differential))
            <= 1e-7
        )

    def test_blowup_detected(self):
        runaway = VectorFieldSpec.parse(["x1^2"], 1)
        with pytest.raises(FlowBlowupError):
            flow(runaway, [1.0], 5.0)

    def test_domain_exit_detected(self):
        # x' = 1/x from x = -0.5 reaches the singular locus x = 0 at t = -1/8
        singular = VectorFieldSpec.parse(["1/x1"], 1)
        with pytest.raises((FlowDomainError, FlowBlowupError)):
            flow(singular, [-0.5], -1.0)

    def test_singular_start_is_a_domain_exit(self):
        """1/x1 at x1 = 0 is undefined, never inf: the kernel raises ExprDomainError."""
        singular = VectorFieldSpec.parse(["1/x1", "1"], 2)
        with pytest.raises(FlowDomainError, match="division by zero"):
            flow(singular, [0, 0], 0.1)

    def test_defining_function_leaving_its_domain_is_a_domain_exit(self):
        """The step hook reads rho: log(x1) past x1 = 0 ends the flow, not the caller."""
        m = EmbeddedManifold.parse(1, ["x2 - log(x1)"])
        leftward = VectorFieldSpec.parse(["-1", "0"], 2)
        with pytest.raises(FlowDomainError, match="math domain error"):
            flow(leftward, [0.5, math.log(0.5)], 1.0, IntegratorConfig(), m)

    def test_zeroth_power_coefficient_through_zero(self):
        res = flow(VectorFieldSpec.parse(["x1^0", "0"], 2), [0.0, 0.0], 1.0)
        assert np.allclose(res.endpoint, [1.0, 0.0], atol=1e-12)
        assert np.allclose(res.differential, np.eye(2), atol=1e-12)

    def test_condition_number_reported(self):
        res = flow(EXP_FIELD, [0.0, 1.0], 1.0)
        assert np.linalg.cond(res.differential) == pytest.approx(math.e, rel=1e-6)


class TestComposedFlow:
    def test_empty_word_identity(self):
        res = composed_flow(LEWY_FRAME, FlowWord.empty(), np.zeros(4))
        assert np.array_equal(res.endpoint, np.zeros(4))
        assert np.array_equal(res.differential, np.eye(4))

    def test_singleton_equals_flow(self):
        word = FlowWord.of((1, 0.7))
        a = composed_flow(INTRINSIC_FRAME, word, np.zeros(3))
        b = flow(INTRINSIC_FRAME[0], np.zeros(3), 0.7)
        assert np.allclose(a.endpoint, b.endpoint, atol=1e-12)
        assert np.allclose(a.differential, b.differential, atol=1e-12)

    def test_commutator_loop_reaches_bracket_direction(self):
        s = t = 0.1
        word = FlowWord.of((1, s), (2, t), (1, -s), (2, -t))
        res = composed_flow(INTRINSIC_FRAME, word, np.zeros(3))
        assert np.max(np.abs(res.endpoint - [0.0, 0.0, -4 * s * t])) <= 2e-3

    def test_word_inverse_returns_home(self):
        word = FlowWord.of((1, 0.3), (2, -0.2), (1, 0.15))
        out = composed_flow(LEWY_FRAME, word, np.zeros(4), manifold=LEWY)
        back = composed_flow(LEWY_FRAME, word.inverse(), out.endpoint, manifold=LEWY)
        assert np.max(np.abs(back.endpoint)) <= 1e-8

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError, match="outside frame"):
            composed_flow(LEWY_FRAME, FlowWord.of((3, 0.1)), np.zeros(4))

    def test_start_point_is_the_only_extra_probe(self):
        """A word's start is probed once, not each leg's start.

        Every accepted point is probed once per Newton iteration and once more.
        """
        counting = _CountingManifold(CIRCLE)
        word = FlowWord.of((1, 0.4), (2, -0.3), (1, 0.2))
        frame = [ROTATION, VectorFieldSpec.parse(["x2", "-1*x1"], 2)]
        res = composed_flow(frame, word, [0.6, 0.8], LOOSE, counting)
        accepted = len(res.trajectory) - 1
        assert counting.jacobians > 0  # one per Newton iteration
        assert counting.values == 1 + accepted + counting.jacobians

    def test_trajectory_times_are_elapsed(self):
        """A backward flow samples its trajectory at the elapsed |t|, as words do."""
        times = [tt for tt, _ in flow(EXP_FIELD, [0.1, 0.2], -0.5).trajectory]
        assert times[0] == 0.0 and times[-1] == 0.5
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_drift_stays_below_bound_with_retraction(self):
        word = FlowWord.of((1, 0.9), (2, -0.8), (1, -0.5))
        res = composed_flow(LEWY_FRAME, word, np.zeros(4), manifold=LEWY)
        assert res.drift <= DRIFT_BOUND
        assert not res.drift_exceeded

    @pytest.mark.parametrize("manifold", [None, LEWY], ids=["free", "lewy"])
    def test_empty_word_start_point_is_checked_against_the_frame(self, manifold):
        """The empty word uses no field, and its start point still has the frame's dimension."""
        message = re.escape("initial point has shape (3,), expected (4,)")
        with pytest.raises(ValueError, match=message):
            composed_flow(LEWY_FRAME, FlowWord.empty(), [1.0, 2.0, 3.0], manifold=manifold)
        with pytest.raises(ValueError, match=message):
            composed_flows(LEWY_FRAME, [FlowWord.empty()] * 2, [np.zeros(4), [1.0, 2.0, 3.0]],
                           manifold=manifold)

    def test_flows_run_without_the_one_state_integrator(self, monkeypatch):
        """flow and composed_flow run in the lockstep; _integrate is the transports' loop."""

        def refuse(*_args, **_kwargs):
            raise AssertionError("_integrate called")

        monkeypatch.setattr(importlib.import_module("crorbit.flow"), "_integrate", refuse)
        res = flow(ROTATION, [0.6, 0.8], 0.5, LOOSE, CIRCLE)
        assert np.allclose(res.endpoint, [0.6 * math.cos(0.5) - 0.8 * math.sin(0.5),
                                          0.8 * math.cos(0.5) + 0.6 * math.sin(0.5)], atol=1e-5)
        word = FlowWord.of((1, 0.3), (2, -0.2))
        assert composed_flow(LEWY_FRAME, word, np.zeros(4), manifold=LEWY).drift <= DRIFT_BOUND


class TestRetraction:
    def test_on_manifold_point_unchanged(self):
        x = np.array([1.0, 2.0, 0.3, 5.0])
        y, residual = retract(LEWY, x)
        assert y is x
        assert residual == 0.0

    def test_newton_projection_close_to_input(self):
        x = np.array([1.0, 0.0, 0.0, 1.0 + 1e-4])
        y, residual = retract(LEWY, x)
        assert abs(y[3] - (y[0] ** 2 + y[1] ** 2)) <= 1e-12
        assert np.linalg.norm(y - x) <= 1e-3
        assert residual == float(np.max(np.abs(LEWY.rho_values(y))))

    def test_no_convergence_far_from_basin(self):
        hard = EmbeddedManifold.parse(1, ["exp(x1) + 1"])  # empty zero set
        with pytest.raises(RetractionError):
            retract(hard, np.array([0.0, 0.0]))


class TestIntegratorStep:
    def test_last_stage_reused_without_retraction(self):
        """Two start-up derivatives, then six stages a step, accepted or rejected."""
        events = []

        def bump(t, _y):  # y' = exp(-100 (t - 1)^2): the steps shrink near t = 1
            events.append("r")
            return np.array([math.exp(-100 * (t - 1) ** 2)])

        _integrate(bump, (0.0, 2.0), np.zeros(1), IntegratorConfig(),
                   on_step=lambda _t, _y: events.append("a"))
        log = "".join(events)
        steps = re.findall(r"r{6}a?", log[2:])
        assert log.startswith("rr") and "".join(steps) == log[2:]
        rejected = steps.count("r" * 6)
        assert rejected > 0 and steps.count("r" * 6 + "a") == len(steps) - rejected
        assert log.count("r") == 2 + 6 * len(steps)

    def test_moved_state_re_evaluates_rhs(self):
        """A flow evaluates one more row after each Newton-moved point where its leg goes on.

        The log holds 'r' per right-hand-side row, 'p' per probed state and
        'n' per Newton iteration: the start probe and two start-up rows, then
        per step six stage rows and, if it was accepted, a probe, the Newton
        iterations and, where they moved the state, one more row.
        """
        events = []

        class Field:
            dim = 2

            def values_and_jacobian_rows(self, X):
                events.append("r" * len(X))
                return ROTATION.values_and_jacobian_rows(X)

        class Circle:
            rho_values = staticmethod(CIRCLE.rho_values)

            def rho_value_rows(self, X):
                events.append("p" * len(X))
                return CIRCLE.rho_value_rows(X)

            def rho_jacobian(self, x):
                events.append("n")
                return CIRCLE.rho_jacobian(x)

        res = flow(Field(), [1.0, 0.0], 1.0, LOOSE, Circle())
        log = "".join(events)
        steps = re.findall(r"r{6}(?:p(?:n+r?)?)?", log[3:])
        assert log.startswith("prr") and "".join(steps) == log[3:]
        assert sum("p" in step for step in steps) == len(res.trajectory) - 1
        moved = sum("n" in step for step in steps)
        re_evaluated = moved - ("n" in steps[-1])  # the last step ends the leg
        assert re_evaluated > 0
        assert log.count("r") == 2 + 6 * len(steps) + re_evaluated

    def test_drift_is_the_retraction_residual(self):
        counting = _CountingManifold(CIRCLE)
        res = flow(ROTATION, [0.6, 0.8], 1.0, LOOSE, counting)
        worst = max(
            float(np.max(np.abs(CIRCLE.rho_values(pt)), initial=0.0))
            for _, pt in res.trajectory
        )
        assert res.drift == worst
        assert counting.jacobians > 0
        # one probe of the start point, one per Newton iteration, one per accepted point
        assert counting.values == len(res.trajectory) + counting.jacobians

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("stage", range(1, 7))
    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("rejects_bad_input", [False, True], ids=["returns", "raises"])
    def test_non_finite_trial_stage_is_a_blowup(self, stage, bad, rejects_bad_input):
        """k[stage] alone is non-finite; k[1] has zero weight in both _B5 and _ERR."""
        calls = []

        def rhs(_t, y):
            calls.append(y)
            if rejects_bad_input and not np.all(np.isfinite(y)):
                raise ExprDomainError("float division by zero")
            return np.array([bad if len(calls) == 2 + stage else 1.0])

        with pytest.raises(FlowBlowupError, match="non-finite derivative"):
            _integrate(rhs, (0.0, 1.0), np.zeros(1), IntegratorConfig())
        # one finiteness test per step: the stages after the bad one still run
        # until one of them rejects its non-finite input
        assert len(calls) == (2 + min(stage + 1, 6) if rejects_bad_input else 8)

    @pytest.mark.parametrize("call", [1, 3], ids=["first", "stage"])
    def test_value_error_is_not_a_domain_exit(self, call):
        """Only ExprDomainError leaves the domain: any other error is the RHS's own."""
        calls = []

        def rhs(_t, y):
            calls.append(y)
            if len(calls) == call:
                raise ValueError("not an expression error")
            return np.ones(1)

        with pytest.raises(ValueError, match="not an expression error"):
            _integrate(rhs, (0.0, 1.0), np.zeros(1), IntegratorConfig())

    @pytest.mark.parametrize("span", [(0.0, math.nan), (math.inf, 1.0)])
    def test_non_finite_time_rejected(self, span):
        with pytest.raises(ValueError, match="integration time (nan|inf) is not finite"):
            _integrate(lambda _t, y: y, span, np.ones(1), IntegratorConfig())


def _stacked_initial_step(rhs, t0, y0, f0, direction, rtol, atol):
    """The reference: first step sizes as arrays, every branch on every row.

    ``np.where`` picks each row's branch, and ``_max`` and ``_min`` are
    Python's ``max`` and ``min`` with their NaN order.
    """

    def _max(a, b):
        return np.where(b > a, b, a)

    def _min(a, b):
        return np.where(b < a, b, a)

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


class TestInitialStep:
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_equal_the_stacked_arrays(self, seed):
        """Each row's Python floats give the bits of the all-branch array arithmetic."""
        rng = np.random.default_rng(seed)
        b, n = 40, 5
        y0 = rng.normal(size=(b, n)) * 10.0 ** rng.integers(-20, 3, (b, 1))
        f0 = rng.normal(size=(b, n)) * 10.0 ** rng.integers(-20, 3, (b, 1))
        directions = rng.choice([-1.0, 1.0], b)
        f0[0] = 0.0  # d1 = d2 = 0: the 1e-6 branch of h1
        y0[1] = 1e-30  # d0 < 1e-5
        f0[2] = 1e-30  # d1 < 1e-5
        f0[3] = 0.0  # d1 = 0 and a NaN d2: 0.01 / max(d1, d2) divides by zero
        y0[4, 0], f0[5, 1], f0[6, 2] = math.inf, math.nan, math.inf  # h0 = 0 in row 6
        y0[7, 3] = math.nan
        same, nan = [0], [3, 8]

        def rhs(t, y):
            f1 = np.cos(y) - 0.5 * y + t[:, None]
            f1[same] = f0[same]
            f1[nan] = math.nan
            return f1

        with np.errstate(all="ignore"):
            want = _stacked_initial_step(rhs, 0.0, y0, f0, directions, 1e-10, 1e-12)
            got = _initial_step(rhs, 0.0, y0, f0, list(directions), 1e-10, 1e-12)
            alone = [
                _initial_step(lambda t, y: rhs(np.full(b, t[0]), np.repeat(y, b, 0))[[r]],
                              0.0, y0[[r]], f0[[r]], [directions[r]], 1e-10, 1e-12)[0]
                for r in range(b)
            ]
        assert np.array(got).tobytes() == want.tobytes()
        assert np.array(alone).tobytes() == want.tobytes()
        assert np.isnan(want[[4, 5, 7]]).all() and want[6] == 0.0
        assert want[3] == 100 * 1e-6  # h1 = 0.01 / 0.0 = inf
        assert (directions < 0).any() and np.isfinite(want[8:]).sum() >= 20


def _compiled(frame):
    """``frame`` with every field past its interpreted first call: both paths run kernels."""
    for field in frame:
        for _ in range(2):
            field.values_and_jacobian([0.1] * field.dim)
    return frame


def _reference_flow(frame, word, x0, cfg, manifold=None):
    """One word's flow from ``_integrate`` and ``retract`` alone, independent of the lockstep.

    Each leg is one ``_integrate`` call from (x, I), whose step hook retracts
    the accepted point, folds its residual into the drift and records the
    trajectory.  ``_integrate``'s hook only observes, and its next step
    starts from the last stage's derivative, ``k[6]``.  So where a Newton
    step moves the point and the leg goes on, this hook moves the point in
    place and overwrites ``k[6]`` in ``_integrate``'s frame with the
    derivative there, the fresh evaluation a flow makes after a Newton step.
    """
    word.validate(len(frame))
    x = np.array(x0, dtype=float)
    n = x.shape[0]
    field, t1, t_offset, drift = None, 0.0, 0.0, 0.0
    trajectory = [(0.0, x.copy())]

    def rhs(_t, y):
        vals, jac = field.values_and_jacobian(y[:n])
        return np.concatenate((vals, (jac @ y[n:].reshape(n, n)).ravel()))

    def on_step(t, y):
        nonlocal drift
        if manifold is not None:
            point = y[:n]
            try:
                moved, resid = retract(manifold, point)
                if moved is not point:
                    point[:] = moved
                    if abs(t1 - t) > 1e-15 * max(abs(t1), 1.0):  # the leg goes on
                        f = rhs(t, y)
                        if not np.isfinite(f).all():
                            raise FlowBlowupError("non-finite derivative encountered")
                        sys._getframe(1).f_locals["k"][6] = f
            except ExprDomainError as exc:
                raise _domain_error(exc) from exc
            drift = max(drift, resid)
        trajectory.append((t_offset + abs(t), y[:n].copy()))

    if manifold is not None:
        try:
            drift = float(np.max(np.abs(manifold.rho_values(x)), initial=0.0))
        except ExprDomainError as exc:
            raise _domain_error(exc) from exc
    differential = np.eye(n)
    for idx, t1 in word.steps:
        field = frame[idx - 1]
        y = _integrate(rhs, (0.0, t1), np.concatenate((x, np.eye(n).ravel())), cfg, on_step)
        x = y[:n]
        differential = y[n:].reshape(n, n) @ differential
        t_offset += abs(t1)
    return FlowResult(x, differential, trajectory, drift, drift > DRIFT_BOUND)


def _one_word_calls(frame, words, x0s, cfg, manifold=None, run=_reference_flow):
    """``run`` (the reference or composed_flow) word by word: its result, or its FlowError."""
    out = []
    for word, x0 in zip(words, x0s):
        try:
            out.append(run(frame, word, x0, cfg, manifold))
        except FlowError as exc:
            out.append(exc)
    return out


def _assert_same_bits(batch, alone, size=None):
    """Each result of ``batch`` is its ``alone`` result, bit for bit (``size`` labels failures)."""
    assert len(batch) == len(alone)
    for k, (got, want) in enumerate(zip(batch, alone)):
        where = (size, k)
        if isinstance(want, FlowError):
            assert type(got) is type(want) and str(got) == str(want), where
            continue
        assert got.endpoint.tobytes() == want.endpoint.tobytes(), where
        assert got.differential.tobytes() == want.differential.tobytes(), where
        assert (got.drift, got.drift_exceeded) == (want.drift, want.drift_exceeded), where
        assert len(got.trajectory) == len(want.trajectory), where
        for (s, p), (t, q) in zip(got.trajectory, want.trajectory):
            assert type(s) is type(t) is float and s == t, where
            assert p.tobytes() == q.tobytes(), where


# sin, exp, log, ^3 and ^-1 coefficients on R^3, no manifold
CHART_FRAME = [
    VectorFieldSpec.parse(["1", "0.5*sin(x3)", "0.1*exp(x1)*x2^3"], 3),
    VectorFieldSpec.parse(["0.2*log(3 + x2)", "1", "(2 + x1^2)^-1"], 3),
]


def _builtin(name):
    """(frame, manifold, integrator, origin) of a builtin scenario."""
    sc = builtin_scenario(name)
    return sc.default_frame(), sc.manifold, sc.integrator, np.zeros(sc.manifold.ambient_dim)


def _batched(size, frame, words, x0s, cfg, manifold=None):
    """composed_flows over consecutive batches of ``size`` words (``None``: one batch)."""
    size = size or len(words)
    out = []
    for lo in range(0, len(words), size):
        out += composed_flows(frame, words[lo : lo + size], x0s[lo : lo + size], cfg, manifold)
    return out


def _assert_every_batch_size(alone, frame, words, x0s, cfg, manifold=None):
    """Batches of 1, 2 and 3 words and one batch of all give ``alone``'s bits; returns the last."""
    for size in (1, 2, 3, None):
        batch = _batched(size, frame, words, x0s, cfg, manifold)
        _assert_same_bits(batch, alone, size)
    return batch


class TestLockstep:
    """composed_flows: a batch of words gives each word the bits of the one-word reference."""

    @pytest.mark.parametrize(
        "frame, m, cfg, x0",
        [_builtin("flat"), _builtin("tube3"), _builtin("lewy"),
         ([ROTATION], CIRCLE, LOOSE, np.array([0.6, 0.8]))],
        ids=["flat", "tube3", "lewy", "circle-newton-steps"],
    )
    def test_batch_equals_one_word_path(self, frame, m, cfg, x0):
        frame = _compiled(frame)
        words = random_words(np.random.default_rng(3), WORDS, len(frame), 4, 0.5)
        x0s = [x0] * len(words)
        alone = _one_word_calls(frame, words, x0s, cfg, m)
        batch = _assert_every_batch_size(alone, frame, words, x0s, cfg, m)
        assert all(not isinstance(res, FlowError) for res in batch)

    def test_chart_frame_with_transcendental_coefficients(self):
        frame = _compiled(CHART_FRAME)
        rng = np.random.default_rng(4)
        words = random_words(rng, WORDS, 2, 4, 0.5)
        x0s = list(rng.uniform(-0.5, 0.5, (len(words), 3)))
        cfg = IntegratorConfig()
        _assert_every_batch_size(_one_word_calls(frame, words, x0s, cfg), frame, words, x0s, cfg)

    @pytest.mark.parametrize(
        "frame, m, cfg, x0",
        [_builtin("lewy"), ([ROTATION], CIRCLE, LOOSE, np.array([0.6, 0.8]))],
        ids=["lewy", "circle-newton-steps"],
    )
    def test_one_member_does_one_word_work(self, frame, m, cfg, x0):
        """A batch of one evaluates as many right-hand-side and rho rows as the reference."""
        words = random_words(np.random.default_rng(6), 12, len(frame), 4, 0.5)
        for word in words:
            counts = []
            for run in (_reference_flow, lambda *a: composed_flows(a[0], [a[1]], [a[2]], *a[3:])):
                log = {"rhs": 0}
                counting = _CountingManifold(m)
                run([_CountingField(f, log) for f in frame], word, x0, cfg, counting)
                counts.append((log["rhs"], counting.values, counting.jacobians))
            assert counts[0] == counts[1], word
        assert counts[0][0] > 0 and counts[0][1] > 1

    def test_batches_of_more_than_max_batch_words(self, monkeypatch):
        """A full batch of MAX_BATCH words, then a batch of one."""
        flow_module = importlib.import_module("crorbit.flow")
        sizes = []

        class Recording(flow_module._Lockstep):
            def __init__(self, frame, words, *args):
                sizes.append(len(words))
                super().__init__(frame, words, *args)

        monkeypatch.setattr(flow_module, "_Lockstep", Recording)
        frame = _compiled(CHART_FRAME)
        words = random_words(np.random.default_rng(5), MAX_BATCH + 1, 2, 2, 0.3)
        x0s = [np.zeros(3)] * len(words)
        batch = composed_flows(frame, words, x0s)
        assert sizes == [MAX_BATCH, 1]
        _assert_same_bits(batch, _one_word_calls(frame, words, x0s, IntegratorConfig()))

    def test_failing_members_fail_alone(self):
        """Blow-ups and a log domain exit, mixed with normal, empty and zero-time words."""
        frame = _compiled([
            VectorFieldSpec.parse(["1", "0"], 2),
            VectorFieldSpec.parse(["x1^2", "0"], 2),
            VectorFieldSpec.parse(["-1", "log(x1)"], 2),
            VectorFieldSpec.parse(["-1", "1e-9*log(x1)"], 2),  # a stage past x1 = 0
        ])
        words = [FlowWord.of((1, 0.3)), FlowWord.of((2, 5.0)), FlowWord.of((3, 1.0)),
                 FlowWord.of((1, -0.8), (3, 0.1)), FlowWord.of((4, 1.0)),
                 FlowWord.of((1, -0.2), (3, 0.1)), FlowWord.empty(), FlowWord.of((3, 0.0))]
        x0s = [[0.5, 0.0], [1.0, 0.0]] + [[0.5, 0.0]] * 5 + [[0.0, 0.0]]
        cfg = IntegratorConfig()
        alone = _one_word_calls(frame, words, x0s, cfg)
        _assert_same_bits(_one_word_calls(frame, words, x0s, cfg, run=composed_flow), alone)
        assert [type(res).__name__ for res in alone] == [
            "FlowResult", "FlowBlowupError", "FlowBlowupError", "FlowDomainError",
            "FlowDomainError", "FlowResult", "FlowResult", "FlowResult",
        ]
        assert "step size underflow" in str(alone[2])
        assert all("math domain error" in str(res) for res in alone[3:5])
        _assert_every_batch_size(alone, frame, words, x0s, cfg)

    def test_step_budget_is_per_leg_and_fails_its_member_alone(self, monkeypatch):
        """With a budget of 12 steps a leg, a 17-step word of two legs still ends."""
        monkeypatch.setattr(importlib.import_module("crorbit.flow"), "_MAX_STEPS", 12)
        words = [FlowWord.of((1, 0.01)), FlowWord.of((1, 0.3)), FlowWord.of((1, 0.05), (1, 0.1)),
                 FlowWord.of((1, 0.01), (1, 0.3))]
        x0s, cfg = [[0.6, 0.8]] * len(words), IntegratorConfig()
        alone = _one_word_calls([ROTATION], words, x0s, cfg)
        assert [str(res) if isinstance(res, FlowError) else len(res.trajectory) for res in alone] == [
            3, "step budget exhausted", 18, "step budget exhausted",
        ]
        _assert_every_batch_size(alone, [ROTATION], words, x0s, cfg)

    def test_rho_leaving_its_domain_fails_its_member(self):
        m = EmbeddedManifold.parse(1, ["x2 - log(x1)"])
        frame = [VectorFieldSpec.parse(["-1", "0"], 2)]
        words = [FlowWord.of((1, t)) for t in (1.0, 0.1, -0.2)]
        x0s = [[0.5, math.log(0.5)]] * 3
        cfg = IntegratorConfig()
        batch = composed_flows(frame, words, x0s, cfg, m)
        assert isinstance(batch[0], FlowDomainError) and "math domain error" in str(batch[0])
        _assert_same_bits(batch, _one_word_calls(frame, words, x0s, cfg, m))

    def test_zero_time_leg_evaluates_nothing(self):
        """Field 1 is undefined at x1 = 0; its zero-time legs there never evaluate it."""
        frame = [VectorFieldSpec.parse(["1/x1", "0"], 2), VectorFieldSpec.parse(["0", "1"], 2)]
        words = [FlowWord.of((1, 0.0)), FlowWord.of((1, 0.0), (1, -0.0)),
                 FlowWord.of((2, 0.3), (1, 0.0), (2, -0.3)), FlowWord.of((1, 0.1))]
        x0s = [np.zeros(2)] * len(words)
        batch = composed_flows(frame, words, x0s)
        for res in batch[:2]:
            assert res.endpoint.tolist() == [0.0, 0.0]
            assert res.differential.tobytes() == np.eye(2).tobytes()
            assert res.trajectory == [(0.0, res.trajectory[0][1])]
        assert np.allclose(batch[2].endpoint, 0.0, atol=1e-12)
        assert isinstance(batch[3], FlowDomainError)
        _assert_same_bits(batch, _one_word_calls(frame, words, x0s, IntegratorConfig()))

    def test_drift_probe_meeting_a_pole_is_a_domain_exit(self):
        """rho undefined at an accepted point fails the flow; an ndarray probe returned inf.

        The field is tangent to M, so no Newton step moves the trajectory off
        the unconstrained flow's points, and the last of them is rho's pole.
        """
        leftward = VectorFieldSpec.parse(["-1", "0"], 2)
        cfg = IntegratorConfig()
        pole = float(flow(leftward, [0.5, 2.0], 0.5, cfg).endpoint[0])  # where the last step lands
        m = EmbeddedManifold.parse(1, [f"(x2 - 2)/(x1 - {pole!r})"])
        with pytest.raises(FlowDomainError, match="float division by zero"):
            flow(leftward, [0.5, 2.0], 0.5, cfg, m)
        words = [FlowWord.of((1, 0.5)), FlowWord.of((1, 0.2))]
        batch = composed_flows([leftward], words, [[0.5, 2.0]] * 2, cfg, m)
        assert isinstance(batch[0], FlowDomainError) and not isinstance(batch[1], FlowError)
        _assert_same_bits(batch, _one_word_calls([leftward], words, [[0.5, 2.0]] * 2, cfg, m))

    def test_start_point_outside_rho_domain_fails_its_member(self):
        """rho = x2 - 1/x1 is undefined at the second start point: only that member fails."""
        m = EmbeddedManifold.parse(1, ["x2 - 1/x1"])
        frame = [VectorFieldSpec.parse(["-1", "0"], 2)]
        words, x0s = [FlowWord.of((1, 0.1))] * 2, [[0.5, 2.0], [0.0, 1.0]]
        batch = composed_flows(frame, words, x0s, IntegratorConfig(), m)
        assert isinstance(batch[0], FlowResult)
        assert isinstance(batch[1], FlowDomainError) and "float division by zero" in str(batch[1])
        _assert_same_bits(batch, _one_word_calls(frame, words, x0s, IntegratorConfig(), m))

    @pytest.mark.parametrize("word", [FlowWord.of((1, 0.4), (1, -0.1)), FlowWord.empty()],
                             ids=["word", "empty"])
    def test_one_word_runs_in_lockstep(self, word, monkeypatch):
        flow_module = importlib.import_module("crorbit.flow")
        alone = _one_word_calls([ROTATION], [word], [[0.6, 0.8]], LOOSE, CIRCLE)
        monkeypatch.setattr(flow_module, "composed_flow", None)
        batch = composed_flows([ROTATION], [word], [[0.6, 0.8]], LOOSE, CIRCLE)
        _assert_same_bits(batch, alone)

    def test_bad_input_raises_before_anything_runs(self):
        with pytest.raises(ValueError, match="2 word\\(s\\) but 1 start point"):
            composed_flows([ROTATION], [FlowWord.of((1, 0.1))] * 2, [[0.6, 0.8]])
        with pytest.raises(ValueError, match="integration time nan is not finite"):
            composed_flows([ROTATION], [FlowWord.of((1, 0.1)), FlowWord.of((1, math.nan))],
                           [[0.6, 0.8]] * 2)
        with pytest.raises(ValueError, match="outside frame"):
            composed_flows([ROTATION], [FlowWord.of((1, 0.1)), FlowWord.of((2, 0.1))],
                           [[0.6, 0.8]] * 2)


# X = Az and Y = Bz on R^4 = C^2: A, B skew with A^2 = B^2 = -I and AB != BA, so
# exp(tA) = cos t I + sin t A, and a word's flow is the product of its legs' exponentials
SKEW_FRAME = [
    VectorFieldSpec.parse(["x3", "-x4", "-x1", "x2"], 4),
    VectorFieldSpec.parse(["x4", "x3", "-x2", "-x1"], 4),
]
SPHERE = EmbeddedManifold.parse(2, ["x1^2 + x2^2 + x3^2 + x4^2 - 1"])


def _skew_matrix(field):
    return np.array([field.values(e) for e in np.eye(4)]).T


def _exact_word(word, reverse=False):
    """The product of exp(t A_i) over the word's legs, the first leg rightmost."""
    legs = [np.cos(t) * np.eye(4) + np.sin(t) * _skew_matrix(SKEW_FRAME[i - 1])
            for i, t in word.steps]
    product = np.eye(4)
    for leg in reversed(legs) if reverse else legs:
        product = leg @ product
    return product


class TestExactMultiLegFlows:
    """Endpoints and differentials of composed words against exact rotations."""

    def test_frame_is_two_anticommuting_complex_structures(self):
        a, b = (_skew_matrix(f) for f in SKEW_FRAME)
        for mat in (a, b):
            assert np.array_equal(mat.T, -mat) and np.array_equal(mat @ mat, -np.eye(4))
        assert np.max(np.abs(a @ b - b @ a)) > 1.0

    @pytest.mark.parametrize("manifold", [None, SPHERE], ids=["free", "sphere"])
    @pytest.mark.parametrize("size", [0, 1, 2, WORDS], ids=["one-word", "1", "2", str(WORDS)])
    def test_word_order_matches_the_exact_product(self, manifold, size):
        rng = np.random.default_rng(8)
        words = []
        for _ in range(WORDS):
            first = int(rng.integers(1, 3))
            steps = [(1 + (first + k) % 2, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.6)))
                     for k in range(int(rng.integers(2, 5)))]
            words.append(FlowWord(tuple(steps)))
        x0 = rng.normal(size=4)
        x0 /= np.linalg.norm(x0)
        x0s, cfg = [x0] * len(words), IntegratorConfig()
        if size:
            results = _batched(size, SKEW_FRAME, words, x0s, cfg, manifold)
        else:
            results = _one_word_calls(SKEW_FRAME, words, x0s, cfg, manifold, composed_flow)
        for word, res in zip(words, results):
            exact, reversed_ = _exact_word(word), _exact_word(word, reverse=True)
            assert np.max(np.abs(res.differential - exact)) <= 1e-8, word
            assert np.max(np.abs(res.endpoint - exact @ x0)) <= 1e-8, word
            assert np.max(np.abs(res.differential - reversed_)) > 1e-3, word
            assert np.max(np.abs(res.endpoint - reversed_ @ x0)) > 1e-4, word


class TestIntegratorConfig:
    def test_tolerances_must_be_positive(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rtol=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(atol=-1e-12)
        # NaN compares false both ways, so "> 0" rejects it as well
        for name in ("rtol", "atol"):
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                IntegratorConfig(**{name: math.nan})


def test_package_root_leaves_the_flow_module_reachable():
    """The root re-exports no function named ``flow``, so ``crorbit.flow`` is the module."""
    import crorbit
    import crorbit.flow as flow_module

    assert flow_module is crorbit.flow is importlib.import_module("crorbit.flow")
    assert (crorbit.flow.RETRACT_TOL, crorbit.flow.DRIFT_BOUND) == (1e-12, 1e-9)

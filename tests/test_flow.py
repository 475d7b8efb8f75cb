"""Flows, variational differentials, composed words and retraction."""

import importlib
import math
import re

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
    _integrate,
    composed_flow,
    flow,
    retract,
)
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
LOOSE = IntegratorConfig(rtol=1e-6, atol=1e-8)  # drift above retract_tol: Newton steps


def _record_integrations(monkeypatch):
    """Log every RHS call ('r') and accepted step ('a' kept, 'm' moved by the hook)."""
    flow_module = importlib.import_module("crorbit.flow")
    real = flow_module._integrate
    events = []

    def recording(rhs, t_span, y0, cfg, on_step=None):
        def counted_rhs(t, y):
            events.append("r")
            return rhs(t, y)

        def logged_step(t, y):
            out = y if on_step is None else on_step(t, y)
            events.append("a" if out is y else "m")
            return out

        return real(counted_rhs, t_span, y0, cfg, on_step=logged_step)

    monkeypatch.setattr(flow_module, "_integrate", recording)
    return events


def _steps(events) -> list[str]:
    """Split one integration's log into steps after the two start-up calls.

    A step is its six stage calls, then 'a' or 'm' if it was accepted, and one
    more call ('r') when the hook moved the state and the integration goes on.
    """
    log = "".join(events)
    assert log.startswith("rr")
    steps = re.findall(r"r{6}(?:a|mr?)?", log[2:])
    assert "".join(steps) == log[2:], log
    return steps


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

    @pytest.mark.parametrize("retract", [True, False], ids=["retraction", "drift-probe"])
    def test_defining_function_leaving_its_domain_is_a_domain_exit(self, retract):
        """The step hook reads rho: log(x1) past x1 = 0 ends the flow, not the caller."""
        m = EmbeddedManifold.parse(1, ["x2 - log(x1)"])
        leftward = VectorFieldSpec.parse(["-1", "0"], 2)
        with pytest.raises(FlowDomainError, match="math domain error"):
            flow(leftward, [0.5, math.log(0.5)], 1.0, IntegratorConfig(retract=retract), m)

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
        out = composed_flow(LEWY_FRAME, word, np.zeros(4), IntegratorConfig(retract=True), manifold=LEWY)
        back = composed_flow(
            LEWY_FRAME, word.inverse(), out.endpoint, IntegratorConfig(retract=True), manifold=LEWY
        )
        assert np.max(np.abs(back.endpoint)) <= 1e-8

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError, match="outside frame"):
            composed_flow(LEWY_FRAME, FlowWord.of((3, 0.1)), np.zeros(4))

    def test_start_point_is_the_only_extra_probe(self):
        """Without retraction each accepted point is probed once, and x0 once more."""
        counting = _CountingManifold(CIRCLE)
        word = FlowWord.of((1, 0.4), (2, -0.3), (1, 0.2))
        frame = [ROTATION, VectorFieldSpec.parse(["x2", "-1*x1"], 2)]
        res = composed_flow(frame, word, [0.6, 0.8], IntegratorConfig(retract=False), counting)
        assert counting.values == len(res.trajectory)
        assert counting.jacobians == 0

    def test_trajectory_times_are_elapsed(self):
        """A backward flow samples its trajectory at the elapsed |t|, as words do."""
        times = [tt for tt, _ in flow(EXP_FIELD, [0.1, 0.2], -0.5).trajectory]
        assert times[0] == 0.0 and times[-1] == 0.5
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_drift_stays_below_bound_with_retraction(self):
        cfg = IntegratorConfig(retract=True)
        word = FlowWord.of((1, 0.9), (2, -0.8), (1, -0.5))
        res = composed_flow(LEWY_FRAME, word, np.zeros(4), cfg, manifold=LEWY)
        assert res.drift <= 1e-9
        assert not res.drift_exceeded


class TestRetraction:
    def test_on_manifold_point_unchanged(self):
        x = np.array([1.0, 2.0, 0.3, 5.0])
        y, residual = retract(LEWY, x, 1e-12)
        assert y is x
        assert residual == 0.0

    def test_newton_projection_close_to_input(self):
        x = np.array([1.0, 0.0, 0.0, 1.0 + 1e-4])
        y, residual = retract(LEWY, x, 1e-12)
        assert abs(y[3] - (y[0] ** 2 + y[1] ** 2)) <= 1e-12
        assert np.linalg.norm(y - x) <= 1e-3
        assert residual == float(np.max(np.abs(LEWY.rho_values(y))))

    def test_no_convergence_far_from_basin(self):
        hard = EmbeddedManifold.parse(1, ["exp(x1) + 1"])  # empty zero set
        with pytest.raises(RetractionError):
            retract(hard, np.array([0.0, 0.0]), 1e-12)


class TestIntegratorStep:
    def test_last_stage_reused_without_retraction(self, monkeypatch):
        events = _record_integrations(monkeypatch)
        bump = VectorFieldSpec.parse(["1", "exp(-100*(x1-1)^2)"], 2)
        flow(bump, [0.0, 0.0], 2.0)
        steps = _steps(events)
        rejected = steps.count("r" * 6)
        accepted = steps.count("r" * 6 + "a")
        assert rejected > 0
        assert accepted + rejected == len(steps)
        assert events.count("r") == 2 + 6 * (accepted + rejected)

    def test_moved_state_re_evaluates_rhs(self, monkeypatch):
        events = _record_integrations(monkeypatch)
        flow(ROTATION, [1.0, 0.0], 1.0, LOOSE, CIRCLE)
        steps = _steps(events)
        re_evaluated = steps.count("r" * 6 + "mr")
        assert re_evaluated > 0
        assert events.count("r") == 2 + 6 * len(steps) + re_evaluated

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


class TestIntegratorConfig:
    def test_tolerances_must_be_positive(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rtol=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(atol=-1e-12)
        # NaN compares false both ways: a NaN drift_bound would turn every drift guard off
        for name in ("rtol", "atol", "max_step", "retract_tol", "drift_bound"):
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                IntegratorConfig(**{name: math.nan})

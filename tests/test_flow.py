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
    MAX_BATCH,
    DRIFT_BOUND,
    FlowError,
    FlowResult,
    _integrate,
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


def _compiled(frame):
    """``frame`` with every field past its interpreted first call: both paths run kernels."""
    for field in frame:
        for _ in range(2):
            field.values_and_jacobian([0.1] * field.dim)
    return frame


def _one_word_calls(frame, words, x0s, cfg, manifold=None):
    """composed_flow word by word: its result, or the FlowError it raises."""
    out = []
    for word, x0 in zip(words, x0s):
        try:
            out.append(composed_flow(frame, word, x0, cfg, manifold))
        except FlowError as exc:
            out.append(exc)
    return out


def _assert_same_bits(batch, alone):
    assert len(batch) == len(alone)
    for k, (got, want) in enumerate(zip(batch, alone)):
        if isinstance(want, FlowError):
            assert type(got) is type(want) and str(got) == str(want), k
            continue
        assert got.endpoint.tobytes() == want.endpoint.tobytes(), k
        assert got.differential.tobytes() == want.differential.tobytes(), k
        assert (got.drift, got.drift_exceeded) == (want.drift, want.drift_exceeded), k
        assert len(got.trajectory) == len(want.trajectory), k
        for (s, p), (t, q) in zip(got.trajectory, want.trajectory):
            assert type(s) is type(t) is float and s == t, k
            assert p.tobytes() == q.tobytes(), k


# sin, exp, log, ^3 and ^-1 coefficients on R^3, no manifold
CHART_FRAME = [
    VectorFieldSpec.parse(["1", "0.5*sin(x3)", "0.1*exp(x1)*x2^3"], 3),
    VectorFieldSpec.parse(["0.2*log(3 + x2)", "1", "(2 + x1^2)^-1"], 3),
]


def _builtin(name):
    """(frame, manifold, integrator, origin) of a builtin scenario."""
    sc = builtin_scenario(name)
    return sc.default_frame(), sc.manifold, sc.integrator, np.zeros(sc.manifold.ambient_dim)


class TestLockstep:
    """composed_flows: a batch of words gives each word composed_flow's bits."""

    @pytest.mark.parametrize(
        "frame, m, cfg, x0",
        [_builtin("flat"), _builtin("tube3"), _builtin("lewy"),
         ([ROTATION], CIRCLE, LOOSE, np.array([0.6, 0.8]))],
        ids=["flat", "tube3", "lewy", "circle-newton-steps"],
    )
    def test_batch_equals_one_word_path(self, frame, m, cfg, x0):
        frame = _compiled(frame)
        words = random_words(np.random.default_rng(3), MAX_BATCH, len(frame), 4, 0.5)
        x0s = [x0] * len(words)
        batch = composed_flows(frame, words, x0s, cfg, m)
        assert all(not isinstance(res, FlowError) for res in batch)
        _assert_same_bits(batch, _one_word_calls(frame, words, x0s, cfg, m))

    def test_chart_frame_with_transcendental_coefficients(self):
        frame = _compiled(CHART_FRAME)
        rng = np.random.default_rng(4)
        words = random_words(rng, MAX_BATCH, 2, 4, 0.5)
        x0s = list(rng.uniform(-0.5, 0.5, (len(words), 3)))
        cfg = IntegratorConfig()
        batch = composed_flows(frame, words, x0s, cfg)
        _assert_same_bits(batch, _one_word_calls(frame, words, x0s, cfg))

    def test_batches_of_more_than_max_batch_words(self):
        frame = _compiled(CHART_FRAME)
        words = random_words(np.random.default_rng(5), MAX_BATCH + 1, 2, 2, 0.3)
        x0s = [np.zeros(3)] * len(words)
        batch = composed_flows(frame, words, x0s)
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
        assert [type(res).__name__ for res in alone] == [
            "FlowResult", "FlowBlowupError", "FlowBlowupError", "FlowDomainError",
            "FlowDomainError", "FlowResult", "FlowResult", "FlowResult",
        ]
        assert "step size underflow" in str(alone[2])
        assert all("math domain error" in str(res) for res in alone[3:5])
        _assert_same_bits(composed_flows(frame, words, x0s, cfg), alone)

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

    def test_one_word_runs_composed_flow(self, monkeypatch):
        flow_module = importlib.import_module("crorbit.flow")
        calls = []

        def recording(*args, real=flow_module.composed_flow):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(flow_module, "composed_flow", recording)
        word = FlowWord.of((1, 0.4))
        [res] = composed_flows([ROTATION], [word], [[0.6, 0.8]])
        assert calls == [word] and res.endpoint.shape == (2,)
        composed_flows([ROTATION], [word, word], [[0.6, 0.8]] * 2)
        assert calls == [word]  # two words run in lockstep

    def test_bad_input_raises_before_anything_runs(self):
        with pytest.raises(ValueError, match="2 word\\(s\\) but 1 start point"):
            composed_flows([ROTATION], [FlowWord.of((1, 0.1))] * 2, [[0.6, 0.8]])
        with pytest.raises(ValueError, match="integration time nan is not finite"):
            composed_flows([ROTATION], [FlowWord.of((1, 0.1)), FlowWord.of((1, math.nan))],
                           [[0.6, 0.8]] * 2)
        with pytest.raises(ValueError, match="outside frame"):
            composed_flows([ROTATION], [FlowWord.of((1, 0.1)), FlowWord.of((2, 0.1))],
                           [[0.6, 0.8]] * 2)


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

"""The flattened-chart partial connection and its three transport routes."""

import importlib
import math

import numpy as np
import pytest

from crorbit.connection import (
    ChartSetup,
    ChartValidationError,
    connection_axioms_check,
    covariant_derivative,
    covariant_derivative_via_bracket,
    curve_transport,
    dual_transport,
    flow_transport,
    hamiltonian_restriction_check,
    horizontal_transport,
    lift_section,
    restricted_hamiltonian,
    validate_chart,
    xhat_field,
    _restricted,
)
from crorbit.crmanifold import EmbeddedManifold
from crorbit.expr import (
    Const,
    ExprDomainError,
    Var,
    add,
    eval_values_and_jacobian,
    mul,
    parse_expr,
)
from crorbit.flow import FlowWord, IntegratorConfig, composed_flow, flow
from crorbit.orbit import lie_hull
from crorbit.vectorfield import VectorFieldSpec
from crorbit.verify import (
    TOL_AXIOMS,
    TOL_HAMILTONIAN,
    TOL_MULTIPLIER,
    TOL_TRANSPORT_RANDOM,
    random_chart,
    transport_corpus,
)

EXP_FIELD = VectorFieldSpec.parse(["1", "x2"], 2)
EXP_CHART = ChartSetup(l=1, m=1, frame=(EXP_FIELD,))
PHI = add(Const(1.0), mul(Var(0), Var(0)))  # 1 + x1^2


class TestValidateChart:
    def test_tangent_field_passes(self):
        rep = validate_chart(EXP_CHART, [[0.0], [0.5], [-1.2]])
        assert rep.passed and rep.max_tangency_violation <= 1e-12

    def test_normal_field_fails_with_location(self):
        bad = ChartSetup(1, 1, (VectorFieldSpec.parse(["0", "1"], 2),))
        rep = validate_chart(bad, [[0.0]])
        assert not rep.passed
        assert rep.first_failure == (1, 0)

    def test_degenerate_codimension_zero_passes_vacuously(self):
        frame = (VectorFieldSpec.parse(["1", "0", "2*x2"], 3),)
        rep = validate_chart(ChartSetup(3, 0, frame), [[0.1, 0.2, 0.3]])
        assert rep.passed

    def test_rank_deficiency_detected(self):
        doubled = ChartSetup(1, 1, (EXP_FIELD, EXP_FIELD))
        rep = validate_chart(doubled, [[0.3]])
        assert not rep.rank_ok and not rep.passed

    @pytest.mark.parametrize("delta, independent", [("1e-9", False), ("1e-6", True)])
    def test_rank_cut_is_relative_to_the_largest_singular_value(self, delta, independent):
        # columns (1, 0) and (1, delta): sigma_min / sigma_max ~ delta / 2 against RANK_RTOL 1e-8
        frame = tuple(VectorFieldSpec.parse(f, 2) for f in (["1", "0"], ["1", delta]))
        rep = validate_chart(ChartSetup(2, 0, frame), [[0.0, 0.0]])
        assert rep.rank_ok is independent and rep.passed is independent


class TestCovariantDerivative:
    def test_exponential_chart_constant_section(self):
        out = covariant_derivative(EXP_CHART, EXP_FIELD, [Const(1.0)], [0.0])
        assert np.allclose(out, [-1.0], atol=1e-14)

    def test_zero_section(self):
        out = covariant_derivative(EXP_CHART, EXP_FIELD, [Const(0.0)], [0.7])
        assert np.allclose(out, [0.0])

    def test_zero_field_tensoriality(self):
        zero = VectorFieldSpec.parse(["0", "0"], 2)
        out = covariant_derivative(EXP_CHART, zero, [parse_expr("x1^2", 1)], [0.4])
        assert np.allclose(out, [0.0])

    def test_matches_bracket_definition(self):
        rng = np.random.default_rng(8)
        for case in transport_corpus(41, 10):
            c = case.chart
            eta = [
                parse_expr(f"{rng.uniform(-1, 1)!r} + {rng.uniform(-1, 1)!r}*x1", c.l)
                for _ in range(c.m)
            ]
            xp = rng.uniform(-0.3, 0.3, c.l)
            formula = covariant_derivative(c, case.field, eta, xp)
            bracket = covariant_derivative_via_bracket(
                c, case.field, lift_section(c, eta), xp
            )
            assert np.max(np.abs(formula - bracket)) <= 1e-12

    def test_non_tangent_field_rejected(self):
        bad = VectorFieldSpec.parse(["0", "1"], 2)
        with pytest.raises(ChartValidationError):
            covariant_derivative(EXP_CHART, bad, [Const(1.0)], [0.0])

    def test_wrong_section_size(self):
        with pytest.raises(ValueError, match="components"):
            covariant_derivative(EXP_CHART, EXP_FIELD, [Const(1.0), Const(2.0)], [0.0])


def leg(t: float) -> FlowWord:
    """The one-step word that runs the chart's first frame field for time t."""
    return FlowWord.of((1, t))


class TestTransports:
    def test_horizontal_closed_form(self):
        out = horizontal_transport(EXP_CHART, leg(1.0), [0.0], [1.0])
        assert abs(out.eta[0] - math.e) <= 1e-9
        assert abs(out.base[0] - 1.0) <= 1e-10

    def test_zero_section_is_horizontal(self):
        out = horizontal_transport(EXP_CHART, leg(0.8), [0.0], [0.0])
        assert out.eta[0] == 0.0

    def test_time_zero_identity(self):
        out = horizontal_transport(EXP_CHART, leg(0.0), [0.3], [0.7])
        assert out.base[0] == 0.3 and out.eta[0] == 0.7

    def test_flow_transport_matches_horizontal(self):
        h = horizontal_transport(EXP_CHART, leg(1.0), [0.0], [1.0])
        f = flow_transport(EXP_CHART, leg(1.0), [0.0], [1.0])
        assert abs(f.eta[0] - math.e) <= 1e-8
        assert abs(f.eta[0] - h.eta[0]) <= 1e-8

    def test_flow_transport_zero_vector(self):
        f = flow_transport(EXP_CHART, leg(0.6), [0.0], [0.0])
        assert f.eta[0] == 0.0

    def test_flow_transport_identity_word(self):
        f = flow_transport(EXP_CHART, FlowWord.empty(), [0.2], [0.9])
        assert f.eta[0] == 0.9

    def test_one_step_flow_transport_is_the_flow_differential(self):
        for case in transport_corpus(21, 6):
            c, t = case.chart, case.t_equiv
            moved = flow_transport(c, leg(t), case.x0, case.eta0)
            res = flow(case.field, np.concatenate((case.x0, np.zeros(c.m))), t)
            lifted = np.concatenate((np.zeros(c.l), case.eta0))
            assert np.array_equal(moved.eta, (res.differential @ lifted)[c.l:])
            assert np.array_equal(moved.base, res.endpoint[: c.l])

    def test_flow_transport_word_uses_cfg(self):
        loose = IntegratorConfig(rtol=1e-3, atol=1e-6)
        w = flow_transport(EXP_CHART, leg(1.0), [0.0], [1.0], cfg=loose)
        s = flow(EXP_FIELD, [0.0, 0.0], 1.0, loose).differential[1, 1]
        default = flow_transport(EXP_CHART, leg(1.0), [0.0], [1.0])
        assert w.eta[0] == s
        assert w.eta[0] != default.eta[0]  # the loose tolerances reach the integrator

    @pytest.mark.parametrize("transport", [horizontal_transport, dual_transport, flow_transport])
    @pytest.mark.parametrize("index", [0, 2])
    def test_index_outside_frame_raises_before_integrating(self, transport, index, monkeypatch):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before the word was validated")

        for module in ("crorbit.connection", "crorbit.flow"):
            monkeypatch.setattr(importlib.import_module(module), "_integrate", no_integration)
        word = FlowWord.of((1, 0.5), (index, 0.25))
        with pytest.raises(ValueError, match=f"field index {index} outside frame of size 1"):
            transport(EXP_CHART, word, [0.0], [1.0])

    @pytest.mark.parametrize("transport", [horizontal_transport, dual_transport, flow_transport])
    @pytest.mark.parametrize("word", [FlowWord.empty(), leg(0.5)], ids=["empty", "one-leg"])
    @pytest.mark.parametrize("x0p, v0", [([0.0, 1.0], [1.0]), ([0.0], [1.0, 1.0])],
                             ids=["long-point", "long-fiber"])
    def test_start_shapes_are_checked(self, transport, word, x0p, v0):
        with pytest.raises(ValueError, match="point components do not match chart dimensions"):
            transport(EXP_CHART, word, x0p, v0)

    @pytest.mark.parametrize("transport", [horizontal_transport, dual_transport, flow_transport])
    @pytest.mark.parametrize(
        "word",
        [
            FlowWord.of((1, 0.5), (2, 1.0)),
            FlowWord.of((1, 0.25), (1, 0.0), (1, 0.25), (2, -1.0)),
            FlowWord.of((1, 0.5), (2, 1.0), (3, 2.0)),
        ],
        ids=["two-legs", "zero-time-leg", "before-a-later-leg-blows-up"],
    )
    def test_each_leg_is_checked_at_its_own_start(self, transport, word):
        """(0, x1) is tangent to N where the word starts, x' = 0, but not where its leg does.

        The third field blows up before x1 = 1, which a flow of it from x1 = 0.5 for
        time 2 would reach: the check ends the walk before any later leg runs.
        """
        c = ChartSetup(1, 1, (VectorFieldSpec.parse(["1", "0"], 2),
                              VectorFieldSpec.parse(["0", "x1"], 2),
                              VectorFieldSpec.parse(["(1 - x1)^-2", "0"], 2)))
        message = r"field is not tangent to N at \[0\.5\]: \|a''\| = 5\.000e-01"
        with pytest.raises(ChartValidationError, match=message):
            transport(c, word, [0.0], [1.0])

    @pytest.mark.parametrize("l", [1, 2])
    def test_flow_transport_composes_legs_in_order(self, l):
        """Each leg's differential acts after the ones before it: D = D_3 D_2 D_1.

        With m = 2 the normal blocks of the two fields do not commute, so a
        reversed composition moves eta by about 1e-3.
        """
        rng = np.random.default_rng(5)
        c = ChartSetup(l, 2, (random_chart(rng, l, 2).frame[0], random_chart(rng, l, 2).frame[0]))
        word = FlowWord.of((1, 0.6), (2, -0.7), (1, 0.5))
        x0, eta0 = np.zeros(l), np.array([1.0, -0.5])
        moved = flow_transport(c, word, x0, eta0)
        lifted = np.concatenate((np.zeros(l), eta0))
        res = composed_flow(c.frame, word, np.zeros(c.dim))
        assert moved.eta.tobytes() == (res.differential @ lifted)[l:].tobytes()
        h = horizontal_transport(c, word, x0, eta0)
        scale = max(1.0, float(np.max(np.abs(h.eta))))
        assert np.max(np.abs(h.eta - moved.eta)) <= TOL_TRANSPORT_RANDOM * scale

    @pytest.mark.parametrize(
        "transport, fiber", [(horizontal_transport, "eta"), (dual_transport, "xi")]
    )
    def test_two_legs_equal_two_chained_calls(self, transport, fiber):
        for case in transport_corpus(34, 6):
            first, second = leg(case.t_equiv), leg(case.t_dual)
            both = transport(case.chart, FlowWord(first.steps + second.steps), case.x0, case.eta0)
            mid = transport(case.chart, first, case.x0, case.eta0)
            chained = transport(case.chart, second, mid.base, getattr(mid, fiber))
            assert np.array_equal(both.base, chained.base)
            assert np.array_equal(getattr(both, fiber), getattr(chained, fiber))

    def test_dual_closed_form_and_pairing(self):
        for t in (-1.0, 0.5, 1.0, 2.0):
            h = horizontal_transport(EXP_CHART, leg(t), [0.0], [1.0])
            d = dual_transport(EXP_CHART, leg(t), [0.0], [1.0])
            assert abs(d.xi[0] - math.exp(-t)) <= 1e-9
            assert abs(h.eta[0] * d.xi[0] - 1.0) <= 1e-8

    def test_dual_zero_covector(self):
        d = dual_transport(EXP_CHART, leg(1.3), [0.0], [0.0])
        assert d.xi[0] == 0.0

    def test_transport_equivalence_small_corpus(self):
        for case in transport_corpus(55, 15):
            h = horizontal_transport(case.chart, leg(case.t_equiv), case.x0, case.eta0)
            f = flow_transport(case.chart, leg(case.t_equiv), case.x0, case.eta0)
            scale = max(1.0, float(np.max(np.abs(h.eta))))
            assert np.max(np.abs(h.eta - f.eta)) <= 1e-7 * scale

    def test_curve_transport_behind_flag(self):
        with pytest.raises(ValueError, match="experimental"):
            curve_transport(EXP_CHART, lambda t: [1.0], [0.0], [1.0], 1.0)
        out = curve_transport(
            EXP_CHART, lambda t: [1.0], [0.0], [1.0], 1.0, experimental=True
        )
        # constant weight 1 on a single field reduces to the horizontal ODE
        assert abs(out.eta[0] - math.e) <= 1e-9


class TestXhatField:
    def test_exponential_chart(self):
        out = xhat_field(EXP_CHART, EXP_FIELD, ([0.7], [1.0]))
        assert np.allclose(out, [1.0, -1.0], atol=1e-14)

    def test_zero_covector_keeps_base_velocity(self):
        out = xhat_field(EXP_CHART, EXP_FIELD, ([0.2], [0.0]))
        assert np.allclose(out, [1.0, 0.0])

    def test_constant_field(self):
        c = ChartSetup(1, 1, (VectorFieldSpec.parse(["1", "0"], 2),))
        out = xhat_field(c, c.frame[0], ([0.0], [3.0]))
        assert np.allclose(out, [1.0, 0.0])


class TestRestrictedEvaluation:
    def test_values_and_normal_block_match_interpreter(self):
        rng = np.random.default_rng(17)
        for l, m in ((1, 1), (2, 1), (1, 2), (2, 2)):
            c = random_chart(rng, l, m)
            field = c.frame[0]
            for _ in range(5):
                xp = rng.uniform(-0.5, 0.5, l)
                xi = rng.uniform(-1.0, 1.0, m)
                x_full = np.concatenate((xp, np.zeros(m))).tolist()
                a_ref, jac_ref = eval_values_and_jacobian(field.coefficients, l + m, x_full)
                b_ref = jac_ref[l:, l:]
                a, b = _restricted(field, c, xp)
                assert np.allclose(a, a_ref, rtol=1e-13, atol=1e-13)
                assert b.shape == (m, m)
                assert np.allclose(b, b_ref, rtol=1e-13, atol=1e-13)
                assert np.allclose(
                    xhat_field(c, field, (xp, xi)),
                    np.concatenate((a_ref[:l], -(b_ref.T @ xi))),
                    rtol=1e-13,
                    atol=1e-13,
                )

    def test_one_jacobian_kernel_per_field(self, compilations):
        field = VectorFieldSpec.parse(["1 + 0.25*x2", "x2*(1 + 0.5*x1)"], 2)
        chart = ChartSetup(1, 1, (field,))
        field.values([0.1, 0.0])
        field.values_and_jacobian([0.1, 0.0])
        flow(field, [0.1, 0.0], 0.5)
        horizontal_transport(chart, leg(0.5), [0.1], [1.0])
        dual_transport(chart, leg(0.5), [0.1], [1.0])
        flow_transport(chart, leg(0.5), [0.1], [1.0])
        xhat_field(chart, field, ([0.1], [1.0]))
        line = EmbeddedManifold.parse(1, ["x2"])  # dimension 1: the field alone spans it
        assert lie_hull(line, [field], [0.1, 0.0]).dimension == 1
        assert compilations["compile_values_and_jacobian"] == [(field.coefficients, 2)]
        assert compilations["compile_values"] == []


def _unsigned(a) -> bytes:
    """The bytes of ``a`` with every zero made +0.0: a field's first, interpreted
    evaluation can differ from its compiled kernel only in the sign of a zero."""
    return (np.asarray(a, dtype=float) + 0.0).tobytes()


class TestHamiltonianBatches:
    @pytest.mark.parametrize("batch", [1, 1000])
    def test_batch_is_the_point_path_bit_for_bit(self, batch):
        rng = np.random.default_rng(21)
        for l, m in ((1, 1), (2, 1), (1, 3), (3, 2), (2, 3)):
            c = random_chart(rng, l, m)
            field = c.frame[0]
            xp = rng.uniform(-0.5, 0.5, (batch, l))
            xi = rng.uniform(-1.0, 1.0, (batch, m))
            restricted, tangency = restricted_hamiltonian(c, field, xp, xi)
            xhat = xhat_field(c, field, (xp, xi))
            assert restricted.shape == xhat.shape == (l + m, batch)
            assert tangency.shape == (batch,)
            for k in range(batch):
                point, point_tangency = restricted_hamiltonian(c, field, xp[k], xi[k])
                assert _unsigned(restricted[:, k]) == _unsigned(point)
                assert tangency[k] == point_tangency
                assert _unsigned(xhat[:, k]) == _unsigned(xhat_field(c, field, (xp[k], xi[k])))

    def test_normal_block_of_every_sample_is_axis_0_tail(self):
        xp, xi = np.array([[0.1], [0.7]]), np.array([[1.0], [2.0]])
        out = xhat_field(EXP_CHART, EXP_FIELD, (xp, xi))
        assert np.allclose(out[EXP_CHART.l:], [[-1.0, -2.0]])

    @pytest.mark.parametrize("check", ["xhat", "hamiltonian"])
    def test_undefined_row_raises_the_point_error(self, check):
        field = VectorFieldSpec.parse(["1 + x2/x1", "x2"], 2)
        xp, xi = np.array([[0.5], [0.2], [0.0], [0.0]]), np.ones((4, 1))
        if check == "xhat":
            def call(p, q):
                return xhat_field(EXP_CHART, field, (p, q))
        else:
            def call(p, q):
                return restricted_hamiltonian(EXP_CHART, field, p, q)
        with pytest.raises(ExprDomainError) as point:
            call(xp[2], xi[2])
        with pytest.raises(ExprDomainError) as batch:
            call(xp, xi)
        assert str(batch.value) == str(point.value) == "float division by zero"

    def test_sample_dimensions_are_checked(self):
        with pytest.raises(ValueError, match="chart dimensions"):
            xhat_field(EXP_CHART, EXP_FIELD, (np.zeros((3, 1)), np.zeros((2, 1))))


class TestHamiltonianRestriction:
    def test_exponential_chart_samples(self):
        rng = np.random.default_rng(3)
        samples = [(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)) for _ in range(100)]
        rep = hamiltonian_restriction_check(EXP_CHART, EXP_FIELD, samples, PHI)
        assert max(rep.max_tangency, rep.max_mismatch) <= TOL_HAMILTONIAN
        assert rep.max_multiplier_mismatch <= TOL_MULTIPLIER

    def test_multiplier_scaling(self):
        samples = [(np.array([0.5]), np.array([2.0]))]
        rep = hamiltonian_restriction_check(EXP_CHART, EXP_FIELD, samples, PHI)
        assert max(rep.max_tangency, rep.max_mismatch) <= TOL_HAMILTONIAN
        assert rep.max_multiplier_mismatch <= TOL_MULTIPLIER

    def test_zero_covector_samples(self):
        samples = [(np.array([0.4]), np.array([0.0]))]
        rep = hamiltonian_restriction_check(EXP_CHART, EXP_FIELD, samples, PHI)
        assert max(rep.max_tangency, rep.max_mismatch) <= TOL_HAMILTONIAN
        assert rep.max_multiplier_mismatch <= TOL_MULTIPLIER

    def test_restricted_field_and_tangency_defect(self):
        restricted, tangency = restricted_hamiltonian(EXP_CHART, EXP_FIELD, [0.3], [0.7])
        assert np.allclose(restricted, [1.0, -0.7]) and tangency == 0.0
        # a'' = 1 + x1 leaves N, and its xi'-velocity is -xi''
        normal = VectorFieldSpec.parse(["1", "1 + x1"], 2)
        _, tangency = restricted_hamiltonian(EXP_CHART, normal, [0.3], [0.7])
        assert tangency == pytest.approx(1.3)


class TestConnectionAxioms:
    def test_trivial_multiplier(self):
        rep = connection_axioms_check(
            EXP_CHART, EXP_FIELD, [Const(1.0)], Const(1.0), [[0.0], [0.5]]
        )
        assert rep.max_scaling_residual == 0.0
        assert max(rep.max_leibniz_residual, rep.max_lifting_residual) <= TOL_AXIOMS

    def test_scaling_example(self):
        phi = parse_expr("x1", 2)
        scaled = covariant_derivative(EXP_CHART, EXP_FIELD.scaled(phi), [Const(1.0)], [2.0])
        base = covariant_derivative(EXP_CHART, EXP_FIELD, [Const(1.0)], [2.0])
        assert np.allclose(scaled, [-2.0], atol=1e-13)
        assert np.allclose(scaled, 2.0 * base, atol=1e-13)

    def test_lifting_independence_explicit(self):
        # adding x2 * d/dx1 (tangent to N on N) to the lift changes nothing
        lift = lift_section(EXP_CHART, [Const(1.0)])
        perturbed = VectorFieldSpec(
            (add(lift.coefficients[0], Var(1)), lift.coefficients[1]), 2
        )
        for xp in ([0.0], [0.8], [-0.4]):
            a = covariant_derivative_via_bracket(EXP_CHART, EXP_FIELD, lift, xp)
            b = covariant_derivative_via_bracket(EXP_CHART, EXP_FIELD, perturbed, xp)
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_axioms_on_random_chart(self):
        case = transport_corpus(77, 1)[0]
        c = case.chart
        rng = np.random.default_rng(4)
        eta = [parse_expr(f"{rng.uniform(-1, 1)!r}*x1", c.l) for _ in range(c.m)]
        phi = parse_expr("1 + x1^2", c.dim)
        rep = connection_axioms_check(
            c, case.field, eta, phi, [rng.uniform(-0.3, 0.3, c.l) for _ in range(5)]
        )
        worst = max(rep.max_scaling_residual, rep.max_leibniz_residual, rep.max_lifting_residual)
        assert worst <= TOL_AXIOMS, rep

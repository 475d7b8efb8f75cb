"""Embedded CR geometry: genericity, tangent spaces, conormal forms, quotients."""

import numpy as np
import pytest

from crorbit.crmanifold import (
    THETA_SV_MIN,
    AdaptedChart,
    EmbeddedManifold,
    HolomorphicForm,
    Lemma21Report,
    ManifoldError,
    NonGenericPointError,
    PointNotOnManifoldError,
    apply_j,
    complex_tangent_space,
    conormal_fiber,
    cr_frame,
    e_fiber,
    genericity_check,
    jmat,
    lemma21_check,
    lemma21_residuals,
    pair_e_estar,
    pair_form,
    tangent_space,
    theta_covector,
    theta_isomorphism_check,
    theta_star_transport,
    theta_transport,
    validate_adapted_chart,
)
from crorbit.expr import ExprDomainError, parse_expr
from crorbit.flow import FlowWord, retract
from crorbit.vectorfield import VectorFieldSpec
from crorbit.verify import TOL_LEMMA21

AL4 = ["x", "y", "u", "v"]
AL6 = ["x", "y", "u1", "v1", "u2", "v2"]
LEWY = EmbeddedManifold.parse(2, ["v - x^2 - y^2"], AL4)
FLAT = EmbeddedManifold.parse(2, ["v"], AL4)
TUBE3 = EmbeddedManifold.parse(3, ["v1 - x^2 - y^2", "v2"], AL6)
LEWY_FRAME = [
    VectorFieldSpec.parse(["1", "0", "2*y", "2*x"], 4, AL4),
    VectorFieldSpec.parse(["0", "1", "-2*x", "2*y"], 4, AL4),
]


def lewy_point(x, y, u):
    return np.array([x, y, u, x * x + y * y])


def tube3_point(x, y, u1, u2):
    return np.array([x, y, u1, x * x + y * y, u2, 0.0])


def lemma21_residual(rep):
    return max(rep.complex_identity_residual, rep.real_convention_residual)


def lemma21_sample(m, z, rng):
    """One Lemma 2.1 sample at z: ``lemma21_residuals`` at the one row z with B = 1.

    U[-1, 1] weights on the conormal basis are drawn first, then U[-1, 1]
    coefficients on the orthonormal tangent basis.
    """
    weights = rng.uniform(-1.0, 1.0, (1, m.d))
    r1, r2 = lemma21_residuals(m, np.asarray(z)[None], weights, rng.uniform(-1.0, 1.0, (1, m.dim)))
    return Lemma21Report(float(r1[0]), float(r2[0]))


class TestComplexStructure:
    def test_j_squares_to_minus_one(self):
        j = jmat(3)
        assert np.array_equal(j @ j, -np.eye(6))

    def test_apply_j_matches_matrix(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(6)
        assert np.allclose(apply_j(v), jmat(3) @ v)

    def test_pairing_is_complex_linear(self):
        omega = HolomorphicForm([1.0 + 2.0j, -0.5j])
        v = np.array([1.0, 0.5, -0.2, 0.3])
        assert pair_form(omega, apply_j(v)) == pytest.approx(1j * pair_form(omega, v))


class TestGenericity:
    def test_lewy_hypersurface(self):
        rep = genericity_check(LEWY, np.zeros(4))
        assert rep.generic and rep.real_rank == 1 and rep.complex_rank == 1

    def test_complex_line_not_generic(self):
        line = EmbeddedManifold.parse(2, ["x1", "x2"])
        rep = genericity_check(line, np.array([0.0, 0.0, 0.7, -0.1]))
        assert not rep.generic
        assert rep.real_rank == 2 and rep.complex_rank == 1

    def test_tube3_generic_rank_two(self):
        rep = genericity_check(TUBE3, np.zeros(6))
        assert rep.generic and rep.complex_rank == 2

    def test_point_off_manifold_rejected(self):
        with pytest.raises(PointNotOnManifoldError):
            genericity_check(LEWY, np.array([1.0, 0.0, 0.0, 0.5]))

    def test_non_finite_point_is_off_manifold(self):
        nan_point = np.array([np.nan, 0.0, 0.0, 0.0])
        with pytest.raises(PointNotOnManifoldError):
            LEWY.require_on_manifold(nan_point)
        with pytest.raises(PointNotOnManifoldError):
            genericity_check(LEWY, nan_point)


class TestTangentSpaces:
    def test_lewy_origin(self):
        tm = tangent_space(LEWY, np.zeros(4))
        tc = complex_tangent_space(LEWY, np.zeros(4))
        assert tm.dim == 3 and tc.dim == 2
        # T^c at the origin is span{dx, dy}
        assert np.max(np.abs(tc.basis[2:, :])) <= 1e-12

    def test_flat_constant_complex_tangent(self):
        for pt in (np.zeros(4), np.array([0.3, -0.2, 1.0, 0.0])):
            tc = complex_tangent_space(FLAT, pt)
            assert tc.dim == 2
            assert np.max(np.abs(tc.basis[2:, :])) <= 1e-14

    def test_tube3_dimensions(self):
        assert tangent_space(TUBE3, np.zeros(6)).dim == 4
        assert complex_tangent_space(TUBE3, np.zeros(6)).dim == 2

    def test_complex_tangent_is_j_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            z = lewy_point(*rng.uniform(-0.7, 0.7, 3))
            tc = complex_tangent_space(LEWY, z)
            jb = np.column_stack([apply_j(tc.basis[:, k]) for k in range(tc.dim)])
            assert np.max(np.abs(jb - tc.project(jb))) <= 1e-10

    def test_one_kernel_of_each_kind(self, compilations):
        """A values-only probe of rho, and one Jacobian kernel."""
        m = EmbeddedManifold.parse(2, ["v - x^2 - y^2"], AL4)
        z = lewy_point(0.1, 0.2, 0.3)
        m.rho_values(z)
        m.rho_jacobian(z)
        retract(m, z + [0.0, 0.0, 0.0, 1e-3])
        tangent_space(m, z)
        assert compilations["compile_values"] == [(m.rho,)]
        assert compilations["compile_values_and_jacobian"] == [(m.rho, 4)]

    @pytest.mark.parametrize("space", [tangent_space, complex_tangent_space])
    def test_space_takes_two_svds_and_one_jacobian(self, space, monkeypatch):
        """One SVD of d rho and one of [d rho; d rho o J] decide genericity and give the basis."""
        svds, jacobian_rows = [], []
        real_svd, real_jacobian = np.linalg.svd, EmbeddedManifold.rho_jacobian_rows

        def counted_svd(a, *args, **kwargs):
            svds.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        def counted_jacobian(self, X):
            jacobian_rows.append(len(X))
            return real_jacobian(self, X)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(EmbeddedManifold, "rho_jacobian_rows", counted_jacobian)
        space(TUBE3, tube3_point(-0.4, 0.1, 0.2, 0.6))
        assert svds == [(1, 2, 6), (1, 4, 6)]
        assert jacobian_rows == [1]  # one rows call, for the one point

    @pytest.mark.parametrize("point", [[0.0, 1.0], np.array([0.0, 1.0])], ids=["list", "ndarray"])
    def test_rho_where_undefined_raises(self, point):
        """The probe and d rho compute on Python floats, whatever the input's type."""
        hyperbola = EmbeddedManifold.parse(1, ["x2 - 1/x1"])
        for evaluate in (hyperbola.rho_values, hyperbola.rho_jacobian):
            with pytest.raises(ExprDomainError, match="float division by zero"):
                evaluate(point)
        with pytest.raises(ExprDomainError, match="float division by zero"):
            retract(hyperbola, point)

    def test_rho_rows_equal_the_probe(self):
        rows = np.array([[0.5, 2.0], [0.0, 1.0], [-0.25, 3.0]])
        hyperbola = EmbeddedManifold.parse(1, ["x2 - 1/x1"])
        values, errors = hyperbola.rho_value_rows(rows)
        assert list(errors) == [1] and str(errors[1]) == "float division by zero"
        for r in (0, 2):
            assert values[r].tobytes() == hyperbola.rho_values(rows[r]).tobytes()

    def test_non_generic_point_raises(self):
        line = EmbeddedManifold.parse(2, ["x1", "x2"])
        with pytest.raises(NonGenericPointError):
            tangent_space(line, np.array([0.0, 0.0, 0.1, 0.2]))


class TestCrFrame:
    def test_user_frame_verified(self):
        samples = [lewy_point(0.5, -0.2, 0.7), lewy_point(-0.3, 0.9, 0.0)]
        frame = cr_frame(LEWY, np.zeros(4), LEWY_FRAME, samples=samples)
        assert len(frame) == 2

    def test_user_frame_failure(self):
        bad = [VectorFieldSpec.parse(["0", "0", "1", "0"], 4, AL4)]  # du not in T^c
        with pytest.raises(ManifoldError, match="complex-tangent"):
            cr_frame(LEWY, np.zeros(4), bad)


class TestConormalFiber:
    def test_flat_fiber_spans_dw(self):
        forms = conormal_fiber(FLAT, np.array([0.3, -0.2, 1.0, 0.0]))
        assert len(forms) == 1
        zeta = forms[0].zeta
        assert abs(zeta[0]) <= 1e-14
        assert zeta[1].real != 0.0 and abs(zeta[1].imag) <= 1e-14

    def test_lewy_fiber_at_origin(self):
        forms = conormal_fiber(LEWY, np.zeros(4))
        zeta = forms[0].zeta
        assert abs(zeta[0]) <= 1e-14 and abs(zeta[1] - 0.5) <= 1e-14

    def test_annihilates_tangent_imaginary_part(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            z = tube3_point(*rng.uniform(-0.6, 0.6, 4))
            tm = tangent_space(TUBE3, z)
            for omega in conormal_fiber(TUBE3, z):
                worst = max(
                    abs(pair_form(omega, tm.basis[:, k]).imag) for k in range(tm.dim)
                )
                assert worst <= 1e-12

    def test_dimension_equals_codimension(self):
        assert len(conormal_fiber(TUBE3, np.zeros(6))) == 2


class TestLemma21:
    def test_lewy_hand_computation(self):
        omega = HolomorphicForm([0.0, 1.0])  # dw
        du = np.array([0.0, 0.0, 1.0, 0.0])
        rep = lemma21_check(LEWY, np.zeros(4), omega, du)
        assert lemma21_residual(rep) <= TOL_LEMMA21
        assert pair_form(omega, apply_j(du)).imag == pytest.approx(1.0)
        assert float(theta_covector(omega) @ du) == pytest.approx(1.0)

    def test_complex_tangent_vector_gives_zero(self):
        omega = HolomorphicForm([0.0, 1.0])
        dx = np.array([1.0, 0.0, 0.0, 0.0])
        assert pair_form(omega, apply_j(dx)).imag == 0.0
        assert float(theta_covector(omega) @ dx) == 0.0

    def test_real_scaling(self):
        omega = HolomorphicForm([0.0, 3.5])
        du = np.array([0.0, 0.0, 1.0, 0.0])
        assert pair_form(omega, apply_j(du)).imag == pytest.approx(3.5)

    def test_membership_enforced(self):
        not_conormal = HolomorphicForm([1.0, 0.0])  # dz does not kill TM
        with pytest.raises(ManifoldError, match="conormal membership"):
            lemma21_check(LEWY, np.zeros(4), not_conormal, np.array([0, 0, 1.0, 0]))
        omega = HolomorphicForm([0.0, 1.0])
        with pytest.raises(ManifoldError, match="tangent"):
            lemma21_check(LEWY, np.zeros(4), omega, np.array([0, 0, 0, 1.0]))

    def test_theta_isomorphism(self):
        # at the origin theta(i d rho_k) = du1 / 2 and du2 / 2 on T_0M = ker(dv1, dv2)
        (sv,) = theta_isomorphism_check(TUBE3, np.zeros((1, 6)))
        assert sv == pytest.approx(0.5, abs=1e-15) and sv >= THETA_SV_MIN

    def test_random_samples_pass_in_codimension_one_and_two(self):
        rng = np.random.default_rng(11)
        for m, z in (
            (LEWY, lewy_point(0.3, -0.2, 0.5)),
            (TUBE3, tube3_point(-0.4, 0.1, 0.2, 0.6)),
        ):
            for _ in range(5):
                rep = lemma21_sample(m, z, rng)
                assert lemma21_residual(rep) <= TOL_LEMMA21

    def test_sample_builds_tangent_space_once(self, monkeypatch):
        """One tangent basis per point: d rho (1 x 4) gets one SVD, for one sample or 20."""
        jacobian_svds = []
        real = np.linalg.svd

        def counted(a, *args, **kwargs):
            if np.shape(a)[-2:] == (LEWY.d, LEWY.ambient_dim):
                jacobian_svds.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        z = lewy_point(0.3, -0.2, 0.5)
        rep = lemma21_sample(LEWY, z, np.random.default_rng(2))
        assert lemma21_residual(rep) <= TOL_LEMMA21
        assert jacobian_svds == [(1, 1, 4)]
        lemma21_residuals(LEWY, z[None], np.ones((20, 1)), np.ones((20, 3)))
        assert jacobian_svds == [(1, 1, 4)] * 2

    @pytest.mark.parametrize(
        "call",
        [
            lambda m, z: tangent_space(m, z),
            lambda m, z: complex_tangent_space(m, z),
            lambda m, z: conormal_fiber(m, z),
            lambda m, z: lemma21_sample(m, z, np.random.default_rng(2)),
            lambda m, z: theta_isomorphism_check(m, z[None]),
        ],
        ids=["tangent", "complex-tangent", "conormal", "lemma21-sample", "theta-iso"],
    )
    def test_one_jacobian_per_point(self, call, monkeypatch):
        rows = []
        real = EmbeddedManifold.rho_jacobian_rows

        def counted(self, X):
            rows.append(len(X))
            return real(self, X)

        monkeypatch.setattr(EmbeddedManifold, "rho_jacobian_rows", counted)
        call(TUBE3, tube3_point(-0.4, 0.1, 0.2, 0.6))
        assert rows == [1]  # one d rho evaluation: one rows call of one row


def _draws(rng, m, points):
    """Each sample's weights and coefficients, drawn as :func:`lemma21_sample` draws them."""
    return [(rng.uniform(-1.0, 1.0, m.d), rng.uniform(-1.0, 1.0, m.dim)) for _ in points]


# a curve where rho is undefined at x1 = 2 and d rho vanishes at the origin
CROSS = EmbeddedManifold.parse(1, ["(x2^2 - x1^2)*(1 + 1/(x1 - 2))"])
CROSS_ROWS = {  # a failing row and what the point path raises there
    "off-manifold": (
        [0.3, 0.4], PointNotOnManifoldError, "|rho| = 2.882e-02 exceeds 1.0e-09 at [0.3 0.4]"
    ),
    "undefined": ([2.0, 2.0], ExprDomainError, "float division by zero"),
    "non-generic": (
        [0.0, 0.0],
        NonGenericPointError,
        "point is not generic: real rank 0, complex rank 0, codimension 1",
    ),
}
POINT_VIEWS = {
    "tangent": tangent_space,
    "complex-tangent": complex_tangent_space,
    "conormal": conormal_fiber,
    "genericity": genericity_check,
}


class TestLemma21Batches:
    @pytest.mark.parametrize("m, point, free", [(LEWY, lewy_point, 3), (TUBE3, tube3_point, 4)])
    def test_rows_are_lemma21_sample_bit_for_bit(self, m, point, free):
        rng = np.random.default_rng(21)
        points = [point(*rng.uniform(-0.7, 0.7, free)) for _ in range(200)]
        state = rng.bit_generator.state
        weights, coeffs = (np.array(v) for v in zip(*_draws(rng, m, points)))
        complex_res, real_res = lemma21_residuals(m, np.array(points), weights, coeffs)
        rng.bit_generator.state = state
        for k, z in enumerate(points):
            rep = lemma21_sample(m, z, rng)
            assert complex_res[k].hex() == rep.complex_identity_residual.hex()
            assert real_res[k].hex() == rep.real_convention_residual.hex()

    def test_samples_at_one_point_share_one_jacobian(self, monkeypatch):
        z = tube3_point(-0.4, 0.1, 0.2, 0.6)
        rng = np.random.default_rng(8)
        weights, coeffs = (np.array(v) for v in zip(*_draws(rng, TUBE3, range(20))))
        rows = []
        real = EmbeddedManifold.rho_jacobian_rows

        def counted(self, X):
            rows.append(len(X))
            return real(self, X)

        monkeypatch.setattr(EmbeddedManifold, "rho_jacobian_rows", counted)
        complex_res, real_res = lemma21_residuals(TUBE3, z[None], weights, coeffs)
        assert rows == [1]  # the 20 samples share one d rho evaluation
        rng = np.random.default_rng(8)
        for k in range(20):
            rep = lemma21_sample(TUBE3, z, rng)
            assert (complex_res[k], real_res[k]) == (
                rep.complex_identity_residual, rep.real_convention_residual
            )

    def test_theta_isomorphism_rows_are_the_point_values(self):
        """Row k: the smallest singular value of theta(conormal_fiber) on T_zM at z_k."""
        rng = np.random.default_rng(3)
        points = np.array([tube3_point(*rng.uniform(-0.7, 0.7, 4)) for _ in range(50)])
        rows = theta_isomorphism_check(TUBE3, points)
        expected = []
        for z in points:
            basis = tangent_space(TUBE3, z).basis
            theta = np.array([theta_covector(w) @ basis for w in conormal_fiber(TUBE3, z)])
            expected.append(np.linalg.svd(theta, compute_uv=False)[-1].hex())
        assert [v.hex() for v in rows] == expected

    def test_rho_jacobian_rows_are_the_point_kernel(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(-2.0, 2.0, (30, 6))
        jac, errors = TUBE3.rho_jacobian_rows(points)
        assert errors == {}
        for k, z in enumerate(points):
            assert jac[k].tobytes() == TUBE3.rho_jacobian(z).tobytes()

    @pytest.mark.parametrize("kind", sorted(CROSS_ROWS))
    @pytest.mark.parametrize("check", ["lemma21", "theta"])
    def test_failing_row_raises_the_point_error(self, kind, check):
        bad, error, message = CROSS_ROWS[kind]
        rows = np.array([[0.5, 0.5], [-0.3, -0.3], [0.7, -0.7], bad, [0.2, 0.2]])
        weights, coeffs = np.ones((5, 1)), np.ones((5, 1))
        for sel in (slice(3, 4), slice(None)):  # the failing row alone, and among others
            with pytest.raises(error) as batch:
                if check == "lemma21":
                    lemma21_residuals(CROSS, rows[sel], weights[sel], coeffs[sel])
                else:
                    theta_isomorphism_check(CROSS, rows[sel])
            assert type(batch.value) is error and str(batch.value) == message

    @pytest.mark.parametrize("kind", sorted(CROSS_ROWS))
    @pytest.mark.parametrize("view", sorted(POINT_VIEWS))
    def test_point_view_raises_the_point_error(self, kind, view):
        bad, error, message = CROSS_ROWS[kind]
        if view == "genericity" and error is NonGenericPointError:
            rep = genericity_check(CROSS, bad)  # reports instead of raising
            assert (rep.real_rank, rep.complex_rank, rep.generic) == (0, 0, False)
            return
        with pytest.raises(error) as raised:
            POINT_VIEWS[view](CROSS, bad)
        assert type(raised.value) is error and str(raised.value) == message

    @pytest.mark.parametrize(
        "order", [("non-generic", "undefined"), ("undefined", "off-manifold")]
    )
    def test_first_failing_row_wins(self, order):
        first, second = (CROSS_ROWS[kind] for kind in order)
        rows = np.array([[0.5, 0.5], first[0], second[0]])
        with pytest.raises(first[1]):
            theta_isomorphism_check(CROSS, rows)


FLAT_CHART = AdaptedChart(
    l=2, m=1, psi=tuple(parse_expr(t, 3) for t in ["x1", "x2", "x3", "0"])
)
FLAT_CHART_FRAME = [
    VectorFieldSpec.parse(["1", "0", "0"], 3),
    VectorFieldSpec.parse(["0", "1", "0"], 3),
]


class TestEFiber:
    def test_lewy_s_equals_m_gives_zero(self):
        chart = AdaptedChart(
            l=3,
            m=0,
            psi=tuple(
                parse_expr(t, 3, ["x", "y", "u"])
                for t in ["x", "y", "u", "x^2 + y^2"]
            ),
        )
        assert validate_adapted_chart(LEWY, chart, [[0, 0, 0], [0.4, -0.2, 0.9]]).passed
        assert e_fiber(LEWY, chart, [0.0, 0.0, 0.0]).dim == 0

    def test_flat_complex_line(self):
        assert validate_adapted_chart(FLAT, FLAT_CHART, [[0, 0, 0], [1, -1, 2]]).passed
        ef = e_fiber(FLAT, FLAT_CHART, [0.0, 0.0])
        assert ef.dim == 1
        assert np.allclose(np.abs(ef.e_basis.basis[:, 0]), [0, 0, 0, 1], atol=1e-12)
        assert len(ef.estar_forms) == 1

    def test_keeps_tangent_space_and_chart_differential(self):
        ef = e_fiber(FLAT, FLAT_CHART, [0.4, -0.1])
        assert np.array_equal(ef.tangent.basis, tangent_space(FLAT, ef.point).basis)
        assert np.array_equal(ef.dpsi, FLAT_CHART.point_and_frame([0.4, -0.1, 0.0])[1])

    def test_complement_dimensions_add_up(self):
        ef = e_fiber(FLAT, FLAT_CHART, [0.4, -0.1])
        assert ef.dim + ef.low_basis.dim == FLAT.ambient_dim

    def test_estar_forms_satisfy_both_conditions(self):
        ef = e_fiber(FLAT, FLAT_CHART, [0.2, 0.3])
        tm = tangent_space(FLAT, ef.point)
        ts = np.eye(4)[:, :2]  # TS = span{dx, dy} for the complex line
        for omega in ef.estar_forms:
            for k in range(tm.dim):
                assert abs(pair_form(omega, tm.basis[:, k]).imag) <= 1e-12
            for k in range(2):
                assert abs(pair_form(omega, ts[:, k]).real) <= 1e-12

    def test_invalid_chart_rejected(self):
        bad = AdaptedChart(
            l=2, m=1, psi=tuple(parse_expr(t, 3) for t in ["x1", "x2", "x3", "1"])
        )
        rep = validate_adapted_chart(FLAT, bad, [[0, 0, 0]])
        assert not rep.passed


class TestThetaTransport:
    def test_identity_word(self):
        ef = e_fiber(FLAT, FLAT_CHART, [0.0, 0.0])
        eta = ef.e_basis.basis[:, 0]
        res = theta_transport(
            FLAT, FLAT_CHART, FLAT_CHART_FRAME, FlowWord.empty(), eta, [0.0, 0.0]
        )
        assert np.max(np.abs(res.value - eta)) <= 1e-10

    def test_constant_frame_transport_is_identity_on_e(self):
        ef = e_fiber(FLAT, FLAT_CHART, [0.0, 0.0])
        eta = ef.e_basis.basis[:, 0]
        word = FlowWord.of((1, 0.4), (2, -0.3), (1, 0.2))
        res = theta_transport(FLAT, FLAT_CHART, FLAT_CHART_FRAME, word, eta, [0.0, 0.0])
        assert np.max(np.abs(res.value - eta)) <= 1e-9
        assert np.allclose(res.endpoint_parameters, [0.6, -0.3], atol=1e-9)

    def test_linearity(self):
        ef = e_fiber(FLAT, FLAT_CHART, [0.0, 0.0])
        eta = ef.e_basis.basis[:, 0]
        word = FlowWord.of((2, 0.5))
        one = theta_transport(FLAT, FLAT_CHART, FLAT_CHART_FRAME, word, eta, [0.0, 0.0])
        two = theta_transport(
            FLAT, FLAT_CHART, FLAT_CHART_FRAME, word, -1.7 * eta, [0.0, 0.0]
        )
        assert np.max(np.abs(two.value + 1.7 * one.value)) <= 1e-9

    def test_frame_tangency_enforced(self):
        tilted = [VectorFieldSpec.parse(["1", "0", "1"], 3)]  # leaves {x'' = 0}
        ef = e_fiber(FLAT, FLAT_CHART, [0.0, 0.0])
        with pytest.raises(ManifoldError, match="tangent to S"):
            theta_transport(
                FLAT,
                FLAT_CHART,
                tilted,
                FlowWord.of((1, 0.1)),
                ef.e_basis.basis[:, 0],
                [0.0, 0.0],
            )
        # both routes reject a frame whose field 2 leaves S, and a frame of rank 1,
        # before any word is walked
        leaves = [VectorFieldSpec.parse(f, 3) for f in (["1", "0", "0"], ["0", "1", "1"])]
        for frame, failure in ((leaves, 2), (FLAT_CHART_FRAME[:1] * 2, 0)):
            for transport, value in (
                (theta_transport, ef.e_basis.basis[:, 0]),
                (theta_star_transport, ef.estar_forms[0]),
            ):
                for word in (FlowWord.empty(), FlowWord.of((1, 0.3)), FlowWord.of((2, 0.3))):
                    with pytest.raises(ManifoldError, match="full-rank frame tangent to S") as e:
                        transport(FLAT, FLAT_CHART, frame, word, value, [0.0, 0.0])
                    assert f"first_failure={failure})" in str(e.value)


def _twisted_setup():
    """M = {v = u(x^2 + y^2)} contains the complex line S = {w = 0}; the
    quotient transport along S has genuine holonomy."""
    manifold = EmbeddedManifold.parse(2, ["v - u*(x^2 + y^2)"], AL4)
    chart = AdaptedChart(
        l=2,
        m=1,
        psi=tuple(parse_expr(t, 3) for t in ["x1", "x2", "x3", "x3*(x1^2 + x2^2)"]),
    )
    r2 = "(x1^2 + x2^2)"
    den = f"(1 + {r2}^2)"
    frame = [
        VectorFieldSpec.parse(["1", "0", f"2*x3*(x2 - {r2}*x1)/{den}"], 3),
        VectorFieldSpec.parse(["0", "1", f"-(2*x3*(x1 + {r2}*x2)/{den})"], 3),
    ]
    return manifold, chart, frame


class TestThetaStarTransport:
    def test_identity_word(self):
        ef = e_fiber(FLAT, FLAT_CHART, [0.0, 0.0])
        out = theta_star_transport(
            FLAT, FLAT_CHART, FLAT_CHART_FRAME, FlowWord.empty(),
            ef.estar_forms[0], [0.0, 0.0],
        )
        assert np.max(np.abs(out.value.zeta - ef.estar_forms[0].zeta)) <= 1e-10

    def test_index_zero_outside_frame_as_in_theta_transport(self):
        ef = e_fiber(FLAT, FLAT_CHART, [0.0, 0.0])
        word = FlowWord.of((0, 0.3))
        for transport, value in (
            (theta_transport, ef.e_basis.basis[:, 0]),
            (theta_star_transport, ef.estar_forms[0]),
        ):
            with pytest.raises(ValueError, match="field index 0 outside frame of size 2"):
                transport(FLAT, FLAT_CHART, FLAT_CHART_FRAME, word, value, [0.0, 0.0])

    def test_membership_enforced(self):
        with pytest.raises(ManifoldError, match="paired space"):
            theta_star_transport(
                FLAT, FLAT_CHART, FLAT_CHART_FRAME, FlowWord.empty(),
                HolomorphicForm([1.0, 0.0]), [0.0, 0.0],
            )

    def test_pairing_conserved_on_flat(self):
        ef = e_fiber(FLAT, FLAT_CHART, [0.0, 0.0])
        eta0, omega0 = ef.e_basis.basis[:, 0], ef.estar_forms[0]
        word = FlowWord.of((1, 0.4), (2, -0.3))
        tv = theta_transport(FLAT, FLAT_CHART, FLAT_CHART_FRAME, word, eta0, [0, 0])
        tw = theta_star_transport(FLAT, FLAT_CHART, FLAT_CHART_FRAME, word, omega0, [0, 0])
        assert abs(
            pair_e_estar(tw.value, tv.value) - pair_e_estar(omega0, eta0)
        ) <= 1e-8

    def test_twisted_manifold_has_real_holonomy(self):
        manifold, chart, frame = _twisted_setup()
        assert validate_adapted_chart(manifold, chart, [[0, 1, 0], [0.5, -0.3, 0.7]]).passed
        ef = e_fiber(manifold, chart, [0.0, 1.0])
        assert ef.dim == 1
        eta0, omega0 = ef.e_basis.basis[:, 0], ef.estar_forms[0]
        word = FlowWord.of((1, 0.6), (2, -0.4), (1, 0.2))
        tv = theta_transport(manifold, chart, frame, word, eta0, [0.0, 1.0])
        tw = theta_star_transport(manifold, chart, frame, word, omega0, [0.0, 1.0])
        # the class genuinely stretches, and the pairing still balances
        assert abs(float(np.linalg.norm(tv.value)) - 1.0) > 1e-2
        assert abs(
            pair_e_estar(tw.value, tv.value) - pair_e_estar(omega0, eta0)
        ) <= 1e-8

    def test_twisted_frame_is_cr_on_ambient_manifold(self):
        manifold, _chart, _frame = _twisted_setup()
        r2 = "(x^2 + y^2)"
        den = f"(1 + {r2}^2)"
        g1 = f"2*u*(y - {r2}*x)/{den}"
        g2 = f"2*u*(x + {r2}*y)/{den}"
        ambient = [
            VectorFieldSpec.parse(["1", "0", g1, g2], 4, AL4),
            VectorFieldSpec.parse(["0", "1", f"-({g2})", g1], 4, AL4),
        ]
        rng = np.random.default_rng(1)
        samples = []
        for _ in range(5):
            x, y, u = rng.uniform(-0.8, 0.8, 3)
            samples.append(np.array([x, y, u, u * (x * x + y * y)]))
        assert cr_frame(manifold, samples[0], ambient, samples=samples[1:])

"""Brackets, symbols and Hamiltonian lifts of expression vector fields."""

import math

import numpy as np
import pytest

from crorbit.expr import Const, ExprDomainError
from crorbit.flow import IntegratorConfig, _integrate
from crorbit.vectorfield import (
    CotangentPoint,
    VectorFieldSpec,
    hamiltonian_field,
    lie_bracket,
    lie_bracket_field,
    symbol,
)


def _field(texts, dim, aliases=None):
    return VectorFieldSpec.parse(texts, dim, aliases)


LEWY_X1 = _field(["1", "0", "2*x2"], 3)
LEWY_X2 = _field(["0", "1", "-2*x1"], 3)


class TestVectorFieldSpec:
    def test_coefficient_count_enforced(self):
        with pytest.raises(ValueError, match="coefficients"):
            VectorFieldSpec((Const(1.0),), 2)

    def test_values_and_jacobian(self):
        f = _field(["x1*x2", "x2^2"], 2)
        a, jac = f.values_and_jacobian([2.0, 3.0])
        assert np.allclose(a, [6.0, 9.0])
        assert np.allclose(jac, [[3.0, 2.0], [0.0, 6.0]])

    @pytest.mark.parametrize("x", [[0.0, 0.0], np.zeros(2)], ids=["list", "ndarray"])
    def test_division_by_zero_raises_whatever_the_input_type(self, x):
        """Interpreted first call and compiled kernel alike: ExprDomainError, Python's message."""
        f = _field(["1/x1", "1"], 2)
        for _ in range(3):
            with pytest.raises(ExprDomainError, match="float division by zero"):
                f.values_and_jacobian(x)


class TestCompileOnReuse:
    X = [0.5, -2.0]

    def test_field_evaluated_once_compiles_nothing(self, compilations):
        a, jac = _field(["x1*x2", "sin(x1)"], 2).values_and_jacobian(self.X)
        assert a.tolist() == [-1.0, math.sin(0.5)]
        assert jac.tolist() == [[-2.0, 0.5], [math.cos(0.5), 0.0]]
        assert compilations["compile_values_and_jacobian"] == []

    def test_second_call_compiles_once(self, compilations):
        f = _field(["x1*x2", "sin(x1)"], 2)
        first = f.values_and_jacobian(self.X)
        assert compilations["compile_values_and_jacobian"] == []
        for _ in range(4):  # the second call compiles, later calls reuse the kernel
            later = f.values_and_jacobian(np.array(self.X))
            assert compilations["compile_values_and_jacobian"] == [(f.coefficients, 2)]
            for got, want in zip(later, first):
                assert np.array_equal(got, want)

    def test_values_and_jacobian_share_one_counter(self, compilations):
        f = _field(["x1*x2", "sin(x1)"], 2)
        f.values(self.X)
        f.values_and_jacobian(self.X)
        f.values(self.X)
        assert compilations["compile_values_and_jacobian"] == [(f.coefficients, 2)]
        assert compilations["compile_values"] == []


class TestLieBracket:
    def test_constant_and_linear(self):
        x = _field(["1", "0"], 2)
        y = _field(["0", "x1"], 2)
        for pt in ([0.0, 0.0], [2.0, -1.0]):
            assert np.allclose(lie_bracket(x, y, pt), [0.0, 1.0], atol=1e-15)

    def test_lewy_frame_bracket(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            pt = rng.uniform(-3, 3, 3)
            assert np.allclose(
                lie_bracket(LEWY_X1, LEWY_X2, pt), [0.0, 0.0, -4.0], atol=1e-14
            )

    def test_self_bracket_vanishes(self):
        f = _field(["x2^2", "sin(x1)"], 2)
        assert np.allclose(lie_bracket(f, f, [0.3, 0.7]), 0.0, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            lie_bracket(_field(["1"], 1), _field(["1", "0"], 2), [0.0])

    def test_antisymmetry_and_bilinearity(self):
        rng = np.random.default_rng(7)

        def rand_field():
            return _field(
                [
                    f"{rng.uniform(-1, 1)!r}*x1*x2 + {rng.uniform(-1, 1)!r}*x2^2",
                    f"{rng.uniform(-1, 1)!r}*x1 + {rng.uniform(-1, 1)!r}*x1^2",
                ],
                2,
            )

        for _ in range(20):
            x, y = rand_field(), rand_field()
            pt = rng.uniform(-1, 1, 2)
            assert np.allclose(
                lie_bracket(x, y, pt), -lie_bracket(y, x, pt), atol=1e-13
            )
            alpha = float(rng.uniform(-2, 2))
            scaled = x.scaled(Const(alpha))
            assert np.allclose(
                lie_bracket(scaled, y, pt), alpha * lie_bracket(x, y, pt), atol=1e-12
            )

    def test_jacobi_identity(self):
        rng = np.random.default_rng(13)
        fields = [
            _field(["x2", "x1*x1"], 2),
            _field(["x1*x2", "1"], 2),
            _field(["x1^2 - x2", "x2^2"], 2),
        ]
        x, y, z = fields
        xy, yz, zx = (
            lie_bracket_field(x, y),
            lie_bracket_field(y, z),
            lie_bracket_field(z, x),
        )
        for _ in range(25):
            pt = rng.uniform(-1, 1, 2)
            total = (
                lie_bracket(x, yz, pt)
                + lie_bracket(y, zx, pt)
                + lie_bracket(z, xy, pt)
            )
            assert np.max(np.abs(total)) <= 1e-10

    def test_symbolic_bracket_matches_pointwise(self):
        br = lie_bracket_field(LEWY_X1, LEWY_X2)
        rng = np.random.default_rng(3)
        for _ in range(5):
            pt = rng.uniform(-2, 2, 3)
            assert np.allclose(br.values(pt), lie_bracket(LEWY_X1, LEWY_X2, pt))


class TestSymbol:
    def test_constant_field(self):
        f = _field(["1", "0"], 2)
        assert symbol(f, CotangentPoint([0.0, 0.0], [1.0, 0.0])) == 1.0

    def test_direct_formula(self):
        f = _field(["x2", "0"], 2)
        assert symbol(f, CotangentPoint([0.0, 3.0], [2.0, 0.0])) == 6.0

    def test_zero_covector(self):
        f = _field(["sin(x1)", "x2^3"], 2)
        assert symbol(f, CotangentPoint([0.4, -0.2], [0.0, 0.0])) == 0.0

    def test_linearity_in_xi(self):
        rng = np.random.default_rng(21)
        f = _field(["x1*x2", "exp(x1)"], 2)
        for _ in range(20):
            x = rng.uniform(-1, 1, 2)
            xi, zeta = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
            a, b = rng.uniform(-2, 2, 2)
            lhs = symbol(f, CotangentPoint(x, a * xi + b * zeta))
            rhs = a * symbol(f, CotangentPoint(x, xi)) + b * symbol(
                f, CotangentPoint(x, zeta)
            )
            assert lhs == pytest.approx(rhs, abs=1e-14)


class TestHamiltonianField:
    def test_constant_field(self):
        f = _field(["1", "0"], 2)
        xdot, xidot = hamiltonian_field(f, CotangentPoint([0.3, 0.1], [0.5, -2.0]))
        assert np.allclose(xdot, [1.0, 0.0])
        assert np.allclose(xidot, [0.0, 0.0])

    def test_linear_field(self):
        f = _field(["0", "x2"], 2)
        xdot, xidot = hamiltonian_field(f, CotangentPoint([5.0, 1.0], [0.0, 1.0]))
        assert np.allclose(xdot, [0.0, 1.0])
        assert np.allclose(xidot, [0.0, -1.0])

    def test_symbol_conserved_along_flow(self):
        """d/dt sigma(X) = 0 along the Hamiltonian flow of sigma(X)."""
        f = _field(["x1*x2", "1 - x2^2"], 2)
        x0 = np.array([0.2, -0.4])
        xi0 = np.array([1.0, 0.5])
        sigma0 = symbol(f, CotangentPoint(x0, xi0))
        drift = [0.0]

        def rhs(_t, y):
            xd, xid = hamiltonian_field(f, CotangentPoint(y[:2], y[2:]))
            return np.concatenate((xd, xid))

        def watch(_t, y):
            drift[0] = max(
                drift[0], abs(symbol(f, CotangentPoint(y[:2], y[2:])) - sigma0)
            )
            return y

        _integrate(rhs, 1.0, np.concatenate((x0, xi0)), IntegratorConfig(), on_step=watch)
        assert drift[0] <= 1e-8

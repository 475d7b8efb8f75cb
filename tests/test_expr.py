"""Expression parsing, printing, jets and the finite-difference oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crorbit.expr import (
    MAX_DEPTH,
    Add,
    Call,
    Const,
    Div,
    ExprDomainError,
    ExprSyntaxError,
    Jet,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    add,
    call,
    compile_values,
    compile_values_and_jacobian,
    compile_values_and_jacobian_rows,
    compile_values_rows,
    const,
    differentiate,
    eval_values_and_jacobian,
    evaluate_rows,
    mul,
    parse_expr,
    powi,
    substitute,
    to_text,
)
from crorbit.vectorfield import VectorFieldSpec
from jet_oracle import _jet_rec


def _at(tree, x):
    """``tree``'s value and gradient at ``x`` from the kernel's interpreted twin."""
    x = np.asarray(x, dtype=float).tolist()
    (value,), (gradient,) = eval_values_and_jacobian((tree,), len(x), x)
    return value, gradient


class TestParser:
    def test_direct_grammar_case(self):
        tree = parse_expr("x1*x1 + x2", 2)
        assert tree == Add(Mul(Var(0), Var(0)), Var(1))

    def test_index_out_of_range(self):
        with pytest.raises(ExprSyntaxError, match="out of range"):
            parse_expr("sin(x3)", 2)

    def test_lewy_defining_function_with_aliases(self):
        tree = parse_expr("v - x^2 - y^2", 4, aliases=["x", "y", "u", "v"])
        assert tree == Sub(Sub(Var(3), Pow(Var(0), 2)), Pow(Var(1), 2))

    def test_unknown_identifier_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("x1 + foo", 2)
        assert err.value.position == 5

    def test_syntax_error_reports_position(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("x1 + * x2", 2)
        with pytest.raises(ExprSyntaxError):
            parse_expr("sin(x1", 1)
        with pytest.raises(ExprSyntaxError):
            parse_expr("x1 x2", 2)

    def test_precedence_and_power(self):
        assert parse_expr("2*x1^2", 1) == Mul(Const(2.0), Pow(Var(0), 2))
        assert parse_expr("x1^-2", 1) == Pow(Var(0), -2)
        with pytest.raises(ExprSyntaxError, match="integer"):
            parse_expr("x1^1.5", 1)

    def test_unary_minus_extension(self):
        assert parse_expr("-3", 1) == Const(-3.0)
        assert parse_expr("- 3", 1) == Const(-3.0)
        assert parse_expr("-(2.0)", 1) == Neg(Const(2.0))  # a parenthesised literal stays
        assert parse_expr("-2^2", 1) == Neg(Pow(Const(2.0), 2))
        assert parse_expr("-x1", 1) == Neg(Var(0))
        assert _at(parse_expr("-x1^2", 1), [3.0])[0] == -9.0

    def test_function_calls(self):
        assert parse_expr("sin(x1)", 1) == Call("sin", Var(0))
        assert parse_expr("log(exp(x1))", 1) == Call("log", Call("exp", Var(0)))

    def test_alias_shadows_function_rejected(self):
        with pytest.raises(ValueError, match="shadows"):
            parse_expr("sin(x1)", 1, aliases=["sin"])
        with pytest.raises(ValueError, match="shadows"):  # Python could not read it as a name
            parse_expr("lambda + 1", 1, aliases=["lambda"])

    def test_error_after_power_keeps_its_position(self):
        # every "^" is read as "**", one character longer: positions are mapped back
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("x1^2 + x2^2 + foo", 2)
        assert err.value.position == 14
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("x1^2 + x2^2 + * x2", 2)
        assert err.value.position == 14

    @pytest.mark.parametrize(
        "text, aliases, position",
        [("x1 +", None, 4), ("x1^", None, 3), ("x1 +  ", None, 6), ("2*y +", ["x", "y"], 5)],
    )
    def test_truncated_input_reports_its_end(self, text, aliases, position):
        with pytest.raises(ExprSyntaxError, match="end of input") as err:
            parse_expr(text, 2, aliases)
        assert err.value.position == position


class TestGrammarEdges:
    @pytest.mark.parametrize(
        "text", ["  x1*x2", "\tx1 *x2", "x1\n*\tx2", "\n x1\r\n*\n\t x2\n"]
    )
    def test_whitespace_anywhere(self, text):
        assert parse_expr(text, 2) == Mul(Var(0), Var(1))

    @pytest.mark.parametrize("text", ["007", "x1^02", "x1 + 01"])
    def test_leading_zero_integers_rejected(self, text):
        with pytest.raises(ExprSyntaxError, match="leading zeros"):
            parse_expr(text, 1)

    def test_zero_and_float_literals_with_leading_zeros_accepted(self):
        assert parse_expr("00", 1) == Const(0.0)
        assert parse_expr("00.5 + x1^0", 1) == Add(Const(0.5), Pow(Var(0), 0))

    @pytest.mark.parametrize(
        "text, position",
        [
            ("x1**2", 2),
            ("x1^(2)", 4),
            ("x1^0x2", 3),
            ("x1^1_0", 3),
            ("sin(x1,)", 0),
            ("sin(x=x1)", 0),
            ("0x1F", 0),
            ("1_000", 0),
            ("True", 0),
            ("1j", 0),
            ("x2 + x1.real", 5),
            ("x1 < x2", 0),
            ("x1 # comment", 3),
        ],
    )
    def test_python_syntax_outside_the_grammar_rejected(self, text, position):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text, 2)
        assert err.value.position == position

    def test_depth_bound(self):
        def nested(levels):
            return "sin(" * levels + "x1" + ")" * levels

        assert parse_expr(nested(MAX_DEPTH - 1), 1) is not None  # MAX_DEPTH nodes deep
        with pytest.raises(ExprSyntaxError, match=f"nested more than {MAX_DEPTH}") as err:
            parse_expr(nested(MAX_DEPTH), 1)
        assert err.value.position == 4 * MAX_DEPTH  # the innermost x1, one node too deep


# random tree strategy for the round-trip property
def _exprs(depth: int = 4, dim: int = 3):
    leaves = st.one_of(
        st.integers(0, dim - 1).map(Var),
        st.floats(-5, 5, allow_nan=False).map(lambda v: Const(float(v))),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: Add(*ab)),
            st.tuples(children, children).map(lambda ab: Sub(*ab)),
            st.tuples(children, children).map(lambda ab: Mul(*ab)),
            st.tuples(children, children).map(lambda ab: Div(*ab)),
            st.tuples(children, st.integers(0, 4)).map(lambda bn: Pow(*bn)),
            children.map(Neg),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "log"]), children).map(
                lambda fa: Call(*fa)
            ),
        )

    return st.recursive(leaves, extend, max_leaves=25)


class TestRoundTrip:
    @given(_exprs())
    @settings(max_examples=300, deadline=None)
    def test_print_parse_round_trip(self, tree):
        assert parse_expr(to_text(tree), 3) == tree

    def test_round_trip_with_aliases(self):
        names = ["x", "y", "u", "v"]
        tree = parse_expr("v - x^2 - y^2", 4, names)
        assert parse_expr(to_text(tree, names), 4, names) == tree


class TestJets:
    def test_product_rule(self):
        value, gradient = _at(parse_expr("x1*x2", 2), [3.0, 5.0])
        assert value == 15.0
        assert np.array_equal(gradient, [5.0, 3.0])

    def test_exp_identity(self):
        value, gradient = _at(parse_expr("exp(x1)", 1), [0.0])
        assert value == 1.0
        assert gradient[0] == 1.0

    def test_quadratic(self):
        value, gradient = _at(parse_expr("x1^2 + x2^2", 2), [1.0, 2.0])
        assert value == 5.0
        assert np.array_equal(gradient, [2.0, 4.0])

    def test_order_zero_has_no_gradient(self):
        """With no coordinate partials asked for, the Jacobian has no columns."""
        values, jac = eval_values_and_jacobian((parse_expr("x1", 1),), 0, [2.0])
        assert values.tolist() == [2.0]
        assert jac.shape == (1, 0)

    def test_domain_errors(self):
        with pytest.raises(ExprDomainError, match="float division by zero"):
            _at(parse_expr("1/x1", 1), [0.0])
        with pytest.raises(ExprDomainError, match="math domain error"):
            _at(parse_expr("log(x1)", 1), [-1.0])
        with pytest.raises(ExprDomainError, match="cannot be raised to a negative power"):
            _at(parse_expr("x1^-1", 1), [0.0])


def _random_tree(rng, dim, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var(int(rng.integers(0, dim)))
        return Const(float(rng.uniform(-2, 2)))
    choice = rng.integers(0, 6)
    a = _random_tree(rng, dim, depth - 1)
    b = _random_tree(rng, dim, depth - 1)
    if choice == 0:
        return Add(a, b)
    if choice == 1:
        return Sub(a, b)
    if choice == 2:
        return Mul(a, b)
    if choice == 3:
        return Pow(a, int(rng.integers(0, 4)))
    if choice == 4:
        return Call(str(rng.choice(["sin", "cos", "exp"])), a)
    return Mul(Const(float(rng.uniform(-1, 1))), a)


class TestFiniteDifferenceOracle:
    def test_gradients_match_central_differences(self):
        """Forward-mode gradients vs central differences on 1000 random cases."""
        rng = np.random.default_rng(99)
        step = 1e-5
        checked = 0
        while checked < 1000:
            dim = int(rng.integers(1, 4))
            tree = _random_tree(rng, dim, 3)
            x = rng.uniform(-1.0, 1.0, dim)
            try:
                value, gradient = _at(tree, x)
            except ExprDomainError:
                continue
            if abs(value) > 1e3 or np.max(np.abs(gradient)) > 1e3:
                continue
            for k in range(dim):
                xp, xm = x.copy(), x.copy()
                xp[k] += step
                xm[k] -= step
                up, down = (_at(tree, y)[0] for y in (xp, xm))
                fd = (up - down) / (2 * step)
                scale = max(1.0, abs(gradient[k]))
                assert abs(gradient[k] - fd) <= 1e-6 * scale
            checked += 1


class TestDifferentiate:
    def test_polynomial_partial(self):
        tree = parse_expr("x1^3*x2", 2)
        dx = differentiate(tree, 0)
        assert _at(dx, [2.0, 5.0])[0] == pytest.approx(60.0, abs=1e-12)

    def test_chain_rules(self):
        rng = np.random.default_rng(5)
        for text in ("sin(x1^2)", "cos(x1)*exp(x1)", "log(2 + x1^2)", "1/(1 + x1^2)"):
            tree = parse_expr(text, 1)
            dx = differentiate(tree, 0)
            for _ in range(10):
                x = rng.uniform(-1.0, 1.0, 1)
                assert _at(dx, x)[0] == pytest.approx(_at(tree, x)[1][0], abs=1e-14)

    def test_closed_under_grammar(self):
        tree = parse_expr("sin(x1)*x2^3/(1 + x1^2)", 2)
        d = differentiate(differentiate(tree, 0), 1)
        assert parse_expr(to_text(d), 2) == d


def _random_jet_tree(rng, dim, depth):
    """A random tree over every rule: + - * /, Neg, ^ (negative too), sin/cos/exp/log."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.6:
            return Var(int(rng.integers(0, dim)))
        return Const(float(rng.uniform(-2, 2)))
    kind = int(rng.integers(0, 7))
    a = _random_jet_tree(rng, dim, depth - 1)
    if kind == 4:
        return Neg(a)
    if kind == 5:
        return Pow(a, int(rng.integers(-2, 4)))
    if kind == 6:
        return Call(str(rng.choice(["sin", "cos", "exp", "log"])), a)
    return (Add, Sub, Mul, Div)[kind](a, _random_jet_tree(rng, dim, depth - 1))


class TestCompiledEvaluators:
    def test_matches_interpreted_path(self):
        """Kernels and their interpreted twin agree with the reference interpreter to rounding."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            dim = int(rng.integers(1, 5))
            trees = [_random_tree(rng, dim, 3) for _ in range(dim)]
            fn = compile_values_and_jacobian(trees, dim)
            x = rng.uniform(-0.8, 0.8, dim)
            try:
                vals, jac = fn(x)
            except ExprDomainError:
                continue
            for i, tree in enumerate(trees):
                value, gradient = _jet_rec(tree, x, 1)
                for v, g in ((vals[i], jac[i]), _at(tree, x)):
                    assert v == pytest.approx(value, abs=1e-13, rel=1e-13)
                    assert np.allclose(g, gradient, atol=1e-13, rtol=1e-13)

    def test_one_shot_evaluation_equals_kernel_exactly(self):
        """The interpreted twin runs the kernel's rules: equal bits, infinities and NaN included."""
        rng = np.random.default_rng(9)
        jets = 0
        while jets < 10_000:
            dim = int(rng.integers(1, 4))
            tree = _random_jet_tree(rng, dim, 4)
            fn = compile_values_and_jacobian([tree], dim)
            for x in rng.uniform(-1.5, 1.5, (4, dim)):
                try:
                    one_value, one_gradient = _at(tree, x)
                    kernels = [fn(x.tolist()), fn(x)]
                except ExprDomainError:
                    continue
                for (value,), (row,) in kernels:
                    assert value.tobytes() == np.float64(one_value).tobytes(), (to_text(tree), x)
                    assert row.tobytes() == one_gradient.tobytes(), (to_text(tree), x)
                jets += 1

    @pytest.mark.parametrize("as_list", [True, False], ids=["list", "ndarray"])
    def test_interpreted_first_call_equals_kernel_exactly(self, as_list):
        """A field's first call, interpreted, returns its kernel's arrays at the same point."""
        rng = np.random.default_rng(10)
        fields = 0
        while fields < 1_000:
            dim = int(rng.integers(1, 4))
            trees = tuple(_random_jet_tree(rng, dim, 4) for _ in range(dim))
            try:
                fn = compile_values_and_jacobian(trees, dim)
            except ExprDomainError:  # a constant subexpression that is not finite
                continue
            for x in rng.uniform(-1.5, 1.5, (4, dim)):
                point = x.tolist() if as_list else x
                try:
                    first = VectorFieldSpec(trees, dim).values_and_jacobian(point)
                    kernel = fn(point)
                except ExprDomainError:
                    continue
                if not all(np.isfinite(out).all() for out in kernel):
                    continue
                for got, want, shape in zip(first, kernel, [(dim,), (dim, dim)]):
                    assert got.dtype == want.dtype == np.float64
                    assert got.shape == want.shape == shape
                    assert got.tobytes() == want.tobytes(), ([to_text(t) for t in trees], x)
                fields += 1

    def test_values_only(self):
        fn = compile_values([parse_expr("x1 + 2", 1)])
        out = fn([1.5])
        assert isinstance(out, np.ndarray) and out.dtype == np.float64
        assert out.tolist() == [3.5]

    @pytest.mark.parametrize(
        "x", [[2.0, -3.0], [2, -3], np.array([2.0, -3.0])], ids=["list", "int-list", "ndarray"]
    )
    def test_kernels_return_float64_arrays(self, x):
        trees = [parse_expr(t, 2) for t in ("x1*x2 + 1", "x2", "sin(x1)")]
        values = compile_values(trees)(x)
        vals, jac = compile_values_and_jacobian(trees, 2)(x)
        for out, shape in ((values, (3,)), (vals, (3,)), (jac, (3, 2))):
            assert isinstance(out, np.ndarray) and out.dtype == np.float64
            assert out.shape == shape
        assert values.tolist() == vals.tolist() == [-5.0, -3.0, math.sin(2.0)]
        assert jac.tolist() == [[-3.0, 2.0], [0.0, 1.0], [math.cos(2.0), 0.0]]

    def test_zeroth_power_at_zero_base(self):
        """x^0 is 1 with derivative 0 everywhere, also at x = 0."""
        tree = parse_expr("x1^0 + x1", 1)
        fn = compile_values_and_jacobian([tree], 1)
        for x in ([0.0], np.zeros(1)):
            vals, jac = fn(x)
            assert vals.tolist() == [1.0] and jac.tolist() == [[1.0]]
        value, gradient = _at(tree, [0.0])
        assert value == 1.0 and gradient.tolist() == [1.0]
        # the base is still evaluated: its own domain error raises
        undefined = parse_expr("(1/x1)^0", 1)
        with pytest.raises(ExprDomainError, match="float division by zero"):
            compile_values_and_jacobian([undefined], 1)([0.0])
        with pytest.raises(ExprDomainError, match="float division by zero"):
            _at(undefined, [0.0])


class TestColumnKernels:
    """A batch of points gives each row the point kernel's bits or its error."""

    def test_rows_equal_point_kernel_exactly(self):
        rng = np.random.default_rng(12)
        rows = undefined = 0
        while rows < 5_000:
            dim = int(rng.integers(1, 4))
            trees = tuple(_random_jet_tree(rng, dim, 4) for _ in range(dim))
            try:
                point = compile_values_and_jacobian(trees, dim)
            except ExprDomainError:  # a constant subexpression that is not finite
                continue
            X = rng.uniform(-1.5, 1.5, (8, dim))
            X[0, 0] = 0.0  # reciprocals and negative powers of a zero coordinate
            jets = (compile_values_and_jacobian_rows(trees, dim), point)
            values = (compile_values_rows(trees), compile_values(trees))
            (vals, jac), errors = evaluate_rows(*jets, X)
            (vals_only,), value_errors = evaluate_rows(*values, X)
            assert value_errors.keys() <= errors.keys()
            for r, x in enumerate(X.tolist()):
                try:
                    want = point(x)
                except ExprDomainError as exc:
                    assert str(errors[r]) == str(exc), [to_text(t) for t in trees]
                    undefined += 1
                    continue
                assert r not in errors
                for got, expected in zip((vals[r], jac[r]), want):
                    assert got.tobytes() == expected.tobytes(), ([to_text(t) for t in trees], x)
                if r not in value_errors:
                    assert vals_only[r].tobytes() == want[0].tobytes()
                rows += 1
        assert undefined > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rows_where_python_refuses_go_to_the_point_kernel(self):
        """1/(1/x) is finite in float64 at x = 0; Python raises, and so does the row."""
        trees = [parse_expr(t, 2) for t in ("1/(1/x1)", "x2^-2", "log(x2)", "exp(x1)")]
        X = np.array([[2.0, 4.0], [0.0, 4.0], [2.0, 0.0], [2.0, -1.0], [1000.0, 1.0]])
        (vals, _), errors = evaluate_rows(
            compile_values_and_jacobian_rows(trees, 2), compile_values_and_jacobian(trees, 2), X
        )
        assert {r: str(e) for r, e in errors.items()} == {
            1: "float division by zero",
            2: "0.0 cannot be raised to a negative power",
            3: "math domain error",
            4: "math range error",
        }
        assert vals[0].tolist() == [2.0, 1 / 16, math.log(4.0), math.exp(2.0)]


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_kernel_without_guards_returns_no_mask(self):
        """+ - * and negation cannot fail a row: no mask, and every row is the point kernel's."""
        trees = [parse_expr(t, 3) for t in ("x1*x2 - 3*x3*x3", "-(x1 + 2)*x2*x2*x2", "x3")]
        X = np.array([[0.5, -1.0, 2.0], [1e200, 1e200, 0.0], [math.inf, 0.0, 1.0],
                      [math.nan, 1.0, 1.0], [-0.0, 0.0, -0.0]])
        point = compile_values_and_jacobian(trees, 3)
        for kernel, count in ((compile_values_and_jacobian_rows(trees, 3), 2),
                              (compile_values_rows(trees), 1)):
            with np.errstate(all="ignore"):
                *outs, ok = kernel(X.T)
            assert ok is None and len(outs) == count
            rows, errors = evaluate_rows(kernel, point, X)
            assert errors == {}
            for r, x in enumerate(X.tolist()):
                for got, want in zip(rows, point(x)):
                    assert got[r].tobytes() == want.tobytes(), x
        # a reciprocal is guarded: its kernel still returns a mask
        with np.errstate(all="ignore"):
            *_, ok = compile_values_rows([parse_expr("1/x1", 1)])(np.array([[0.0, 2.0]]))
        assert ok.tolist() == [False, True]


def _bits(call) -> tuple | str:
    """The bytes of the arrays ``call()`` returns, or the message of its ExprDomainError."""
    try:
        out = call()
    except ExprDomainError as exc:
        return str(exc)
    return tuple(a.tobytes() for a in (out if isinstance(out, tuple) else (out,)))


class TestJet:
    """One evaluation policy: interpreted once, compiled on reuse, rows by column kernel."""

    def test_every_path_returns_the_kernel_bits(self):
        """A first call, a compiled call and each row: the same bytes, or the same error."""
        rng = np.random.default_rng(10)
        fields = undefined = 0
        while fields < 2_000:
            dim = int(rng.integers(1, 4))
            trees = tuple(_random_jet_tree(rng, dim, 4) for _ in range(dim))
            X = rng.uniform(-1.5, 1.5, (4, dim))
            X[0, 0] = 0.0  # reciprocals and negative powers of a zero coordinate
            returned = False
            for partials in (True, False):
                first = [_bits(lambda: Jet(trees, dim, partials).at(x)) for x in X]
                jet = Jet(trees, dim, partials)
                _bits(lambda: jet.at(X[0]))  # its one interpreted call
                kernel = [_bits(lambda: jet.at(x)) for x in X]
                assert first == kernel, [to_text(t) for t in trees]
                try:
                    outs, errors = jet.rows(X)
                except ExprDomainError as exc:  # a constant subexpression that is not finite
                    assert kernel == [str(exc)] * len(X)
                    continue
                outs = outs if partials else (outs,)
                for r, want in enumerate(kernel):
                    got = str(errors[r]) if r in errors else tuple(o[r].tobytes() for o in outs)
                    assert got == want, ([to_text(t) for t in trees], X[r])
                undefined += len(errors)
                returned |= len(errors) < len(X)
            fields += returned
        assert undefined > 0

    @pytest.mark.parametrize("partials", [True, False], ids=["jacobian", "values"])
    def test_compiles_on_reuse_and_rows_once(self, partials, compilations):
        trees = (parse_expr("x1*x2", 2), parse_expr("sin(x1)/x2", 2))
        jet = Jet(trees, 2, partials)
        once = _bits(lambda: jet.at([0.5, 0.25]))
        assert all(log == [] for log in compilations.values())
        for _ in range(3):
            assert _bits(lambda: jet.at(np.array([0.5, 0.25]))) == once
        for _ in range(2):
            outs, errors = jet.rows(np.array([[0.5, 0.25], [1.0, 0.0]]))
        assert list(errors) == [1] and str(errors[1]) == "float division by zero"
        assert tuple(o[0].tobytes() for o in (outs if partials else (outs,))) == once
        suffix = "compile_values_and_jacobian" if partials else "compile_values"
        assert {name: len(log) for name, log in compilations.items() if log} == {
            suffix: 1, f"{suffix}_rows": 1
        }


    @pytest.mark.parametrize("partials", [True, False], ids=["jacobian", "values"])
    def test_one_row_is_the_point_call(self, partials, compilations):
        """Rows of one row are :meth:`Jet.at`'s bits or error, without a column kernel."""
        trees = (parse_expr("x1*x2", 2), parse_expr("sin(x1)/x2", 2))
        jet = Jet(trees, 2, partials)
        for x in ([0.5, 0.25], [1.0, 0.0], [0.5, 0.25], [0.3, 0.5]):
            want = _bits(lambda: Jet(trees, 2, partials).at(x))
            outs, errors = jet.rows(np.array([x]))
            outs = outs if partials else (outs,)
            assert [o.shape for o in outs] == [(1, 2), (1, 2, 2)][: len(outs)]
            got = str(errors[0]) if errors else tuple(o[0].tobytes() for o in outs)
            assert got == want and list(errors) == ([0] if isinstance(want, str) else [])
        assert compilations["compile_values_rows"] == []
        assert compilations["compile_values_and_jacobian_rows"] == []


class TestNonFiniteConstants:
    def test_literal_rejected_at_its_position(self):
        with pytest.raises(ExprSyntaxError, match="'1e400' is not finite") as info:
            parse_expr("x1 - 1e400", 1)
        assert info.value.position == 5

    @pytest.mark.parametrize(
        "build, named",
        [
            (lambda: mul(const(1e308), const(10.0)), "1e+308*10.0"),
            (lambda: add(const(1e308), const(1e308)), "1e+308 + 1e+308"),
            (lambda: powi(const(1e200), 2), "1e+200^2"),
            (lambda: call("exp", const(1000.0)), "exp(1000.0)"),
        ],
        ids=["mul", "add", "powi", "call"],
    )
    def test_smart_constructor_fold_names_subexpression(self, build, named):
        with pytest.raises(ExprDomainError, match=re.escape(named)):
            build()

    @pytest.mark.parametrize(
        "text, named",
        [
            ("1e308*10*x1", "1e+308*10.0"),
            ("1e200^2*x1", "1e+200^2"),
            ("exp(1000)*x1", "exp(1000.0)"),
        ],
        ids=["mul", "pow", "exp"],
    )
    def test_generator_fold_names_subexpression(self, text, named):
        tree = parse_expr(text, 1)
        with pytest.raises(ExprDomainError, match=re.escape(named)):
            compile_values([tree])
        with pytest.raises(ExprDomainError, match=re.escape(named)):
            compile_values_and_jacobian([tree], 1)
        with pytest.raises(ExprDomainError, match=re.escape(named)):  # interpreted first call
            VectorFieldSpec((tree,), 1).values_and_jacobian([1.0])

    def test_constant_absorbed_into_a_finite_value_is_named_when_compiled(self):
        """x1/inf would be 0: the first call raises what compiling the kernel raises."""
        field = VectorFieldSpec((parse_expr("x1/(1e308*10)", 1),), 1)
        for _ in range(2):  # interpreted, then compiled
            with pytest.raises(ExprDomainError, match=re.escape("1e+308*10.0")):
                field.values_and_jacobian([1.0])


class TestSubstitute:
    def test_zero_pinning(self):
        tree = parse_expr("x1*x3 + x2^2", 3)
        pinned = substitute(tree, {2: Const(0.0)})
        assert pinned == Pow(Var(1), 2)

"""Expression engine: grammar, differentiation, evaluation, zero testing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diracjacobi.symcalc import (
    Constant,
    Coordinate,
    EvaluationError,
    Exp,
    ExprSyntaxError,
    IntegerPower,
    Product,
    SamplingPolicy,
    Sum,
    UnknownSymbolError,
    ZeroVerdict,
    check_zero_all,
    differentiate,
    evaluate,
    free_coordinates,
    is_zero,
    normalize,
    parse,
    render,
    substitute,
)

from oracles import expr_fn, fd_partial

XY = ("x", "y")
XYT = ("x", "y", "t")


class TestParse:
    def test_product_plus_constant(self):
        e = parse("x*y + 2", XY)
        assert isinstance(e, Sum)
        assert parse("2 + y*x", XY) == e

    def test_exp_factor(self):
        e = parse("exp(t)*x", ("x", "t"))
        assert isinstance(e, Product)
        assert any(isinstance(f, Exp) for f in e.factors)

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError) as err:
            parse("x + z", XY)
        assert err.value.name == "z"
        assert err.value.position == 4

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError):
            parse("x + * y", XY)
        with pytest.raises(ExprSyntaxError):
            parse("x ^ y", XY)  # exponent must be an integer literal
        with pytest.raises(ExprSyntaxError):
            parse("sin x", XY)

    def test_decimal_literals_exact(self):
        assert parse("2.5", XY) == Constant(Fraction(5, 2))

    def test_power_and_unary(self):
        assert parse("-x^2", XY) == normalize(parse("-(x^2)", XY))
        assert parse("x^-2", XY) == IntegerPower(Coordinate("x"), -2)

    def test_whitespace_insignificant(self):
        assert parse(" x *y+ 2 ", XY) == parse("x*y+2", XY)


class TestDifferentiate:
    def test_power_rule(self):
        e = parse("x^2*y", XY)
        assert differentiate(e, "x") == parse("2*x*y", XY)

    def test_exponential(self):
        e = parse("exp(t)*x", ("x", "t"))
        assert differentiate(e, "t") == e

    def test_product_rule_trig(self):
        e = parse("sin(x)*cos(x)", XY)
        assert differentiate(e, "x") == parse("cos(x)^2 - sin(x)^2", XY)

    def test_quotient_and_ln(self):
        e = parse("ln(1 + x^2)", XY)
        d = differentiate(e, "x")
        assert d == parse("2*x/(1 + x^2)", XY)

    def test_against_finite_differences(self):
        import random

        rng = random.Random(5)
        exprs = [
            "x^3 - 2*x*y + y^2",
            "exp(x*y)",
            "sin(x)*cos(y) + x",
            "x/(2 + y^2)",
            "ln(2 + x^2)*y",
        ]
        for text in exprs:
            e = parse(text, XY)
            de = differentiate(e, "x")
            for _ in range(10):
                p = {"x": rng.uniform(-1.5, 1.5), "y": rng.uniform(-1.5, 1.5)}
                sym = float(evaluate(de, p))
                num = fd_partial(expr_fn(e), p, "x")
                assert abs(sym - num) <= 1e-6 * (1 + abs(sym))


class TestEvaluate:
    def test_exact_rational(self):
        v = evaluate(parse("x^2 + y", XY), {"x": 2, "y": 3})
        assert v == 7 and isinstance(v, Fraction)

    def test_exp_float(self):
        assert evaluate(parse("exp(t)", ("t",)), {"t": 0}) == 1.0

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("1/x", ("x",)), {"x": 0})
        with pytest.raises(EvaluationError):
            evaluate(parse("x^-1", ("x",)), {"x": 0})

    def test_exp_overflow_is_singular(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("exp(1000*x)", ("x",)), {"x": 1})

    def test_ln_domain(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("ln(x)", ("x",)), {"x": -1})

    def test_fraction_division_stays_exact(self):
        v = evaluate(parse("x/y", XY), {"x": 1, "y": 3})
        assert v == Fraction(1, 3)


class TestIsZero:
    def test_structural_zero(self, policy):
        assert is_zero(parse("x - x", XY), policy).verdict is ZeroVerdict.ZERO

    def test_pythagoras_sampled(self, policy):
        r = is_zero(parse("sin(x)^2 + cos(x)^2 - 1", ("x",)), policy)
        assert r.verdict is ZeroVerdict.PROBABLY_ZERO
        assert r.mode == "float-sampled"

    def test_nonzero_witness(self, policy):
        r = is_zero(parse("x*y - 1", XY), policy)
        assert r.verdict is ZeroVerdict.NONZERO
        assert r.witness_point is not None
        got = evaluate(parse("x*y - 1", XY), r.witness_point)
        assert abs(float(got) - r.witness_value) < 1e-12

    def test_rational_sampling_exact(self, policy):
        r = is_zero(parse("(x + y)^2 - x^2 - 2*x*y - y^2", XY), policy)
        assert r.verdict is ZeroVerdict.ZERO  # distribution collapses it first

    def test_singular_points_resampled(self, policy):
        r = is_zero(parse("1/x - 1/x", ("x",)), policy)
        assert r.verdict is not ZeroVerdict.NONZERO

    def test_determinism(self):
        pol = SamplingPolicy(seed=31, count=25)
        a = is_zero(parse("x*y - 1", XY), pol)
        b = is_zero(parse("x*y - 1", XY), pol)
        assert a == b


# -- hypothesis strategies over the expression grammar ------------------------


def exprs(coords=XYT, max_leaves=8):
    leaves = st.one_of(
        st.integers(-4, 4).map(lambda n: Constant(Fraction(n))),
        st.sampled_from([Coordinate(c) for c in coords]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: Sum(ab)),
            st.tuples(children, children).map(lambda ab: Product(ab)),
            st.tuples(children, st.integers(0, 3)).map(lambda bn: IntegerPower(*bn)),
            children.map(Exp),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


@settings(max_examples=80, deadline=None)
@given(exprs())
def test_normalize_idempotent(e):
    n = normalize(e)
    assert normalize(n) == n


@settings(max_examples=80, deadline=None)
@given(exprs())
def test_render_parse_roundtrip(e):
    n = normalize(e)
    assert parse(render(n), XYT) == n


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs(), st.integers(-3, 3), st.integers(-3, 3))
def test_derivative_linearity(e1, e2, a, b):
    combo = Constant(Fraction(a)) * e1 + Constant(Fraction(b)) * e2
    lhs = differentiate(combo, "x")
    rhs = Constant(Fraction(a)) * differentiate(e1, "x") + Constant(Fraction(b)) * differentiate(
        e2, "x"
    )
    assert normalize(lhs - rhs) == Constant(Fraction(0))


def test_substitute():
    e = parse("x^2 + y", XY)
    s = substitute(e, {"x": parse("t + 1", ("t",))})
    assert s == parse("1 + 2*t + t^2 + y", ("t", "y"))


def test_free_coordinates():
    assert free_coordinates(parse("x*exp(t) + 2", XYT)) == {"x", "t"}


def test_check_zero_all_shares_points(policy):
    # both expressions are evaluated over one deterministic point stream
    r = check_zero_all([parse("x - x", XY), parse("x*y - y*x", XY)], policy)
    assert r.verdict is ZeroVerdict.ZERO

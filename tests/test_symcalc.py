"""Expression engine: grammar, differentiation, evaluation, zero testing."""

from fractions import Fraction

import random
import sys
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from diracjacobi import chart_tensor
from diracjacobi.symcalc import (
    ZERO,
    Constant,
    Coordinate,
    Cos,
    EvaluationError,
    Exp,
    ExprError,
    ExprSyntaxError,
    IntegerPower,
    Ln,
    Product,
    Quotient,
    SamplingPolicy,
    Sin,
    Sum,
    UnknownSymbolError,
    ZeroVerdict,
    _Parser,
    _Tokenizer,
    _diff,
    check_zero_all,
    differentiate,
    evaluate,
    evaluate_with_scale,
    free_coordinates,
    is_structurally_zero,
    is_zero,
    normalize,
    parse,
    render,
    substitute,
)

from oracles import ReferenceTokenizer, expr_fn, fd_partial, poly_product, second_forms

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

    @pytest.mark.parametrize("text, message", [
        ("1..2", "unexpected '.2' (at position 2)"),
        ("exp(", "expected a number, symbol, or '(' (at position 4)"),
        ("x^-", "exponent must be an integer literal (at position 3)"),
        ("x) $", "unexpected ')' (at position 1)"),
        ("x + $", "unexpected character '$' (at position 4)"),
    ])
    def test_syntax_error_messages(self, text, message):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text, XY)
        assert str(err.value) == message

    @pytest.mark.parametrize("text", ["9" * 5000, "1." + "5" * 5000, "x^" + "9" * 5000])
    def test_literal_past_the_int_conversion_limit_is_a_syntax_error(self, text):
        with pytest.raises(ExprSyntaxError, match="too long"):
            parse(text, XY)

    @pytest.mark.parametrize("text", [
        "2^99999999 - x", "(1/3)^-99999999", "(-7)^6000 + y",
        pytest.param("9" * 3000 + "*" + "9" * 3000 + " - x", id="folded-product"),
        pytest.param("1/" + "7" * 2200 + "/" + "3" * 2200 + " + y", id="folded-quotient"),
    ])
    def test_constant_power_past_the_int_conversion_limit(self, text):
        with pytest.raises(ExprError, match=f"more than {sys.get_int_max_str_digits()} digits"):
            parse(text, XY)

    def test_constant_power_within_the_limit_folds(self):
        assert parse("10^4000", XY) == Constant(Fraction(10**4000))

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

    def test_power_overflow_is_singular(self):
        e = parse("x^2000", ("x",))
        for fn in (evaluate, evaluate_with_scale):
            with pytest.raises(EvaluationError):
                fn(e, {"x": 1.5})

    def test_ln_domain(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("ln(x)", ("x",)), {"x": -1})

    def test_fraction_division_stays_exact(self):
        v = evaluate(parse("x/y", XY), {"x": 1, "y": 3})
        assert v == Fraction(1, 3)

    def test_integral_constants_divide_exactly(self):
        # raw nodes: normalize would fold both into constants
        assert evaluate(Quotient(Constant(Fraction(1)), Constant(Fraction(3))), {}) == Fraction(1, 3)
        assert evaluate(IntegerPower(Constant(Fraction(2)), -2), {}) == Fraction(1, 4)


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


def exprs(coords=XYT, max_leaves=8, functions=(Exp, Ln, Sin, Cos), exponents=st.integers(0, 3)):
    """Raw expression trees; ``functions=()`` leaves only rational ones.

    ``exponents`` draws the integer powers; a negative one inverts its base.
    """
    leaves = st.one_of(
        st.integers(-4, 4).map(lambda n: Constant(Fraction(n))),
        st.sampled_from([Coordinate(c) for c in coords]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: Sum(ab)),
            st.tuples(children, children).map(lambda ab: Product(ab)),
            st.tuples(children, exponents).map(lambda bn: IntegerPower(*bn)),
            *(children.map(fn) for fn in functions),
            children.map(lambda e: -e),
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


# -- the kernel against sympy, a test-only oracle ------------------------------


def to_sympy(e):
    """The same expression in sympy, node for node, over real symbols."""
    sympy = pytest.importorskip("sympy")
    if isinstance(e, Constant):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Coordinate):
        return sympy.Symbol(e.name, real=True)
    if isinstance(e, Sum):
        return sympy.Add(*map(to_sympy, e.terms))
    if isinstance(e, Product):
        return sympy.Mul(*map(to_sympy, e.factors))
    if isinstance(e, Quotient):
        return to_sympy(e.numerator) / to_sympy(e.denominator)
    if isinstance(e, IntegerPower):
        return sympy.Pow(to_sympy(e.base), e.exponent)
    function = {Exp: sympy.exp, Ln: sympy.log, Sin: sympy.sin, Cos: sympy.cos}[type(e)]
    return function(to_sympy(e.arg))


def sympy_equal(a, b) -> bool:
    """a = b as real functions.

    expand settles the polynomial identities.  What it leaves, such as
    ln(exp(u)) = u for a u that sympy cannot prove real or a quotient left
    uncancelled, is compared at rational points where both sides are real.
    """
    sympy = pytest.importorskip("sympy")
    d = sympy.expand(a - b)
    if d == 0:
        return True
    rng = random.Random(0)
    symbols = sorted(d.free_symbols, key=str)
    compared = 0
    for _ in range(20):
        point = {s: sympy.Rational(rng.randint(-194, 194), 97) for s in symbols}
        va, vb = (sympy.N(x.subs(point), 30) for x in (a, b))
        if not all(v.is_real and v.is_finite for v in (va, vb)):
            continue
        if abs(va - vb) > 1e-20 * (1 + abs(va)):
            return False
        compared += 1
    assume(compared > 0)  # real nowhere on the sampled points
    return True


@settings(max_examples=150, deadline=None)
@given(exprs())
def test_normalize_agrees_with_sympy(e):
    assert sympy_equal(to_sympy(normalize(e)), to_sympy(e))


@settings(max_examples=150, deadline=None)
@given(exprs(), st.sampled_from(XYT))
def test_differentiate_agrees_with_sympy(e, v):
    sympy = pytest.importorskip("sympy")
    want = sympy.diff(to_sympy(e), sympy.Symbol(v, real=True))
    assert sympy_equal(to_sympy(differentiate(e, v)), want)


@settings(max_examples=80, deadline=None)
@given(exprs(), st.sampled_from(XYT))
def test_derivative_is_kept_on_the_node(e, v):
    n = normalize(e)
    first = differentiate(n, v)
    assert differentiate(n, v) is first
    assert first == normalize(_diff(normalize(e), v))


FLOAT_POINTS = st.tuples(*(st.floats(-2, 2) for _ in XYT)).map(lambda p: dict(zip(XYT, p)))
RATIONAL_POINTS = st.tuples(
    *(st.fractions(-2, 2, max_denominator=97) for _ in XYT)
).map(lambda p: dict(zip(XYT, p)))


def outcome(fn, e, point):
    """fn(e, point), or the type of the singularity it raised."""
    try:
        return fn(e, point)
    except (EvaluationError, OverflowError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(exprs(), FLOAT_POINTS)
def test_float_evaluation_matches_the_float_evaluator(e, point):
    for x in (e, normalize(e)):
        got = outcome(evaluate, x, point)
        want = outcome(lambda x, p: evaluate_with_scale(x, p)[0], x, point)
        if isinstance(want, float) and want != want:  # nan
            assert got != got
        else:
            assert got == want


@settings(max_examples=100, deadline=None)
@given(exprs(functions=()), RATIONAL_POINTS)
def test_rational_evaluation_is_exact(e, point):
    sympy = pytest.importorskip("sympy")
    want = to_sympy(e).subs(
        {sympy.Symbol(c, real=True): sympy.Rational(q.numerator, q.denominator)
         for c, q in point.items()}
    )
    for x in (e, normalize(e)):
        got = evaluate(x, point)
        assert isinstance(got, (int, Fraction))
        assert got == Fraction(int(want.p), int(want.q))


NEGATIVE_POWERS = st.integers(-2, 3)


@settings(max_examples=100, deadline=None)
@given(*(exprs(functions=(Exp,), exponents=NEGATIVE_POWERS, max_leaves=5) for _ in range(4)))
def test_products_with_inverted_sums_and_exps_agree_with_sympy(a, b, c, d):
    # (a + exp(b)) * (c + exp(d)): exp factors on both sides, whose merges
    # the multiplication memoizes, and negative powers of sums among the atoms
    e = Product((Sum((a, Exp(b))), Sum((c, Exp(d)))))
    assert sympy_equal(to_sympy(normalize(e)), to_sympy(e))


@pytest.mark.parametrize(
    "text, want",
    [
        # exp(ln(x)/2)^2 merges to exp(ln(x)), which is the coordinate x
        ("(exp(ln(x)/2) + y)^2", "x + y^2 + 2*y*exp(1/2*ln(x))"),
        ("(exp(ln(x)/2) + x)^2", "x + x^2 + 2*x*exp(1/2*ln(x))"),
        ("(exp(ln(2)/2) + y)^2", "2 + y^2 + 2*y*exp(1/2*ln(2))"),
        ("(exp(ln(x)/2)*y + exp(-ln(x)/2))*(exp(ln(x)/2) + x^-1)",
         "1 + x*y + y*x^-1*exp(1/2*ln(x)) + x^-1*exp(-(1/2*ln(x)))"),
    ],
)
def test_an_exp_merge_that_leaves_no_exp(text, want):
    got = parse(text, XY)
    assert got == parse(want, XY)
    assert render(got) == want
    assert sympy_equal(to_sympy(got), to_sympy(_Parser(text, XY).parse()))


def test_exp_factors_of_a_denominator_move_to_the_numerator():
    assert parse("exp(x)/exp(1/2*x)", XY) == parse("exp(1/2*x)", XY)
    assert render(parse("1/(2*exp(x)*y)", XY)) == "1/2*y^-1*exp(-x)"
    assert parse("(x + y)/exp(x)", XY) == parse("x*exp(-x) + y*exp(-x)", XY)


def test_a_quotient_of_proportional_terms_is_its_constant():
    assert parse("1 + x*(-1)/x", XY) == ZERO
    assert parse("(2 + 2*y)/(1 + y)", XY) == parse("2", XY)
    assert parse("(-3*x*exp(y))/(6*x*exp(y))", XY) == parse("-1/2", XY)
    assert render(parse("(x + 2*y)/(x + y)", XY)) == "(x + 2*y)/(x + y)"


# -- one normal form per value: reciprocals and powers of quotients -------------


@pytest.mark.parametrize(
    "text",
    [
        "y*(1/y) - 1",
        "x^-1 - 1/x",
        "(1+x)^-1 - 1/(1+x)",
        "(x/(1+y))*(x/(1+y)) - (x/(1+y))^2",
        "(x/(1+y))*(x/(1+y))*(x/(1+y)) - (x/(1+y))^3",
        "(x/(1+y))^2*(x/(1+y))*(x/(1+y)) - (x/(1+y))^4",
        "(x/(1+y))*(1/(1+x)) - x/((1+y)*(1+x))",
        "(x/(1+y))^-1 - (1+y)/x",
        "exp(x)*(1/(2*exp(x)*y)) - 1/(2*y)",
        "y/(1+y) - y*(1/(1+y))",
        "2/(1+x) - 2*(1/(1+x))",
        "x/(1+x) + 1/(1+x) - 1",
        "x/(1+y) + 1/(1+x) - (1 + x + y + x^2)/((1+y)*(1+x))",
        "1/(1+x) - 1/(1+y) - (y - x)/((1+x)*(1+y))",
        "(1/(1+x))/(1/(1+y)) - (1+y)/(1+x)",
    ],
)
def test_one_value_has_one_normal_form(text):
    assert parse(text, XY) == ZERO


@pytest.mark.parametrize(
    "text, want",
    [
        ("y*(1/(1 + y))", "y/(1 + y)"),
        ("x/(1 + y) + 1/(1 + x)", "(1 + x + y + x^2)/(1 + x + y + x*y)"),
        ("x + 1/(1 + y)", "(1 + x + x*y)/(1 + y)"),
        ("(x/(1 + y))*(y/(1 + x))", "x*y/(1 + x + y + x*y)"),
    ],
)
def test_a_sum_of_quotients_goes_over_one_denominator(text, want):
    assert render(parse(text, XY)) == want


@pytest.mark.parametrize("text", ["x/0 - 1/0", "x/(y-y) - 1/(y-y)", "(x/0)^2*(x/0)^-2 - 1",
                                  "(x/0)*(x/0)^-1 - 1"])
def test_singular_quotients_over_zero_stay_apart(text):
    e = parse(text, XY)
    assert not is_structurally_zero(e)
    with pytest.raises(EvaluationError):
        evaluate(e, {"x": Fraction(2), "y": Fraction(3)})


def test_a_singular_quotient_stays_whole():
    assert parse("x/0 - x/0", XY) == ZERO  # equal singular terms cancel
    x, y = Coordinate("x"), Coordinate("y")
    assert parse("y*(x/0)", XY) == Product((y, Quotient(x, ZERO)))  # a factor, not a numerator


RATIONAL = exprs(functions=(), exponents=st.integers(-3, 3))


def sympy_singular(e) -> bool:
    """Whether sympy meets a division by zero anywhere in the raw tree ``e``."""
    sympy = pytest.importorskip("sympy")
    bad = (sympy.zoo, sympy.nan, sympy.oo, -sympy.oo)
    stack = [e]
    while stack:
        n = stack.pop()
        if to_sympy(n).has(*bad):
            return True
        if isinstance(n, (Sum, Product)):
            stack += n.terms if isinstance(n, Sum) else n.factors
        elif isinstance(n, IntegerPower):
            stack.append(n.base)
    return False


X, ONE_PLUS_X = Coordinate("x"), Sum((Constant(Fraction(1)), Coordinate("x")))


@settings(max_examples=150, deadline=None)
@given(RATIONAL)
@example(Sum((Product((X, IntegerPower(ONE_PLUS_X, -1))), IntegerPower(ONE_PLUS_X, -1), Constant(Fraction(-1)))))
def test_normalization_decides_every_rational_zero(e):
    sympy = pytest.importorskip("sympy")
    assume(not sympy_singular(e))
    assert is_structurally_zero(e) == (sympy.cancel(to_sympy(e)) == 0)


@pytest.mark.parametrize(
    "text, want",
    [
        ("exp(ln(1+x)/2)*y*exp(ln(1+x)/2)", "y + x*y"),
        ("exp(ln(1+x)/2)*exp(ln(1+x)/2) - 1 - x", "0"),
        ("(exp(ln(1+x)/2) + y)*(exp(ln(1+x)/2) - y)", "1 + x - y^2"),
        ("exp(ln(x/(1+y)))*y", "x*y/(1 + y)"),
        ("exp(ln(x*y))*exp(x)", "x*y*exp(x)"),
    ],
)
def test_what_an_exp_merge_leaves_is_multiplied_out(text, want):
    e = parse(text, XY)
    assert render(e) == want and second_forms(e) == []


@settings(max_examples=100, deadline=None)
@given(RATIONAL, RATIONAL)
def test_an_exp_merge_leaves_one_normal_form(u, b):
    # exp(ln(u)/2)^2 is u, met within one monomial and across two sums
    half = Exp(Product((Constant(Fraction(1, 2)), Ln(u))))
    for e in (Product((b, half, half)), Product((Sum((b, half)), Sum((b, -half))))):
        assert second_forms(normalize(e)) == []
    assert is_structurally_zero(Product((b, half, half)) - Product((b, u)))
    assert is_structurally_zero(Product((Sum((b, half)), Sum((b, -half)))) - (b * b - u))


@settings(max_examples=150, deadline=None)
@given(RATIONAL)
def test_rational_render_parse_roundtrip(e):
    n = normalize(e)
    assert parse(render(n), XYT) == n


@pytest.mark.parametrize("text", ["y*(x/0)", "x/(1/(y-y))"])
def test_a_quotient_over_zero_renders_back_to_itself(text):
    # a singular quotient stays a factor of its product; rendered bare it
    # would read as the quotient of the whole product
    n = parse(text, XY)
    assert parse(render(n), XY) == n


@pytest.mark.parametrize(
    "text, want",
    [
        ("1/x", "x^-1"),
        ("x/(2*y^2)", "1/2*x*y^-2"),
        ("1/(1 + x)^2", "1/(1 + x^2 + 2*x)"),
        ("(x/(1 + y))^2", "x^2/(1 + y^2 + 2*y)"),
        ("(x/(1 + y))^-1", "x^-1 + y*x^-1"),
    ],
)
def test_only_a_sum_stays_under_a_quotient(text, want):
    assert render(parse(text, XY)) == want


def monomials():
    """c * a1^k1 * ... over coordinates and elementary functions of them."""
    atoms = st.one_of(
        st.sampled_from([Coordinate(c) for c in XYT]),
        st.tuples(st.sampled_from((Exp, Ln, Sin, Cos)), exprs(max_leaves=3)).map(
            lambda fa: fa[0](fa[1])
        ),
    )
    powers = st.tuples(atoms, st.integers(-3, 3)).map(lambda ak: IntegerPower(*ak))
    coeffs = st.fractions(-9, 9, max_denominator=5).filter(bool).map(Constant)
    return st.tuples(coeffs, st.lists(powers, min_size=1, max_size=4)).map(
        lambda cp: Product((cp[0], *cp[1]))
    )


@settings(max_examples=100, deadline=None)
@given(monomials())
def test_a_reciprocal_is_the_negative_power(m):
    assume(normalize(m) != ZERO)  # ln(1) is a zero factor: 1/0 stays a singular quotient
    assert normalize(Quotient(Constant(Fraction(1)), m)) == normalize(IntegerPower(m, -1))


@settings(max_examples=80, deadline=None)
@given(
    exprs(functions=(Exp,), exponents=NEGATIVE_POWERS, max_leaves=4),
    exprs(functions=(Exp,), exponents=NEGATIVE_POWERS, max_leaves=4),
    st.integers(2, 4),
)
def test_a_repeated_quotient_is_its_power(num, den, n):
    q = Quotient(num, den)
    power = normalize(IntegerPower(q, n))
    assert normalize(Product((q,) * n)) == power
    # as the parser builds q*q*q: the inner product normalized first
    assert normalize(Product((normalize(Product((q,) * (n - 1))), q))) == power


def test_a_singular_quotient_stays_singular_under_a_negative_power():
    for text in ("x/(1/(y-y))", "(1/(y-y))^-1"):
        e = parse(text, XY)
        assert e != ZERO
        with pytest.raises(EvaluationError):
            evaluate(e, {"x": Fraction(1), "y": Fraction(2)})


@pytest.mark.parametrize(
    "text",
    [
        "x^-2",
        "3*x^-2*y^3 - x^4*y + 2",
        "exp(x*y)*x^-1 + exp(2*x)*y^2",
        "(1 + x^2)^-2*x^3*y",
        "x^2/(1 + x*y)*exp(x)",
        "y*ln(1 + x^2)*x^-3 + sin(x*y)*x",
    ],
)
def test_exponent_shift_derivative_agrees_with_sympy(text):
    sympy = pytest.importorskip("sympy")
    e = parse(text, XY)
    for v in XY:
        got = differentiate(e, v)
        assert got == normalize(_diff(e, v))
        want = sympy.diff(to_sympy(e), sympy.Symbol(v, real=True))
        assert sympy.simplify(to_sympy(got) - want) == 0


@settings(max_examples=100, deadline=None)
@given(
    exprs(),
    st.dictionaries(st.sampled_from(XYT), exprs(max_leaves=4, exponents=NEGATIVE_POWERS)),
)
def test_substitute_agrees_with_sympy(e, assignment):
    want = to_sympy(e).subs(
        {to_sympy(Coordinate(c)): to_sympy(a) for c, a in assignment.items()}, simultaneous=True
    )
    assert sympy_equal(to_sympy(substitute(e, assignment)), want)


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


# -- products wider than 2000 terms multiply out in full ----------------------

XYZ = ("x", "y", "z")
DEGREE4 = ["*".join(c) or "1" for k in range(5) for c in combinations_with_replacement(XYZ, k)]


def dense_poly(rng: random.Random, terms: int = 20):
    """``terms`` distinct monomials of degree <= 4 on R^3, coefficients in {-2, -1, 1, 2}."""
    chosen = rng.sample(DEGREE4, terms)
    return parse(" + ".join(f"{rng.choice((-2, -1, 1, 2))}*{m}" for m in chosen), XYZ)


class TestWideProducts:
    def test_dense_antiderivation_is_symbolic(self, policy):
        # i_X(a ^ b) = i_X a ^ b - a ^ i_X b for a 1-form a and a 2-form b,
        # with 20-term degree-4 data: X^k * (a ^ b)_123 is 8000 pairs wide
        ct = chart_tensor
        M = ct.Chart("R3", XYZ)
        rng = random.Random(11)
        X = ct.VectorField(M, tuple(dense_poly(rng) for _ in XYZ))
        a = ct.DifferentialForm(M, 1, {(i,): dense_poly(rng) for i in range(3)})
        b = ct.DifferentialForm(M, 2, {idx: dense_poly(rng) for idx in combinations(range(3), 2)})
        residual = ct.interior_product(X, ct.wedge(a, b)) - (
            ct.wedge(ct.interior_product(X, a), b) + ct.wedge(a, ct.interior_product(X, b)).scale(-1)
        )
        rep = check_zero_all(residual.coefficients(), policy, coords=XYZ)
        assert rep.verdict is ZeroVerdict.ZERO and rep.mode == "symbolic"

    def test_associativity_is_structural(self):
        rng = random.Random(12)
        p, q, r = (dense_poly(rng) for _ in range(3))
        assert (p * q) * r - p * (q * r) == ZERO

    def test_power_of_a_sum_is_structural(self):
        e = parse("(x + y + z + 1)^9 - (x + y + z + 1)^4 * (x + y + z + 1)^5", XYZ)
        assert e == ZERO


EXPONENTS4 = [(i, j, k) for i in range(5) for j in range(5) for k in range(5) if i + j + k <= 4]


def poly_dicts():
    """Polynomials of degree <= 4 on R^3 as {exponent tuple: coefficient}, 1 to 20 terms."""
    exponents = st.sampled_from(EXPONENTS4)
    coefficients = st.fractions(-3, 3, max_denominator=4).filter(lambda c: c != 0)
    return st.integers(1, 20).flatmap(
        lambda n: st.dictionaries(exponents, coefficients, min_size=n, max_size=n)
    )


def poly_expr(p: dict):
    def monomial(c, e):
        powers = [IntegerPower(Coordinate(v), k) for v, k in zip(XYZ, e) if k]
        return Product((Constant(c), *powers))

    return normalize(Sum(tuple(monomial(c, e) for e, c in p.items())))


def exponents_of(term) -> tuple[Fraction, tuple[int, ...]]:
    """Read (coefficient, exponent tuple) off one term of a normalized polynomial."""
    coeff, exps = Fraction(1), [0] * len(XYZ)
    for f in term.factors if isinstance(term, Product) else (term,):
        if isinstance(f, Constant):
            coeff *= f.value
        elif isinstance(f, Coordinate):
            exps[XYZ.index(f.name)] += 1
        else:
            assert isinstance(f, IntegerPower) and isinstance(f.base, Coordinate), f
            exps[XYZ.index(f.base.name)] += f.exponent
    return coeff, tuple(exps)


_rng = random.Random(13)
WIDEST = [{e: Fraction(_rng.choice((-2, -1, 1, 2))) for e in _rng.sample(EXPONENTS4, 20)}
          for _ in range(3)]


@settings(max_examples=25, deadline=None)
@given(poly_dicts(), poly_dicts(), poly_dicts())
@example(*WIDEST)  # 20 * 20 * 20 = 8000 pairs
def test_product_matches_the_exponent_oracle(p, q, r):
    expected = poly_product([p, q, r], len(XYZ))
    got = normalize(Product((poly_expr(p), poly_expr(q), poly_expr(r))))
    terms = got.terms if isinstance(got, Sum) else () if got == ZERO else (got,)
    read = [exponents_of(t) for t in terms]
    assert len({e for _, e in read}) == len(read)  # one term per monomial
    assert {e: c for c, e in read} == expected


# -- the one-scan tokenizer against the rescanning reference ------------------

TOKEN_TEXT = st.text(alphabet="0123456789.xyexpln_sico+-*/^() \t$", max_size=24)


def parsed(run):
    """The value of ``run()``, or the type and message of the syntax error it raised."""
    try:
        return run()
    except (ExprSyntaxError, UnknownSymbolError) as exc:
        return type(exc), str(exc)


def token_stream(tokens):
    out = []
    while not out or out[-1][0] != "end":
        out.append(tokens.next())
    return out


class ReferenceParser(_Parser):
    def __init__(self, text, coords):
        super().__init__(text, coords)
        self.tokens = ReferenceTokenizer(text)


@settings(max_examples=300, deadline=None)
@given(TOKEN_TEXT)
@example("1..2")
@example("exp(x) ^ -2 * .5")
def test_tokenizer_matches_the_rescanning_reference(text):
    assert parsed(lambda: token_stream(_Tokenizer(text))) == parsed(
        lambda: token_stream(ReferenceTokenizer(text)))
    assert parsed(lambda: _Parser(text, XY).parse()) == parsed(
        lambda: ReferenceParser(text, XY).parse())

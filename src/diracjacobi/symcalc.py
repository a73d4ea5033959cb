"""Immutable symbolic scalar expressions over named coordinates.

The expression language is deliberately small: exact rational constants,
coordinates, sums, products, quotients, integer powers, and the elementary
functions exp, ln, sin, cos.  Normalization is structural only (flatten,
fold constants, collect identical monomials, merge exponentials); identity
checking beyond that falls back to randomized point evaluation, which is
exact on rational expressions when sampled at rational points.
"""

from __future__ import annotations

import enum
import math
import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Number = Union[int, float, Fraction]

_FUNCTION_NAMES = ("exp", "ln", "sin", "cos")


class ExprError(Exception):
    """Base class for expression-level failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(ExprError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown symbol '{name}' (at position {position})")
        self.name = name
        self.position = position


class EvaluationError(ExprError):
    """Evaluation hit a singular point (division by zero, ln of non-positive)."""


class SamplingExhaustedError(ExprError):
    """Too many sampled points were singular; the retry cap was reached."""


# --------------------------------------------------------------------------
# expression nodes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base node.  All subclasses are immutable and hashable."""

    def __add__(self, other) -> "Expr":
        return normalize(Sum((self, as_expr(other))))

    def __radd__(self, other) -> "Expr":
        return normalize(Sum((as_expr(other), self)))

    def __sub__(self, other) -> "Expr":
        return normalize(Sum((self, Neg(as_expr(other)))))

    def __rsub__(self, other) -> "Expr":
        return normalize(Sum((as_expr(other), Neg(self))))

    def __mul__(self, other) -> "Expr":
        return normalize(Product((self, as_expr(other))))

    def __rmul__(self, other) -> "Expr":
        return normalize(Product((as_expr(other), self)))

    def __truediv__(self, other) -> "Expr":
        return normalize(Quotient(self, as_expr(other)))

    def __rtruediv__(self, other) -> "Expr":
        return normalize(Quotient(as_expr(other), self))

    def __pow__(self, exponent: int) -> "Expr":
        if not isinstance(exponent, int):
            raise TypeError("only integer exponents are supported")
        return normalize(IntegerPower(self, exponent))

    def __neg__(self) -> "Expr":
        return normalize(Neg(self))

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Constant(Expr):
    value: Fraction


@dataclass(frozen=True)
class Coordinate(Expr):
    name: str


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple[Expr, ...]


@dataclass(frozen=True)
class Product(Expr):
    factors: tuple[Expr, ...]


@dataclass(frozen=True)
class Quotient(Expr):
    numerator: Expr
    denominator: Expr


@dataclass(frozen=True)
class IntegerPower(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True)
class Ln(Expr):
    arg: Expr


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr


ZERO = Constant(Fraction(0))
ONE = Constant(Fraction(1))


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Constant(Fraction(value))
    if isinstance(value, float):
        # floats enter only through user code; keep them exact
        return Constant(Fraction(value).limit_denominator(10**12))
    raise TypeError(f"cannot interpret {value!r} as an expression")


def coord(name: str) -> Coordinate:
    return Coordinate(name)


def free_coordinates(e: Expr) -> frozenset[str]:
    if isinstance(e, Constant):
        return frozenset()
    if isinstance(e, Coordinate):
        return frozenset((e.name,))
    if isinstance(e, Sum):
        out: frozenset[str] = frozenset()
        for t in e.terms:
            out |= free_coordinates(t)
        return out
    if isinstance(e, Product):
        out = frozenset()
        for f in e.factors:
            out |= free_coordinates(f)
        return out
    if isinstance(e, Quotient):
        return free_coordinates(e.numerator) | free_coordinates(e.denominator)
    if isinstance(e, IntegerPower):
        return free_coordinates(e.base)
    if isinstance(e, (Neg, Exp, Ln, Sin, Cos)):
        return free_coordinates(e.arg)
    raise TypeError(f"unknown node {e!r}")


# --------------------------------------------------------------------------
# normalization
# --------------------------------------------------------------------------


def _sort_key(e: Expr):
    """Deterministic total order on normalized nodes (rank, payload, children)."""
    cached = e.__dict__.get("_key")
    if cached is not None:
        return cached
    key = _sort_key_impl(e)
    object.__setattr__(e, "_key", key)
    return key


def _sort_key_impl(e: Expr):
    if isinstance(e, Constant):
        return (0, f"{e.value.numerator}/{e.value.denominator}", ())
    if isinstance(e, Coordinate):
        return (1, e.name, ())
    if isinstance(e, IntegerPower):
        return (2, str(e.exponent), (_sort_key(e.base),))
    if isinstance(e, Exp):
        return (3, "", (_sort_key(e.arg),))
    if isinstance(e, Ln):
        return (4, "", (_sort_key(e.arg),))
    if isinstance(e, Sin):
        return (5, "", (_sort_key(e.arg),))
    if isinstance(e, Cos):
        return (6, "", (_sort_key(e.arg),))
    if isinstance(e, Quotient):
        return (7, "", (_sort_key(e.numerator), _sort_key(e.denominator)))
    if isinstance(e, Product):
        return (8, "", tuple(_sort_key(f) for f in e.factors))
    if isinstance(e, Sum):
        return (9, "", tuple(_sort_key(t) for t in e.terms))
    raise TypeError(f"unknown node {e!r}")


def _split_term(t: Expr) -> tuple[Fraction, tuple[Expr, ...]]:
    """Split a normalized term into (rational coefficient, monomial factors)."""
    if isinstance(t, Constant):
        return t.value, ()
    if isinstance(t, Product):
        if t.factors and isinstance(t.factors[0], Constant):
            return t.factors[0].value, t.factors[1:]
        return Fraction(1), t.factors
    return Fraction(1), (t,)


def _make_term(coeff: Fraction, factors: tuple[Expr, ...]) -> Expr:
    # inputs are normalized and sorted, so the rebuilt node is normal too
    if coeff == 0:
        return ZERO
    if not factors:
        return _mark(Constant(coeff))
    if coeff == 1:
        if len(factors) == 1:
            return factors[0]
        return _mark(Product(factors))
    return _mark(Product((Constant(coeff),) + factors))


def _strip_sign(e: Expr) -> tuple[int, Expr]:
    """Pull a leading negative rational coefficient out of a normalized node."""
    coeff, factors = _split_term(e)
    if coeff < 0:
        return -1, _make_term(-coeff, factors)
    return 1, e


def _mark(e: Expr) -> Expr:
    """Tag a node as fully normalized (identity-based, immutable trees)."""
    object.__setattr__(e, "_norm", True)
    return e


def normalize(e: Expr) -> Expr:
    if isinstance(e, (Constant, Coordinate)):
        return e
    if e.__dict__.get("_norm", False):
        return e
    return _mark(_normalize(e))


def _normalize(e: Expr) -> Expr:
    if isinstance(e, Neg):
        inner = normalize(e.arg)
        return normalize(Product((Constant(Fraction(-1)), inner)))

    if isinstance(e, Sum):
        buckets: dict[tuple[Expr, ...], Fraction] = {}
        order: list[tuple[Expr, ...]] = []

        def absorb(term: Expr) -> None:
            if isinstance(term, Sum):
                for t in term.terms:
                    absorb(t)
                return
            coeff, factors = _split_term(term)
            if coeff == 0:
                return
            if factors not in buckets:
                buckets[factors] = Fraction(0)
                order.append(factors)
            buckets[factors] += coeff

        for t in e.terms:
            absorb(normalize(t))
        terms = [_make_term(buckets[f], f) for f in order if buckets[f] != 0]
        terms.sort(key=_sort_key)
        if not terms:
            return ZERO
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms))

    if isinstance(e, Product):
        raw: list[Expr] = []

        def flatten(factor: Expr) -> None:
            if isinstance(factor, Product):
                for f in factor.factors:
                    flatten(f)
            else:
                raw.append(factor)

        for f in e.factors:
            flatten(normalize(f))

        # distribute over sums so identical monomials can collect, unless the
        # expansion would blow up (then the structural form is kept and zero
        # tests fall back to sampling)
        width = 1
        for f in raw:
            width *= len(f.terms) if isinstance(f, Sum) else 1
            if width > 2000:
                break
        if width <= 2000:
            for i, f in enumerate(raw):
                if isinstance(f, Sum):
                    spread = [
                        Product(tuple(raw[:i]) + (t,) + tuple(raw[i + 1 :])) for t in f.terms
                    ]
                    return normalize(Sum(tuple(spread)))

        coeff = Fraction(1)
        plain: list[Expr] = []
        exp_args: list[Expr] = []
        for factor in raw:
            if isinstance(factor, Constant):
                coeff *= factor.value
            elif isinstance(factor, Exp):
                exp_args.append(factor.arg)
            else:
                plain.append(factor)
        if coeff == 0:
            return ZERO

        if exp_args:
            merged = normalize(Sum(tuple(exp_args)))
            exp_factor = normalize(Exp(merged))
            if isinstance(exp_factor, Constant):
                coeff *= exp_factor.value
            else:
                plain.append(exp_factor)

        # combine repeated bases into integer powers
        powers: dict[Expr, int] = {}
        base_order: list[Expr] = []
        for f in plain:
            if isinstance(f, IntegerPower):
                base, n = f.base, f.exponent
            else:
                base, n = f, 1
            if base not in powers:
                powers[base] = 0
                base_order.append(base)
            powers[base] += n
        factors: list[Expr] = []
        for base in base_order:
            n = powers[base]
            if n == 0:
                continue
            factors.append(base if n == 1 else IntegerPower(base, n))
        factors.sort(key=_sort_key)
        return _make_term(coeff, tuple(factors))

    if isinstance(e, Quotient):
        num = normalize(e.numerator)
        den = normalize(e.denominator)
        if isinstance(den, Constant):
            if den.value == 0:
                return Quotient(num, den)  # singular; evaluation will report it
            return normalize(Product((num, Constant(1 / den.value))))
        if isinstance(num, Constant) and num.value == 0:
            return ZERO
        # pull the rational coefficient of the denominator into the numerator
        dcoeff, dfactors = _split_term(den)
        if dcoeff != 1:
            num = normalize(Product((Constant(1 / dcoeff), num)))
            den = _make_term(Fraction(1), dfactors)
        if num == den:
            return ONE
        return Quotient(num, den)

    if isinstance(e, IntegerPower):
        base = normalize(e.base)
        n = e.exponent
        if n == 0:
            return ONE
        if n == 1:
            return base
        if isinstance(base, Constant):
            if base.value == 0 and n < 0:
                return IntegerPower(base, n)  # singular literal
            return Constant(base.value**n)
        if isinstance(base, IntegerPower):
            return normalize(IntegerPower(base.base, base.exponent * n))
        if isinstance(base, Product):
            return normalize(Product(tuple(IntegerPower(f, n) for f in base.factors)))
        if isinstance(base, Quotient):
            if n > 0:
                return normalize(
                    Quotient(IntegerPower(base.numerator, n), IntegerPower(base.denominator, n))
                )
            return normalize(
                Quotient(IntegerPower(base.denominator, -n), IntegerPower(base.numerator, -n))
            )
        if isinstance(base, Exp):
            return normalize(Exp(Product((Constant(Fraction(n)), base.arg))))
        if isinstance(base, Sum) and 2 <= n <= 8 and len(base.terms) ** n <= 2000:
            return normalize(Product((base,) * n))
        return IntegerPower(base, n)

    if isinstance(e, Exp):
        arg = normalize(e.arg)
        if isinstance(arg, Constant) and arg.value == 0:
            return ONE
        if isinstance(arg, Ln):
            return arg.arg
        return Exp(arg)

    if isinstance(e, Ln):
        arg = normalize(e.arg)
        if isinstance(arg, Constant) and arg.value == 1:
            return ZERO
        if isinstance(arg, Exp):
            return arg.arg
        return Ln(arg)

    if isinstance(e, Sin):
        arg = normalize(e.arg)
        if isinstance(arg, Constant) and arg.value == 0:
            return ZERO
        sign, stripped = _strip_sign(arg)
        if sign < 0:
            return normalize(Product((Constant(Fraction(-1)), Sin(stripped))))
        return Sin(arg)

    if isinstance(e, Cos):
        arg = normalize(e.arg)
        if isinstance(arg, Constant) and arg.value == 0:
            return ONE
        sign, stripped = _strip_sign(arg)
        if sign < 0:
            return Cos(stripped)
        return Cos(arg)

    raise TypeError(f"unknown node {e!r}")


def is_structurally_zero(e: Expr) -> bool:
    n = normalize(e)
    return isinstance(n, Constant) and n.value == 0


def is_rational(e: Expr) -> bool:
    """True when the expression contains no transcendental node."""
    if isinstance(e, (Constant, Coordinate)):
        return True
    if isinstance(e, Sum):
        return all(is_rational(t) for t in e.terms)
    if isinstance(e, Product):
        return all(is_rational(f) for f in e.factors)
    if isinstance(e, Quotient):
        return is_rational(e.numerator) and is_rational(e.denominator)
    if isinstance(e, IntegerPower):
        return is_rational(e.base)
    if isinstance(e, Neg):
        return is_rational(e.arg)
    return False


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        pos = self.pos
        text = self.text
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            return ("end", "", pos)
        ch = text[pos]
        def is_digit(c):
            return "0" <= c <= "9"

        def is_ident_start(c):
            return "a" <= c <= "z" or "A" <= c <= "Z" or c == "_"

        if is_digit(ch) or (ch == "." and pos + 1 < len(text) and is_digit(text[pos + 1])):
            j = pos
            seen_dot = False
            while j < len(text) and (is_digit(text[j]) or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            return ("number", text[pos:j], pos)
        if is_ident_start(ch):
            j = pos
            while j < len(text) and (is_ident_start(text[j]) or is_digit(text[j])):
                j += 1
            return ("ident", text[pos:j], pos)
        if ch in "+-*/^()":
            return ("op", ch, pos)
        raise ExprSyntaxError(f"unexpected character '{ch}'", pos)

    def next(self) -> tuple[str, str, int]:
        kind, value, pos = self.peek()
        self.pos = pos + len(value) if kind != "end" else pos
        return (kind, value, pos)


class _Parser:
    def __init__(self, text: str, coords: Sequence[str]):
        self.tokens = _Tokenizer(text)
        self.coords = frozenset(coords)

    def parse(self) -> Expr:
        e = self.expression()
        kind, value, pos = self.tokens.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected '{value}'", pos)
        return e

    def expression(self) -> Expr:
        terms = [self.term()]
        while True:
            kind, value, _ = self.tokens.peek()
            if kind == "op" and value in "+-":
                self.tokens.next()
                t = self.term()
                terms.append(t if value == "+" else Neg(t))
            else:
                return Sum(tuple(terms)) if len(terms) > 1 else terms[0]

    def term(self) -> Expr:
        out = self.unary()
        while True:
            kind, value, _ = self.tokens.peek()
            if kind == "op" and value in "*/":
                self.tokens.next()
                rhs = self.unary()
                out = Product((out, rhs)) if value == "*" else Quotient(out, rhs)
            else:
                return out

    def unary(self) -> Expr:
        kind, value, _ = self.tokens.peek()
        if kind == "op" and value == "-":
            self.tokens.next()
            return Neg(self.unary())
        if kind == "op" and value == "+":
            self.tokens.next()
            return self.unary()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, value, _ = self.tokens.peek()
        if kind == "op" and value == "^":
            self.tokens.next()
            sign = 1
            kind, value, pos = self.tokens.next()
            if kind == "op" and value == "-":
                sign = -1
                kind, value, pos = self.tokens.next()
            if kind != "number" or "." in value:
                raise ExprSyntaxError("exponent must be an integer literal", pos)
            return IntegerPower(base, sign * int(value))
        return base

    def atom(self) -> Expr:
        kind, value, pos = self.tokens.next()
        if kind == "number":
            return Constant(Fraction(value))
        if kind == "ident":
            if value in _FUNCTION_NAMES:
                k, v, p = self.tokens.next()
                if k != "op" or v != "(":
                    raise ExprSyntaxError(f"expected '(' after {value}", p)
                arg = self.expression()
                k, v, p = self.tokens.next()
                if k != "op" or v != ")":
                    raise ExprSyntaxError("expected ')'", p)
                return {"exp": Exp, "ln": Ln, "sin": Sin, "cos": Cos}[value](arg)
            if value not in self.coords:
                raise UnknownSymbolError(value, pos)
            return Coordinate(value)
        if kind == "op" and value == "(":
            e = self.expression()
            k, v, p = self.tokens.next()
            if k != "op" or v != ")":
                raise ExprSyntaxError("expected ')'", p)
            return e
        raise ExprSyntaxError("expected a number, symbol, or '('", pos)


def parse(text: str, coords: Sequence[str]) -> Expr:
    """Parse ``text`` over the coordinate names ``coords``; result is normalized."""
    return normalize(_Parser(text, coords).parse())


# --------------------------------------------------------------------------
# rendering (inverse of parse up to normalization)
# --------------------------------------------------------------------------


def _precedence(e: Expr) -> int:
    if isinstance(e, Sum):
        return 1
    if isinstance(e, (Product, Quotient, Neg)):
        return 2
    if isinstance(e, IntegerPower):
        return 3
    return 4


def _wrap(e: Expr, parent_prec: int) -> str:
    s = render(e)
    if _precedence(e) < parent_prec or (s.startswith("-") and parent_prec >= 2):
        return f"({s})"
    return s


def render(e: Expr) -> str:
    if isinstance(e, Constant):
        v = e.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(e, Coordinate):
        return e.name
    if isinstance(e, Sum):
        parts = [render(e.terms[0])]
        for t in e.terms[1:]:
            sign, stripped = _strip_sign(t)
            if sign < 0:
                parts.append(f" - {_wrap(stripped, 2)}")
            else:
                parts.append(f" + {_wrap(t, 2)}")
        return "".join(parts)
    if isinstance(e, Product):
        sign, stripped = _strip_sign(e)
        if sign < 0:
            return f"-{_wrap(stripped, 3)}"
        return "*".join(_wrap(f, 2) for f in e.factors)
    if isinstance(e, Quotient):
        return f"{_wrap(e.numerator, 2)}/{_wrap(e.denominator, 3)}"
    if isinstance(e, IntegerPower):
        return f"{_wrap(e.base, 4)}^{e.exponent}"
    if isinstance(e, Neg):
        return f"-{_wrap(e.arg, 3)}"
    if isinstance(e, Exp):
        return f"exp({render(e.arg)})"
    if isinstance(e, Ln):
        return f"ln({render(e.arg)})"
    if isinstance(e, Sin):
        return f"sin({render(e.arg)})"
    if isinstance(e, Cos):
        return f"cos({render(e.arg)})"
    raise TypeError(f"unknown node {e!r}")


# --------------------------------------------------------------------------
# differentiation
# --------------------------------------------------------------------------


def differentiate(e: Expr, v: str) -> Expr:
    """Partial derivative with respect to the coordinate named ``v``, normalized."""
    return normalize(_diff(normalize(e), v))


def _diff(e: Expr, v: str) -> Expr:
    if isinstance(e, Constant):
        return ZERO
    if isinstance(e, Coordinate):
        return ONE if e.name == v else ZERO
    if isinstance(e, Sum):
        return Sum(tuple(_diff(t, v) for t in e.terms))
    if isinstance(e, Product):
        terms = []
        for i, f in enumerate(e.factors):
            terms.append(Product(e.factors[:i] + (_diff(f, v),) + e.factors[i + 1 :]))
        return Sum(tuple(terms))
    if isinstance(e, Quotient):
        num, den = e.numerator, e.denominator
        return Quotient(
            Sum((Product((_diff(num, v), den)), Neg(Product((num, _diff(den, v)))))),
            IntegerPower(den, 2),
        )
    if isinstance(e, IntegerPower):
        return Product(
            (Constant(Fraction(e.exponent)), IntegerPower(e.base, e.exponent - 1), _diff(e.base, v))
        )
    if isinstance(e, Neg):
        return Neg(_diff(e.arg, v))
    if isinstance(e, Exp):
        return Product((e, _diff(e.arg, v)))
    if isinstance(e, Ln):
        return Quotient(_diff(e.arg, v), e.arg)
    if isinstance(e, Sin):
        return Product((Cos(e.arg), _diff(e.arg, v)))
    if isinstance(e, Cos):
        return Neg(Product((Sin(e.arg), _diff(e.arg, v))))
    raise TypeError(f"unknown node {e!r}")


# --------------------------------------------------------------------------
# substitution
# --------------------------------------------------------------------------


def substitute(e: Expr, assignment: Mapping[str, Expr]) -> Expr:
    """Replace coordinates by expressions; result is normalized."""
    return normalize(_subst(e, assignment))


def _subst(e: Expr, a: Mapping[str, Expr]) -> Expr:
    if isinstance(e, Constant):
        return e
    if isinstance(e, Coordinate):
        return a.get(e.name, e)
    if isinstance(e, Sum):
        return Sum(tuple(_subst(t, a) for t in e.terms))
    if isinstance(e, Product):
        return Product(tuple(_subst(f, a) for f in e.factors))
    if isinstance(e, Quotient):
        return Quotient(_subst(e.numerator, a), _subst(e.denominator, a))
    if isinstance(e, IntegerPower):
        return IntegerPower(_subst(e.base, a), e.exponent)
    if isinstance(e, Neg):
        return Neg(_subst(e.arg, a))
    if isinstance(e, Exp):
        return Exp(_subst(e.arg, a))
    if isinstance(e, Ln):
        return Ln(_subst(e.arg, a))
    if isinstance(e, Sin):
        return Sin(_subst(e.arg, a))
    if isinstance(e, Cos):
        return Cos(_subst(e.arg, a))
    raise TypeError(f"unknown node {e!r}")


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        raise EvaluationError("exp overflows a float") from None


def evaluate(e: Expr, point: Mapping[str, Number]) -> Number:
    """Evaluate at a point.  Exact Fraction result on rational data, float otherwise.

    Raises EvaluationError on division by zero, ln of a non-positive argument
    or an exp that overflows.
    """
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Coordinate):
        try:
            v = point[e.name]
        except KeyError:
            raise EvaluationError(f"no value assigned to coordinate '{e.name}'") from None
        return Fraction(v) if isinstance(v, int) else v
    if isinstance(e, Sum):
        out: Number = Fraction(0)
        for t in e.terms:
            out = out + evaluate(t, point)
        return out
    if isinstance(e, Product):
        out = Fraction(1)
        for f in e.factors:
            out = out * evaluate(f, point)
        return out
    if isinstance(e, Quotient):
        den = evaluate(e.denominator, point)
        if den == 0:
            raise EvaluationError("division by zero")
        return evaluate(e.numerator, point) / den
    if isinstance(e, IntegerPower):
        base = evaluate(e.base, point)
        if base == 0 and e.exponent < 0:
            raise EvaluationError("division by zero")
        return base**e.exponent
    if isinstance(e, Neg):
        return -evaluate(e.arg, point)
    if isinstance(e, Exp):
        return _exp(float(evaluate(e.arg, point)))
    if isinstance(e, Ln):
        v = evaluate(e.arg, point)
        if v <= 0:
            raise EvaluationError("ln of a non-positive argument")
        return math.log(float(v))
    if isinstance(e, Sin):
        return math.sin(float(evaluate(e.arg, point)))
    if isinstance(e, Cos):
        return math.cos(float(evaluate(e.arg, point)))
    raise TypeError(f"unknown node {e!r}")


def evaluate_with_scale(e: Expr, point: Mapping[str, float]) -> tuple[float, float]:
    """Evaluate in floats, tracking a cancellation-aware magnitude scale.

    The scale bounds the size of the intermediate quantities that were
    combined; |value| <= tol_abs + tol_rel * scale is the sampled-zero test.
    """
    if isinstance(e, Constant):
        v = float(e.value)
        return v, abs(v)
    if isinstance(e, Coordinate):
        try:
            v = float(point[e.name])
        except KeyError:
            raise EvaluationError(f"no value assigned to coordinate '{e.name}'") from None
        return v, abs(v)
    if isinstance(e, Sum):
        total, scale = 0.0, 0.0
        for t in e.terms:
            v, s = evaluate_with_scale(t, point)
            total += v
            scale = max(scale, s)
        return total, scale
    if isinstance(e, Product):
        total, scale = 1.0, 1.0
        for f in e.factors:
            v, s = evaluate_with_scale(f, point)
            total *= v
            scale *= max(s, abs(v))
        return total, scale
    if isinstance(e, Quotient):
        nv, ns = evaluate_with_scale(e.numerator, point)
        dv, _ = evaluate_with_scale(e.denominator, point)
        if dv == 0.0:
            raise EvaluationError("division by zero")
        return nv / dv, ns / abs(dv)
    if isinstance(e, IntegerPower):
        bv, bs = evaluate_with_scale(e.base, point)
        if bv == 0.0 and e.exponent < 0:
            raise EvaluationError("division by zero")
        v = bv**e.exponent
        s = bs**e.exponent if e.exponent >= 0 else abs(v)
        return v, max(abs(v), s)
    if isinstance(e, Neg):
        v, s = evaluate_with_scale(e.arg, point)
        return -v, s
    if isinstance(e, Exp):
        av, asc = evaluate_with_scale(e.arg, point)
        v = _exp(av)
        return v, v * (1.0 + asc)
    if isinstance(e, Ln):
        av, asc = evaluate_with_scale(e.arg, point)
        if av <= 0.0:
            raise EvaluationError("ln of a non-positive argument")
        return math.log(av), max(1.0, asc)
    if isinstance(e, Sin):
        av, asc = evaluate_with_scale(e.arg, point)
        return math.sin(av), max(1.0, asc)
    if isinstance(e, Cos):
        av, asc = evaluate_with_scale(e.arg, point)
        return math.cos(av), max(1.0, asc)
    raise TypeError(f"unknown node {e!r}")


# --------------------------------------------------------------------------
# sampling policy and zero checks
# --------------------------------------------------------------------------


def _mix_seed(seed: int, label: str) -> int:
    return (seed * 0x9E3779B97F4A7C15 + zlib.crc32(label.encode("utf-8"))) % (2**63)


@dataclass(frozen=True)
class SamplingPolicy:
    """Deterministic randomized-verification policy.

    seed feeds every substream (labelled, so checks are independent of each
    other's sample consumption); count points per check; box is the sampling
    interval used for every coordinate; tolerances define the sampled-zero
    test |v| <= tol_abs + tol_rel * scale; resample_factor caps retries when
    sampled points turn out singular.
    """

    seed: int = 0
    count: int = 50
    box: tuple[float, float] = (-2.0, 2.0)
    tol_abs: float = 1e-9
    tol_rel: float = 1e-9
    resample_factor: int = 10

    def rng(self, label: str) -> random.Random:
        return random.Random(_mix_seed(self.seed, label))

    def float_points(
        self, coords: Sequence[str], label: str, count: int | None = None
    ) -> list[dict[str, float]]:
        rng = self.rng(label)
        lo, hi = self.box
        n = self.count if count is None else count
        return [{c: rng.uniform(lo, hi) for c in coords} for _ in range(n)]


class ZeroVerdict(enum.Enum):
    ZERO = "ZERO"
    PROBABLY_ZERO = "PROBABLY_ZERO"
    NONZERO = "NONZERO"


@dataclass(frozen=True)
class ZeroReport:
    verdict: ZeroVerdict
    mode: str  # symbolic | rational-sampled | float-sampled
    max_abs: float = 0.0
    witness_point: Mapping[str, Number] | None = None
    witness_value: float = 0.0
    samples: int = 0

    @property
    def is_zero(self) -> bool:
        return self.verdict is not ZeroVerdict.NONZERO


def check_zero_all(
    exprs: Iterable[Expr],
    policy: SamplingPolicy,
    coords: Sequence[str] | None = None,
    label: str = "zero",
) -> ZeroReport:
    """Decide whether every expression vanishes identically.

    Structural zeros short-circuit; otherwise all expressions are evaluated
    at a shared set of sampled points (exact rational points when every
    expression is rational).  Singular points, where evaluation fails or a
    float value or scale is not finite, are discarded and resampled up to
    resample_factor * count attempts.
    """
    remaining = [n for n in (normalize(e) for e in exprs) if not (isinstance(n, Constant) and n.value == 0)]
    if not remaining:
        return ZeroReport(ZeroVerdict.ZERO, "symbolic")
    for n in remaining:
        if isinstance(n, Constant):  # nonzero literal
            return ZeroReport(
                ZeroVerdict.NONZERO, "symbolic", abs(float(n.value)), {}, float(n.value), 0
            )

    if coords is None:
        names: set[str] = set()
        for n in remaining:
            names |= free_coordinates(n)
        coords = sorted(names)

    rational = all(is_rational(n) for n in remaining)
    rng = policy.rng(label)
    lo, hi = policy.box
    max_attempts = policy.resample_factor * policy.count
    accepted = 0
    attempts = 0
    max_abs = 0.0
    den = 97
    nlo, nhi = math.ceil(lo * den), math.floor(hi * den)

    while accepted < policy.count:
        if attempts >= max_attempts:
            raise SamplingExhaustedError(
                f"{label}: exhausted {max_attempts} attempts; too many singular points"
            )
        attempts += 1
        if rational:
            point: dict[str, Number] = {c: Fraction(rng.randint(nlo, nhi), den) for c in coords}
        else:
            point = {c: rng.uniform(lo, hi) for c in coords}
        try:
            for n in remaining:
                if rational:
                    v = evaluate(n, point)
                    fv = float(v)
                    max_abs = max(max_abs, abs(fv))
                    if v != 0:
                        return ZeroReport(
                            ZeroVerdict.NONZERO, "rational-sampled", abs(fv), point, fv, accepted + 1
                        )
                else:
                    fv, scale = evaluate_with_scale(n, {c: float(x) for c, x in point.items()})
                    if not (math.isfinite(fv) and math.isfinite(scale)):
                        raise EvaluationError("non-finite sample")
                    max_abs = max(max_abs, abs(fv))
                    if abs(fv) > policy.tol_abs + policy.tol_rel * scale:
                        return ZeroReport(
                            ZeroVerdict.NONZERO, "float-sampled", abs(fv), point, fv, accepted + 1
                        )
        except EvaluationError:
            continue  # singular sample: discard and redraw
        accepted += 1

    mode = "rational-sampled" if rational else "float-sampled"
    return ZeroReport(ZeroVerdict.PROBABLY_ZERO, mode, max_abs, None, 0.0, accepted)


def is_zero(e: Expr, policy: SamplingPolicy | None = None) -> ZeroReport:
    """Zero test for a single expression (see check_zero_all)."""
    return check_zero_all([e], policy or SamplingPolicy(), label="is_zero")

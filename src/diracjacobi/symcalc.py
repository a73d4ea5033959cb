"""Immutable symbolic scalar expressions over named coordinates.

The expression language is deliberately small: exact rational constants,
coordinates, sums, products, quotients, integer powers, and the elementary
functions exp, ln, sin, cos (one ``Function`` node family).  Normalization
is structural (flatten, fold constants, collect identical monomials, merge
exponentials, multiply out the u an exp merge leaves when exp(ln(u)) is u)
and gives every value one rational form: a numerator free of quotients over
at most one sum, found as ``sympy.together`` finds it, with no gcd
taken.  The numerator is multiplied out in full, one sum at a time, with
equal monomials collected as they form, so a rational expression is zero
exactly when it normalizes to 0.  Inside one product every monomial is a
packed exponent key: its atoms are indexed once and their exponents are the
signed digits of one int, so a pair of terms multiplies by one int
addition.  A monomial is differentiated by shifting the exponent of the
coordinate; only the other atoms take the product rule.  Work that belongs
to an immutable node is done once and kept on it: its hash, its sort key,
its free coordinates, the mark that it is normal, and its derivative by
each coordinate.  Sampling decides only a zero test with a transcendental
node, in floats; at exact rational points it only looks for a witness.
"""

from __future__ import annotations

import enum
import math
import random
import re
import sys
import weakref
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Number = Union[int, float, Fraction]


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


def _node(cls):
    """A frozen dataclass node whose hash is computed once and kept on the node."""
    cls = dataclass(frozen=True)(cls)
    fields_hash = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = self.__dict__["_hash"] = fields_hash(self)
            return h

    cls.__hash__ = __hash__
    return cls


@dataclass(frozen=True)
class Expr:
    """Base node.  All subclasses are immutable and hashable."""

    def __add__(self, other) -> "Expr":
        return normalize(Sum((self, as_expr(other))))

    def __radd__(self, other) -> "Expr":
        return normalize(Sum((as_expr(other), self)))

    def __sub__(self, other) -> "Expr":
        return normalize(Sum((self, Product((MINUS_ONE, as_expr(other))))))

    def __rsub__(self, other) -> "Expr":
        return normalize(Sum((as_expr(other), Product((MINUS_ONE, self)))))

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
        return normalize(Product((MINUS_ONE, self)))

    def __str__(self) -> str:
        return render(self)


@_node
class Constant(Expr):
    value: Fraction


@_node
class Coordinate(Expr):
    name: str


@_node
class Sum(Expr):
    terms: tuple[Expr, ...]


@_node
class Product(Expr):
    factors: tuple[Expr, ...]


@_node
class Quotient(Expr):
    numerator: Expr
    denominator: Expr


@_node
class IntegerPower(Expr):
    base: Expr
    exponent: int


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        raise EvaluationError("exp overflows a float") from None


def _ln(x: float) -> float:
    if x <= 0:
        raise EvaluationError("ln of a non-positive argument")
    return math.log(x)


@_node
class Function(Expr):
    """An elementary function of one argument.  Each subclass carries its name
    in the grammar, its rank in the sort order and its float function."""

    arg: Expr

    def scale(self, value: float, arg_scale: float) -> float:
        """The magnitude scale of ``value``, the function at an argument of scale ``arg_scale``."""
        return max(1.0, arg_scale)


class Exp(Function):
    name, rank, function = "exp", 3, staticmethod(_exp)

    def scale(self, value: float, arg_scale: float) -> float:
        return value * (1.0 + arg_scale)


class Ln(Function):
    name, rank, function = "ln", 4, staticmethod(_ln)


class Sin(Function):
    name, rank, function = "sin", 5, staticmethod(math.sin)


class Cos(Function):
    name, rank, function = "cos", 6, staticmethod(math.cos)


# the elementary functions, by their names in the expression grammar
FUNCTIONS = {f.name: f for f in Function.__subclasses__()}

ZERO = Constant(Fraction(0))
ONE = Constant(Fraction(1))
MINUS_ONE = Constant(Fraction(-1))


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


def _children(e: Expr) -> tuple[Expr, ...]:
    """The direct subexpressions of a node; a constant or coordinate has none."""
    if isinstance(e, Product):
        return e.factors
    if isinstance(e, Sum):
        return e.terms
    if isinstance(e, Quotient):
        return (e.numerator, e.denominator)
    if isinstance(e, IntegerPower):
        return (e.base,)
    return (e.arg,) if isinstance(e, Function) else ()


def free_coordinates(e: Expr) -> frozenset[str]:
    """The names of the coordinates in ``e``, kept on the node like its hash."""
    try:
        return e._free
    except AttributeError:
        out = e.__dict__["_free"] = _free_coordinates_impl(e)
        return out


def _free_coordinates_impl(e: Expr) -> frozenset[str]:
    if isinstance(e, Constant):
        return frozenset()
    if isinstance(e, Coordinate):
        return frozenset((e.name,))
    if isinstance(e, Sum):
        # the terms of a sum are mostly fresh products of shared factors:
        # walk the distinct factors and leave the terms unmarked
        factors = set()
        for t in e.terms:
            if isinstance(t, Product):
                factors.update(t.factors)
            else:
                factors.add(t)
        return frozenset().union(*map(free_coordinates, factors))
    return frozenset().union(*map(free_coordinates, _children(e)))


# --------------------------------------------------------------------------
# normalization
# --------------------------------------------------------------------------


def _sort_key(e: Expr):
    """Deterministic total order on normalized nodes (rank, payload, children)."""
    try:
        return e._key
    except AttributeError:
        key = e.__dict__["_key"] = _sort_key_impl(e)
        return key


def _sort_key_impl(e: Expr):
    if isinstance(e, Product):  # the most frequent new node: a term of a sum
        return (8, "", tuple(map(_sort_key, e.factors)))
    if isinstance(e, Constant):
        return (0, f"{e.value.numerator}/{e.value.denominator}", ())
    if isinstance(e, Coordinate):
        return (1, e.name, ())
    if isinstance(e, IntegerPower):
        return (2, str(e.exponent), (_sort_key(e.base),))
    if isinstance(e, Function):
        return (e.rank, "", (_sort_key(e.arg),))
    if isinstance(e, Quotient):
        return (7, "", (_sort_key(e.numerator), _sort_key(e.denominator)))
    if isinstance(e, Sum):
        return (9, "", tuple(map(_sort_key, e.terms)))
    raise TypeError(f"unknown node {e!r}")


_UNIT = Fraction(1)

# shared atoms: one live node per coefficient and per power, so the terms of
# a multiplied-out polynomial share their leaves instead of copying them
_CONSTANTS: "weakref.WeakValueDictionary[Fraction, Constant]" = weakref.WeakValueDictionary()
_POWERS: "weakref.WeakValueDictionary[tuple[Expr, int], IntegerPower]" = (
    weakref.WeakValueDictionary()
)


def _constant(value: int | Fraction) -> Constant:
    node = _CONSTANTS.get(value)
    if node is None:
        # a folded coefficient too long to render; 2^(3*limit) < 10^limit
        limit, v = sys.get_int_max_str_digits(), Fraction(value)
        big = max(abs(v.numerator), v.denominator)
        if limit and big.bit_length() > 3 * limit and big >= 10**limit:
            raise ExprError(f"a folded constant has more than {limit} digits")
        node = _CONSTANTS[value] = Constant(v)
    return node


def _power(base: Expr, n: int) -> Expr:
    """base^n as a monomial factor: one shared node, marked normal."""
    node = _POWERS.get((base, n))
    if node is None:
        node = _POWERS[(base, n)] = _mark(IntegerPower(base, n))
    return node


def _split_term(t: Expr) -> tuple[Fraction, tuple[Expr, ...]]:
    """Split a normalized term into (rational coefficient, monomial factors)."""
    if isinstance(t, Constant):
        return t.value, ()
    if isinstance(t, Product):
        if t.factors and isinstance(t.factors[0], Constant):
            return t.factors[0].value, t.factors[1:]
        return _UNIT, t.factors
    return _UNIT, (t,)


def _ratio(num: Expr, den: Expr) -> Fraction | None:
    """c when the normalized ``num`` is c times the normalized ``den``, else None."""
    nums, dens = ([_split_term(t) for t in (e.terms if isinstance(e, Sum) else (e,))]
                  for e in (num, den))
    if len(nums) != len(dens):
        return None
    by_factors = {factors: c for c, factors in dens}
    ratios = {c / by_factors[f] if f in by_factors else None for c, f in nums}
    return ratios.pop() if len(ratios) == 1 else None


def _make_term(coeff: int | Fraction, factors: tuple[Expr, ...]) -> Expr:
    # inputs are normalized and sorted, so the rebuilt node is normal too
    if coeff == 0:
        return ZERO
    if not factors:
        return _constant(coeff)
    if coeff == 1:
        if len(factors) == 1:
            return factors[0]
        return _mark(Product(factors))
    return _mark(Product((_constant(coeff),) + factors))


def _sum_of_terms(buckets: Mapping[tuple[Expr, ...], int | Fraction]) -> Expr:
    """The normal form of the sum of coeff * monomial over ``buckets``."""
    terms = [_make_term(c, f) for f, c in buckets.items() if c != 0]
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    terms.sort(key=_sort_key)
    return Sum(tuple(terms))


def _exact(q: Fraction) -> int | Fraction:
    """A coefficient as an int when it is integral: int arithmetic is far cheaper."""
    return q.numerator if q.denominator == 1 else q


def _base_exponent(f: Expr) -> tuple[Expr, int]:
    """A monomial factor as (base, exponent): x^3 is (x, 3), sin(x) is (sin(x), 1)."""
    return (f.base, f.exponent) if isinstance(f, IntegerPower) else (f, 1)


def _multiplies_back(f: Expr) -> bool:
    """Whether ``f`` is a monomial factor in its own right: an exp merge can
    leave a sum, product or quotient (exp(ln(u)) is u), which is not."""
    return not (isinstance(f, (Sum, Product)) or _is_quotient(f))


def _monomial(factors: Iterable[Expr]) -> tuple[int | Fraction, tuple[Expr, ...], bool]:
    """Multiply normalized factors that are not sums into (coefficient,
    monomial, whether a factor must still be multiplied out).

    Constants fold into the coefficient, exp factors merge into one, repeated
    bases combine into integer powers, and the factors come out sorted.
    """
    coeff: int | Fraction = 1
    exp_args: list[Expr] = []
    plain: list[Expr] = []
    for f in factors:
        if isinstance(f, Constant):
            coeff *= _exact(f.value)
        elif isinstance(f, Exp):
            exp_args.append(f.arg)
        else:
            plain.append(f)
    if coeff == 0:
        return 0, (), False
    left = False
    if exp_args:
        merged = normalize(Exp(normalize(Sum(tuple(exp_args)))))
        if isinstance(merged, Constant):
            coeff *= _exact(merged.value)
        else:
            plain.append(merged)
            left = not _multiplies_back(merged)

    powers: dict[Expr, int] = {}
    for f in plain:
        base, n = _base_exponent(f)
        powers[base] = powers.get(base, 0) + n
    out = [base if n == 1 else _power(base, n) for base, n in powers.items() if n != 0]
    if len(out) > 1:
        out.sort(key=_sort_key)
    return coeff, tuple(out), left


def _multiply(factors: Sequence[Expr]) -> tuple[dict[tuple[Expr, ...], int | Fraction], bool]:
    """Multiply normalized factors out in full, one pass per sum factor.

    The result is {monomial factors: coefficient} and whether an exp merge
    left a factor that is not a monomial factor in its own right.

    Every term of the factors is split once into its coefficient, its exp
    factor (a normalized monomial holds at most one) and its other factors
    as (base, exponent) pairs.  The bases are indexed, and a term's exponents
    become the signed digits of one int, each slot wide enough for the sum of
    the largest exponents, so no slot can overflow into the next.  The
    monomials formed so far sit in a dict per exp factor; each sum factor
    multiplies every one of them by every one of its terms with one int
    addition, and equal monomials collect as they form.  Two exp factors
    merge once per pair of them; a merge that leaves no exp (exp(ln(u)) is
    u) adds its own exponents to the key.
    """
    coeff, mono, left = _monomial(f for f in factors if not isinstance(f, Sum))
    sums = [f for f in factors if isinstance(f, Sum)]
    if not sums or coeff == 0:
        return ({mono: coeff} if coeff != 0 else {}), left

    slots: dict[Expr, int] = {}  # base -> slot
    exps: dict[Expr, int] = {}  # exp factor -> id; id 0 is no exp factor

    def split(c: int | Fraction, fs: tuple[Expr, ...]):
        powers, eid = [], 0
        for f in fs:
            if isinstance(f, Exp):
                eid = exps.setdefault(f, len(exps) + 1)
            else:
                base, n = _base_exponent(f)
                powers.append((slots.setdefault(base, len(slots)), n))
        return c, powers, eid

    rows = [[split(coeff, mono)]] + [
        [split(_exact(c), f) for c, f in map(_split_term, s.terms)] for s in sums
    ]
    exp_nodes = [None, *exps]

    def merge(ea: int, eb: int) -> tuple[int | Fraction, int, list[tuple[int, int]]]:
        # exp(a) * exp(b) as (rational factor, exp id, [(slot, exponent)]):
        # exp(a + b) is one exp factor unless a + b is 0 or ln(c), a
        # constant, or ln(u), the node u
        nonlocal left
        if not (ea and eb):
            return 1, ea or eb, []
        merged = normalize(Exp(normalize(Sum((exp_nodes[ea].arg, exp_nodes[eb].arg)))))
        if isinstance(merged, Constant):
            return _exact(merged.value), 0, []
        if isinstance(merged, Exp):
            if merged not in exps:
                exps[merged] = len(exp_nodes)
                exp_nodes.append(merged)
            return 1, exps[merged], []
        left = left or not _multiplies_back(merged)
        base, n = _base_exponent(merged)
        return 1, 0, [(slots.setdefault(base, len(slots)), n)]

    # every exp merge a pass can meet, found before packing, so that the
    # exponents a merge adds count toward the slot width
    merges: dict[tuple[int, int], tuple[int | Fraction, int, list]] = {}
    bound = 0
    live = {rows[0][0][2]}
    for r, row in enumerate(rows):
        bound += max((abs(n) for _, powers, _ in row for _, n in powers), default=0)
        if r == 0:
            continue
        reached, extra = set(), 0
        for ea in live:
            for eb in {eid for _, _, eid in row}:
                if (ea, eb) not in merges:
                    merges[(ea, eb)] = merge(ea, eb)
                _, eo, delta = merges[(ea, eb)]
                reached.add(eo)
                extra = max(extra, *(abs(n) for _, n in delta), 0)
        bound += extra
        live = reached
    width = bound.bit_length() + 1

    def key(powers) -> int:
        return sum(n << (width * slot) for slot, n in powers)

    acc: dict[int, dict[int, int | Fraction]] = {rows[0][0][2]: {key(rows[0][0][1]): coeff}}
    for row in rows[1:]:
        by_exp: dict[int, list[tuple[int, int | Fraction]]] = {}
        for c, powers, eid in row:
            by_exp.setdefault(eid, []).append((key(powers), c))
        out: dict[int, dict[int, int | Fraction]] = {}
        for ea, part in acc.items():
            for eb, terms in by_exp.items():
                mult, eo, delta = merges[(ea, eb)]
                if mult != 1 or delta:
                    shift = key(delta)
                    terms = [(kt + shift, ct * mult) for kt, ct in terms]
                dst = out.setdefault(eo, {})
                for ka, ca in part.items():
                    for kt, ct in terms:
                        k = ka + kt
                        dst[k] = dst.get(k, 0) + ca * ct
        acc = {eo: {k: c for k, c in part.items() if c != 0} for eo, part in out.items()}

    bases = list(slots)
    mask, sign = (1 << width) - 1, 1 << (width - 1)
    powers: dict[tuple[int, int], Expr] = {}  # (slot, exponent) -> factor
    buckets: dict[tuple[Expr, ...], int | Fraction] = {}
    for eo, part in acc.items():
        for k, c in part.items():
            fs = [exp_nodes[eo]] if eo else []
            for slot, base in enumerate(bases):
                if not k:
                    break
                n = k & mask
                if n & sign:
                    n -= 1 << width
                k = (k - n) >> width
                if n:
                    f = powers.get((slot, n))
                    if f is None:
                        f = powers[(slot, n)] = base if n == 1 else _power(base, n)
                    fs.append(f)
            if len(fs) > 1:
                fs.sort(key=_sort_key)
            buckets[tuple(fs)] = c
    return buckets, left


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


def _is_quotient(e: Expr) -> bool:
    """Whether ``e`` is a quotient over a sum, not a singular one over 0."""
    return isinstance(e, Quotient) and isinstance(e.denominator, Sum)


def _product(e: Product) -> dict[tuple[Expr, ...], int | Fraction] | Expr:
    """A product multiplied out: {monomial: coefficient} when no factor is a
    quotient, else the product of the numerators over that of the denominators."""
    raw: list[Expr] = []
    dens: list[Expr] = []

    def flatten(factor: Expr) -> None:
        if isinstance(factor, Product):
            for f in factor.factors:
                flatten(f)
        elif _is_quotient(factor):
            flatten(factor.numerator)
            dens.append(factor.denominator)
        else:
            raw.append(factor)

    for f in e.factors:
        flatten(normalize(f))
    if dens:
        return normalize(Quotient(Product(tuple(raw)), Product(tuple(dens))))
    buckets, left = _multiply(raw)
    if not left:
        return buckets
    # each factor normalized afresh: a sum, product or quotient is multiplied out
    return _collect([Product((_constant(c), *(IntegerPower(*_base_exponent(f)) for f in fs)))
                     for fs, c in buckets.items()])


def _over(num: Expr, den: Expr) -> Expr:
    """num/den for normalized num and den.  Only a sum stays under a quotient,
    under a numerator free of quotients: a one-term denominator becomes the
    negative powers of its factors, a quotient on either side is multiplied
    through, and a numerator c times the denominator is the constant c."""
    if den == ZERO:
        return Quotient(num, den)  # singular; evaluation will report it
    if _is_quotient(den):
        return normalize(Product((num, Quotient(den.denominator, den.numerator))))
    if not isinstance(den, Sum) or _is_quotient(num):
        return normalize(Product((num, IntegerPower(den, -1))))
    if num == ZERO:
        return ZERO
    ratio = _ratio(num, den)
    return Quotient(num, den) if ratio is None else _constant(ratio)


def _collect(parts: Iterable[Expr], buckets: dict | None = None) -> Expr:
    """The normal form of the sum of ``parts`` and of the quotient-free terms
    in ``buckets`` ({monomial: coefficient}).  A raw product among the parts
    is multiplied out straight into the buckets and a raw sum's terms join the
    parts.  The quotients collect by denominator, and a sum of quotients goes
    over the product of its distinct denominators, each numerator times the
    others."""
    buckets = {} if buckets is None else buckets
    over: dict[Expr, list[Expr]] = {}  # denominator -> its numerators
    todo = list(parts)
    for p in todo:
        if not p.__dict__.get("_norm", False):
            if isinstance(p, Sum):
                todo.extend(p.terms)
                continue
            p = _product(p) if isinstance(p, Product) else normalize(p)
            if isinstance(p, dict):
                for fs, c in p.items():
                    buckets[fs] = buckets.get(fs, 0) + c
                continue
        if _is_quotient(p):
            over.setdefault(p.denominator, []).append(p.numerator)
        else:
            for c, fs in map(_split_term, p.terms if isinstance(p, Sum) else (p,)):
                buckets[fs] = buckets.get(fs, 0) + _exact(c)
    nums = {den: num for den, ns in over.items()
            if (num := ns[0] if len(ns) == 1 else _collect(ns)) != ZERO}
    if not nums:
        return _sum_of_terms(buckets)
    dens = sorted(nums, key=_sort_key)
    nums[ONE] = _sum_of_terms(buckets)
    num = _collect([Product((n, *(d for d in dens if d is not den))) for den, n in nums.items()])
    return _over(num, normalize(Product(tuple(dens))))


def _normalize(e: Expr) -> Expr:
    """One normal form per rational value: a numerator free of quotients, over
    at most one sum.  Products of sums are multiplied out into sorted
    monomials.  A sum of quotients goes over the product of its distinct
    denominators, a product multiplies its numerators and its denominators,
    and a one-term denominator becomes the negative powers of its factors.  A
    power of a product or exp is taken factor by factor, and a power of a
    sum or quotient is multiplied out, a negative one as 1 over the positive
    one.  A quotient over 0 is singular and stays whole, as a factor; a
    negative power of N/0 is a power of (1/N)/0, so no power of N/0 cancels it."""
    if isinstance(e, Sum):
        return _collect(e.terms)

    if isinstance(e, Product):
        p = _product(e)
        return _sum_of_terms(p) if isinstance(p, dict) else p

    if isinstance(e, Quotient):
        return _over(normalize(e.numerator), normalize(e.denominator))

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
            limit, v = sys.get_int_max_str_digits(), base.value
            if limit and abs(n) * math.log10(max(abs(v.numerator), v.denominator)) >= limit:
                raise ExprError(f"a constant to the power {n} has more than {limit} digits")
            return Constant(v**n)
        if isinstance(base, IntegerPower):
            return normalize(IntegerPower(base.base, base.exponent * n))
        if isinstance(base, Product):
            return normalize(Product(tuple(IntegerPower(f, n) for f in base.factors)))
        if isinstance(base, Exp):
            return normalize(Exp(Product((Constant(Fraction(n)), base.arg))))
        if isinstance(base, Sum) or _is_quotient(base):
            power = normalize(Product((base,) * abs(n)))
            return power if n > 0 else _over(ONE, power)
        if isinstance(base, Quotient) and n < 0:  # over 0: a power of N/0 never cancels (1/N)/0
            return normalize(IntegerPower(Quotient(IntegerPower(base.numerator, -1), base.denominator), -n))
        return _power(base, n)

    arg = normalize(e.arg)  # every other node is a Function
    if isinstance(e, Exp):
        if arg == ZERO:
            return ONE
        return arg.arg if isinstance(arg, Ln) else Exp(arg)
    if isinstance(e, Ln):
        if arg == ONE:
            return ZERO
        return arg.arg if isinstance(arg, Exp) else Ln(arg)
    if isinstance(e, Sin):
        if arg == ZERO:
            return ZERO
        sign, stripped = _strip_sign(arg)
        return normalize(Product((MINUS_ONE, Sin(stripped)))) if sign < 0 else Sin(arg)
    if isinstance(e, Cos):  # even: a leading minus sign of the argument drops
        return ONE if arg == ZERO else Cos(_strip_sign(arg)[1])
    raise TypeError(f"unknown node {e!r}")


def is_structurally_zero(e: Expr) -> bool:
    n = normalize(e)
    return isinstance(n, Constant) and n.value == 0


def is_rational(e: Expr) -> bool:
    """True when the expression contains no transcendental node."""
    return not isinstance(e, Function) and all(map(is_rational, _children(e)))


def is_nonvanishing(e: Expr) -> bool:
    """True when ``e`` is certified to vanish nowhere: a nonzero constant, exp(a)
    with a free of quotients, negative powers and ln, or a product or integer
    power of such factors."""
    if isinstance(e, (Product, IntegerPower)):
        return all(map(is_nonvanishing, e.factors if isinstance(e, Product) else (e.base,)))
    if isinstance(e, Exp):
        return _defined_everywhere(e.arg)
    return isinstance(e, Constant) and e.value != 0


def _defined_everywhere(e: Expr) -> bool:
    """No quotient, negative power or ln anywhere in ``e``."""
    if isinstance(e, (Quotient, Ln)) or isinstance(e, IntegerPower) and e.exponent < 0:
        return False
    return all(map(_defined_everywhere, _children(e)))


# --------------------------------------------------------------------------
# parsing
# --------------------------------------------------------------------------


# a number, identifier or operator after any whitespace; else the end or a bad character
_TOKEN = re.compile(r"\s*(?:([0-9]+(?:\.[0-9]*)?|\.[0-9]+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))?")
_KINDS = (None, "number", "ident", "op")


class _Tokenizer:
    """The tokens of a text, scanned once; a bad character raises when it is reached."""

    def __init__(self, text: str):
        self.tokens, self.index, m = [], 0, _TOKEN.match(text)
        while m.lastindex:
            self.tokens.append((_KINDS[m.lastindex], m[m.lastindex], m.start(m.lastindex)))
            m = _TOKEN.match(text, m.end())
        end = m.end()
        self.tokens.append(("end", "", end) if end == len(text) else ("bad", text[end], end))

    def peek(self) -> tuple[str, str, int]:
        kind, value, pos = token = self.tokens[self.index]
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character '{value}'", pos)
        return token

    def next(self) -> tuple[str, str, int]:
        token = self.peek()
        self.index += token[0] != "end"
        return token


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
                terms.append(t if value == "+" else Product((MINUS_ONE, t)))
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
            return Product((MINUS_ONE, self.unary()))
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
            return IntegerPower(base, sign * int(_literal(value, pos)))
        return base

    def atom(self) -> Expr:
        kind, value, pos = self.tokens.next()
        if kind == "number":
            return Constant(_literal(value, pos))
        if kind == "ident":
            if value in FUNCTIONS:
                k, v, p = self.tokens.next()
                if k != "op" or v != "(":
                    raise ExprSyntaxError(f"expected '(' after {value}", p)
                arg = self.expression()
                k, v, p = self.tokens.next()
                if k != "op" or v != ")":
                    raise ExprSyntaxError("expected ')'", p)
                return FUNCTIONS[value](arg)
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


def _literal(text: str, pos: int) -> Fraction:
    try:
        return Fraction(text)
    except ValueError:  # more digits than the interpreter converts
        raise ExprSyntaxError(f"number literal of {len(text)} characters is too long", pos) from None


def parse(text: str, coords: Sequence[str]) -> Expr:
    """Parse ``text`` over the coordinate names ``coords``; result is normalized."""
    return normalize(_Parser(text, coords).parse())


# --------------------------------------------------------------------------
# rendering (inverse of parse up to normalization)
# --------------------------------------------------------------------------


def _precedence(e: Expr) -> int:
    if isinstance(e, Sum):
        return 1
    if isinstance(e, (Product, Quotient)):
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
    if isinstance(e, Function):
        return f"{e.name}({render(e.arg)})"
    raise TypeError(f"unknown node {e!r}")


# --------------------------------------------------------------------------
# differentiation
# --------------------------------------------------------------------------


def differentiate(e: Expr, v: str) -> Expr:
    """Partial derivative with respect to the coordinate named ``v``, normalized.

    The derivative is kept on the normalized node, one per coordinate, like
    its hash and sort key: a node is differentiated once per coordinate
    however often it is asked, and the memo lives exactly as long as the node.
    """
    n = normalize(e)
    try:
        memo = n._d
    except AttributeError:
        memo = n.__dict__["_d"] = {}
    d = memo.get(v)
    if d is None:
        d = memo[v] = _derivative(n, v)
    return d


def _derivative(n: Expr, v: str) -> Expr:
    """The derivative of a normalized node, term by term and factor by factor.

    A power of the coordinate ``v`` in a monomial shifts its exponent in
    place.  Any other factor takes the product rule with its own kept
    derivative, and that product alone is multiplied out.  A node that is
    neither a sum nor a product takes one level of ``_diff``.  The parts
    collect as a sum's terms do, into the normal form of the raw derivative.
    """
    if not isinstance(n, (Sum, Product)):
        return normalize(_diff(n, v, lambda child: differentiate(child, v)))
    shifted: dict[tuple[Expr, ...], int | Fraction] = {}
    parts: list[Expr] = []
    for t in n.terms if isinstance(n, Sum) else (n,):
        if not isinstance(t, Product):
            parts.append(differentiate(t, v))
            continue
        coeff, factors = _split_term(t)
        for i, f in enumerate(factors):
            base, k = _base_exponent(f)
            if isinstance(base, Coordinate):
                if base.name != v:
                    continue
                rest = factors[:i] + factors[i + 1 :]
                if k != 1:
                    rest = tuple(sorted(rest + (base if k == 2 else _power(base, k - 1),), key=_sort_key))
                shifted[rest] = shifted.get(rest, 0) + _exact(coeff) * k
                continue
            df = differentiate(f, v)
            if not (isinstance(df, Constant) and df.value == 0):
                parts.append(Product((_constant(coeff), *factors[:i], df, *factors[i + 1 :])))
    return _collect(parts, shifted)


def _diff(e: Expr, v: str, inner=None) -> Expr:
    """The raw derivative by the sum, product, quotient and chain rules.

    The derivatives of the children come from ``inner``; by default they are
    this raw derivative again, all the way down.
    """
    if inner is None:
        inner = lambda child: _diff(child, v)  # noqa: E731
    if isinstance(e, Constant):
        return ZERO
    if isinstance(e, Coordinate):
        return ONE if e.name == v else ZERO
    if isinstance(e, Sum):
        return Sum(tuple(inner(t) for t in e.terms))
    if isinstance(e, Product):
        terms = []
        for i, f in enumerate(e.factors):
            terms.append(Product(e.factors[:i] + (inner(f),) + e.factors[i + 1 :]))
        return Sum(tuple(terms))
    if isinstance(e, Quotient):
        num, den = e.numerator, e.denominator
        return Quotient(
            Sum((Product((inner(num), den)), Product((MINUS_ONE, num, inner(den))))),
            IntegerPower(den, 2),
        )
    if isinstance(e, IntegerPower):
        return Product(
            (Constant(Fraction(e.exponent)), IntegerPower(e.base, e.exponent - 1), inner(e.base))
        )
    if isinstance(e, Exp):
        return Product((e, inner(e.arg)))
    if isinstance(e, Ln):
        return Quotient(inner(e.arg), e.arg)
    if isinstance(e, Sin):
        return Product((Cos(e.arg), inner(e.arg)))
    if isinstance(e, Cos):
        return Product((MINUS_ONE, Sin(e.arg), inner(e.arg)))
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
    if isinstance(e, Function):
        return type(e)(_subst(e.arg, a))
    raise TypeError(f"unknown node {e!r}")


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------


def _pow(base: Number, n: int) -> Number:
    try:
        return base**n
    except OverflowError:
        raise EvaluationError("power overflows a float") from None


def evaluate(e: Expr, point: Mapping[str, Number]) -> Number:
    """Evaluate at a point.  Exact rational result on rational data, float otherwise.

    Sums start from the int 0, products from the int 1, and integral
    constants enter as ints, so at a float point the arithmetic stays in
    floats and never passes through Fraction's operators; the result is the
    same float.  Raises EvaluationError on division by zero, ln of a
    non-positive argument or an exp or power that overflows.
    """
    if isinstance(e, Constant):
        return _exact(e.value)
    if isinstance(e, Coordinate):
        try:
            v = point[e.name]
        except KeyError:
            raise EvaluationError(f"no value assigned to coordinate '{e.name}'") from None
        return Fraction(v) if isinstance(v, int) else v
    if isinstance(e, Sum):
        out: Number = 0
        for t in e.terms:
            out = out + evaluate(t, point)
        return out
    if isinstance(e, Product):
        out = 1
        for f in e.factors:
            out = out * evaluate(f, point)
        return out
    if isinstance(e, Quotient):
        den = evaluate(e.denominator, point)
        if den == 0:
            raise EvaluationError("division by zero")
        if isinstance(den, int):  # int / int would round to a float
            den = Fraction(den)
        return evaluate(e.numerator, point) / den
    if isinstance(e, IntegerPower):
        base = evaluate(e.base, point)
        if base == 0 and e.exponent < 0:
            raise EvaluationError("division by zero")
        if isinstance(base, int) and e.exponent < 0:
            base = Fraction(base)
        return _pow(base, e.exponent)
    if isinstance(e, Function):
        return e.function(float(evaluate(e.arg, point)))
    raise TypeError(f"unknown node {e!r}")


def evaluate_with_scale(e: Expr, point: Mapping[str, float]) -> tuple[float, float]:
    """Evaluate in floats, tracking a cancellation-aware magnitude scale.

    The scale bounds the size of the intermediate quantities that were
    combined; |value| <= tol + tol * scale is the sampled-zero test.
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
        v = _pow(bv, e.exponent)
        try:
            s = bs**e.exponent if e.exponent >= 0 else abs(v)
        except OverflowError:
            s = math.inf  # a scale too large for a float: the sample is not finite
        return v, max(abs(v), s)
    if isinstance(e, Function):
        av, asc = evaluate_with_scale(e.arg, point)
        v = e.function(av)
        return v, e.scale(v, asc)
    raise TypeError(f"unknown node {e!r}")


# --------------------------------------------------------------------------
# sampling policy and zero checks
# --------------------------------------------------------------------------


# draws per accepted sample before a check gives up on singular points
RESAMPLE_FACTOR = 10


def _mix_seed(seed: int, label: str) -> int:
    return (seed * 0x9E3779B97F4A7C15 + zlib.crc32(label.encode("utf-8"))) % (2**63)


@dataclass(frozen=True)
class SamplingPolicy:
    """Deterministic randomized-verification policy.

    seed feeds every substream (labelled, so checks are independent of each
    other's sample consumption); count points per check; box is the sampling
    interval used for every coordinate; tol is both the absolute and the
    relative tolerance of the sampled-zero test |v| <= tol + tol * scale.
    """

    seed: int = 0
    count: int = 50
    box: tuple[float, float] = (-2.0, 2.0)
    tol: float = 1e-9

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


def _finite_float(v: Number) -> float:
    """float(v), clamped to the largest finite float when |v| is too large for one."""
    try:
        return float(v)
    except OverflowError:
        return sys.float_info.max if v > 0 else -sys.float_info.max


def check_zero_all(
    exprs: Iterable[Expr],
    policy: SamplingPolicy,
    coords: Sequence[str] | None = None,
    label: str = "zero",
) -> ZeroReport:
    """Decide whether every expression vanishes identically.

    Normalization decides a rational expression: ZERO (mode symbolic) when it
    normalizes to 0, else NONZERO, with exact rational points sampled only
    for a witness (mode rational-sampled).  Any other expression is sampled
    in floats (mode float-sampled), NONZERO at a value above the tolerance,
    else PROBABLY_ZERO.  Singular points, where evaluation fails or a float
    value or scale is not finite, are discarded and resampled up to
    RESAMPLE_FACTOR * count attempts.
    """
    remaining = [n for n in (normalize(e) for e in exprs) if not (isinstance(n, Constant) and n.value == 0)]
    if not remaining:
        return ZeroReport(ZeroVerdict.ZERO, "symbolic")
    for n in remaining:
        if isinstance(n, Constant):  # nonzero literal
            fv = _finite_float(n.value)
            return ZeroReport(ZeroVerdict.NONZERO, "symbolic", abs(fv), {}, fv, 0)

    if coords is None:
        coords = sorted(frozenset().union(*map(free_coordinates, remaining)))

    rational = all(is_rational(n) for n in remaining)
    mode = "rational-sampled" if rational else "float-sampled"
    rng = policy.rng(label)
    lo, hi = policy.box
    max_attempts = RESAMPLE_FACTOR * policy.count
    accepted = 0
    attempts = 0
    max_abs = 0.0
    # a 1/97 grid, refined so that even a box narrower than one unit holds
    # about 97 grid points
    den = 97 * math.ceil(max(1, 1 / (Fraction(hi) - Fraction(lo))))
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
                    v = evaluate(n, point)  # exact: the witness is v, not its float
                    fv, witness = _finite_float(v), v != 0
                else:
                    fv, scale = evaluate_with_scale(n, {c: float(x) for c, x in point.items()})
                    if not (math.isfinite(fv) and math.isfinite(scale)):
                        raise EvaluationError("non-finite sample")
                    witness = abs(fv) > policy.tol + policy.tol * scale
                max_abs = max(max_abs, abs(fv))
                if witness:
                    return ZeroReport(ZeroVerdict.NONZERO, mode, abs(fv), point, fv, accepted + 1)
        except EvaluationError:
            continue  # singular sample: discard and redraw
        accepted += 1

    # a rational value that does not normalize to 0 is not 0, witness or none
    verdict = ZeroVerdict.NONZERO if rational else ZeroVerdict.PROBABLY_ZERO
    return ZeroReport(verdict, mode, max_abs, None, 0.0, accepted)


def is_zero(e: Expr, policy: SamplingPolicy | None = None) -> ZeroReport:
    """Zero test for a single expression (see check_zero_all)."""
    return check_zero_all([e], policy or SamplingPolicy(), label="is_zero")

"""Tensor calculus on a single coordinate chart.

A chart is an open box in R^n with named coordinates.  Vector fields,
differential forms, and multivectors hold one symbolic expression per
component; forms and multivectors are stored sparsely over strictly
increasing index tuples, with antisymmetry enforced at construction.

Conventions (fixed once, used everywhere):

* interior product contracts the FIRST slot: (i_X w)(Y1,...) = w(X, Y1,...);
* sharp of a bivector P is P#(a)(b) = P(a, b), so (dx^dy)#(dx) = dy;
* Lie derivative of forms is implemented by the direct component formula,
  so the Cartan identity L_X = i_X d + d i_X remains a genuine cross-check.

Each operator collects the signed raw terms of a coefficient and normalizes
their sum once, rather than folding the terms in one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

from .symcalc import (
    MINUS_ONE,
    Expr,
    FUNCTIONS,
    ZERO,
    ONE,
    Product,
    Sum,
    as_expr,
    coord,
    differentiate,
    evaluate,
    free_coordinates,
    is_structurally_zero,
    normalize,
    substitute,
)


class ChartError(ValueError):
    """Ill-formed chart data or a chart mismatch between operands."""


@dataclass(frozen=True)
class Chart:
    """Named open box in R^n with an ordered tuple of coordinate names."""

    name: str
    coords: tuple[str, ...]

    def __post_init__(self):
        if len(self.coords) < 1:
            raise ChartError(f"chart '{self.name}' needs at least one coordinate")
        if len(set(self.coords)) != len(self.coords):
            raise ChartError(f"chart '{self.name}' has duplicate coordinates")
        bad = FUNCTIONS.keys() & set(self.coords)
        if bad:
            raise ChartError(f"chart '{self.name}' uses reserved names {sorted(bad)}")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def index(self, name: str) -> int:
        try:
            return self.coords.index(name)
        except ValueError:
            raise ChartError(f"chart '{self.name}' has no coordinate '{name}'") from None

    def dict_point(self, values: Sequence[float]) -> dict[str, float]:
        return {c: float(v) for c, v in zip(self.coords, values)}


def product_chart(base: Chart, extra: str, name: str | None = None) -> Chart:
    """The chart of base x R with one appended coordinate."""
    if extra in base.coords:
        raise ChartError(f"coordinate '{extra}' already present in chart '{base.name}'")
    return Chart(name or f"{base.name}x{extra}", base.coords + (extra,))


def _require_same_chart(a, b) -> None:
    if a.chart != b.chart:
        raise ChartError(f"chart mismatch: '{a.chart.name}' vs '{b.chart.name}'")


def _check_expr_coords(chart: Chart, e: Expr, what: str) -> None:
    extra = free_coordinates(e).difference(chart.coords)
    if extra:
        raise ChartError(f"{what} uses symbols {sorted(extra)} not in chart '{chart.name}'")


def _signed(sign: int, *factors: Expr) -> Expr:
    """The raw product sign * factors, for a coefficient still being collected."""
    if sign > 0:
        return factors[0] if len(factors) == 1 else Product(factors)
    return Product((MINUS_ONE, *factors))


def _total(terms: Sequence[Expr]) -> Expr:
    """The normal form of a coefficient collected as raw terms: one normalization."""
    return normalize(terms[0]) if len(terms) == 1 else normalize(Sum(tuple(terms)))


def _totals(table: Mapping[tuple[int, ...], Sequence[Expr]]) -> dict[tuple[int, ...], Expr]:
    return {k: _total(terms) for k, terms in table.items()}


# --------------------------------------------------------------------------
# vector fields
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorField:
    chart: Chart
    components: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.components) != self.chart.dim:
            raise ChartError(
                f"vector field on '{self.chart.name}' needs {self.chart.dim} components"
            )
        for c in self.components:
            _check_expr_coords(self.chart, c, "vector field component")

    @classmethod
    def from_dict(cls, chart: Chart, components: Mapping[str, Expr | int]) -> "VectorField":
        comps = [ZERO] * chart.dim
        for name, e in components.items():
            comps[chart.index(name)] = normalize(as_expr(e))
        return cls(chart, tuple(comps))

    @classmethod
    def zero(cls, chart: Chart) -> "VectorField":
        return cls(chart, (ZERO,) * chart.dim)

    def apply(self, f: Expr) -> Expr:
        """Directional derivative X(f) = sum_i X^i df/dx_i."""
        return _total(self._apply_terms(f, 1))

    def _apply_terms(self, f: Expr, sign: int) -> list[Expr]:
        """The raw terms of sign * X(f)."""
        terms = []
        for name, comp in zip(self.chart.coords, self.components):
            if not is_structurally_zero(comp):
                df = differentiate(f, name)
                if not is_structurally_zero(df):
                    terms.append(_signed(sign, comp, df))
        return terms

    def scale(self, f: Expr | int) -> "VectorField":
        f = as_expr(f)
        return VectorField(self.chart, tuple(f * c for c in self.components))

    def __add__(self, other: "VectorField") -> "VectorField":
        _require_same_chart(self, other)
        return VectorField(
            self.chart, tuple(a + b for a, b in zip(self.components, other.components))
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + other.scale(-1)

    def __neg__(self) -> "VectorField":
        return self.scale(-1)

    @property
    def is_zero_field(self) -> bool:
        return all(is_structurally_zero(c) for c in self.components)


def coordinate_field(chart: Chart, name: str) -> VectorField:
    comps = [ZERO] * chart.dim
    comps[chart.index(name)] = ONE
    return VectorField(chart, tuple(comps))


# --------------------------------------------------------------------------
# alternating coefficient tables (forms and multivectors)
# --------------------------------------------------------------------------


def _sorted_index(idx: Sequence[int]) -> tuple[tuple[int, ...] | None, int]:
    """Sort an index tuple, returning (sorted tuple, permutation sign).

    Returns (None, 0) when an index repeats (the coefficient dies).
    """
    idx = list(idx)
    sign = 1
    # insertion sort, counting transpositions
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None, 0
    return tuple(idx), sign


class _AlternatingTable:
    """Shared machinery for DifferentialForm and Multivector."""

    kind: str = "table"

    def __init__(self, chart: Chart, degree: int, entries):
        # degree > dim is allowed and forces the zero table (no strictly
        # increasing index tuple exists), so d of a top form is representable
        if degree < 0:
            raise ChartError("degree must be >= 0")
        table: dict[tuple[int, ...], Expr] = {}
        for idx, e in dict(entries).items():
            key, sign = _sorted_index(tuple(idx))
            if key is None:
                continue
            if len(key) != degree:
                raise ChartError(f"index {idx} does not match degree {degree}")
            if key and (key[0] < 0 or key[-1] >= chart.dim):
                raise ChartError(f"index {idx} out of range for chart '{chart.name}'")
            e = normalize(as_expr(e)) if sign > 0 else -as_expr(e)
            _check_expr_coords(chart, e, f"{self.kind} coefficient")
            if key in table:
                e = table[key] + e
            table[key] = e
        self.chart = chart
        self.degree = degree
        self.entries: tuple[tuple[tuple[int, ...], Expr], ...] = tuple(
            (k, v) for k, v in sorted(table.items()) if not is_structurally_zero(v)
        )

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, degree: int):
        return cls(chart, degree, {})

    @classmethod
    def from_scalar(cls, chart: Chart, e: Expr):
        return cls(chart, 0, {(): e})

    # -- queries ---------------------------------------------------------

    def coefficient(self, idx: Sequence[int]) -> Expr:
        key, sign = _sorted_index(tuple(idx))
        if key is None:
            return ZERO
        for k, v in self.entries:
            if k == key:
                return v if sign > 0 else -v
        return ZERO

    @property
    def is_zero_table(self) -> bool:
        return not self.entries

    def coefficients(self) -> tuple[Expr, ...]:
        return tuple(v for _, v in self.entries)

    def scalar(self) -> Expr:
        if self.degree != 0:
            raise ChartError("scalar() only applies in degree 0")
        return self.entries[0][1] if self.entries else ZERO

    # -- linear structure --------------------------------------------------

    def _binary(self, other, flip: int):
        _require_same_chart(self, other)
        if self.degree != other.degree:
            raise ChartError("degree mismatch")
        table = {k: [v] for k, v in self.entries}
        for k, v in other.entries:
            table.setdefault(k, []).append(v if flip > 0 else _signed(-1, v))
        return type(self)(self.chart, self.degree, _totals(table))

    def __add__(self, other):
        return self._binary(other, +1)

    def __sub__(self, other):
        return self._binary(other, -1)

    def scale(self, f: Expr | int):
        f = as_expr(f)
        return type(self)(self.chart, self.degree, {k: f * v for k, v in self.entries})

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self.chart == other.chart
            and self.degree == other.degree
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((type(self).__name__, self.chart, self.degree, self.entries))

    def __repr__(self):
        if not self.entries:
            return f"{type(self).__name__}(0; degree {self.degree} on {self.chart.name})"
        marker = "d" if self.kind == "form" else "@"
        parts = []
        for k, v in self.entries:
            basis = ("^".join(f"{marker}{self.chart.coords[i]}" for i in k)) or "1"
            parts.append(f"({v})*{basis}")
        return " + ".join(parts)

    # -- pointwise values --------------------------------------------------

    def at(self, point: Mapping[str, float]) -> dict[tuple[int, ...], float]:
        return {k: float(evaluate(v, point)) for k, v in self.entries}


class DifferentialForm(_AlternatingTable):
    """Skew k-linear field on tangent vectors; degree 0 is a single scalar."""

    kind = "form"


class Multivector(_AlternatingTable):
    """Skew k-linear field on covectors (tangent-side indices)."""

    kind = "multivector"


def differential(chart: Chart, f: Expr) -> DifferentialForm:
    """The 1-form df on the chart."""
    return DifferentialForm(chart, 1, _totals(_differential_terms(chart, f, {})))


def _differential_terms(chart: Chart, f: Expr, table, sign: int = 1, by: tuple[Expr, ...] = ()):
    """Add the raw terms of sign * by * df to ``table``; a zero factor in ``by`` adds none."""
    if any(map(is_structurally_zero, by)):
        return table
    for i, name in enumerate(chart.coords):
        d = differentiate(f, name)
        if not is_structurally_zero(d):
            table.setdefault((i,), []).append(_signed(sign, *by, d))
    return table


def coordinate_form(chart: Chart, name: str) -> DifferentialForm:
    return DifferentialForm(chart, 1, {(chart.index(name),): ONE})


# --------------------------------------------------------------------------
# the operators
# --------------------------------------------------------------------------


def exterior_derivative(omega: DifferentialForm) -> DifferentialForm:
    """d(a dx_I) = sum_j (da/dx_j) dx_j ^ dx_I, degree k+1."""
    chart = omega.chart
    table: dict[tuple[int, ...], list[Expr]] = {}
    for idx, a in omega.entries:
        for j, name in enumerate(chart.coords):
            if j in idx:
                continue
            da = differentiate(a, name)
            if is_structurally_zero(da):
                continue
            key, sign = _sorted_index((j,) + idx)
            table.setdefault(key, []).append(da if sign > 0 else _signed(-1, da))
    return DifferentialForm(chart, omega.degree + 1, _totals(table))


def wedge(a, b):
    """Graded-antisymmetric product of two forms or two multivectors."""
    if type(a) is not type(b):
        raise ChartError("wedge needs two operands of the same kind")
    _require_same_chart(a, b)
    if a.degree + b.degree > a.chart.dim:
        return type(a).zero(a.chart, a.degree + b.degree)
    table: dict[tuple[int, ...], list[Expr]] = {}
    for ia, va in a.entries:
        for ib, vb in b.entries:
            key, sign = _sorted_index(ia + ib)
            if key is None:
                continue
            table.setdefault(key, []).append(_signed(sign, va, vb))
    return type(a)(a.chart, a.degree + b.degree, _totals(table))


def interior_product(X: VectorField, omega: DifferentialForm) -> DifferentialForm:
    """First-slot contraction: (i_X w)(Y...) = w(X, Y...); degree k-1."""
    _require_same_chart(X, omega)
    if omega.degree < 1:
        raise ChartError("interior product needs degree >= 1")
    return DifferentialForm(omega.chart, omega.degree - 1, _totals(_interior_terms(X, omega, {})))


def _interior_terms(X: VectorField, omega: DifferentialForm, table, sign: int = 1,
                    by: tuple[Expr, ...] = ()):
    """Add the raw terms of sign * by * i_X omega to ``table``."""
    for idx, a in omega.entries:
        for pos, i in enumerate(idx):
            xi = X.components[i]
            if is_structurally_zero(xi):
                continue
            key = idx[:pos] + idx[pos + 1 :]
            table.setdefault(key, []).append(_signed(-sign if pos % 2 else sign, *by, xi, a))
    return table


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^i = X(Y^i) - Y(X^i)."""
    _require_same_chart(X, Y)
    return VectorField(
        X.chart,
        tuple(
            _total(X._apply_terms(yc, 1) + Y._apply_terms(xc, -1))
            for xc, yc in zip(X.components, Y.components)
        ),
    )


def lie_derivative(X: VectorField, omega: DifferentialForm) -> DifferentialForm:
    """(L_X w)_I = X(w_I) + sum_p (d X^j / d x_{I_p}) w_{I with I_p -> j}.

    Direct component formula (not the Cartan identity, which is verified
    against this implementation in the test suite).
    """
    _require_same_chart(X, omega)
    chart = omega.chart
    if omega.degree == 0:
        return DifferentialForm.from_scalar(chart, X.apply(omega.scalar()))
    return DifferentialForm(chart, omega.degree, _totals(_lie_terms(X, omega, {})))


def _lie_terms(X: VectorField, omega: DifferentialForm, table, sign: int = 1):
    """Add the raw terms of sign * L_X omega, degree >= 1, to ``table``."""
    chart = omega.chart
    entries = dict(omega.entries)
    for idx, a in omega.entries:
        table.setdefault(idx, []).extend(X._apply_terms(a, sign))
    for I in combinations(range(chart.dim), omega.degree):
        for p in range(len(I)):
            for j in range(chart.dim):
                dX = differentiate(X.components[j], chart.coords[I[p]])
                if is_structurally_zero(dX):
                    continue
                key, s = _sorted_index(I[:p] + (j,) + I[p + 1 :])
                w = entries.get(key)
                if w is not None:
                    table.setdefault(I, []).append(_signed(sign * s, dX, w))
    return table


@dataclass(frozen=True)
class SmoothMap:
    """Map between charts, one target-coordinate expression per component."""

    source: Chart
    target: Chart
    components: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.components) != self.target.dim:
            raise ChartError(
                f"map {self.source.name} -> {self.target.name} needs "
                f"{self.target.dim} components"
            )
        for c in self.components:
            _check_expr_coords(self.source, c, "map component")

    @classmethod
    def from_exprs(cls, source: Chart, target: Chart, exprs: Sequence[Expr | int]) -> "SmoothMap":
        return cls(source, target, tuple(normalize(as_expr(e)) for e in exprs))

    def assignment(self) -> dict[str, Expr]:
        return dict(zip(self.target.coords, self.components))

    def pull_expr(self, f: Expr) -> Expr:
        """f o F, an expression on the source chart."""
        return substitute(f, self.assignment())

    def compose(self, inner: "SmoothMap") -> "SmoothMap":
        """self o inner (inner first)."""
        if inner.target != self.source:
            raise ChartError(
                f"cannot compose {self.source.name}->{self.target.name} "
                f"after {inner.source.name}->{inner.target.name}"
            )
        a = inner.assignment()
        return SmoothMap(inner.source, self.target, tuple(substitute(c, a) for c in self.components))

    def evaluate(self, point: Mapping[str, float]) -> dict[str, float]:
        return {
            name: float(evaluate(c, point)) for name, c in zip(self.target.coords, self.components)
        }


def identity_map(chart: Chart) -> SmoothMap:
    return SmoothMap(chart, chart, tuple(coord(c) for c in chart.coords))


def pullback(F: SmoothMap, omega: DifferentialForm) -> DifferentialForm:
    """F*w on the source chart; commutes with d and composition (checked in tests)."""
    if omega.chart != F.target:
        raise ChartError(
            f"pullback: form lives on '{omega.chart.name}', map targets '{F.target.name}'"
        )
    if omega.degree == 0:
        return DifferentialForm.from_scalar(F.source, F.pull_expr(omega.scalar()))
    dF = [differential(F.source, c) for c in F.components]
    table: dict[tuple[int, ...], list[Expr]] = {}
    for idx, a in omega.entries:
        term = dF[idx[0]]
        for i in idx[1:]:
            term = wedge(term, dF[i])
        pulled = F.pull_expr(a)
        for k, c in term.entries:
            table.setdefault(k, []).append(_signed(1, pulled, c))
    return DifferentialForm(F.source, omega.degree, _totals(table))


def sharp(Lam: Multivector, alpha: DifferentialForm) -> VectorField:
    """P#(a) with the convention P#(a)(b) = P(a, b)."""
    if Lam.degree != 2 or alpha.degree != 1:
        raise ChartError("sharp needs a bivector and a 1-form")
    _require_same_chart(Lam, alpha)
    comps: list[list[Expr]] = [[] for _ in Lam.chart.coords]
    for (i, j), c in Lam.entries:
        ai = alpha.coefficient((i,))
        aj = alpha.coefficient((j,))
        if not is_structurally_zero(ai):
            comps[j].append(_signed(1, ai, c))
        if not is_structurally_zero(aj):
            comps[i].append(_signed(-1, aj, c))
    return VectorField(Lam.chart, tuple(map(_total, comps)))

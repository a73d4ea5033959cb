"""Pairings and brackets on TM + T*M and on E1(M) = (TM x R) + (T*M x R).

Two brackets are implemented verbatim and never converted into each other:
the (non-skew) Courant bracket on sections X + xi of TM + T*M,

    [X1 + xi1, X2 + xi2] = [X1, X2] + L_{X1} xi2 - i_{X2} d xi1,

and the skew extended bracket on quadruples (X, f) + (xi, g) of E1(M).  The
two differ by an exact symmetric correction that vanishes on isotropic
subbundles; tests document this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .chart_tensor import (
    Chart,
    ChartError,
    DifferentialForm,
    VectorField,
    _differential_terms,
    _interior_terms,
    _lie_terms,
    _require_same_chart,
    _signed,
    _total,
    _totals,
    exterior_derivative,
    lie_bracket,
)
from .symcalc import Expr, ONE, ZERO, as_expr, evaluate, is_structurally_zero, normalize

HALF = ONE / 2


@dataclass(frozen=True)
class SectionTM:
    """A section X + xi of TM + T*M over one chart."""

    X: VectorField
    xi: DifferentialForm

    def __post_init__(self):
        if self.xi.degree != 1:
            raise ChartError("the form part of a TM+T*M section must have degree 1")
        _require_same_chart(self.X, self.xi)

    @property
    def chart(self) -> Chart:
        return self.X.chart

    @classmethod
    def zero(cls, chart: Chart) -> "SectionTM":
        return cls(VectorField.zero(chart), DifferentialForm.zero(chart, 1))

    def scale(self, f: Expr | int) -> "SectionTM":
        f = as_expr(f)
        return SectionTM(self.X.scale(f), self.xi.scale(f))

    def __add__(self, other: "SectionTM") -> "SectionTM":
        return SectionTM(self.X + other.X, self.xi + other.xi)

    def __sub__(self, other: "SectionTM") -> "SectionTM":
        return self + other.scale(-1)

    def __neg__(self) -> "SectionTM":
        return self.scale(-1)

    def rows(self) -> list[Expr]:
        """Fiber components (X components, xi components), 2n of them."""
        return [*self.X.components, *(self.xi.coefficient((i,)) for i in range(self.chart.dim))]

    def at(self, point: Mapping[str, float]):
        """The fiber vector of rows() in R^{2n}."""
        import numpy as np

        return np.array([float(evaluate(r, point)) for r in self.rows()])

    def is_structurally_zero(self) -> bool:
        return self.X.is_zero_field and self.xi.is_zero_table


@dataclass(frozen=True)
class SectionE1:
    """A section (X, f) + (xi, g) of E1(M) over one chart."""

    X: VectorField
    f: Expr
    xi: DifferentialForm
    g: Expr

    def __post_init__(self):
        if self.xi.degree != 1:
            raise ChartError("the form part of an E1 section must have degree 1")
        _require_same_chart(self.X, self.xi)
        object.__setattr__(self, "f", normalize(as_expr(self.f)))
        object.__setattr__(self, "g", normalize(as_expr(self.g)))

    @property
    def chart(self) -> Chart:
        return self.X.chart

    @classmethod
    def zero(cls, chart: Chart) -> "SectionE1":
        return cls(VectorField.zero(chart), ZERO, DifferentialForm.zero(chart, 1), ZERO)

    def scale(self, h: Expr | int) -> "SectionE1":
        h = as_expr(h)
        return SectionE1(self.X.scale(h), h * self.f, self.xi.scale(h), h * self.g)

    def __add__(self, other: "SectionE1") -> "SectionE1":
        return SectionE1(
            self.X + other.X, self.f + other.f, self.xi + other.xi, self.g + other.g
        )

    def __sub__(self, other: "SectionE1") -> "SectionE1":
        return self + other.scale(-1)

    def __neg__(self) -> "SectionE1":
        return self.scale(-1)

    def rows(self) -> list[Expr]:
        """Fiber components (X, f, xi, g), 2n + 2 of them."""
        xi = [self.xi.coefficient((i,)) for i in range(self.chart.dim)]
        return [*self.X.components, self.f, *xi, self.g]

    def at(self, point: Mapping[str, float]):
        """The fiber vector of rows() in R^{2n+2}."""
        import numpy as np

        return np.array([float(evaluate(r, point)) for r in self.rows()])

    def is_structurally_zero(self) -> bool:
        return (
            self.X.is_zero_field
            and is_structurally_zero(self.f)
            and self.xi.is_zero_table
            and is_structurally_zero(self.g)
        )


# --------------------------------------------------------------------------
# pairings and brackets: the signed raw terms of each output coefficient are
# collected from the operators' own table builders and normalized once
# --------------------------------------------------------------------------


def pairing_tm(a: SectionTM, b: SectionTM) -> Expr:
    """<X1 + xi1, X2 + xi2> = (xi1(X2) + xi2(X1)) / 2."""
    _require_same_chart(a.X, b.X)
    terms = _interior_terms(b.X, a.xi, {}, by=(HALF,))
    return _total(_interior_terms(a.X, b.xi, terms, by=(HALF,)).get((), []))


def pairing_e1(a: SectionE1, b: SectionE1) -> Expr:
    """<(X1,f1)+(xi1,g1), (X2,f2)+(xi2,g2)> = (i_{X2} xi1 + i_{X1} xi2 + f1 g2 + f2 g1)/2."""
    _require_same_chart(a.X, b.X)
    terms = _interior_terms(b.X, a.xi, {}, by=(HALF,))
    terms = _interior_terms(a.X, b.xi, terms, by=(HALF,)).get((), [])
    return _total(terms + [_signed(1, HALF, a.f, b.g), _signed(1, HALF, b.f, a.g)])


def courant_bracket(a: SectionTM, b: SectionTM) -> SectionTM:
    """[X1+xi1, X2+xi2] = [X1,X2] + L_{X1} xi2 - i_{X2} d xi1 (not skew in general)."""
    _require_same_chart(a.X, b.X)
    form = _interior_terms(b.X, exterior_derivative(a.xi), _lie_terms(a.X, b.xi, {}), -1)
    return SectionTM(lie_bracket(a.X, b.X), DifferentialForm(a.chart, 1, _totals(form)))


def extended_courant_bracket(a: SectionE1, b: SectionE1) -> SectionE1:
    """The skew bracket on E1(M) sections, all four slots.

    vector:  [X1, X2]
    scalar:  X1(f2) - X2(f1)
    form:    L_{X1} xi2 - L_{X2} xi1 + d(i_{X2} xi1 - i_{X1} xi2)/2
             + f1 xi2 - f2 xi1 + (g2 df1 - g1 df2 - f1 dg2 + f2 dg1)/2
    scalar:  X1(g2) - X2(g1) + (i_{X2} xi1 - i_{X1} xi2 - f2 g1 + f1 g2)/2
    """
    _require_same_chart(a.X, b.X)
    chart = a.chart
    skew = _interior_terms(a.X, b.xi, _interior_terms(b.X, a.xi, {}), -1).get((), [])
    skew = _total(skew)  # i_{X2} xi1 - i_{X1} xi2

    form = _lie_terms(b.X, a.xi, _lie_terms(a.X, b.xi, {}), -1)
    _differential_terms(chart, skew, form, by=(HALF,))
    for sign, h, xi in ((1, a.f, b.xi), (-1, b.f, a.xi)):
        if not is_structurally_zero(h):
            for idx, c in xi.entries:
                form.setdefault(idx, []).append(_signed(sign, h, c))
    for sign, u, h in ((1, a.f, b.g), (-1, b.f, a.g), (-1, b.g, a.f), (1, a.g, b.f)):
        _differential_terms(chart, u, form, sign, by=(HALF, h))

    f_slot = a.X._apply_terms(b.f, 1) + b.X._apply_terms(a.f, -1)
    g_slot = a.X._apply_terms(b.g, 1) + b.X._apply_terms(a.g, -1) + [
        _signed(1, HALF, skew), _signed(-1, HALF, b.f, a.g), _signed(1, HALF, a.f, b.g)
    ]
    form = DifferentialForm(chart, 1, _totals(form))
    return SectionE1(lie_bracket(a.X, b.X), _total(f_slot), form, _total(g_slot))

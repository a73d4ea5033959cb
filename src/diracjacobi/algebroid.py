"""Lie algebroid structure carried by a verified structure frame.

The anchor is the projection to the vector-field slot and the bracket is the
restriction of the (extended) Courant bracket.  On top of that live:

* the tautological 1-cocycle reading the f-slot of E1 sections;
* the cocycle and closed-2-cochain checks (Chevalley-Eilenberg in degrees 1
  and 2): each generator bracket is expanded exactly in the frame, its
  leftover rows are zero-tested (a bracket outside the span is an ERROR),
  and each identity is one zero test of the resulting expression;
* the central-extension bracket of a Dirac frame by a 2-cochain;
* the action-algebroid bracket and anchor on M x R twisted by a 1-cocycle,
  with TimeSections given by t-dependent frame coefficients;
* the check that the map (X, f) + (xi, g) -> (X + f d/dt) + e^t (xi + g dt)
  intertwines the action-algebroid bracket with the Courant bracket of the
  induced structure on M x R.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

from .chart_tensor import (
    Chart, ChartError, DifferentialForm, VectorField, _interior_terms, _signed, _total)
from .courant import HALF, SectionE1, SectionTM, courant_bracket
from .report import CheckResult, Findings, error_result
from .structures import (
    Ambient, Expansion, FrameExpansionError, FrameSubbundle, Section, check_involutivity,
    check_maximal_isotropy, induced_dirac_on_MxR)
from .symcalc import (
    Exp, Expr, ZERO, ONE, SamplingPolicy, as_expr, check_zero_all, coord, differentiate,
    is_structurally_zero, normalize)


@dataclass(frozen=True)
class Cocycle1:
    """A 1-cochain on the frame: one value expression per generator."""

    values: tuple[Expr, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(normalize(as_expr(v)) for v in self.values))


def extract_cocycle(L: FrameSubbundle) -> Cocycle1:
    """The tautological cocycle of an E1 frame: phi(generator) = its f-slot."""
    if L.ambient is not Ambient.E1:
        raise ChartError("extract_cocycle expects an E1 frame")
    return Cocycle1(tuple(g.f for g in L.generators))


class AlgebroidOnL:
    """Anchor and restricted bracket of a verified structure frame.

    Structure functions are the frame expansions of generator brackets, which the
    frame computes once each (FrameSubbundle.bracket_expansion); every shipped
    construction carries an identity sub-block, so no spurious quotients appear.
    """

    def __init__(self, L: FrameSubbundle):
        self.L = L

    def anchor_of(self, i: int) -> VectorField:
        return self.L.generators[i].X

    def bracket_pair(self, i: int, j: int) -> Section:
        return self.L.bracket(i, j)

    def structure_coefficients(self, i: int, j: int) -> tuple[Expr, ...]:
        """Expansion of bracket(e_i, e_j) in the frame (antisymmetric in i, j
        for the skew E1 bracket)."""
        return _in_span(self.L.bracket_expansion(i, j))


def frame_expand_symbolic(L: FrameSubbundle, s: Section) -> tuple[Expr, ...]:
    """Frame coefficients of s, which must leave structurally zero rows over."""
    return _in_span(L.expand(s))


def _in_span(expansion: Expansion) -> tuple[Expr, ...]:
    if not all(is_structurally_zero(v) for v in expansion.leftover):
        raise FrameExpansionError("section does not lie in the frame span")
    return expansion.coefficients


# --------------------------------------------------------------------------
# cochain checks: each identity is collected as raw terms and normalized once
# --------------------------------------------------------------------------


def _expand_brackets(
    A: AlgebroidOnL, f: Findings, policy: SamplingPolicy
) -> dict[tuple[int, int], tuple[Expr, ...]] | CheckResult:
    """Frame coefficients of every generator bracket [e_i, e_j], i < j, with
    the leftover rows zero-tested into ``f``; a bracket outside the span is an
    ERROR result (an unusable frame), distinct from FAIL."""
    L = A.L
    table = {}
    for i in range(len(L.generators)):
        for j in range(i + 1, len(L.generators)):
            coefficients, leftover, _ = L.bracket_expansion(i, j)
            rep = check_zero_all(leftover, policy, L.chart.coords, f"{f.name}:span:{i},{j}")
            if not rep.is_zero:
                return error_result(
                    f.name,
                    f"bracket of generators ({i}, {j}) leaves the frame span",
                    witness={"pair": [i, j], "point": rep.witness_point},
                )
            f.zero(rep)
            table[(i, j)] = coefficients
    return table


def _combine(coefficients: Sequence[Expr], values: Sequence[Expr], sign: int = 1) -> list[Expr]:
    """The raw terms of sign * sum_m c_m values_m."""
    return [_signed(sign, v) if c == ONE else _signed(sign, c, v)
            for c, v in zip(coefficients, values)
            if not (is_structurally_zero(c) or is_structurally_zero(v))]


def check_cocycle(
    A: AlgebroidOnL,
    phi: Cocycle1,
    policy: SamplingPolicy,
    name: str = "cocycle",
) -> CheckResult:
    """rho(e_i) phi_j - rho(e_j) phi_i - sum_m c^m_ij phi_m vanishes on generator
    pairs, with c^m_ij the frame expansion of [e_i, e_j]."""
    L = A.L
    if len(phi.values) != len(L.generators):
        return error_result(name, "cocycle has the wrong number of values")
    f = Findings(name)
    structure = _expand_brackets(A, f, policy)
    if isinstance(structure, CheckResult):
        return structure
    for (i, j), coefficients in structure.items():
        identity = _total(
            A.anchor_of(i)._apply_terms(phi.values[j], 1)
            + A.anchor_of(j)._apply_terms(phi.values[i], -1)
            + _combine(coefficients, phi.values, -1)
        )
        rep = check_zero_all([identity], policy, coords=L.chart.coords, label=f"{name}:{i},{j}")
        f.zero(rep, f"cocycle identity fails on generators ({i}, {j})", pair=[i, j])
    return f.result()


@dataclass(frozen=True)
class FrameCochain2:
    """Antisymmetric 2-cochain on the frame, stored over pairs i < j."""

    size: int
    entries: tuple[tuple[tuple[int, int], Expr], ...]

    @classmethod
    def from_table(cls, size: int, table: Mapping[tuple[int, int], Expr]) -> "FrameCochain2":
        """A table that names each pair at most once, as (i, j) or as (j, i)."""
        out: dict[tuple[int, int], Expr] = {}
        for (i, j), v in table.items():
            v = normalize(as_expr(v))
            if i == j:
                if not is_structurally_zero(v):
                    raise ChartError("2-cochain has a nonzero diagonal entry")
                continue
            key = (min(i, j), max(i, j))
            if key in out:
                raise ChartError(f"2-cochain names the pair {key} in both orientations")
            out[key] = v if i < j else -v
        return cls(size, tuple(sorted(out.items())))

    @classmethod
    def from_function(
        cls, L: FrameSubbundle, fn: Callable[[Section, Section], Expr]
    ) -> "FrameCochain2":
        table = {}
        k = len(L.generators)
        for i in range(k):
            for j in range(i + 1, k):
                table[(i, j)] = fn(L.generators[i], L.generators[j])
        return cls.from_table(k, table)

    @cached_property
    def _values(self) -> dict[tuple[int, int], Expr]:
        """Every stored pair in both orientations."""
        return {**dict(self.entries), **{(j, i): -v for (i, j), v in self.entries}}

    def value(self, i: int, j: int) -> Expr:
        return self._values.get((i, j), ZERO)


def omega_skew_half(a: SectionTM, b: SectionTM) -> Expr:
    """The closed 2-section of a Dirac frame: (xi_1(X_2) - xi_2(X_1)) / 2."""
    terms = _interior_terms(a.X, b.xi, _interior_terms(b.X, a.xi, {}, by=(HALF,)), -1, by=(HALF,))
    return _total(terms.get((), []))


def algebroid_differential_2(
    A: AlgebroidOnL,
    Omega: FrameCochain2,
    policy: SamplingPolicy,
    name: str = "closed-2-cochain",
) -> CheckResult:
    """Chevalley-Eilenberg differential vanishes on generator triples.

    d Omega(a,b,c) = rho(a) Omega(b,c) - rho(b) Omega(a,c) + rho(c) Omega(a,b)
                     - Omega([a,b], c) + Omega([a,c], b) - Omega([b,c], a).
    """
    L = A.L
    k = len(L.generators)
    if Omega.size != k:
        return error_result(name, "2-cochain size differs from the frame size")
    f = Findings(name)
    structure = _expand_brackets(A, f, policy)
    if isinstance(structure, CheckResult):
        return structure
    column = [[Omega.value(m, c) for m in range(k)] for c in range(k)]  # column[c][m] = Omega(m, c)
    for i in range(k):
        for j in range(i + 1, k):
            for l in range(j + 1, k):
                d_omega = _total(
                    A.anchor_of(i)._apply_terms(Omega.value(j, l), 1)
                    + A.anchor_of(j)._apply_terms(Omega.value(i, l), -1)
                    + A.anchor_of(l)._apply_terms(Omega.value(i, j), 1)
                    + _combine(structure[(i, j)], column[l], -1)
                    + _combine(structure[(i, l)], column[j], 1)
                    + _combine(structure[(j, l)], column[i], -1)
                )
                rep = check_zero_all([d_omega], policy, L.chart.coords, f"{name}:{i},{j},{l}")
                f.zero(rep, f"d Omega is nonzero on generators ({i}, {j}, {l})", triple=[i, j, l])
    return f.result()


# --------------------------------------------------------------------------
# central extension (Dirac frame + 2-cochain)
# --------------------------------------------------------------------------


def central_extension_bracket(
    A0: AlgebroidOnL,
    omega_fn: Callable[[SectionTM, SectionTM], Expr],
    a: tuple[SectionTM, Expr],
    b: tuple[SectionTM, Expr],
) -> tuple[SectionTM, Expr]:
    """Bracket on (section, function) pairs extending a Dirac-frame algebroid:

    [(s1, f1), (s2, f2)] = ([s1, s2], rho(s1) f2 - rho(s2) f1 + Omega(s1, s2)).
    """
    if A0.L.ambient is not Ambient.TM_TSTAR:
        raise ChartError("central_extension_bracket expects a TM+T*M algebroid")
    s1, f1 = a
    s2, f2 = b
    scalar = s1.X.apply(as_expr(f2)) - s2.X.apply(as_expr(f1)) + omega_fn(s1, s2)
    return courant_bracket(s1, s2), normalize(scalar)


# --------------------------------------------------------------------------
# action algebroid on M x R
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeSection:
    """Section of the action algebroid: frame coefficients over base x R."""

    L: FrameSubbundle
    chart: Chart  # the product chart (base coords, time)
    time: str
    coeffs: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.coeffs) != len(self.L.generators):
            raise ChartError("one coefficient per generator is required")
        object.__setattr__(self, "coeffs", tuple(normalize(as_expr(c)) for c in self.coeffs))

    @classmethod
    def unit(cls, L: FrameSubbundle, chart: Chart, time: str, index: int) -> "TimeSection":
        coeffs = [ZERO] * len(L.generators)
        coeffs[index] = ONE
        return cls(L, chart, time, tuple(coeffs))

    def scale(self, h: Expr) -> "TimeSection":
        h = as_expr(h)
        return TimeSection(self.L, self.chart, self.time, tuple(h * c for c in self.coeffs))

    @cached_property
    def d_dt(self) -> "TimeSection":
        rates = tuple(differentiate(c, self.time) for c in self.coeffs)
        return TimeSection(self.L, self.chart, self.time, rates)

    @cached_property
    def base_anchor(self) -> VectorField:
        """sum_m c_m X_m on the product chart, with no d/dt part."""
        lifted = [g.X.components + (ZERO,) for g in self.L.generators]
        return VectorField(self.chart, tuple(map(_total, _linear_rows(self.coeffs, lifted))))

    def realize(self) -> SectionE1:
        """Concrete quadruple over the product chart: sum_k c_k e_k."""
        out = SectionE1.zero(self.chart)
        for c, g in zip(self.coeffs, self.L.generators):
            out = out + _lift_section(g, self.chart).scale(c)
        return out


def _lift_section(s: SectionE1, chart: Chart) -> SectionE1:
    """Reinterpret a base E1 section over the product chart (no dt/d_dt slots)."""
    X = VectorField(chart, tuple(s.X.components) + (ZERO,))
    xi = DifferentialForm(chart, 1, {idx: v for idx, v in s.xi.entries})
    return SectionE1(X, s.f, xi, s.g)


def _linear_rows(coeffs: Sequence[Expr], columns: Sequence[Sequence[Expr]]) -> list[list[Expr]]:
    """The raw terms of each row of sum_m c_m columns_m."""
    rows: list[list[Expr]] = [[] for _ in columns[0]]
    for c, column in zip(coeffs, columns):
        for r, v in enumerate(column):
            rows[r] += _combine((c,), (v,))
    return rows


def cocycle_value(phi: Cocycle1, ts: TimeSection) -> Expr:
    return _total(_combine(ts.coeffs, phi.values))


def action_algebroid_anchor(
    A: AlgebroidOnL, phi: Cocycle1, ts: TimeSection
) -> VectorField:
    """rho^phi(X) = rho(X_t) + phi(X_t) d/dt on the product chart."""
    components = list(ts.base_anchor.components)
    components[ts.chart.index(ts.time)] = cocycle_value(phi, ts)
    return VectorField(ts.chart, tuple(components))


def action_algebroid_bracket(
    A: AlgebroidOnL, phi: Cocycle1, a: TimeSection, b: TimeSection
) -> TimeSection:
    """[a, b]^phi = [a_t, b_t] + phi(a_t) db/dt - phi(b_t) da/dt, per slot.

    The frozen-t bracket is expanded by bilinearity over the frame, using the
    symbolic structure functions of A and base-coordinate derivatives only
    (valid because the frame is isotropic, hence function-linear up to anchor
    terms).  Each slot is collected as raw terms and normalized once.
    """
    if any(s.L is not A.L and s.L != A.L for s in (a, b)):
        raise ChartError("TimeSection belongs to a different frame")
    if a.chart != b.chart or a.time != b.time:
        raise ChartError("TimeSections live on different product charts")
    phi_a, phi_b = cocycle_value(phi, a), cocycle_value(phi, b)
    slots: list[list[Expr]] = [[] for _ in A.L.generators]
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            if not (is_structurally_zero(ai) or is_structurally_zero(bj)):
                for m, c in enumerate(A.structure_coefficients(i, j)):
                    if not is_structurally_zero(c):
                        slots[m].append(_signed(1, ai, bj, c))
    for m, terms in enumerate(slots):
        terms += a.base_anchor._apply_terms(b.coeffs[m], 1)
        terms += b.base_anchor._apply_terms(a.coeffs[m], -1)
        terms += _combine((phi_a,), (b.d_dt.coeffs[m],)) + _combine((phi_b,), (a.d_dt.coeffs[m],), -1)
    return TimeSection(A.L, a.chart, a.time, tuple(map(_total, slots)))


# --------------------------------------------------------------------------
# the isomorphism check with the induced structure on M x R
# --------------------------------------------------------------------------


def psi(images: Sequence[SectionTM], ts: TimeSection) -> SectionTM:
    """The image sum_m c_m images_m of a TimeSection, one normalization per row."""
    chart, n = ts.chart, ts.chart.dim
    rows = [_total(terms) for terms in _linear_rows(ts.coeffs, [g.rows() for g in images])]
    form = DifferentialForm(chart, 1, {(r,): v for r, v in enumerate(rows[n:])})
    return SectionTM(VectorField(chart, tuple(rows[:n])), form)


def check_action_iso(
    L: FrameSubbundle,
    policy: SamplingPolicy,
    time: str = "t",
    drop_scale: bool = False,
    name: str = "action-iso",
) -> CheckResult:
    """The generator-wise map into the induced M x R structure intertwines
    the twisted action bracket with the Courant bracket.

    Tested on all pairs drawn from the unit TimeSections and their t-linear
    multiples: each test section's image is built once, and each pair's rows
    lhs_r - rhs_r are collected as raw terms and normalized once.
    drop_scale=True omits the exponential factor from the map (negative
    control: the identity then fails whenever the cocycle acts).
    """
    iso = check_maximal_isotropy(L, policy, name=f"{name}:pre-isotropy")
    inv = check_involutivity(L, policy, name=f"{name}:pre-involutivity")
    if not iso.passed or not inv.passed:
        return error_result(name, "frame failed the structure checks; no algebroid to compare")

    A = AlgebroidOnL(L)
    phi = extract_cocycle(L)
    Ltilde = induced_dirac_on_MxR(L, time=time)
    chart = Ltilde.chart

    images = Ltilde.generators
    if drop_scale:
        decay = normalize(as_expr(1) / normalize(Exp(coord(time))))
        images = tuple(SectionTM(g.X, g.xi.scale(decay)) for g in images)
    columns = [g.rows() for g in images]

    k = len(L.generators)
    sections = [TimeSection.unit(L, chart, time, i) for i in range(k)]
    sections += [s.scale(coord(time)) for s in sections]
    psis = [psi(images, s) for s in sections]

    f = Findings(name)
    for i in range(len(sections)):
        for j in range(i + 1, len(sections)):
            lhs = action_algebroid_bracket(A, phi, sections[i], sections[j])
            rows = _linear_rows(lhs.coeffs, columns)
            for terms, v in zip(rows, courant_bracket(psis[i], psis[j]).rows()):
                terms += _combine((ONE,), (v,), -1)
            rep = check_zero_all(
                [_total(t) for t in rows], policy, coords=chart.coords, label=f"{name}:{i},{j}"
            )
            f.zero(rep, f"bracket images differ for test sections ({i}, {j})", sections=[i, j])
    # anchor consistency is structural: the vector slot of psi matches the
    # twisted anchor by construction; assert it on the unit sections anyway,
    # outside the residual statistics, which measure the bracket identity
    for i, s in enumerate(sections[:k]):
        va = action_algebroid_anchor(A, phi, s).components
        rows = [x - y for x, y in zip(va, psis[i].X.components)]
        if not check_zero_all(rows, policy, chart.coords, f"{name}:anchor:{i}").is_zero:
            f.fail(f"anchor image differs for generator {i}")
    return f.result()

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
from typing import Callable, Mapping

from .chart_tensor import (
    Chart,
    ChartError,
    DifferentialForm,
    VectorField,
    coordinate_field,
)
from .courant import SectionE1, SectionTM, courant_bracket
from .report import CheckResult, Findings, error_result
from .structures import (
    Ambient,
    FrameExpansionError,
    FrameSubbundle,
    Section,
    check_involutivity,
    check_maximal_isotropy,
    induced_dirac_on_MxR,
)
from .symcalc import (
    Exp,
    Expr,
    ZERO,
    ONE,
    SamplingPolicy,
    as_expr,
    check_zero_all,
    coord,
    differentiate,
    is_structurally_zero,
    normalize,
)


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

    Structure functions (the frame expansions of generator brackets) are
    computed symbolically on demand by FrameSubbundle.expand; every shipped
    construction carries an identity sub-block, so no spurious quotients
    appear.
    """

    def __init__(self, L: FrameSubbundle):
        self.L = L
        self._structure: dict[tuple[int, int], tuple[Expr, ...]] = {}

    def anchor_of(self, i: int) -> VectorField:
        return self.L.generators[i].X

    def bracket_pair(self, i: int, j: int) -> Section:
        return self.L.bracket(i, j)

    def structure_coefficients(self, i: int, j: int) -> tuple[Expr, ...]:
        """Expansion of bracket(e_i, e_j) in the frame (antisymmetric in i, j
        for the skew E1 bracket)."""
        if (i, j) not in self._structure:
            self._structure[(i, j)] = frame_expand_symbolic(self.L, self.bracket_pair(i, j))
        return self._structure[(i, j)]


def frame_expand_symbolic(L: FrameSubbundle, s: Section) -> tuple[Expr, ...]:
    """Frame coefficients of s, which must leave structurally zero rows over."""
    coefficients, leftover, _ = L.expand(s)
    if not all(is_structurally_zero(v) for v in leftover):
        raise FrameExpansionError("section does not lie in the frame span")
    return coefficients


# --------------------------------------------------------------------------
# cochain checks
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
            coefficients, leftover, _ = L.expand(A.bracket_pair(i, j))
            rep = check_zero_all(
                leftover, policy, coords=L.chart.coords, label=f"{f.name}:span:{i},{j}"
            )
            if not rep.is_zero:
                return error_result(
                    f.name,
                    f"bracket of generators ({i}, {j}) leaves the frame span",
                    witness={"pair": [i, j], "point": rep.witness_point},
                )
            f.zero(rep)
            table[(i, j)] = coefficients
    return table


def _combine(coefficients: tuple[Expr, ...], values) -> Expr:
    """sum_m c_m values_m."""
    return sum((c * v for c, v in zip(coefficients, values)), start=ZERO)


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
        identity = (
            A.anchor_of(i).apply(phi.values[j])
            - A.anchor_of(j).apply(phi.values[i])
            - _combine(coefficients, phi.values)
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
        out: dict[tuple[int, int], Expr] = {}
        for (i, j), v in table.items():
            v = normalize(as_expr(v))
            if i == j:
                if not is_structurally_zero(v):
                    raise ChartError("2-cochain has a nonzero diagonal entry")
                continue
            if i > j:
                i, j, v = j, i, normalize(as_expr(-1) * v)
            if (i, j) in out:
                out[(i, j)] = out[(i, j)] + v
            else:
                out[(i, j)] = v
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

    def value(self, i: int, j: int) -> Expr:
        if i == j:
            return ZERO
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        for key, v in self.entries:
            if key == (i, j):
                return v if sign > 0 else normalize(as_expr(-1) * v)
        return ZERO


def omega_skew_half(a: SectionTM, b: SectionTM) -> Expr:
    """The closed 2-section of a Dirac frame: (xi_1(X_2) - xi_2(X_1)) / 2."""
    from .chart_tensor import interior_product
    from fractions import Fraction

    return as_expr(Fraction(1, 2)) * (
        interior_product(b.X, a.xi).scalar() - interior_product(a.X, b.xi).scalar()
    )


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
                d_omega = (
                    A.anchor_of(i).apply(Omega.value(j, l))
                    - A.anchor_of(j).apply(Omega.value(i, l))
                    + A.anchor_of(l).apply(Omega.value(i, j))
                    - _combine(structure[(i, j)], column[l])
                    + _combine(structure[(i, l)], column[j])
                    - _combine(structure[(j, l)], column[i])
                )
                rep = check_zero_all(
                    [d_omega], policy, coords=L.chart.coords, label=f"{name}:{i},{j},{l}"
                )
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

    def d_dt(self) -> "TimeSection":
        return TimeSection(
            self.L,
            self.chart,
            self.time,
            tuple(differentiate(c, self.time) for c in self.coeffs),
        )

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


def cocycle_value(phi: Cocycle1, ts: TimeSection) -> Expr:
    return normalize(sum((c * v for c, v in zip(ts.coeffs, phi.values)), start=ZERO))


def action_algebroid_anchor(
    A: AlgebroidOnL, phi: Cocycle1, ts: TimeSection
) -> VectorField:
    """rho^phi(X) = rho(X_t) + phi(X_t) d/dt on the product chart."""
    chart = ts.chart
    out = VectorField.zero(chart)
    for c, g in zip(ts.coeffs, A.L.generators):
        lifted = VectorField(chart, tuple(g.X.components) + (ZERO,))
        out = out + lifted.scale(c)
    out = out + coordinate_field(chart, ts.time).scale(cocycle_value(phi, ts))
    return out


def action_algebroid_bracket(
    A: AlgebroidOnL, phi: Cocycle1, a: TimeSection, b: TimeSection
) -> TimeSection:
    """[a, b]^phi = [a_t, b_t] + phi(a_t) db/dt - phi(b_t) da/dt, per slot.

    The frozen-t bracket is expanded by bilinearity over the frame, using the
    symbolic structure functions of A and base-coordinate derivatives only
    (valid because the frame is isotropic, hence function-linear up to anchor
    terms).
    """
    if a.L is not A.L and a.L != A.L:
        raise ChartError("TimeSection belongs to a different frame")
    if a.chart != b.chart or a.time != b.time:
        raise ChartError("TimeSections live on different product charts")
    k = len(A.L.generators)
    chart = a.chart
    rho_a = action_algebroid_anchor(A, Cocycle1((ZERO,) * k), a)  # base part only
    rho_b = action_algebroid_anchor(A, Cocycle1((ZERO,) * k), b)
    phi_a = cocycle_value(phi, a)
    phi_b = cocycle_value(phi, b)
    da = a.d_dt()
    db = b.d_dt()

    coeffs = [ZERO] * k
    for i in range(k):
        if is_structurally_zero(a.coeffs[i]):
            continue
        for j in range(k):
            if is_structurally_zero(b.coeffs[j]):
                continue
            struct = A.structure_coefficients(i, j)
            w = a.coeffs[i] * b.coeffs[j]
            for m in range(k):
                if not is_structurally_zero(struct[m]):
                    coeffs[m] = coeffs[m] + w * struct[m]
    for m in range(k):
        coeffs[m] = (
            coeffs[m]
            + rho_a.apply(b.coeffs[m])
            - rho_b.apply(a.coeffs[m])
            + phi_a * db.coeffs[m]
            - phi_b * da.coeffs[m]
        )
    return TimeSection(A.L, chart, a.time, tuple(coeffs))


# --------------------------------------------------------------------------
# the isomorphism check with the induced structure on M x R
# --------------------------------------------------------------------------


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
    multiples.  drop_scale=True omits the exponential factor from the map
    (negative control: the identity then fails whenever the cocycle acts).
    """
    iso = check_maximal_isotropy(L, policy, name=f"{name}:pre-isotropy")
    inv = check_involutivity(L, policy, name=f"{name}:pre-involutivity")
    if not iso.passed or not inv.passed:
        return error_result(name, "frame failed the structure checks; no algebroid to compare")

    A = AlgebroidOnL(L)
    phi = extract_cocycle(L)
    Ltilde = induced_dirac_on_MxR(L, time=time)
    chart = Ltilde.chart

    if drop_scale:
        decay = normalize(as_expr(1) / normalize(Exp(coord(time))))
        images = tuple(SectionTM(g.X, g.xi.scale(decay)) for g in Ltilde.generators)
    else:
        images = Ltilde.generators

    def psi(ts: TimeSection) -> SectionTM:
        out = SectionTM.zero(chart)
        for c, img in zip(ts.coeffs, images):
            out = out + img.scale(c)
        return out

    k = len(L.generators)
    tvar = coord(time)
    sections = [TimeSection.unit(L, chart, time, i) for i in range(k)]
    sections += [s.scale(tvar) for s in sections[:k]]

    f = Findings(name)
    for i in range(len(sections)):
        for j in range(i + 1, len(sections)):
            a, b = sections[i], sections[j]
            lhs = psi(action_algebroid_bracket(A, phi, a, b))
            rhs = courant_bracket(psi(a), psi(b))
            diff = lhs - rhs
            exprs = list(diff.X.components) + list(diff.xi.coefficients())
            rep = check_zero_all(exprs, policy, coords=chart.coords, label=f"{name}:{i},{j}")
            f.zero(rep, f"bracket images differ for test sections ({i}, {j})", sections=[i, j])
    # anchor consistency is structural: the vector slot of psi matches the
    # twisted anchor by construction; assert it on the unit sections anyway,
    # outside the residual statistics, which measure the bracket identity
    for i, s in enumerate(sections[:k]):
        va = action_algebroid_anchor(A, phi, s)
        vb = psi(s).X
        rep = check_zero_all(
            [x - y for x, y in zip(va.components, vb.components)],
            policy,
            coords=chart.coords,
            label=f"{name}:anchor:{i}",
        )
        if not rep.is_zero:
            f.fail(f"anchor image differs for generator {i}")
    return f.result()

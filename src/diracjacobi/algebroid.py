"""Lie algebroid structure carried by a verified structure frame.

The anchor is the projection to the vector-field slot and the bracket is the
restriction of the (extended) Courant bracket.  On top of that live:

* the tautological 1-cocycle reading the f-slot of E1 sections;
* the cocycle and closed-2-cochain residual checks (Chevalley-Eilenberg in
  degrees 1 and 2, with frame-expansion coefficients obtained by least
  squares at sample points -- expansion residual and identity residual are
  reported separately);
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
from .courant import SectionE1, SectionTM, courant_bracket, extended_courant_bracket
from .linalg import least_squares_coefficients
from .report import CheckResult, Findings, error_result
from .structures import (
    Ambient,
    FrameSubbundle,
    MEMBERSHIP_RTOL,
    Section,
    check_involutivity,
    check_maximal_isotropy,
    induced_dirac_on_MxR,
)
from .symcalc import (
    Constant,
    Exp,
    Expr,
    ZERO,
    ONE,
    Quotient,
    SamplingPolicy,
    as_expr,
    check_zero_all,
    coord,
    differentiate,
    evaluate,
    is_structurally_zero,
    normalize,
)

COCYCLE_RTOL = 1e-7


class FrameExpansionError(ChartError):
    """A section could not be expanded symbolically in the frame."""


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
    computed symbolically on demand by Gaussian elimination over the
    expression field, preferring constant pivots; every shipped construction
    carries an identity sub-block, so no spurious quotients appear.
    """

    def __init__(self, L: FrameSubbundle):
        self.L = L
        self._structure: dict[tuple[int, int], tuple[Expr, ...]] = {}

    def anchor(self, s: Section) -> VectorField:
        return s.X

    def anchor_of(self, i: int) -> VectorField:
        return self.L.generators[i].X

    def bracket(self, a: Section, b: Section) -> Section:
        if self.L.ambient is Ambient.TM_TSTAR:
            return courant_bracket(a, b)
        return extended_courant_bracket(a, b)

    def bracket_pair(self, i: int, j: int) -> Section:
        return self.L.bracket(i, j)

    def structure_coefficients(self, i: int, j: int) -> tuple[Expr, ...]:
        """Expansion of bracket(e_i, e_j) in the frame (antisymmetric in i, j
        for the skew E1 bracket)."""
        if (i, j) in self._structure:
            return self._structure[(i, j)]
        value = self.bracket(self.L.generators[i], self.L.generators[j])
        coeffs = frame_expand_symbolic(self.L, value)
        self._structure[(i, j)] = coeffs
        return coeffs


def _section_rows(s: Section) -> list[Expr]:
    chart = s.chart
    if isinstance(s, SectionTM):
        rows = list(s.X.components)
        rows += [s.xi.coefficient((i,)) for i in range(chart.dim)]
        return rows
    rows = list(s.X.components)
    rows.append(s.f)
    rows += [s.xi.coefficient((i,)) for i in range(chart.dim)]
    rows.append(s.g)
    return rows


def frame_expand_symbolic(L: FrameSubbundle, s: Section) -> tuple[Expr, ...]:
    """Solve sum_k c_k e_k = s for expressions c_k by Gaussian elimination.

    Prefers pivots that are nonzero constants; a non-constant pivot is only
    used when no constant one exists (generic-position assumption, recorded
    in the elimination order).  Raises FrameExpansionError when no pivot is
    available or a leftover row is not structurally zero.
    """
    k = len(L.generators)
    rows = []
    cols = [_section_rows(g) for g in L.generators]
    rhs = _section_rows(s)
    for r in range(len(rhs)):
        rows.append([cols[j][r] for j in range(k)] + [rhs[r]])

    solved: list[int | None] = [None] * k
    used_rows: set[int] = set()
    for col in range(k):
        pivot_row = None
        for prefer_const in (True, False):
            for r, row in enumerate(rows):
                if r in used_rows:
                    continue
                entry = row[col]
                if is_structurally_zero(entry):
                    continue
                if prefer_const and not isinstance(entry, Constant):
                    continue
                pivot_row = r
                break
            if pivot_row is not None:
                break
        if pivot_row is None:
            raise FrameExpansionError(f"no usable pivot for generator {col}")
        used_rows.add(pivot_row)
        solved[col] = pivot_row
        pivot = rows[pivot_row][col]
        rows[pivot_row] = [normalize(Quotient(v, pivot)) for v in rows[pivot_row]]
        for r, row in enumerate(rows):
            if r == pivot_row:
                continue
            factor = row[col]
            if is_structurally_zero(factor):
                continue
            rows[r] = [v - factor * p for v, p in zip(row, rows[pivot_row])]

    for r, row in enumerate(rows):
        if r in used_rows:
            continue
        if not is_structurally_zero(row[k]):
            raise FrameExpansionError("section does not lie in the frame span")

    coeffs = [ZERO] * k
    for col in range(k):
        coeffs[col] = rows[solved[col]][k]
    return tuple(coeffs)


# --------------------------------------------------------------------------
# cochain residual checks
# --------------------------------------------------------------------------


def check_cocycle(
    A: AlgebroidOnL,
    phi: Cocycle1,
    policy: SamplingPolicy,
    name: str = "cocycle",
) -> CheckResult:
    """rho(a) phi(b) - rho(b) phi(a) - phi([a, b]) vanishes on generator pairs.

    phi([a, b]) is evaluated by expanding the bracket in the frame by least
    squares at each sampled point; an expansion residual beyond tolerance
    yields ERROR (an unusable frame), distinct from FAIL.
    """
    L = A.L
    if len(phi.values) != len(L.generators):
        return error_result(name, "cocycle has the wrong number of values")
    points = policy.float_points(L.chart.coords, f"{name}:points")
    f = Findings(name)
    for i in range(len(L.generators)):
        for j in range(i + 1, len(L.generators)):
            value = A.bracket_pair(i, j)
            lhs = A.anchor_of(i).apply(phi.values[j]) - A.anchor_of(j).apply(phi.values[i])
            for p in points:
                B = L.fiber_matrix_at(p)
                coeffs, resid = least_squares_coefficients(B, value.at(p))
                if resid > MEMBERSHIP_RTOL:
                    return error_result(
                        name,
                        f"frame-expansion residual {resid:.3e} invalidates the test "
                        f"for generators ({i}, {j})",
                        witness={"pair": [i, j], "point": p, "residual": resid},
                    )
                phi_of_bracket = sum(
                    c * float(evaluate(v, p)) for c, v in zip(coeffs, phi.values)
                )
                lhs_val = float(evaluate(lhs, p))
                delta = abs(lhs_val - phi_of_bracket)
                scale = 1.0 + abs(lhs_val) + abs(phi_of_bracket)
                f.residual(delta / scale)
                if delta > COCYCLE_RTOL * scale:
                    f.fail(
                        f"cocycle identity fails on generators ({i}, {j})",
                        {"pair": [i, j], "point": p, "delta": delta},
                    )
    return f.result(mode="sampled")


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
    """Chevalley-Eilenberg differential on generator triples samples to zero.

    d Omega(a,b,c) = rho(a) Omega(b,c) - rho(b) Omega(a,c) + rho(c) Omega(a,b)
                     - Omega([a,b], c) + Omega([a,c], b) - Omega([b,c], a).
    """
    L = A.L
    k = len(L.generators)
    if Omega.size != k:
        return error_result(name, "2-cochain size differs from the frame size")
    points = policy.float_points(L.chart.coords, f"{name}:points")
    f = Findings(name)
    brackets: dict[tuple[int, int], Section] = {}

    def bracket_of(i: int, j: int) -> Section:
        if (i, j) not in brackets:
            brackets[(i, j)] = A.bracket_pair(i, j)
        return brackets[(i, j)]

    for i in range(k):
        for j in range(i + 1, k):
            for l in range(j + 1, k):
                sym = (
                    A.anchor_of(i).apply(Omega.value(j, l))
                    - A.anchor_of(j).apply(Omega.value(i, l))
                    + A.anchor_of(l).apply(Omega.value(i, j))
                )
                for p in points:
                    B = L.fiber_matrix_at(p)
                    total = float(evaluate(sym, p))
                    scale = 1.0 + abs(total)
                    usable = True
                    for (a, b, c, sign) in ((i, j, l, -1.0), (i, l, j, +1.0), (j, l, i, -1.0)):
                        coeffs, resid = least_squares_coefficients(
                            B, bracket_of(a, b).at(p)
                        )
                        if resid > MEMBERSHIP_RTOL:
                            return error_result(
                                name,
                                f"frame-expansion residual {resid:.3e} invalidates the "
                                f"test for generators ({a}, {b})",
                                witness={"pair": [a, b], "point": p, "residual": resid},
                            )
                        term = sum(
                            cm * float(evaluate(Omega.value(m, c), p))
                            for m, cm in enumerate(coeffs)
                        )
                        total += sign * term
                        scale += abs(term)
                    delta = abs(total)
                    f.residual(delta / scale)
                    if delta > COCYCLE_RTOL * scale:
                        f.fail(
                            f"d Omega is nonzero on generators ({i}, {j}, {l})",
                            {"triple": [i, j, l], "point": p, "delta": delta},
                        )
    return f.result(mode="sampled")


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

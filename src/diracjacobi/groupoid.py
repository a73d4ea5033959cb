"""Explicit Lie-groupoid models with symbolic structural maps.

A model carries total and base charts, source/target/unit/inversion maps,
and a multiplication defined over an explicitly parametrized chart of
composable pairs (two projections realize the parametrization; the locus
constraint source(left) = target(right) is itself verified).  Composability
follows the convention m(g, h) defined when source(g) = target(h).

Each pair-chart coordinate is a plain component of pair_left or pair_right, so
the pair chart is G x_M G, read off each composable pair, and the unit, inverse
and associativity laws are exact identities, decided like any zero test.

On top of the axioms live the precontact and presymplectic verifications,
the action groupoid twisted by a multiplicative function, the 1-form /
homogeneous-2-form correspondence, the conformal equivalence transform, and
the exact extraction of the base structure from precontact data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .chart_tensor import (
    Chart,
    ChartError,
    DifferentialForm,
    SmoothMap,
    VectorField,
    coordinate_field,
    exterior_derivative,
    interior_product,
    lie_derivative,
    product_chart,
    pullback,
    wedge,
)
from .report import CheckResult, Findings, error_result
from .structures import (ConformalFactor, FrameSubbundle, _eliminate, _unit, certified_rank,
                         compare_spans, pushed_null_space)
from .symcalc import (
    Coordinate,
    Exp,
    Expr,
    Ln,
    Quotient,
    SamplingPolicy,
    ZERO,
    as_expr,
    check_zero_all,
    coord,
    differentiate,
    evaluate,
    is_nonvanishing,
    is_structurally_zero,
    normalize,
    substitute,
)


class GroupoidModelError(ValueError):
    """The supplied model data is inconsistent (not a verification failure)."""


def _plain(component: Expr) -> str | None:
    """The coordinate a map component is, if it is a plain coordinate."""
    c = normalize(component)
    return c.name if isinstance(c, Coordinate) else None


@dataclass(frozen=True)
class GroupoidModel:
    total: Chart
    base: Chart
    source: SmoothMap  # G -> M
    target: SmoothMap  # G -> M
    unit: SmoothMap  # M -> G
    inversion: SmoothMap  # G -> G
    pair_chart: Chart  # parametrizes {(g, h) : source(g) = target(h)}
    pair_left: SmoothMap  # P -> G
    pair_right: SmoothMap  # P -> G
    multiplication: SmoothMap  # P -> G
    # per pair-chart coordinate, its first plain component: (0 left / 1 right, index)
    readoff: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        checks = (
            (self.source, self.total, self.base, "source"),
            (self.target, self.total, self.base, "target"),
            (self.unit, self.base, self.total, "unit"),
            (self.inversion, self.total, self.total, "inversion"),
            (self.pair_left, self.pair_chart, self.total, "pair_left"),
            (self.pair_right, self.pair_chart, self.total, "pair_right"),
            (self.multiplication, self.pair_chart, self.total, "multiplication"),
        )
        for m, src, dst, what in checks:
            if m.source != src or m.target != dst:
                raise GroupoidModelError(f"{what} map has wrong charts")
        slots: dict[str, tuple[int, int]] = {}
        for side, F in enumerate((self.pair_left, self.pair_right)):
            for i, c in enumerate(map(_plain, F.components)):
                if c is not None:
                    slots.setdefault(c, (side, i))
        missing = [c for c in self.pair_chart.coords if c not in slots]
        if missing:
            raise GroupoidModelError(
                f"pair coordinates {missing} are no plain component of pair_left or pair_right"
            )
        object.__setattr__(self, "readoff", tuple(slots[c] for c in self.pair_chart.coords))

    def read_off(self, g: Sequence, h: Sequence) -> tuple:
        """The pair-chart point of (g, h), coordinates given in total-chart order."""
        return tuple((g, h)[side][i] for side, i in self.readoff)


@dataclass(frozen=True)
class PrecontactData:
    """A 1-form and a multiplicative function on the total chart."""

    eta: DifferentialForm
    sigma: Expr

    def __post_init__(self):
        if self.eta.degree != 1:
            raise ChartError("precontact data needs a 1-form")
        object.__setattr__(self, "sigma", normalize(as_expr(self.sigma)))


@dataclass(frozen=True)
class PresymplecticData:
    """A 2-form on the total chart, with an optional homogeneity field."""

    omega: DifferentialForm
    homogeneity_field: VectorField | None = None

    def __post_init__(self):
        if self.omega.degree != 2:
            raise ChartError("presymplectic data needs a 2-form")


# --------------------------------------------------------------------------
# pairs and fibers by read-off
# --------------------------------------------------------------------------


def locate_pair(
    gm: GroupoidModel, g: Mapping[str, float], h: Mapping[str, float], rng
) -> dict[str, float]:
    """The pair-chart point representing the composable pair (g, h); rng is unused."""
    coords = gm.total.coords
    return gm.pair_chart.dict_point(gm.read_off([g[c] for c in coords], [h[c] for c in coords]))


def sample_fiber(
    F: SmoothMap, y: Mapping[str, float], rng, box: tuple[float, float], k: int
) -> list[dict[str, float]]:
    """k points of the fiber F^{-1}(y) of a coordinate projection F: the coordinates
    F's components name are fixed at y, the others drawn from rng in box."""
    fixed: dict[str, float] = {}
    for name, c in zip(F.target.coords, F.components):
        c = _plain(c)
        if c is None or c in fixed:
            raise GroupoidModelError(f"map to {F.target.name} is no coordinate projection")
        fixed[c] = float(y[name])
    lo, hi = box
    return [
        {c: fixed[c] if c in fixed else rng.uniform(lo, hi) for c in F.source.coords}
        for _ in range(k)
    ]


# --------------------------------------------------------------------------
# groupoid axioms
# --------------------------------------------------------------------------


def _at(F: SmoothMap, point: Sequence[Expr]) -> tuple[Expr, ...]:
    """F at a point whose coordinates are expressions."""
    a = dict(zip(F.source.coords, point))
    return tuple(substitute(c, a) for c in F.components)


def _differences(a: Sequence[Expr], b: Sequence[Expr]) -> list[Expr]:
    return [x - y for x, y in zip(a, b)]


def check_groupoid(
    gm: GroupoidModel, policy: SamplingPolicy, name: str = "groupoid-axioms"
) -> CheckResult:
    """Structural-map identities, and the unit, inverse and associativity laws
    as exact identities over the read-off of each composable pair."""
    x, g, w = (tuple(map(coord, ch.coords)) for ch in (gm.base, gm.total, gm.pair_chart))
    left, right, gh = _at(gm.pair_left, w), _at(gm.pair_right, w), _at(gm.multiplication, w)
    # the parametrization must actually hit the composable locus
    locus = check_zero_all(
        _differences(_at(gm.source, left), _at(gm.target, right)),
        policy,
        coords=gm.pair_chart.coords,
        label=f"{name}:locus",
    )
    if not locus.is_zero:
        return error_result(
            name,
            "model error: the pair parametrization violates source(left) = target(right)",
            witness={"point": locus.witness_point, "value": locus.witness_value},
        )

    unit_t, unit_s = _at(gm.unit, _at(gm.target, g)), _at(gm.unit, _at(gm.source, g))
    inv_g = _at(gm.inversion, g)
    f = Findings(name)
    for law, chart, lhs, rhs in (
        ("source-of-unit", gm.base, _at(gm.source, _at(gm.unit, x)), x),
        ("target-of-unit", gm.base, _at(gm.target, _at(gm.unit, x)), x),
        ("source-of-product", gm.pair_chart, _at(gm.source, gh), _at(gm.source, right)),
        ("target-of-product", gm.pair_chart, _at(gm.target, gh), _at(gm.target, left)),
        ("source-of-inverse", gm.total, _at(gm.source, inv_g), _at(gm.target, g)),
        ("target-of-inverse", gm.total, _at(gm.target, inv_g), _at(gm.source, g)),
        ("inversion-involutive", gm.total, _at(gm.inversion, inv_g), g),
    ):
        rep = check_zero_all(
            _differences(lhs, rhs), policy, coords=chart.coords, label=f"{name}:{law}"
        )
        f.zero(rep, f"{law} fails", law=law)

    def compose(a, b) -> tuple[list[Expr], tuple[Expr, ...]]:
        """What vanishes when the read-off p of (a, b) represents it, and the product m(p)."""
        p = gm.read_off(a, b)
        located = _differences(_at(gm.pair_left, p) + _at(gm.pair_right, p), a + b)
        return located, _at(gm.multiplication, p)

    # associativity lives on the pair chart plus fresh copies of the coordinates
    # read off pair_right only: with h = right they give the pair (h, k)
    triple, w2 = list(gm.pair_chart.coords), []
    for c, (side, i) in zip(gm.pair_chart.coords, gm.readoff):
        if side == 1:
            while c in triple:
                c += "'"
            triple.append(c)
        w2.append(coord(c) if side == 1 else right[i])
    k, hk = _at(gm.pair_right, w2), _at(gm.multiplication, w2)
    (located_left, ghk), (located_right, g_hk) = compose(gh, k), compose(left, hk)
    located_triple = _differences(_at(gm.pair_left, w2), right) + located_left + located_right

    for law, coords, (located, product), expected in (
        ("left-unit", gm.total.coords, compose(unit_t, g), g),
        ("right-unit", gm.total.coords, compose(g, unit_s), g),
        ("right-inverse", gm.total.coords, compose(g, inv_g), unit_t),
        ("left-inverse", gm.total.coords, compose(inv_g, g), unit_s),
        ("associativity", tuple(triple), (located_triple, ghk), g_hk),
    ):
        rep = check_zero_all(located, policy, coords=coords, label=f"{name}:{law}:read-off")
        if not rep.is_zero:
            witness = {"law": law, "point": rep.witness_point, "value": rep.witness_value}
            return error_result(name, "could not invert the pair parametrization", witness=witness)
        f.zero(rep)
        rep = check_zero_all(
            _differences(product, expected), policy, coords=coords, label=f"{name}:{law}"
        )
        f.zero(rep, f"{law.replace('-', ' ')} law fails", law=law)
    return f.result()


def check_multiplicative_function(
    gm: GroupoidModel, sigma: Expr, policy: SamplingPolicy, name: str = "multiplicative-function"
) -> CheckResult:
    """sigma(gh) - sigma(g) - sigma(h) vanishes on the composable locus."""
    sigma = normalize(as_expr(sigma))
    diff = (
        gm.multiplication.pull_expr(sigma)
        - gm.pair_left.pull_expr(sigma)
        - gm.pair_right.pull_expr(sigma)
    )
    f = Findings(name)
    f.zero(check_zero_all([diff], policy, coords=gm.pair_chart.coords, label=f"{name}:mult"))
    return f.result()


# --------------------------------------------------------------------------
# precontact / presymplectic verification
# --------------------------------------------------------------------------


def _unit_kernel(gm: GroupoidModel, f: Findings, *forms: DifferentialForm) -> None:
    """Ker(forms) & Ker(d source) & Ker(d target) = 0 at every unit: the forms'
    coefficient rows stacked with both Jacobians, pulled back along unit, have
    rank dim G, read off one exact elimination."""
    N = gm.total.dim
    rows = [[form.coefficient((j,) if form.degree == 1 else (i, j)) for j in range(N)]
            for form in forms for i in range(1 if form.degree == 1 else N)]
    rows += [[differentiate(c, x) for x in gm.total.coords]
             for F in (gm.source, gm.target) for c in F.components]
    columns = [[gm.unit.pull_expr(row[j]) for row in rows] for j in range(N)]
    rank = certified_rank(_eliminate(columns, len(rows)), f)
    if rank != N:
        f.fail(
            "kernel condition fails at a unit point",
            {"condition": "non-degeneracy", "kernel_dim": N - rank},
        )


def check_precontact(
    gm: GroupoidModel,
    pd: PrecontactData,
    policy: SamplingPolicy,
    name: str = "precontact",
) -> CheckResult:
    """Multiplicativity of sigma, the twisted pullback identity for eta, and
    the four-kernel nondegeneracy condition at unit points."""
    if gm.total.dim != 2 * gm.base.dim + 1:
        return error_result(
            name,
            f"dim(G) = {gm.total.dim} but precontact needs 2 dim(M) + 1 = {2 * gm.base.dim + 1}",
        )
    if pd.eta.chart != gm.total:
        return error_result(name, "eta does not live on the total chart")

    f = Findings(name)
    mult = check_multiplicative_function(gm, pd.sigma, policy, name=f"{name}:sigma")
    f.mode = mult.mode  # a sampled sigma makes the whole check sampled
    if not mult.passed:
        f.fail("sigma is not multiplicative", mult.witness)
        return f.result()

    # (a) m* eta = pr1* eta + pr1*(e^sigma) pr2* eta, coefficient-wise on the locus
    twisted = pullback(gm.pair_right, pd.eta).scale(
        gm.pair_left.pull_expr(normalize(Exp(pd.sigma)))
    )
    diff = pullback(gm.multiplication, pd.eta) - pullback(gm.pair_left, pd.eta) - twisted
    rep = check_zero_all(
        diff.coefficients(), policy, coords=gm.pair_chart.coords, label=f"{name}:pullback"
    )
    f.zero(rep, "multiplicativity identity for eta fails", condition="eta-multiplicative")

    # (b) Ker(d eta) & Ker(eta) & Ker(d source) & Ker(d target) = 0 at units
    _unit_kernel(gm, f, exterior_derivative(pd.eta), pd.eta)
    return f.result()


def check_presymplectic(
    gm: GroupoidModel,
    pd: PresymplecticData,
    policy: SamplingPolicy,
    name: str = "presymplectic",
) -> CheckResult:
    """Closedness, multiplicativity, kernel nondegeneracy at units, and (when a
    field is supplied) homogeneity L_Z omega = omega."""
    if gm.total.dim != 2 * gm.base.dim:
        return error_result(
            name,
            f"dim(G) = {gm.total.dim} but presymplectic needs 2 dim(M) = {2 * gm.base.dim}",
        )
    if pd.omega.chart != gm.total:
        return error_result(name, "omega does not live on the total chart")

    f = Findings(name)
    closed = check_zero_all(
        exterior_derivative(pd.omega).coefficients(),
        policy,
        coords=gm.total.coords,
        label=f"{name}:closed",
    )
    f.zero(closed, "omega is not closed", condition="closed")

    diff = (
        pullback(gm.multiplication, pd.omega)
        - pullback(gm.pair_left, pd.omega)
        - pullback(gm.pair_right, pd.omega)
    )
    mult = check_zero_all(
        diff.coefficients(), policy, coords=gm.pair_chart.coords, label=f"{name}:mult"
    )
    f.zero(mult, "omega is not multiplicative", condition="multiplicative")

    _unit_kernel(gm, f, pd.omega)

    if pd.homogeneity_field is not None:
        hom = check_zero_all(
            (lie_derivative(pd.homogeneity_field, pd.omega) - pd.omega).coefficients(),
            policy,
            coords=gm.total.coords,
            label=f"{name}:homogeneous",
        )
        f.zero(hom, "omega is not homogeneous for the supplied field", condition="homogeneous")
    return f.result()


# --------------------------------------------------------------------------
# the action groupoid G x_sigma R
# --------------------------------------------------------------------------


def build_action_groupoid(
    gm: GroupoidModel,
    sigma: Expr,
    policy: SamplingPolicy,
    time: str = "t",
    fiber: str = "u",
) -> GroupoidModel:
    """The action groupoid over base x R twisted by a multiplicative sigma:

    source(g, u) = (source(g), sigma(g) + u), target(h, s) = (target(h), s),
    m((g, u), (h, s)) = (gh, u), unit(x, t) = (unit(x), t),
    inversion(g, u) = (inversion(g), sigma(g) + u).
    """
    sigma = normalize(as_expr(sigma))
    mult = check_multiplicative_function(gm, sigma, policy)
    if not mult.passed:
        raise GroupoidModelError("sigma is not multiplicative; no action groupoid exists")

    base2 = product_chart(gm.base, time)
    total2 = product_chart(gm.total, fiber)
    pair2 = product_chart(gm.pair_chart, fiber)
    u = coord(fiber)

    def extend(m: SmoothMap, new_source: Chart, new_target: Chart, last: Expr) -> SmoothMap:
        return SmoothMap(new_source, new_target, tuple(m.components) + (normalize(last),))

    source2 = extend(gm.source, total2, base2, sigma + u)
    target2 = extend(gm.target, total2, base2, u)
    unit2 = extend(gm.unit, base2, total2, coord(time))
    inversion2 = extend(gm.inversion, total2, total2, sigma + u)
    left2 = extend(gm.pair_left, pair2, total2, u)
    right2 = extend(gm.pair_right, pair2, total2, gm.pair_left.pull_expr(sigma) + u)
    mult2 = extend(gm.multiplication, pair2, total2, u)
    return GroupoidModel(
        total2, base2, source2, target2, unit2, inversion2, pair2, left2, right2, mult2
    )


# --------------------------------------------------------------------------
# eta <-> omega correspondence
# --------------------------------------------------------------------------


class HomogeneityError(ValueError):
    """omega_to_eta was fed a 2-form that is not homogeneous along the fiber."""


def eta_to_omega(pd: PrecontactData, fiber: str = "u") -> PresymplecticData:
    """omega = d(e^u eta) on total x R, homogeneous for d/du."""
    chart = product_chart(pd.eta.chart, fiber)
    lifted = DifferentialForm(chart, 1, {idx: v for idx, v in pd.eta.entries})
    omega = exterior_derivative(lifted.scale(normalize(Exp(coord(fiber)))))
    return PresymplecticData(omega, coordinate_field(chart, fiber))


def omega_to_eta(
    ps: PresymplecticData,
    sigma: Expr,
    policy: SamplingPolicy,
    fiber: str = "u",
) -> PrecontactData:
    """Recover eta = i_{d/du} omega, descended along the fiber coordinate.

    Requires L_{d/du} omega = omega (else HomogeneityError); the descended
    form e^{-u} i_{d/du} omega is checked to be fiber-independent before the
    fiber coordinate is stripped.
    """
    chart = ps.omega.chart
    if fiber not in chart.coords:
        raise ChartError(f"chart '{chart.name}' has no fiber coordinate '{fiber}'")
    Z = coordinate_field(chart, fiber)
    hom = check_zero_all(
        (lie_derivative(Z, ps.omega) - ps.omega).coefficients(),
        policy,
        coords=chart.coords,
        label="omega-to-eta:homogeneous",
    )
    if not hom.is_zero:
        raise HomogeneityError("omega is not homogeneous along the fiber coordinate")

    eta_hat = interior_product(Z, ps.omega)
    decay = normalize(as_expr(1) / normalize(Exp(coord(fiber))))
    eta0 = eta_hat.scale(decay)

    fiber_index = chart.index(fiber)
    du_coeff = eta0.coefficient((fiber_index,))
    residuals = [du_coeff] + [differentiate(v, fiber) for _, v in eta0.entries]
    rep = check_zero_all(residuals, policy, coords=chart.coords, label="omega-to-eta:descent")
    if not rep.is_zero:
        raise HomogeneityError("e^{-u} i_{d/du} omega does not descend along the fiber")

    base_coords = tuple(c for c in chart.coords if c != fiber)
    base = Chart(chart.name.removesuffix(f"x{fiber}") or "base", base_coords)
    table = {}
    for (i,), v in eta0.entries:
        if i == fiber_index:
            continue
        new_i = i if i < fiber_index else i - 1
        table[(new_i,)] = substitute(v, {fiber: ZERO})
    return PrecontactData(DifferentialForm(base, 1, table), normalize(as_expr(sigma)))


# --------------------------------------------------------------------------
# base-structure extraction
# --------------------------------------------------------------------------


def extract_LM(
    gm: GroupoidModel,
    pd: PrecontactData,
    policy: SamplingPolicy,
    expected: FrameSubbundle | None = None,
    name: str = "extract-base-structure",
) -> CheckResult:
    """Read the base E1 structure off precontact data: solve, over the total chart,

        target*(xi) = i_X d eta + F eta,   G = -eta(X),

    and map the solutions (X, F, xi, G) to ((d target) X, F, xi, G).  PASS iff
    the pushed fiber has rank dim M + 1 and spans what an expected frame's rows,
    pulled back along target, span; with no expected frame, what it spans itself
    at the unit over target(g), so that it is constant along each target fiber.
    """
    n, N = gm.base.dim, gm.total.dim
    h = 2 * n + 2
    deta = exterior_derivative(pd.eta)
    eta = [pd.eta.coefficient((j,)) for j in range(N)]
    Jt = [[differentiate(c, x) for x in gm.total.coords] for c in gm.target.components]
    # per unknown: its column of the system (rows j < N: the j-th component of
    # target*(xi) - i_X d eta - F eta; row N: G + eta(X)), and its push
    unknowns = [([normalize(-deta.coefficient((i, j))) for j in range(N)] + [eta[i]],
                 [Jt[a][i] for a in range(n)] + [ZERO] * (n + 2)) for i in range(N)]
    unknowns.append(([normalize(-v) for v in eta] + [ZERO], _unit(h, n)))
    unknowns += [(Jt[a] + [ZERO], _unit(h, n + 1 + a)) for a in range(n)]
    unknowns.append((_unit(N + 1, N), _unit(h, h - 1)))

    f = Findings(name)
    pushed = pushed_null_space(unknowns, N + 1, f)
    pushed_elim = _eliminate(pushed, h)
    rank = certified_rank(pushed_elim, f)
    if rank != n + 1:
        f.fail(f"extracted rank {rank} differs from dim M + 1 = {n + 1}", {"rank": rank})
        return f.result()
    if expected is None:
        through_unit = gm.unit.compose(gm.target)
        other = [[through_unit.pull_expr(v) for v in column] for column in pushed]
        ranks_differ = "extracted fiber has rank {} here and {} at the unit"
        leaves = "generator {} of the extracted fiber varies along the target fiber"
    else:
        other = [[gm.target.pull_expr(v) for v in g.rows()] for g in expected.generators]
        ranks_differ = "extracted fiber has rank {}, the expected structure {}"
        leaves = "extracted fiber differs from the expected structure"
    compare_spans(f, pushed, pushed_elim, _eliminate(other, h), policy, gm.total.coords, name,
                  ranks_differ, leaves)
    return f.result()


# --------------------------------------------------------------------------
# conformal equivalence of precontact data
# --------------------------------------------------------------------------


def equivalence_transform(
    pd: PrecontactData, factor: ConformalFactor, gm: GroupoidModel
) -> PrecontactData:
    """eta' = (phi o target) eta,  sigma' = sigma + ln((phi o target)/(phi o source)).

    The conformal factor composes with the map whose fibers the base
    extraction uses (the target); under the composability convention
    m(g, h) for source(g) = target(h) this is the orientation that keeps the
    twisted pullback identity and makes the transform commute with
    extract_LM through conformal_change.  phi has constant sign on the box
    (it is nowhere vanishing), so the ratio inside the logarithm is positive
    and no absolute value is needed.
    """
    if factor.chart != gm.base:
        raise ChartError("conformal factor must live on the base chart")
    phi_t = gm.target.pull_expr(factor.phi)
    phi_s = gm.source.pull_expr(factor.phi)
    eta2 = pd.eta.scale(phi_t)
    sigma2 = pd.sigma + normalize(Ln(Quotient(phi_t, phi_s)))
    return PrecontactData(eta2, sigma2)


def check_contact_form(
    eta: DifferentialForm, policy: SamplingPolicy, name: str = "contact-nondegenerate"
) -> CheckResult:
    """eta ^ (d eta)^k has a nowhere-vanishing top coefficient: certified, or sampled."""
    chart = eta.chart
    if chart.dim % 2 == 0:
        return error_result(name, "contact forms need an odd-dimensional chart")
    k = (chart.dim - 1) // 2
    vol = eta
    deta = exterior_derivative(eta)
    for _ in range(k):
        vol = wedge(vol, deta)
    top = vol.coefficient(tuple(range(chart.dim)))
    f = Findings(name)
    if is_structurally_zero(top):
        f.fail("volume form vanishes identically")
        return f.result()
    if is_nonvanishing(top):
        return f.result()
    for p in policy.float_points(chart.coords, f"{name}:points"):
        v = float(evaluate(top, p))
        f.residual(v)
        if abs(v) <= policy.tol:
            f.fail(witness={"point": p, "value": v})
            break
    return f.result(mode="sampled")


# --------------------------------------------------------------------------
# model builders
# --------------------------------------------------------------------------


def _suffixed(chart: Chart, suffix: str) -> tuple[str, ...]:
    return tuple(f"{c}{suffix}" for c in chart.coords)


def pair_groupoid(M: Chart) -> GroupoidModel:
    """The pair groupoid M x M: source(x, y) = y, target(x, y) = x,
    m((x, y), (y, z)) = (x, z)."""
    c1, c2, c3 = (_suffixed(M, s) for s in ("1", "2", "3"))
    G = Chart(f"{M.name}_pair", c1 + c2)
    P = Chart(f"{M.name}_pair_comp", c1 + c2 + c3)
    e = lambda names: tuple(coord(n) for n in names)
    return GroupoidModel(
        total=G,
        base=M,
        source=SmoothMap(G, M, e(c2)),
        target=SmoothMap(G, M, e(c1)),
        unit=SmoothMap(M, G, e(M.coords) + e(M.coords)),
        inversion=SmoothMap(G, G, e(c2) + e(c1)),
        pair_chart=P,
        pair_left=SmoothMap(P, G, e(c1) + e(c2)),
        pair_right=SmoothMap(P, G, e(c2) + e(c3)),
        multiplication=SmoothMap(P, G, e(c1) + e(c3)),
    )


def pair_groupoid_with_line(M: Chart, time: str = "t") -> GroupoidModel:
    """The product of the pair groupoid with (R, +):

    G = M x M x R, source(x, y, t) = y, target(x, y, t) = x,
    m((x, y, t), (y, z, s)) = (x, z, t + s), unit(x) = (x, x, 0),
    inversion(x, y, t) = (y, x, -t).
    """
    c1, c2, c3 = (_suffixed(M, s) for s in ("1", "2", "3"))
    second = f"{time}s" if f"{time}s" not in c1 + c2 + c3 + (time,) else f"{time}ss"
    G = Chart(f"{M.name}_pairline", c1 + c2 + (time,))
    P = Chart(f"{M.name}_pairline_comp", c1 + c2 + c3 + (time, second))
    e = lambda names: tuple(coord(n) for n in names)
    t, s = coord(time), coord(second)
    return GroupoidModel(
        total=G,
        base=M,
        source=SmoothMap(G, M, e(c2)),
        target=SmoothMap(G, M, e(c1)),
        unit=SmoothMap(M, G, e(M.coords) + e(M.coords) + (ZERO,)),
        inversion=SmoothMap(G, G, e(c2) + e(c1) + (normalize(as_expr(-1) * t),)),
        pair_chart=P,
        pair_left=SmoothMap(P, G, e(c1) + e(c2) + (t,)),
        pair_right=SmoothMap(P, G, e(c2) + e(c3) + (s,)),
        multiplication=SmoothMap(P, G, e(c1) + e(c3) + (t + s,)),
    )


def eta_from_precontact_form(
    gm: GroupoidModel, theta: DifferentialForm, time: str = "t"
) -> PrecontactData:
    """The 1-form pi_1* theta - e^sigma pi_2* theta with sigma the time slot.

    Built against the pair_groupoid_with_line model: pi_1 is the target-copy
    projection and pi_2 the source-copy projection.
    """
    if theta.chart != gm.base:
        raise ChartError("theta must live on the base chart")
    sigma = coord(time)
    eta = pullback(gm.target, theta) - pullback(gm.source, theta).scale(normalize(Exp(sigma)))
    return PrecontactData(eta, sigma)

"""Candidate structures as global frames of sections, and their verification.

A FrameSubbundle is an ordered list of sections spanning a candidate
Dirac (inside TM + T*M) or Dirac-Jacobi (inside E1(M)) structure.  The two
defining axioms are decided by a mix of structural normalization and
deterministic randomized sampling:

* maximal isotropy: every pairwise pairing of generators vanishes, and the
  generator span has full expected rank (n over TM + T*M, n+1 over E1) at
  every sampled point;
* involutivity: the (extended) Courant bracket of every generator pair lies
  in the generator span at every sampled point, by least-squares residual.

The construction catalogue covers structures induced by a 1-form, by a
bivector/vector-field pair, by lifting a Dirac structure into E1, graphs of
2-forms and bivectors, conformal changes, and the associated homogeneous
Dirac structure on M x R.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .chart_tensor import (
    Chart,
    ChartError,
    DifferentialForm,
    Multivector,
    SmoothMap,
    VectorField,
    coordinate_field,
    coordinate_form,
    differential,
    exterior_derivative,
    interior_product,
    product_chart,
    sharp,
)
from .courant import (
    SectionE1,
    SectionTM,
    courant_bracket,
    extended_courant_bracket,
    pairing_e1,
    pairing_tm,
)
from .linalg import (
    DEFAULT_RTOL,
    matrix_rank,
    membership_residual,
    null_space,
    orthonormal_columns,
    spans_equal,
)
from .report import CheckResult, ResidualStats, error_result, passfail
from .symcalc import (
    Expr,
    Exp,
    ZERO,
    ONE,
    SamplingPolicy,
    ZeroVerdict,
    as_expr,
    check_zero_all,
    coord,
    is_structurally_zero,
    normalize,
)

MEMBERSHIP_RTOL = 1e-7  # least-squares residual bound, scaled by 1 + |value|


class Ambient(enum.Enum):
    TM_TSTAR = "TM+T*M"
    E1 = "E1(M)"


Section = SectionTM | SectionE1


@dataclass(frozen=True)
class FrameSubbundle:
    """Globally framed candidate structure with a declared rank."""

    ambient: Ambient
    chart: Chart
    generators: tuple[Section, ...]
    rank: int

    def __post_init__(self):
        want = SectionTM if self.ambient is Ambient.TM_TSTAR else SectionE1
        for g in self.generators:
            if not isinstance(g, want):
                raise ChartError(f"generator {g!r} does not live in {self.ambient.value}")
            if g.chart != self.chart:
                raise ChartError("generator chart differs from the frame chart")
        if len(self.generators) < self.rank:
            raise ChartError("fewer generators than the declared rank")

    @property
    def fiber_dim(self) -> int:
        n = self.chart.dim
        return 2 * n if self.ambient is Ambient.TM_TSTAR else 2 * n + 2

    @property
    def expected_rank(self) -> int:
        """Rank of a maximally isotropic subbundle in this ambient."""
        n = self.chart.dim
        return n if self.ambient is Ambient.TM_TSTAR else n + 1

    def fiber_matrix_at(self, point: Mapping[str, float]) -> np.ndarray:
        cols = [g.at(point) for g in self.generators]
        return np.column_stack(cols) if cols else np.zeros((self.fiber_dim, 0))

    def pairing(self, i: int, j: int) -> Expr:
        a, b = self.generators[i], self.generators[j]
        if self.ambient is Ambient.TM_TSTAR:
            return pairing_tm(a, b)
        return pairing_e1(a, b)

    def bracket(self, i: int, j: int) -> Section:
        a, b = self.generators[i], self.generators[j]
        if self.ambient is Ambient.TM_TSTAR:
            return courant_bracket(a, b)
        return extended_courant_bracket(a, b)


@dataclass(frozen=True)
class ConformalFactor:
    """A nowhere-vanishing function phi with its logarithmic differential.

    mu = d phi / phi equals d ln|phi| wherever phi is defined, with no need
    for an absolute value in the symbolic representation.
    """

    phi: Expr
    chart: Chart

    def __post_init__(self):
        object.__setattr__(self, "phi", normalize(as_expr(self.phi)))
        if is_structurally_zero(self.phi):
            raise ChartError("conformal factor must be nowhere vanishing")

    @property
    def mu(self) -> DifferentialForm:
        return differential(self.chart, self.phi).scale(ONE / self.phi)

    def inverse(self) -> "ConformalFactor":
        return ConformalFactor(ONE / self.phi, self.chart)


# --------------------------------------------------------------------------
# constructions
# --------------------------------------------------------------------------


def construct_L_theta(theta: DifferentialForm) -> FrameSubbundle:
    """Structure induced by a 1-form: sections (X, f) + (i_X dtheta + f theta, -i_X theta).

    Generators: one per coordinate field (f = 0) plus the (X, f) = (0, 1) one.
    """
    if theta.degree != 1:
        raise ChartError("construct_L_theta needs a 1-form")
    chart = theta.chart
    dtheta = exterior_derivative(theta)
    gens: list[SectionE1] = []
    for name in chart.coords:
        X = coordinate_field(chart, name)
        gens.append(
            SectionE1(
                X,
                ZERO,
                interior_product(X, dtheta),
                normalize(as_expr(-1) * interior_product(X, theta).scalar()),
            )
        )
    gens.append(SectionE1(VectorField.zero(chart), ONE, theta, ZERO))
    return FrameSubbundle(Ambient.E1, chart, tuple(gens), chart.dim + 1)


def construct_L_jacobi(Lam: Multivector, E: VectorField) -> FrameSubbundle:
    """Structure of a bivector/vector pair: (Lam#(a) + l E, -a(E)) + (a, l)."""
    if Lam.degree != 2:
        raise ChartError("construct_L_jacobi needs a bivector")
    if Lam.chart != E.chart:
        raise ChartError("bivector and vector field live on different charts")
    chart = Lam.chart
    gens: list[SectionE1] = []
    for name in chart.coords:
        alpha = coordinate_form(chart, name)
        gens.append(
            SectionE1(
                sharp(Lam, alpha),
                normalize(as_expr(-1) * interior_product(E, alpha).scalar()),
                alpha,
                ZERO,
            )
        )
    gens.append(SectionE1(E, ZERO, DifferentialForm.zero(chart, 1), ONE))
    return FrameSubbundle(Ambient.E1, chart, tuple(gens), chart.dim + 1)


def graph_of_two_form(omega: DifferentialForm) -> FrameSubbundle:
    """Dirac structure {X + i_X omega}."""
    if omega.degree != 2:
        raise ChartError("graph_of_two_form needs a 2-form")
    chart = omega.chart
    gens = []
    for name in chart.coords:
        X = coordinate_field(chart, name)
        gens.append(SectionTM(X, interior_product(X, omega)))
    return FrameSubbundle(Ambient.TM_TSTAR, chart, tuple(gens), chart.dim)


def graph_of_bivector(Pi: Multivector) -> FrameSubbundle:
    """Dirac structure {Pi#(a) + a}."""
    if Pi.degree != 2:
        raise ChartError("graph_of_bivector needs a bivector")
    chart = Pi.chart
    gens = []
    for name in chart.coords:
        alpha = coordinate_form(chart, name)
        gens.append(SectionTM(sharp(Pi, alpha), alpha))
    return FrameSubbundle(Ambient.TM_TSTAR, chart, tuple(gens), chart.dim)


def lift_dirac(L0: FrameSubbundle) -> FrameSubbundle:
    """Lift a TM+T*M frame into E1: (X + a) -> (X, 0) + (a, 0), plus (0,0)+(0,1)."""
    if L0.ambient is not Ambient.TM_TSTAR:
        raise ChartError("lift_dirac expects a TM+T*M frame")
    chart = L0.chart
    gens = [SectionE1(g.X, ZERO, g.xi, ZERO) for g in L0.generators]
    gens.append(SectionE1(VectorField.zero(chart), ZERO, DifferentialForm.zero(chart, 1), ONE))
    return FrameSubbundle(Ambient.E1, chart, tuple(gens), L0.rank + 1)


def construct_two_form_pair(omega: DifferentialForm, mu: DifferentialForm) -> FrameSubbundle:
    """E1 structure of a (2-form, closed-1-form) pair: (X, -mu(X)) + (i_X omega + g mu, g)."""
    if omega.degree != 2 or mu.degree != 1:
        raise ChartError("construct_two_form_pair needs a 2-form and a 1-form")
    if omega.chart != mu.chart:
        raise ChartError("the two forms live on different charts")
    chart = omega.chart
    gens: list[SectionE1] = []
    for name in chart.coords:
        X = coordinate_field(chart, name)
        gens.append(
            SectionE1(
                X,
                normalize(as_expr(-1) * interior_product(X, mu).scalar()),
                interior_product(X, omega),
                ZERO,
            )
        )
    gens.append(SectionE1(VectorField.zero(chart), ZERO, mu, ONE))
    return FrameSubbundle(Ambient.E1, chart, tuple(gens), chart.dim + 1)


def conformal_change(L: FrameSubbundle, factor: ConformalFactor) -> FrameSubbundle:
    """Generator-wise conformal transform (X, f) + (xi, g) -> (X, f - mu(X)) + phi(xi + g mu, g)."""
    if L.ambient is not Ambient.E1:
        raise ChartError("conformal_change expects an E1 frame")
    if factor.chart != L.chart:
        raise ChartError("conformal factor lives on a different chart")
    phi, mu = factor.phi, factor.mu
    gens = []
    for s in L.generators:
        mu_X = interior_product(s.X, mu).scalar()
        gens.append(
            SectionE1(
                s.X,
                s.f - mu_X,
                (s.xi + mu.scale(s.g)).scale(phi),
                phi * s.g,
            )
        )
    return FrameSubbundle(Ambient.E1, L.chart, tuple(gens), L.rank)


def induced_dirac_on_MxR(L: FrameSubbundle, time: str = "t") -> FrameSubbundle:
    """The homogeneous Dirac structure on M x R attached to an E1 frame.

    Each generator (X, f) + (xi, g) becomes (X + f d/dt) + e^t (xi + g dt).
    """
    if L.ambient is not Ambient.E1:
        raise ChartError("induced_dirac_on_MxR expects an E1 frame")
    chart = product_chart(L.chart, time)
    t_index = chart.index(time)
    et = normalize(Exp(coord(time)))
    gens = []
    for s in L.generators:
        # base coordinates keep their indices; t is appended last
        form_table: dict[tuple[int, ...], Expr] = {idx: v for idx, v in s.xi.entries}
        form_table[(t_index,)] = s.g
        X = VectorField(chart, tuple(s.X.components) + (s.f,))
        xi = DifferentialForm(chart, 1, form_table).scale(et)
        gens.append(SectionTM(X, xi))
    return FrameSubbundle(Ambient.TM_TSTAR, chart, tuple(gens), chart.dim)


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------


def _sample_points(L: FrameSubbundle, policy: SamplingPolicy, label: str):
    return policy.float_points(L.chart.coords, label)


def check_maximal_isotropy(
    L: FrameSubbundle, policy: SamplingPolicy, name: str = "maximal-isotropy"
) -> CheckResult:
    """All pairwise pairings vanish and the span has full expected rank."""
    details: list[str] = []
    stats = ResidualStats()
    witness = None
    ok = True
    mode = "symbolic"

    if L.rank != L.expected_rank:
        ok = False
        details.append(
            f"declared rank {L.rank} differs from maximal-isotropic rank {L.expected_rank}"
        )

    for i in range(len(L.generators)):
        for j in range(i, len(L.generators)):
            rep = check_zero_all(
                [L.pairing(i, j)], policy, coords=L.chart.coords, label=f"{name}:pair:{i},{j}"
            )
            stats.add(rep.max_abs)
            if rep.verdict is not ZeroVerdict.ZERO:
                mode = "sampled"
            if not rep.is_zero:
                ok = False
                details.append(f"pairing of generators ({i}, {j}) is nonzero")
                if witness is None:
                    witness = {"pair": [i, j], "point": rep.witness_point, "value": rep.witness_value}

    deficient = []
    for point in _sample_points(L, policy, f"{name}:rank"):
        r = matrix_rank(L.fiber_matrix_at(point), DEFAULT_RTOL)
        if r != L.expected_rank:
            deficient.append((point, r))
    if deficient:
        ok = False
        point, r = deficient[0]
        details.append(
            f"rank {r} instead of {L.expected_rank} at {len(deficient)} sampled point(s)"
        )
        if witness is None:
            witness = {"point": point, "rank": r}

    return passfail(name, ok, mode=mode, stats=stats, details=tuple(details), witness=witness)


def check_involutivity(
    L: FrameSubbundle, policy: SamplingPolicy, name: str = "involutivity"
) -> CheckResult:
    """Every generator bracket stays in the generator span at sampled points."""
    points = _sample_points(L, policy, f"{name}:points")
    for point in points:
        if matrix_rank(L.fiber_matrix_at(point), DEFAULT_RTOL) != L.expected_rank:
            return error_result(
                name,
                f"frame is rank-deficient at a sampled point; involutivity needs a clean frame",
                witness={"point": point},
            )

    stats = ResidualStats()
    worst = (None, None, -1.0)  # (pair, point, residual)
    ok = True
    details: list[str] = []
    for i in range(len(L.generators)):
        for j in range(i + 1, len(L.generators)):
            value = L.bracket(i, j)
            if isinstance(value, SectionTM) and value.is_structurally_zero():
                continue
            if isinstance(value, SectionE1) and value.is_structurally_zero():
                continue
            pair_ok = True
            for point in points:
                B = L.fiber_matrix_at(point)
                v = value.at(point)
                resid = membership_residual(B, v)
                stats.add(resid)
                if resid > worst[2]:
                    worst = ((i, j), point, resid)
                if resid > MEMBERSHIP_RTOL:
                    pair_ok = False
            if not pair_ok:
                ok = False
                details.append(f"bracket of generators ({i}, {j}) leaves the span")
    witness = None
    if worst[0] is not None:
        witness = {"pair": list(worst[0]), "point": worst[1], "residual": worst[2]}
    return passfail(name, ok, mode="sampled", stats=stats, details=tuple(details), witness=witness)


def check_structures_equal(
    A: FrameSubbundle,
    B: FrameSubbundle,
    policy: SamplingPolicy,
    name: str = "structure-equal",
) -> CheckResult:
    """Pointwise subspace equality of two frames over charts with equal coordinates."""
    if A.ambient is not B.ambient:
        return error_result(name, "frames live in different ambient bundles")
    if A.chart.coords != B.chart.coords:
        return error_result(
            name,
            f"charts have different coordinates: {A.chart.coords} vs {B.chart.coords}",
        )
    ok = True
    witness = None
    for point in policy.float_points(A.chart.coords, f"{name}:points"):
        if not spans_equal(A.fiber_matrix_at(point), B.fiber_matrix_at(point), DEFAULT_RTOL):
            ok = False
            witness = {"point": point}
            break
    return passfail(name, ok, mode="sampled", witness=witness)


def _flip_form_rows(M: np.ndarray, ambient: Ambient, n: int) -> np.ndarray:
    out = M.copy()
    if ambient is Ambient.TM_TSTAR:
        out[n:, :] *= -1.0
    else:
        out[n + 1 :, :] *= -1.0
    return out


def check_forward_map(
    F: SmoothMap,
    L_src: FrameSubbundle,
    L_dst: FrameSubbundle,
    policy: SamplingPolicy,
    anti: bool = False,
    name: str = "forward-map",
) -> CheckResult:
    """Decide whether F pushes L_src onto L_dst fiberwise.

    At each sampled source point p the pushforward fiber is assembled by
    linear algebra: all (X, f, xi, g) with (X, f) + (F* xi, g) in L_src|_p,
    with X then pushed through the Jacobian.  With anti=True the target is
    compared with its form half negated.
    """
    if L_src.ambient is not L_dst.ambient:
        return error_result(name, "source and target frames live in different ambients")
    if F.source != L_src.chart:
        return error_result(name, "map source chart differs from the source frame chart")
    if F.target != L_dst.chart:
        return error_result(name, "map target chart differs from the target frame chart")

    m, n = F.source.dim, F.target.dim
    e1 = L_src.ambient is Ambient.E1
    ok = True
    witness = None
    details: list[str] = []
    for p in policy.float_points(F.source.coords, f"{name}:points"):
        q = F.evaluate(p)
        J = F.jacobian_at(p)
        B = L_src.fiber_matrix_at(p)
        Q = orthonormal_columns(B, DEFAULT_RTOL)
        perp = np.eye(B.shape[0]) - Q @ Q.T

        if e1:
            E = np.zeros((2 * m + 2, m + n + 2))
            E[:m, :m] = np.eye(m)
            E[m, m] = 1.0
            E[m + 1 : 2 * m + 1, m + 1 : m + 1 + n] = J.T
            E[2 * m + 1, m + 1 + n] = 1.0
            D = np.zeros((2 * n + 2, m + n + 2))
            D[:n, :m] = J
            D[n, m] = 1.0
            D[n + 1 : 2 * n + 1, m + 1 : m + 1 + n] = np.eye(n)
            D[2 * n + 1, m + 1 + n] = 1.0
        else:
            E = np.zeros((2 * m, m + n))
            E[:m, :m] = np.eye(m)
            E[m:, m:] = J.T
            D = np.zeros((2 * n, m + n))
            D[:n, :m] = J
            D[n:, m:] = np.eye(n)

        sols = null_space(perp @ E, DEFAULT_RTOL)
        pushed = D @ sols
        target = L_dst.fiber_matrix_at(q)
        if anti:
            target = _flip_form_rows(target, L_dst.ambient, n)
        expected = L_dst.expected_rank
        got = matrix_rank(pushed, DEFAULT_RTOL)
        if got != expected and not details:
            details.append(f"pushforward fiber has rank {got}, expected {expected}")
        if not spans_equal(pushed, target, DEFAULT_RTOL):
            ok = False
            witness = {"point": p, "image": q, "pushforward_rank": got}
            break
    return passfail(name, ok, mode="sampled", details=tuple(details), witness=witness)

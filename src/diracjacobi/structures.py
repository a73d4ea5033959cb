"""Candidate structures as global frames of sections, and their verification.

A FrameSubbundle is an ordered list of sections spanning a candidate
Dirac (inside TM + T*M) or Dirac-Jacobi (inside E1(M)) structure.  The two
defining axioms are decided by a mix of structural normalization and
deterministic randomized sampling:

* maximal isotropy: every pairwise pairing of generators vanishes, and the
  generator span has full expected rank (n over TM + T*M, n+1 over E1).  The
  rank is the pivot count of one exact elimination of the generator matrix,
  kept on the frame; it holds at every point when every pivot is certified
  nonvanishing, and off the zero set of the uncertified pivots otherwise;
* involutivity: the (extended) Courant bracket of every generator pair lies
  in the generator span.  FrameSubbundle.expand replays the elimination's row
  operations on the section; the rows it leaves over vanish exactly when the
  section lies in the span, and they are zero-tested like any other identity.
  Each generator bracket and its expansion are computed once per frame.

A forward map is decided the same way: the pushforward fiber is the null space
of one symbolic linear system, read off one elimination, and it is compared
with the target frame by ranks and leftover rows.

The construction catalogue covers structures induced by a 1-form, by a
bivector/vector-field pair, by lifting a Dirac structure into E1, graphs of
2-forms and bivectors, conformal changes, and the associated homogeneous
Dirac structure on M x R.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .chart_tensor import (
    Chart,
    ChartError,
    DifferentialForm,
    Multivector,
    SmoothMap,
    VectorField,
    _signed,
    _total,
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
from .report import CheckResult, Findings, error_result
from .symcalc import (
    Constant,
    Expr,
    Exp,
    ZERO,
    ONE,
    Quotient,
    SamplingExhaustedError,
    SamplingPolicy,
    ZeroVerdict,
    as_expr,
    check_zero_all,
    coord,
    differentiate,
    is_nonvanishing,
    is_structurally_zero,
    normalize,
)


class FrameExpansionError(ChartError):
    """A section could not be expanded symbolically in the frame."""


class Ambient(enum.Enum):
    TM_TSTAR = "TM+T*M"
    E1 = "E1(M)"


Section = SectionTM | SectionE1


class Expansion(NamedTuple):
    """Frame coefficients of a section; it lies in the span iff every leftover row vanishes."""

    coefficients: tuple[Expr, ...]
    leftover: tuple[Expr, ...]
    rank: int  # pivot count: the rank of the frame wherever no pivot vanishes


class Elimination(NamedTuple):
    """A frame's generator matrix, eliminated once.  Each step divides its pivot
    row by the pivot, then subtracts factor times that row from each listed
    row; replayed on a section's column, the steps expand the section."""

    pivots: dict[int, int]  # column -> pivot row
    steps: tuple[tuple[int, Expr, tuple[tuple[int, Expr], ...]], ...]  # (row, pivot, ops)
    free_rows: tuple[int, ...]  # rows without a pivot


def _replay(step, rows: list[list[Expr]]) -> None:
    pr, pivot, ops = step
    if pivot != ONE:
        rows[pr] = [normalize(Quotient(v, pivot)) for v in rows[pr]]
    for r, factor in ops:
        rows[r] = [v if is_structurally_zero(p) else _total([v, _signed(-1, factor, p)])
                   for v, p in zip(rows[r], rows[pr])]


def _sampled_nonzero(e: Expr) -> bool:
    """Whether a zero test under the default policy finds ``e`` nonzero.  For a
    rational ``e`` normalization decides it; points decide a transcendental one."""
    try:
        return check_zero_all([e], SamplingPolicy(), label="pivot").verdict is ZeroVerdict.NONZERO
    except SamplingExhaustedError:
        return False


_PIVOT_RULE = (lambda e: isinstance(e, Constant), is_nonvanishing, _sampled_nonzero)


def _eliminate(columns: list[list[Expr]], height: int) -> Elimination:
    """Gauss-Jordan elimination, column by column.  A pivot is proven nonzero: a
    constant when the column has one, else a certified nonvanishing entry, else
    the first entry a zero test shows nonzero; a column with none left gets no pivot."""
    rows = [[c[r] for c in columns] for r in range(height)]
    pivots, steps = {}, []
    for col in range(len(columns)):
        nonzero = [r for r in range(height) if not is_structurally_zero(rows[r][col])]
        free = [r for r in nonzero if r not in pivots.values()]
        pr = next((r for ok in _PIVOT_RULE for r in free if ok(rows[r][col])), None)
        if pr is not None:
            pivots[col] = pr
            steps.append((pr, rows[pr][col], tuple((r, rows[r][col]) for r in nonzero if r != pr)))
            _replay(steps[-1], rows)
    free_rows = tuple(r for r in range(height) if r not in pivots.values())
    return Elimination(pivots, tuple(steps), free_rows)


def certified_rank(elim: Elimination, f: Findings) -> int:
    """The pivot count of ``elim``.  It is the rank at every point when every pivot
    is certified nonvanishing; else it holds off the pivots' zero set, and ``f``
    names the first uncertified pivot and turns sampled."""
    uncertified = next((p for _, p, _ in elim.steps if not is_nonvanishing(p)), None)
    if uncertified is not None:
        f.mode = "sampled"
        f.note(f"rank sampled: pivot {uncertified} is not certified nonvanishing")
    return len(elim.pivots)


def _unit(height: int, r: int) -> list[Expr]:
    return [ONE if k == r else ZERO for k in range(height)]


def _reduce(elim: Elimination, column: Sequence[Expr]) -> list[Expr]:
    """``column`` with the elimination's steps replayed on it."""
    rows = [[v] for v in column]
    for step in elim.steps:
        _replay(step, rows)
    return [r[0] for r in rows]


def leftover(elim: Elimination, column: Sequence[Expr]) -> tuple[Expr, ...]:
    """The rows ``column`` leaves over in ``elim``: all zero iff it lies in the span."""
    reduced = _reduce(elim, column)
    return tuple(reduced[r] for r in elim.free_rows)


def pushed_null_space(
    unknowns: Sequence[tuple[Sequence[Expr], Sequence[Expr]]], height: int, f: Findings
) -> list[list[Expr]]:
    """Solve a linear system given per unknown as (its column, its push): a null-space
    basis read off one elimination of the columns, one relation v per column without
    a pivot (that column less its expansion in the pivot columns), each sent to
    sum_k v_k push_k.  ``f`` notes an uncertified pivot."""
    elim = _eliminate([column for column, _ in unknowns], height)
    certified_rank(elim, f)
    pushed = []
    for j, (column, push) in enumerate(unknowns):
        if j not in elim.pivots:
            reduced, terms = _reduce(elim, column), [[v] for v in push]
            for k, r in elim.pivots.items():
                if not is_structurally_zero(reduced[r]):
                    for row, v in enumerate(unknowns[k][1]):
                        if not is_structurally_zero(v):
                            terms[row].append(_signed(-1, reduced[r], v))
            pushed.append([_total(t) for t in terms])
    return pushed


def compare_spans(f: Findings, a: Sequence[Sequence[Expr]], a_elim: Elimination,
                  b_elim: Elimination, policy: SamplingPolicy, coords: Sequence[str],
                  label: str, ranks_differ: str, leaves: str) -> None:
    """Record in ``f`` whether the columns ``a`` span what the eliminated ``b`` spans:
    the two certified ranks agree, and each column of ``a`` leaves zero rows in ``b``.
    A FAIL reads ``ranks_differ.format(rank_a, rank_b)`` or ``leaves.format(i)``."""
    ranks = certified_rank(a_elim, f), certified_rank(b_elim, f)
    if ranks[0] != ranks[1]:
        f.fail(ranks_differ.format(*ranks), {"ranks": list(ranks)})
        return
    for i, column in enumerate(a):
        rep = check_zero_all(leftover(b_elim, column), policy, coords, f"{label}:{i}")
        f.zero(rep, leaves.format(i), generator=i)


def _once_per_frame(method):
    """Keep a method's results on the frame, so that none outlives the frame."""
    @wraps(method)
    def cached(self, *args):
        memo = self.__dict__.setdefault(method.__name__ + "_memo", {})
        if args not in memo:
            memo[args] = method(self, *args)
        return memo[args]
    return cached


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
        tm = self.ambient is Ambient.TM_TSTAR
        return (pairing_tm if tm else pairing_e1)(self.generators[i], self.generators[j])

    @_once_per_frame
    def bracket(self, i: int, j: int) -> Section:
        tm = self.ambient is Ambient.TM_TSTAR
        return (courant_bracket if tm else extended_courant_bracket)(
            self.generators[i], self.generators[j])

    @_once_per_frame
    def bracket_expansion(self, i: int, j: int) -> Expansion:
        """expand(bracket(i, j)); the pivot rule samples under SamplingPolicy(), so it is
        the same under every policy.  The E1 bracket is skew: there (j, i) is (i, j)
        negated, with no second bracket, and (i, i) is zero."""
        if self.ambient is Ambient.E1 and i > j:
            coefficients, rest, rank = self.bracket_expansion(j, i)
            return Expansion(tuple(-v for v in coefficients), tuple(-v for v in rest), rank)
        if self.ambient is Ambient.E1 and i == j:
            return self.expand(SectionE1.zero(self.chart))
        return self.expand(self.bracket(i, j))

    @cached_property
    def elimination(self) -> Elimination:
        """The generator matrix eliminated once; every rank and expansion reads it."""
        return _eliminate([g.rows() for g in self.generators], self.fiber_dim)

    def expand(self, s: Section) -> Expansion:
        """Solve sum_k c_k e_k = s for expressions c_k: the elimination replayed on s."""
        elim = self.elimination
        reduced = _reduce(elim, s.rows())
        coefficients = (reduced[elim.pivots[c]] if c in elim.pivots else ZERO
                        for c in range(len(self.generators)))
        return Expansion(tuple(coefficients), tuple(reduced[r] for r in elim.free_rows),
                         len(elim.pivots))


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
        g = normalize(as_expr(-1) * interior_product(X, theta).scalar())
        gens.append(SectionE1(X, ZERO, interior_product(X, dtheta), g))
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
        f = normalize(as_expr(-1) * interior_product(E, alpha).scalar())
        gens.append(SectionE1(sharp(Lam, alpha), f, alpha, ZERO))
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
        f = normalize(as_expr(-1) * interior_product(X, mu).scalar())
        gens.append(SectionE1(X, f, interior_product(X, omega), ZERO))
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
        gens.append(SectionE1(s.X, s.f - mu_X, (s.xi + mu.scale(s.g)).scale(phi), phi * s.g))
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


def check_maximal_isotropy(
    L: FrameSubbundle, policy: SamplingPolicy, name: str = "maximal-isotropy"
) -> CheckResult:
    """All pairwise pairings vanish and the span has full expected rank."""
    f = Findings(name)
    if L.rank != L.expected_rank:
        f.fail(f"declared rank {L.rank} differs from maximal-isotropic rank {L.expected_rank}")

    for i in range(len(L.generators)):
        for j in range(i, len(L.generators)):
            rep = check_zero_all(
                [L.pairing(i, j)], policy, coords=L.chart.coords, label=f"{name}:pair:{i},{j}"
            )
            f.zero(rep, f"pairing of generators ({i}, {j}) is nonzero", pair=[i, j])

    rank = certified_rank(L.elimination, f)
    if rank != L.expected_rank:
        f.fail(f"rank {rank} instead of {L.expected_rank}", {"rank": rank})
    return f.result()


def check_involutivity(
    L: FrameSubbundle, policy: SamplingPolicy, name: str = "involutivity"
) -> CheckResult:
    """Every generator bracket lies in the generator span: the rows its frame
    expansion leaves over are zero-tested.  An uncertified pivot makes only a PASS
    sampled: a nonzero leftover row fails off the pivots' zero set, an open set."""
    f = Findings(name)
    rank = certified_rank(L.elimination, f)
    if rank != L.expected_rank:
        return error_result(
            name, f"frame is rank-deficient: rank {rank} instead of {L.expected_rank}"
        )
    rank_mode, f.mode = f.mode, "symbolic"
    for i in range(len(L.generators)):
        for j in range(i + 1, len(L.generators)):
            if L.bracket(i, j).is_structurally_zero():
                continue
            rep = check_zero_all(L.bracket_expansion(i, j).leftover, policy,
                                 coords=L.chart.coords, label=f"{name}:{i},{j}")
            f.zero(rep, f"bracket of generators ({i}, {j}) leaves the span", pair=[i, j])
    return f.result("sampled" if f.ok and rank_mode == "sampled" else None)


def check_structures_equal(
    A: FrameSubbundle,
    B: FrameSubbundle,
    policy: SamplingPolicy,
    name: str = "structure-equal",
) -> CheckResult:
    """Subspace equality of two frames over charts with equal coordinates: equal
    ranks, and every generator of A expands in B with leftover rows zero."""
    if A.ambient is not B.ambient:
        return error_result(name, "frames live in different ambient bundles")
    if A.chart.coords != B.chart.coords:
        return error_result(
            name,
            f"charts have different coordinates: {A.chart.coords} vs {B.chart.coords}",
        )
    f = Findings(name)
    compare_spans(f, [g.rows() for g in A.generators], A.elimination, B.elimination, policy,
                  A.chart.coords, name, "ranks differ: {} against {}",
                  "generator {} of the first frame leaves the span of the second")
    return f.result()


def check_forward_map(
    F: SmoothMap,
    L_src: FrameSubbundle,
    L_dst: FrameSubbundle,
    policy: SamplingPolicy,
    anti: bool = False,
    name: str = "forward-map",
) -> CheckResult:
    """Decide whether F pushes L_src onto L_dst.

    The pushforward fiber at a source point p is all ((dF) X, f, xi, g) with
    (X, f) + (F* xi, g) in L_src at p.  Each unknown X, f, xi, g gives one column
    of that condition: the rows its embedding leaves over in L_src's elimination.
    Their null space, pushed through the Jacobian, must span L_dst at F(p), the
    rows of L_dst substituted along F; with anti=True their form half is negated.
    """
    if L_src.ambient is not L_dst.ambient:
        return error_result(name, "source and target frames live in different ambients")
    if F.source != L_src.chart:
        return error_result(name, "map source chart differs from the source frame chart")
    if F.target != L_dst.chart:
        return error_result(name, "map target chart differs from the target frame chart")

    m, n = F.source.dim, F.target.dim
    e = int(L_src.ambient is Ambient.E1)  # the f and g rows
    hs, ht = L_src.fiber_dim, L_dst.fiber_dim
    J = [[differentiate(c, x) for x in F.source.coords] for c in F.components]
    # per unknown: its column (X, f, F* xi, g) in the source fiber, and its push
    unknowns = [(_unit(hs, i), [J[a][i] for a in range(n)] + [ZERO] * (ht - n)) for i in range(m)]
    unknowns += [([ZERO] * (m + e) + J[a] + [ZERO] * e, _unit(ht, n + e + a)) for a in range(n)]
    if e:
        unknowns += [(_unit(hs, m), _unit(ht, n)), (_unit(hs, hs - 1), _unit(ht, ht - 1))]

    f = Findings(name)
    src = L_src.elimination
    certified_rank(src, f)
    system = [(leftover(src, embedded), push) for embedded, push in unknowns]
    pushed = pushed_null_space(system, len(src.free_rows), f)
    target = [[F.pull_expr(v) for v in g.rows()] for g in L_dst.generators]
    if anti:
        target = [col[: n + e] + [normalize(-v) for v in col[n + e :]] for col in target]
    compare_spans(f, pushed, _eliminate(pushed, ht), _eliminate(target, ht), policy,
                  F.source.coords, name, "pushforward fiber has rank {}, expected {}",
                  "generator {} of the pushforward fiber leaves the target structure")
    return f.result()

"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  All tolerances are pinned here: symbolic assertions use exact
structural equality, sampled identities 1e-9, residual checks 1e-7,
derivative-vs-finite-difference 1e-6 relative, subspace ranks 1e-9.
"""

import contextlib
import random

from diracjacobi.algebroid import (
    AlgebroidOnL,
    FrameCochain2,
    algebroid_differential_2,
    central_extension_bracket,
    check_action_iso,
    check_cocycle,
    extract_cocycle,
    omega_skew_half,
)
from diracjacobi.chart_tensor import (
    Chart,
    DifferentialForm,
    Multivector,
    SmoothMap,
    VectorField,
    coordinate_field,
    coordinate_form,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lie_derivative,
    pullback,
    wedge,
)
from diracjacobi.courant import SectionE1, extended_courant_bracket
from diracjacobi.groupoid import (
    PrecontactData,
    build_action_groupoid,
    check_groupoid,
    check_multiplicative_function,
    check_precontact,
    check_presymplectic,
    equivalence_transform,
    eta_from_precontact_form,
    eta_to_omega,
    extract_LM,
    omega_to_eta,
    pair_groupoid_with_line,
)
from diracjacobi.report import CheckVerdict
from diracjacobi.structures import (
    ConformalFactor,
    check_involutivity,
    check_maximal_isotropy,
    check_structures_equal,
    conformal_change,
    construct_L_jacobi,
    construct_L_theta,
    graph_of_bivector,
    graph_of_two_form,
    induced_dirac_on_MxR,
    lift_dirac,
)
from diracjacobi.symcalc import (
    ONE,
    ZERO,
    SamplingPolicy,
    check_zero_all,
    coord,
    differentiate,
    evaluate,
    is_structurally_zero,
    parse,
)

from oracles import expr_fn, fd_partial

POLICY = SamplingPolicy(seed=11, count=40)
RESIDUAL_TOL = 1e-7
SAMPLED_TOL = 1e-9


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{label}]: PASS")


def P(chart, text):
    return parse(text, chart.coords)


M2 = Chart("M2", ("x", "y"))
M3 = Chart("M3", ("x", "y", "z"))
THETA_XDY = DifferentialForm(M2, 1, {(1,): P(M2, "x")})
THETA_CONTACT = DifferentialForm(M3, 1, {(2,): ONE, (0,): P(M3, "-y")})
FIXTURES = ((M2, THETA_XDY), (M3, THETA_CONTACT))


def test_criterion_1_theta_pipeline():
    with criterion(1, "precontact-form structures and their cocycles"):
        for chart, theta in FIXTURES:
            L = construct_L_theta(theta)
            assert check_maximal_isotropy(L, POLICY).passed
            assert check_involutivity(L, POLICY).passed
            phi = extract_cocycle(L)
            assert phi.values[:-1] == (ZERO,) * chart.dim  # exact zeros
            assert phi.values[-1] == ONE  # exact one
            r = check_cocycle(AlgebroidOnL(L), phi, POLICY)
            assert r.passed and r.residual_max <= RESIDUAL_TOL


def test_criterion_2_groupoid_and_extraction():
    with criterion(2, "pair-line groupoid verifies and extracts the base structure"):
        for chart, theta in FIXTURES:
            gm = pair_groupoid_with_line(chart)
            pd = eta_from_precontact_form(gm, theta)
            assert check_groupoid(gm, POLICY).passed
            assert check_multiplicative_function(gm, pd.sigma, POLICY).passed
            assert check_precontact(gm, pd, POLICY).passed
            out = extract_LM(gm, pd, POLICY, expected=construct_L_theta(theta))
            assert out.passed  # subspace equality at threshold 1e-9


def test_criterion_3_correspondence():
    with criterion(3, "1-form / homogeneous-2-form correspondence"):
        for chart, theta in FIXTURES:
            gm = pair_groupoid_with_line(chart)
            pd = eta_from_precontact_form(gm, theta)
            assert check_precontact(gm, pd, POLICY).passed
            action = build_action_groupoid(gm, pd.sigma, POLICY)
            ps = eta_to_omega(pd)
            r = check_presymplectic(action, ps, POLICY)
            assert r.passed and r.residual_max <= RESIDUAL_TOL
            back = omega_to_eta(ps, pd.sigma, POLICY)
            diff = (back.eta - pd.eta).coefficients()
            rep = check_zero_all(
                list(diff) + [back.sigma - pd.sigma], POLICY, coords=gm.total.coords
            )
            assert rep.is_zero and rep.max_abs <= SAMPLED_TOL

        # negative controls with reported witnesses
        gm = pair_groupoid_with_line(M2)
        pd0 = eta_from_precontact_form(gm, DifferentialForm.zero(M2, 1))
        r0 = check_precontact(gm, pd0, POLICY)
        assert r0.verdict is CheckVerdict.FAIL
        assert r0.witness is not None and r0.witness["condition"] == "non-degeneracy"
        eta_dropped = pullback(gm.target, THETA_XDY) - pullback(gm.source, THETA_XDY)
        rd = check_precontact(gm, PrecontactData(eta_dropped, coord("t")), POLICY)
        assert rd.verdict is CheckVerdict.FAIL
        assert rd.witness is not None and rd.witness["condition"] == "eta-multiplicative"


def test_criterion_4_poissonization():
    with criterion(4, "bivector/vector pairs match their homogeneous graphs"):
        # Poisson case
        Lam = Multivector(M2, 2, {(0, 1): ONE})
        L = construct_L_jacobi(Lam, VectorField.zero(M2))
        ind = induced_dirac_on_MxR(L)
        C = ind.chart
        graph = graph_of_bivector(Multivector(C, 2, {(0, 1): P(C, "exp(-t)")}))
        assert check_structures_equal(ind, graph, POLICY).passed

        # contact-type pair (dx + y dz) ^ dy with E = d/dz
        LamC = Multivector(M3, 2, {(0, 1): ONE, (1, 2): P(M3, "-y")})
        E = coordinate_field(M3, "z")
        LC = construct_L_jacobi(LamC, E)
        assert check_maximal_isotropy(LC, POLICY).passed
        assert check_involutivity(LC, POLICY).passed
        indC = induced_dirac_on_MxR(LC)
        CN = indC.chart
        # e^{-t} (Lam + dt ^ E): dt ^ d/dz contributes -(z, t) slot
        PiN = Multivector(
            CN,
            2,
            {(0, 1): P(CN, "exp(-t)"), (1, 2): P(CN, "-y*exp(-t)"), (2, 3): P(CN, "-exp(-t)")},
        )
        assert check_structures_equal(indC, graph_of_bivector(PiN), POLICY).passed


def test_criterion_5_central_extension():
    with criterion(5, "lifted Dirac structures as central extensions"):
        omega = wedge(coordinate_form(M2, "x"), coordinate_form(M2, "y"))
        L0 = graph_of_two_form(omega)
        L = lift_dirac(L0)
        assert check_maximal_isotropy(L, POLICY).passed
        assert check_involutivity(L, POLICY).passed

        A0 = AlgebroidOnL(L0)
        Om = FrameCochain2.from_function(L0, omega_skew_half)
        assert algebroid_differential_2(A0, Om, POLICY).passed
        # substantive closedness on a rank-4 graph as well
        Q = Chart("Q", ("x1", "y1", "x2", "y2"))
        alpha = DifferentialForm(Q, 1, {(1,): P(Q, "x1"), (3,): P(Q, "x2 + x1*x2")})
        LQ = graph_of_two_form(exterior_derivative(alpha))
        rQ = algebroid_differential_2(
            AlgebroidOnL(LQ), FrameCochain2.from_function(LQ, omega_skew_half), POLICY
        )
        assert rQ.passed and rQ.residual_max <= RESIDUAL_TOL

        f1, f2 = P(M2, "x*y"), P(M2, "x - y^2")
        worst = 0.0
        for i in range(2):
            for j in range(2):
                if i == j:
                    continue
                gi, gj = L0.generators[i], L0.generators[j]
                eb = extended_courant_bracket(
                    SectionE1(gi.X, ZERO, gi.xi, f1), SectionE1(gj.X, ZERO, gj.xi, f2)
                )
                ce_sec, ce_scalar = central_extension_bracket(
                    A0, omega_skew_half, (gi, f1), (gj, f2)
                )
                diffs = (
                    [a - b for a, b in zip(eb.X.components, ce_sec.X.components)]
                    + [eb.f, eb.g - ce_scalar]
                    + list((eb.xi - ce_sec.xi).coefficients())
                )
                rep = check_zero_all(diffs, POLICY, coords=M2.coords)
                assert rep.is_zero
                worst = max(worst, rep.max_abs)
        assert worst <= RESIDUAL_TOL

        phi = extract_cocycle(L)
        assert all(v == ZERO for v in phi.values)  # identically zero, symbolically


def test_criterion_6_action_iso_and_conformal_coherence():
    with criterion(6, "action-algebroid isomorphism and conformal coherence"):
        Ltheta = construct_L_theta(THETA_XDY)
        assert check_action_iso(Ltheta, POLICY).passed
        omega = wedge(coordinate_form(M2, "x"), coordinate_form(M2, "y"))
        assert check_action_iso(lift_dirac(graph_of_two_form(omega)), POLICY).passed

        # conformal change with factor 1 is the identity, symbolically
        ident = conformal_change(Ltheta, ConformalFactor(ONE, M2))
        for a, b in zip(ident.generators, Ltheta.generators):
            assert (a.X - b.X).is_zero_field and (a.xi - b.xi).is_zero_table
            assert is_structurally_zero(a.f - b.f) and is_structurally_zero(a.g - b.g)

        # factor then inverse factor returns the original span
        phi = ConformalFactor(P(M2, "1 + x^2/4"), M2)
        back = conformal_change(conformal_change(Ltheta, phi), phi.inverse())
        assert check_structures_equal(back, Ltheta, POLICY).passed

        # the equivalence transform commutes with extraction through the
        # conformal change on the pair-line fixture
        gm = pair_groupoid_with_line(M2)
        pd = eta_from_precontact_form(gm, THETA_XDY)
        pd2 = equivalence_transform(pd, phi, gm)
        assert check_precontact(gm, pd2, POLICY).passed
        expected = conformal_change(Ltheta, phi)
        out = extract_LM(gm, pd2, POLICY, expected=expected)
        assert out.passed


def test_criterion_7_calculus_kernel():
    with criterion(7, "calculus kernel identities on 100+ random instances"):
        chart = M3
        rng = random.Random(404)

        def rand_poly():
            cs = chart.coords
            monos = ["1"] + list(cs) + [f"{a}*{b}" for i, a in enumerate(cs) for b in cs[i:]]
            terms = [f"{rng.randint(-2, 2)}*{m}" for m in monos]
            return parse(" + ".join(terms), cs)

        def rand_field():
            return VectorField(chart, tuple(rand_poly() for _ in chart.coords))

        def rand_form(degree):
            from itertools import combinations

            return DifferentialForm(
                chart, degree, {idx: rand_poly() for idx in combinations(range(3), degree)}
            )

        count = 0
        for _ in range(25):  # 25 * 4 degrees/pieces >= 100 instances per identity
            for degree in (0, 1, 2, 3):
                w = rand_form(degree)
                assert exterior_derivative(exterior_derivative(w)).is_zero_table
                count += 1
        assert count >= 100

        for _ in range(100):
            X = rand_field()
            w = rand_form(rng.choice((1, 2)))
            cartan = lie_derivative(X, w) - (
                interior_product(X, exterior_derivative(w))
                + exterior_derivative(interior_product(X, w))
            )
            assert cartan.is_zero_table

        for _ in range(100):
            X = rand_field()
            a = rand_form(1)
            b = rand_form(rng.choice((1, 2)))
            sign = -1 if a.degree % 2 else 1
            lhs = interior_product(X, wedge(a, b))
            rhs = wedge(interior_product(X, a), b) + wedge(a, interior_product(X, b)).scale(sign)
            assert (lhs - rhs).is_zero_table

        target = Chart("T2", ("u", "v"))
        for _ in range(100):
            F = SmoothMap(
                chart,
                target,
                (rand_poly(), rand_poly()),
            )
            w_deg = rng.choice((0, 1, 2))
            from itertools import combinations

            wt = DifferentialForm(
                target,
                w_deg,
                {
                    idx: parse(
                        f"{rng.randint(-2, 2)} + {rng.randint(-2, 2)}*u*v + {rng.randint(-2, 2)}*v",
                        target.coords,
                    )
                    for idx in combinations(range(2), w_deg)
                },
            )
            nat = pullback(F, exterior_derivative(wt)) - exterior_derivative(pullback(F, wt))
            assert nat.is_zero_table

        for _ in range(100):
            X, Y, Z = rand_field(), rand_field(), rand_field()
            s = (
                lie_bracket(X, lie_bracket(Y, Z))
                + lie_bracket(Y, lie_bracket(Z, X))
                + lie_bracket(Z, lie_bracket(X, Y))
            )
            assert s.is_zero_field

        # symbolic derivative vs central finite differences on 100 random
        # polynomial/exp/trig expressions, 1e-6 relative at non-singular points
        def rand_expr():
            base = rand_poly()
            kind = rng.randrange(5)
            cs = chart.coords
            if kind == 0:
                return base
            if kind == 1:  # damped exponent keeps FD well-conditioned
                return base * parse(f"exp({cs[rng.randrange(3)]}/2)", cs)
            if kind == 2:
                return base * parse(f"sin({cs[rng.randrange(3)]})", cs)
            if kind == 3:
                return base + parse(f"cos({cs[rng.randrange(3)]}*{cs[rng.randrange(3)]})", cs)
            return parse(f"ln(3 + {cs[rng.randrange(3)]}^2)", cs) + base

        instances = 0
        while instances < 100:
            e = rand_expr()
            name = chart.coords[rng.randrange(3)]
            de = differentiate(e, name)
            p = {c: rng.uniform(-1.5, 1.5) for c in chart.coords}
            sym = float(evaluate(de, p))
            num = fd_partial(expr_fn(e), p, name)
            assert abs(sym - num) <= 1e-6 * (1 + abs(sym))
            instances += 1
        assert instances >= 100


def test_criterion_8_deterministic_reports():
    with criterion(8, "byte-identical reports for identical seeds"):
        from diracjacobi.cli import fixture_names, resolve_scenario_path
        from diracjacobi.scenario import load_scenario, run_scenario

        def full_suite_bytes() -> bytes:
            parts = []
            for name in fixture_names():
                report = run_scenario(load_scenario(resolve_scenario_path(name)))
                parts.append(report.to_json())
            return "".join(parts).encode()

        assert full_suite_bytes() == full_suite_bytes()

"""Structure frames: constructions, the two axioms, maps, and conformal changes."""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from diracjacobi import structures

from diracjacobi.chart_tensor import (
    Chart,
    ChartError,
    DifferentialForm,
    Multivector,
    SmoothMap,
    VectorField,
    coordinate_field,
    coordinate_form,
    wedge,
)
from diracjacobi.courant import SectionE1, SectionTM
from diracjacobi.report import CheckVerdict
from diracjacobi.structures import (
    Ambient,
    ConformalFactor,
    FrameSubbundle,
    check_forward_map,
    check_involutivity,
    check_maximal_isotropy,
    check_structures_equal,
    conformal_change,
    construct_L_jacobi,
    construct_L_theta,
    construct_two_form_pair,
    graph_of_bivector,
    graph_of_two_form,
    induced_dirac_on_MxR,
    lift_dirac,
)
from diracjacobi.scenario import load_scenario, run_scenario
from diracjacobi.symcalc import (
    ONE,
    ZERO,
    Constant,
    Coordinate,
    Exp,
    IntegerPower,
    Ln,
    Product,
    Quotient,
    SamplingPolicy,
    Sum,
    is_nonvanishing,
    is_structurally_zero,
    normalize,
    parse,
)

from conftest import RandomTensors
from oracles import second_forms


def P(chart, text):
    return parse(text, chart.coords)


@pytest.fixture
def theta_xdy(r2):
    return DifferentialForm(r2, 1, {(1,): P(r2, "x")})


@pytest.fixture
def theta_contact(r3):
    return DifferentialForm(r3, 1, {(2,): ONE, (0,): P(r3, "-y")})


class TestConstructLTheta:
    def test_zero_form_on_line(self):
        R1 = Chart("R1", ("x",))
        L = construct_L_theta(DifferentialForm.zero(R1, 1))
        assert len(L.generators) == 2 and L.rank == 2
        g0, g1 = L.generators
        assert g0.X.components == (ONE,) and g0.xi.is_zero_table
        assert g1.f == ONE and g1.xi.is_zero_table

    def test_xdy_generator_table(self, r2, theta_xdy):
        L = construct_L_theta(theta_xdy)
        g0, g1, g2 = L.generators
        # (d/dx, 0) + (dy, 0); (d/dy, 0) + (-dx, -x); (0, 1) + (x dy, 0)
        assert g0.xi == coordinate_form(r2, "y") and g0.g == ZERO
        assert g1.xi == -coordinate_form(r2, "x") and g1.g == P(r2, "-x")
        assert g2.f == ONE and g2.xi == theta_xdy

    def test_both_axioms_for_both_fixtures(self, theta_xdy, theta_contact, policy):
        for theta in (theta_xdy, theta_contact):
            L = construct_L_theta(theta)
            assert check_maximal_isotropy(L, policy).passed
            assert check_involutivity(L, policy).passed


class TestChecks:
    def test_two_form_graph_passes(self, r2, policy):
        omega = wedge(coordinate_form(r2, "x"), coordinate_form(r2, "y"))
        L = graph_of_two_form(omega)
        iso = check_maximal_isotropy(L, policy)
        assert iso.passed and iso.mode == "symbolic"
        assert check_involutivity(L, policy).passed

    def test_self_pairing_failure(self, policy):
        R1 = Chart("R1", ("x",))
        bad = FrameSubbundle(
            Ambient.TM_TSTAR,
            R1,
            (SectionTM(coordinate_field(R1, "x"), coordinate_form(R1, "x")),),
            1,
        )
        r = check_maximal_isotropy(bad, policy)
        assert r.verdict is CheckVerdict.FAIL
        assert any("pairing" in d for d in r.details)

    def test_rank_deficiency_reported(self, r2, policy):
        z1 = DifferentialForm.zero(r2, 1)
        L = FrameSubbundle(
            Ambient.E1,
            r2,
            (
                SectionE1(coordinate_field(r2, "x"), ZERO, z1, ZERO),
                SectionE1(coordinate_field(r2, "x"), ZERO, z1, ZERO),
                SectionE1(VectorField.zero(r2), ONE, z1, ZERO),
            ),
            3,
        )
        r = check_maximal_isotropy(L, policy)
        assert r.verdict is CheckVerdict.FAIL
        assert any("rank" in d for d in r.details)

    def test_involutivity_failure_with_witness(self, r2, policy):
        z1 = DifferentialForm.zero(r2, 1)
        L = FrameSubbundle(
            Ambient.E1,
            r2,
            (
                SectionE1(coordinate_field(r2, "x"), ZERO, z1, ZERO),
                SectionE1(VectorField.zero(r2), ZERO, DifferentialForm(r2, 1, {(0,): P(r2, "y")}), ZERO),
                SectionE1(VectorField.zero(r2), ONE, z1, ZERO),
            ),
            3,
        )
        r = check_involutivity(L, policy)
        assert r.verdict is CheckVerdict.FAIL
        assert r.witness is not None and r.residual_max > 1e-3
        # the leftover row is a nonzero constant: the failure holds wherever the
        # uncertified pivot y is nonzero, so it stays symbolic
        assert r.mode == "symbolic"
        assert "rank sampled: pivot y is not certified nonvanishing" in r.details


class TestJacobiPairs:
    def test_zero_pair(self, r2, policy):
        L = construct_L_jacobi(Multivector.zero(r2, 2), VectorField.zero(r2))
        for i, g in enumerate(L.generators[:-1]):
            assert g.X.is_zero_field and g.f == ZERO and g.g == ZERO
            assert g.xi == coordinate_form(r2, r2.coords[i])
        last = L.generators[-1]
        assert last.X.is_zero_field and last.xi.is_zero_table and last.g == ONE
        assert check_maximal_isotropy(L, policy).passed

    def test_poisson_plane(self, r2, policy):
        Lam = Multivector(r2, 2, {(0, 1): ONE})
        L = construct_L_jacobi(Lam, VectorField.zero(r2))
        g0, g1, g2 = L.generators
        assert g0.X.components == (ZERO, ONE)  # Lam#(dx) = d/dy
        assert g1.X.components == (normalize(-ONE), ZERO)
        assert g2.g == ONE
        assert check_maximal_isotropy(L, policy).passed
        assert check_involutivity(L, policy).passed

    def test_contact_pair_matches_opposite_form(self, r3, theta_contact, policy):
        # (dx + y dz) ^ dy with E = +d/dz is the pair of MINUS the contact form
        lam_ab = Multivector(r3, 2, {(0, 1): ONE, (1, 2): P(r3, "-y")})
        L = construct_L_jacobi(lam_ab, coordinate_field(r3, "z"))
        assert check_maximal_isotropy(L, policy).passed
        assert check_involutivity(L, policy).passed
        L_minus = construct_L_theta(-theta_contact)
        assert check_structures_equal(L, L_minus, policy).passed
        assert not check_structures_equal(L, construct_L_theta(theta_contact), policy).passed

    def test_contact_pair_matching_form(self, r3, theta_contact, policy):
        # dy ^ (dx + y dz) with E = -d/dz equals L_theta itself
        lam_c = Multivector(r3, 2, {(0, 1): normalize(-ONE), (1, 2): P(r3, "y")})
        L = construct_L_jacobi(lam_c, -coordinate_field(r3, "z"))
        assert check_structures_equal(L, construct_L_theta(theta_contact), policy).passed

    def test_wrong_sign_pair_not_involutive(self, r3, policy):
        # flipping only the bivector breaks the compatibility: E ^ Lam != 0
        lam_ab = Multivector(r3, 2, {(0, 1): ONE, (1, 2): P(r3, "-y")})
        L = construct_L_jacobi(-lam_ab, coordinate_field(r3, "z"))
        assert check_maximal_isotropy(L, policy).passed  # isotropy is sign-blind
        assert check_involutivity(L, policy).verdict is CheckVerdict.FAIL


class TestGraphs:
    def test_zero_two_form_graph_is_tangent(self, r2):
        L = graph_of_two_form(DifferentialForm.zero(r2, 2))
        for g in L.generators:
            assert g.xi.is_zero_table

    def test_bivector_graph_generators(self, r2):
        Pi = Multivector(r2, 2, {(0, 1): ONE})
        g0, g1 = graph_of_bivector(Pi).generators
        assert g0.X.components == (ZERO, ONE) and g0.xi == coordinate_form(r2, "x")
        assert g1.X.components == (normalize(-ONE), ZERO) and g1.xi == coordinate_form(r2, "y")

    def test_two_form_graph_generators(self, r2):
        omega = wedge(coordinate_form(r2, "x"), coordinate_form(r2, "y"))
        g0, g1 = graph_of_two_form(omega).generators
        assert g0.X.components == (ONE, ZERO) and g0.xi == coordinate_form(r2, "y")
        assert g1.xi == -coordinate_form(r2, "x")

    def test_graph_conventions_are_mutually_inverse(self, r2, policy):
        # with the first-slot contraction and P#(a)(b) = P(a, b), the graph
        # of dx^dy coincides with the graph of MINUS the unit bivector
        omega = wedge(coordinate_form(r2, "x"), coordinate_form(r2, "y"))
        Pi = Multivector(r2, 2, {(0, 1): ONE})
        a = graph_of_two_form(omega)
        assert check_structures_equal(a, graph_of_bivector(-Pi), policy).passed
        assert not check_structures_equal(a, graph_of_bivector(Pi), policy).passed


class TestLift:
    def test_tangent_lift(self, policy):
        R1 = Chart("R1", ("x",))
        L0 = graph_of_two_form(DifferentialForm.zero(R1, 2))
        L = lift_dirac(L0)
        assert L.rank == 2
        g0, g1 = L.generators
        assert g0.X.components == (ONE,) and g0.f == ZERO and g0.xi.is_zero_table
        assert g1.X.is_zero_field and g1.f == ZERO and g1.g == ONE
        assert check_maximal_isotropy(L, policy).passed
        assert check_involutivity(L, policy).passed

    def test_lift_iff_base(self, r2, r3, policy):
        omega = wedge(coordinate_form(r2, "x"), coordinate_form(r2, "y"))
        L0 = graph_of_two_form(omega)
        assert check_involutivity(lift_dirac(L0), policy).passed
        # non-involutive base: graph of a non-closed 2-form (needs dim >= 3)
        bad = graph_of_two_form(DifferentialForm(r3, 2, {(0, 1): P(r3, "z")}))
        assert check_involutivity(bad, policy).verdict is CheckVerdict.FAIL
        assert check_involutivity(lift_dirac(bad), policy).verdict is CheckVerdict.FAIL


class TestConformal:
    def test_identity_factor_is_structural_identity(self, r2, theta_xdy):
        L = construct_L_theta(theta_xdy)
        L1 = conformal_change(L, ConformalFactor(ONE, r2))
        for a, b in zip(L.generators, L1.generators):
            assert (a.X - b.X).is_zero_field and (a.xi - b.xi).is_zero_table
            assert normalize(a.f - b.f) == ZERO and normalize(a.g - b.g) == ZERO

    def test_conformal_lift_is_two_form_pair(self, r2, policy):
        # conformal change of a lifted 2-form graph is the structure of
        # (phi omega, d ln phi)
        omega = wedge(coordinate_form(r2, "x"), coordinate_form(r2, "y"))
        phi = ConformalFactor(P(r2, "1 + x^2/4"), r2)
        lhs = conformal_change(lift_dirac(graph_of_two_form(omega)), phi)
        rhs = construct_two_form_pair(omega.scale(phi.phi), phi.mu)
        assert check_structures_equal(lhs, rhs, policy).passed

    def test_inverse_roundtrip(self, r2, theta_xdy, policy):
        L = construct_L_theta(theta_xdy)
        phi = ConformalFactor(P(r2, "1 + x^2/4"), r2)
        back = conformal_change(conformal_change(L, phi), phi.inverse())
        assert check_structures_equal(back, L, policy).passed

    def test_composition(self, r2, theta_xdy, policy):
        L = construct_L_theta(theta_xdy)
        phi = ConformalFactor(P(r2, "1 + x^2/4"), r2)
        psi = ConformalFactor(P(r2, "2 + y^2"), r2)
        both = ConformalFactor(normalize(phi.phi * psi.phi), r2)
        a = conformal_change(conformal_change(L, phi), psi)
        b = conformal_change(L, both)
        assert check_structures_equal(a, b, policy).passed

    def test_axioms_preserved(self, r2, theta_xdy, policy):
        L = conformal_change(
            construct_L_theta(theta_xdy), ConformalFactor(P(r2, "1 + x^2/4"), r2)
        )
        assert check_maximal_isotropy(L, policy).passed
        assert check_involutivity(L, policy).passed

    def test_vanishing_factor_rejected(self, r2):
        with pytest.raises(ChartError):
            ConformalFactor(ZERO, r2)


class TestInducedOnMxR:
    def test_lifted_structure_images(self, r2, policy):
        omega = wedge(coordinate_form(r2, "x"), coordinate_form(r2, "y"))
        L = lift_dirac(graph_of_two_form(omega))
        ind = induced_dirac_on_MxR(L)
        assert ind.chart.coords == ("x", "y", "t")
        # generator images: (X + 0 d/dt) + e^t alpha for the lifted pairs and
        # e^t dt for the last one
        C = ind.chart
        et = P(C, "exp(t)")
        for g, src in zip(ind.generators[:-1], L.generators[:-1]):
            assert g.X.components[:-1] == src.X.components and g.X.components[-1] == ZERO
            lifted_alpha = DifferentialForm(C, 1, dict(src.xi.entries))
            assert (g.xi - lifted_alpha.scale(et)).is_zero_table
        last = ind.generators[-1]
        assert last.X.is_zero_field
        assert (last.xi - coordinate_form(C, "t").scale(et)).is_zero_table
        assert check_maximal_isotropy(ind, policy).passed
        assert check_involutivity(ind, policy).passed

    def test_poissonization_graph(self, r2, policy):
        Lam = Multivector(r2, 2, {(0, 1): ONE})
        L = construct_L_jacobi(Lam, VectorField.zero(r2))
        ind = induced_dirac_on_MxR(L)
        C = ind.chart
        Pi = Multivector(C, 2, {(0, 1): P(C, "exp(-t)")})
        assert check_structures_equal(ind, graph_of_bivector(Pi), policy).passed

    def test_theta_becomes_exact_graph(self, r3, theta_contact, policy):
        # the induced structure of L_theta is the graph of d(e^t theta)
        from diracjacobi.chart_tensor import exterior_derivative

        L = construct_L_theta(theta_contact)
        ind = induced_dirac_on_MxR(L)
        C = ind.chart
        lifted = DifferentialForm(C, 1, dict(theta_contact.entries))
        omega = exterior_derivative(lifted.scale(P(C, "exp(t)")))
        assert check_structures_equal(ind, graph_of_two_form(omega), policy).passed

    def test_verdict_preservation_across_fixtures(self, r2, r3, policy):
        """The COMBINED two-axiom verdict transfers through the M x R
        correspondence (the individual axioms may trade places: a frame that
        fails involutivity downstairs can fail isotropy upstairs instead)."""

        def dirac_jacobi_verdict(L):
            return check_maximal_isotropy(L, policy).passed and check_involutivity(L, policy).passed

        Lam = Multivector(r2, 2, {(0, 1): ONE})
        z1 = DifferentialForm.zero(r2, 1)
        not_isotropic = FrameSubbundle(
            Ambient.E1,
            r2,
            (
                SectionE1(coordinate_field(r2, "x"), ZERO, z1, ZERO),
                SectionE1(VectorField.zero(r2), ZERO, DifferentialForm(r2, 1, {(0,): P(r2, "y")}), ZERO),
                SectionE1(VectorField.zero(r2), ONE, z1, ZERO),
            ),
            3,
        )
        not_involutive = lift_dirac(
            graph_of_two_form(DifferentialForm(r3, 2, {(0, 1): P(r3, "z")}))
        )
        fixtures = [
            (construct_L_theta(DifferentialForm(r2, 1, {(1,): P(r2, "x")})), True),
            (construct_L_jacobi(Lam, VectorField.zero(r2)), True),
            (
                lift_dirac(
                    graph_of_two_form(wedge(coordinate_form(r2, "x"), coordinate_form(r2, "y")))
                ),
                True,
            ),
            (not_isotropic, False),
            (not_involutive, False),
        ]
        for L, expected in fixtures:
            assert dirac_jacobi_verdict(L) is expected
            assert dirac_jacobi_verdict(induced_dirac_on_MxR(L)) is expected


class TestSpanEquality:
    def test_reflexive_and_symmetric(self, r2, theta_xdy, policy):
        L = construct_L_theta(theta_xdy)
        # a re-spanned frame: scaled and mixed generators, same fibers
        g0, g1, g2 = L.generators
        M = FrameSubbundle(
            Ambient.E1,
            r2,
            (g1.scale(P(r2, "2")), g0 + g1, g2 + g0.scale(P(r2, "x"))),
            3,
        )
        assert check_structures_equal(L, L, policy).passed
        a = check_structures_equal(L, M, policy).passed
        b = check_structures_equal(M, L, policy).passed
        assert a and b

    def test_detects_difference(self, r2, theta_xdy, policy):
        L = construct_L_theta(theta_xdy)
        other = construct_L_theta(DifferentialForm(r2, 1, {(0,): P(r2, "y")}))
        r = check_structures_equal(L, other, policy)
        assert r.verdict is CheckVerdict.FAIL and r.witness is not None


class TestExactStructureEquality:
    def test_certified_pair_is_symbolic(self, r2, policy):
        omega = RandomTensors(r2, 8).form(2)
        lifted = lift_dirac(graph_of_two_form(omega))
        pair = construct_two_form_pair(omega, DifferentialForm.zero(r2, 1))
        for a, b in ((lifted, pair), (pair, lifted)):
            r = check_structures_equal(a, b, policy)
            assert r.verdict is CheckVerdict.PASS and r.mode == "symbolic" and not r.details

    def test_unequal_pivot_counts_fail(self, r2, theta_xdy, policy):
        L = construct_L_theta(theta_xdy)
        g0, _, g2 = L.generators
        short = FrameSubbundle(Ambient.E1, r2, (g0, g0.scale(P(r2, "2")), g2), 3)
        r = check_structures_equal(L, short, policy)
        assert r.verdict is CheckVerdict.FAIL and r.mode == "symbolic"
        assert r.details == ("ranks differ: 3 against 2",) and r.witness == {"ranks": [3, 2]}

    def test_generator_outside_the_span_is_named(self, r2, policy):
        L = construct_L_theta(coordinate_form(r2, "y"))
        g0, g1, _ = L.generators
        other = SectionE1(VectorField.zero(r2), ONE, coordinate_form(r2, "x"), ZERO)
        M = FrameSubbundle(Ambient.E1, r2, (g0, g1, other), 3)
        r = check_structures_equal(L, M, policy)
        assert r.verdict is CheckVerdict.FAIL and r.mode == "symbolic"
        assert r.details == ("generator 2 of the first frame leaves the span of the second",)
        assert r.witness["generator"] == 2


class TestForwardMap:
    def test_identity_map(self, r2, theta_xdy, policy):
        from diracjacobi.chart_tensor import identity_map

        L = construct_L_theta(theta_xdy)
        assert check_forward_map(identity_map(r2), L, L, policy).passed

    def test_negative_control(self, r2, policy):
        R1 = Chart("R1", ("x",))
        proj = SmoothMap.from_exprs(r2, R1, [P(r2, "x")])
        Pi = Multivector(r2, 2, {(0, 1): ONE})
        L_src = graph_of_bivector(Pi)
        L_dst = graph_of_two_form(DifferentialForm.zero(R1, 2))
        r = check_forward_map(proj, L_src, L_dst, policy)
        assert r.verdict is CheckVerdict.FAIL and r.witness is not None

    def test_projection_of_poisson_graph(self, r2, policy):
        # the x-projection of the plane Poisson graph is the full TM + 0
        # only at points where it stays rank 1; here it pushes onto T R1
        R1 = Chart("R1", ("x",))
        proj = SmoothMap.from_exprs(r2, R1, [P(r2, "x")])
        omega = wedge(coordinate_form(r2, "x"), coordinate_form(r2, "y"))
        # graph of omega pushes to the graph of the zero bivector? solve:
        # (X, J^T xi) in graph(omega) forces X = Pi#(J^T xi); pushed span is
        # {(J Pi# J^T xi, xi)} = graph of the pushed bivector 0 on R1... but
        # J Pi# J^T = 0, so the image is the COTANGENT line {(0, xi)}.
        cot = FrameSubbundle(
            Ambient.TM_TSTAR,
            R1,
            (SectionTM(VectorField.zero(R1), coordinate_form(R1, "x")),),
            1,
        )
        r = check_forward_map(proj, graph_of_two_form(omega), cot, policy)
        assert r.passed

    def test_overflowing_frame_through_the_identity(self, r2):
        from diracjacobi.chart_tensor import identity_map

        L = construct_L_theta(DifferentialForm(r2, 1, {(1,): P(r2, "exp(1000*x)")}))
        r = check_forward_map(identity_map(r2), L, L, SamplingPolicy())
        assert r.verdict is CheckVerdict.PASS and r.mode == "symbolic"


# -- exact rank under nonvanishing-pivot certificates ------------------------


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call adds one to the returned list's length."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def fiber_rank_calls(monkeypatch):
    from diracjacobi import linalg

    return (count_calls(monkeypatch, FrameSubbundle, "fiber_matrix_at"),
            count_calls(monkeypatch, linalg, "matrix_rank"))


class TestRankCertificate:
    @pytest.mark.parametrize("text", ["3", "-6*exp(2*t)", "exp(x)^-2", "2*exp(x)*exp(y)"])
    def test_nonvanishing_accepts(self, text):
        assert is_nonvanishing(parse(text, ("x", "y", "t")))

    @pytest.mark.parametrize("text", ["x", "1 + x^2", "exp(x) + 1", "exp(1/x)", "x/exp(y)"])
    def test_nonvanishing_rejects(self, text):
        assert not is_nonvanishing(parse(text, ("x", "y", "t")))

    def test_raw_nodes(self):
        x = Coordinate("x")
        assert is_nonvanishing(IntegerPower(Product((Constant(Fraction(-2)), Exp(x))), -3))
        assert not is_nonvanishing(Product((Constant(Fraction(0)), Exp(x))))
        assert not is_nonvanishing(Exp(IntegerPower(x, -1)))
        assert not is_nonvanishing(Exp(Ln(x)))

    @pytest.mark.parametrize("build", ["theta", "jacobi"])
    def test_conformal_change_is_certified(self, r2, policy, build):
        gen = RandomTensors(r2, 5)
        L = (construct_L_theta(gen.form(1)) if build == "theta"
             else construct_L_jacobi(gen.multivector(2), gen.vector_field()))
        phi = ConformalFactor(P(r2, "exp(x/2)"), r2)
        Lc = conformal_change(L, phi)
        if build == "jacobi":  # no constant left to pivot on: the exp entries are chosen
            assert {str(p) for _, p, _ in Lc.elimination.steps} == {"exp(1/2*x)"}
        r = check_maximal_isotropy(Lc, policy)
        assert r.verdict is CheckVerdict.PASS and r.mode == "symbolic" and not r.details

    def test_certified_rank_deficiency_has_no_sampled_point(self, r2, policy, monkeypatch):
        z1 = DifferentialForm.zero(r2, 1)
        ex = SectionE1(coordinate_field(r2, "x"), ZERO, z1, ZERO)
        L = FrameSubbundle(
            Ambient.E1, r2, (ex, ex, SectionE1(VectorField.zero(r2), ONE, z1, ZERO)), 3
        )
        fiber, rank = fiber_rank_calls(monkeypatch)
        r = check_maximal_isotropy(L, policy)
        assert r.verdict is CheckVerdict.FAIL and r.mode == "symbolic"
        assert r.details == ("rank 2 instead of 3",) and r.witness == {"rank": 2}
        assert fiber == [] and rank == []

    def test_uncertified_pivot_is_sampled_and_named(self, r2, policy):
        z1 = DifferentialForm.zero(r2, 1)
        y_dy = VectorField(r2, (ZERO, P(r2, "y")))
        L = FrameSubbundle(Ambient.E1, r2, (
            SectionE1(coordinate_field(r2, "x"), ZERO, z1, ZERO),
            SectionE1(y_dy, ZERO, z1, ZERO),
            SectionE1(VectorField.zero(r2), ONE, z1, ZERO),
        ), 3)
        assert [pivot for _, pivot, _ in L.elimination.steps] == [ONE, P(r2, "y"), ONE]
        r = check_maximal_isotropy(L, policy)
        assert r.verdict is CheckVerdict.PASS and r.mode == "sampled"
        assert any("pivot y " in d for d in r.details)
        r = check_involutivity(L, policy)
        assert r.verdict is CheckVerdict.PASS and r.mode == "sampled"
        assert r.details == ("rank sampled: pivot y is not certified nonvanishing",)

    def test_a_disguised_zero_is_no_pivot(self, r2):
        # a trigonometric identity: zero, but not structurally zero
        hidden = P(r2, "sin(y)^2 + cos(y)^2 - 1")
        assert not is_structurally_zero(hidden)
        gens = (SectionTM(VectorField(r2, (hidden, P(r2, "x"))), DifferentialForm.zero(r2, 1)),
                SectionTM(VectorField.zero(r2), coordinate_form(r2, "x")))
        L = FrameSubbundle(Ambient.TM_TSTAR, r2, gens, 2)
        assert L.elimination.pivots == {0: 1, 1: 2}
        assert [pivot for _, pivot, _ in L.elimination.steps] == [P(r2, "x"), ONE]

    def test_an_exp_merge_zero_is_no_pivot(self, r2):
        # exp(ln(1+y)/2)^2 is 1 + y, multiplied out, so the entry is 0
        hidden = P(r2, "exp(ln(1+y)/2)*exp(ln(1+y)/2) - 1 - y")
        assert hidden == ZERO
        gens = (SectionTM(VectorField(r2, (hidden, P(r2, "x"))), DifferentialForm.zero(r2, 1)),
                SectionTM(VectorField.zero(r2), coordinate_form(r2, "x")))
        L = FrameSubbundle(Ambient.TM_TSTAR, r2, gens, 2)
        assert L.elimination.pivots == {0: 1, 1: 2}
        assert [pivot for _, pivot, _ in L.elimination.steps] == [P(r2, "x"), ONE]


# -- the work shape: no float rank on certified frames, one elimination each ---


def shipped_isotropy_checks():
    fixtures = Path(structures.__file__).parent / "fixtures"
    for path in sorted(fixtures.glob("*.scn")):
        scenario = load_scenario(path)
        names = [c.name for c in scenario.checks if c.kind == "maximal-isotropy"]
        if names:
            yield scenario, names


def shipped_frame_entries():
    """Every generator row, pairing and bracket expansion of every shipped structure."""
    fixtures = Path(structures.__file__).parent / "fixtures"
    for path in sorted(fixtures.glob("*.scn")):
        for name, L in load_scenario(path).structures.items():
            k = len(L.generators)
            for i in range(k):
                yield (path.stem, name, i), L.generators[i].rows()
                for j in range(k):
                    expansion = L.bracket_expansion(i, j)
                    yield (path.stem, name, i, j), [
                        L.pairing(i, j), *L.bracket(i, j).rows(),
                        *expansion.coefficients, *expansion.leftover]


def test_shipped_frames_have_one_normal_form():
    count = 0
    for where, entries in shipped_frame_entries():
        for e in entries:
            assert second_forms(e) == [], (where, str(e))
            count += 1
    assert count > 1000


def test_the_form_checker_finds_second_forms(r2):
    x, y = P(r2, "x"), P(r2, "y")
    q = Quotient(x, P(r2, "1 + y"))
    assert second_forms(Quotient(ONE, y)) == [Quotient(ONE, y)]
    for singular in (Quotient(ONE, ZERO), IntegerPower(Quotient(ONE, ZERO), 2)):
        assert second_forms(singular) == []
    for base in (q, Product((x, y)), P(r2, "1 + y"), Exp(x)):
        assert second_forms(Sum((x, IntegerPower(base, 2)))) == [IntegerPower(base, 2)]
    one_plus_y = P(r2, "1 + y")
    for form in (Product((q, q)), Product((y, q)), Sum((y, q)), Product((x, one_plus_y)),
                 Product((x, Product((x, y)))), Sum((x, one_plus_y))):
        assert second_forms(form) == [form]
    assert second_forms(P(r2, "(x/(1 + y))^2*y^-1 + exp(x)/(x + y)")) == []


def test_certified_ranks_take_no_float_rank(monkeypatch, policy):
    fiber, rank = fiber_rank_calls(monkeypatch)
    count = 0
    for scenario, names in shipped_isotropy_checks():
        for outcome in run_scenario(scenario, only=names).outcomes:
            assert outcome.result.verdict.value == outcome.spec.expect.upper()
            count += 1
    assert count == 13
    for n in (2, 3, 4):
        chart = Chart(f"R{n}", tuple(f"x{i}" for i in range(n)))
        r = check_maximal_isotropy(construct_L_theta(RandomTensors(chart, n).form(1)), policy)
        assert r.verdict is CheckVerdict.PASS and r.mode == "symbolic"
    assert fiber == [] and rank == []


def test_a_frame_is_eliminated_once(monkeypatch, r3, policy):
    eliminations = count_calls(monkeypatch, structures, "_eliminate")
    gen = RandomTensors(r3, 11)
    L = construct_L_theta(gen.form(1))
    assert check_maximal_isotropy(L, policy).passed
    assert check_involutivity(L, policy).passed
    for i in range(len(L.generators)):
        assert L.expand(L.bracket(0, i)).rank == 4
    assert len(eliminations) == 1


def test_no_fixture_check_calls_linalg(monkeypatch):
    from diracjacobi import linalg

    calls = []
    for name, fn in list(vars(linalg).items()):
        if callable(fn) and getattr(fn, "__module__", None) == linalg.__name__:
            monkeypatch.setattr(linalg, name, lambda *a, _name=name, **k: calls.append(_name))
    fixtures = Path(structures.__file__).parent / "fixtures"
    for path in sorted(fixtures.glob("*.scn")):
        for outcome in run_scenario(load_scenario(path)).outcomes:
            assert outcome.result.verdict.value == outcome.spec.expect.upper()
    assert calls == []
    importers = [
        name for name, module in sys.modules.items()
        if name.startswith("diracjacobi.") and module is not linalg
        and any(v is linalg or getattr(v, "__module__", None) == linalg.__name__
                for v in vars(module).values())
    ]
    assert importers == []

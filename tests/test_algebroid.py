"""Algebroid layer: cocycles, cochains, central extension, action bracket."""

from pathlib import Path

import numpy as np
import pytest

from diracjacobi import structures
from diracjacobi.algebroid import (
    AlgebroidOnL,
    Cocycle1,
    FrameCochain2,
    FrameExpansionError,
    TimeSection,
    action_algebroid_anchor,
    action_algebroid_bracket,
    algebroid_differential_2,
    central_extension_bracket,
    check_action_iso,
    check_cocycle,
    extract_cocycle,
    frame_expand_symbolic,
    omega_skew_half,
    psi,
)
from diracjacobi.chart_tensor import (
    Chart,
    ChartError,
    DifferentialForm,
    Multivector,
    VectorField,
    coordinate_field,
    coordinate_form,
    exterior_derivative,
    lie_bracket,
    product_chart,
    wedge,
)
from diracjacobi.courant import SectionE1, SectionTM, extended_courant_bracket
from diracjacobi.linalg import least_squares_coefficients
from diracjacobi.report import CheckVerdict
from diracjacobi.scenario import load_scenario, run_scenario
from diracjacobi.structures import (
    construct_L_jacobi,
    construct_L_theta,
    graph_of_two_form,
    induced_dirac_on_MxR,
    lift_dirac,
)
from diracjacobi.symcalc import Exp, ONE, ZERO, coord, is_structurally_zero, normalize, parse
from oracles import chained_action_anchor, chained_action_bracket, chained_psi, vector_at


def P(chart, text):
    return parse(text, chart.coords)


@pytest.fixture
def L_xdy(r2):
    return construct_L_theta(DifferentialForm(r2, 1, {(1,): P(r2, "x")}))


@pytest.fixture
def L_graph(r2):
    return graph_of_two_form(wedge(coordinate_form(r2, "x"), coordinate_form(r2, "y")))


class TestExtractCocycle:
    def test_theta_structure_slots(self, L_xdy):
        phi = extract_cocycle(L_xdy)
        assert phi.values == (ZERO, ZERO, ONE)

    def test_lift_vanishes(self, L_graph):
        phi = extract_cocycle(lift_dirac(L_graph))
        assert all(v == ZERO for v in phi.values)

    def test_jacobi_slots_are_f_reads(self, r3):
        # the f-slot of the dx_i generator is -dx_i(E); of the last, 0
        lam = Multivector(r3, 2, {(0, 1): ONE})
        E = VectorField.from_dict(r3, {"x": P(r3, "y"), "z": ONE})
        L = construct_L_jacobi(lam, E)
        phi = extract_cocycle(L)
        assert phi.values[0] == P(r3, "-y")
        assert phi.values[1] == ZERO
        assert phi.values[2] == normalize(-ONE)
        assert phi.values[3] == ZERO


class TestFrameExpansion:
    def test_exact_on_theta_frame(self, L_xdy, r2):
        s = (
            L_xdy.generators[0].scale(P(r2, "x*y"))
            + L_xdy.generators[2].scale(P(r2, "1 + y"))
        )
        coeffs = frame_expand_symbolic(L_xdy, s)
        assert coeffs[0] == P(r2, "x*y")
        assert coeffs[1] == ZERO
        assert coeffs[2] == P(r2, "1 + y")

    def test_rejects_outside_sections(self, L_xdy, r2):
        stray = SectionE1(
            VectorField.zero(r2), ZERO, coordinate_form(r2, "x"), ZERO
        )
        with pytest.raises(FrameExpansionError):
            frame_expand_symbolic(L_xdy, stray)


class TestCheckCocycle:
    def test_tautological_cocycle_passes(self, L_xdy, policy):
        assert check_cocycle(AlgebroidOnL(L_xdy), extract_cocycle(L_xdy), policy).passed

    def test_zero_cocycle_passes(self, L_xdy, policy):
        phi = Cocycle1((ZERO, ZERO, ZERO))
        assert check_cocycle(AlgebroidOnL(L_xdy), phi, policy).passed

    def test_constant_cochains_are_cocycles_here(self, L_xdy, policy):
        # all generator brackets of an L_theta frame vanish identically, so
        # constant-value cochains satisfy the cocycle identity
        phi = Cocycle1((ONE, ZERO, ZERO))
        assert check_cocycle(AlgebroidOnL(L_xdy), phi, policy).passed

    def test_nonconstant_noncocycle_fails(self, L_xdy, r2, policy):
        phi = Cocycle1((P(r2, "y"), ZERO, ZERO))
        r = check_cocycle(AlgebroidOnL(L_xdy), phi, policy)
        assert r.verdict is CheckVerdict.FAIL and r.witness is not None

    def test_conformal_cocycle(self, L_xdy, r2, policy):
        # the transformed frame reads f - mu(X) in its f-slots and the
        # tautological cocycle of the transformed frame passes
        from diracjacobi.structures import ConformalFactor, conformal_change
        from diracjacobi.chart_tensor import interior_product

        factor = ConformalFactor(P(r2, "1 + x^2/4"), r2)
        Lphi = conformal_change(L_xdy, factor)
        phi2 = extract_cocycle(Lphi)
        for g_old, value in zip(L_xdy.generators, phi2.values):
            mu_X = interior_product(g_old.X, factor.mu).scalar()
            assert is_structurally_zero(value - (g_old.f - mu_X))
        assert check_cocycle(AlgebroidOnL(Lphi), phi2, policy).passed


class TestTangentTimesLineModel:
    """A 1-form structure is the tangent-times-line algebroid in disguise:
    (X, f) -> (X, f) + (i_X dtheta + f theta, -i_X theta) intertwines the
    restricted bracket with ([X, Y], X(g) - Y(f)), exactly."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_bracket_intertwined(self, r2, r3, dim):
        import random

        from diracjacobi.chart_tensor import exterior_derivative, interior_product

        chart = r2 if dim == 2 else r3
        theta = (
            DifferentialForm(chart, 1, {(1,): P(chart, "x")})
            if dim == 2
            else DifferentialForm(chart, 1, {(2,): ONE, (0,): P(chart, "-y")})
        )
        dtheta = exterior_derivative(theta)

        def embed(X, f):
            return SectionE1(
                X,
                f,
                interior_product(X, dtheta) + theta.scale(f),
                normalize(parse("-1", chart.coords) * interior_product(X, theta).scalar()),
            )

        rng = random.Random(7 + dim)

        def rand_poly():
            cs = chart.coords
            return parse(
                " + ".join(f"{rng.randint(-2, 2)}*{m}" for m in ("1",) + cs),
                cs,
            )

        for _ in range(6):
            X = VectorField(chart, tuple(rand_poly() for _ in chart.coords))
            Y = VectorField(chart, tuple(rand_poly() for _ in chart.coords))
            f, g = rand_poly(), rand_poly()
            lhs = extended_courant_bracket(embed(X, f), embed(Y, g))
            rhs = embed(lie_bracket(X, Y), X.apply(g) - Y.apply(f))
            assert (lhs - rhs).is_structurally_zero()


class TestAnchorAndJacobi:
    def test_anchor_morphism_inside_frames(self, L_xdy, policy):
        """rho([a, b]) = [rho a, rho b] for generator pairs, via numeric
        frame expansion at samples."""
        L = L_xdy
        A = AlgebroidOnL(L)
        pts = policy.float_points(L.chart.coords, "anchor-test", 10)
        k = len(L.generators)
        for i in range(k):
            for j in range(i + 1, k):
                value = A.bracket_pair(i, j)
                lieb = lie_bracket(L.generators[i].X, L.generators[j].X)
                for p in pts:
                    B = L.fiber_matrix_at(p)
                    coeffs, resid = least_squares_coefficients(B, value.at(p))
                    assert resid < 1e-9
                    anchored = sum(
                        c * vector_at(L.generators[m].X, p) for m, c in enumerate(coeffs)
                    )
                    assert np.allclose(anchored, vector_at(lieb, p), atol=1e-8)

    def test_jacobi_identity_of_restricted_bracket(self, r3, policy):
        # the skew-bracket Jacobiator vanishes identically on sections of a
        # verified structure (here: a contact-type frame with real brackets)
        theta = DifferentialForm(r3, 1, {(2,): ONE, (0,): P(r3, "-y")})
        L = construct_L_theta(theta)
        gens = L.generators
        pts = policy.float_points(r3.coords, "jacobi-test", 6)
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                for k in range(j + 1, len(gens)):
                    a, b, c = gens[i], gens[j], gens[k]
                    s = (
                        extended_courant_bracket(extended_courant_bracket(a, b), c)
                        + extended_courant_bracket(extended_courant_bracket(b, c), a)
                        + extended_courant_bracket(extended_courant_bracket(c, a), b)
                    )
                    for p in pts:
                        assert np.linalg.norm(s.at(p)) < 1e-9


class TestCochain2:
    def test_skew_pairing_closed_vacuously_rank2(self, L_graph, policy):
        Om = FrameCochain2.from_function(L_graph, omega_skew_half)
        assert Om.value(0, 1) == ONE  # (dy(d/dy) - (-dx)(d/dx)) / 2 = 1
        assert algebroid_differential_2(AlgebroidOnL(L_graph), Om, policy).passed

    def test_skew_pairing_closed_substantive(self, policy):
        Q = Chart("Q", ("x1", "y1", "x2", "y2"))
        alpha = DifferentialForm(
            Q, 1, {(1,): P(Q, "x1"), (3,): P(Q, "x2 + x1*x2")}
        )
        L = graph_of_two_form(exterior_derivative(alpha))
        Om = FrameCochain2.from_function(L, omega_skew_half)
        r = algebroid_differential_2(AlgebroidOnL(L), Om, policy)
        assert r.passed and r.residual_max < 1e-7

    def test_zero_cochain_closed(self, L_graph, policy):
        Om = FrameCochain2.from_table(2, {})
        assert algebroid_differential_2(AlgebroidOnL(L_graph), Om, policy).passed

    def test_random_nonclosed_fails_with_witness(self, policy):
        Q = Chart("Q", ("x1", "y1", "x2", "y2"))
        alpha = DifferentialForm(Q, 1, {(1,): P(Q, "x1"), (3,): P(Q, "x2")})
        L = graph_of_two_form(exterior_derivative(alpha))
        bad = FrameCochain2.from_table(
            4,
            {
                (0, 1): P(Q, "x1 + y2^2"),
                (0, 2): P(Q, "2*x2"),
                (1, 3): P(Q, "x1*x2"),
            },
        )
        r = algebroid_differential_2(AlgebroidOnL(L), bad, policy)
        assert r.verdict is CheckVerdict.FAIL
        assert r.witness is not None and "triple" in r.witness

    def test_antisymmetry_enforced(self):
        with pytest.raises(Exception):
            FrameCochain2.from_table(2, {(0, 0): ONE})


class TestCentralExtension:
    def test_zero_data(self, L_graph):
        g1, g2 = L_graph.generators
        sec, scalar = central_extension_bracket(
            AlgebroidOnL(L_graph), lambda a, b: ZERO, (g1, ZERO), (g2, ZERO)
        )
        assert is_structurally_zero(scalar)
        assert (sec.X - lie_bracket(g1.X, g2.X)).is_zero_field

    def test_graph_scalar_slot_is_one(self, L_graph):
        g1, g2 = L_graph.generators
        _, scalar = central_extension_bracket(
            AlgebroidOnL(L_graph), omega_skew_half, (g1, ZERO), (g2, ZERO)
        )
        assert scalar == ONE

    def test_agrees_with_extended_bracket_on_lifted_sections(self, L_graph, r2, policy):
        A0 = AlgebroidOnL(L_graph)
        f1, f2 = P(r2, "x*y"), P(r2, "x - y^2")
        for i in range(2):
            for j in range(2):
                if i == j:
                    continue
                gi, gj = L_graph.generators[i], L_graph.generators[j]
                li = SectionE1(gi.X, ZERO, gi.xi, f1)
                lj = SectionE1(gj.X, ZERO, gj.xi, f2)
                eb = extended_courant_bracket(li, lj)
                ce_sec, ce_scalar = central_extension_bracket(
                    A0, omega_skew_half, (gi, f1), (gj, f2)
                )
                assert (eb.X - ce_sec.X).is_zero_field
                assert is_structurally_zero(eb.f)
                assert (eb.xi - ce_sec.xi).is_zero_table
                assert is_structurally_zero(eb.g - ce_scalar)

    def test_bilinearity_over_constants(self, L_graph, r2):
        g1, g2 = L_graph.generators
        f1, f2 = P(r2, "x"), P(r2, "y")
        br = lambda a, b: central_extension_bracket(
            AlgebroidOnL(L_graph), omega_skew_half, a, b
        )
        s1, c1 = br((g1.scale(3), normalize(3 * f1)), (g2, f2))
        s2, c2 = br((g1, f1), (g2, f2))
        assert (s1.X - s2.X.scale(3)).is_zero_field
        assert is_structurally_zero(c1 - normalize(3 * c2))


class TestActionAlgebroid:
    def test_trivial_case_reduces_to_base(self, L_xdy, policy):
        A = AlgebroidOnL(L_xdy)
        phi = extract_cocycle(L_xdy)
        C = product_chart(L_xdy.chart, "t")
        a = TimeSection.unit(L_xdy, C, "t", 0)
        b = TimeSection.unit(L_xdy, C, "t", 1)
        out = action_algebroid_bracket(A, phi, a, b)
        assert all(is_structurally_zero(c) for c in out.coeffs)  # base brackets vanish
        anch = action_algebroid_anchor(A, phi, a)
        assert anch.components[-1] == ZERO  # phi(e_0) = 0: no d/dt part

    def test_t_linear_twist(self, L_xdy, policy):
        # [t e, e] = -e for the phi(e) = 1 generator
        A = AlgebroidOnL(L_xdy)
        phi = extract_cocycle(L_xdy)
        C = product_chart(L_xdy.chart, "t")
        e = TimeSection.unit(L_xdy, C, "t", 2)
        te = e.scale(coord("t"))
        out = action_algebroid_bracket(A, phi, te, e)
        assert out.coeffs == (ZERO, ZERO, normalize(-ONE))

    def test_anchor_of_unit_section(self, L_xdy):
        A = AlgebroidOnL(L_xdy)
        phi = extract_cocycle(L_xdy)
        C = product_chart(L_xdy.chart, "t")
        e = TimeSection.unit(L_xdy, C, "t", 2)
        anch = action_algebroid_anchor(A, phi, e)
        assert anch.components == (ZERO, ZERO, ONE)  # = d/dt

    def test_realize_concretizes_coefficients(self, L_xdy, r2):
        C = product_chart(L_xdy.chart, "t")
        ts = TimeSection.unit(L_xdy, C, "t", 0).scale(parse("t*y", C.coords))
        got = ts.realize()
        src = L_xdy.generators[0]
        assert got.chart == C
        assert got.X.components[:2] == tuple(
            normalize(parse("t*y", C.coords) * c) for c in src.X.components
        )
        assert got.X.components[2] == ZERO  # no d/dt part
        assert got.xi.coefficient((1,)) == parse("t*y", C.coords)  # t*y * dy slot

    def test_action_iso_on_theta_and_lift(self, L_xdy, L_graph, policy):
        assert check_action_iso(L_xdy, policy).passed
        assert check_action_iso(lift_dirac(L_graph), policy).passed

    def test_action_iso_contact(self, r3, policy):
        theta = DifferentialForm(r3, 1, {(2,): ONE, (0,): P(r3, "-y")})
        assert check_action_iso(construct_L_theta(theta), policy).passed

    def test_drop_scale_negative_control(self, L_xdy, policy):
        r = check_action_iso(L_xdy, policy, drop_scale=True)
        assert r.verdict is CheckVerdict.FAIL

    def test_unverified_frame_errors(self, r2, policy):
        bad = construct_L_theta(DifferentialForm(r2, 1, {(1,): P(r2, "x")}))
        bad = type(bad)(
            bad.ambient,
            bad.chart,
            bad.generators + (bad.generators[0].scale(P(r2, "x")),),
            bad.rank,
        )
        # duplicate-direction generator breaks no axiom, so this still passes;
        # a genuinely non-isotropic frame must ERROR instead
        from diracjacobi.courant import SectionE1 as S1

        worse = type(bad)(
            bad.ambient,
            bad.chart,
            (S1(coordinate_field(r2, "x"), ZERO, coordinate_form(r2, "x"), ZERO),)
            + bad.generators[1:3],
            3,
        )
        r = check_action_iso(worse, policy)
        assert r.verdict is CheckVerdict.ERROR


# --------------------------------------------------------------------------
# the one-pass action algebroid against the chained reference
# --------------------------------------------------------------------------

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "diracjacobi" / "fixtures"


def _shipped_action_iso_frames():
    """(frame, time) of every shipped action-iso check."""
    out = []
    for path in sorted(FIXTURES.glob("*.scn")):
        for spec in load_scenario(path).checks:
            if spec.kind == "action-iso":
                args = spec.args
                out.append(pytest.param(args["structure"], args["time"],
                                        id=f"{path.stem}/{spec.name}"))
    return out


def _test_sections(L, time):
    """The unit TimeSections and their multiples by the time coordinate."""
    chart = product_chart(L.chart, time)
    sections = [TimeSection.unit(L, chart, time, i) for i in range(len(L.generators))]
    return sections + [s.scale(coord(time)) for s in sections]


def _images(L, time, drop_scale):
    images = induced_dirac_on_MxR(L, time=time).generators
    if drop_scale:
        decay = normalize(ONE / normalize(Exp(coord(time))))
        images = tuple(SectionTM(g.X, g.xi.scale(decay)) for g in images)
    return images


class TestOnePassActionAlgebroid:
    @pytest.mark.parametrize("L, time", _shipped_action_iso_frames())
    def test_agrees_with_chained_reference(self, L, time):
        A = AlgebroidOnL(L)
        phi = extract_cocycle(L)
        sections = _test_sections(L, time)
        for drop_scale in (False, True):
            images = _images(L, time, drop_scale)
            for s in sections:
                assert psi(images, s).rows() == chained_psi(images, s).rows()
            for a in sections:
                for b in sections:
                    got = action_algebroid_bracket(A, phi, a, b)
                    assert list(got.coeffs) == chained_action_bracket(A, phi, a, b)
                    assert psi(images, got).rows() == chained_psi(images, got).rows()
        for s in sections:
            assert (action_algebroid_anchor(A, phi, s).components
                    == chained_action_anchor(A, phi, s).components)

    def test_bracket_rejects_a_second_section_of_another_frame(self, L_xdy, r2):
        other = construct_L_theta(DifferentialForm(r2, 1, {(1,): P(r2, "x + y^2")}))
        A = AlgebroidOnL(L_xdy)
        C = product_chart(r2, "t")
        a = TimeSection.unit(L_xdy, C, "t", 0)
        b = TimeSection.unit(other, C, "t", 1)
        with pytest.raises(ChartError, match="different frame"):
            action_algebroid_bracket(A, extract_cocycle(L_xdy), a, b)
        with pytest.raises(ChartError, match="different frame"):
            action_algebroid_bracket(A, extract_cocycle(L_xdy), b, a)


class TestBracketsOncePerFrame:
    @pytest.fixture
    def frames(self, r3):
        Q = Chart("Q", ("x1", "y1", "x2", "y2"))
        alpha = DifferentialForm(Q, 1, {(1,): P(Q, "x1"), (3,): P(Q, "x2 + x1*x2")})
        contact = construct_L_theta(DifferentialForm(r3, 1, {(2,): ONE, (0,): P(r3, "-y")}))
        jacobi = construct_L_jacobi(
            Multivector(r3, 2, {(0, 1): P(r3, "z")}), VectorField.from_dict(r3, {"x": P(r3, "y")}))
        return [contact, jacobi, graph_of_two_form(exterior_derivative(alpha))]

    def test_cached_expansion_equals_a_fresh_one(self, frames):
        for L in frames:
            k = len(L.generators)
            for i in range(k):
                for j in range(k):
                    cached = L.bracket_expansion(i, j)
                    assert L.bracket_expansion(i, j) is cached
                    assert cached == L.expand(L.bracket(i, j))

    def test_each_generator_pair_of_a_lifted_frame_is_bracketed_once(self, monkeypatch):
        calls = []
        for fn in (structures.extended_courant_bracket, structures.courant_bracket):
            def counting(a, b, fn=fn):
                calls.append((a, b))
                return fn(a, b)
            monkeypatch.setattr(structures, fn.__name__, counting)
        scn = load_scenario(FIXTURES / "dirac_lift.scn")
        assert all(o.ok for o in run_scenario(scn).outcomes)
        for name, L in scn.structures.items():
            pairs = _bracketed_pairs(calls, L.generators)
            assert len(pairs) == len(set(pairs)) and all(i < j for i, j in pairs), name
        k = len(scn.structures["LiftForm"].generators)
        assert sorted(_bracketed_pairs(calls, scn.structures["LiftForm"].generators)) == [
            (i, j) for i in range(k) for j in range(i + 1, k)]


def _bracketed_pairs(calls, gens):
    """The generator index pairs (i, j) of every call bracketing generator i with j."""
    index = {id(g): i for i, g in enumerate(gens)}
    return [(index[id(a)], index[id(b)]) for a, b in calls if id(a) in index and id(b) in index]


class TestCochainOrientation:
    def test_both_orientations_of_a_pair_are_rejected(self, r2):
        x = P(r2, "x")
        for table in ({(0, 1): x, (1, 0): normalize(-x)}, {(0, 1): x, (1, 0): x}):
            with pytest.raises(ChartError, match="both orientations"):
                FrameCochain2.from_table(2, table)

    def test_one_orientation_reads_both_ways(self, r2):
        x = P(r2, "x")
        Om = FrameCochain2.from_table(3, {(1, 0): x, (1, 2): ONE})
        assert Om.value(1, 0) == x and Om.value(0, 1) == normalize(-x)
        assert Om.value(2, 1) == normalize(-ONE) and Om.value(0, 2) == ZERO
        assert Om.value(1, 1) == ZERO

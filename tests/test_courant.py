"""Pairings and brackets on TM + T*M and E1(M), slot by slot."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracjacobi.chart_tensor import (
    Chart,
    ChartError,
    DifferentialForm,
    VectorField,
    coordinate_field,
    coordinate_form,
    differential,
)
from diracjacobi.courant import (
    SectionE1,
    SectionTM,
    courant_bracket,
    extended_courant_bracket,
    pairing_e1,
    pairing_tm,
)
from diracjacobi.structures import construct_L_jacobi, construct_L_theta
from diracjacobi.symcalc import ONE, ZERO, is_structurally_zero, normalize, parse, render

from conftest import RandomTensors
from oracles import (
    chained_courant_bracket,
    chained_extended_bracket,
    chained_pairing_e1,
    chained_pairing_tm,
    fd_courant_bracket,
    fd_extended_bracket,
)


def P(chart, text):
    return parse(text, chart.coords)


def rand_tm(gen):
    return SectionTM(gen.vector_field(), gen.form(1))


def rand_e1(gen):
    return SectionE1(gen.vector_field(), gen.poly(), gen.form(1), gen.poly())


class TestPairingTM:
    def test_unit_self_pairing(self, r2):
        a = SectionTM(coordinate_field(r2, "x"), coordinate_form(r2, "x"))
        assert pairing_tm(a, a) == ONE

    def test_mixed_pairing(self, r2):
        a = SectionTM(coordinate_field(r2, "x"), coordinate_form(r2, "x").scale(P(r2, "x")))
        b = SectionTM(coordinate_field(r2, "x"), coordinate_form(r2, "x"))
        # oracle: ((x dx)(dx) + dx(dx))/2 by direct numeric contraction
        for x in (0.0, 0.5, -1.2):
            va = a.at({"x": x, "y": 0.0})
            vb = b.at({"x": x, "y": 0.0})
            num = 0.5 * (va[2:] @ vb[:2] + vb[2:] @ va[:2])
            assert abs(num - (x + 1) / 2) < 1e-12
        assert pairing_tm(a, b) == P(r2, "(x + 1)/2")

    def test_tangent_isotropy(self, rand_r2):
        a = SectionTM(rand_r2.vector_field(), DifferentialForm.zero(rand_r2.chart, 1))
        b = SectionTM(rand_r2.vector_field(), DifferentialForm.zero(rand_r2.chart, 1))
        assert is_structurally_zero(pairing_tm(a, b))

    def test_symmetry_random(self, rand_r2):
        a, b = rand_tm(rand_r2), rand_tm(rand_r2)
        assert is_structurally_zero(pairing_tm(a, b) - pairing_tm(b, a))


class TestCourantBracket:
    def test_translation_example(self, r2):
        a = SectionTM(coordinate_field(r2, "x"), DifferentialForm.zero(r2, 1))
        b = SectionTM(VectorField.zero(r2), coordinate_form(r2, "x").scale(P(r2, "x")))
        got = courant_bracket(a, b)
        assert got.X.is_zero_field and got.xi == coordinate_form(r2, "x")

    def test_two_forms_bracket_trivially(self, rand_r2):
        chart = rand_r2.chart
        a = SectionTM(VectorField.zero(chart), rand_r2.form(1))
        b = SectionTM(VectorField.zero(chart), rand_r2.form(1))
        assert courant_bracket(a, b).is_structurally_zero()

    def test_coordinate_fields(self, r2):
        a = SectionTM(coordinate_field(r2, "x"), DifferentialForm.zero(r2, 1))
        b = SectionTM(coordinate_field(r2, "y"), DifferentialForm.zero(r2, 1))
        assert courant_bracket(a, b).is_structurally_zero()

    def test_not_antisymmetric_in_general(self, r2):
        a = SectionTM(coordinate_field(r2, "x"), coordinate_form(r2, "x").scale(P(r2, "x")))
        s = courant_bracket(a, a)
        assert not s.is_structurally_zero()  # [a, a] = d<a, a> != 0 off isotropy

    def test_finite_difference_oracle(self, rand_r2):
        a, b = rand_tm(rand_r2), rand_tm(rand_r2)
        got = courant_bracket(a, b)
        for _ in range(4):
            p = rand_r2.point()
            vec, form = fd_courant_bracket(a, b, p)
            want = got.at(p)
            assert np.allclose(vec, want[:2], atol=1e-5)
            assert np.allclose(form, want[2:], atol=1e-5)


class TestPairingE1:
    def test_unit(self, r2):
        a = SectionE1(coordinate_field(r2, "x"), ZERO, coordinate_form(r2, "x"), ZERO)
        assert pairing_e1(a, a) == ONE

    def test_scalar_slots_only(self, r2):
        z1 = DifferentialForm.zero(r2, 1)
        a = SectionE1(VectorField.zero(r2), ONE, z1, ZERO)
        b = SectionE1(VectorField.zero(r2), ZERO, z1, ONE)
        assert pairing_e1(a, b) == normalize(parse("1/2", r2.coords))

    def test_extended_tangent_isotropy(self, rand_r2):
        chart = rand_r2.chart
        z1 = DifferentialForm.zero(chart, 1)
        a = SectionE1(rand_r2.vector_field(), rand_r2.poly(), z1, ZERO)
        b = SectionE1(rand_r2.vector_field(), rand_r2.poly(), z1, ZERO)
        assert is_structurally_zero(pairing_e1(a, b))

    def test_symmetry_random(self, rand_r2):
        a, b = rand_e1(rand_r2), rand_e1(rand_r2)
        assert is_structurally_zero(pairing_e1(a, b) - pairing_e1(b, a))


class TestExtendedBracket:
    def test_term_by_term_example(self, r2):
        # oracle: hand expansion of every term of the defining formula;
        # L_{dx}(x dx) = dx, d(i-terms)/2 = -dx/2, g-slot = -x/2
        z1 = DifferentialForm.zero(r2, 1)
        a = SectionE1(coordinate_field(r2, "x"), ZERO, z1, ZERO)
        b = SectionE1(VectorField.zero(r2), ZERO, coordinate_form(r2, "x").scale(P(r2, "x")), ZERO)
        got = extended_courant_bracket(a, b)
        assert got.X.is_zero_field and is_structurally_zero(got.f)
        assert got.xi == coordinate_form(r2, "x").scale(normalize(parse("1/2", r2.coords)))
        assert got.g == P(r2, "-x/2")

    def test_constant_scalars_commute(self, r2):
        z1 = DifferentialForm.zero(r2, 1)
        a = SectionE1(VectorField.zero(r2), ONE, z1, ZERO)
        assert extended_courant_bracket(a, a).is_structurally_zero()

    def test_antisymmetry_random(self, rand_r2):
        a, b = rand_e1(rand_r2), rand_e1(rand_r2)
        s = extended_courant_bracket(a, b) + extended_courant_bracket(b, a)
        assert s.is_structurally_zero()

    def test_restriction_to_tm_sections(self, rand_r2):
        """On f = g = 0 sections the slots reproduce the non-skew bracket up
        to the exact symmetric correction -d<a, b> in the form slot."""
        chart = rand_r2.chart
        at, bt = rand_tm(rand_r2), rand_tm(rand_r2)
        ae = SectionE1(at.X, ZERO, at.xi, ZERO)
        be = SectionE1(bt.X, ZERO, bt.xi, ZERO)
        skew = extended_courant_bracket(ae, be)
        plain = courant_bracket(at, bt)
        assert (skew.X - plain.X).is_zero_field
        assert is_structurally_zero(skew.f)
        correction = differential(chart, pairing_tm(at, bt))
        assert (skew.xi - (plain.xi - correction)).is_zero_table
        # exact agreement when the pairing vanishes: graph generators of a
        # closed 2-form pair to zero, so the correction dies there
        from diracjacobi.structures import graph_of_two_form
        from diracjacobi.chart_tensor import wedge

        omega = wedge(coordinate_form(chart, "x"), coordinate_form(chart, "y"))
        g1, g2 = graph_of_two_form(omega).generators
        skew3 = extended_courant_bracket(
            SectionE1(g1.X, ZERO, g1.xi, ZERO), SectionE1(g2.X, ZERO, g2.xi, ZERO)
        )
        plain3 = courant_bracket(g1, g2)
        assert (skew3.xi - plain3.xi).is_zero_table
        assert (skew3.X - plain3.X).is_zero_field

    def test_function_linearity_with_anchor_and_pairing_terms(self, rand_r2):
        """[a, h b] = h [a, b] + (X_a h) b - <a, b> (0, 0, dh, 0), exactly."""
        chart = rand_r2.chart
        a, b = rand_e1(rand_r2), rand_e1(rand_r2)
        h = rand_r2.poly()
        lhs = extended_courant_bracket(a, b.scale(h))
        correction = SectionE1(
            VectorField.zero(chart),
            ZERO,
            differential(chart, h).scale(pairing_e1(a, b)),
            ZERO,
        )
        rhs = extended_courant_bracket(a, b).scale(h) + b.scale(a.X.apply(h)) - correction
        assert (lhs - rhs).is_structurally_zero()

    def test_vector_slot_leibniz(self, rand_r2):
        a, b = rand_e1(rand_r2), rand_e1(rand_r2)
        h = rand_r2.poly()
        lhs = extended_courant_bracket(a, b.scale(h)).X
        rhs = extended_courant_bracket(a, b).X.scale(h) + b.X.scale(a.X.apply(h))
        assert (lhs - rhs).is_zero_field

    def test_chart_mismatch(self, r2, r3):
        a = SectionE1(
            VectorField.zero(r2), ZERO, DifferentialForm.zero(r2, 1), ZERO
        )
        b = SectionE1(
            VectorField.zero(r3), ZERO, DifferentialForm.zero(r3, 1), ZERO
        )
        with pytest.raises(ChartError):
            extended_courant_bracket(a, b)
        with pytest.raises(ChartError):
            pairing_e1(a, b)


def assert_matches_fd_oracle(a, b, points):
    got = extended_courant_bracket(a, b)
    n = a.chart.dim
    for p in points:
        vec, f, form, g = fd_extended_bracket(a, b, p)
        want = got.at(p)
        assert np.allclose(vec, want[:n], atol=1e-5)
        assert np.allclose([f, g], [want[n], want[-1]], atol=1e-5)
        assert np.allclose(form, want[n + 1 : -1], atol=1e-5)


class TestExtendedBracketOracle:
    """The bracket against finite differences, where its zero-scaled
    differential terms are dropped: one side's f or g is structurally zero
    and the other's is not."""

    @pytest.mark.parametrize("zero_slots", [("f",), ("g",), ("f", "g")])
    def test_one_sided_zero_scalars(self, rand_r2, zero_slots):
        a = rand_e1(rand_r2)
        b = rand_e1(rand_r2)
        a = SectionE1(a.X, ZERO if "f" in zero_slots else a.f, a.xi,
                      ZERO if "g" in zero_slots else a.g)
        points = [rand_r2.point() for _ in range(3)]
        assert_matches_fd_oracle(a, b, points)
        assert_matches_fd_oracle(b, a, points)

    def test_zero_scalars_on_both_sides(self, rand_r2):
        a = SectionE1(rand_r2.vector_field(), ZERO, rand_r2.form(1), rand_r2.poly())
        b = SectionE1(rand_r2.vector_field(), rand_r2.poly(), rand_r2.form(1), ZERO)
        assert_matches_fd_oracle(a, b, [rand_r2.point() for _ in range(3)])

    def test_L_theta_generator_pairs(self, rand_r3):
        L = construct_L_theta(rand_r3.form(1))
        points = [rand_r3.point() for _ in range(2)]
        gens = L.generators
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                assert_matches_fd_oracle(gens[i], gens[j], points)


# -- one-pass assembly against the chained references ------------------------

# monomials of the hypothesis sections: polynomial and exp factors, no quotients
MONOMIALS = {
    2: ("1", "x", "y", "x*y", "x^2", "exp(x)", "y*exp(-y)", "exp(x + y)"),
    3: ("1", "x", "z", "y*z", "x^2*y", "exp(z)", "x*exp(y - x)", "exp(2*x)"),
}


@st.composite
def polys(draw, chart):
    """A nonzero polynomial over MONOMIALS: distinct monomials, nonzero coefficients."""
    terms = draw(st.lists(
        st.tuples(st.integers(-3, 3).filter(bool), st.sampled_from(MONOMIALS[chart.dim])),
        min_size=1, max_size=3, unique_by=lambda t: t[1],
    ))
    return parse(" + ".join(f"{c}*{m}" for c, m in terms), chart.coords)


@st.composite
def e1_sections(draw, chart):
    """An E1 section with every component of X, f, xi and g nonzero."""
    n = chart.dim
    X = VectorField(chart, tuple(draw(polys(chart)) for _ in range(n)))
    xi = DifferentialForm(chart, 1, {(i,): draw(polys(chart)) for i in range(n)})
    return SectionE1(X, draw(polys(chart)), xi, draw(polys(chart)))


def assert_rows_agree(got, want):
    for g, w in zip(got.rows(), want.rows(), strict=True):
        assert is_structurally_zero(g - w), (g, w)


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_one_pass_brackets_and_pairings_match_chained(dim, data):
    chart = Chart(f"R{dim}", ("x", "y", "z")[:dim])
    a, b = data.draw(e1_sections(chart)), data.draw(e1_sections(chart))
    assert_rows_agree(extended_courant_bracket(a, b), chained_extended_bracket(a, b))
    assert is_structurally_zero(pairing_e1(a, b) - chained_pairing_e1(a, b))
    s, t = SectionTM(a.X, a.xi), SectionTM(b.X, b.xi)
    assert_rows_agree(courant_bracket(s, t), chained_courant_bracket(s, t))
    assert is_structurally_zero(pairing_tm(s, t) - chained_pairing_tm(s, t))


def rendered(section):
    return [render(r) for r in section.rows()]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_pass_renders_like_chained_on_structure_frames(r3, seed):
    gen = RandomTensors(r3, seed)
    for L in (construct_L_theta(gen.form(1)),
              construct_L_jacobi(gen.multivector(2), gen.vector_field())):
        gens = L.generators
        for i in range(len(gens)):
            for j in range(len(gens)):
                a, b = gens[i], gens[j]
                assert rendered(extended_courant_bracket(a, b)) == rendered(
                    chained_extended_bracket(a, b))
                assert render(pairing_e1(a, b)) == render(chained_pairing_e1(a, b))

"""Chart tensor calculus: operators, conventions, and the classical identities."""

import numpy as np
import pytest

from diracjacobi.chart_tensor import (
    Chart,
    ChartError,
    DifferentialForm,
    Multivector,
    SmoothMap,
    VectorField,
    coordinate_field,
    coordinate_form,
    exterior_derivative,
    identity_map,
    interior_product,
    lie_bracket,
    lie_derivative,
    product_chart,
    pullback,
    sharp,
    wedge,
)
from diracjacobi.symcalc import ONE, ZERO, differentiate, normalize, parse

from conftest import RandomTensors
from oracles import (
    covector_at,
    dense_exterior_derivative,
    dense_form,
    dense_interior,
    fd_jacobian,
    expr_fn,
    flow_commutator,
    pushforward_at_point,
    vector_at,
)


def P(chart, text):
    return parse(text, chart.coords)


class TestChart:
    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ChartError):
            Chart("bad", ("x", "x"))

    def test_reserved_names_rejected(self):
        with pytest.raises(ChartError):
            Chart("bad", ("exp",))

    def test_component_count_enforced(self, r2):
        with pytest.raises(ChartError):
            VectorField(r2, (ZERO,))

    def test_foreign_symbols_rejected(self, r2):
        with pytest.raises(ChartError):
            VectorField(r2, (parse("q", ("q",)), ZERO))


class TestExteriorDerivative:
    def test_d_x_dy(self, r2):
        w = DifferentialForm(r2, 1, {(1,): P(r2, "x")})
        assert exterior_derivative(w) == DifferentialForm(r2, 2, {(0, 1): ONE})

    def test_d_contact_form(self, r3):
        # oracle (dense finite-difference d) first, frozen value second
        theta = DifferentialForm(r3, 1, {(2,): ONE, (0,): P(r3, "-y")})
        d = exterior_derivative(theta)
        point = {"x": 0.3, "y": -0.7, "z": 1.1}
        assert np.allclose(
            dense_exterior_derivative(theta, point), dense_form(d, point), atol=1e-6
        )
        assert d == DifferentialForm(r3, 2, {(0, 1): ONE})

    def test_d_scalar(self, r2):
        f = DifferentialForm.from_scalar(r2, P(r2, "x^2*y"))
        assert exterior_derivative(f) == DifferentialForm(
            r2, 1, {(0,): P(r2, "2*x*y"), (1,): P(r2, "x^2")}
        )

    def test_d_top_form_is_zero(self, r2):
        top = DifferentialForm(r2, 2, {(0, 1): P(r2, "x*y")})
        assert exterior_derivative(top).is_zero_table

    def test_d_squared_zero_random(self, rand_r3, policy):
        for _ in range(12):
            for degree in (0, 1, 2):
                w = rand_r3.form(degree)
                assert exterior_derivative(exterior_derivative(w)).is_zero_table


class TestLieBracket:
    def test_coordinate_fields_commute(self, r2):
        assert lie_bracket(coordinate_field(r2, "x"), coordinate_field(r2, "y")).is_zero_field

    def test_x_dy_with_dx(self, r2):
        # oracle: finite-difference flow commutator, then the frozen value
        X = VectorField.from_dict(r2, {"y": P(r2, "x")})
        Y = coordinate_field(r2, "x")
        got = lie_bracket(X, Y)
        p = {"x": 0.4, "y": -0.2}
        assert np.allclose(flow_commutator(X, Y, p), vector_at(got, p), atol=1e-4)
        assert got.components == (ZERO, normalize(-ONE))

    def test_self_bracket_vanishes(self, rand_r3):
        X = rand_r3.vector_field()
        assert lie_bracket(X, X).is_zero_field

    def test_jacobi_identity_random(self, rand_r3):
        for _ in range(8):
            X, Y, Z = (rand_r3.vector_field() for _ in range(3))
            s = (
                lie_bracket(X, lie_bracket(Y, Z))
                + lie_bracket(Y, lie_bracket(Z, X))
                + lie_bracket(Z, lie_bracket(X, Y))
            )
            assert s.is_zero_field

    def test_flow_commutator_random(self, r2):
        # gentle affine fields keep the flow-square error term small
        import random

        rng = random.Random(12)

        def affine():
            return VectorField(
                r2,
                tuple(
                    P(r2, f"{rng.randint(-1, 1)} + {rng.randint(-1, 1)}*x + {rng.randint(-1, 1)}*y")
                    for _ in r2.coords
                ),
            )

        for _ in range(4):
            X, Y = affine(), affine()
            p = {c: rng.uniform(-0.5, 0.5) for c in r2.coords}
            sym = vector_at(lie_bracket(X, Y), p)
            orc = flow_commutator(X, Y, p)
            assert np.linalg.norm(orc - sym) <= 1e-3 * (1 + np.linalg.norm(sym))


class TestInteriorProduct:
    def test_first_slot(self, r2):
        dxdy = wedge(coordinate_form(r2, "x"), coordinate_form(r2, "y"))
        assert interior_product(coordinate_field(r2, "x"), dxdy) == coordinate_form(r2, "y")

    def test_scalar_form_rejected(self, r2):
        with pytest.raises(ChartError):
            interior_product(coordinate_field(r2, "x"), DifferentialForm.from_scalar(r2, ONE))

    def test_returns_value_of_one_form(self, r2):
        theta = DifferentialForm(r2, 1, {(1,): P(r2, "x")})
        got = interior_product(coordinate_field(r2, "y"), theta)
        assert got.scalar() == P(r2, "x")

    def test_homogeneous_two_form_contraction(self, r2):
        # i_dt(d(e^t eta)) = e^t eta for t-independent eta; oracle: hand
        # expansion d(e^t eta) = e^t dt^eta + e^t d eta, so the dt slot
        # contributes exactly e^t eta.
        C = product_chart(r2, "t")
        eta = DifferentialForm(C, 1, {(1,): P(C, "x")})
        omega = exterior_derivative(eta.scale(P(C, "exp(t)")))
        got = interior_product(coordinate_field(C, "t"), omega)
        assert (got - eta.scale(P(C, "exp(t)"))).is_zero_table

    def test_double_contraction_zero(self, rand_r3):
        X = rand_r3.vector_field()
        w = rand_r3.form(2)
        assert interior_product(X, interior_product(X, w)).is_zero_table

    def test_antiderivation_random(self, rand_r3, policy):
        for _ in range(8):
            X = rand_r3.vector_field()
            a = rand_r3.form(1)
            b = rand_r3.form(1)
            lhs = interior_product(X, wedge(a, b))
            rhs = wedge(interior_product(X, a), b) - wedge(a, interior_product(X, b))
            assert (lhs - rhs).is_zero_table

    def test_dense_contraction_oracle(self, rand_r3):
        X = rand_r3.vector_field()
        w = rand_r3.form(2)
        p = rand_r3.point()
        got = interior_product(X, w)
        assert np.allclose(
            dense_interior(vector_at(X, p), dense_form(w, p)), dense_form(got, p), atol=1e-9
        )


class TestLieDerivative:
    def test_translation_of_x_dx(self, r2):
        w = DifferentialForm(r2, 1, {(0,): P(r2, "x")})
        assert lie_derivative(coordinate_field(r2, "x"), w) == coordinate_form(r2, "x")

    def test_homogeneity_of_exponential_form(self, r2):
        C = product_chart(r2, "t")
        eta = DifferentialForm(C, 1, {(1,): P(C, "x")})
        omega = exterior_derivative(eta.scale(P(C, "exp(t)")))
        got = lie_derivative(coordinate_field(C, "t"), omega)
        assert (got - omega).is_zero_table

    def test_naturality_with_d(self, rand_r3):
        X = rand_r3.vector_field()
        g = rand_r3.poly()
        lhs = lie_derivative(X, exterior_derivative(DifferentialForm.from_scalar(X.chart, g)))
        rhs = exterior_derivative(DifferentialForm.from_scalar(X.chart, X.apply(g)))
        assert (lhs - rhs).is_zero_table

    def test_cartan_formula_random(self, rand_r3):
        for degree in (1, 2):
            for _ in range(6):
                X = rand_r3.vector_field()
                w = rand_r3.form(degree)
                lhs = lie_derivative(X, w)
                rhs = interior_product(X, exterior_derivative(w)) + exterior_derivative(
                    interior_product(X, w)
                )
                assert (lhs - rhs).is_zero_table


class TestWedge:
    def test_basis_wedge(self, r2):
        got = wedge(coordinate_form(r2, "x"), coordinate_form(r2, "y"))
        assert got == DifferentialForm(r2, 2, {(0, 1): ONE})

    def test_self_wedge_zero(self, r3):
        dt = coordinate_form(r3, "x")
        assert wedge(dt, dt).is_zero_table

    def test_multivector_self_wedge_zero(self, r3):
        dt_field = Multivector(r3, 1, {(2,): ONE})
        assert wedge(dt_field, dt_field).is_zero_table

    def test_bilinearity_example(self, r2):
        a = coordinate_form(r2, "x") + coordinate_form(r2, "y")
        got = wedge(a, coordinate_form(r2, "x"))
        assert got == DifferentialForm(r2, 2, {(0, 1): normalize(-ONE)})

    def test_kind_mismatch(self, r2):
        with pytest.raises(ChartError):
            wedge(coordinate_form(r2, "x"), Multivector(r2, 1, {(0,): ONE}))

    def test_graded_commutativity(self, rand_r3):
        a = rand_r3.form(1)
        b = rand_r3.form(2)
        assert (wedge(a, b) - wedge(b, a)).is_zero_table  # (-1)^{1*2} = +1
        c = rand_r3.form(1)
        assert (wedge(a, c) + wedge(c, a)).is_zero_table


class TestPullback:
    def test_chain_rule(self, r2):
        R1 = Chart("R1", ("x",))
        F = SmoothMap.from_exprs(R1, r2, [parse("x", ("x",)), parse("x^2", ("x",))])
        assert pullback(F, coordinate_form(r2, "y")) == DifferentialForm(
            R1, 1, {(0,): parse("2*x", ("x",))}
        )

    def test_projection(self, r3):
        # pi_1 on a two-copy chart sends dx to the first-copy dx
        C = Chart("C", ("x1", "x2", "t"))
        M = Chart("M", ("x",))
        pi1 = SmoothMap.from_exprs(C, M, [parse("x1", C.coords)])
        got = pullback(pi1, coordinate_form(M, "x"))
        assert got == coordinate_form(C, "x1")

    def test_naturality_random(self, rand_r3, r2):
        F = SmoothMap.from_exprs(
            r2, rand_r3.chart, [P(r2, "x*y"), P(r2, "x^2"), P(r2, "y + 1")]
        )
        for degree in (0, 1, 2):
            w = rand_r3.form(degree)
            lhs = pullback(F, exterior_derivative(w))
            rhs = exterior_derivative(pullback(F, w))
            assert (lhs - rhs).is_zero_table

    def test_functoriality_random(self, rand_r2, r3):
        F = SmoothMap.from_exprs(
            rand_r2.chart, r3, [P(rand_r2.chart, "x*y"), P(rand_r2.chart, "x^2"), P(rand_r2.chart, "y + 1")]
        )
        G = SmoothMap.from_exprs(r3, rand_r2.chart, [P(r3, "x + y"), P(r3, "z^2")])
        w = rand_r2.form(1)
        lhs = pullback(G.compose(F), w)
        rhs = pullback(F, pullback(G, w))
        assert (lhs - rhs).is_zero_table

    def test_wrong_chart_rejected(self, r2, r3):
        F = SmoothMap.from_exprs(r2, r3, [P(r2, "x"), P(r2, "y"), P(r2, "x*y")])
        with pytest.raises(ChartError):
            pullback(F, coordinate_form(r2, "x"))


class TestPushforward:
    def test_parabola(self, r2):
        R1 = Chart("R1", ("x",))
        F = SmoothMap.from_exprs(R1, r2, [parse("x", ("x",)), parse("x^2", ("x",))])
        assert np.allclose(pushforward_at_point(F, {"x": 1.0}, [1.0]), [1.0, 2.0])

    def test_identity(self, r3, rand_r3):
        F = identity_map(r3)
        v = [0.3, -1.2, 0.5]
        assert np.allclose(pushforward_at_point(F, rand_r3.point(), v), v)

    def test_linear_projection_oracle(self):
        # target projection on the pair-with-line chart; oracle: FD Jacobian
        C = Chart("C", ("x1", "x2", "t"))
        M = Chart("M", ("x",))
        beta = SmoothMap.from_exprs(C, M, [parse("x1", C.coords)])
        p = {"x1": 0.2, "x2": -0.4, "t": 0.9}
        v = np.array([0.7, -0.3, 0.25])
        J = fd_jacobian([expr_fn(c) for c in beta.components], p, C.coords)
        assert np.allclose(J @ v, pushforward_at_point(beta, p, v), atol=1e-6)
        assert pushforward_at_point(beta, p, v) == pytest.approx([0.7])


class TestSharp:
    def test_convention(self, r2):
        Lam = Multivector(r2, 2, {(0, 1): ONE})
        assert sharp(Lam, coordinate_form(r2, "x")).components == (ZERO, ONE)
        assert sharp(Lam, coordinate_form(r2, "y")).components == (normalize(-ONE), ZERO)

    def test_zero_bivector(self, r2):
        assert sharp(Multivector.zero(r2, 2), coordinate_form(r2, "x")).is_zero_field

    def test_contraction_oracle(self, rand_r3, policy):
        Lam = rand_r3.multivector(2)
        alpha = rand_r3.form(1)
        beta = rand_r3.form(1)
        # P#(a)(b) - P(a, b) == 0 with the dense table contraction as oracle
        got = sharp(Lam, alpha)
        for _ in range(6):
            p = rand_r3.point()
            A = dense_form(Lam, p)
            av = covector_at(alpha, p)
            bv = covector_at(beta, p)
            pairing = float(av @ A @ bv)
            value = float(bv @ vector_at(got, p))
            assert abs(pairing - value) < 1e-9 * (1 + abs(pairing))


def folded(pairs):
    """Each coefficient summed by repeated + in the order its terms arrive."""
    table = {}
    for key, term in pairs:
        table[key] = table[key] + term if key in table else term
    return {k: v for k, v in sorted(table.items()) if v != ZERO}


def signed_key(idx):
    """(sorted index, sign of the sorting permutation), or (None, 0) on a repeat."""
    if len(set(idx)) < len(idx):
        return None, 0
    inversions = sum(a > b for i, a in enumerate(idx) for b in idx[i + 1 :])
    return tuple(sorted(idx)), -1 if inversions % 2 else 1


class TestOnePassCoefficients:
    """Each operator normalizes a coefficient once; the result is the folded sum."""

    @pytest.fixture(params=[1, 2, 3])
    def rand(self, r3, request):
        return RandomTensors(r3, seed=request.param)

    def test_wedge(self, rand):
        for p, q in [(1, 1), (1, 2), (2, 1)]:
            a, b = rand.form(p), rand.form(q)
            want = []
            for ia, va in a.entries:
                for ib, vb in b.entries:
                    key, sign = signed_key(ia + ib)
                    if key is not None:
                        want.append((key, va * vb if sign > 0 else -(va * vb)))
            assert dict(wedge(a, b).entries) == folded(want)

    def test_interior_product(self, rand):
        X = rand.vector_field()
        for degree in (1, 2, 3):
            omega = rand.form(degree)
            want = [
                (idx[:pos] + idx[pos + 1 :], X.components[i] * a if pos % 2 == 0
                 else -(X.components[i] * a))
                for idx, a in omega.entries
                for pos, i in enumerate(idx)
            ]
            assert dict(interior_product(X, omega).entries) == folded(want)

    def test_exterior_derivative(self, rand):
        coords = rand.chart.coords
        for degree in (0, 1, 2):
            omega = rand.form(degree)
            want = []
            for idx, a in omega.entries:
                for j, name in enumerate(coords):
                    key, sign = signed_key((j,) + idx)
                    if key is not None:
                        da = differentiate(a, name)
                        want.append((key, da if sign > 0 else -da))
            assert dict(exterior_derivative(omega).entries) == folded(want)

    def test_lie_bracket(self, rand):
        X, Y = rand.vector_field(), rand.vector_field()
        coords = rand.chart.coords
        want = []
        for i in range(len(coords)):
            for j, name in enumerate(coords):
                want.append(((i,), X.components[j] * differentiate(Y.components[i], name)))
                want.append(((i,), -(Y.components[j] * differentiate(X.components[i], name))))
        got = folded(want)
        assert lie_bracket(X, Y).components == tuple(got.get((i,), ZERO) for i in range(3))

"""Independent numeric oracles for the derived expected values.

The numeric oracles avoid the package's symbolic differentiation and sparse
index bookkeeping: derivatives come from central finite differences, flows
from RK4 integration, and alternating tensors from dense sign tables, so a
bug in the symbolic path cannot hide in the oracle.  The symbolic references
at the end keep earlier, simpler implementations of the brackets, pairings,
action algebroid and tokenizer that the faster ones must agree with.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import numpy as np

from diracjacobi.chart_tensor import (
    DifferentialForm,
    VectorField,
    coordinate_field,
    differential,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lie_derivative,
)
from diracjacobi.courant import SectionE1, SectionTM, extended_courant_bracket
from diracjacobi.symcalc import (
    ZERO,
    Exp,
    ExprSyntaxError,
    Function,
    IntegerPower,
    Product,
    Quotient,
    Sum,
    as_expr,
    differentiate,
    evaluate,
    is_structurally_zero,
    normalize,
)

H = 1e-6
HALF = as_expr(Fraction(1, 2))


def fd_partial(fn, point: dict, name: str, h: float = H) -> float:
    """Central finite difference of a point-function of a coordinate dict."""
    up = dict(point)
    dn = dict(point)
    up[name] = up[name] + h
    dn[name] = dn[name] - h
    return (fn(up) - fn(dn)) / (2 * h)


def expr_fn(e):
    return lambda point: float(evaluate(e, point))


def fd_gradient(fn, point: dict, coords) -> np.ndarray:
    return np.array([fd_partial(fn, point, c) for c in coords])


def fd_jacobian(component_fns, point: dict, coords) -> np.ndarray:
    return np.array([[fd_partial(f, point, c) for c in coords] for f in component_fns])


def dense_form(form, point: dict) -> np.ndarray:
    """Dense fully antisymmetric array of a sparse form/multivector at a point."""
    n = form.chart.dim
    k = form.degree
    A = np.zeros((n,) * k) if k else np.array(float(form.at(point).get((), 0.0)))
    if k == 0:
        vals = form.at(point)
        return np.array(vals.get((), 0.0))
    for idx, v in form.at(point).items():
        for perm in permutations(range(k)):
            sign = _perm_sign(perm)
            A[tuple(idx[p] for p in perm)] = sign * v
    return A


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def dense_exterior_derivative(form, point: dict) -> np.ndarray:
    """(d w)_{J} = sum_p (-1)^p  d/dx_{J_p} w_{J \\ p}, via finite differences."""
    chart = form.chart
    n = chart.dim
    k = form.degree

    def coeff_fn(idx):
        return lambda p: dense_form(form, p)[idx] if k else float(dense_form(form, p))

    out = np.zeros((n,) * (k + 1))
    for J in permutations(range(n), k + 1):
        total = 0.0
        for pos in range(k + 1):
            rest = J[:pos] + J[pos + 1 :]
            if k == 0:
                fn = lambda p: float(dense_form(form, p))
            else:
                fn = coeff_fn(tuple(rest))
            total += (-1) ** pos * fd_partial(fn, point, chart.coords[J[pos]])
        out[J] = total
    return out


def dense_interior(Xvals: np.ndarray, A: np.ndarray) -> np.ndarray:
    """First-slot contraction of a dense antisymmetric array."""
    return np.tensordot(Xvals, A, axes=(0, 0))


def rk4_flow(field, point: dict, t: float, steps: int = 8) -> dict:
    """Integrate a vector field for time t with classical RK4."""
    coords = field.chart.coords
    z = np.array([float(point[c]) for c in coords])
    h = t / steps

    def rhs(zv):
        return field.at({c: v for c, v in zip(coords, zv)})

    for _ in range(steps):
        k1 = rhs(z)
        k2 = rhs(z + h / 2 * k1)
        k3 = rhs(z + h / 2 * k2)
        k4 = rhs(z + h * k3)
        z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return {c: v for c, v in zip(coords, z)}


def flow_commutator(X, Y, point: dict, t: float = 5e-3) -> np.ndarray:
    """[X, Y](p) from the flow square, Richardson-extrapolated in t.

    Phi^Y_{-t} Phi^X_{-t} Phi^Y_t Phi^X_t (p) = p + t^2 [X, Y](p) + O(t^3).
    """
    coords = X.chart.coords

    def square(tau):
        q = rk4_flow(X, point, tau)
        q = rk4_flow(Y, q, tau)
        q = rk4_flow(X, q, -tau)
        q = rk4_flow(Y, q, -tau)
        base = np.array([point[c] for c in coords], dtype=float)
        return (np.array([q[c] for c in coords]) - base) / tau**2

    # E(t) = [X, Y] + t C + O(t^2), so 2 E(t/2) - E(t) cancels the linear term
    e1 = square(t)
    e2 = square(t / 2)
    return 2 * e2 - e1


def fd_courant_bracket(a, b, point: dict):
    """The bracket [X1 + xi1, X2 + xi2] evaluated with FD calculus.

    Returns (vector components, covector components) at the point.  Every
    term is computed from finite differences of the component functions:
    [X1,X2]^i = X1(X2^i) - X2(X1^i);
    (L_{X1} xi2)_j = X1^i d_i xi2_j + xi2_i d_j X1^i;
    (i_{X2} d xi1)_j = X2^i (d_i xi1_j - d_j xi1_i).
    """
    chart = a.X.chart
    coords = chart.coords
    n = chart.dim
    X1 = a.X.at(point)
    X2 = b.X.at(point)
    x1fn = [expr_fn(c) for c in a.X.components]
    x2fn = [expr_fn(c) for c in b.X.components]
    xi1fn = [expr_fn(a.xi.coefficient((i,))) for i in range(n)]
    xi2fn = [expr_fn(b.xi.coefficient((i,))) for i in range(n)]

    dX1 = fd_jacobian(x1fn, point, coords)  # dX1[i, j] = d_j X1^i
    dX2 = fd_jacobian(x2fn, point, coords)
    dxi1 = fd_jacobian(xi1fn, point, coords)  # dxi1[i, j] = d_j xi1_i
    dxi2 = fd_jacobian(xi2fn, point, coords)
    xi1 = np.array([f(point) for f in xi1fn])
    xi2 = np.array([f(point) for f in xi2fn])

    vec = dX2 @ X1 - dX1 @ X2
    lie = dxi2 @ X1 + dX1.T @ xi2  # (L_{X1} xi2)_j = X1^i d_i xi2_j + xi2_i d_j X1^i
    curl1 = dxi1.T - dxi1  # (d xi1)_{ij} = d_i xi1_j - d_j xi1_i at [i, j] -> transpose care
    # (i_{X2} d xi1)_j = X2^i (d_i xi1_j - d_j xi1_i)
    ix2dxi1 = np.array(
        [sum(X2[i] * (dxi1[j, i] - dxi1[i, j]) for i in range(n)) for j in range(n)]
    )
    return vec, lie - ix2dxi1


def involutive_at_points(L, points, tol: float = 1e-7) -> bool:
    """Every generator bracket lies in the frame span at every point.

    Float pointwise membership: the scaled least-squares residual of the
    bracket against the fiber matrix stays within ``tol``.  The brackets come
    from the package; only the span decision is replaced.
    """
    from diracjacobi.linalg import membership_residual

    k = len(L.generators)
    for i in range(k):
        for j in range(i + 1, k):
            value = L.bracket(i, j)
            for p in points:
                if membership_residual(L.fiber_matrix_at(p), value.at(p)) > tol:
                    return False
    return True


def unit_kernel_dim(gm, forms, base_point) -> int:
    """dim of Ker(forms) & Ker(d source) & Ker(d target) at the unit over a base point.

    The float kernel the precontact and presymplectic checks used to sample:
    the forms' coefficient matrices and both Jacobians at the unit, stacked,
    and their null space by SVD.
    """
    from diracjacobi.linalg import DEFAULT_RTOL, null_space

    g = gm.unit.evaluate(base_point)
    rows = [f.matrix_at(g).T if f.degree == 2 else f.covector_at(g)[None, :] for f in forms]
    rows += [gm.source.jacobian_at(g), gm.target.jacobian_at(g)]
    return null_space(np.vstack(rows), DEFAULT_RTOL).shape[1]


def cocycle_at_points(L, values, points, tol: float = 1e-7) -> bool:
    """rho(e_i) phi_j - rho(e_j) phi_i = phi([e_i, e_j]) at every point.

    The anchor derivatives are central finite differences and phi of the
    bracket uses least-squares frame coefficients at the point; the identity
    holds within ``tol`` scaled by 1 + the magnitudes of its two sides.
    """
    from diracjacobi.linalg import least_squares_coefficients

    coords = L.chart.coords
    k = len(L.generators)
    fns = [expr_fn(v) for v in values]
    brackets = {(i, j): L.bracket(i, j) for i in range(k) for j in range(i + 1, k)}
    for p in points:
        grads = [fd_gradient(fn, p, coords) for fn in fns]
        phi = np.array([fn(p) for fn in fns])
        B = L.fiber_matrix_at(p)
        for i in range(k):
            for j in range(i + 1, k):
                Xi, Xj = L.generators[i].X.at(p), L.generators[j].X.at(p)
                lhs = Xi @ grads[j] - Xj @ grads[i]
                coeffs, resid = least_squares_coefficients(B, brackets[(i, j)].at(p))
                if resid > tol:
                    return False
                rhs = float(coeffs @ phi)
                if abs(lhs - rhs) > tol * (1.0 + abs(lhs) + abs(rhs)):
                    return False
    return True


def forward_map_at_points(F, L_src, L_dst, policy, anti=False, name="forward-map") -> bool:
    """Whether F pushes L_src onto L_dst at the policy's float points.

    The float check ``check_forward_map`` used to run: at each point the
    pushforward fiber is the null space of the (X, f, xi, g) whose embedding
    (X, f, F* xi, g) has no component off an orthonormal basis of L_src, pushed
    through the Jacobian and compared by SVD subspace angles with L_dst at F(p).
    """
    from diracjacobi.linalg import DEFAULT_RTOL, null_space, orthonormal_columns, spans_equal
    from diracjacobi.structures import Ambient

    m, n = F.source.dim, F.target.dim
    e1 = L_src.ambient is Ambient.E1
    for p in policy.float_points(F.source.coords, f"{name}:points"):
        J = F.jacobian_at(p)
        Q = orthonormal_columns(L_src.fiber_matrix_at(p), DEFAULT_RTOL)
        perp = np.eye(Q.shape[0]) - Q @ Q.T
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
        pushed = D @ null_space(perp @ E, DEFAULT_RTOL)
        target = L_dst.fiber_matrix_at(F.evaluate(p))
        if anti:  # negate the form half: rows from n on, or after the f row over E1
            target[n + e1 :, :] *= -1.0
        if not spans_equal(pushed, target, DEFAULT_RTOL):
            return False
    return True


def extraction_at_points(gm, pd, policy, expected=None, fiber_samples=5,
                         name="extract-base-structure") -> bool:
    """Whether the base fibers read off float points of the target fibers agree.

    The float check ``extract_LM`` used to run: over up to 20 base points y and
    ``fiber_samples`` points g of each target fiber (a coordinate projection),
    the solutions of target*(xi) = i_X d eta + F eta, G = -eta(X) are pushed to
    ((d target) X, F, xi, G) by SVD null spaces; the stacked fibers must have
    one rank dim M + 1 across base points and, with ``expected``, span its fiber.
    """
    from diracjacobi.chart_tensor import exterior_derivative
    from diracjacobi.groupoid import sample_fiber
    from diracjacobi.linalg import DEFAULT_RTOL, null_space, orthonormal_columns, spans_equal

    n, N = gm.base.dim, gm.total.dim
    deta = exterior_derivative(pd.eta)
    rng = policy.rng(f"{name}:fibers")
    ranks = set()
    for y in policy.float_points(gm.base.coords, f"{name}:base", min(policy.count, 20)):
        collected = []
        for g in sample_fiber(gm.target, y, rng, policy.box, fiber_samples):
            W = deta.matrix_at(g)  # W[i, j] = d eta(e_i, e_j)
            eta_vec = pd.eta.covector_at(g)
            Jb = gm.target.jacobian_at(g)
            rows = np.zeros((N + 1, N + n + 2))
            # rows j: sum_m Jb[m, j] xi_m - sum_i W[i, j] X_i - eta_j F = 0
            rows[:N, :N] = -W.T
            rows[:N, N] = -eta_vec
            rows[:N, N + 1 : N + 1 + n] = Jb.T
            # row N: G + eta(X) = 0
            rows[N, :N] = eta_vec
            rows[N, N + 1 + n] = 1.0
            push = np.zeros((2 * n + 2, N + n + 2))
            push[:n, :N] = Jb
            push[n, N] = 1.0
            push[n + 1 : 2 * n + 1, N + 1 : N + 1 + n] = np.eye(n)
            push[2 * n + 1, N + 1 + n] = 1.0
            collected.append(push @ null_space(rows, DEFAULT_RTOL))
        basis = orthonormal_columns(np.hstack(collected), DEFAULT_RTOL)
        ranks.add(basis.shape[1])
        if expected is not None and not spans_equal(
            basis, expected.fiber_matrix_at(y), DEFAULT_RTOL
        ):
            return False
    return ranks == {n + 1}


def poly_product(polys, nvars: int) -> dict:
    """Product of polynomials stored as {exponent tuple: coefficient} dicts.

    Schoolbook multiplication with no expression nodes: exponent tuples add,
    equal ones collect, and zero coefficients are dropped.
    """
    out = {(0,) * nvars: 1}
    for p in polys:
        nxt: dict = {}
        for ea, ca in out.items():
            for eb, cb in p.items():
                e = tuple(a + b for a, b in zip(ea, eb))
                nxt[e] = nxt.get(e, 0) + ca * cb
        out = {e: c for e, c in nxt.items() if c != 0}
    return out


def fd_extended_bracket(a, b, point: dict):
    """The skew bracket of two E1 sections evaluated with FD calculus.

    Returns (vector, f, covector, g) at the point, each slot from central
    finite differences of the component functions:
    [X1,X2]^i = X1(X2^i) - X2(X1^i);  f = X1(f2) - X2(f1);
    form = L_{X1} xi2 - L_{X2} xi1 + d(i_{X2} xi1 - i_{X1} xi2)/2
           + f1 xi2 - f2 xi1 + (g2 df1 - g1 df2 - f1 dg2 + f2 dg1)/2;
    g = X1(g2) - X2(g1) + (i_{X2} xi1 - i_{X1} xi2 - f2 g1 + f1 g2)/2.
    """
    chart = a.X.chart
    coords = chart.coords
    n = chart.dim

    def parts(s):
        X = [expr_fn(c) for c in s.X.components]
        xi = [expr_fn(s.xi.coefficient((i,))) for i in range(n)]
        return X, expr_fn(s.f), xi, expr_fn(s.g)

    X1f, f1f, xi1f, g1f = parts(a)
    X2f, f2f, xi2f, g2f = parts(b)

    def values(fns):
        return np.array([fn(point) for fn in fns])

    X1, X2, xi1, xi2 = values(X1f), values(X2f), values(xi1f), values(xi2f)
    f1, f2, g1, g2 = (fn(point) for fn in (f1f, f2f, g1f, g2f))
    dX1, dX2 = fd_jacobian(X1f, point, coords), fd_jacobian(X2f, point, coords)
    dxi1, dxi2 = fd_jacobian(xi1f, point, coords), fd_jacobian(xi2f, point, coords)
    df1, df2, dg1, dg2 = (fd_gradient(fn, point, coords) for fn in (f1f, f2f, g1f, g2f))

    def skew_pairing(p):  # i_{X2} xi1 - i_{X1} xi2
        return sum(xi1f[i](p) * X2f[i](p) - xi2f[i](p) * X1f[i](p) for i in range(n))

    vec = dX2 @ X1 - dX1 @ X2
    f = X1 @ df2 - X2 @ df1
    lie12 = dxi2 @ X1 + dX1.T @ xi2  # (L_{X1} xi2)_j = X1^i d_i xi2_j + xi2_i d_j X1^i
    lie21 = dxi1 @ X2 + dX2.T @ xi1
    form = (
        lie12 - lie21 + fd_gradient(skew_pairing, point, coords) / 2
        + f1 * xi2 - f2 * xi1 + (g2 * df1 - g1 * df2 - f1 * dg2 + f2 * dg1) / 2
    )
    g = X1 @ dg2 - X2 @ dg1 + (xi1 @ X2 - xi2 @ X1 - f2 * g1 + f1 * g2) / 2
    return vec, f, form, g


# --------------------------------------------------------------------------
# chained references: every sum, difference and scaling normalizes again
# --------------------------------------------------------------------------


def chained_pairing_tm(a, b):
    """<X1 + xi1, X2 + xi2> = (xi1(X2) + xi2(X1)) / 2, one operator call per term."""
    return HALF * (interior_product(b.X, a.xi).scalar() + interior_product(a.X, b.xi).scalar())


def chained_pairing_e1(a, b):
    """(i_{X2} xi1 + i_{X1} xi2 + f1 g2 + f2 g1)/2, one operator call per term."""
    return HALF * (
        interior_product(b.X, a.xi).scalar()
        + interior_product(a.X, b.xi).scalar()
        + a.f * b.g
        + b.f * a.g
    )


def chained_courant_bracket(a, b):
    """[X1,X2] + L_{X1} xi2 - i_{X2} d xi1 from whole-tensor operators."""
    return SectionTM(
        lie_bracket(a.X, b.X),
        lie_derivative(a.X, b.xi) - interior_product(b.X, exterior_derivative(a.xi)),
    )


def _scaled_differential(chart, u, h):
    if is_structurally_zero(h) or is_structurally_zero(u):
        return DifferentialForm.zero(chart, 1)
    return differential(chart, u).scale(h)


def chained_extended_bracket(a, b):
    """The skew E1 bracket from whole-tensor operators, slot by slot (see
    ``fd_extended_bracket`` for the formula)."""
    chart = a.chart
    i21 = interior_product(b.X, a.xi).scalar()
    i12 = interior_product(a.X, b.xi).scalar()
    form = (
        lie_derivative(a.X, b.xi)
        - lie_derivative(b.X, a.xi)
        + _scaled_differential(chart, i21 - i12, HALF)
        + b.xi.scale(a.f)
        - a.xi.scale(b.f)
        + (
            _scaled_differential(chart, a.f, b.g)
            - _scaled_differential(chart, b.f, a.g)
            - _scaled_differential(chart, b.g, a.f)
            + _scaled_differential(chart, a.g, b.f)
        ).scale(HALF)
    )
    g = a.X.apply(b.g) - b.X.apply(a.g) + HALF * (i21 - i12 - b.f * a.g + a.f * b.g)
    return SectionE1(lie_bracket(a.X, b.X), a.X.apply(b.f) - b.X.apply(a.f), form, g)


# --------------------------------------------------------------------------
# chained action algebroid: every sum and scaling normalizes again, and every
# ordered generator pair is bracketed and expanded afresh
# --------------------------------------------------------------------------


def chained_psi(images, ts):
    """sum_m c_m images_m, one section sum per generator."""
    out = SectionTM.zero(ts.chart)
    for c, img in zip(ts.coeffs, images):
        out = out + img.scale(c)
    return out


def _chained_cocycle_value(phi, ts):
    return normalize(sum((c * v for c, v in zip(ts.coeffs, phi.values)), start=ZERO))


def chained_action_anchor(A, phi, ts):
    """rho^phi(X) = rho(X_t) + phi(X_t) d/dt, one vector-field sum per generator."""
    chart = ts.chart
    out = VectorField.zero(chart)
    for c, g in zip(ts.coeffs, A.L.generators):
        lifted = VectorField(chart, tuple(g.X.components) + (ZERO,))
        out = out + lifted.scale(c)
    return out + coordinate_field(chart, ts.time).scale(_chained_cocycle_value(phi, ts))


def chained_action_bracket(A, phi, a, b):
    """[a, b]^phi = [a_t, b_t] + phi(a_t) db/dt - phi(b_t) da/dt, slot by slot, with
    the structure functions of each ordered pair (i, j) expanded from a fresh
    bracket of generators i and j."""
    L = A.L
    k = len(L.generators)
    zero_phi = type(phi)((ZERO,) * k)
    rho_a = chained_action_anchor(A, zero_phi, a)  # base part only
    rho_b = chained_action_anchor(A, zero_phi, b)
    phi_a = _chained_cocycle_value(phi, a)
    phi_b = _chained_cocycle_value(phi, b)
    da = [differentiate(c, a.time) for c in a.coeffs]
    db = [differentiate(c, b.time) for c in b.coeffs]

    coeffs = [ZERO] * k
    for i in range(k):
        if is_structurally_zero(a.coeffs[i]):
            continue
        for j in range(k):
            if is_structurally_zero(b.coeffs[j]):
                continue
            bracket = extended_courant_bracket(L.generators[i], L.generators[j])
            struct, leftover, _ = L.expand(bracket)
            assert all(is_structurally_zero(v) for v in leftover)
            w = a.coeffs[i] * b.coeffs[j]
            for m in range(k):
                if not is_structurally_zero(struct[m]):
                    coeffs[m] = coeffs[m] + w * struct[m]
    for m in range(k):
        coeffs[m] = (
            coeffs[m]
            + rho_a.apply(b.coeffs[m])
            - rho_b.apply(a.coeffs[m])
            + phi_a * db[m]
            - phi_b * da[m]
        )
    return coeffs


# --------------------------------------------------------------------------
# reference tokenizer: rescans from the current position at every peek
# --------------------------------------------------------------------------


class ReferenceTokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        pos = self.pos
        text = self.text
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            return ("end", "", pos)
        ch = text[pos]

        def is_digit(c):
            return "0" <= c <= "9"

        def is_ident_start(c):
            return "a" <= c <= "z" or "A" <= c <= "Z" or c == "_"

        if is_digit(ch) or (ch == "." and pos + 1 < len(text) and is_digit(text[pos + 1])):
            j = pos
            seen_dot = False
            while j < len(text) and (is_digit(text[j]) or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            return ("number", text[pos:j], pos)
        if is_ident_start(ch):
            j = pos
            while j < len(text) and (is_ident_start(text[j]) or is_digit(text[j])):
                j += 1
            return ("ident", text[pos:j], pos)
        if ch in "+-*/^()":
            return ("op", ch, pos)
        raise ExprSyntaxError(f"unexpected character '{ch}'", pos)

    def next(self):
        kind, value, pos = self.peek()
        self.pos = pos + len(value) if kind != "end" else pos
        return (kind, value, pos)


# --------------------------------------------------------------------------
# normal-form checker: no value with a second normal form
# --------------------------------------------------------------------------


def second_forms(e) -> list:
    """The subterms of a normalized ``e`` that another normal form would also
    denote: a quotient over a one-term denominator (it is a negative power),
    a power of a quotient, product, sum or exp (each is rewritten), a
    product or sum with a quotient over a sum among its factors or terms
    (the quotient takes them into its numerator), a product with a sum or
    product factor (it is multiplied out or flattened) and a sum with a sum
    term (it is flattened)."""
    found, stack = [], [e]
    while stack:
        n = stack.pop()
        if isinstance(n, Quotient):
            if not isinstance(n.denominator, Sum):
                found.append(n)
            stack += (n.numerator, n.denominator)
        elif isinstance(n, IntegerPower):
            if isinstance(n.base, (Quotient, Product, Sum, Exp)):
                found.append(n)
            stack.append(n.base)
        elif isinstance(n, (Product, Sum)):
            parts = n.factors if isinstance(n, Product) else n.terms
            if any(isinstance(f, (Sum, type(n))) or isinstance(f, Quotient) and isinstance(f.denominator, Sum)
                   for f in parts):
                found.append(n)
            stack += parts
        elif isinstance(n, Function):
            stack.append(n.arg)
    return found

"""Span membership by exact frame elimination: the involutivity, cocycle and
2-cochain checks against float pointwise oracles, and their verdict modes."""

import pytest

from conftest import RandomTensors
from diracjacobi.algebroid import (
    AlgebroidOnL,
    Cocycle1,
    FrameCochain2,
    algebroid_differential_2,
    check_cocycle,
    extract_cocycle,
)
from diracjacobi.chart_tensor import (
    Chart,
    DifferentialForm,
    VectorField,
    coordinate_field,
    exterior_derivative,
)
from diracjacobi.cli import fixture_names, resolve_scenario_path
from diracjacobi.courant import SectionE1
from diracjacobi.report import CheckVerdict
from diracjacobi.scenario import load_scenario, run_scenario
from diracjacobi.structures import (
    Ambient,
    ConformalFactor,
    FrameSubbundle,
    check_involutivity,
    conformal_change,
    construct_L_jacobi,
    construct_L_theta,
    graph_of_two_form,
    lift_dirac,
)
from diracjacobi.symcalc import ONE, ZERO, SamplingPolicy, parse
from oracles import cocycle_at_points, involutive_at_points

POLICY = SamplingPolicy(seed=11, count=12)
CHARTS = {n: Chart(f"R{n}", ("x", "y", "z", "w")[:n]) for n in (2, 3, 4)}


def random_frame(family: str, dim: int, seed: int) -> FrameSubbundle:
    rt = RandomTensors(CHARTS[dim], seed)
    if family == "theta":
        return construct_L_theta(rt.form(1))
    if family == "jacobi":
        return construct_L_jacobi(rt.multivector(2), rt.vector_field())
    omega = rt.form(2) if family.endswith("random-graph") else exterior_derivative(rt.form(1))
    graph = graph_of_two_form(omega)
    return lift_dirac(graph) if family.startswith("lift") else graph


# family -> its involutivity verdict by theorem on R^dim: L_theta and graphs
# of closed 2-forms (every 2-form on R^2) are Dirac(-Jacobi) structures, a
# random bivector/field pair is not a Jacobi pair
FAMILIES = {
    "theta": lambda dim: True,
    "jacobi": lambda dim: False,
    "random-graph": lambda dim: dim == 2,
    "exact-graph": lambda dim: True,
    "lift-random-graph": lambda dim: dim == 2,
    "lift-exact-graph": lambda dim: True,
}


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", [1, 2])
def test_involutivity_agrees_with_pointwise_membership(family, dim, seed):
    L = random_frame(family, dim, 1000 * dim + seed)
    points = POLICY.float_points(L.chart.coords, "oracle")
    passed = check_involutivity(L, POLICY).passed
    assert passed == involutive_at_points(L, points)
    assert passed == FAMILIES[family](dim)


def coboundary(L: FrameSubbundle, h) -> Cocycle1:
    return Cocycle1(tuple(g.X.apply(h) for g in L.generators))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("conformal", [False, True])
@pytest.mark.parametrize("cochain", ["random", "coboundary", "tautological"])
def test_cocycle_agrees_with_least_squares(dim, conformal, cochain):
    chart = CHARTS[dim]
    rt = RandomTensors(chart, 50 * dim + conformal)
    L = construct_L_theta(rt.form(1))
    if conformal:
        L = conformal_change(L, ConformalFactor(parse("1 + x^2", chart.coords), chart))
    k = len(L.generators)
    phi = {
        "random": lambda: Cocycle1(tuple(rt.poly() for _ in range(k))),
        "coboundary": lambda: coboundary(L, rt.poly()),
        "tautological": lambda: extract_cocycle(L),
    }[cochain]()
    points = POLICY.float_points(chart.coords, "oracle")
    expected = cocycle_at_points(L, phi.values, points)
    assert check_cocycle(AlgebroidOnL(L), phi, POLICY).passed == expected
    assert expected == (cochain != "random")


# --------------------------------------------------------------------------
# verdict modes and rank handling
# --------------------------------------------------------------------------

SAMPLED = {"lphi-involutivity", "lphi-cocycle", "non-closed-cochain"}


def test_shipped_membership_verdicts_are_symbolic():
    modes = {}
    for name in fixture_names():
        for o in run_scenario(load_scenario(resolve_scenario_path(name))).outcomes:
            if o.spec.kind in ("involutivity", "cocycle", "closed-2-cochain"):
                modes[(name, o.spec.name)] = o.result.mode
    symbolic = {key for key, mode in modes.items() if mode == "symbolic"}
    assert len(symbolic) == 19
    assert {check for _, check in set(modes) - symbolic} == SAMPLED


def run_one(tmp_path, body: str):
    p = tmp_path / "probe.scn"
    p.write_text("name: probe\n" + body)
    (outcome,) = run_scenario(load_scenario(p)).outcomes
    return outcome.result


def test_badly_scaled_theta_is_involutive(tmp_path):
    r = run_one(tmp_path, 'box: [-2, 0.7]\ncharts: {M: [x, y]}\n'
                'forms: {theta: {chart: M, degree: 1, coeffs: {y: "exp(1000*x)"}}}\n'
                'structures: {L: {kind: theta, form: theta}}\n'
                'checks: [{check: involutivity, structure: L}]\n')
    assert r.verdict is CheckVerdict.PASS and r.mode == "symbolic"


def test_redundant_generator_keeps_its_verdict(tmp_path):
    # L_theta of x dy on R^2 with its (0, 1) + (x dy, 0) generator repeated
    frame = ('structures:\n  L:\n    kind: frame\n    chart: M\n    rank: 3\n    generators:\n'
             '      - {X: {x: "1"}, xi: {y: "1"}}\n'
             '      - {X: {y: "1"}, xi: {x: "-1"}, g: "-x"}\n'
             '      - {f: "1", xi: {y: "x"}}\n'
             '      - {f: "2", xi: {y: "2*x"}}\n')
    r = run_one(tmp_path, 'charts: {M: [x, y]}\n' + frame
                + 'checks: [{check: involutivity, structure: L}]\n')
    assert r.verdict is CheckVerdict.PASS


def stray_frame(chart, redundant: bool = False) -> FrameSubbundle:
    """(d/dx, 0) + (0, 0), (0, 0) + (y dx, 0), optionally twice the latter, and
    (0, 1) + (0, 0): the bracket of the first two leaves the span."""
    z1 = DifferentialForm.zero(chart, 1)
    y_dx = DifferentialForm(chart, 1, {(0,): parse("y", chart.coords)})
    stray = SectionE1(VectorField.zero(chart), ZERO, y_dx, ZERO)
    gens = (SectionE1(coordinate_field(chart, "x"), ZERO, z1, ZERO), stray)
    gens += (stray.scale(2),) * redundant + (SectionE1(VectorField.zero(chart), ONE, z1, ZERO),)
    return FrameSubbundle(Ambient.E1, chart, gens, 3)


def test_redundant_generator_does_not_hide_a_failure(r2):
    L = stray_frame(r2, redundant=True)
    assert L.expand(L.generators[0]).rank == 3
    r = check_involutivity(L, POLICY)
    assert r.verdict is CheckVerdict.FAIL and r.witness["pair"] == [0, 1]


def test_cochain_checks_on_a_bracket_outside_the_span_are_errors(r2):
    A = AlgebroidOnL(stray_frame(r2))
    r = check_cocycle(A, Cocycle1((ZERO,) * 3), POLICY)
    assert r.verdict is CheckVerdict.ERROR and r.witness["pair"] == [0, 1]
    r = algebroid_differential_2(A, FrameCochain2.from_table(3, {}), POLICY)
    assert r.verdict is CheckVerdict.ERROR and "leaves the frame span" in r.details[0]


def test_fewer_pivots_than_the_expected_rank_is_an_error(r2):
    z1 = DifferentialForm.zero(r2, 1)
    ex = SectionE1(coordinate_field(r2, "x"), ZERO, z1, ZERO)
    one = SectionE1(VectorField.zero(r2), ONE, z1, ZERO)
    L = FrameSubbundle(Ambient.E1, r2, (ex, ex.scale(parse("1 + y^2", r2.coords)), one), 3)
    assert L.expand(L.generators[0]).rank == 2
    r = check_involutivity(L, POLICY)
    assert r.verdict is CheckVerdict.ERROR and "rank-deficient" in r.details[0]

"""Groupoid models: axioms, precontact/presymplectic data, extraction."""

from fractions import Fraction

import pytest

from diracjacobi.chart_tensor import (
    Chart,
    DifferentialForm,
    SmoothMap,
    coordinate_field,
    coordinate_form,
    exterior_derivative,
    pullback,
    wedge,
)
from diracjacobi.cli import fixture_names, main, resolve_scenario_path
from diracjacobi.groupoid import (
    GroupoidModel,
    GroupoidModelError,
    HomogeneityError,
    PrecontactData,
    PresymplecticData,
    build_action_groupoid,
    check_contact_form,
    check_groupoid,
    check_multiplicative_function,
    check_precontact,
    check_presymplectic,
    equivalence_transform,
    eta_from_precontact_form,
    eta_to_omega,
    extract_LM,
    locate_pair,
    omega_to_eta,
    pair_groupoid,
    pair_groupoid_with_line,
    sample_fiber,
)
from diracjacobi import groupoid
from diracjacobi.report import CheckVerdict
from diracjacobi.scenario import load_scenario, run_scenario
from diracjacobi.structures import (
    ConformalFactor,
    conformal_change,
    construct_L_theta,
    check_forward_map,
)
from diracjacobi.symcalc import ONE, ZERO, coord, normalize, parse

from conftest import RandomTensors
from oracles import extraction_at_points, forward_map_at_points, unit_kernel_dim


def P(chart, text):
    return parse(text, chart.coords)


@pytest.fixture
def M1():
    return Chart("M1", ("x",))


@pytest.fixture
def line_model(M1):
    return pair_groupoid_with_line(M1)


@pytest.fixture
def plane_model(r2):
    return pair_groupoid_with_line(r2)


class TestGroupoidAxioms:
    def test_pair_groupoid(self, r2, policy):
        assert check_groupoid(pair_groupoid(r2), policy).passed

    def test_pair_with_line(self, plane_model, policy):
        r = check_groupoid(plane_model, policy)
        assert r.passed, r.details

    def test_broken_multiplication(self, M1, policy):
        gm = pair_groupoid_with_line(M1)
        broken = GroupoidModel(
            gm.total,
            gm.base,
            gm.source,
            gm.target,
            gm.unit,
            gm.inversion,
            gm.pair_chart,
            gm.pair_left,
            gm.pair_right,
            SmoothMap(
                gm.pair_chart,
                gm.total,
                gm.multiplication.components[:-1]
                + (P(gm.pair_chart, "t*ts"),),
            ),
        )
        r = check_groupoid(broken, policy)
        assert r.verdict is CheckVerdict.FAIL
        assert any("unit" in d or "associativity" in d for d in r.details)

    def test_locus_violation_is_model_error(self, M1, policy):
        gm = pair_groupoid_with_line(M1)
        broken = GroupoidModel(
            gm.total,
            gm.base,
            gm.source,
            gm.target,
            gm.unit,
            gm.inversion,
            gm.pair_chart,
            gm.pair_left,
            SmoothMap(
                gm.pair_chart,
                gm.total,
                (P(gm.pair_chart, "x1 + 1"),) + gm.pair_right.components[1:],
            ),
            gm.multiplication,
        )
        r = check_groupoid(broken, policy)
        assert r.verdict is CheckVerdict.ERROR

    def test_locate_pair_and_fiber_sampling(self, line_model, policy):
        rng = policy.rng("solve-test")
        g = {"x1": 0.3, "x2": -0.5, "t": 1.2}
        h = {"x1": -0.5, "x2": 0.9, "t": -0.4}  # composable: source(g) = target(h)
        w = locate_pair(line_model, g, h, rng)
        left = line_model.pair_left.evaluate(w)
        right = line_model.pair_right.evaluate(w)
        assert max(abs(left[k] - g[k]) for k in g) < 1e-9
        assert max(abs(right[k] - h[k]) for k in h) < 1e-9
        for q in sample_fiber(line_model.target, {"x": 0.25}, rng, policy.box, 3):
            assert abs(line_model.target.evaluate(q)["x"] - 0.25) < 1e-9

    def test_fiber_points_are_distinct(self, line_model, policy):
        rng = policy.rng("fiber-test")
        points = sample_fiber(line_model.target, {"x": 0.25}, rng, policy.box, 5)
        assert all(q["x1"] == 0.25 for q in points)
        assert len({tuple(q.values()) for q in points}) == 5

    def test_fiber_of_a_non_projection_is_a_model_error(self, line_model, policy):
        with pytest.raises(GroupoidModelError):
            sample_fiber(line_model.multiplication, {"x1": 0.0, "x2": 0.0, "t": 0.0},
                         policy.rng("fiber-test"), policy.box, 1)

    def test_locate_pair_inverts_the_action_groupoid_exactly(self, line_model, policy):
        action = build_action_groupoid(line_model, coord("t"), policy)
        g = {"x1": 0.5, "x2": -0.25, "t": 1.5, "u": 0.75}
        h = {"x1": -0.25, "x2": 1.0, "t": -0.5, "u": 2.25}  # target(h) = (x2, t + u) of g
        w = locate_pair(action, g, h, None)
        assert action.pair_left.evaluate(w) == g
        assert action.pair_right.evaluate(w) == h


class TestShippedGroupoidAxioms:
    @staticmethod
    def results():
        out = {}
        for fixture in fixture_names():
            scenario = load_scenario(resolve_scenario_path(fixture))
            names = [c.name for c in scenario.checks if c.kind == "groupoid-axioms"]
            if names:
                for o in run_scenario(scenario, only=names).outcomes:
                    out[fixture, o.spec.name] = o.result
        return out

    def test_passing_laws_are_exact(self):
        results = self.results()
        passing = [r for r in results.values() if r.passed]
        assert len(passing) == 6
        assert all(r.mode == "symbolic" for r in passing)

    def test_broken_control_fails_at_a_rational_witness(self):
        r = self.results()["negative_controls", "broken-multiplication"]
        assert r.verdict is CheckVerdict.FAIL
        assert r.witness["law"] in ("left-unit", "right-unit", "right-inverse", "left-inverse")
        assert all(isinstance(v, Fraction) for v in r.witness["point"].values())
        assert r.witness["value"] != 0


class TestMultiplicativeFunction:
    def test_time_slot(self, line_model, policy):
        r = check_multiplicative_function(line_model, coord("t"), policy)
        assert r.passed and r.mode == "symbolic"

    def test_base_coordinate_fails(self, r2, policy):
        gm = pair_groupoid(r2)
        r = check_multiplicative_function(gm, coord("x1"), policy)
        assert r.verdict is CheckVerdict.FAIL and r.witness is not None

    def test_zero_function(self, line_model, policy):
        assert check_multiplicative_function(line_model, ZERO, policy).passed


class TestPrecontact:
    def test_line_fixture(self, M1, line_model, policy):
        pd = eta_from_precontact_form(line_model, coordinate_form(M1, "x"))
        assert check_precontact(line_model, pd, policy).passed

    def test_zero_form_fails_kernel(self, M1, line_model, policy):
        pd = eta_from_precontact_form(line_model, DifferentialForm.zero(M1, 1))
        r = check_precontact(line_model, pd, policy)
        assert r.verdict is CheckVerdict.FAIL
        assert r.witness["condition"] == "non-degeneracy"
        assert any("kernel" in d for d in r.details)

    def test_dropped_scale_fails_multiplicativity(self, M1, line_model, policy):
        theta = coordinate_form(M1, "x")
        eta = pullback(line_model.target, theta) - pullback(line_model.source, theta)
        r = check_precontact(line_model, PrecontactData(eta, coord("t")), policy)
        assert r.verdict is CheckVerdict.FAIL
        assert r.witness["condition"] == "eta-multiplicative"

    def test_nonmultiplicative_sigma_reported_first(self, M1, line_model, policy):
        pd0 = eta_from_precontact_form(line_model, coordinate_form(M1, "x"))
        pd = PrecontactData(pd0.eta, P(line_model.total, "x1"))
        r = check_precontact(line_model, pd, policy)
        assert r.verdict is CheckVerdict.FAIL
        assert r.details[0] == "sigma is not multiplicative"

    @pytest.mark.parametrize("sigma, mode", [("1", "symbolic"), ("x1", "sampled")])
    def test_nonmultiplicative_sigma_keeps_its_mode(self, M1, line_model, policy, sigma, mode):
        pd0 = eta_from_precontact_form(line_model, coordinate_form(M1, "x"))
        r = check_precontact(line_model, PrecontactData(pd0.eta, P(line_model.total, sigma)), policy)
        assert r.verdict is CheckVerdict.FAIL and r.mode == mode
        assert r.details == ("sigma is not multiplicative",)

    def test_wrong_dimension_errors(self, r2, policy):
        gm = pair_groupoid(r2)
        pd = PrecontactData(DifferentialForm.zero(gm.total, 1), ZERO)
        assert check_precontact(gm, pd, policy).verdict is CheckVerdict.ERROR

    def test_kernel_at_all_samples_is_an_unknown_argument(self, tmp_path, capsys):
        p = tmp_path / "kernel.scn"
        p.write_text(
            "charts: {M: [x]}\n"
            "groupoids: {G: {kind: pair-line, base: M}}\n"
            "forms: {theta: {chart: M, degree: 1, coeffs: {x: '1'}}}\n"
            "precontact: {PD: {groupoid: G, theta: theta}}\n"
            "checks: [{check: precontact, data: PD, kernel-at-all-samples: true}]\n"
        )
        assert main(["run", str(p)]) == 2
        err = capsys.readouterr().err
        assert "unknown argument 'kernel-at-all-samples'" in err and "Traceback" not in err


class TestUnitKernel:
    """The exact kernel condition at the units against the float kernel it replaced."""

    @staticmethod
    def exact_kernel_dim(result) -> int:
        witness = result.witness or {}
        return witness["kernel_dim"] if witness.get("condition") == "non-degeneracy" else 0

    @pytest.mark.parametrize("seed", range(8))
    def test_random_pair_line_data_agree_with_the_float_kernel(self, r2, policy, seed):
        M = r2 if seed % 2 else Chart("M1", ("x",))
        gen = RandomTensors(M, seed)
        gm = pair_groupoid_with_line(M)
        theta = gen.form(1) if seed % 4 < 2 else DifferentialForm.zero(M, 1)
        pd = eta_from_precontact_form(gm, theta)
        r = check_precontact(gm, pd, policy)
        forms = (exterior_derivative(pd.eta), pd.eta)
        for _ in range(5):
            assert unit_kernel_dim(gm, forms, gen.point()) == self.exact_kernel_dim(r)

    def test_certified_kernel_is_symbolic(self, M1, line_model, policy):
        pd = eta_from_precontact_form(line_model, coordinate_form(M1, "x"))
        r = check_precontact(line_model, pd, policy)
        assert r.passed and r.mode == "symbolic" and not r.details

    def test_degenerate_kernel_reports_its_dimension(self, M1, line_model, policy):
        pd = eta_from_precontact_form(line_model, DifferentialForm.zero(M1, 1))
        r = check_precontact(line_model, pd, policy)
        assert r.verdict is CheckVerdict.FAIL and r.mode == "symbolic"
        assert r.witness == {"condition": "non-degeneracy", "kernel_dim": 1}
        assert r.details == ("kernel condition fails at a unit point",)

    def test_uncertified_pivot_is_named(self, r2, plane_model, policy):
        # eta vanishes at the units over x = 0; the pivot -x says where
        pd = eta_from_precontact_form(plane_model, DifferentialForm(r2, 1, {(1,): P(r2, "x")}))
        r = check_precontact(plane_model, pd, policy)
        assert r.passed and r.mode == "sampled"
        assert r.details == ("rank sampled: pivot -x is not certified nonvanishing",)
        assert unit_kernel_dim(plane_model, (exterior_derivative(pd.eta), pd.eta),
                               {"x": 0.0, "y": 0.3}) == 1

    def test_presymplectic_on_a_bundle_of_lines(self, M1, policy):
        # source = target, so the kernel at the units is the kernel of omega alone
        BG, BGP = Chart("BG", ("b1", "b2")), Chart("BGP", ("b1", "b2", "b3"))
        m = lambda src, dst, *comps: SmoothMap(src, dst, tuple(P(src, c) for c in comps))
        gm = GroupoidModel(BG, M1, m(BG, M1, "b1"), m(BG, M1, "b1"), m(M1, BG, "x", "0"),
                           m(BG, BG, "b1", "-b2"), BGP, m(BGP, BG, "b1", "b2"),
                           m(BGP, BG, "b1", "b3"), m(BGP, BG, "b1", "b2 + b3"))
        for coeff, want in (("1", 0), ("0", 1)):
            omega = DifferentialForm(BG, 2, {(0, 1): P(BG, coeff)})
            r = check_presymplectic(gm, PresymplecticData(omega), policy)
            assert r.mode == "symbolic"
            assert self.exact_kernel_dim(r) == want == unit_kernel_dim(gm, (omega,), {"x": 0.4})


class TestPresymplectic:
    def test_symplectic_pair_fixture(self, r2, policy):
        gm = pair_groupoid(r2)
        om0 = wedge(coordinate_form(r2, "x"), coordinate_form(r2, "y"))
        omega = pullback(gm.target, om0) - pullback(gm.source, om0)
        assert check_presymplectic(gm, PresymplecticData(omega), policy).passed

    def test_non_closed_fails(self, r2, policy):
        gm = pair_groupoid(r2)
        omega = DifferentialForm(gm.total, 2, {(0, 1): P(gm.total, "x2")})
        r = check_presymplectic(gm, PresymplecticData(omega), policy)
        assert r.verdict is CheckVerdict.FAIL
        assert any("closed" in d for d in r.details)

    def test_zero_form_fails_on_bundle_of_groups(self, M1, policy):
        BG = Chart("BG", ("b1", "b2"))
        BGP = Chart("BGP", ("b1", "b2", "b3"))
        e = lambda ch, t: P(ch, t)
        gm = GroupoidModel(
            total=BG,
            base=M1,
            source=SmoothMap(BG, M1, (e(BG, "b1"),)),
            target=SmoothMap(BG, M1, (e(BG, "b1"),)),
            unit=SmoothMap(M1, BG, (e(M1, "x"), ZERO)),
            inversion=SmoothMap(BG, BG, (e(BG, "b1"), e(BG, "-b2"))),
            pair_chart=BGP,
            pair_left=SmoothMap(BGP, BG, (e(BGP, "b1"), e(BGP, "b2"))),
            pair_right=SmoothMap(BGP, BG, (e(BGP, "b1"), e(BGP, "b3"))),
            multiplication=SmoothMap(BGP, BG, (e(BGP, "b1"), e(BGP, "b2 + b3"))),
        )
        assert check_groupoid(gm, policy).passed
        r = check_presymplectic(gm, PresymplecticData(DifferentialForm.zero(BG, 2)), policy)
        assert r.verdict is CheckVerdict.FAIL
        assert r.witness["condition"] == "non-degeneracy"

    def test_homogeneity_condition(self, M1, line_model, policy):
        pd = eta_from_precontact_form(line_model, coordinate_form(M1, "x"))
        action = build_action_groupoid(line_model, pd.sigma, policy)
        ps = eta_to_omega(pd)
        assert check_presymplectic(action, ps, policy).passed
        wrong_Z = PresymplecticData(ps.omega, coordinate_field(ps.omega.chart, "x1"))
        r = check_presymplectic(action, wrong_Z, policy)
        assert r.verdict is CheckVerdict.FAIL
        assert any("homogeneous" in d for d in r.details)


class TestActionGroupoid:
    def test_axioms(self, line_model, policy):
        action = build_action_groupoid(line_model, coord("t"), policy)
        assert action.base.coords == ("x", "t")
        assert action.total.coords == ("x1", "x2", "t", "u")
        assert check_groupoid(action, policy).passed

    def test_zero_sigma_gives_product(self, line_model, policy):
        action = build_action_groupoid(line_model, ZERO, policy)
        assert check_groupoid(action, policy).passed
        # source and target both project the fiber coordinate unchanged
        assert action.source.components[-1] == coord("u")
        assert action.target.components[-1] == coord("u")

    def test_unit_embeds_time(self, line_model, policy):
        action = build_action_groupoid(line_model, coord("t"), policy)
        assert action.unit.components[-1] == coord("t")

    def test_nonmultiplicative_sigma_rejected(self, line_model, policy):
        with pytest.raises(GroupoidModelError):
            build_action_groupoid(line_model, P(line_model.total, "x1"), policy)

    def test_lifted_sigma_multiplicative_on_action(self, line_model, policy):
        # the function (g, u) -> sigma(g) is multiplicative on G x_sigma R
        action = build_action_groupoid(line_model, coord("t"), policy)
        assert check_multiplicative_function(action, coord("t"), policy).passed


class TestEtaOmega:
    def test_round_trip(self, M1, line_model, policy):
        pd = eta_from_precontact_form(line_model, coordinate_form(M1, "x"))
        ps = eta_to_omega(pd)
        back = omega_to_eta(ps, pd.sigma, policy)
        assert (back.eta - pd.eta).is_zero_table
        assert normalize(back.sigma - pd.sigma) == ZERO

    def test_omega_is_exact_homogeneous(self, M1, line_model, policy):
        pd = eta_from_precontact_form(line_model, coordinate_form(M1, "x"))
        ps = eta_to_omega(pd)
        C = ps.omega.chart
        Z = coordinate_field(C, "u")
        from diracjacobi.chart_tensor import lie_derivative

        assert (lie_derivative(Z, ps.omega) - ps.omega).is_zero_table
        assert exterior_derivative(ps.omega).is_zero_table

    def test_non_homogeneous_rejected(self, policy):
        C = Chart("C", ("x", "y", "u"))
        omega = DifferentialForm(C, 2, {(0, 1): ONE})
        with pytest.raises(HomogeneityError):
            omega_to_eta(PresymplecticData(omega), ZERO, policy)

    def test_descent_checks_du_component(self, policy):
        # e^u (du ^ dx) has i_du = e^u dx: homogeneous, and it descends; a
        # form with an extra non-homogeneous block must be rejected
        C = Chart("C", ("x", "u"))
        good = DifferentialForm(C, 2, {(0, 1): P(C, "-exp(u)")})
        pd = omega_to_eta(PresymplecticData(good), ZERO, policy)
        assert pd.eta.chart.coords == ("x",)
        assert pd.eta == coordinate_form(pd.eta.chart, "x")


    @pytest.mark.parametrize("fixture", ["precontact_line", "precontact_contact"])
    def test_round_trip_check_is_symbolic(self, fixture):
        scenario = load_scenario(resolve_scenario_path(fixture))
        (outcome,) = run_scenario(scenario, only=["correspondence"]).outcomes
        assert outcome.result.passed and outcome.result.mode == "symbolic"


class TestCorrespondenceProperty:
    """The precontact / homogeneous-presymplectic correspondence, tested on
    passing and failing fixtures in both directions."""

    def _sides(self, gm, pd, policy):
        pre = check_precontact(gm, pd, policy)
        action = build_action_groupoid(gm, pd.sigma, policy)
        ps = eta_to_omega(pd)
        sym = check_presymplectic(action, ps, policy)
        return pre, sym

    def test_passing_fixtures_pass_both_sides(self, M1, r2, policy):
        for chart in (M1, r2):
            gm = pair_groupoid_with_line(chart)
            theta = coordinate_form(chart, chart.coords[-1]).scale(
                P(chart, chart.coords[0])
            ) if chart.dim > 1 else coordinate_form(chart, "x")
            pre, sym = self._sides(gm, eta_from_precontact_form(gm, theta), policy)
            assert pre.passed and sym.passed

    def test_dropped_scale_fails_both_sides(self, r2, policy):
        gm = pair_groupoid_with_line(r2)
        theta = DifferentialForm(r2, 1, {(1,): P(r2, "x")})
        eta = pullback(gm.target, theta) - pullback(gm.source, theta)
        pre, sym = self._sides(gm, PrecontactData(eta, coord("t")), policy)
        assert pre.verdict is CheckVerdict.FAIL
        assert pre.witness["condition"] == "eta-multiplicative"
        assert sym.verdict is CheckVerdict.FAIL
        assert any("multiplicative" in d for d in sym.details)

    def test_zero_form_asymmetry_documented(self, M1, policy):
        """eta = 0 fails the four-kernel condition at units, while omega = 0
        on the action groupoid satisfies (i)-(iii) and homogeneity: the
        source map of the action groupoid constrains the time direction that
        witnesses the precontact failure.  The correspondence is one-sided
        at this degenerate edge."""
        gm = pair_groupoid_with_line(M1)
        pre, sym = self._sides(
            gm, eta_from_precontact_form(gm, DifferentialForm.zero(M1, 1)), policy
        )
        assert pre.verdict is CheckVerdict.FAIL
        assert pre.witness["condition"] == "non-degeneracy"
        assert sym.passed


class TestExtraction:
    def test_line_fixture_matches(self, M1, line_model, policy):
        theta = coordinate_form(M1, "x")
        pd = eta_from_precontact_form(line_model, theta)
        out = extract_LM(line_model, pd, policy, expected=construct_L_theta(theta))
        assert out.passed

    def test_plane_fixture_matches(self, r2, plane_model, policy):
        theta = DifferentialForm(r2, 1, {(1,): P(r2, "x")})
        pd = eta_from_precontact_form(plane_model, theta)
        out = extract_LM(plane_model, pd, policy, expected=construct_L_theta(theta))
        assert out.passed

    def test_mismatched_expectation_fails(self, r2, plane_model, policy):
        theta = DifferentialForm(r2, 1, {(1,): P(r2, "x")})
        pd = eta_from_precontact_form(plane_model, theta)
        wrong = construct_L_theta(DifferentialForm(r2, 1, {(0,): P(r2, "y")}))
        out = extract_LM(plane_model, pd, policy, expected=wrong)
        assert out.verdict is CheckVerdict.FAIL

    def test_beta_is_forward_map_onto_extraction(self, M1, line_model, policy):
        # the target map pushes the total-space 1-form structure forward
        # onto the extracted base structure (== L_theta)
        theta = coordinate_form(M1, "x")
        pd = eta_from_precontact_form(line_model, theta)
        L_eta = construct_L_theta(pd.eta)
        r = check_forward_map(line_model.target, L_eta, construct_L_theta(theta), policy)
        assert r.passed

    def test_fiber_samples_is_an_unknown_argument(self, tmp_path, capsys):
        p = tmp_path / "extract.scn"
        p.write_text(
            "charts: {M: [x]}\n"
            "groupoids: {G: {kind: pair-line, base: M}}\n"
            "forms: {theta: {chart: M, degree: 1, coeffs: {x: '1'}}}\n"
            "precontact: {PD: {groupoid: G, theta: theta}}\n"
            "checks: [{check: extract-structure, data: PD, fiber-samples: 5}]\n"
        )
        assert main(["run", str(p)]) == 2
        err = capsys.readouterr().err
        assert "unknown argument 'fiber-samples'" in err and "Traceback" not in err

    @pytest.mark.parametrize("fixture, data", [
        ("negative_controls", "PDdropped1"), ("precontact_contact", "PD"),
        ("precontact_line", "PD"), ("precontact_xdy", "PD")])
    def test_fiber_through_the_unit_without_expected_frame(self, fixture, data):
        scenario = load_scenario(resolve_scenario_path(fixture))
        r = extract_LM(*scenario.precontact[data], scenario.policy)
        assert r.verdict is CheckVerdict.PASS, r.details


FIBER_KINDS = ("forward-map", "extract-structure", "equivalence-commutes")


def float_fiber_verdict(spec, policy) -> bool:
    """The PASS the deleted float fiber path gives a shipped check."""
    a = spec.args
    if spec.kind == "forward-map":
        return forward_map_at_points(a["map"], a["source"], a["target"], policy, a["anti"],
                                     name=spec.name)
    gm, pd = a["data"]
    if spec.kind == "extract-structure":
        return extraction_at_points(gm, pd, policy, a["expected"], name=spec.name)
    factor = ConformalFactor(a["factor"], gm.base)
    pd2 = equivalence_transform(pd, factor, gm)
    return (check_precontact(gm, pd2, policy).passed
            and extraction_at_points(gm, pd, policy, name=f"{spec.name}:base")
            and extraction_at_points(gm, pd2, policy, conformal_change(a["expected"], factor),
                                     name=spec.name))


@pytest.mark.parametrize("seed", [None, 7])
def test_fiber_verdicts_match_the_float_oracles(seed):
    count = 0
    for fixture in fixture_names():
        scenario = load_scenario(resolve_scenario_path(fixture))
        names = [c.name for c in scenario.checks if c.kind in FIBER_KINDS]
        if not names:
            continue
        report = run_scenario(scenario, seed=seed, only=names)
        for outcome in report.outcomes:
            assert outcome.ok
            assert outcome.result.passed == float_fiber_verdict(outcome.spec, report.policy)
            count += 1
    assert count == 12


class TestEquivalence:
    def test_identity_factor(self, M1, line_model, policy):
        pd = eta_from_precontact_form(line_model, coordinate_form(M1, "x"))
        pd2 = equivalence_transform(pd, ConformalFactor(ONE, M1), line_model)
        assert (pd2.eta - pd.eta).is_zero_table
        assert normalize(pd2.sigma - pd.sigma) == ZERO

    def test_constant_factor(self, M1, line_model, policy):
        pd = eta_from_precontact_form(line_model, coordinate_form(M1, "x"))
        pd2 = equivalence_transform(pd, ConformalFactor(P(M1, "3"), M1), line_model)
        assert (pd2.eta - pd.eta.scale(P(line_model.total, "3"))).is_zero_table
        assert normalize(pd2.sigma - pd.sigma) == ZERO  # ln(3/3) = 0

    def test_transform_preserves_precontact(self, M1, line_model, policy):
        pd = eta_from_precontact_form(line_model, coordinate_form(M1, "x"))
        factor = ConformalFactor(P(M1, "1 + x^2/4"), M1)
        pd2 = equivalence_transform(pd, factor, line_model)
        assert check_precontact(line_model, pd2, policy).passed
        assert check_multiplicative_function(line_model, pd2.sigma, policy).passed

    def test_commutes_with_extraction(self, r2, plane_model, policy):
        theta = DifferentialForm(r2, 1, {(1,): P(r2, "x")})
        pd = eta_from_precontact_form(plane_model, theta)
        factor = ConformalFactor(P(r2, "1 + x^2/4"), r2)
        pd2 = equivalence_transform(pd, factor, plane_model)
        expected = conformal_change(construct_L_theta(theta), factor)
        out = extract_LM(plane_model, pd2, policy, expected=expected)
        assert out.passed
        # and the unconformal expectation now fails
        out2 = extract_LM(plane_model, pd2, policy, expected=construct_L_theta(theta))
        assert out2.verdict is CheckVerdict.FAIL


class TestContactForm:
    def test_contact_theta(self, r3, policy):
        theta = DifferentialForm(r3, 1, {(2,): ONE, (0,): P(r3, "-y")})
        assert check_contact_form(theta, policy).passed

    def test_induced_eta_is_contact_on_groupoid(self, r3, policy):
        gm = pair_groupoid_with_line(r3)
        theta = DifferentialForm(r3, 1, {(2,): ONE, (0,): P(r3, "-y")})
        pd = eta_from_precontact_form(gm, theta)
        assert check_contact_form(pd.eta, policy).passed

    def test_degenerate_form_fails(self, r3, policy):
        theta = coordinate_form(r3, "z")  # dz ^ (d dz)^1 = 0
        r = check_contact_form(theta, policy)
        assert not r.passed

    def test_even_dimension_errors(self, r2, policy):
        r = check_contact_form(coordinate_form(r2, "x"), policy)
        assert r.verdict is CheckVerdict.ERROR

    def test_certified_top_is_symbolic_without_samples(self, r3, policy, monkeypatch):
        calls = []
        monkeypatch.setattr(groupoid, "evaluate", lambda *a: calls.append(a))
        for coeffs in ({(2,): ONE, (0,): P(r3, "-y")}, {(2,): P(r3, "exp(z)"), (0,): P(r3, "y")}):
            r = check_contact_form(DifferentialForm(r3, 1, coeffs), policy)
            assert r.passed and r.mode == "symbolic" and r.residual_max == 0.0
        assert calls == []

    def test_uncertified_top_is_sampled(self, r3, policy):
        theta = DifferentialForm(r3, 1, {(2,): P(r3, "1 + x^2"), (0,): P(r3, "-y")})
        r = check_contact_form(theta, policy)
        assert r.passed and r.mode == "sampled"

"""Scenario loading/validation, the runner, the CLI, and report determinism."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from diracjacobi.cli import fixture_names, main, resolve_scenario_path
from diracjacobi.report import CheckVerdict
from diracjacobi.scenario import (
    CHECKS,
    GROUPOIDS,
    STRUCTURES,
    ScenarioError,
    load_scenario,
    run_scenario,
)

GOOD = """
name: tiny
seed: 3
samples: 20
charts:
  M: [x, y]
forms:
  theta: {chart: M, degree: 1, coeffs: {y: "x"}}
structures:
  L: {kind: theta, form: theta}
checks:
  - {check: maximal-isotropy, name: iso, structure: L}
  - {check: involutivity, name: inv, structure: L}
  - {check: expr-zero, name: bad, chart: M, expr: "x - y", expect: fail}
"""


@pytest.fixture
def tiny(tmp_path):
    p = tmp_path / "tiny.scn"
    p.write_text(GOOD)
    return p


class TestLoading:
    def test_good_scenario(self, tiny):
        s = load_scenario(tiny)
        assert s.name == "tiny"
        assert [c.name for c in s.checks] == ["iso", "inv", "bad"]
        assert s.policy.seed == 3 and s.policy.count == 20

    def test_all_problems_collected(self, tmp_path):
        p = tmp_path / "bad.scn"
        p.write_text(
            """
name: broken
charts:
  M: [x, x]
forms:
  w: {chart: NOPE, degree: 1, coeffs: {y: "1"}}
structures:
  L: {kind: theta, form: missing}
  L2: {kind: mystery}
checks:
  - {check: maximal-isotropy, structure: L}
  - {check: unknown-kind}
  - {check: involutivity, name: dup, structure: L}
  - {check: involutivity, name: dup, structure: L}
"""
        )
        with pytest.raises(ScenarioError) as err:
            load_scenario(p)
        text = str(err.value)
        for frag in ("duplicate coordinates", "unknown chart", "unknown form",
                     "unknown structure kind", "unknown check kind", "duplicate check name"):
            assert frag in text
        assert len(err.value.problems) >= 6

    def test_expression_errors_have_positions(self, tmp_path):
        p = tmp_path / "expr.scn"
        p.write_text(
            """
name: exprbad
charts: {M: [x]}
expressions:
  e: {chart: M, expr: "x + q"}
checks:
  - {check: expr-zero, chart: M, expr: "x - x"}
"""
        )
        with pytest.raises(ScenarioError) as err:
            load_scenario(p)
        assert "unknown symbol 'q'" in str(err.value)

    def test_not_yaml(self, tmp_path):
        p = tmp_path / "junk.scn"
        p.write_text("::: not yaml {{{")
        with pytest.raises(ScenarioError):
            load_scenario(p)

    def test_check_references_validated_at_load(self, tmp_path):
        p = tmp_path / "refs.scn"
        p.write_text(
            """
name: refs
charts: {M: [x]}
checks:
  - {check: maximal-isotropy, structure: missing}
  - {check: forward-map, map: nomap, source: s1, target: s2}
  - {check: precontact}
"""
        )
        with pytest.raises(ScenarioError) as err:
            load_scenario(p)
        text = str(err.value)
        assert "unknown structure 'missing'" in text
        assert "unknown map 'nomap'" in text
        assert "missing required argument 'data'" in text


MALFORMED = """
name: malformed
charts: {M: [x, y]}
forms:
  omega: {chart: M, degree: 2, coeffs: {"x,y": "1"}}
  theta: {chart: M, degree: 1, coeffs: {y: "x"}}
structures:
  L0: {kind: two-form-graph, form: omega}
  Ltheta: {kind: theta, form: theta}
"""
ONE_CHECK = "checks: [{check: involutivity, structure: L0}]\n"


@pytest.mark.parametrize(
    "extra, problem",
    [
        ("box: [a, 1]\n" + ONE_CHECK, "box must be [lo, hi]"),
        ("tol: abc\n" + ONE_CHECK, "tol must be a non-negative number"),
        ("box: [1, -1]\n" + ONE_CHECK, "box must be [lo, hi]"),
        ('checks: [{check: closed-2-cochain, structure: L0, omega: {"a,b": "x"}}]\n',
         "omega index 'a,b' must be i,j"),
        ('checks: [{check: closed-2-cochain, structure: L0, omega: {"0,1,2": "x"}}]\n',
         "omega index '0,1,2' must be i,j"),
        ('checks: [{check: closed-2-cochain, structure: L0, omega: {"0,9": "x"}}]\n',
         "omega index '0,9' must be i,j"),
        ("checks: [{check: cocycle, structure: Ltheta, values: 5}]\n",
         "'values' must be a list of expressions"),
        ("checks: [{check: expr-zero, chart: M, expr: 'x +'}]\n", "(expr-zero#1), expr: "),
        ("checks: [{check: action-iso, structure: Ltheta, drop-scale: maybe}]\n",
         "'drop-scale' must be true or false"),
        ("checks: [{check: involutivity, structure: L0, strucutre: L0}]\n",
         "unknown argument 'strucutre'"),
        ("multivectors: {P: {chart: M, degree: two}}\n" + ONE_CHECK,
         "degree must be a non-negative integer"),
    ],
    ids=["box-not-numbers", "tol-not-a-number", "box-empty", "cochain-index-not-integers",
         "cochain-index-three-slots", "cochain-index-out-of-range", "cocycle-values-not-a-list",
         "expression-does-not-parse", "flag-not-boolean", "unknown-argument", "degree-not-integer"],
)
def test_malformed_values_exit_2_at_load(tmp_path, capsys, extra, problem):
    p = tmp_path / "malformed.scn"
    p.write_text(MALFORMED + extra)
    assert main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert problem in err and "Traceback" not in err


def test_malformed_values_all_listed(tmp_path):
    p = tmp_path / "malformed.scn"
    p.write_text(MALFORMED + "box: [1, -1]\ntol: abc\n"
                 "checks: [{check: cocycle, structure: Ltheta, values: 5}]\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(p)
    assert len(err.value.problems) == 3


class TestNonFiniteSamples:
    def run_single(self, tmp_path, forms: str, check: str):
        p = tmp_path / "overflow.scn"
        p.write_text(f"name: overflow\ncharts: {{M: [x, y]}}\nforms: {forms}\n"
                     f"structures: {{L: {{kind: theta, form: theta}}}}\nchecks: [{check}]\n")
        (outcome,) = run_scenario(load_scenario(p)).outcomes
        return outcome.result

    def test_exp_overflow_in_a_frame_is_an_error_verdict(self, tmp_path):
        result = self.run_single(
            tmp_path, '{theta: {chart: M, degree: 1, coeffs: {y: "exp(1000*x)"}}}',
            "{check: maximal-isotropy, structure: L}",
        )
        assert result.verdict is CheckVerdict.ERROR
        assert "exp overflows" in result.details[0]

    def test_overflowing_samples_do_not_pass(self, tmp_path):
        result = self.run_single(
            tmp_path, '{theta: {chart: M, degree: 1, coeffs: {y: "x"}}}',
            '{check: expr-zero, chart: M, expr: "exp(1000*x + 3000) - exp(1000*x + 3001)"}',
        )
        assert result.verdict is not CheckVerdict.PASS


def test_readme_lists_every_registered_kind():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for label, registry in (("Structure kinds", STRUCTURES), ("Groupoid kinds", GROUPOIDS),
                            ("Check kinds", CHECKS)):
        listed = re.search(label + r":(.*?)\.\s", readme, re.S).group(1)
        assert re.findall(r"`([^`]+)`", listed) == list(registry), label


class TestRunner:
    def test_expectations(self, tiny):
        report = run_scenario(load_scenario(tiny))
        assert report.ok
        verdicts = [o.result.verdict.value for o in report.outcomes]
        assert verdicts == ["PASS", "PASS", "FAIL"]

    def test_only_filter(self, tiny):
        report = run_scenario(load_scenario(tiny), only=["inv"])
        assert [o.spec.name for o in report.outcomes] == ["inv"]

    def test_only_unknown_name(self, tiny):
        with pytest.raises(ScenarioError):
            run_scenario(load_scenario(tiny), only=["nope"])

    def test_seed_override_changes_policy(self, tiny):
        report = run_scenario(load_scenario(tiny), seed=99, samples=10)
        assert report.policy.seed == 99 and report.policy.count == 10

    def test_tol_override(self, tiny):
        report = run_scenario(load_scenario(tiny), tol=1e-6)
        assert report.policy.tol_abs == 1e-6 and report.policy.tol_rel == 1e-6

    def test_json_report_shape(self, tiny):
        d = run_scenario(load_scenario(tiny)).to_json_dict()
        assert d["tool"]["name"] == "diracjacobi"
        assert d["scenario"]["digest"].startswith("sha256:")
        assert d["summary"] == {
            "total": 3, "ok": 3, "failed": 1, "errors": 0, "unexpected": 0,
        }
        for entry in d["checks"]:
            assert set(entry) >= {
                "name", "kind", "expect", "ok", "verdict", "mode",
                "residual_max", "residual_mean", "details", "witness",
            }


class TestCLI:
    def test_run_fixture_by_name(self, capsys):
        assert main(["run", "precontact_line", "--samples", "15"]) == 0
        out = capsys.readouterr().out
        assert "13/13 checks as expected" in out

    def test_exit_1_on_unexpected(self, tmp_path, capsys):
        p = tmp_path / "failing.scn"
        p.write_text(
            """
name: failing
charts: {M: [x]}
checks:
  - {check: expr-zero, chart: M, expr: "x"}
"""
        )
        assert main(["run", str(p)]) == 1

    def test_exit_2_on_missing_file(self, capsys):
        assert main(["run", "no-such-scenario"]) == 2
        assert "shipped fixtures" in capsys.readouterr().err

    def test_exit_2_on_invalid_scenario(self, tmp_path, capsys):
        p = tmp_path / "invalid.scn"
        p.write_text("name: x\ncharts: {M: [x, x]}\nchecks: [{check: expr-zero, chart: M}]\n")
        assert main(["run", str(p)]) == 2
        assert "duplicate coordinates" in capsys.readouterr().err

    def test_list_checks(self, capsys):
        assert main(["run", "negative_controls", "--list-checks"]) == 0
        out = capsys.readouterr().out
        assert "self-pairing" in out and "[expect: fail]" in out

    def test_report_written(self, tiny, tmp_path, capsys):
        report_path = tmp_path / "out" / "report.json"
        assert main(["run", str(tiny), "--report", str(report_path)]) == 0
        data = json.loads(report_path.read_text())
        assert data["summary"]["unexpected"] == 0

    def test_only_flag(self, tiny, capsys):
        assert main(["run", str(tiny), "--only", "iso"]) == 0
        out = capsys.readouterr().out
        assert "iso" in out and "inv" not in out.replace("involutivity", "")

    def test_console_script_entry(self):
        r = subprocess.run(
            [sys.executable, "-m", "diracjacobi.cli", "run", "--help"],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 0 and "--list-checks" in r.stdout


class TestShippedFixtures:
    def test_every_fixture_is_green(self):
        names = fixture_names()
        assert set(names) >= {
            "precontact_line",
            "precontact_xdy",
            "precontact_contact",
            "dirac_lift",
            "jacobi_poissonization",
            "conformal_class",
            "presymplectic_pair",
            "negative_controls",
        }
        for name in names:
            report = run_scenario(load_scenario(resolve_scenario_path(name)))
            assert report.ok, (name, [o.result.name for o in report.outcomes if not o.ok])

    def test_reports_byte_identical_across_runs(self, tmp_path):
        blobs = []
        for _ in range(2):
            chunks = []
            for name in fixture_names():
                report = run_scenario(load_scenario(resolve_scenario_path(name)))
                chunks.append(report.to_json())
            blobs.append("".join(chunks).encode())
        assert blobs[0] == blobs[1]

    def test_seed_changes_report(self):
        p = resolve_scenario_path("precontact_line")
        a = run_scenario(load_scenario(p), seed=1).to_json()
        b = run_scenario(load_scenario(p), seed=2).to_json()
        assert a != b  # witness-free runs still embed the policy seed

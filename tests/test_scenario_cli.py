"""Scenario loading/validation, the runner, the CLI, and report determinism."""

import inspect
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from diracjacobi import scenario
from diracjacobi.cli import fixture_names, main, resolve_scenario_path
from diracjacobi.report import CheckVerdict
from diracjacobi.scenario import (
    CHECKS,
    GROUPOIDS,
    SECTIONS,
    STRUCTURES,
    TOP_LEVEL_KEYS,
    Kind,
    Ref,
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
        ('multivectors: {P: {chart: M, degree: 2, coefs: {"x,y": "1"}}}\n' + ONE_CHECK,
         "multivector 'P': unknown argument 'coefs'"),
        ("expressions: {e: {chart: M, expr: x, exp: y}}\n" + ONE_CHECK,
         "expression 'e': unknown argument 'exp'"),
        ("fields: {Z: {chart: M, components: {x: '1'}, comps: {}}}\n" + ONE_CHECK,
         "field 'Z': unknown argument 'comps'"),
        ("groupoids: {G: {kind: pair-line, base: M}}\n"
         "precontact: {D: {groupoid: G, theta: theta, tim: t}}\n" + ONE_CHECK,
         "precontact 'D': unknown argument 'tim'"),
        ("sampels: 1\n" + ONE_CHECK, "unknown top-level key 'sampels'"),
        ("chart: {N: [z]}\n" + ONE_CHECK, "unknown top-level key 'chart'"),
        ("groupoids:\n  G: {kind: pair, base: M}\n"
         "  E: {kind: explicit, total: G.total, base: M, pairs: G.pairs, source: [x2, y2],\n"
         "      target: [x1, y1], unit: [x, y, x, y], inversion: [x2, y2, x1, y1],\n"
         "      pair_left: [x1, y1, x2, y2], pair_right: [x2, y2, '2*x3', y3],\n"
         "      multiplication: [x1, y1, x3, y3]}\n" + ONE_CHECK,
         "groupoid 'E': pair coordinates ['x3'] are no plain component"),
        ('checks: [{check: closed-2-cochain, structure: L0, omega: {"0,1": "x", "1,0": "-x"}}]\n',
         "omega names the pair 0,1 twice"),
        ('checks: [{check: expr-zero, chart: M, expr: "' + "9" * 5000 + ' - x"}]\n',
         "expr: number literal of 5000 characters is too long"),
        ('checks: [{check: expr-zero, chart: M, expr: "2^99999999 - x"}]\n',
         f"more than {sys.get_int_max_str_digits()} digits"),
        ('checks: [{check: expr-zero, chart: M, expr: "' + "9" * 3000 + "*" + "9" * 3000
         + ' - x"}]\n', f"folded constant has more than {sys.get_int_max_str_digits()} digits"),
    ],
    ids=["box-not-numbers", "tol-not-a-number", "box-empty", "cochain-index-not-integers",
         "cochain-index-three-slots", "cochain-index-out-of-range", "cocycle-values-not-a-list",
         "expression-does-not-parse", "flag-not-boolean", "unknown-argument", "degree-not-integer",
         "coeffs-misspelt", "expression-key-misspelt", "field-key-misspelt",
         "precontact-key-misspelt", "top-level-key-misspelt", "top-level-section-misspelt",
         "pair-coordinate-not-read-off", "cochain-pair-in-both-orientations",
         "literal-past-the-int-conversion-limit", "constant-power-past-the-int-conversion-limit",
         "constant-product-past-the-int-conversion-limit"],
)
def test_malformed_values_exit_2_at_load(tmp_path, capsys, extra, problem):
    p = tmp_path / "malformed.scn"
    p.write_text(MALFORMED + extra)
    assert main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert problem in err and "Traceback" not in err


@pytest.mark.parametrize(
    "body, problem",
    [
        (MALFORMED.replace("kind: theta", "kind: [a]") + ONE_CHECK,
         "structure 'Ltheta': unknown structure kind '['a']'"),
        (MALFORMED + "checks: [{check: [a], chart: M}]\n", "check #1: unknown check kind '['a']'"),
        (MALFORMED + "checks: [{check: involutivity, name: [a], structure: L0}]\n",
         "check #1: name must be a scalar"),
    ],
    ids=["structure-kind-a-list", "check-kind-a-list", "check-name-a-list"],
)
def test_unhashable_names_exit_2_at_load(tmp_path, capsys, body, problem):
    p = tmp_path / "unhashable.scn"
    p.write_text(body)
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


@pytest.mark.parametrize(
    "override, problem",
    [(["--samples", "0"], "samples must be a positive integer"),
     (["--samples", "-2"], "samples must be a positive integer"),
     (["--tol", "nan"], "tol must be a non-negative number"),
     (["--tol", "-1"], "tol must be a non-negative number")],
    ids=["samples-zero", "samples-negative", "tol-nan", "tol-negative"],
)
def test_bad_overrides_exit_2_before_any_check(tmp_path, capsys, override, problem):
    # exp(x) - 1 is no identity; with no samples or a NaN tolerance it would PASS
    p = tmp_path / "false.scn"
    p.write_text('name: false\ncharts: {M: [x]}\n'
                 'checks: [{check: expr-zero, chart: M, expr: "exp(x) - 1"}]\n')
    assert main(["run", str(p), *override]) == 2
    out, err = capsys.readouterr()
    assert problem in err and "Traceback" not in err and "PASS" not in out


def test_unknown_only_name_stops_before_any_check(tiny, monkeypatch):
    ran = []
    kind = CHECKS["involutivity"]
    monkeypatch.setitem(CHECKS, "involutivity", Kind(lambda *a, **k: ran.append(a), *kind.args))
    with pytest.raises(ScenarioError, match="no check named 'nope'"):
        run_scenario(load_scenario(tiny), only=["inv", "nope"])
    assert ran == []


def test_box_narrower_than_the_rational_grid(tmp_path, capsys):
    p = tmp_path / "narrow.scn"
    p.write_text('name: narrow\nbox: [0.001, 0.002]\ncharts: {M: [x, y]}\n'
                 'checks: [{check: expr-zero, chart: M, expr: "x - y"}]\n')
    assert main(["run", str(p)]) == 1
    out, err = capsys.readouterr()
    assert "expr-zero#1: FAIL" in out and "Traceback" not in err
    (outcome,) = run_scenario(load_scenario(p)).outcomes
    assert all(0.001 <= v <= 0.002 for v in outcome.result.witness["point"].values())


def test_huge_exact_sample_fails_with_a_finite_witness(tmp_path, capsys):
    # at seed 3 the first sample has |x^2000 - y^2000| far beyond the float range
    p = tmp_path / "huge.scn"
    p.write_text('name: huge\ncharts: {M: [x, y]}\n'
                 'checks: [{check: expr-zero, chart: M, expr: "x^2000 - y^2000", expect: fail}]\n')
    report_path = tmp_path / "huge.json"
    assert main(["run", str(p), "--seed", "3", "--report", str(report_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    strict = {"parse_constant": lambda c: pytest.fail(f"{c} is not JSON")}
    (check,) = json.loads(report_path.read_text(), **strict)["checks"]
    assert check["verdict"] == "FAIL" and check["mode"] == "sampled"
    value = check["witness"]["value"]
    assert math.isfinite(value) and abs(value) == check["residual_max"] > 1e300


def test_power_overflow_at_a_float_sample_is_resampled(tmp_path, capsys):
    # exp(x) makes the samples floats; at seed 3 x^2000 overflows a float at
    # one of them, which is a singular sample, not an internal error
    p = tmp_path / "huge.scn"
    p.write_text('name: huge\ncharts: {M: [x, y]}\n'
                 'checks: [{check: expr-zero, chart: M, expr: "exp(x) + x^2000 - y^2000", '
                 'expect: fail}]\n')
    report_path = tmp_path / "huge.json"
    assert main(["run", str(p), "--seed", "3", "--report", str(report_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    (check,) = json.loads(report_path.read_text())["checks"]
    assert check["verdict"] == "FAIL" and check["mode"] == "sampled"
    assert math.isfinite(check["witness"]["value"])


def test_unexpected_exception_is_an_internal_error(tiny, monkeypatch):
    def boom(policy, name, **args):
        raise RuntimeError("runner fault")

    kind = CHECKS["expr-zero"]
    monkeypatch.setitem(CHECKS, "expr-zero", Kind(boom, *kind.args))
    report = run_scenario(load_scenario(tiny))
    verdicts = [o.result.verdict for o in report.outcomes]
    assert verdicts == [CheckVerdict.PASS, CheckVerdict.PASS, CheckVerdict.ERROR]
    assert report.outcomes[2].result.details == ("internal: RuntimeError: runner fault",)


def test_nonzero_expression_reports_its_residual(tiny):
    bad = run_scenario(load_scenario(tiny), only=["bad"]).outcomes[0].result
    assert bad.verdict is CheckVerdict.FAIL
    assert bad.residual_max == abs(bad.witness["value"]) > 0


class TestNonFiniteSamples:
    def run_single(self, tmp_path, forms: str, check: str, box: str = ""):
        p = tmp_path / "overflow.scn"
        p.write_text(f"name: overflow\n{box}charts: {{M: [x, y]}}\nforms: {forms}\n"
                     f"structures: {{L: {{kind: theta, form: theta}}}}\nchecks: [{check}]\n")
        (outcome,) = run_scenario(load_scenario(p)).outcomes
        return outcome.result

    @pytest.mark.parametrize("box", ["", "box: [-2, 0.7]\n"], ids=["default-box", "narrow-box"])
    def test_exp_overflow_in_a_frame_has_a_certified_rank(self, tmp_path, box):
        # the frame's pivots are all 1, so its rank needs no sample, where
        # exp(1000*x) overflows (default box) or dwarfs the other rows (-2..0.7)
        result = self.run_single(
            tmp_path, '{theta: {chart: M, degree: 1, coeffs: {y: "exp(1000*x)"}}}',
            "{check: maximal-isotropy, structure: L}", box,
        )
        assert result.verdict is CheckVerdict.PASS and result.mode == "symbolic"

    def test_exp_overflow_in_a_structure_equality_is_certified(self, tmp_path):
        # each generator expands in the frame itself with no row left over, so
        # no float point is evaluated where exp(1000*x) overflows
        result = self.run_single(
            tmp_path, '{theta: {chart: M, degree: 1, coeffs: {y: "exp(1000*x)"}}}',
            "{check: structure-equal, a: L, b: L}",
        )
        assert result.verdict is CheckVerdict.PASS and result.mode == "symbolic"
        assert not result.details

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


def test_readme_lists_every_top_level_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"Top-level keys:(.*?)\.\s", readme, re.S).group(1)
    assert tuple(re.findall(r"`([^`]+)`", listed)) == TOP_LEVEL_KEYS


def test_every_kind_takes_its_declared_arguments():
    sections = [kinds for _, _, kinds in SECTIONS if isinstance(kinds, Kind)]
    kinds = [(kind, ("policy",)) for kind in (*sections, *STRUCTURES.values(), *GROUPOIDS.values())]
    kinds += [(kind, ("policy", "name")) for kind in CHECKS.values()]
    tables = {"charts", *(key for key, _, _ in SECTIONS)}
    for kind, leading in kinds:
        declared = tuple(arg.key.replace("-", "_") for arg in kind.args)
        assert tuple(inspect.signature(kind.fn).parameters) == leading + declared, declared
        assert {arg.section for arg in kind.args if isinstance(arg, Ref)} <= tables, declared


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")
def test_libyaml_and_python_loaders_agree_on_every_fixture():
    assert scenario._YAML_LOADER is yaml.CSafeLoader
    for name in fixture_names():
        data = resolve_scenario_path(name).read_bytes()
        assert yaml.load(data, Loader=yaml.CSafeLoader) == yaml.load(data, Loader=yaml.SafeLoader), name


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
        assert report.policy.tol == 1e-6

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


COCYCLE_VALUES = """
name: cocycle-values
charts: {M: [x]}
forms:
  theta: {chart: M, degree: 1, coeffs: {x: "1"}}
structures:
  Ltheta: {kind: theta, form: theta}
checks: [{check: cocycle-values, name: slots, structure: Ltheta, values: ["0", "%s"]}]
"""


@pytest.mark.parametrize(
    "value, verdict, mode",
    [
        ("1", CheckVerdict.PASS, "symbolic"),
        ("x/(1 + x) + 1/(1 + x)", CheckVerdict.PASS, "symbolic"),
        ("sin(x)^2 + cos(x)^2", CheckVerdict.PASS, "sampled"),
        ("2", CheckVerdict.FAIL, "symbolic"),
        ("sin(x)^2", CheckVerdict.FAIL, "sampled"),
    ],
)
def test_cocycle_values_are_zero_tested(tmp_path, value, verdict, mode):
    # Ltheta with theta = dx has the cocycle values (0, 1)
    p = tmp_path / "cocycle.scn"
    p.write_text(COCYCLE_VALUES % value)
    (outcome,) = run_scenario(load_scenario(p)).outcomes
    assert (outcome.result.verdict, outcome.result.mode) == (verdict, mode)


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

    def test_the_unproven_verdicts_are_these(self):
        # every other shipped verdict is decided by normalization: a proof lost
        # to sampling, or one gained, shows here
        unproven = {
            ("conformal_class", "conformal-lift-pair-identity"),
            ("negative_controls", "not-identically-zero"),
            ("negative_controls", "sigma-not-multiplicative"),
            ("negative_controls", "broken-multiplication"),
            ("negative_controls", "dropped-scale-not-multiplicative"),
            ("negative_controls", "not-homogeneous"),
            ("negative_controls", "scale-dropped-iso"),
            ("negative_controls", "non-closed-cochain"),
            ("precontact_line", "pythagoras"),
            ("precontact_xdy", "precontact"),
            ("precontact_xdy", "extraction-matches"),
            ("precontact_xdy", "target-forward"),
            ("precontact_xdy", "conformal-coherence"),
        }
        modes = {}
        for name in fixture_names():
            for o in run_scenario(load_scenario(resolve_scenario_path(name))).outcomes:
                modes[(name, o.result.name)] = o.result.mode
        assert len(modes) == 89
        assert {key for key, mode in modes.items() if mode != "symbolic"} == unproven

    def test_seed_changes_report(self):
        p = resolve_scenario_path("precontact_line")
        a = run_scenario(load_scenario(p), seed=1).to_json()
        b = run_scenario(load_scenario(p), seed=2).to_json()
        assert a != b  # witness-free runs still embed the policy seed


def test_an_exp_merge_identity_is_a_proof(tmp_path):
    # exp(ln(1+x)/2)^2 is 1 + x; multiplied out, the identity normalizes to
    # 0, not to a rational nonzero that would FAIL without a witness
    p = tmp_path / "merge.scn"
    p.write_text('name: merge\ncharts: {M: [x]}\n'
                 'checks: [{check: expr-zero, chart: M, '
                 'expr: "exp(ln(1+x)/2)*exp(ln(1+x)/2) - 1 - x"}]\n')
    (outcome,) = run_scenario(load_scenario(p)).outcomes
    assert (outcome.result.verdict, outcome.result.mode) == (CheckVerdict.PASS, "symbolic")

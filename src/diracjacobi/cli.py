"""Scenario-driven batch runner.

Usage:
    diracjacobi run SCENARIO [--seed N] [--samples N] [--tol X]
                             [--report PATH] [--list-checks] [--only NAME ...]

SCENARIO is a path to a .scn file, or the name of a shipped fixture (e.g.
``precontact_xdy``).  Exit codes: 0 every check matched its expectation,
1 at least one check did not, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .report import CheckVerdict
from .scenario import ScenarioError, load_scenario, run_scenario

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def fixture_names() -> list[str]:
    return sorted(p.stem for p in FIXTURE_DIR.glob("*.scn"))


def resolve_scenario_path(spec: str) -> Path | None:
    p = Path(spec)
    if p.is_file():
        return p
    for candidate in (FIXTURE_DIR / spec, FIXTURE_DIR / f"{spec}.scn"):
        if candidate.is_file():
            return candidate
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracjacobi",
        description="construct and verify Dirac-Jacobi and precontact-groupoid "
        "structures from declarative scenario files",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the checks of a scenario file")
    run.add_argument("scenario", help="scenario path or shipped fixture name")
    run.add_argument("--seed", type=int, default=None, help="override the sampling seed")
    run.add_argument("--samples", type=int, default=None, help="override samples per check")
    run.add_argument("--tol", type=float, default=None, help="override the zero-test tolerance")
    run.add_argument("--report", type=Path, default=None, help="write the JSON report here")
    run.add_argument(
        "--list-checks", action="store_true", help="list check names without running"
    )
    run.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="NAME",
        help="run only the named check (repeatable)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its code
        return int(exc.code or 0)

    path = resolve_scenario_path(ns.scenario)
    if path is None:
        print(f"error: no scenario file or fixture named '{ns.scenario}'", file=sys.stderr)
        known = ", ".join(fixture_names()) or "(none)"
        print(f"shipped fixtures: {known}", file=sys.stderr)
        return 2

    try:
        scenario = load_scenario(path)
    except ScenarioError as exc:
        print(f"error: scenario '{path}' is invalid:", file=sys.stderr)
        for p in exc.problems:
            print(f"  - {p}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read '{path}': {exc}", file=sys.stderr)
        return 2

    if ns.list_checks:
        for spec in scenario.checks:
            expect = "" if spec.expect == "pass" else f"  [expect: {spec.expect}]"
            print(f"{spec.name}  ({spec.kind}){expect}")
        return 0

    try:
        report = run_scenario(
            scenario, seed=ns.seed, samples=ns.samples, tol=ns.tol, only=ns.only
        )
    except ScenarioError as exc:
        for p in exc.problems:
            print(f"error: {p}", file=sys.stderr)
        return 2

    marker = {CheckVerdict.PASS: "PASS", CheckVerdict.FAIL: "FAIL", CheckVerdict.ERROR: "ERR "}
    print(f"scenario {scenario.name} (seed {report.policy.seed}, {report.policy.count} samples)")
    for o in report.outcomes:
        flag = "ok" if o.ok else "UNEXPECTED"
        expect = "" if o.spec.expect == "pass" else f" [expect {o.spec.expect}]"
        extras = f"  {o.result.details[0]}" if (not o.ok and o.result.details) else ""
        print(
            f"  [{flag:>10}] {o.result.name}: {marker[o.result.verdict]}"
            f"{expect}  ({o.spec.kind}, {o.result.mode}, {o.wall_ms:.0f} ms){extras}"
        )
    summary = report.to_json_dict()["summary"]
    print(
        f"{summary['ok']}/{summary['total']} checks as expected; "
        f"{summary['failed']} FAIL, {summary['errors']} ERROR"
    )

    if ns.report is not None:
        try:
            ns.report.parent.mkdir(parents=True, exist_ok=True)
            ns.report.write_text(report.to_json())
        except OSError as exc:
            print(f"error: cannot write report '{ns.report}': {exc}", file=sys.stderr)
            return 2
        print(f"report written to {ns.report}")

    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

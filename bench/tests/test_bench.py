"""Tests of the benchmark itself: generators, oracle, tracer and metric names.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from diracjacobi import chart_tensor, structures, symcalc  # noqa: E402


def _rendered(x):
    """A comparable rendering of generated inputs."""
    if isinstance(x, chart_tensor.VectorField):
        return ("field", tuple(symcalc.render(c) for c in x.components))
    if isinstance(x, chart_tensor.DifferentialForm):
        return ("form", x.degree, tuple((k, symcalc.render(v)) for k, v in x.entries))
    if isinstance(x, chart_tensor.SmoothMap):
        return ("map", tuple(symcalc.render(c) for c in x.components))
    if isinstance(x, workloads.Rung):
        return (x.kind, x.n, _rendered(x.theta))
    if isinstance(x, workloads.Instance):
        return (x.identity, x.degree, tuple(_rendered(d) for d in x.data))
    return x


@pytest.mark.parametrize("make", [workloads.ladder_inputs, workloads.calculus_inputs])
def test_generators_are_deterministic_per_seed(make):
    (a, pa), (b, pb) = make(5), make(5)
    (c, _) = make(6)
    assert [_rendered(x) for x in a] == [_rendered(x) for x in b]
    assert pa == pb
    assert [_rendered(x) for x in a] != [_rendered(x) for x in c]


def test_seed_changes_coefficients_not_supports():
    (a, _), (b, _) = workloads.calculus_inputs(1), workloads.calculus_inputs(2)
    for x, y in zip(a, b):
        for u, v in zip(x.data, y.data):
            if isinstance(u, chart_tensor.VectorField):
                assert [symcalc.free_coordinates(c) for c in u.components] == [
                    symcalc.free_coordinates(c) for c in v.components
                ]


def test_fixture_inputs_cover_every_shipped_fixture():
    inputs = workloads.fixture_inputs(3)
    assert inputs.seed == workloads.fixture_inputs(3).seed
    assert len(inputs.checks) == 8
    assert sum(inputs.checks.values()) == 89


def test_oracle_counts_wrong_expected_verdict(tmp_path):
    text = (ROOT / "src/diracjacobi/fixtures/precontact_line.scn").read_text()
    flipped = text.replace(
        "name: pythagoras, chart: M,", "name: pythagoras, expect: fail, chart: M,"
    )
    assert flipped != text
    path = tmp_path / "flipped.scn"
    path.write_text(flipped)
    inputs = workloads.FixtureInputs(seed=7, checks={path: 13})
    tally = workloads.Tally()
    workloads.fixtures_pass(inputs, tally)
    assert (tally.attempted, tally.wrong) == (13, 1)
    assert "pythagoras" in tally.notes[0]


def test_exception_counts_as_wrong_and_does_not_abort():
    tally = workloads.Tally()

    def boom():
        raise ValueError("broken")

    workloads._timed(tally, "boom", boom)
    workloads._timed(tally, "fine", lambda: (True, True))
    assert (tally.attempted, tally.wrong, tally.symbolic) == (2, 1, 1)
    assert "ValueError" in tally.notes[0]


def test_self_time_with_a_fake_clock():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    with tr.span("outer"):  # opens at 0
        with tr.span("inner"):  # 1 .. 2
            pass
        with tr.span("inner"):  # 3 .. 4
            pass
    # outer closes at 5: 5 s long, 2 s of it in children
    assert tr.stats["outer"].self_s == 3.0
    assert tr.stats["inner"].self_s == 2.0
    assert tr.stats["inner"].calls == 2


def _small_ladder():
    rungs, policy = workloads.ladder_inputs(1)
    small = [r for r in rungs if r.n <= 3][:3]
    return small, symcalc.SamplingPolicy(seed=policy.seed, count=5)


def test_self_times_fit_inside_the_span_that_holds_them():
    tr = tracing.Tracer()
    counters = tracing.Counters()
    counters.start_pass()
    inst = tracing.install(tr, counters.observers())
    try:
        with tr.span("pass"):
            workloads.ladder_pass(_small_ladder(), workloads.Tally())
    finally:
        inst.uninstall()
    spans = list(tr.spans())
    root = next(s for s in spans if s[2] == "pass")
    total_self = sum(stat.self_s for stat in tr.stats.values())
    assert total_self <= root[4] - root[3] + 1e-9
    children: dict = {}
    for span_id, parent, _, start, end in spans:
        children.setdefault(parent, 0.0)
        children[parent] += end - start
    for span_id, _, name, start, end in spans:
        assert children.get(span_id, 0.0) <= end - start + 1e-9, name
    assert all(st.self_s >= -1e-9 for st in tr.stats.values())


def test_install_rebinds_every_import_site_and_uninstall_restores():
    original = symcalc.normalize
    assert structures.normalize is original
    e = symcalc.parse("(x + 1)*(x - 1) - x^2 + 1 + (x*(x + 2))^2", ["x"])
    tr = tracing.Tracer()
    inst = tracing.install(tr)
    try:
        assert structures.normalize is symcalc.normalize is not original
        structures.normalize(e)  # recursive: one span for the outermost call
        assert tr.stats["symcalc.normalize"].calls == 1
    finally:
        inst.uninstall()
    assert structures.normalize is symcalc.normalize is original


def test_benchmark_json_names_match_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = tracing.layer_metrics(tracing.Tracer(), tracing.Counters(), 1, tracing.Tracer())
    names = list(layer) + list(run.TRACED_RUN_EXTRAS)
    assert [m["name"] for m in spec["per_layer"]] == names
    units = {**{k: u for k, (_, u) in layer.items()}, **run.TRACED_RUN_EXTRAS}
    assert all(units[m["name"]] == m["unit"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

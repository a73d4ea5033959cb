"""The findings ledger that assembles each check's verdict."""

from diracjacobi.report import CheckVerdict, Findings
from diracjacobi.symcalc import SamplingPolicy, ZeroReport, ZeroVerdict, check_zero_all, parse

XY = ("x", "y")


def test_findings_rules():
    policy = SamplingPolicy(seed=5, count=10)
    f = Findings("ledger")
    f.zero(check_zero_all([parse("x - x", XY)], policy), "never reported")
    assert f.result().mode == "symbolic" and f.result().passed

    f.zero(check_zero_all([parse("sin(x)^2 + cos(x)^2 - 1", XY)], policy), "never reported")
    assert f.result().mode == "sampled" and f.result().passed

    nonzero = ZeroReport(ZeroVerdict.NONZERO, "rational-sampled", 3.0, {"x": 1}, 3.0, 1)
    f.zero(nonzero, "first", pair=[0, 1])
    f.fail("second", {"point": "later"})
    f.residual(0.5, 1.0, "under tolerance", {"point": "never"})
    f.residual(2.0, 1.0, "first", {"point": "also later"})
    f.note("second")

    result = f.result()
    assert result.verdict is CheckVerdict.FAIL
    assert result.details == ("first", "second")
    assert result.witness == {"pair": [0, 1], "point": {"x": 1}, "value": 3.0}
    assert result.residual_max == 3.0
    assert f.result(mode="symbolic").mode == "symbolic"


def test_notes_alone_do_not_fail():
    f = Findings("notes")
    f.note("informational")
    result = f.result(mode="sampled")
    assert result.passed and result.details == ("informational",) and result.witness is None


def test_symbolic_nonzero_keeps_mode_symbolic():
    # normalization settles x - x + 2 as the constant 2: a FAIL, but no sampling
    f = Findings("constant")
    f.zero(check_zero_all([parse("x - x + 2", XY)], SamplingPolicy(seed=5, count=10)), "nonzero")
    result = f.result()
    assert result.verdict is CheckVerdict.FAIL and result.mode == "symbolic"
    assert result.witness == {"point": {}, "value": 2.0}

"""Verdict and result types shared by every verification operation."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping

from .symcalc import ZeroReport


class CheckVerdict(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    ERROR = "ERROR"


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        return float(value)
    return value


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification operation.

    mode records how zero decisions were reached (symbolic normalization vs
    sampling); residuals summarize the numeric side; witness points the first
    counterexample on failure.
    """

    name: str
    verdict: CheckVerdict
    mode: str = "sampled"
    residual_max: float = 0.0
    residual_mean: float = 0.0
    details: tuple[str, ...] = ()
    witness: Mapping[str, Any] | None = None

    @property
    def passed(self) -> bool:
        return self.verdict is CheckVerdict.PASS

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict.value,
            "mode": self.mode,
            "residual_max": float(self.residual_max),
            "residual_mean": float(self.residual_mean),
            "details": list(self.details),
            "witness": _jsonable(self.witness) if self.witness is not None else None,
        }


class ResidualStats:
    """Running max/mean over the residuals of one check."""

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def add(self, value: float) -> None:
        value = abs(float(value))
        self.count += 1
        self.total += value
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def passfail(
    name: str,
    ok: bool,
    *,
    mode: str = "sampled",
    stats: ResidualStats | None = None,
    details: tuple[str, ...] = (),
    witness: Mapping[str, Any] | None = None,
) -> CheckResult:
    return CheckResult(
        name=name,
        verdict=CheckVerdict.PASS if ok else CheckVerdict.FAIL,
        mode=mode,
        residual_max=stats.max if stats else 0.0,
        residual_mean=stats.mean if stats else 0.0,
        details=details,
        witness=witness,
    )


class Findings:
    """The verdict of one check, assembled from its zero tests, residuals and failures.

    The check fails at its first failing finding; the first witness given is
    kept; details keep their first occurrence, in order; the mode stays
    "symbolic" until a zero test is not decided by normalization or a rank rests
    on an uncertified pivot; every zero test and residual feeds the residual
    statistics.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.ok = True
        self.mode = "symbolic"
        self.stats = ResidualStats()
        self.details: dict[str, None] = {}
        self.witness: Mapping[str, Any] | None = None

    def note(self, detail: str) -> None:
        """Add a detail without changing the verdict."""
        self.details.setdefault(detail)

    def fail(self, detail: str | None = None, witness: Mapping[str, Any] | None = None) -> None:
        self.ok = False
        if detail is not None:
            self.note(detail)
        if self.witness is None:
            self.witness = witness

    def zero(self, rep: ZeroReport, detail: str | None = None, **witness) -> None:
        """Record a zero test; a nonzero one fails, its point and value joining ``witness``."""
        self.stats.add(rep.max_abs)
        if rep.mode != "symbolic":
            self.mode = "sampled"
        if not rep.is_zero:
            self.fail(detail, {**witness, "point": rep.witness_point, "value": rep.witness_value})

    def residual(
        self,
        value: float,
        tol: float = math.inf,
        detail: str | None = None,
        witness: Mapping[str, Any] | None = None,
    ) -> None:
        """Record a residual; one above ``tol`` fails."""
        self.stats.add(value)
        if value > tol:
            self.fail(detail, witness)

    def result(self, mode: str | None = None) -> CheckResult:
        return passfail(
            self.name, self.ok, mode=mode or self.mode, stats=self.stats,
            details=tuple(self.details), witness=self.witness,
        )


def error_result(name: str, message: str, *, witness=None) -> CheckResult:
    return CheckResult(
        name=name,
        verdict=CheckVerdict.ERROR,
        mode="n/a",
        details=(message,),
        witness=witness,
    )

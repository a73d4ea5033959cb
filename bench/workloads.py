"""The benchmark's three workloads: input generators, passes and the oracle.

Every workload is a closed loop with one caller: the next verdict is asked
for only after the previous one has returned.  A verdict is one check result
or one identity decided, and each is compared with a known answer.  Calls go
through module attributes (``structures.check_involutivity``) so that the
tracer's rebinding sees them.

Inputs are generated during set-up, and a pass only receives the generated
objects.  Coefficients come from ``random.Random(f"<workload>:<seed>")``;
which monomials appear comes from a stream fixed per workload, so that the
cost of a pass does not depend on the seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from pathlib import Path

from diracjacobi import chart_tensor, cli, scenario, structures, symcalc
from diracjacobi.report import CheckVerdict

SAMPLES = 40  # sample points per check, as in most shipped fixtures
COEFFS = (-2, -1, 1, 2)  # nonzero, so a generated polynomial always has its k terms


@dataclass
class Tally:
    """Oracle counts and per-verdict latencies of one run."""

    attempted: int = 0
    wrong: int = 0
    symbolic: int = 0
    latencies_s: list = field(default_factory=list)
    report_mismatches: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok: bool, symbolic: bool, seconds: float, what: str) -> None:
        self.attempted += 1
        self.symbolic += int(symbolic)
        self.latencies_s.append(seconds)
        if not ok:
            self.wrong += 1
            if len(self.notes) < 20:
                self.notes.append(f"wrong verdict: {what}")


def _timed(tally: Tally, what: str, decide) -> None:
    """Time one verdict; ``decide()`` returns (ok, symbolic).  Exceptions count as wrong."""
    start = time.perf_counter()
    try:
        ok, symbolic = decide()
    except Exception as exc:  # a crash is a wrong verdict, not the end of the run
        ok, symbolic = False, False
        what = f"{what}: {type(exc).__name__}: {exc}"
    tally.record(ok, symbolic, time.perf_counter() - start, what)


@dataclass
class PassResult:
    """Wall time of one pass and of its largest rung."""

    wall_s: float
    largest_rung_s: float


# --------------------------------------------------------------------------
# fixtures: the shipped scenario files through load_scenario and run_scenario
# --------------------------------------------------------------------------

LARGEST_FIXTURE = "negative_controls"  # the fixture with the most checks


@dataclass
class FixtureInputs:
    seed: int  # sampling seed passed to run_scenario in place of the file's
    checks: dict  # fixture path -> number of checks
    reports: dict = field(default_factory=dict)  # fixture -> report bytes of the first pass


def fixture_paths() -> list[Path]:
    return [cli.FIXTURE_DIR / f"{name}.scn" for name in cli.fixture_names()]


def fixture_seed(seed: int) -> int:
    return random.Random(f"fixtures:{seed}").randrange(1, 10**6)


def fixture_inputs(seed: int) -> FixtureInputs:
    checks = {p: len(scenario.load_scenario(p).checks) for p in fixture_paths()}
    return FixtureInputs(fixture_seed(seed), checks)


def fixtures_pass(inputs: FixtureInputs, tally: Tally) -> PassResult:
    start = time.perf_counter()
    largest = 0.0
    for path, count in inputs.checks.items():
        t0 = time.perf_counter()
        try:
            scn = scenario.load_scenario(path)
        except Exception as exc:  # every check of the fixture is lost
            for _ in range(count):
                tally.record(False, False, time.perf_counter() - t0, f"{path.stem}: {exc!r}")
            continue
        outcomes = []
        policy = None
        for spec in scn.checks:

            def decide(spec=spec):
                nonlocal policy
                report = scenario.run_scenario(scn, seed=inputs.seed, only=[spec.name])
                policy = report.policy
                outcome = report.outcomes[0]
                outcomes.append(outcome)
                return outcome.ok, outcome.result.mode == "symbolic"

            _timed(tally, f"{path.stem}/{spec.name}", decide)
        if policy is not None and len(outcomes) == len(scn.checks):
            text = scenario.ScenarioReport(scn, policy, tuple(outcomes)).to_json()
            if inputs.reports.setdefault(path.stem, text) != text:
                tally.report_mismatches += 1
                tally.notes.append(f"report bytes of {path.stem} differ between passes")
        if path.stem == LARGEST_FIXTURE:
            largest = time.perf_counter() - t0
    return PassResult(time.perf_counter() - start, largest)


# --------------------------------------------------------------------------
# ladder: L_theta on R^n, n = 2..8, plus conformal changes at small n
# --------------------------------------------------------------------------

# (kind, n, instances per pass).  Small rungs repeat, for 34 verdicts a pass,
# so that p50 falls among the six n = 3 involutivity verdicts and p90 on the
# n = 6 involutivity verdict, rather than between two verdicts of different
# cost, which would make them jump.
LADDER = (
    ("theta", 2, 3),
    ("theta", 3, 6),
    ("theta", 4, 2),
    ("theta", 5, 1),
    ("theta", 6, 1),
    ("theta", 7, 1),
    ("theta", 8, 1),
    ("conformal", 2, 1),
    ("conformal", 3, 1),
)
THETA_TERMS_PER_N = 2  # each coefficient of theta on R^n has 2n quadratic terms
LARGEST_N = max(n for kind, n, _ in LADDER if kind == "theta")
CONFORMAL_PHI = "exp(x0/2)"


def monomials(coords, degree: int) -> list[str]:
    """Every monomial of total degree <= degree, as parseable text."""
    return [
        "*".join(c) or "1"
        for k in range(degree + 1)
        for c in combinations_with_replacement(coords, k)
    ]


def random_poly(shape: random.Random, rng: random.Random, coords, degree: int,
                terms: int | None = None):
    """A polynomial of ``terms`` distinct monomials (all of them when None).

    ``shape`` picks the monomials and ``rng`` their coefficients.  Generators
    draw shapes from a stream that does not depend on the seed, so the work a
    verdict takes does not either; the seed changes only the coefficients.
    """
    pool = monomials(coords, degree)
    chosen = pool if terms is None else shape.sample(pool, min(terms, len(pool)))
    return symcalc.parse(" + ".join(f"{rng.choice(COEFFS)}*{m}" for m in chosen), coords)


@dataclass
class Rung:
    kind: str
    n: int
    theta: object  # DifferentialForm
    factor: object = None  # ConformalFactor for conformal rungs


def ladder_inputs(seed: int) -> tuple[list, symcalc.SamplingPolicy]:
    rng = random.Random(f"ladder:{seed}")
    rungs = []
    for kind, n, copies in LADDER:
        chart = chart_tensor.Chart(f"R{n}", tuple(f"x{i}" for i in range(n)))
        for _ in range(copies):
            shape = random.Random(f"ladder:n={n}")  # copies of a rung differ only in coefficients
            terms = THETA_TERMS_PER_N * n
            table = {(i,): random_poly(shape, rng, chart.coords, 2, terms) for i in range(n)}
            theta = chart_tensor.DifferentialForm(chart, 1, table)
            factor = None
            if kind == "conformal":
                factor = structures.ConformalFactor(
                    symcalc.parse(CONFORMAL_PHI, chart.coords), chart
                )
            rungs.append(Rung(kind, n, theta, factor))
    return rungs, symcalc.SamplingPolicy(seed=rng.randrange(1, 10**6), count=SAMPLES)


def ladder_pass(inputs, tally: Tally) -> PassResult:
    rungs, policy = inputs
    start = time.perf_counter()
    largest = 0.0
    for rung in rungs:
        t0 = time.perf_counter()
        what = f"{rung.kind} n={rung.n}"
        try:
            L = structures.construct_L_theta(rung.theta)
            if rung.factor is not None:
                L = structures.conformal_change(L, rung.factor)
        except Exception as exc:  # both verdicts of the rung are lost
            for _ in range(2):
                tally.record(False, False, time.perf_counter() - t0, f"{what}: {exc!r}")
            continue
        # every verdict is PASS by theorem: L_theta and its conformal changes
        # are Dirac-Jacobi structures for any 1-form theta
        for check in (structures.check_maximal_isotropy, structures.check_involutivity):

            def decide(check=check):
                result = check(L, policy)
                return result.verdict is CheckVerdict.PASS, result.mode == "symbolic"

            _timed(tally, f"{what} {check.__name__}", decide)
        if rung.kind == "theta" and rung.n == LARGEST_N:
            largest = time.perf_counter() - t0
    return PassResult(time.perf_counter() - start, largest)


# --------------------------------------------------------------------------
# calculus: the criterion-7 identities on polynomial data over R^3
# --------------------------------------------------------------------------

DEGREES = (2, 3, 4)
TERMS = 3  # monomials per generated polynomial
# One degree-4 antiderivation instance uses 20-term polynomials with b a
# 2-form: the product X^k * (a ^ b)_123 then exceeds normalize's 2000-term
# distribution cap, normalization leaves the residual unsettled, and exact
# rational sampling decides it.
DENSE_TERMS = 20
# Copies of the degree-2 Cartan instance on a 1-form, for 42 verdicts a pass:
# p50 then falls among them and p90 on the sparse degree-4 antiderivation,
# rather than between two verdicts of different cost.
CARTAN_COPIES = 7
R3 = ("x", "y", "z")
T2 = ("u", "v")


def _field(shape, rng, chart, degree, terms):
    return chart_tensor.VectorField(
        chart, tuple(random_poly(shape, rng, chart.coords, degree, terms) for _ in chart.coords)
    )


def _form(shape, rng, chart, form_degree, degree, terms):
    table = {
        idx: random_poly(shape, rng, chart.coords, degree, terms)
        for idx in combinations(range(chart.dim), form_degree)
    }
    return chart_tensor.DifferentialForm(chart, form_degree, table)


def _dd(w):
    d = chart_tensor.exterior_derivative
    return d(d(w))


def _cartan(X, w):
    ct = chart_tensor
    return ct.lie_derivative(X, w) - (
        ct.interior_product(X, ct.exterior_derivative(w))
        + ct.exterior_derivative(ct.interior_product(X, w))
    )


def _antiderivation(X, a, b):
    ct = chart_tensor
    sign = -1 if a.degree % 2 else 1
    lhs = ct.interior_product(X, ct.wedge(a, b))
    rhs = ct.wedge(ct.interior_product(X, a), b) + ct.wedge(
        a, ct.interior_product(X, b)
    ).scale(sign)
    return lhs - rhs


def _naturality(F, w):
    ct = chart_tensor
    return ct.pullback(F, ct.exterior_derivative(w)) - ct.exterior_derivative(ct.pullback(F, w))


def _jacobi(X, Y, Z):
    br = chart_tensor.lie_bracket
    return br(X, br(Y, Z)) + br(Y, br(Z, X)) + br(Z, br(X, Y))


IDENTITIES = {
    "d-squared": _dd,
    "cartan": _cartan,
    "antiderivation": _antiderivation,
    "naturality": _naturality,
    "jacobi": _jacobi,
}


@dataclass
class Instance:
    identity: str
    degree: int
    data: tuple


def calculus_inputs(seed: int) -> tuple[list, symcalc.SamplingPolicy]:
    shape, rng = random.Random("calculus"), random.Random(f"calculus:{seed}")
    g = (shape, rng)
    M = chart_tensor.Chart("R3", R3)
    T = chart_tensor.Chart("T2", T2)
    out = []
    for d in DEGREES:
        for k in (0, 1, 2, 3):
            out.append(Instance("d-squared", d, (_form(*g, M, k, d, TERMS),)))
        for k in (1, 2):
            state = shape.getstate()
            for _ in range(CARTAN_COPIES if (d, k) == (2, 1) else 1):
                shape.setstate(state)  # copies differ only in coefficients
                out.append(Instance("cartan", d, (_field(*g, M, d, TERMS), _form(*g, M, k, d, TERMS))))
        for k in (1, 2):
            terms = DENSE_TERMS if (d, k) == (4, 2) else TERMS
            data = (_field(*g, M, d, terms), _form(*g, M, 1, d, terms), _form(*g, M, k, d, terms))
            out.append(Instance("antiderivation", d, data))
        for k in (0, 1, 2):
            F = chart_tensor.SmoothMap(M, T, tuple(random_poly(*g, R3, d, TERMS) for _ in T2))
            out.append(Instance("naturality", d, (F, _form(*g, T, k, 2, TERMS))))
        out.append(Instance("jacobi", d, tuple(_field(*g, M, d, TERMS) for _ in range(3))))
    return out, symcalc.SamplingPolicy(seed=rng.randrange(1, 10**6), count=SAMPLES)


def residual_components(residual) -> list:
    if isinstance(residual, chart_tensor.VectorField):
        return list(residual.components)
    return list(residual.coefficients())


def calculus_pass(inputs, tally: Tally) -> PassResult:
    instances, policy = inputs
    start = time.perf_counter()
    largest = 0.0
    for i, inst in enumerate(instances):
        t0 = time.perf_counter()

        def decide(inst=inst, i=i):
            residual = IDENTITIES[inst.identity](*inst.data)
            # structural zero first; exact rational sampling otherwise
            rep = symcalc.check_zero_all(
                residual_components(residual), policy, coords=residual.chart.coords,
                label=f"{inst.identity}:{i}",
            )
            return rep.is_zero, rep.mode == "symbolic"

        _timed(tally, f"{inst.identity} degree {inst.degree}", decide)
        if inst.degree == max(DEGREES):
            largest += time.perf_counter() - t0
    return PassResult(time.perf_counter() - start, largest)


WORKLOADS = {
    "fixtures": (fixture_inputs, fixtures_pass),
    "ladder": (ladder_inputs, ladder_pass),
    "calculus": (calculus_inputs, calculus_pass),
}

"""Declarative scenario files: parse, validate, build, run, report.

A scenario is a YAML document (conventionally *.scn) declaring charts,
named symbolic objects, structures, groupoid models, precontact data, and a
list of checks.  Expressions use the symcalc grammar.  Every named object
must be declared before it is referenced; validation collects all problems
rather than stopping at the first.

Every object section is a row of ``SECTIONS``: its key, the label its
problems carry, and its kinds, in build order.  A section's kinds are one
``Kind``, or a family (``GROUPOIDS``, ``STRUCTURES``) whose member each entry
names by its ``kind:`` key; checks have their own family, ``CHECKS``.  A kind
declares its arguments once; the loader resolves every argument to the object
it names or parses and calls ``kind.fn(policy, **args)``, so a runner receives
objects and nothing is looked up twice.  Charts (a list of coordinates per
entry) and checks (a list) have builders of their own.

Checks may carry ``expect: pass|fail|error`` (default pass); a run is
successful when every verdict matches its expectation, which lets negative
controls live in fixture files.  Reports are deterministic for a fixed
(scenario, seed, version): the machine-readable JSON contains no timing.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple

import yaml

from . import __version__
from .algebroid import (
    AlgebroidOnL,
    Cocycle1,
    FrameCochain2,
    algebroid_differential_2,
    central_extension_bracket,
    check_action_iso,
    check_cocycle,
    extract_cocycle,
    omega_skew_half,
)
from .chart_tensor import (
    Chart,
    ChartError,
    DifferentialForm,
    Multivector,
    SmoothMap,
    VectorField,
)
from .courant import SectionE1, SectionTM, extended_courant_bracket
from .groupoid import (
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
    omega_to_eta,
    pair_groupoid,
    pair_groupoid_with_line,
)
from .report import CheckResult, CheckVerdict, Findings, error_result, passfail
from .structures import (
    Ambient,
    ConformalFactor,
    FrameSubbundle,
    check_forward_map,
    check_involutivity,
    check_maximal_isotropy,
    check_structures_equal,
    conformal_change,
    construct_L_jacobi,
    construct_L_theta,
    construct_two_form_pair,
    graph_of_bivector,
    graph_of_two_form,
    induced_dirac_on_MxR,
    lift_dirac,
)
from .symcalc import (
    Expr,
    ExprError,
    SamplingPolicy,
    ZERO,
    check_zero_all,
    is_structurally_zero,
    parse,
)


class ScenarioError(ValueError):
    """Scenario validation failed; .problems lists every issue found."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {p}" for p in problems))
        self.problems = problems


@dataclass(frozen=True)
class CheckSpec:
    kind: str
    name: str
    expect: str  # pass | fail | error
    args: Mapping[str, Any]  # resolved arguments, by the runner's parameter names


@dataclass
class Scenario:
    name: str
    policy: SamplingPolicy
    charts: dict[str, Chart]
    expressions: dict[str, tuple[Chart, Expr]]
    fields: dict[str, VectorField]
    forms: dict[str, DifferentialForm]
    multivectors: dict[str, Multivector]
    maps: dict[str, SmoothMap]
    structures: dict[str, FrameSubbundle]
    groupoids: dict[str, GroupoidModel]
    precontact: dict[str, tuple[GroupoidModel, PrecontactData]]
    checks: list[CheckSpec]
    digest: str
    source_name: str


# --------------------------------------------------------------------------
# declared arguments
# --------------------------------------------------------------------------

_BAD = object()  # an argument that did not resolve; its problem is recorded
REQUIRED = object()  # default of an argument that must be given

_TYPE_NAMES = {bool: "true or false", int: "an integer", str: "a name"}


def _missing(b: "_Builder", key: str, where: str):
    b.fail(f"{where}: missing required argument '{key}'")
    return _BAD


class Ref(NamedTuple):
    """The name of an object declared in ``section``; resolves to the object."""

    key: str
    section: str
    required: bool = True

    def resolve(self, b: "_Builder", value, got: dict, where: str):
        if value is None:
            return _missing(b, self.key, where) if self.required else None
        obj = b.lookup(self.section, value, where)
        return _BAD if obj is None else obj


class Value(NamedTuple):
    """A scalar of ``type``, one of ``choices`` when they are given."""

    key: str
    type: type
    default: Any
    choices: tuple = ()

    def resolve(self, b: "_Builder", value, got: dict, where: str):
        if value is None:
            return self.default
        if self.choices:
            if value in self.choices:
                return value
            wanted = "one of " + ", ".join(f"'{c}'" for c in self.choices)
        elif isinstance(value, self.type) and (self.type is bool or not isinstance(value, bool)):
            return value
        else:
            wanted = _TYPE_NAMES[self.type]
        b.fail(f"{where}: '{self.key}' must be {wanted}")
        return _BAD


class Expression(NamedTuple):
    """Expression text, or a list of them if ``many``, parsed on ``on(resolved)``.

    ``on`` maps the arguments resolved so far to the coordinates to parse on;
    ``default`` is text, None (may be absent) or REQUIRED.
    """

    key: str
    on: Callable[[dict], tuple[str, ...]]
    default: Any = "0"
    many: bool = False

    def resolve(self, b: "_Builder", value, got: dict, where: str):
        if value is None:
            if self.default is REQUIRED:
                return _missing(b, self.key, where)
            if self.default is None:
                return None
            value = self.default
        coords = self.on(got)
        if not self.many:
            e = b.expr_on(coords, value, f"{where}, {self.key}")
            return _BAD if e is None else e
        if not isinstance(value, (list, tuple)):
            b.fail(f"{where}: '{self.key}' must be a list of expressions")
            return _BAD
        exprs = tuple(b.expr_on(coords, v, f"{where}, {self.key}[{i}]") for i, v in enumerate(value))
        return _BAD if any(e is None for e in exprs) else exprs


def _chart_of(key: str):
    """Where an expression argument parses: on the chart of argument ``key``."""
    return lambda got: got[key].chart.coords


def _on_chart(got: dict) -> tuple[str, ...]:
    """Where an expression argument parses: on the chart named by ``chart``."""
    return got["chart"].coords


class MapComponents(NamedTuple):
    """One component expression per coordinate of the chart ``target``, on ``source``."""

    key: str
    source: str
    target: str

    def resolve(self, b: "_Builder", value, got: dict, where: str):
        src, dst = got[self.source], got[self.target]
        where = f"{where}, {self.key}"
        if not isinstance(value, list) or len(value) != dst.dim:
            b.fail(f"{where}: needs {dst.dim} component expressions")
            return _BAD
        exprs = [b.expr_on(src.coords, c, f"{where}[{i}]") for i, c in enumerate(value)]
        return _BAD if any(e is None for e in exprs) else SmoothMap(src, dst, tuple(exprs))


class Degree(NamedTuple):
    """The degree of a form or multivector: a non-negative integer."""

    key: str
    default: int

    def resolve(self, b: "_Builder", value, got: dict, where: str):
        if value is None:
            return self.default
        if isinstance(value, int) and not isinstance(value, bool) and value >= 0:
            return value
        b.fail(f"{where}: degree must be a non-negative integer")
        return _BAD


class Coefficients(NamedTuple):
    """A ``cls`` table ``"x,y": expr`` of degree ``degree`` on the chart ``chart``."""

    key: str
    cls: type

    def resolve(self, b: "_Builder", value, got: dict, where: str):
        chart, degree = got["chart"], got["degree"]
        table = b.form_table(chart, degree, value or {}, where)
        if table is None:
            return _BAD
        try:
            return self.cls(chart, degree, table)
        except ChartError as exc:
            b.fail(f"{where}: {exc}")
            return _BAD


class Components(NamedTuple):
    """A vector field ``x: expr`` on the chart ``chart``."""

    key: str

    def resolve(self, b: "_Builder", value, got: dict, where: str):
        field = b.vector_field(got["chart"], value or {}, where)
        return _BAD if field is None else field


class Generators(NamedTuple):
    """The generator list of a ``frame`` structure: X, xi and, in E1, f and g."""

    key: str

    def resolve(self, b: "_Builder", value, got: dict, where: str):
        chart, ambient = got["chart"], got["ambient"]
        if not isinstance(value, list) or not value:
            b.fail(f"{where}: needs a nonempty generator list")
            return _BAD
        gens = []
        for i, g in enumerate(value):
            gw = f"{where}, generator {i}"
            if not isinstance(g, Mapping):
                b.fail(f"{gw}: must be a mapping")
                return _BAD
            X = b.vector_field(chart, g.get("X") or {}, f"{gw}, X")
            xi = b.form_table(chart, 1, g.get("xi") or {}, gw)
            if X is None or xi is None:
                return _BAD
            xi = DifferentialForm(chart, 1, xi)
            if ambient == "tm":
                gens.append(SectionTM(X, xi))
                continue
            f = b.expr_on(chart.coords, g.get("f", "0"), f"{gw}, f")
            hslot = b.expr_on(chart.coords, g.get("g", "0"), f"{gw}, g")
            if f is None or hslot is None:
                return _BAD
            gens.append(SectionE1(X, f, xi, hslot))
        return tuple(gens)


class Cochain(NamedTuple):
    """``skew-pairing`` or a table ``"i,j": expr`` on the frame of ``structure``, each
    pair named at most once, as i,j or as j,i."""

    key: str

    def resolve(self, b: "_Builder", value, got: dict, where: str):
        if value is None or value == "skew-pairing":
            return "skew-pairing"
        if not isinstance(value, Mapping):
            b.fail(f"{where}: {self.key} must be 'skew-pairing' or an index table")
            return _BAD
        L = got["structure"]
        size = len(L.generators)
        table = {}
        for key, text in value.items():
            parts = str(key).replace(" ", "").split(",")
            if len(parts) != 2 or not all(p.isdecimal() and int(p) < size for p in parts):
                b.fail(f"{where}: {self.key} index '{key}' must be i,j with 0 <= i, j < {size}")
                return _BAD
            i, j = int(parts[0]), int(parts[1])
            if (j, i) in table or (i, j) in table:
                b.fail(f"{where}: {self.key} names the pair {min(i, j)},{max(i, j)} twice")
                return _BAD
            e = b.expr_on(L.chart.coords, text, f"{where}, {self.key} {key}")
            if e is None:
                return _BAD
            table[(i, j)] = e
        return table


class Kind:
    """A registered kind: the function its declared arguments are passed to.

    Argument keys become parameter names with '-' read as '_'.  Runners call
    library functions through their module-level names, never as stored
    function objects, so that tracing which rebinds those names sees them.
    """

    def __init__(self, fn: Callable, *args):
        self.fn, self.args = fn, args


_ON_STRUCTURE = _chart_of("structure")


def _frame(policy, chart, ambient, generators, rank):
    ambient = Ambient.TM_TSTAR if ambient == "tm" else Ambient.E1
    return FrameSubbundle(ambient, chart, generators, len(generators) if rank is None else rank)


# fn(policy, **args) -> FrameSubbundle
STRUCTURES: dict[str, Kind] = {
    "theta": Kind(lambda policy, form: construct_L_theta(form), Ref("form", "forms")),
    "jacobi": Kind(
        lambda policy, bivector, field: construct_L_jacobi(
            bivector, VectorField.zero(bivector.chart) if field is None else field),
        Ref("bivector", "multivectors"), Ref("field", "fields", False)),
    "lift": Kind(lambda policy, of: lift_dirac(of), Ref("of", "structures")),
    "two-form-graph": Kind(lambda policy, form: graph_of_two_form(form), Ref("form", "forms")),
    "bivector-graph": Kind(lambda policy, bivector: graph_of_bivector(bivector),
                           Ref("bivector", "multivectors")),
    "two-form-pair": Kind(lambda policy, form, mu: construct_two_form_pair(form, mu),
                          Ref("form", "forms"), Ref("mu", "forms")),
    "conformal": Kind(lambda policy, of, factor: conformal_change(of, ConformalFactor(factor, of.chart)),
                      Ref("of", "structures"), Expression("factor", _chart_of("of"), REQUIRED)),
    "induced": Kind(lambda policy, of, time: induced_dirac_on_MxR(of, time=time),
                    Ref("of", "structures"), Value("time", str, "t")),
    "frame": Kind(_frame, Ref("chart", "charts"), Value("ambient", str, "e1", choices=("tm", "e1")),
                  Generators("generators"), Value("rank", int, None)),
}

def _explicit_groupoid(policy, total, base, pairs, source, target, unit, inversion, pair_left,
                       pair_right, multiplication):
    return GroupoidModel(total, base, source, target, unit, inversion, pairs, pair_left, pair_right,
                         multiplication)


# fn(policy, **args) -> GroupoidModel
GROUPOIDS: dict[str, Kind] = {
    "pair": Kind(lambda policy, base: pair_groupoid(base), Ref("base", "charts")),
    "pair-line": Kind(lambda policy, base, time: pair_groupoid_with_line(base, time=time),
                      Ref("base", "charts"), Value("time", str, "t")),
    "action": Kind(
        lambda policy, of, sigma, time, fiber: build_action_groupoid(
            of, sigma, policy, time=time, fiber=fiber),
        Ref("of", "groupoids"), Expression("sigma", lambda got: got["of"].total.coords, REQUIRED),
        Value("time", str, "t"), Value("fiber", str, "u")),
    "explicit": Kind(
        _explicit_groupoid, Ref("total", "charts"), Ref("base", "charts"), Ref("pairs", "charts"),
        MapComponents("source", "total", "base"), MapComponents("target", "total", "base"),
        MapComponents("unit", "base", "total"), MapComponents("inversion", "total", "total"),
        MapComponents("pair_left", "pairs", "total"), MapComponents("pair_right", "pairs", "total"),
        MapComponents("multiplication", "pairs", "total")),
}


def _expr_zero(policy, name, chart, expr):
    f = Findings(name)
    f.zero(check_zero_all([expr], policy, coords=chart.coords, label=name))
    return f.result()


def _conformal_roundtrip(policy, name, structure, factor):
    factor = ConformalFactor(factor, structure.chart)
    back = conformal_change(conformal_change(structure, factor), factor.inverse())
    return check_structures_equal(back, structure, policy, name=name)


def _cocycle(policy, name, structure, values):
    A = AlgebroidOnL(structure)
    phi = extract_cocycle(structure) if values is None else Cocycle1(values)
    return check_cocycle(A, phi, policy, name=name)


def _cocycle_values(policy, name, structure, values):
    phi = extract_cocycle(structure)
    if len(values) != len(phi.values):
        return error_result(name, f"expected {len(phi.values)} values, got {len(values)}")
    ok = all(is_structurally_zero(a - b) for a, b in zip(phi.values, values))
    details = () if ok else ("extracted cocycle differs from the declared values",)
    return passfail(name, ok, mode="symbolic", details=details)


def _closed_2_cochain(policy, name, structure, omega):
    A = AlgebroidOnL(structure)
    if omega != "skew-pairing":
        Om = FrameCochain2.from_table(len(structure.generators), omega)
    elif structure.ambient is not Ambient.TM_TSTAR:
        return error_result(name, "skew-pairing cochain needs a TM+T*M frame")
    else:
        Om = FrameCochain2.from_function(structure, omega_skew_half)
    return algebroid_differential_2(A, Om, policy, name=name)


def _central_extension_agrees(policy, name, structure, f1, f2):
    L0 = structure
    if L0.ambient is not Ambient.TM_TSTAR:
        return error_result(name, "central extension needs a TM+T*M frame")
    A0 = AlgebroidOnL(L0)
    f = Findings(name)
    for i, gi in enumerate(L0.generators):
        for j, gj in enumerate(L0.generators):
            if i == j:
                continue
            li = SectionE1(gi.X, ZERO, gi.xi, f1)
            lj = SectionE1(gj.X, ZERO, gj.xi, f2)
            eb = extended_courant_bracket(li, lj)
            ce_sec, ce_scalar = central_extension_bracket(A0, omega_skew_half, (gi, f1), (gj, f2))
            diffs = (
                [a - b for a, b in zip(eb.X.components, ce_sec.X.components)]
                + [eb.f]
                + list((eb.xi - ce_sec.xi).coefficients())
                + [eb.g - ce_scalar]
            )
            rep = check_zero_all(diffs, policy, coords=L0.chart.coords, label=f"{name}:{i},{j}")
            f.zero(rep, f"brackets disagree on generators ({i}, {j})", pair=[i, j])
    return f.result()


def _eta_omega_roundtrip(policy, name, data, fiber, time):
    gm, pd = data
    action = build_action_groupoid(gm, pd.sigma, policy, time=time, fiber=fiber)
    ps = eta_to_omega(pd, fiber=fiber)
    sym = check_presymplectic(action, ps, policy, name=f"{name}:presymplectic")
    if not sym.passed:
        return replace(sym, name=name, details=("presymplectic side fails",) + sym.details)
    back = omega_to_eta(ps, pd.sigma, policy, fiber=fiber)
    diff = back.eta - pd.eta
    rep = check_zero_all(
        list(diff.coefficients()) + [back.sigma - pd.sigma],
        policy,
        coords=gm.total.coords,
        label=f"{name}:roundtrip",
    )
    f = Findings(name)
    # sampled if the action groupoid's sigma test or the presymplectic half was
    modes = {sym.mode, check_multiplicative_function(gm, pd.sigma, policy).mode}
    f.mode = "symbolic" if modes == {"symbolic"} else "sampled"
    f.zero(rep, "round-trip does not return the original data")
    return f.result()


def _omega_descends(policy, name, omega, fiber, sigma):
    pd = omega_to_eta(PresymplecticData(omega), sigma, policy, fiber=fiber)  # raises on non-homogeneous
    return passfail(name, True, mode="sampled", details=(f"descended to '{pd.eta.chart.name}'",))


def _equivalence_commutes(policy, name, data, factor, expected):
    gm, pd = data
    factor = ConformalFactor(factor, gm.base)
    pd2 = equivalence_transform(pd, factor, gm)
    pre = check_precontact(gm, pd2, policy, name=f"{name}:precontact")
    if not pre.passed:
        return replace(
            pre, name=name, details=("transformed data fails the precontact check",) + pre.details
        )
    base = extract_LM(gm, pd, policy, name=f"{name}:base")
    if not base.passed:
        return base
    return extract_LM(gm, pd2, policy, expected=conformal_change(expected, factor), name=name)


# fn(policy, name, **args) -> CheckResult
CHECKS: dict[str, Kind] = {
    "expr-zero": Kind(_expr_zero, Ref("chart", "charts"),
                      Expression("expr", _on_chart)),
    "maximal-isotropy": Kind(
        lambda policy, name, structure: check_maximal_isotropy(structure, policy, name=name),
        Ref("structure", "structures")),
    "involutivity": Kind(
        lambda policy, name, structure: check_involutivity(structure, policy, name=name),
        Ref("structure", "structures")),
    "structure-equal": Kind(
        lambda policy, name, a, b: check_structures_equal(a, b, policy, name=name),
        Ref("a", "structures"), Ref("b", "structures")),
    "forward-map": Kind(
        lambda policy, name, map, source, target, anti: check_forward_map(
            map, source, target, policy, anti=anti, name=name),
        Ref("map", "maps"), Ref("source", "structures"), Ref("target", "structures"),
        Value("anti", bool, False)),
    "conformal-roundtrip": Kind(_conformal_roundtrip, Ref("structure", "structures"),
                                Expression("factor", _ON_STRUCTURE, "1")),
    "cocycle": Kind(_cocycle, Ref("structure", "structures"),
                    Expression("values", _ON_STRUCTURE, None, many=True)),
    "cocycle-values": Kind(_cocycle_values, Ref("structure", "structures"),
                           Expression("values", _ON_STRUCTURE, (), many=True)),
    "closed-2-cochain": Kind(_closed_2_cochain, Ref("structure", "structures"), Cochain("omega")),
    "central-extension-agrees": Kind(_central_extension_agrees, Ref("structure", "structures"),
                                     Expression("f1", _ON_STRUCTURE), Expression("f2", _ON_STRUCTURE)),
    "action-iso": Kind(
        lambda policy, name, structure, time, drop_scale: check_action_iso(
            structure, policy, time=time, drop_scale=drop_scale, name=name),
        Ref("structure", "structures"), Value("time", str, "t"), Value("drop-scale", bool, False)),
    "groupoid-axioms": Kind(
        lambda policy, name, groupoid: check_groupoid(groupoid, policy, name=name),
        Ref("groupoid", "groupoids")),
    "multiplicative-function": Kind(
        lambda policy, name, groupoid, function: check_multiplicative_function(
            groupoid, function, policy, name=name),
        Ref("groupoid", "groupoids"), Expression("function", lambda got: got["groupoid"].total.coords)),
    "precontact": Kind(
        lambda policy, name, data: check_precontact(*data, policy, name=name),
        Ref("data", "precontact")),
    "presymplectic": Kind(
        lambda policy, name, groupoid, omega, field: check_presymplectic(
            groupoid, PresymplecticData(omega, field), policy, name=name),
        Ref("groupoid", "groupoids"), Ref("omega", "forms"), Ref("field", "fields", False)),
    "eta-omega-roundtrip": Kind(_eta_omega_roundtrip, Ref("data", "precontact"),
                                Value("fiber", str, "u"), Value("time", str, "t")),
    "omega-descends": Kind(
        _omega_descends, Ref("omega", "forms"), Value("fiber", str, "u"),
        Expression("sigma", lambda got: tuple(c for c in got["omega"].chart.coords if c != got["fiber"]))),
    "extract-structure": Kind(
        lambda policy, name, data, expected: extract_LM(*data, policy, expected=expected, name=name),
        Ref("data", "precontact"), Ref("expected", "structures", False)),
    "equivalence-commutes": Kind(
        _equivalence_commutes, Ref("data", "precontact"),
        Expression("factor", lambda got: got["data"][0].base.coords, "1"), Ref("expected", "structures")),
    "contact-nondegenerate": Kind(
        lambda policy, name, form: check_contact_form(form, policy, name=name), Ref("form", "forms")),
}


# --------------------------------------------------------------------------
# loading
# --------------------------------------------------------------------------


def _precontact(policy, groupoid, theta, time, eta, sigma):
    """A 1-form theta on the base, or eta on the groupoid's total chart with sigma."""
    if theta is not None:
        return groupoid, eta_from_precontact_form(groupoid, theta, time)
    if eta is None:
        raise ChartError("missing required argument 'eta'")
    if eta.chart != groupoid.total:
        raise ChartError("eta must live on the groupoid total chart")
    return groupoid, PrecontactData(eta, sigma)


# (key, label, kinds) of each object section, in build order.  ``kinds`` is the
# one Kind of a section without a ``kind:`` key, or the family its entries name
# their kind from.  Groupoids come first so that their derived charts
# (<name>.total, <name>.base, <name>.pairs) are referencable everywhere.
SECTIONS: tuple[tuple[str, str, Kind | dict[str, Kind]], ...] = (
    ("groupoids", "groupoid", GROUPOIDS),
    ("expressions", "expression", Kind(lambda policy, chart, expr: (chart, expr),
                                       Ref("chart", "charts"), Expression("expr", _on_chart, REQUIRED))),
    ("fields", "field", Kind(lambda policy, chart, components: components,
                             Ref("chart", "charts"), Components("components"))),
    ("forms", "form", Kind(lambda policy, chart, degree, coeffs: coeffs, Ref("chart", "charts"),
                           Degree("degree", 1), Coefficients("coeffs", DifferentialForm))),
    ("multivectors", "multivector", Kind(lambda policy, chart, degree, coeffs: coeffs,
                                         Ref("chart", "charts"), Degree("degree", 2),
                                         Coefficients("coeffs", Multivector))),
    ("maps", "map", Kind(lambda policy, source, target, components: components, Ref("source", "charts"),
                         Ref("target", "charts"), MapComponents("components", "source", "target"))),
    ("structures", "structure", STRUCTURES),
    ("precontact", "precontact", Kind(
        _precontact, Ref("groupoid", "groupoids"), Ref("theta", "forms", False), Value("time", str, "t"),
        Ref("eta", "forms", False), Expression("sigma", lambda got: got["groupoid"].total.coords))),
)


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


# policy key -> (SamplingPolicy field, test of a value, its conversion, the problem with a bad one)
_POLICY_KEYS = {
    "seed": ("seed", _integer, int, "seed must be an integer"),
    "samples": ("count", lambda v: _integer(v) and v >= 1, int, "samples must be a positive integer"),
    "tol": ("tol", lambda v: _real(v) and v >= 0, float, "tol must be a non-negative number"),
    "box": ("box", lambda v: isinstance(v, list) and len(v) == 2 and all(map(_real, v)) and v[0] < v[1],
            lambda v: (float(v[0]), float(v[1])), "box must be [lo, hi], two numbers with lo < hi"),
}

# the keys a scenario document may have: its name, the policy keys, the sections and the checks
TOP_LEVEL_KEYS = ("name", *_POLICY_KEYS, "charts", *(key for key, _, _ in SECTIONS), "checks")


def _policy(policy: SamplingPolicy, given: Mapping) -> tuple[SamplingPolicy, list[str]]:
    """``policy`` with the policy keys of ``given`` in place, and a problem for
    each bad value, whose field keeps its value from ``policy``.

    One rule for the values of a scenario file and for run_scenario's overrides.
    """
    changes, problems = {}, []
    for key, (field, good, convert, problem) in _POLICY_KEYS.items():
        if key not in given:
            continue
        if good(given[key]):
            changes[field] = convert(given[key])
        else:
            problems.append(problem)
    return replace(policy, **changes), problems


# libyaml's loader when PyYAML has it; both build the same documents
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class _Builder:
    def __init__(self, doc: Mapping):
        self.doc = doc
        self.problems: list[str] = []
        # the declared objects of each section, by name
        self.tables: dict[str, dict] = {"charts": {}} | {key: {} for key, _, _ in SECTIONS}
        self.checks: list[CheckSpec] = []

    def fail(self, msg: str) -> None:
        self.problems.append(msg)

    def section(self, key: str) -> dict:
        raw = self.doc.get(key) or {}
        if not isinstance(raw, Mapping):
            self.fail(f"section '{key}' must be a mapping")
            return {}
        return dict(raw)

    # -- resolution helpers ------------------------------------------------

    def lookup(self, section: str, name, where: str):
        """The object ``name`` declared in ``section``, or None with a problem recorded."""
        table = self.tables[section]
        if not isinstance(name, str) or name not in table:
            label = "precontact data" if section == "precontact" else section.rstrip("s")
            self.fail(f"{where}: unknown {label} '{name}'")
            return None
        return table[name]

    def expr_on(self, coords: tuple[str, ...], text, where: str) -> Expr | None:
        if isinstance(text, (int, float)):
            text = str(text)
        if not isinstance(text, str):
            self.fail(f"{where}: expected an expression string, got {text!r}")
            return None
        try:
            return parse(text, coords)
        except ExprError as exc:
            self.fail(f"{where}: {exc}")
            return None

    def resolve(self, args: tuple, spec: Mapping, where: str, fixed: tuple[str, ...]) -> dict | None:
        """Resolve the declared ``args`` of ``spec``; None if any failed.

        Keys of ``spec`` outside ``args`` and ``fixed`` are problems.  An
        argument that reads one that did not resolve (KeyError) is skipped,
        since that argument's problem is already recorded.
        """
        declared = {arg.key for arg in args}
        for key in spec:
            if key not in declared and key not in fixed:
                self.fail(f"{where}: unknown argument '{key}'")
        got: dict[str, Any] = {}
        ok = True
        for arg in args:
            try:
                value = arg.resolve(self, spec.get(arg.key), got, where)
            except KeyError:
                value = _BAD
            if value is _BAD:
                ok = False
            else:
                got[arg.key.replace("-", "_")] = value
        return got if ok else None

    def vector_field(self, chart: Chart, comps, where: str) -> VectorField | None:
        if not isinstance(comps, Mapping):
            self.fail(f"{where}: components must map coordinate names to expressions")
            return None
        table = {}
        for cname, text in comps.items():
            if cname not in chart.coords:
                self.fail(f"{where}: no coordinate '{cname}' on chart '{chart.name}'")
            else:
                table[cname] = self.expr_on(chart.coords, text, f"{where}, component {cname}")
        if len(table) < len(comps) or any(e is None for e in table.values()):
            return None
        return VectorField.from_dict(chart, table)

    def form_table(self, chart: Chart, degree: int, coeffs, where: str):
        table = {}
        if not isinstance(coeffs, Mapping):
            self.fail(f"{where}: coeffs must map index tuples to expressions")
            return None
        for key, text in coeffs.items():
            names = tuple(n for n in str(key).replace(" ", "").split(",") if n)
            if len(names) != degree:
                self.fail(f"{where}: index '{key}' does not have degree {degree}")
                return None
            try:
                idx = tuple(chart.index(n) for n in names)
            except ChartError as exc:
                self.fail(f"{where}: {exc}")
                return None
            e = self.expr_on(chart.coords, text, f"{where}, coefficient {key}")
            if e is None:
                return None
            table[idx] = table[idx] + e if idx in table else e
        return table

    # -- sections ----------------------------------------------------------

    def build_charts(self) -> None:
        for name, coords in self.section("charts").items():
            if not isinstance(coords, list) or not all(isinstance(c, str) for c in coords):
                self.fail(f"chart '{name}': coordinates must be a list of names")
                continue
            try:
                self.tables["charts"][name] = Chart(name, tuple(coords))
            except ChartError as exc:
                self.fail(f"chart '{name}': {exc}")

    def build(self, key: str, label: str, kinds: Kind | dict[str, Kind], policy: SamplingPolicy) -> None:
        """Build each entry of section ``key`` by its kind into ``tables[key]``."""
        for name, spec in self.section(key).items():
            where = f"{label} '{name}'"
            if not isinstance(spec, Mapping):
                self.fail(f"{where}: must be a mapping")
                continue
            kind, fixed = kinds, ()
            if isinstance(kinds, dict):
                kind, fixed = kinds.get(spec.get("kind")), ("kind",)
                if kind is None:
                    self.fail(f"{where}: unknown {label} kind '{spec.get('kind')}'")
                    continue
            args = self.resolve(kind.args, spec, where, fixed)
            if args is None:
                continue
            try:
                built = kind.fn(policy, **args)
            except (ChartError, GroupoidModelError) as exc:
                self.fail(f"{where}: {exc}")
                continue
            self.tables[key][name] = built
            if isinstance(built, GroupoidModel):
                for part, chart in (("total", built.total), ("base", built.base), ("pairs", built.pair_chart)):
                    self.tables["charts"].setdefault(f"{name}.{part}", chart)

    def build_checks(self) -> None:
        raw = self.doc.get("checks")
        if not isinstance(raw, list) or not raw:
            self.fail("scenario needs a nonempty 'checks' list")
            return
        seen_names = set()
        for i, spec in enumerate(raw):
            where = f"check #{i + 1}"
            if not isinstance(spec, Mapping):
                self.fail(f"{where}: must be a mapping")
                continue
            kind = spec.get("check")
            if kind not in CHECKS:
                self.fail(f"{where}: unknown check kind '{kind}'")
                continue
            name = spec.get("name", f"{kind}#{i + 1}")
            if name in seen_names:
                self.fail(f"{where}: duplicate check name '{name}'")
                continue
            seen_names.add(name)
            expect = spec.get("expect", "pass")
            if expect not in ("pass", "fail", "error"):
                self.fail(f"{where}: expect must be pass, fail, or error")
                continue
            args = self.resolve(CHECKS[kind].args, spec, f"{where} ({name})", ("check", "name", "expect"))
            if args is not None:
                self.checks.append(CheckSpec(kind, name, expect, args))


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file; raises ScenarioError on problems."""
    path = Path(path)
    data = path.read_bytes()
    digest = "sha256:" + hashlib.sha256(data).hexdigest()
    try:
        doc = yaml.load(data, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError([f"not valid YAML: {exc}"]) from exc
    if not isinstance(doc, Mapping):
        raise ScenarioError(["the scenario document must be a mapping"])

    builder = _Builder(doc)
    for key in doc:
        if key not in TOP_LEVEL_KEYS:
            builder.fail(f"unknown top-level key '{key}'")
    policy, problems = _policy(SamplingPolicy(), doc)
    builder.problems += problems
    builder.build_charts()
    for key, label, kinds in SECTIONS:
        builder.build(key, label, kinds, policy)
    builder.build_checks()
    if builder.problems:
        raise ScenarioError(builder.problems)
    return Scenario(name=str(doc.get("name", path.stem)), policy=policy, checks=builder.checks,
                    digest=digest, source_name=path.name, **builder.tables)


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckOutcome:
    spec: CheckSpec
    result: CheckResult
    wall_ms: float

    @property
    def ok(self) -> bool:
        got = self.result.verdict
        want = {
            "pass": CheckVerdict.PASS,
            "fail": CheckVerdict.FAIL,
            "error": CheckVerdict.ERROR,
        }[self.spec.expect]
        return got is want


@dataclass(frozen=True)
class ScenarioReport:
    scenario: Scenario
    policy: SamplingPolicy
    outcomes: tuple[CheckOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def to_json_dict(self) -> dict:
        checks = []
        for o in self.outcomes:
            entry = o.result.to_json_dict()
            entry["kind"] = o.spec.kind
            entry["expect"] = o.spec.expect
            entry["ok"] = o.ok
            checks.append(entry)
        n_fail = sum(1 for o in self.outcomes if o.result.verdict is CheckVerdict.FAIL)
        n_err = sum(1 for o in self.outcomes if o.result.verdict is CheckVerdict.ERROR)
        return {
            "tool": {"name": "diracjacobi", "version": __version__},
            "scenario": {
                "name": self.scenario.name,
                "file": self.scenario.source_name,
                "digest": self.scenario.digest,
            },
            "policy": {
                "seed": self.policy.seed,
                "samples": self.policy.count,
                "box": list(self.policy.box),
                "tol_abs": self.policy.tol,
                "tol_rel": self.policy.tol,
            },
            "checks": checks,
            "summary": {
                "total": len(self.outcomes),
                "ok": sum(1 for o in self.outcomes if o.ok),
                "failed": n_fail,
                "errors": n_err,
                "unexpected": sum(1 for o in self.outcomes if not o.ok),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def run_scenario(
    scenario: Scenario,
    seed: int | None = None,
    samples: int | None = None,
    tol: float | None = None,
    only: list[str] | None = None,
) -> ScenarioReport:
    import time as _time

    overrides = {"seed": seed, "samples": samples, "tol": tol}
    policy, problems = _policy(scenario.policy, {k: v for k, v in overrides.items() if v is not None})
    names = {spec.name for spec in scenario.checks}
    problems += [f"--only: no check named '{n}'" for n in only or () if n not in names]
    if problems:
        raise ScenarioError(problems)
    outcomes = []
    for spec in scenario.checks:
        if only and spec.name not in only:
            continue
        start = _time.perf_counter()
        try:
            result = CHECKS[spec.kind].fn(policy, spec.name, **spec.args)
        except (ChartError, GroupoidModelError, HomogeneityError, ExprError) as exc:
            result = error_result(spec.name, str(exc))
        except Exception as exc:  # a fault of the library, reported rather than raised
            result = error_result(spec.name, f"internal: {type(exc).__name__}: {exc}")
        wall = (_time.perf_counter() - start) * 1e3
        # the library may return a result named differently; pin the scenario name
        if result.name != spec.name:
            result = replace(result, name=spec.name)
        outcomes.append(CheckOutcome(spec, result, wall))
    return ScenarioReport(scenario, policy, tuple(outcomes))

"""Span tracing of the package's public functions, installed from outside.

The tracer wraps functions and methods of ``diracjacobi`` and rebinds every
module attribute that refers to them, because ``from .symcalc import
normalize`` gives ``structures`` a binding of its own.  Nothing under
``src/`` changes.

A span is ``(id, parent_id, name, start, end)``.  Spans stay in memory, in
flat arrays, until ``write_spans`` is called at the end of a run.  A layer's
self time is its span's duration minus the time of the spans it directly
holds.  A recursive function (``normalize``, ``evaluate``) gets one span per
outermost call: while its span is open its own module binding points at the
unwrapped function, so inner calls cost nothing extra and their time is that
span's self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import sys
import time
import types
from array import array
from dataclasses import dataclass

PACKAGE = "diracjacobi"

# (module, attribute) of every traced callable; "Class.method" traces a method.
# The span name is "<module>.<function>"; a few names below are overridden.
TRACED = (
    ("symcalc", "parse"),
    ("symcalc", "normalize"),
    ("symcalc", "differentiate"),
    ("symcalc", "evaluate"),
    ("symcalc", "evaluate_with_scale"),
    ("symcalc", "check_zero_all"),
    ("chart_tensor", "exterior_derivative"),
    ("chart_tensor", "interior_product"),
    ("chart_tensor", "lie_derivative"),
    ("chart_tensor", "lie_bracket"),
    ("chart_tensor", "wedge"),
    ("chart_tensor", "pullback"),
    ("courant", "courant_bracket"),
    ("courant", "extended_courant_bracket"),
    ("courant", "pairing_tm"),
    ("courant", "pairing_e1"),
    ("structures", "FrameSubbundle.fiber_matrix_at"),
    ("structures", "check_maximal_isotropy"),
    ("structures", "check_involutivity"),
    ("structures", "check_structures_equal"),
    ("structures", "check_forward_map"),
    ("linalg", "svdvals"),
    ("linalg", "matrix_rank"),
    ("linalg", "null_space"),
    ("linalg", "orthonormal_columns"),
    ("linalg", "spans_equal"),
    ("linalg", "membership_residual"),
    ("linalg", "least_squares_coefficients"),
    ("groupoid", "locate_pair"),
    ("groupoid", "sample_fiber"),
    ("groupoid", "check_groupoid"),
    ("groupoid", "check_precontact"),
    ("groupoid", "check_presymplectic"),
    ("groupoid", "extract_LM"),
    ("algebroid", "check_cocycle"),
    ("algebroid", "algebroid_differential_2"),
    ("algebroid", "check_action_iso"),
    ("scenario", "load_scenario"),
    ("scenario", "run_scenario"),
    ("scenario", "ScenarioReport.to_json"),
    ("report", "CheckResult.to_json_dict"),
    ("cli", "main"),
)

SPAN_NAMES = {
    "structures.FrameSubbundle.fiber_matrix_at": "structures.fiber_matrix_at",
    "scenario.ScenarioReport.to_json": "report.to_json",
    "report.CheckResult.to_json_dict": "report.to_json_dict",
}

YAML_SPAN = "scenario.yaml"


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0
    failures: int = 0


class Tracer:
    """Collects spans and per-name self time, call and failure counts.

    Spans are kept while ``record_spans`` is true; the statistics always are.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.record_spans = True
        self.stats: dict[str, LayerStat] = {}
        self._stack: list[list] = []  # [span id, name, stat, time of child spans, start]
        self._ids = itertools.count()
        self._names: dict[str, int] = {}
        self._span_ids = array("q")
        self._parents = array("q")  # -1 for a root span
        self._name_index = array("H")
        self._starts = array("d")
        self._ends = array("d")

    def stat(self, name: str) -> LayerStat:
        """The statistics record of ``name``, created on first use."""
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = LayerStat()
            self._names[name] = len(self._names)
        return stat

    def open(self, name: str) -> list:
        frame = [next(self._ids), name, self.stat(name), 0.0, self.clock()]
        self._stack.append(frame)
        return frame

    def close(self, frame: list, failed: bool = False) -> None:
        end = self.clock()
        stack = self._stack
        if stack.pop() is not frame:
            raise RuntimeError("spans must close in the order they opened")
        span_id, name, stat, child_s, start = frame
        duration = end - start
        if stack:
            parent = stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        else:
            parent_id = -1
        stat.calls += 1
        stat.self_s += duration - child_s
        if failed:
            stat.failures += 1
        if self.record_spans:
            self._span_ids.append(span_id)
            self._parents.append(parent_id)
            self._name_index.append(self._names[name])
            self._starts.append(start)
            self._ends.append(end)

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _SpanContext(self, name)

    def spans(self):
        """Recorded spans as (id, parent id or None, name, start, end), in closing order."""
        names = list(self._names)
        for i in range(len(self._span_ids)):
            parent = self._parents[i]
            yield (self._span_ids[i], None if parent < 0 else parent,
                   names[self._name_index[i]], self._starts[i], self._ends[i])

    def write_spans(self, path) -> None:
        """Write the recorded spans as gzip-compressed tab-separated text."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for span_id, parent, name, start, end in self.spans():
                fh.write(f"{span_id}\t{'' if parent is None else parent}\t{name}\t{start!r}\t{end!r}\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.frame = self.tracer.open(self.name)
        return self.frame

    def __exit__(self, exc_type, exc, tb):
        self.tracer.close(self.frame, failed=exc_type is not None)
        return False


def _wrap(tracer: Tracer, name: str, fn, home, attr: str, observers: dict):
    """Traced stand-in for ``fn``; ``home.attr`` is its own module binding."""
    observe = observers.get(name)
    active = False

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        nonlocal active
        if active:
            return fn(*args, **kwargs)
        active = True
        if home is not None:
            setattr(home, attr, fn)
        frame = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(frame, failed=True)
            raise
        finally:
            if home is not None:
                setattr(home, attr, traced)
            active = False
        tracer.close(frame)
        if observe is not None:
            observe(args, kwargs, result)
        return result

    return traced


class Installation:
    """Wrappers installed into the package; ``uninstall`` restores every binding."""

    def __init__(self):
        self._restore: list[tuple[object, str, object]] = []

    def rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def _package_modules() -> list[types.ModuleType]:
    for name in sorted({m for m, _ in TRACED}):
        importlib.import_module(f"{PACKAGE}.{name}")
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def install(tracer: Tracer, observers: dict | None = None) -> Installation:
    """Wrap every callable in TRACED and rebind each module attribute naming it.

    ``observers`` maps a span name to ``f(args, kwargs, result)``, called after
    each outermost call returns, for counters measured where the work happens.
    """
    observers = observers or {}
    modules = _package_modules()
    inst = Installation()
    for module_name, attr in TRACED:
        home = sys.modules[f"{PACKAGE}.{module_name}"]
        name = SPAN_NAMES.get(f"{module_name}.{attr}", f"{module_name}.{attr}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[meth]
            inst.rebind(cls, meth, _wrap(tracer, name, original, None, meth, observers))
            continue
        original = getattr(home, attr)
        traced = _wrap(tracer, name, original, home, attr, observers)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    inst.rebind(module, key, traced)

    # time yaml.safe_load as scenario calls it, through a stand-in module
    scenario = sys.modules[f"{PACKAGE}.scenario"]
    real_yaml = scenario.yaml
    proxy = types.ModuleType(real_yaml.__name__)
    proxy.__dict__.update(vars(real_yaml))
    proxy.safe_load = _wrap(tracer, YAML_SPAN, real_yaml.safe_load, None, "", observers)
    inst.rebind(scenario, "yaml", proxy)
    return inst


class Counters:
    """Counts taken where the work happens, fed by observers of outermost calls."""

    def __init__(self):
        self.zero_calls = 0
        self.zero_samples = 0
        self.zero_symbolic = 0  # answered in mode "symbolic"
        self.zero_holds = 0  # answered ZERO or PROBABLY_ZERO
        self.zero_structural = 0  # answered ZERO by normalization alone
        self.points_per_pass: list[set] = []

    def start_pass(self) -> None:
        self.points_per_pass.append(set())

    def observers(self) -> dict:
        return {"symcalc.check_zero_all": self._zero_test,
                "structures.fiber_matrix_at": self._fiber_eval}

    def _zero_test(self, args, kwargs, report) -> None:
        self.zero_calls += 1
        self.zero_samples += report.samples
        symbolic = report.mode == "symbolic"
        self.zero_symbolic += int(symbolic)
        if report.is_zero:
            self.zero_holds += 1
            self.zero_structural += int(symbolic)

    def _fiber_eval(self, args, kwargs, result) -> None:
        point = args[1] if len(args) > 1 else kwargs["point"]
        self.points_per_pass[-1].add(tuple(sorted(point.items())))


# per-layer metrics taken straight from span statistics: (span name, with self_s)
LAYER_SPANS = tuple(
    (SPAN_NAMES.get(f"{m}.{a}", f"{m}.{a}"), m != "linalg") for m, a in TRACED
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, counters: Counters, passes: int,
                  cli_tracer: Tracer) -> dict:
    """Per-layer metrics per traced pass, as name -> (value, unit).

    ``cli.main`` comes from ``cli_tracer``, one sweep of the CLI over the
    shipped fixtures; every other value is a mean over the traced passes.
    """
    out = {}
    for name, with_self in LAYER_SPANS:
        source, per = (cli_tracer, 1) if name == "cli.main" else (tracer, passes)
        stat = source.stats.get(name, LayerStat())
        out[f"{name}.calls"] = (stat.calls / per, "count")
        if with_self:
            out[f"{name}.self_s"] = (stat.self_s / per, "s")
    linalg = [s for n, s in tracer.stats.items() if n.startswith("linalg.")]
    out["linalg.self_s"] = (sum(s.self_s for s in linalg) / passes, "s")
    out["scenario.yaml_s"] = (tracer.stats.get(YAML_SPAN, LayerStat()).self_s / passes, "s")
    for name in ("groupoid.locate_pair", "groupoid.sample_fiber"):
        out[f"{name}.failures"] = (tracer.stats.get(name, LayerStat()).failures / passes, "count")
    c = counters
    out["symcalc.check_zero_all.samples"] = (c.zero_samples / passes, "count")
    out["symcalc.check_zero_all.symbolic_share"] = (_ratio(c.zero_symbolic, c.zero_calls), "ratio")
    out["symcalc.structural_zero_share"] = (_ratio(c.zero_structural, c.zero_holds), "ratio")
    fiber = tracer.stats.get("structures.fiber_matrix_at", LayerStat())
    distinct = sum(len(p) for p in c.points_per_pass)
    out["structures.fiber_evals_per_point"] = (_ratio(fiber.calls, distinct), "ratio")
    return out

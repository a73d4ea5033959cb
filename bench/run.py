#!/usr/bin/env python3
"""Benchmark of the diracjacobi package: verdict latency on three workloads.

Usage, from the root of the repository:

    python3 bench/run.py --workload {fixtures,ladder,calculus} --seed N \\
        --seconds S --trace {0,1}

Each workload runs in this one process as a closed loop with one caller.
Passes over the workload repeat until ``--seconds`` have passed and at least
MIN_VERDICTS verdicts were timed.  Every verdict is checked against a known
answer.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` untraced and traced passes alternate and the per-layer metrics
are printed.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record, with the
environment, goes to ``bench/out/``; a traced run also writes the spans of its
first traced pass there.

The package is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_VERDICTS = 110  # leaves at least 10 latency samples beyond p90
MAX_MEASURE_S = 120.0  # stop adding passes past this, even short of MIN_VERDICTS
SETUP_SAMPLES = 5  # one in this process, the rest in fresh interpreters
IMPORT_SAMPLES = 3
SUBPROCESS_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_ms.p50": "ms",
    "verdict_ms.p90": "ms",
    "largest_rung_s": "s",
    "cli_cold_s": "s",
    "peak_rss_mb": "MB",
    "symbolic_share": "ratio",
}

# per-layer metrics the traced run adds to tracer.layer_metrics
TRACED_RUN_EXTRAS = {
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    "wrong_verdict_share": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def require_package() -> None:
    """Exit 2 unless the package source sits next to the benchmark."""
    if not (SRC / "diracjacobi" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'diracjacobi'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def setup(workload: str, seed: int):
    """Import the package and generate the workload's inputs; returns (module, inputs, s)."""
    start = time.perf_counter()
    import workloads  # imports diracjacobi, numpy and yaml on first use

    inputs = workloads.WORKLOADS[workload][0](seed)
    return workloads, inputs, time.perf_counter() - start


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """Set-up time measured inside a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def cli_cold_runs(fixture_seed: int, fixtures: list[str]) -> tuple[list[float], list[str]]:
    """One cold ``python -m diracjacobi.cli run <fixture>`` per fixture, one at a time."""
    times, problems = [], []
    for name in fixtures:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "diracjacobi.cli", "run", name, "--seed", str(fixture_seed)],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            problems.append(f"cold CLI run of {name} exited {proc.returncode}")
    return times, problems


def import_seconds() -> float:
    """Median time to import diracjacobi.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import diracjacobi.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True,
        )
        samples.append(float(out.stdout.strip()))
    return statistics.median(samples)


def measure(run_pass, inputs, tally, seconds: float) -> list:
    passes = []
    start = time.perf_counter()
    while not passes or (
        (time.perf_counter() - start < seconds or tally.attempted < MIN_VERDICTS)
        and time.perf_counter() - start < MAX_MEASURE_S
    ):
        passes.append(run_pass(inputs, tally))
    return passes


def end_to_end(passes, tally, setup_samples, cli_times) -> dict:
    latencies_ms = [s * 1e3 for s in tally.latencies_s]
    deciles = statistics.quantiles(latencies_ms, n=10)
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "verdicts_per_s": tally.attempted / sum(p.wall_s for p in passes),
        "verdict_ms.p50": statistics.median(latencies_ms),
        "verdict_ms.p90": deciles[8],
        "largest_rung_s": statistics.median(p.largest_rung_s for p in passes),
        "cli_cold_s": statistics.median(cli_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "symbolic_share": tally.symbolic / tally.attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def traced_run(workloads, tracing, run_pass, inputs, tally, seconds, workload, fixture_seed):
    """Alternate untraced and traced passes; returns (per-layer metrics, tracer, problems)."""
    tracer = tracing.Tracer()
    counters = tracing.Counters()
    untraced, traced = [], []
    start = time.perf_counter()
    pair_s = 0.0  # an untraced and a traced pass; no pair starts that would end past ``seconds``
    while not traced or time.perf_counter() - start + pair_s < seconds:
        pair_start = time.perf_counter()
        untraced.append(run_pass(inputs, tally))
        counters.start_pass()
        inst = tracing.install(tracer, counters.observers())
        try:
            with tracer.span("pass"):
                traced.append(run_pass(inputs, tally))
        finally:
            inst.uninstall()
        tracer.record_spans = False  # spans of the first traced pass bound the memory
        pair_s = time.perf_counter() - pair_start

    # the CLI entry point, in process, once per shipped fixture
    cli_tracer = tracing.Tracer()
    problems = []
    if workload == "fixtures":
        inst = tracing.install(cli_tracer)
        try:
            for path in workloads.fixture_paths():
                with contextlib.redirect_stdout(io.StringIO()):
                    code = workloads.cli.main(
                        ["run", path.stem, "--seed", str(fixture_seed)]
                    )
                if code != 0:
                    problems.append(f"cli.main on {path.stem} returned {code}")
        finally:
            inst.uninstall()

    metrics = tracing.layer_metrics(tracer, counters, len(traced), cli_tracer)
    overhead = statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in untraced)
    extras = {
        "cli.import_s": import_seconds(),
        "trace.overhead_s": overhead,
        "wrong_verdict_share": tally.wrong / tally.attempted,
    }
    metrics.update((k, (v, TRACED_RUN_EXTRAS[k])) for k, v in extras.items())
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, tracer, problems


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import yaml

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fixtures", "ladder", "calculus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up in this interpreter, print it and exit")
    ns = parser.parse_args(argv)

    require_package()
    workloads, inputs, first_setup = setup(ns.workload, ns.seed)
    if ns.setup_only:
        print(json.dumps({"setup_s": first_setup}))
        return 0

    run_pass = workloads.WORKLOADS[ns.workload][1]
    fixture_seed = workloads.fixture_seed(ns.seed)
    tally = workloads.Tally()
    if ns.trace:
        import tracer as tracing

        metrics, tracer, problems = traced_run(workloads, tracing, run_pass, inputs, tally,
                                               ns.seconds, ns.workload, fixture_seed)
    else:
        passes = measure(run_pass, inputs, tally, ns.seconds)
        setup_samples = [first_setup] + [
            fresh_setup_seconds(ns.workload, ns.seed) for _ in range(SETUP_SAMPLES - 1)
        ]
        fixtures = [p.stem for p in workloads.fixture_paths()]
        cli_times, problems = cli_cold_runs(fixture_seed, fixtures)
        metrics = end_to_end(passes, tally, setup_samples, cli_times)

    correct = tally.wrong == 0 and tally.report_mismatches == 0 and not problems
    env = environment()
    record = {
        "workload": ns.workload, "seed": ns.seed, "seconds": ns.seconds, "trace": ns.trace,
        "correct": correct, "attempted": tally.attempted, "failed": tally.wrong,
        "wrong_verdict_share": tally.wrong / tally.attempted,
        "latency_samples": len(tally.latencies_s),
        "notes": tally.notes + problems, "metrics": metrics, "environment": env,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{ns.workload}-seed{ns.seed}-trace{ns.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if ns.trace:
        tracer.write_spans(OUT / f"{stem}.spans.tsv.gz")

    print(f"workload {ns.workload}  seed {ns.seed}  trace {ns.trace}  "
          f"verdicts {tally.attempted} (latency samples)  wrong {tally.wrong}")
    print(f"wrong_verdict_share {record['wrong_verdict_share']:.6g} ratio")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for note in record["notes"]:
        print(f"note: {note}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.wrong, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

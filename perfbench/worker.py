"""One fresh benchmark process: set up, run workload units, check each one.

Usage: python3 worker.py SPEC.json --mode setup|measure --seconds S --trace 0|1

Prints ``ready`` once the program's set-up is done, so the parent can time
set-up from process start.  In measure mode it then runs timed units until
the time is up, timing the pace kernel before the first unit and after
each one, and prints one JSON line with the per-unit results.  With
--trace 1 the units alternate between untraced and traced, so the trace
overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

MIN_TIMED_UNITS = 3
MIN_TRACED_UNITS = 2
TIME_CAP_S = 120.0
PACE_ITERS = 20000
PACE_REPS = 3

# Layers reported with call counts and self time, and those with self time only.
CALL_LAYERS = (
    "midpoint.select_translate",
    "finder.find",
    "field.rref",
    "field.coset_representatives",
    "lambda3.brute",
    "lambda3.pair_count",
    "spectral.dft",
)
SELF_LAYERS = CALL_LAYERS + (
    "midpoint.frame_build",
    "midpoint.run_depletion",
    "finder.estimate",
    "lambda3.spectral",
    "spectral.io",
    "experiment.run_experiment",
)
COUNT_NAMES = (
    "midpoint.translates_scored",
    "finder.attempts",
    "lambda3.brute.ops",
)
RATIO_NAMES = ("experiment.pool_parallelism", "midpoint.reuse_ratio")


def run_unit(spec: dict) -> tuple[int, float, float]:
    """One CLI call; returns (exit code, wall seconds, process CPU seconds)."""
    import ap3.cli

    out = Path(spec["out"])
    if out.exists():
        shutil.rmtree(out)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            code = ap3.cli.main(spec["argv"])
        except Exception:  # a crashed unit is a failed unit, not a failed run
            traceback.print_exc(file=sys.__stderr__)
            code = None
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return code, wall, cpu


def report_ratios(spec: dict) -> dict:
    """Pool parallelism and frame reuse, read from a verify report."""
    if spec["kind"] != "verify":
        return dict.fromkeys(RATIO_NAMES, 0.0)
    report = json.loads((Path(spec["out"]) / "report.json").read_text(encoding="utf-8"))
    entries = report.get("entries", [report])
    if "entries" in report:
        busy = sum(e["timing"]["wall_seconds"] for e in entries)
        parallelism = busy / report["timing"]["wall_seconds"]
    else:
        parallelism = 1.0
    steps = [s for e in entries for run in e["runs"] for s in run["steps"]]
    reused = sum(1 for s in steps if s["reused"])
    return {
        "experiment.pool_parallelism": parallelism,
        "midpoint.reuse_ratio": reused / len(steps) if steps else 0.0,
    }


def _pace_kernel() -> int:
    """Fixed interpreter work that touches no numpy and no ap3 code, so no
    change to the program and no library setting it makes can alter it."""
    table = {}
    xs = []
    acc = 0
    for i in range(PACE_ITERS):
        acc = (acc * 31 + i) % 1000003
        xs.append(acc)
        table[acc & 1023] = i
    return acc + len(table) + sum(xs[::7])


def host_pace() -> float:
    """Seconds the fastest of PACE_REPS runs of the pace kernel takes: how
    fast the host runs this process at the moment."""
    best = float("inf")
    for _ in range(PACE_REPS):
        start = time.perf_counter()
        _pace_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def layer_snapshot(tracer: Tracer, wall: float) -> dict:
    snap = {}
    for layer in CALL_LAYERS:
        snap[f"{layer}.calls"] = tracer.calls[layer]
    snap["field.sample_uniform_subspace.calls"] = tracer.calls["field.sample_uniform_subspace"]
    for layer in SELF_LAYERS:
        snap[f"{layer}.self_s"] = tracer.self_s[layer]
    for name in COUNT_NAMES:
        snap[name] = tracer.counts[name]
    attempts = tracer.counts["finder.attempts"]
    snap["finder.accept_ratio"] = tracer.calls["finder.find"] / attempts if attempts else 0.0
    snap["cli.pool_parallelism"] = tracer.total_s["cli.estimate_row"] / wall
    snap["unattributed_s"] = wall - tracer.covered_s()
    return snap


def measure(spec: dict, seconds: float, traced: bool) -> dict:
    """Run units until the next one would end after ``seconds`` and the
    minimum counts are met.

    Set-up has already warmed imports, digit tables and caches, so every
    unit is timed; peak RSS is read right after the first one.  The run
    stops before a unit that would overrun, judged by the fastest unit so
    far, so its length stays close to ``seconds`` whatever the unit size.
    """
    units = []
    reference = peak_rss_mb = None
    tracer = Tracer() if traced else None
    plain = traced_units = 0
    fastest = float("inf")
    start = time.perf_counter()
    pace = host_pace()
    while True:
        tracing = tracer is not None and traced_units < plain
        if tracing:
            tracer.reset()
            tracer.install()
        try:
            code, wall, cpu = run_unit(spec)
        finally:
            if tracing:
                tracer.uninstall()
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if spec["kind"] == "lambda3":
                reference = workloads.reference_lambda3(spec)
        ok, detail, cert = workloads.check(spec, code, reference)
        pace_after = host_pace()
        record = {"wall_s": wall, "cpu_s": cpu, "pace_s": (pace + pace_after) / 2,
                  "ok": ok, "detail": detail, "cert_ratio": cert}
        pace = pace_after
        if tracing:
            ratios = report_ratios(spec) if ok else dict.fromkeys(RATIO_NAMES, 0.0)
            record["layers"] = {**layer_snapshot(tracer, wall), **ratios}
            record["step_gaps_s"] = list(tracer.step_gaps_s)
            traced_units += 1
        else:
            plain += 1
        units.append(record)
        fastest = min(fastest, wall)
        if traced:
            enough = traced_units >= MIN_TRACED_UNITS and traced_units == plain
        else:
            enough = plain >= MIN_TIMED_UNITS
        elapsed = time.perf_counter() - start
        if enough and elapsed + fastest >= seconds:
            break
        if elapsed + wall > TIME_CAP_S and plain and (traced_units or not traced):
            break  # keeps the run inside its time limit when units are very slow
    return {"units": units, "peak_rss_mb": peak_rss_mb}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("spec")
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    workloads.setup(spec)
    print("ready", flush=True)
    if args.mode == "measure":
        print(json.dumps(measure(spec, args.seconds, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

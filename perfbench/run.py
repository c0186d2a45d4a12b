"""ap3 benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Load model: a closed loop with one client.  Each unit is one ``ap3.cli.main``
call and starts when the previous one has finished; the only threads are
the program's own pools and OpenBLAS's.  The run makes the workload's inputs
from --seed, times the program's set-up in fresh processes, then hands the
units to one fresh worker process (see worker.py), which times a fixed pace
kernel between units so that unit times can be scaled to a reference pace
of the host.  With --trace 0 the last line carries the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of a traced run.  --smoke
runs every workload in both modes at tiny sizes and checks the metric names
against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 7
# About the median time of the pace kernel (worker.host_pace) on the machine
# described in README.md: wall_s and cpu_s are reported at this pace.
PACE_REF_S = 0.005
WORKER_TIMEOUT_S = 150
COUNT_SUFFIXES = (".calls", ".ops", "finder.attempts", "midpoint.translates_scored")


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def environment(seed: int) -> dict:
    """Machine, library and thread settings recorded with every result."""
    import numpy as np

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {
            key: os.environ.get(key, "unset")
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "AP3_THREADS")
        },
    }


def git_commit() -> str:
    """HEAD of a git checkout at the root, read without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def blas_threads() -> int | str:
    """OpenBLAS's own thread count, asked through the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def run_worker(spec_path: Path, mode: str, seconds: float, trace: int) -> tuple[float, str]:
    """Run one worker to the end; returns (set-up seconds from process start,
    the rest of its standard output)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), str(spec_path), "--mode", mode,
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}")
    return setup_s, out


def run(name: str, seed: int, seconds: float, trace: int, grade: str = "full") -> tuple[dict, dict]:
    workdir_root = HERE / "work"
    workdir_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=workdir_root))
    try:
        spec = workloads.prepare(name, seed, grade, workdir)
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        setups = [run_worker(spec_path, "setup", 0, 0)[0] for _ in range(SETUP_SAMPLES - 1)]
        setup_s, out = run_worker(spec_path, "measure", seconds, trace)
        setups.append(setup_s)
        result = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarize(result, setups, trace)


def summarize(result: dict, setups: list, trace: int) -> tuple[dict, dict]:
    """(host figures of the run: unscaled times and the mean pace; the result line)."""
    units = result["units"]
    failed = [u for u in units if not u["ok"]]
    for u in failed:
        print(f"unit failed: {u['detail']}", file=sys.stderr)
    correct = not failed
    timed = [u for u in units if "layers" not in u]
    if trace == 0:
        ratios = [u["cert_ratio"] for u in units if u["ok"]]
        # Seconds per unit at the reference pace: each unit's time scaled by
        # how much slower than PACE_REF_S the pace kernel ran just before
        # and after it.  The host's speed drifts in phases of seconds to
        # minutes by more than the bounds; the scaling takes most of that
        # drift out (see README.md, Noise).
        metrics = {
            "wall_s": (statistics.fmean(u["wall_s"] * PACE_REF_S / u["pace_s"] for u in timed), "s"),
            "cpu_s": (statistics.fmean(u["cpu_s"] * PACE_REF_S / u["pace_s"] for u in timed), "s"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "ok_frac": ((len(units) - len(failed)) / len(units), "ratio"),
            "cert_ratio": (min(ratios, default=0.0), "ratio"),
        }
    else:
        traced = [u for u in units if "layers" in u]
        layers = [u["layers"] for u in traced]
        counts = [{k: v for k, v in lay.items() if k.endswith(COUNT_SUFFIXES)} for lay in layers]
        if any(c != counts[0] for c in counts[1:]):
            print("traced counts differ between units of one seed", file=sys.stderr)
            correct = False
        gaps_ms = [1000.0 * g for u in traced for g in u["step_gaps_s"]]
        metrics = {
            name: (median(lay[name] for lay in layers), layer_unit(name))
            for name in layers[0]
        }
        metrics["midpoint.step_ms.p50"] = (percentile(gaps_ms, 50), "ms")
        metrics["midpoint.step_ms.p99"] = (percentile(gaps_ms, 99), "ms")
        metrics["trace_overhead_frac"] = (
            median(u["wall_s"] for u in traced) / median(u["wall_s"] for u in timed) - 1.0,
            "ratio",
        )
    host = {
        "raw_wall_s": statistics.fmean(u["wall_s"] for u in timed),
        "raw_cpu_s": statistics.fmean(u["cpu_s"] for u in timed),
        "pace_s": statistics.fmean(u["pace_s"] for u in timed),
    }
    return host, {
        "correct": correct,
        "attempted": len(units),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    return "ratio"


def smoke() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    problems = []
    if sorted(names) != sorted(workloads.NAMES):
        problems.append(f"BENCHMARK.json workloads {names} != workloads.json {list(workloads.NAMES)}")
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            _, got = run(name, 1, 0.0, trace, grade="smoke")
            want = {m["name"]: m["unit"] for m in bench[key]}
            have = {k: v["unit"] for k, v in got["metrics"].items()}
            if have != want:
                problems.append(f"{name} trace={trace}: metrics {sorted(have)} != {sorted(want)}")
            if not got["correct"] or got["failed"]:
                problems.append(f"{name} trace={trace}: incorrect result {got}")
            print(f"smoke {name} trace={trace}: {len(have)} metrics, {got['attempted']} units")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "ap3" / "cli.py").is_file():
        print(f"no ap3 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    host, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"env": environment(args.seed), "host": host}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

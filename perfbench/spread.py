"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out FILE]

Runs run.py once per (workload, seed) with the run length from
BENCHMARK.json, then prints for every metric its median and the distance
between the first and third quartile as a share of the median, the same
figure a metric's bound is compared with.  --out writes every run's result
and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"runs": {}, "summary": {}}
    worst = 0
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            lines = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
            env, result = (json.loads(line) for line in lines.strip().splitlines()[-2:])
            runs.append({"seed": seed, **env, **result})
            if not result["correct"]:
                worst = 1
            print(f"{name} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        record["runs"][name] = runs
        summary = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            summary[metric] = {
                "median": statistics.median(values),
                "spread": spread(values) if len(values) > 1 else 0.0,
                "bound": bounds.get(metric),
            }
            print(f"  {metric:36s} median {summary[metric]['median']:.6g}  "
                  f"spread {summary[metric]['spread']:.4f}  bound {bounds.get(metric)}")
        record["summary"][name] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return worst


if __name__ == "__main__":
    sys.exit(main())

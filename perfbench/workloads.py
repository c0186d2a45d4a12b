"""The benchmark's workloads: inputs made from a seed, the CLI call each unit
makes, the program's set-up steps, and the checks run on every unit's output.

``prepare`` runs in the parent process (run.py) and writes the inputs; everything
else runs in the worker that imports ap3.  Sizes come in two grades: the
full sizes the benchmark measures, and tiny ones for the smoke test.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
META = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]
NAMES = tuple(META)

SIZES = {
    "full": {
        "deplete-refresh": {"p": 3, "n": 6, "trials": 200},
        "deplete-lazy": {"p": 5, "n": 4, "trials": 100},
        "lemma-estimate": {"p": 3, "n": 7, "ks": "5", "trials": 1000},
        "spectral-large": {"p": 3, "n": 11},
    },
    "smoke": {
        "deplete-refresh": {"p": 3, "n": 4, "trials": 20},
        "deplete-lazy": {"p": 5, "n": 4, "trials": 20},
        "lemma-estimate": {"p": 3, "n": 4, "ks": "2,3", "trials": 50},
        "spectral-large": {"p": 3, "n": 5},
    },
}

# Lemma estimates are Monte-Carlo means; a correct program lands within this
# many standard errors of the exact identity except with negligible chance.
MOMENT_SIGMAS = 6.0
SPECTRAL_RTOL = 1e-9


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj), encoding="utf-8")


def prepare(name: str, seed: int, grade: str, workdir: Path) -> dict:
    """Write the workload's inputs under ``workdir``; return the worker's spec."""
    size = SIZES[grade][name]
    rng = np.random.default_rng([seed % 2**64, NAMES.index(name)])
    out = workdir / "out"
    spec = {"workload": name, "expected_exit": META[name]["expected_exit"], "out": str(out)}
    if name == "deplete-refresh":
        p, n = size["p"], size["n"]
        F = p**n
        config = {
            "label": f"sevenfold smoothing at p={p} n={n}, refresh every step",
            "p": p,
            "n": n,
            "seed": _seed(rng),
            "f": {"kind": "conv_power", "size": math.ceil(F**0.99), "power": 7},
            "g": {"kind": "same"},
            "k": 5,
            "ordering": "fgf",
            "refresh": "always",
            "trials": size["trials"],
        }
        path = workdir / "config.json"
        _write_json(path, config)
        spec.update(kind="verify", config=str(path), entries=[config])
        spec["argv"] = ["verify", "--config", str(path), "--out", str(out)]
    elif name == "deplete-lazy":
        p, n = size["p"], size["n"]
        frequency = [int(d) for d in rng.integers(0, p, size=n)]
        frequency[int(rng.integers(n))] = int(rng.integers(1, p))
        entries = [
            {
                "label": f"cosine majorant, uniform minorant, lazy refresh, {ordering}",
                "p": p,
                "n": n,
                "seed": _seed(rng),
                "f": {"kind": "cosine", "base": 0.99, "amplitude": 0.01, "frequency": frequency},
                "g": {"kind": "uniform", "low": 0.9, "high": 0.98},
                "k": 4,
                "ordering": ordering,
                "refresh": "lazy",
                "trials": size["trials"],
            }
            for ordering in ("fgf", "gff")
        ]
        path = workdir / "config.json"
        _write_json(path, {"experiments": entries})
        spec.update(kind="verify", config=str(path), entries=entries)
        spec["argv"] = ["verify", "--config", str(path), "--out", str(out)]
    elif name == "lemma-estimate":
        spec.update(kind="estimate", p=size["p"], n=size["n"], ks=size["ks"], trials=size["trials"])
        spec["argv"] = [
            "estimate", "--p", str(size["p"]), "--n", str(size["n"]), "--k", size["ks"],
            "--trials", str(size["trials"]), "--lemma", "both",
            "--seed", str(_seed(rng)), "--out", str(out),
        ]
    elif name == "spectral-large":
        p, n = size["p"], size["n"]
        f = rng.uniform(0.0, 1.0, p**n)
        g = f * rng.uniform(0.0, 1.0, p**n)
        files = []
        for label, values in (("f", f), ("g", g)):
            path = workdir / f"{label}.json"
            _write_json(path, {"p": p, "n": n, "values": values.tolist()})
            files.append(str(path))
        spec.update(kind="lambda3", files=files)
        spec["argv"] = [
            "lambda3", "--files", *files, "--ordering", "both",
            "--method", "spectral", "--out", str(out),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return spec


def setup(spec: dict) -> None:
    """The program's own set-up for the workload, as a fresh CLI process does
    it: import ap3, read the inputs, build f and g, fill the digit table."""
    import ap3.cli
    from ap3.experiment import ExperimentConfig, build_recipe, derive_minorant
    from ap3.field import FieldParams

    if spec["kind"] == "verify":
        raw = json.loads(Path(spec["config"]).read_text(encoding="utf-8"))
        for entry in raw.get("experiments", [raw]):
            config = ExperimentConfig.from_dict(entry)
            params = FieldParams(config.p, config.n)
            params.digit_table()
            rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(4)[0])
            f = build_recipe(params, config.f_recipe, rng)
            derive_minorant(f, config.g_recipe, rng)
    elif spec["kind"] == "estimate":
        FieldParams(spec["p"], spec["n"]).digit_table()
    else:
        fs = [ap3.cli._load_function(path, None, None) for path in spec["files"]]
        fs[0].params.digit_table()


def reference_lambda3(spec: dict) -> dict:
    """Lambda3 for each ordering by the benchmark's own numpy FFT."""
    cubes = []
    for path in spec["files"]:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        p, n = int(data["p"]), int(data["n"])
        cubes.append(np.asarray(data["values"], dtype=np.float64).reshape((p,) * n))
    F = p**n
    neg2 = (-2 * np.arange(p)) % p  # a -> -2a acts digit by digit
    fh, gh = (np.fft.fftn(c) for c in cubes)

    def at_neg2(h):
        for axis in range(n):
            h = np.take(h, neg2, axis=axis)
        return h

    return {
        "fgf": float(np.real(np.sum(fh * at_neg2(gh) * fh))) / F**3,
        "gff": float(np.real(np.sum(gh * at_neg2(fh) * fh))) / F**3,
    }


def check(spec: dict, code: int | None, reference: dict | None) -> tuple[bool, str, float | None]:
    """(ok, detail, cert_ratio) for the unit whose output sits in spec["out"].

    cert_ratio is how close the program's answer comes to an independent
    one: for verify, the certified Lambda3 lower bound over the brute-force
    density (min over runs); for estimate, the separation lemma's floor over
    the measured frequency (min over k); for lambda3, the reported density
    against the benchmark's own FFT, as min(a/b, b/a) over orderings.
    """
    out = Path(spec["out"])
    if code != spec["expected_exit"]:
        return False, f"exit {code}, expected {spec['expected_exit']}", None
    if spec["kind"] == "verify":
        return _check_verify(spec, json.loads((out / "report.json").read_text(encoding="utf-8")))
    if spec["kind"] == "estimate":
        return _check_estimate(spec, (out / "estimates.csv").read_text(encoding="utf-8"))
    return _check_lambda3(json.loads((out / "lambda3.json").read_text(encoding="utf-8")), reference)


def _check_verify(spec: dict, report: dict) -> tuple[bool, str, float | None]:
    entries = report.get("entries", [report])
    if len(entries) != len(spec["entries"]) or not report.get("passed"):
        return False, "report not passed", None
    ratios = []
    for entry, config in zip(entries, spec["entries"]):
        if not entry.get("passed") or entry["failures"]:
            return False, f"entry failures {entry['failures']}", None
        failed = [a["name"] for a in entry["assertions"] if not a["passed"]]
        if failed:
            return False, f"assertions failed: {failed}", None
        if len(entry["runs"]) != 1 or entry["runs"][0]["ordering"] != config["ordering"]:
            return False, "missing depletion run", None
        for run in entry["runs"]:
            if len(run["steps"]) != run["r"]:
                return False, f"{len(run['steps'])} steps, r = {run['r']}", None
            if not run["lambda_lower"] <= run["lambda_measured_brute"]:
                return False, "certified bound above measured density", None
            ratios.append(run["lambda_lower"] / run["lambda_measured_brute"])
    return True, "", min(ratios)


def _check_estimate(spec: dict, text: str) -> tuple[bool, str, float | None]:
    rows = list(csv.DictReader(text.splitlines()))
    ks = [int(k) for k in spec["ks"].split(",")]
    if [int(r["k"]) for r in rows] != ks:
        return False, f"rows for k = {[r['k'] for r in rows]}, expected {ks}", None
    for row in rows:
        for key in ("separation", "coset_density"):
            if not 0.0 <= float(row[key]) <= 1.0:
                return False, f"k={row['k']}: {key} = {row[key]} outside [0, 1]", None
        mean, identity = float(row["moment_mean"]), float(row["moment_mean_identity"])
        stderr = math.sqrt(float(row["moment_variance"]) / int(row["trials"]))
        if abs(mean - identity) > MOMENT_SIGMAS * stderr + 1e-9:
            return False, f"k={row['k']}: moment mean {mean} vs identity {identity}", None
    return True, "", min(float(r["separation_bound"]) / float(r["separation"]) for r in rows)


def _check_lambda3(report: dict, reference: dict) -> tuple[bool, str, float | None]:
    got = {row["ordering"]: row["spectral"] for row in report["results"]}
    if set(got) != set(reference):
        return False, f"orderings {sorted(got)}", None
    for ordering, want in reference.items():
        if abs(got[ordering] - want) > SPECTRAL_RTOL * abs(want):
            return False, f"{ordering}: {got[ordering]} vs reference {want}", None
    return True, "", min(min(got[o] / want, want / got[o]) for o, want in reference.items())

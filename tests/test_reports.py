"""The bundled `verify` reports and `ap3 estimate` outputs, pinned field by
field against the golden files in tests/golden, and the report schema.

Each golden file is exactly what its command prints, a report indented so
that a change to it diffs field by field:

    ap3 verify --config configs/<config>.json | python -m json.tool --indent 2 --sort-keys > tests/golden/<config>.json
    ap3 estimate <args> > tests/golden/<name>.csv

with the estimate names and arguments in ESTIMATES below.  A change that
alters an output on purpose regenerates its golden file with the same
command, so the diff shows which fields moved, and says why in CHANGES.md.

Keys, list lengths, value types, ints, bools, nulls and strings match
exactly; `timing` is dropped from both sides.  Floats match within the
TOLERANCE of their field, so the last-bit drift between BLAS and SIMD
kernels passes while a fault that moves a float further fails.
"""

import csv
import functools
import io
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from ap3.cli import main
from ap3.experiment import (
    ExperimentConfig,
    load_config_file,
    report_json,
    run_config,
    strip_timing,
)
from ap3.midpoint import DepletionRun

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

# (config file, exit code, the step at which each run's E(g_i) first falls
# below the density floor)
PINNED = [
    ("budget_point_mass.json", 3, (None,)),
    ("dense_theorem_p5_n4.json", 0, (30, 30)),
    ("dense_theorem_p5_n4_lazy.json", 0, (31, 31)),
    ("refusal_empty_minorant.json", 2, ()),
    ("sevenfold_p3_n5.json", 0, (8,)),
    ("smoothed_p3_n5.json", 0, (8,)),
]

# (golden file, ap3 estimate arguments)
ESTIMATES = [
    ("estimate_both_p3_n3_sampled.csv", "--p 3 --n 3 --k 2,3 --trials 64 --seed 11"),
    ("estimate_both_p3_n7_sampled.csv", "--p 3 --n 7 --k 5 --trials 1000 --seed 3"),
    ("estimate_both_p3_n3_exhaustive.csv", "--p 3 --n 3 --k 2,3 --exhaustive"),
    (
        "estimate_separation_p3_n3_sampled.csv",
        "--p 3 --n 3 --k 2,3 --lemma separation --trials 64 --seed 11",
    ),
    (
        "estimate_separation_p3_n3_exhaustive.csv",
        "--p 3 --n 3 --k 2,3 --lemma separation --exhaustive",
    ),
    (
        "estimate_moments_p3_n3_sampled.csv",
        "--p 3 --n 3 --k 2,3 --lemma moments --trials 64 --seed 11",
    ),
    ("estimate_moments_p3_n3_exhaustive.csv", "--p 3 --n 3 --k 2,3 --lemma moments --exhaustive"),
]

# (relative, absolute) tolerance of a float, by the end of its path with list
# indices written [*].  The fields named here are round-off, zero in exact
# arithmetic, so they get an absolute tolerance; a detail's tolerance holds
# for each number printed in it.  Every other float gets DEFAULT.
DEFAULT = (1e-12, 0.0)
TOLERANCE = {
    "spectrum.parseval_gap": (0.0, 1e-12),
    "assertions[*].detail": (0.0, 1e-12),
}
NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:e[-+]?\d+)?)")


def _diffs(got, want, path: str = "") -> list[tuple[str, object, object]]:
    """Each (path, got, want) at which got differs from its golden want."""
    field = re.sub(r"\[\d+\]", "[*]", path)
    tolerance = next((tol for key, tol in TOLERANCE.items() if field.endswith(key)), None)
    rel, abs_ = tolerance or DEFAULT
    if type(got) is not type(want):
        return [(path, got, want)]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [(path, sorted(got), sorted(want))]
        return [d for key in want for d in _diffs(got[key], want[key], f"{path}.{key}".lstrip("."))]
    if isinstance(want, list):
        if len(got) != len(want):
            return [(f"{path} length", len(got), len(want))]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in _diffs(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        same = math.isclose(got, want, rel_tol=rel, abs_tol=abs_)
    elif isinstance(want, str) and tolerance:
        # the text between the numbers exactly, each number within tolerance
        g, w = NUMBER.split(got), NUMBER.split(want)
        same = len(g) == len(w) and all(
            math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_) if i % 2 else a == b
            for i, (a, b) in enumerate(zip(g, w))
        )
    else:
        same = got == want
    return [] if same else [(path, got, want)]


def _assert_matches(got, want):
    diffs = _diffs(got, want)
    shown = "\n".join(f"  {path}: got {g!r}, golden {w!r}" for path, g, w in diffs[:10])
    assert not diffs, f"{len(diffs)} fields differ from the golden file:\n{shown}"


@functools.cache
def _verify(name: str) -> tuple[dict, int]:
    return run_config(load_config_file(str(CONFIGS / name)))


def test_every_bundled_config_is_pinned_once():
    names = sorted(name for name, *_ in PINNED)
    assert names == sorted(p.name for p in CONFIGS.glob("*.json"))
    assert names == sorted(p.name for p in GOLDEN.glob("*.json"))
    assert sorted(name for name, _ in ESTIMATES) == sorted(p.name for p in GOLDEN.glob("*.csv"))


@pytest.mark.parametrize("name", [name for name, *_ in PINNED])
def test_golden_report_is_indented_json_tool_output(name):
    """The form `python -m json.tool --indent 2 --sort-keys` writes, so the
    documented command is the one way a golden report is made."""
    text = (GOLDEN / name).read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("case", PINNED, ids=lambda case: case[0].removesuffix(".json"))
def test_bundled_report_is_pinned(case):
    """The report matches its golden file, and the brute oracle agrees with
    the spectral route to 1e-12 relative on lambda3(f) and on every run."""
    name, code, _ = case
    report, got_code = _verify(name)
    assert got_code == code
    golden = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    _assert_matches(json.loads(report_json(strip_timing(report))), strip_timing(golden))
    pairs = [(report["lambda3_f"]["brute"], report["lambda3_f"]["spectral"])]
    pairs += [(run["lambda_measured_brute"], run["lambda_measured_spectral"]) for run in report["runs"]]
    for brute, spectral in pairs:
        assert abs(brute - spectral) <= 1e-12 * abs(spectral)


@pytest.mark.parametrize("case", PINNED, ids=lambda case: case[0].removesuffix(".json"))
def test_density_floor_crossing_is_pinned(case):
    """The report is where the crossing is read: the first step whose e_gi
    is below density_floor. A run that starts below the floor is not
    density_ok; budget_point_mass's run is such a run with no step at all."""
    name, _, crossings = case
    report, _ = _verify(name)
    floor = report["density_floor"]
    runs = report["runs"]
    assert crossings == tuple(
        next((s["step"] for s in run["steps"] if s["e_gi"] < floor), None) for run in runs
    )
    assert [run["density_ok"] for run in runs] == [run["e_g"] >= floor for run in runs]


def test_readme_lists_the_assertions_bundled_runs_emit():
    """The README's assertion list names, with an ordering written [o], exactly
    the assertions the bundled configs emit."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Every `verify` report lists its `assertions`")[1].split("\n\n")[0]
    listed = set(re.findall(r"`(\w+\[[fo]\])`", paragraph))
    emitted = {
        re.sub(r"\[(fgf|gff)\]", "[o]", a["name"])
        for name, *_ in PINNED
        for a in _verify(name)[0]["assertions"]
    }
    assert listed == emitted


def test_report_records_every_dataclass_field():
    run_keys = {f.name for f in fields(DepletionRun)}
    runs = [run for name, *_ in PINNED for run in _verify(name)[0]["runs"]]
    assert runs
    for run in runs:
        assert run_keys <= set(run)


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_config_survives_its_report(name):
    (config,) = load_config_file(str(CONFIGS / name))
    assert ExperimentConfig.from_dict(config.as_dict()) == config


def _cells(text: str) -> list[list]:
    """The CSV rows, each numeric cell read as a float."""

    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    return [[cell(c) for c in row] for row in csv.reader(io.StringIO(text))]


@pytest.mark.parametrize("golden,args", ESTIMATES, ids=[args for _, args in ESTIMATES])
def test_estimate_output_is_pinned(golden, args, capsys):
    assert main(["estimate", *args.split()]) == 0
    want = (GOLDEN / golden).read_text(encoding="utf-8")
    _assert_matches(_cells(capsys.readouterr().out), _cells(want))


# Every JSON or CSV output a number reaches: each bundled report, the lambda3
# JSON of a vanishing and a dense function, and estimate CSV both ways.
OUTPUTS = [
    *(f"verify {p.name}" for p in sorted(CONFIGS.glob("*.json"))),
    'lambda3 --recipe {"kind":"constant","value":0} --p 3 --n 2',
    'lambda3 --recipe {"kind":"uniform","low":0,"high":1} --p 3 --n 3 --seed 5',
    "estimate --p 3 --n 3 --k 2,3 --trials 1 --seed 11",
    "estimate --p 3 --n 3 --k 2,3 --exhaustive",
]


def _refuse_constant(name):
    raise AssertionError(f"non-finite number {name} in the output")


def _leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


@pytest.mark.parametrize("command", OUTPUTS)
def test_outputs_hold_only_finite_numbers(command, capsys):
    """No number is non-finite, in JSON or string-encoded: theta and the
    floors of a vanishing g are null."""
    kind, *args = command.split()
    if kind == "verify":
        out = report_json(_verify(args[0])[0])
    else:
        assert main([kind, *args]) == 0
        out = capsys.readouterr().out
    if kind == "estimate":
        leaves = [cell for row in csv.reader(io.StringIO(out)) for cell in row]
    else:
        leaves = _leaves(json.loads(out, parse_constant=_refuse_constant))
    assert leaves
    assert not {"inf", "-inf", "nan"} & {leaf.lower() for leaf in leaves if isinstance(leaf, str)}

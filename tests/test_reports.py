"""The bundled `verify` reports and `ap3 estimate` outputs, pinned byte for
byte, and the report schema.

A change that alters a report on purpose updates its digest here and says
why in CHANGES.md.
"""

import csv
import functools
import hashlib
import io
import json
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
from ap3.midpoint import DepletionRun, MidpointCertificate

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# (config file, exit code, the step at which each run's E(g_i) first falls
# below the density floor, sha256 of the report without its timing)
PINNED = [
    (
        "budget_point_mass.json",
        3,
        (None,),
        "5e29a765c81a353fb72473b2357daee21046ebaedbea9caa628b05dba8320e2f",
    ),
    (
        "cap_exhaustive_demo.json",
        1,
        (1,),
        "29270604bf177d9cbc5365d2518d22c2a1d99a9db9c5266ada2c97f9034fa212",
    ),
    (
        "dense_theorem_p5_n4.json",
        0,
        (30, 30),
        "44ff8cb4f15b0128d6be6a24aac5e2cd8e8f39058ad47c43acbede0d9e270554",
    ),
    (
        "dense_theorem_p5_n4_lazy.json",
        0,
        (31, 31),
        "bcfdbe9aa86bc95454cfce06946e09479b3570bedae8c9477333a0608bac4865",
    ),
    (
        "refusal_empty_minorant.json",
        2,
        (),
        "afd1dbc9dba7e65586daa6a054f0b0c1bb46058ec08138febec171c6eaa96736",
    ),
    (
        "sevenfold_p3_n5.json",
        0,
        (8,),
        "ccd6cd0d77a2c8c10b57f8ba81d189d5ea2e3ee4ec25465076a58969b1a9bf00",
    ),
]


@functools.cache
def _verify(name: str) -> tuple[dict, int]:
    return run_config(load_config_file(str(CONFIGS / name)))


def test_every_bundled_config_is_pinned_once():
    assert sorted(name for name, *_ in PINNED) == sorted(p.name for p in CONFIGS.glob("*.json"))


@pytest.mark.parametrize("case", PINNED, ids=lambda case: case[0].removesuffix(".json"))
def test_bundled_report_is_pinned(case):
    name, code, _, digest = case
    report, got_code = _verify(name)
    assert got_code == code
    text = report_json(strip_timing(report))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("case", PINNED, ids=lambda case: case[0].removesuffix(".json"))
def test_density_floor_crossing_is_pinned(case):
    """The report is where the crossing is read: the first step whose e_gi
    is below density_floor. A run that starts below the floor is not
    density_ok; budget_point_mass's run is such a run with no step at all."""
    name, _, crossings, _ = case
    report, _ = _verify(name)
    floor = report["density_floor"]
    runs = report["runs"]
    assert crossings == tuple(
        next((s["step"] for s in run["steps"] if s["e_gi"] < floor), None) for run in runs
    )
    assert [run["density_ok"] for run in runs] == [run["e_g"] >= floor for run in runs]


def test_report_records_every_dataclass_field():
    step_keys = {f.name for f in fields(MidpointCertificate)}
    run_keys = {f.name for f in fields(DepletionRun)}
    runs = [run for name, *_ in PINNED for run in _verify(name)[0]["runs"]]
    assert runs
    for run in runs:
        assert run_keys <= set(run)
        for step in run["steps"]:
            assert set(step) == step_keys


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
def test_config_survives_its_report(name):
    (config,) = load_config_file(str(CONFIGS / name))
    assert ExperimentConfig.from_dict(config.as_dict()) == config


# (ap3 estimate arguments, sha256 of stdout)
PINNED_ESTIMATES = [
    (
        "--p 3 --n 3 --k 2,3 --trials 64 --seed 11",
        "6e181a645d89cc052c11768eddfb0604f89ba5ab730a190f489eb0982848f93c",
    ),
    (
        "--p 3 --n 7 --k 5 --trials 1000 --seed 3",
        "8e25836e8d54ab426649aeef4a8d1902ec632e8c68b1dee1e52ece4aca2f28fc",
    ),
    (
        "--p 3 --n 3 --k 2,3 --exhaustive",
        "e1cec20720253971241ef565b26a9059e80d0dbcf7aecada2cf06b2e5c7b4a95",
    ),
    (
        "--p 3 --n 3 --k 2,3 --lemma separation --trials 64 --seed 11",
        "bcc535296df98f3791780c14d2f8dfb07941310f857cf692ed87aa58ace1bec7",
    ),
    (
        "--p 3 --n 3 --k 2,3 --lemma separation --exhaustive",
        "021d0434f46fdf54265fd5ce5c86d6ff9d6d26e5c3634ee6011ede9fff83c224",
    ),
    (
        "--p 3 --n 3 --k 2,3 --lemma moments --trials 64 --seed 11",
        "a2ba9b3e7b61e3464e00aaf7614a10b6389f4b3c75309fbf79af823b7bb11c92",
    ),
    (
        "--p 3 --n 3 --k 2,3 --lemma moments --exhaustive",
        "e29ae5205b37ec7adb3806faae0514544d2bca3755feaba6df98f67a94f5dafb",
    ),
]


@pytest.mark.parametrize("args,digest", PINNED_ESTIMATES, ids=[a for a, _ in PINNED_ESTIMATES])
def test_estimate_output_is_pinned(args, digest, capsys):
    assert main(["estimate", *args.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


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

"""The bundled `verify` reports and `ap3 estimate` outputs, pinned byte for
byte, and the report schema.

A change that alters a report on purpose updates its digest here and says
why in CHANGES.md.

The brute oracle sums its terms through BLAS matrix products, so the last
bits of its outputs depend on the kernel OpenBLAS picks for the CPU.  The
quasinorm ||fhat||_{1/3} goes through np.power, whose last bits depend on
the SIMD kernel numpy dispatches on (AVX-512 or not).  A report's digest is
taken with those values replaced by MASK, and each replaced value is checked
against a counterpart instead: a BLAS value against the spectral route, the
quasinorm against a libm recomputation.
"""

import csv
import functools
import hashlib
import io
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

import ap3.experiment
from ap3.cli import main
from ap3.experiment import (
    ExperimentConfig,
    load_config_file,
    report_json,
    run_config,
    strip_timing,
)
from ap3.lambda3 import diagonal_weight
from ap3.midpoint import DepletionRun, MidpointCertificate
from ap3.spectral import parseval_gap

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# (config file, exit code, the step at which each run's E(g_i) first falls
# below the density floor, sha256 of the masked report without its timing)
PINNED = [
    (
        "budget_point_mass.json",
        3,
        (None,),
        "485e301e24252836a27bb8b024be01846609c1b0ee137c203a57499cc5023778",
    ),
    (
        "cap_exhaustive_demo.json",
        1,
        (1,),
        "3d7d505ab4c0a76ff9a7ca2072d2c3ca6b18022c5815980807f8e6cdc46deb3a",
    ),
    (
        "dense_theorem_p5_n4.json",
        0,
        (30, 30),
        "365a39de0935f35cab961dac1adead56933d8043e9cf0d3f5dc9616c07869177",
    ),
    (
        "dense_theorem_p5_n4_lazy.json",
        0,
        (31, 31),
        "bc5e96a4b92f7dbf4f2ed0092484fc185e0d6b82b0bf9fd7413e849d259b7d02",
    ),
    (
        "refusal_empty_minorant.json",
        2,
        (),
        "762eb74df0777279f439e972b3654408345cc656b9105207aa23afb3f0f43203",
    ),
    (
        "sevenfold_p3_n5.json",
        0,
        (8,),
        "623e44cea48b9a7039d2f06abb540a7be539deb326f0bdfcec97060549743124",
    ),
    (
        "smoothed_p3_n5.json",
        0,
        (8,),
        "2cea1f2a057e6a09243e0fd23438bb1f2577f4589b0f63d5d27c1adee3aecd3a",
    ),
]


# Stands in for a kernel-dependent value in a pinned report.
MASK = "<kernel>"
# The numbers printed in an oracle_agreement or pair_table detail.
GAP = re.compile(r"[=:,] ([-+0-9.e]+)")


@functools.cache
def _verify(name: str) -> tuple[dict, int, tuple, tuple]:
    """The report, its exit code, the d = 0 weight of each entry's f, and
    each entry's quasinorm ||fhat||_{1/3} summed through libm, recorded as
    the report is built."""
    diagonals, quasinorms = [], []

    def record(*triple):
        diagonals.append(diagonal_weight(*triple))
        return diagonals[-1]

    def record_quasinorm(f):
        quasinorms.append(math.fsum(abs(complex(c)) ** (1 / 3) for c in f.spectrum.coeffs) ** 3)
        return parseval_gap(f)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ap3.experiment, "diagonal_weight", record)
        patch.setattr(ap3.experiment, "parseval_gap", record_quasinorm)
        report, code = run_config(load_config_file(str(CONFIGS / name)))
    return report, code, tuple(diagonals), tuple(quasinorms)


def _masked(report: dict, diagonals: tuple, quasinorms: tuple) -> tuple[dict, list]:
    """The report with each kernel-dependent value replaced by MASK, and each
    replaced number as (value, counterpart, scale).

    The replaced numbers are each entry's quasinorm, whose counterpart is
    the libm sum, the brute oracle's outputs, and the round-off gaps printed
    in the oracle_agreement and pair_table details.  A gap's counterpart is
    0; its scale is the spectral Lambda3 for a gap on Lambda3 and 1 for a
    relative one.
    """
    masked = json.loads(report_json(report))
    entries = masked.get("entries", [masked])
    spectra = [e["spectrum"] for e in entries if "spectrum" in e]
    assert len(spectra) == len(quasinorms)
    checks = []
    for spectrum, quasinorm in zip(spectra, quasinorms):
        checks.append((spectrum["quasinorm_third"], quasinorm, quasinorm))
        spectrum["quasinorm_third"] = MASK
    entries = [e for e in entries if "lambda3_f" in e]
    assert len(entries) == len(diagonals)
    for entry, diagonal in zip(entries, diagonals):
        lam = entry["lambda3_f"]
        spectral = {"f": lam["spectral"]}
        weight = lam["spectral"] * entry["field"]["F"] ** 2 - diagonal
        checks.append((lam["brute"], lam["spectral"], abs(lam["spectral"])))
        checks.append((lam["nonzero_difference_weight"], weight, abs(weight)))
        lam["brute"] = lam["nonzero_difference_weight"] = MASK
        for run in entry["runs"]:
            lam_run = spectral[run["ordering"]] = run["lambda_measured_spectral"]
            checks.append((run["lambda_measured_brute"], lam_run, abs(lam_run)))
            run["lambda_measured_brute"] = MASK
        for assertion in entry["assertions"]:
            kind, _, ordering = assertion["name"].rstrip("]").partition("[")
            if kind in ("oracle_agreement", "pair_table"):
                gaps = [float(gap) for gap in GAP.findall(assertion["detail"])]
                assert len(gaps) == {"oracle_agreement": 1, "pair_table": 3}[kind]
                scales = [abs(spectral[ordering]), 1.0, 1.0]
                checks += [(gap, 0.0, scale) for gap, scale in zip(gaps, scales)]
                assertion["detail"] = MASK
    return masked, checks


def test_every_bundled_config_is_pinned_once():
    assert sorted(name for name, *_ in PINNED) == sorted(p.name for p in CONFIGS.glob("*.json"))


@pytest.mark.parametrize("case", PINNED, ids=lambda case: case[0].removesuffix(".json"))
def test_bundled_report_is_pinned(case):
    """Every byte but the masked values is pinned; each masked value lies
    within 1e-12 relative of its counterpart."""
    name, code, _, digest = case
    report, got_code, diagonals, quasinorms = _verify(name)
    assert got_code == code
    masked, checks = _masked(strip_timing(report), diagonals, quasinorms)
    text = report_json(masked)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    for value, counterpart, scale in checks:
        assert abs(value - counterpart) <= 1e-12 * scale


@pytest.mark.parametrize("case", PINNED, ids=lambda case: case[0].removesuffix(".json"))
def test_density_floor_crossing_is_pinned(case):
    """The report is where the crossing is read: the first step whose e_gi
    is below density_floor. A run that starts below the floor is not
    density_ok; budget_point_mass's run is such a run with no step at all."""
    name, _, crossings, _ = case
    report, *_ = _verify(name)
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
        "7a869d5b7b5747ec707a76d27ca9e0047766ebffd7b7ebbd7e18765f9e5f601f",
    ),
    (
        "--p 3 --n 7 --k 5 --trials 1000 --seed 3",
        "eb37a0f46ed50341644be0a13586dcd662e0a4b7e5be7e86d6d2d07006eb0114",
    ),
    (
        "--p 3 --n 3 --k 2,3 --exhaustive",
        "93fa6665d65becfc3fc230cc752ced0e5fbcd46dba35c3dc1880648f131459b1",
    ),
    (
        "--p 3 --n 3 --k 2,3 --lemma separation --trials 64 --seed 11",
        "48d5a9c5fe0dd00c66780b0e4ddd80df051847322ffc737f4bd5f01b7e7d9ac1",
    ),
    (
        "--p 3 --n 3 --k 2,3 --lemma separation --exhaustive",
        "021d0434f46fdf54265fd5ce5c86d6ff9d6d26e5c3634ee6011ede9fff83c224",
    ),
    (
        "--p 3 --n 3 --k 2,3 --lemma moments --trials 64 --seed 11",
        "2a23e5d3202565d6766b2aefdfd6202047f90ecbe734b43fb3bdb987d51a1bf4",
    ),
    (
        "--p 3 --n 3 --k 2,3 --lemma moments --exhaustive",
        "d700f7f51184df81f45f657deaffdde57539f0f0828c234ee48092db272bf0df",
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

"""The bundled `verify` reports and `ap3 estimate` outputs, pinned byte for
byte, and the report schema.

A change that alters a report on purpose updates its digest here and says
why in CHANGES.md.
"""

import functools
import hashlib
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

pytestmark = pytest.mark.filterwarnings("ignore:.*density floor")

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# (config file, overriding refresh mode, exit code, sha256 of the report
# without its timing)
PINNED = [
    (
        "budget_point_mass.json",
        None,
        3,
        "34b091e9ead902dbdccc9c1439fc8a50dda964e89ec0752e67602962b2883e6d",
    ),
    (
        "cap_exhaustive_demo.json",
        None,
        1,
        "0d1745233b231370963ef263cba53ecb7e14637d4b044f29a366892cabe2433e",
    ),
    (
        "dense_theorem_p5_n4.json",
        None,
        0,
        "1c480966f23ea87b73256c35a668673bc1b6ca0c88080367b6d109e33cc4cf20",
    ),
    (
        "refusal_empty_minorant.json",
        None,
        2,
        "e20c2be4af3bef4b6f590bb7d8520ba2beeb7f8027d3132af85724799cf709d1",
    ),
    (
        "sevenfold_p3_n5.json",
        None,
        0,
        "8f25b9fe7b703f093b2dcededf5bd2343a0c05dc216830bc4f8366d9aa86d874",
    ),
    (
        "dense_theorem_p5_n4.json",
        "lazy",
        0,
        "e8807342d2fb3a8fe4ffec3b6721ff017fdd3dbfbcf1b8480eb1323e209d22ad",
    ),
]


def _case_id(case) -> str:
    name, refresh = case[0].removesuffix(".json"), case[1]
    return name if refresh is None else f"{name}-{refresh}"


@functools.cache
def _verify(name: str, refresh: str | None) -> tuple[dict, int]:
    overrides = None if refresh is None else {"refresh": refresh}
    return run_config(load_config_file(str(CONFIGS / name), overrides))


@pytest.mark.parametrize("case", PINNED, ids=_case_id)
def test_bundled_report_is_pinned(case):
    name, refresh, code, digest = case
    report, got_code = _verify(name, refresh)
    assert got_code == code
    text = report_json(strip_timing(report))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_report_records_every_dataclass_field():
    step_keys = {f.name for f in fields(MidpointCertificate)}
    run_keys = {f.name for f in fields(DepletionRun)}
    runs = [run for case in PINNED for run in _verify(case[0], case[1])[0]["runs"]]
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
        "f30542228f22679a1046f2d32cfb48dd2ff56687467f2dc34c823c8e7dab464b",
    ),
    (
        "--p 3 --n 3 --k 2,3 --lemma separation --trials 64 --seed 11",
        "bcc535296df98f3791780c14d2f8dfb07941310f857cf692ed87aa58ace1bec7",
    ),
    (
        "--p 3 --n 3 --k 2,3 --lemma separation --exhaustive",
        "119968cc392113a62e0ad64ce963031bc6f2c66ab31413f82633dbb50d6f60cc",
    ),
    (
        "--p 3 --n 3 --k 2,3 --lemma moments --trials 64 --seed 11",
        "a2ba9b3e7b61e3464e00aaf7614a10b6389f4b3c75309fbf79af823b7bb11c92",
    ),
    (
        "--p 3 --n 3 --k 2,3 --lemma moments --exhaustive",
        "c92435ce4489616f34782accd3f264042ad152f6520f572d69b3df72953263fa",
    ),
]


@pytest.mark.parametrize("args,digest", PINNED_ESTIMATES, ids=[a for a, _ in PINNED_ESTIMATES])
def test_estimate_output_is_pinned(args, digest, capsys):
    assert main(["estimate", *args.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

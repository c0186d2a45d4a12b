"""The bundled `verify` reports, pinned byte for byte, and the report schema.

A change that alters a report on purpose updates its digest here and says
why in CHANGES.md.
"""

import functools
import hashlib
from dataclasses import fields
from pathlib import Path

import pytest

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
        "56fd7bbf147078e9072a89997752994a0a31c9a34ede4c2f4d9e5cdc7c8435eb",
    ),
    (
        "cap_exhaustive_demo.json",
        None,
        1,
        "88b6f222f1b6b40c55d89ca513f46df8f90b495ac68fa22df50714fd4df881ff",
    ),
    (
        "dense_theorem_p5_n4.json",
        None,
        0,
        "126e6ecf21229d84970cb07d37af93751801e0bddaa75ec72a8b9250f183d190",
    ),
    (
        "refusal_empty_minorant.json",
        None,
        2,
        "0840edf91016a585190ab60e6de05cb9c90a272fc54c6a517e1402661d4b5d02",
    ),
    (
        "sevenfold_p3_n5.json",
        None,
        0,
        "736c0c27fa7acc9ecec02a965956d2f3cd73710d12ba66ef957efaf64dd65880",
    ),
    (
        "dense_theorem_p5_n4.json",
        "lazy",
        0,
        "5a86888e273a7edf3deb9290efe6188dab7dfb7e1920f7b1aa823a6d25242d7e",
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

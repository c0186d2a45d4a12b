import csv
import io
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ap3.cli
import ap3.experiment
import ap3.finder
import ap3.spectral
from ap3.cli import main
from ap3.field import FieldParams
from ap3.lambda3 import lambda3_brute
from ap3.spectral import DenseFunction, dft

from conftest import random_function


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_transform_constant_spike(capsys):
    code, out, _ = run_cli(
        capsys,
        "transform",
        "--recipe", '{"kind": "constant", "value": 1.0}',
        "--p", "3", "--n", "2",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 9
    mags = [float(r["magnitude"]) for r in rows]
    assert mags[0] == pytest.approx(9.0)
    assert max(mags[1:]) == pytest.approx(0.0, abs=1e-12)


def test_transform_point_mass_flat(capsys):
    code, out, _ = run_cli(
        capsys,
        "transform",
        "--recipe", '{"kind": "indicator", "members": [0]}',
        "--p", "3", "--n", "2",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(float(r["magnitude"]) == pytest.approx(1.0) for r in rows)


def test_transform_csv_round_trips(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "transform",
        "--recipe", '{"kind": "conv_power", "power": 3, "members": [0, 1, 5]}',
        "--p", "3", "--n", "2",
        "--out", str(tmp_path),
    )
    assert code == 0
    text = (tmp_path / "spectrum.csv").read_text()
    params = FieldParams(3, 2)
    rows = list(csv.DictReader(io.StringIO(text)))
    coeffs = np.array([complex(float(r["re"]), float(r["im"])) for r in rows])
    rng = np.random.default_rng(0)
    from ap3.experiment import build_recipe

    f = build_recipe(params, {"kind": "conv_power", "power": 3, "members": [0, 1, 5]}, rng)
    assert np.allclose(coeffs, dft(f).coeffs, atol=1e-9)


def test_transform_requires_exactly_one_source(capsys):
    code, _, err = run_cli(capsys, "transform", "--p", "3", "--n", "2")
    assert code == 1
    assert "exactly one" in err


def test_transform_rejects_malformed_csv(capsys, tmp_path):
    rows = DenseFunction.constant(FieldParams(3, 2), 0.5).to_csv().splitlines()
    path = tmp_path / "bad.csv"
    for row, message in [
        ("-1,0.5", "index -1 outside [0, 9)"),  # never gives index 8
        ("x,0.1", "invalid literal for int() with base 10: 'x'"),
        ("8,abc", "could not convert string to float: 'abc'"),
    ]:
        path.write_text("\n".join(rows[:-1] + [row]) + "\n")
        code, out, err = run_cli(capsys, "transform", "--in", str(path), "--p", "3", "--n", "2")
        assert code == 1 and out == ""
        assert f"ap3 transform: error: CSV line 10: {message}" in err
        assert "Traceback" not in err


def test_lambda3_single_recipe(capsys):
    code, out, _ = run_cli(
        capsys,
        "lambda3",
        "--recipe", '{"kind": "subspace", "basis": [[1, 0]]}',
        "--p", "3", "--n", "2",
    )
    assert code == 0
    report = json.loads(out)
    row = report["results"][0]
    assert row["ordering"] == "fff"
    assert row["brute"] == pytest.approx(1.0 / 9.0)
    assert row["spectral"] == pytest.approx(1.0 / 9.0, abs=1e-9)
    assert row["agrees"] is True
    assert row["trivial_bound"] == pytest.approx((1.0 / 3.0) ** 3 / 9.0)


def test_lambda3_two_files_orderings(capsys, tmp_path, rng):
    params = FieldParams(3, 2)
    f = random_function(params, rng)
    vals = f.values * 0.5
    g = DenseFunction.make(params, vals)
    fp, gp = tmp_path / "f.json", tmp_path / "g.json"
    fp.write_text(f.to_json())
    gp.write_text(g.to_json())
    code, out, _ = run_cli(
        capsys,
        "lambda3", "--files", str(fp), str(gp), "--ordering", "both",
    )
    assert code == 0
    report = json.loads(out)
    by_name = {r["ordering"]: r for r in report["results"]}
    assert by_name["fgf"]["brute"] == pytest.approx(lambda3_brute(f, g, f))
    assert by_name["gff"]["brute"] == pytest.approx(lambda3_brute(g, f, f))


def test_lambda3_two_files_transform_each_once(capsys, tmp_path, rng, monkeypatch):
    calls = []

    def counting(f):
        calls.append(f)
        return dft(f)

    monkeypatch.setattr(ap3.spectral, "dft", counting)
    params = FieldParams(3, 2)
    f = random_function(params, rng)
    fp, gp = tmp_path / "f.json", tmp_path / "g.json"
    fp.write_text(f.to_json())
    gp.write_text(DenseFunction.make(params, f.values * 0.5).to_json())
    code, _, _ = run_cli(
        capsys,
        "lambda3", "--files", str(fp), str(gp), "--ordering", "both", "--method", "both",
    )
    assert code == 0
    assert len(calls) == 2


@pytest.mark.parametrize(
    "data",
    [
        [3, 2],
        {"p": None, "n": 2, "values": [0.5] * 9},
        {"p": 3.7, "n": 2, "values": [0.5] * 9},
        {"p": 3, "n": 2, "values": {"a": 1}},
        {"p": 3, "n": 2, "values": [{"a": 1}] + [0.5] * 8},
        {"p": 3, "n": 2, "values": [[0.5] * 9]},
        {"p": 3, "n": 1, "values": ["0.5", "0.5", "0.5"]},
        {"p": 3, "n": 1, "values": [True, False, True]},
        {"p": 3, "n": 1, "values": [True, 0.5, 0.25]},
        {"p": 3, "n": 1, "values": [0.5, 1, False]},
    ],
)
def test_lambda3_rejects_bad_field_in_file(capsys, tmp_path, data):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "lambda3", "--files", str(path))
    assert code == 1 and out == ""
    assert str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("note", [True, "false"], ids=["bool", "string"])
def test_a_bool_outside_the_values_leaves_them_loaded(tmp_path, rng, note):
    """A 't' or an 'f' in the text sends the loader to its per-element bool
    scan; a true or false outside 'values' must not refuse the file or move a
    value."""
    f = random_function(FieldParams(3, 3), rng)
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"p": 3, "n": 3, "values": f.values.tolist(), "note": note}))
    loaded = ap3.cli._load_function(str(path), None, None)
    assert loaded.params == f.params
    assert np.array_equal(loaded.values, f.values)


@pytest.mark.parametrize(
    "argv,named",
    [
        (["lambda3", "--files", "FILE", "--p", "5", "--n", "3"], "--p 5 contradicts p = 3"),
        (["transform", "--in", "FILE", "--p", "7", "--n", "1"], "--p 7 contradicts p = 3"),
        (["transform", "--in", "FILE", "--n", "1"], "--n 1 contradicts n = 2"),
        (["lambda3", "--files", "FILE", "FILE", "--p", "3", "--n", "2"], None),
    ],
    ids=["lambda3", "transform", "n-only", "matching"],
)
def test_p_n_must_match_a_function_file(capsys, tmp_path, argv, named):
    path = tmp_path / "f.json"
    path.write_text(DenseFunction.constant(FieldParams(3, 2), 0.5).to_json())
    code, out, err = run_cli(capsys, *[str(path) if a == "FILE" else a for a in argv])
    if named is None:
        assert code == 0 and json.loads(out)["field"] == {"p": 3, "n": 2, "F": 9}
        return
    assert code == 1 and out == ""
    assert err == f"ap3 {argv[0]}: error: {named} in {path}\n"


@pytest.mark.parametrize("files", [1, 3, 0])
def test_lambda3_ordering_needs_two_files(capsys, tmp_path, files):
    path = tmp_path / "f.json"
    path.write_text(DenseFunction.constant(FieldParams(3, 2), 0.5).to_json())
    if files:
        source = ["--files", *[str(path)] * files]
    else:
        source = ["--recipe", '{"kind": "constant", "value": 0.5}', "--p", "3", "--n", "2"]
    code, out, err = run_cli(capsys, "lambda3", *source, "--ordering", "gff")
    assert code == 1 and out == ""
    assert "--ordering needs exactly two --files" in err


def test_lambda3_explicit_triple(capsys, tmp_path, rng):
    params = FieldParams(3, 2)
    fs = [random_function(params, rng) for _ in range(3)]
    paths = []
    for i, fn in enumerate(fs):
        path = tmp_path / f"f{i}.json"
        path.write_text(fn.to_json())
        paths.append(str(path))
    code, out, _ = run_cli(capsys, "lambda3", "--files", *paths)
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["ordering"] == "explicit"
    assert row["brute"] == pytest.approx(lambda3_brute(*fs))
    assert row["agreement_gap"] < 1e-8


def test_lambda3_brute_guardrail(capsys, monkeypatch):
    def refused(*args):
        raise AssertionError("lambda3 built the recipe before it checked the brute budget")

    with monkeypatch.context() as patch:
        patch.setattr(ap3.cli, "build_recipe", refused)
        code, _, err = run_cli(
            capsys,
            "lambda3",
            "--recipe", '{"kind": "constant", "value": 1.0}',
            "--p", "3", "--n", "13",
        )
    assert code == 1
    assert "brute-force limit" in err
    # the spectral route stays open at the same size
    code2, out, _ = run_cli(
        capsys,
        "lambda3",
        "--recipe", '{"kind": "constant", "value": 1.0}',
        "--p", "3", "--n", "13",
        "--method", "spectral",
    )
    assert code2 == 0
    assert json.loads(out)["results"][0]["spectral"] == pytest.approx(1.0)


def test_usage_error_is_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lambda3", "--method", "psychic"])
    assert exc.value.code == 64
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc2:
        main(["verify"])
    assert exc2.value.code == 64
    capsys.readouterr()
    # every experiment value comes from the config; verify takes no override flags
    with pytest.raises(SystemExit) as exc3:
        main(["verify", "--config", "configs/sevenfold_p3_n5.json", "--seed", "3"])
    assert exc3.value.code == 64
    capsys.readouterr()
    # the brute oracle's budget is fixed: no flag spends past it
    with pytest.raises(SystemExit) as exc4:
        main(["lambda3", "--recipe", '{"kind": "constant", "value": 1.0}',
              "--p", "3", "--n", "2", "--force"])
    assert exc4.value.code == 64
    capsys.readouterr()
    # nor does the estimator's: it prices its own work
    with pytest.raises(SystemExit) as exc5:
        main(["estimate", "--p", "3", "--n", "3", "--k", "2", "--cap", "5"])
    assert exc5.value.code == 64
    assert "unrecognized arguments: --cap 5" in capsys.readouterr().err


def test_verify_pass_and_overrides(capsys, tmp_path):
    config = {
        "p": 3, "n": 3, "seed": 5, "k": 2, "delta": 0.0,
        "f": {"kind": "constant", "value": 1.0},
        "trials": 10, "ordering": "gff",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "verify", "--config", str(path))
    assert code == 0
    assert "verify: PASS" in err
    report = json.loads(out)
    assert {r["ordering"] for r in report["runs"]} == {"gff"}
    assert report["passed"] is True


def test_verify_writes_report_file(capsys, tmp_path):
    config = {
        "p": 3, "n": 3, "seed": 5, "k": 2, "delta": 0.0,
        "f": {"kind": "constant", "value": 1.0},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "verify", "--config", str(path), "--out", str(out_dir)
    )
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["passed"] is True
    assert str(out_dir / "report.json") in out


@pytest.mark.parametrize("command", ["transform", "verify", "estimate", "lambda3"])
def test_out_that_cannot_be_a_directory_exits_error(capsys, monkeypatch, tmp_path, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    config = tmp_path / "config.json"
    constant = {"kind": "constant", "value": 1.0}
    config.write_text(json.dumps({"p": 3, "n": 2, "seed": 1, "k": 2, "f": constant}))
    recipe = ["--recipe", json.dumps(constant), "--p", "3", "--n", "2"]
    argv, computation = {
        "transform": (recipe, "build_recipe"),
        "verify": (["--config", str(config)], "run_config"),
        "estimate": (["--p", "3", "--n", "2", "--k", "2"], "estimate_condition_probabilities"),
        "lambda3": (recipe, "build_recipe"),
    }[command]
    out = blocker if command == "transform" else blocker / "sub"

    def fail(*args, **kwargs):
        pytest.fail(f"{command} reached {computation} before making --out")

    monkeypatch.setattr(ap3.cli, computation, fail)
    code, _, err = run_cli(capsys, command, *argv, "--out", str(out))
    assert code == 1
    assert f"ap3 {command}: error:" in err and str(blocker) in err
    assert "Traceback" not in err

    # an empty --out names no directory, not the working one
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run_cli(capsys, command, *argv, "--out", "")
    assert code == 1 and not stdout
    assert f"ap3 {command}: error: --out is empty" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "file"]


def test_verify_multi_entry_config(capsys, tmp_path):
    entry = {
        "p": 3, "n": 3, "seed": 5, "k": 2, "delta": 0.0,
        "f": {"kind": "constant", "value": 1.0},
    }
    config = {"experiments": [entry, {**entry, "seed": 6}]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "verify", "--config", str(path))
    assert code == 0
    report = json.loads(out)
    assert len(report["entries"]) == 2
    assert report["passed"] is True


def test_verify_bundled_refusal_config(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--config", "configs/refusal_empty_minorant.json"
    )
    assert code == 2
    assert "FAIL(exit 2)" in err


def test_verify_bundled_budget_config(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--config", "configs/budget_point_mass.json"
    )
    assert code == 3
    assert "FAIL(exit 3)" in err


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 745. GiB for an array")


HALF = '{"kind": "constant", "value": 0.5}'


@pytest.mark.parametrize(
    "argv,name",
    [
        (["transform", "--recipe", HALF, "--p", "3", "--n", "30"], "build_recipe"),
        (["lambda3", "--method", "spectral", "--recipe", HALF, "--p", "3", "--n", "30"],
         "build_recipe"),
    ],
    ids=["transform", "lambda3"],
)
def test_request_too_large_to_allocate_exits_error(capsys, monkeypatch, argv, name):
    monkeypatch.setattr(ap3.cli, name, _out_of_memory)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"ap3 {argv[0]}: error: Unable to allocate 745. GiB for an array\n"


def test_verify_missing_config(capsys):
    code, _, err = run_cli(capsys, "verify", "--config", "configs/absent.json")
    assert code == 1
    assert "cannot read config" in err


@pytest.mark.parametrize(
    "raw", [[1, 2], 7, {"experiments": ["entry"]}, {"experiments": [[1]]}]
)
def test_verify_non_object_config(capsys, tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    code, _, err = run_cli(capsys, "verify", "--config", str(path))
    assert code == 1
    assert "config must be a JSON object" in err


@pytest.mark.parametrize(
    "entry,argv,field",
    [
        ({"k": 0}, ["--out", "out"], "'k'"),
        ({"k": 1}, [], "'k'"),
        ({"nprime": 9}, [], "'nprime'"),
        ({"delta": -1}, [], "'delta'"),
        ({"k": 40}, ["--out", "out"], "'k'"),
        ({"k": 10}, [], "'k'"),
        ({"trials": -5}, [], "'trials'"),
        ({"trials": -5}, ["--out", "out"], "'trials'"),
        ({"p": 4}, [], "'p'"),
        ({"n": 0}, [], "'n'"),
        ({"seed": -1}, [], "'seed'"),
        ({"p": 3.7}, [], "'p'"),
        ({"n": "2"}, [], "'n'"),
        ({"k": 2.5}, [], "'k'"),
        ({"seed": 1.5}, [], "'seed'"),
        ({"nprime": 1.5}, [], "'nprime'"),
        ({"trials": 2.5}, [], "'trials'"),
        # max_attempts and enumeration_cap are no longer fields either
        ({"max_attempts": 64}, [], "'max_attempts'"),
        ({"enumeration_cap": 10}, [], "'enumeration_cap'"),
        ({"delta": math.nan}, [], "'delta'"),
        ({"exhaustive": "false"}, [], "'exhaustive'"),
        # force is no longer a field: an old config that names it is refused
        ({"force": True}, [], "'force'"),
        ({"force": False}, [], "'force'"),
        ({"delta": "0.1"}, [], "'delta'"),
        ({"max_attempts": 256}, ["--out", "out"], "'max_attempts'"),
        ({"enumeration_cap": 200000}, ["--out", "out"], "'enumeration_cap'"),
        ({"gamma": math.inf}, [], "'gamma'"),
        ({"f": 5}, [], "'f'"),
        ({"f": "constant"}, [], "'f'"),
        ({"f": None}, [], "'f'"),
        ({"g": 5}, [], "'g'"),
        ({"g": [{"kind": "same"}]}, [], "'g'"),
        ({"ordering": 5}, [], "'ordering'"),
        ({"ordering": "fff"}, [], "'ordering'"),
        ({"ordering": ["fgf"]}, [], "'ordering'"),
        ({"ordering": ["fgf", "gff"]}, [], "'ordering'"),
        ({"ordering": [["fgf"]]}, [], "'ordering'"),
        ({"seed": 10**400}, [], "'seed'"),
        ({"delta": math.nan}, ["--out", "out"], "'delta'"),
        ({"gamma": math.inf}, ["--out", "out"], "'gamma'"),
        ({"delta": 10**400}, [], "'delta'"),
        ({"gamma": 1e300}, [], "'gamma'"),
        ({"gamma": 400}, [], "'gamma'"),
        ({"gamma": -100}, [], "'gamma'"),
        ({"gamma": -1e300}, [], "'gamma'"),
        ({"delta": 1e300}, [], "'delta'"),
        ({"delta": 1e160}, [], "'delta'"),
        ({"label": 5}, [], "'label'"),
        ({"label": ["a"]}, [], "'label'"),
        # W's p**nprime labels cannot separate k places
        ({"nprime": 0}, [], "'nprime'"),
        ({"k": 5, "nprime": 1}, [], "'nprime'"),
        # the limits a config decides on its own: nprime 5 > n = 3 for k = 10,
        # 2^25 draws x |W| = 3, and the 9,841 hyperplanes of F_3^9 x 3 cosets x 6,561
        ({"n": 3, "k": 10}, [], "'k'"),
        ({"trials": 2**25}, [], "'trials'"),
        ({"n": 9, "k": 50, "exhaustive": True}, ["--out", "out"], "'exhaustive'"),
    ],
)
def test_verify_rejects_out_of_range_config(
    capsys, tmp_path, monkeypatch, entry, argv, field
):
    """argv holds the verify arguments after --config: a refused config writes
    no report, to stdout or under --out."""
    config = {
        "p": 3, "n": 2, "seed": 1, "k": 2,
        "f": {"kind": "constant", "value": 1.0},
        **entry,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "verify", "--config", str(path), *argv)
    assert code == 1
    assert out == ""
    assert not (tmp_path / "out").exists()
    assert field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("out", ["nest/a/b", "nest/a/b/", "kept/a/b"])
def test_refused_command_removes_every_directory_out_made(capsys, tmp_path, monkeypatch, out):
    # os.makedirs makes the missing parents of --out too; a refused command
    # removes each of them, leaf first, and keeps the first one that existed
    (tmp_path / "kept").mkdir()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"p": 3, "n": 2, "k": 2, "f": {"kind": "constant", "value": 1.0}}))
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "verify", "--config", str(config), "--out", out)
    assert code == 1 and "seed" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "kept"]
    assert not any((tmp_path / "kept").iterdir())


def run_cli_process(*argv, timeout=30):
    """The CLI in a fresh interpreter, so an input that hangs fails the test."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path_entries = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path_entries)}
    return subprocess.run(
        [sys.executable, "-m", "ap3.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def test_verify_writes_only_its_status_line_to_stderr(tmp_path):
    # both runs cross the density floor at step 30; the report records it
    config = Path(__file__).resolve().parents[1] / "configs" / "dense_theorem_p5_n4.json"
    proc = run_cli_process("verify", "--config", str(config), "--out", str(tmp_path), timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == "verify: PASS\n"


BAD_RECIPES = [
    ({"g": {"kind": "mask", "members": [99]}}, "index 99"),
    ({"g": {"kind": "mask", "members": [-1]}}, "index -1"),
    ({"g": {"kind": "mask", "members": 5}}, "'members'"),
    ({"f": {"kind": "cosine", "base": 0.5, "amplitude": 0.1, "frequency": 5}}, "'frequency'"),
    # a constant outside [0, 1]; a run at 1e30 would take ~4.5e30 depletion steps
    ({"f": {"kind": "constant", "value": 5}}, "'value'"),
    ({"f": {"kind": "constant", "value": -1}}, "'value'"),
    ({"f": {"kind": "constant", "value": 1e30}}, "'value'"),
    ({"f": {"kind": "constant", "value": 1e30}, "gamma": 0}, "'value'"),
    # a row of the wrong length, an empty one included, is refused, not read as no row
    ({"f": {"kind": "subspace", "basis": [[]]}}, "length 2"),
    ({"f": {"kind": "subspace", "basis": [[1]]}}, "length 2"),
    # beyond int64: the refusal must not become an OverflowError
    ({"g": {"kind": "mask", "members": [10**30]}}, f"index {10**30}"),
]


@pytest.mark.parametrize(
    "entry,named", BAD_RECIPES, ids=[f"entry{i}" for i in range(len(BAD_RECIPES))]
)
def test_verify_bad_recipe_is_a_config_failure(tmp_path, entry, named):
    config = {"p": 3, "n": 2, "seed": 1, "k": 2, "f": {"kind": "constant", "value": 1.0}, **entry}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    proc = run_cli_process("verify", "--config", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    (failure,) = json.loads(proc.stdout)["failures"]
    assert failure["type"] == "config"
    assert named in failure["detail"]


def test_verify_rejects_bad_entry_before_any_run(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(ap3.experiment, "run_experiment", calls.append)
    good = {"p": 3, "n": 2, "seed": 1, "k": 2, "f": {"kind": "constant", "value": 1.0}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiments": [good, {**good, "p": 4}]}))
    code, out, err = run_cli(capsys, "verify", "--config", str(path))
    assert code == 1
    assert out == ""
    assert "'p'" in err
    assert calls == []


def _refuse_run_experiment(monkeypatch):
    """Make run_experiment fail the test if it is called."""

    def refused(config):
        raise AssertionError(f"an entry ran before the config was refused: {config}")

    monkeypatch.setattr(ap3.experiment, "run_experiment", refused)


@pytest.mark.parametrize(
    "second,message",
    [
        ({"n": 13}, "brute-force limit"),
        ({"trials": 2**25}, "coset-table entries exceeds the budget"),
        ({"k": 10}, "k=10 needs dimension 5 > n=3"),
    ],
    ids=["brute", "estimate", "nprime"],
)
def test_verify_refuses_an_entry_over_a_limit_before_any_runs(
    capsys, tmp_path, monkeypatch, second, message
):
    _refuse_run_experiment(monkeypatch)
    good = {"p": 3, "n": 3, "seed": 1, "k": 2, "f": {"kind": "constant", "value": 1.0}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiments": [good, {**good, **second}]}))
    code, out, err = run_cli(capsys, "verify", "--config", str(path), "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    assert message in err
    assert not (tmp_path / "report.json").exists()


def test_verify_refuses_huge_prime_field_quickly(tmp_path):
    # p = 2^61 - 1 is prime and passes the size check: its primality test
    # must be quick, and the brute-force limit must refuse the config when it
    # is read, before a recipe allocates F values
    config = {"p": 2**61 - 1, "n": 1, "seed": 1, "k": 2, "f": {"kind": "constant", "value": 1.0}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    proc = run_cli_process("verify", "--config", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "brute-force limit" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_estimate_exhaustive_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "estimate",
        "--p", "3", "--n", "2", "--k", "2", "--exhaustive",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    row = rows[0]
    assert row["k"] == "2"
    assert row["nprime"] == "1"
    assert row["trials"] == "4"  # the lines of F_3^2 enumerated, not --trials
    assert float(row["separation"]) >= float(row["separation_bound"]) - 1e-12
    assert float(row["moment_mean"]) == pytest.approx(
        float(row["moment_mean_identity"]), rel=1e-12
    )
    assert float(row["moment_variance"]) <= float(row["moment_variance_bound"]) + 1e-9


def _refuse_estimate_allocation(monkeypatch):
    """Make every routine that enumerates, draws or tables a W fail the test."""

    def refused(*args, **kwargs):
        raise AssertionError("the estimator allocated past its work budget")

    for name in ("enumerate_bases", "sample_uniform_bases", "coset_table"):
        monkeypatch.setattr(ap3.finder, name, refused)


def test_estimate_exhaustive_x_budget_is_an_error(capsys, monkeypatch):
    # 29,524 lines x 19,683 cosets of each, 4.6 GB of X: refused before
    # anything is enumerated
    _refuse_estimate_allocation(monkeypatch)
    code, out, err = run_cli(
        capsys, "estimate", "--p", "3", "--n", "10", "--k", "2", "--exhaustive"
    )
    assert code == 1
    assert out == ""
    assert "29524 subspaces x 19683 cosets x 3 members" in err


@pytest.mark.parametrize(
    "argv,sample",
    [
        # the 9,841 hyperplanes of F_3^9, 3 cosets each: 28.5 s when unpriced
        (["--p", "3", "--n", "9", "--k", "50", "--exhaustive"],
         "9841 subspaces x 3 cosets x 6561"),
        # 100,000 draws of W = F_3^8 entire: 74 s when unpriced
        (["--p", "3", "--n", "8", "--k", "50", "--trials", "100000"],
         "100000 subspaces x 1 cosets x 6561"),
        # 10^11 trials: X alone would hold 745 GiB
        (["--p", "3", "--n", "3", "--k", "2", "--trials", "100000000000"],
         "100000000000 subspaces x 1 cosets x 3"),
    ],
    ids=["exhaustive-p3-n9-k50", "sampled-p3-n8-k50", "sampled-1e11-trials"],
)
def test_estimate_over_budget_allocates_nothing(capsys, monkeypatch, argv, sample):
    _refuse_estimate_allocation(monkeypatch)
    code, out, err = run_cli(capsys, "estimate", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"ap3 estimate: error: estimate of {sample} members = ")
    assert err.endswith(" coset-table entries exceeds the budget of 33554432\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        # k=50 needs nprime 8 at n=7: refused before the k=2 row draws anything
        (["--p", "3", "--n", "7", "--k", "2,50"], "k=50 needs dimension 8 > n=7"),
        (["--p", "3", "--n", "8", "--k", "2,50", "--trials", "100000"],
         "100000 subspaces x 1 cosets x 6561 members"),
    ],
    ids=["nprime", "budget"],
)
def test_estimate_grid_is_priced_before_any_row_runs(capsys, monkeypatch, argv, message):
    def refused(*args, **kwargs):
        raise AssertionError("a row ran before the grid was priced")

    monkeypatch.setattr(ap3.cli, "estimate_condition_probabilities", refused)
    code, out, err = run_cli(capsys, "estimate", *argv)
    assert code == 1
    assert out == ""
    assert message in err


def test_estimate_k_grid_deterministic(capsys):
    args = ("estimate", "--p", "3", "--n", "3", "--k", "2,3", "--trials", "64", "--seed", "11")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = list(csv.DictReader(io.StringIO(out1)))
    assert [r["k"] for r in rows] == ["2", "3"]
    for row in rows:
        assert 0.0 <= float(row["separation"]) <= 1.0
        assert 0.0 <= float(row["coset_density"]) <= 1.0


def _counting(monkeypatch, name):
    """Replace ap3.finder.<name> by a wrapper and return its list of calls."""
    calls = []
    original = getattr(ap3.finder, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ap3.finder, name, counted)
    return calls


@pytest.mark.parametrize("lemma", ["separation", "moments", "both"])
def test_estimate_row_draws_each_subspace_once(capsys, monkeypatch, lemma):
    # k=3 gives nprime 2, so blocks of 16 trials: one draw of 16 bases per block
    monkeypatch.setattr(ap3.finder, "BLOCK_ENTRIES", 16 * 3**2)
    draws = _counting(monkeypatch, "sample_uniform_bases")
    args = ("--p", "3", "--n", "3", "--k", "3", "--trials", "40", "--lemma", lemma)
    code, _, _ = run_cli(capsys, "estimate", *args)
    assert code == 0
    assert [count for _, _, count, _ in draws] == [16, 16, 8]


@pytest.mark.parametrize("lemma", ["separation", "moments", "both"])
def test_estimate_enumerates_once_per_exhaustive_row(capsys, monkeypatch, lemma):
    enumerations = _counting(monkeypatch, "enumerate_bases")
    args = ("--p", "3", "--n", "3", "--k", "2,3", "--exhaustive", "--lemma", lemma)
    code, _, _ = run_cli(capsys, "estimate", *args)
    assert code == 0
    assert len(enumerations) == 2


@pytest.mark.parametrize(
    "sampling",
    [("--trials", "64", "--seed", "11"), ("--exhaustive",)],
    ids=["sampled", "exhaustive"],
)
def test_estimate_lemma_columns_read_one_sample(capsys, sampling):
    rows = {}
    for lemma in ("separation", "moments", "both"):
        args = ("estimate", "--p", "3", "--n", "3", "--k", "2,3", *sampling, "--lemma", lemma)
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        rows[lemma] = list(csv.DictReader(io.StringIO(out)))
    assert len(rows["both"]) == 2
    for both, separation, moments in zip(rows["both"], rows["separation"], rows["moments"]):
        assert list(both) == list(separation) == list(moments)
        for key, value in both.items():
            if key.startswith("moment_"):
                assert (value, separation[key]) == (moments[key], "")
            elif key.startswith(("separation", "coset_density")):
                assert (value, moments[key]) == (separation[key], "")
            else:
                assert value == separation[key] == moments[key]


@pytest.mark.parametrize("value", ["0", "-5"])
def test_estimate_rejects_nonpositive_trials(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--p", "3", "--n", "3", "--k", "2", "--trials", value])
    assert exc.value.code == 64
    assert "argument --trials: must be a positive integer" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("ap3 ")


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_cli_lines() -> list[str]:
    """The `ap3 ...` command lines of README's `## CLI` code block."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [line.strip() for line in section.splitlines() if line.startswith("    ap3 ")]


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch, rng):
    lines = _readme_cli_lines()
    assert len(lines) >= 5
    params = FieldParams(3, 2)
    f = random_function(params, rng)
    (tmp_path / "f.json").write_text(f.to_json())
    (tmp_path / "g.json").write_text(DenseFunction.make(params, f.values * 0.5).to_json())
    shutil.copytree(README.parent / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code, _, err = run_cli(capsys, *shlex.split(line)[1:])
        assert code == 0, f"{line}: exit {code}: {err}"

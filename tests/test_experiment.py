import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import ap3.finder
import ap3.lambda3
import ap3.spectral
from ap3.cli import main
from ap3.experiment import (
    EXIT_ASSERTION,
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_PASS,
    EXIT_REFUSED,
    ConfigError,
    ExperimentConfig,
    build_recipe,
    derive_minorant,
    load_config_file,
    report_json,
    resolve_delta,
    run_config,
    run_experiment,
    strip_timing,
)
from ap3.finder import FinderBudgetError
from ap3.functions import convolve_direct
from ap3.lambda3 import lambda3_brute
from ap3.spectral import DenseFunction, dft


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def cfg(**overrides):
    base = {
        "p": 3,
        "n": 3,
        "seed": 99,
        "f": {"kind": "constant", "value": 1.0},
        "g": {"kind": "same"},
        "k": 2,
        "delta": 0.0,
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def test_exit_codes_rise_with_severity():
    assert EXIT_PASS < EXIT_ERROR < EXIT_REFUSED < EXIT_BUDGET < EXIT_ASSERTION
    # a multi-entry config exits with its worst entry's code, wherever that entry sits
    refused = cfg(g={"kind": "constant", "value": 0.0})
    budget = cfg(g={"kind": "mask", "members": [0]}, max_attempts=48)
    error = cfg(exhaustive=True, enumeration_cap=3, trials=10)
    report, code = run_config([refused, budget, cfg(), error])
    assert code == EXIT_BUDGET
    assert [entry["passed"] for entry in report["entries"]] == [False, False, True, False]
    assert run_config([cfg(), error, refused])[1] == EXIT_REFUSED
    assert run_config([error, cfg()])[1] == EXIT_ERROR
    assert run_config([cfg(), cfg(seed=5)])[1] == EXIT_PASS


def test_build_recipe_kinds(p33, rng):
    const = build_recipe(p33, {"kind": "constant", "value": 0.25}, rng)
    assert np.allclose(const.values, 0.25)
    ind = build_recipe(p33, {"kind": "indicator", "members": [0, 4]}, rng)
    assert ind.values.sum() == 2.0
    rs = build_recipe(p33, {"kind": "random_set", "size": 5}, rng)
    assert rs.values.sum() == 5.0
    sub = build_recipe(p33, {"kind": "subspace", "basis": [[1, 0, 0]]}, rng)
    assert sub.values.sum() == 3.0
    uni = build_recipe(p33, {"kind": "uniform", "low": 0.2, "high": 0.8}, rng)
    assert uni.values.min() >= 0.2 and uni.values.max() <= 0.8
    cos = build_recipe(
        p33, {"kind": "cosine", "base": 0.5, "amplitude": 0.3, "frequency": [1, 0, 0]}, rng
    )
    assert cos.values.min() >= 0.2 - 1e-12 and cos.values.max() <= 0.8 + 1e-12
    assert cos.values[0] == pytest.approx(0.8)


def test_build_recipe_conv_power(p33, rng):
    f = build_recipe(
        p33, {"kind": "conv_power", "power": 2, "members": [0, 1, 2]}, rng
    )
    S = DenseFunction.make(p33, np.zeros(p33.F))
    vals = np.zeros(p33.F)
    vals[[0, 1, 2]] = 1.0
    S = DenseFunction.make(p33, vals)
    direct = convolve_direct(S, S).values / 3.0**1  # normalized to peak at most |S|
    direct = direct / direct.max()
    assert np.allclose(f.values / f.values.max(), direct, atol=1e-9)
    assert f.values.max() <= 1.0 + 1e-12


def test_build_recipe_errors(p33, rng):
    with pytest.raises(ConfigError):
        build_recipe(p33, {"value": 1.0}, rng)
    with pytest.raises(ConfigError):
        build_recipe(p33, {"kind": "mystery"}, rng)
    with pytest.raises(ConfigError):
        build_recipe(p33, {"kind": "constant"}, rng)
    with pytest.raises(ConfigError):
        build_recipe(p33, {"kind": "uniform", "low": 0.5, "high": 1.5}, rng)
    with pytest.raises(ConfigError):
        build_recipe(p33, {"kind": "random_set", "size": 2.5}, rng)
    with pytest.raises(ConfigError):
        build_recipe(p33, {"kind": "cosine", "base": 0.5, "amplitude": 0.1, "frequency": [1]}, rng)
    with pytest.raises(ConfigError):
        build_recipe(p33, {"kind": "constant", "value": True}, rng)
    for frequency in (5, [1.5, 0, 0], [True, 0, 0]):
        spec = {"kind": "cosine", "base": 0.5, "amplitude": 0.1, "frequency": frequency}
        with pytest.raises(ConfigError, match="'frequency'"):
            build_recipe(p33, spec, rng)
    with pytest.raises(ConfigError, match="'members'"):
        build_recipe(p33, {"kind": "indicator", "members": [[1]]}, rng)
    for basis in ([[1.5, 0, 0]], [[True, 0, 0]]):
        with pytest.raises(ConfigError, match="'basis'"):
            build_recipe(p33, {"kind": "subspace", "basis": basis}, rng)


def test_derive_minorant_rules(p33, rng):
    f = build_recipe(p33, {"kind": "uniform", "low": 0.5, "high": 1.0}, rng)
    assert derive_minorant(f, {"kind": "same"}, rng) is f
    half = derive_minorant(f, {"kind": "scale", "factor": 0.5}, rng)
    assert np.allclose(half.values, f.values * 0.5)
    masked = derive_minorant(f, {"kind": "mask", "members": [0, 1]}, rng)
    assert masked.values[0] == f.values[0] and masked.values[5] == 0.0
    thresh = derive_minorant(f, {"kind": "threshold", "cutoff": 0.75}, rng)
    keep = f.values >= 0.75
    assert np.allclose(thresh.values, np.where(keep, f.values, 0.0))
    fresh = derive_minorant(f, {"kind": "constant", "value": 0.3}, rng)
    assert np.allclose(fresh.values, 0.3)
    with pytest.raises(ConfigError):
        derive_minorant(f, {"kind": "scale", "factor": 1.5}, rng)
    with pytest.raises(ConfigError):
        derive_minorant(f, {}, rng)
    for members in ([99], [-1]):
        with pytest.raises(ValueError, match="outside"):
            derive_minorant(f, {"kind": "mask", "members": members}, rng)
    with pytest.raises(ConfigError, match="'members'"):
        derive_minorant(f, {"kind": "mask", "members": 5}, rng)


def test_config_validation():
    with pytest.raises(ConfigError, match="unknown config fields"):
        ExperimentConfig.from_dict(
            {"p": 3, "n": 2, "seed": 1, "f": {"kind": "constant", "value": 1}, "k": 2, "bogus": 1}
        )
    with pytest.raises(ConfigError, match="missing required"):
        ExperimentConfig.from_dict({"p": 3, "n": 2, "seed": 1, "k": 2})
    with pytest.raises(ConfigError, match="not both"):
        ExperimentConfig.from_dict(
            {
                "p": 3, "n": 2, "seed": 1, "k": 2, "delta": 0.1, "gamma": 0.1,
                "f": {"kind": "constant", "value": 1},
            }
        )
    with pytest.raises(ConfigError, match="ordering"):
        cfg(ordering="ffg")
    with pytest.raises(ConfigError, match="ordering"):
        cfg(ordering=["gff"])
    with pytest.raises(ConfigError, match="'label'"):
        cfg(label=5)
    with pytest.raises(ConfigError, match="refresh"):
        cfg(refresh="later")
    with pytest.raises(ConfigError, match="JSON object"):
        ExperimentConfig.from_dict([1, 2])


def test_config_defaults_and_modes(p33):
    spectrum = dft(DenseFunction.constant(p33, 1.0))
    c = cfg()
    assert c.orderings == ("fgf",)
    assert resolve_delta(c, spectrum)[1] == "explicit"
    assert resolve_delta(cfg(delta=None, gamma=0.1), spectrum)[1] == "plugin"
    assert resolve_delta(cfg(delta=None), spectrum)[1] == "tail"
    c4 = cfg(ordering="both")
    assert c4.orderings == ("fgf", "gff")
    assert cfg(ordering="gff").orderings == ("gff",)
    assert cfg().label == cfg(label=None).label == ""
    assert cfg(g=None).g_recipe == {"kind": "same"}


def test_resolve_delta_modes(p33):
    f = DenseFunction.constant(p33, 1.0)
    spectrum = dft(f)
    assert resolve_delta(cfg(delta=0.25), spectrum) == (0.25, "explicit")
    got, mode = resolve_delta(cfg(delta=None, gamma=0.0), spectrum)
    assert (got, mode) == (pytest.approx(1.0 / (2.0 * 2**2.5)), "plugin")
    got, mode = resolve_delta(cfg(delta=None), spectrum)
    assert (got, mode) == (pytest.approx(0.0, abs=1e-12), "tail")


def test_run_experiment_pass():
    config = cfg(ordering="both", trials=25)
    report, code = run_experiment(config)
    assert code == EXIT_PASS
    assert report["passed"] is True
    assert {r["ordering"] for r in report["runs"]} == {"fgf", "gff"}
    assert report["field"] == {"p": 3, "n": 3, "F": 27}
    assert all(a["passed"] for a in report["assertions"])
    names = {a["name"] for a in report["assertions"]}
    assert "oracle_agreement[f]" in names
    assert "trivial_bound[f]" in names
    assert report["lambda3_f"]["brute"] == pytest.approx(1.0)
    assert report["delta_mode"] == "explicit"
    assert "timing" in report


@pytest.mark.parametrize(
    "overrides, calls",
    [({}, 1), ({"g": {"kind": "scale", "factor": 0.9}}, 3)],
)
def test_run_experiment_one_brute_pass_per_triple(monkeypatch, overrides, calls):
    seen = []

    def counting(*fs):
        seen.append(fs)
        return lambda3_brute(*fs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ap3" and getattr(module, "lambda3_brute", None) is lambda3_brute:
            monkeypatch.setattr(module, "lambda3_brute", counting)
    report, code = run_experiment(cfg(ordering="both", **overrides))
    assert code == EXIT_PASS
    assert len(report["runs"]) == 2
    assert len(seen) == calls
    assert len({tuple(id(f) for f in fs) for fs in seen}) == calls


def test_run_experiment_transforms_each_function_once(monkeypatch):
    calls = []

    def counting(f):
        calls.append(f)
        return dft(f)

    monkeypatch.setattr(ap3.spectral, "dft", counting)
    config = cfg(
        ordering="both",
        k=4,
        delta=None,
        f={"kind": "cosine", "base": 0.9, "amplitude": 0.1, "frequency": [1, 0, 0]},
        g={"kind": "uniform", "low": 0.5, "high": 0.8},
    )
    report, _ = run_experiment(config)
    assert len(report["runs"]) == 2
    assert len(calls) == 2 and calls[0] is not calls[1]


def test_run_experiment_estimates_draw_each_subspace_once(monkeypatch):
    # separation, coset density and the moments read one sample of (W, t)
    # in blocks of 12 trials: one draw of 12 bases per block
    monkeypatch.setattr(ap3.finder, "BLOCK_ENTRIES", 12 * 3)
    draws = []
    original = ap3.finder.sample_uniform_bases

    def counted(params, dim, count, rng):
        caller = sys._getframe(1).f_code.co_name
        if caller == "estimate_condition_probabilities":  # not the finder's stream
            draws.append((caller, count))
        return original(params, dim, count, rng)

    monkeypatch.setattr(ap3.finder, "sample_uniform_bases", counted)
    report, _ = run_experiment(cfg(trials=30))
    assert report["estimates"]["trials"] == 30
    assert draws == [("estimate_condition_probabilities", count) for count in (12, 12, 6)]


def test_run_experiment_refusal():
    # the orderings share one depletion, so a refusal is recorded once
    config = cfg(g={"kind": "constant", "value": 0.0}, ordering="both")
    report, code = run_experiment(config)
    assert code == EXIT_REFUSED
    assert report["passed"] is False
    (failure,) = report["failures"]
    assert failure["type"] == "hypothesis_refusal"
    assert "deplete" in failure["detail"]


@pytest.mark.parametrize("ordering", ["fgf", "both"])
def test_run_experiment_budget(ordering):
    # the orderings share one depletion, so a spent budget is one failure
    config = cfg(
        f={"kind": "constant", "value": 1.0},
        g={"kind": "mask", "members": [0]},
        max_attempts=48,
        ordering=ordering,
    )
    report, code = run_experiment(config)
    assert code == EXIT_BUDGET
    assert [f["type"] for f in report["failures"]] == ["finder_budget"]
    assert report["failures"][0]["detail"].startswith(f"ordering {ordering}: ")
    assert [r["ordering"] for r in report["runs"]] == list(config.orderings)
    assert all(r["partial"] for r in report["runs"])
    assert all(r["lambda_measured_brute"] > 0.0 for r in report["runs"])


def test_run_experiment_config_error_exit():
    config = cfg(exhaustive=True, enumeration_cap=3, trials=10)
    report, code = run_experiment(config)
    assert code == EXIT_ERROR
    assert any(f["type"] == "cap" for f in report["failures"])


def test_exhaustive_x_budget_is_a_cap_failure(monkeypatch):
    # 13 lines x 9 cosets of each: 117 coset sums against a budget of 10
    monkeypatch.setattr(ap3.finder, "EXHAUSTIVE_X_FLOATS", 10)
    report, code = run_experiment(cfg(exhaustive=True))
    assert code == EXIT_ERROR
    [failure] = report["failures"]
    assert failure["type"] == "cap"
    assert "13 subspaces x 9 cosets exceeds the budget of 10 floats" in failure["detail"]
    assert "estimates" not in report


def test_run_experiment_guardrail():
    config = cfg(p=3, n=13, delta=1.0)
    report, code = run_experiment(config)
    assert code == EXIT_ERROR
    [failure] = report["failures"]
    assert failure["type"] == "guardrail" and "brute-force limit" in failure["detail"]


def test_sevenfold_p3_n10_verifies_without_a_flag():
    # F = 59,049 was refused by a fixed F > 20,000 limit; its brute oracle
    # costs 3^15, well inside the budget
    config = ExperimentConfig.from_dict({
        "p": 3, "n": 10, "seed": 1,
        "f": {"kind": "conv_power", "size": math.ceil(0.95 * 3**10), "power": 7},
        "k": 5, "refresh": "lazy", "trials": 0,
    })
    report, code = run_experiment(config)
    assert code == EXIT_PASS and not report["failures"]
    assert report["assertions"] and all(a["passed"] for a in report["assertions"])
    assert [run["finder_calls"] for run in report["runs"]] == [1]


def test_report_determinism():
    config = cfg(trials=20)
    r1, _ = run_experiment(config)
    r2, _ = run_experiment(config)
    assert report_json(strip_timing(r1)) == report_json(strip_timing(r2))
    assert "timing" in r1


def test_report_json_canonical(tmp_path):
    """One compact line with sorted keys, NaN refused; lambda3.json written
    through --out is the same encoding."""
    config = cfg(trials=5)
    report, _ = run_experiment(config)
    text = report_json(report)
    assert text.endswith("\n") and text.count("\n") == 1
    assert text == json.dumps(report, separators=(",", ":"), sort_keys=True) + "\n"
    parsed = json.loads(text)
    assert parsed["field"]["F"] == 27
    assert "np." not in text
    round2 = report_json(strip_timing(report))
    assert json.loads(round2) == strip_timing(parsed)
    with pytest.raises(ValueError):
        report_json({**report, "delta": float("nan")})

    recipe = '{"kind": "uniform", "low": 0, "high": 1}'
    argv = ["lambda3", "--recipe", recipe, "--p", "3", "--n", "2", "--out", str(tmp_path)]
    assert main(argv) == 0
    written = (tmp_path / "lambda3.json").read_text(encoding="utf-8")
    assert written.count("\n") == 1 and json.loads(written)["results"]


def test_broken_certificate_exits_assertion(monkeypatch):
    import ap3.midpoint

    real_table = ap3.midpoint.pair_table
    monkeypatch.setattr(ap3.midpoint, "pair_table", lambda *args: real_table(*args) - 1e6)
    report, code = run_experiment(cfg())
    assert code == EXIT_ASSERTION
    failed = [a["name"] for a in report["assertions"] if not a["passed"]]
    assert "certificates[fgf]" in failed
    [run] = report["runs"]
    assert run["certificates_ok"] is False
    assert run["steps"] and run["lambda_lower"] > 0.0


def test_unheld_step_exits_assertion(monkeypatch):
    """lambda_lower adds every step's floor, so a step whose hypotheses did
    not hold fails hypotheses_held, though certificates skips it."""
    import ap3.midpoint

    real_select = ap3.midpoint.select_translate

    def above(scores, labels, dense, sigma_k, roundoff):
        t, _ = real_select(scores, labels, dense, sigma_k, roundoff)
        return t, 4.0 * sigma_k + 1.0

    monkeypatch.setattr(ap3.midpoint, "select_translate", above)
    report, code = run_experiment(cfg())
    assert code == EXIT_ASSERTION
    [run] = report["runs"]
    failed = [a for a in report["assertions"] if not a["passed"]]
    assert [a["name"] for a in failed] == ["hypotheses_held[fgf]"]
    assert failed[0]["detail"] == f"{len(run['steps'])} steps did not hold"
    assert run["certificates_ok"] is True


def test_broken_certificate_fails_partial_run(monkeypatch):
    import ap3.midpoint

    real_table = ap3.midpoint.pair_table
    monkeypatch.setattr(ap3.midpoint, "pair_table", lambda *args: real_table(*args) - 1e6)
    # the first search for W succeeds and the second runs out of attempts
    real_find, finds = ap3.midpoint.find_good_subspace, []

    def succeeds_once(*args):
        finds.append(args)
        if len(finds) > 1:
            raise FinderBudgetError("no good subspace", {"separation": 1})
        return real_find(*args)

    monkeypatch.setattr(ap3.midpoint, "find_good_subspace", succeeds_once)
    report, code = run_experiment(cfg())
    assert code == EXIT_ASSERTION and len(finds) == 2
    assert [f["type"] for f in report["failures"]] == ["finder_budget"]
    failed = [a["name"] for a in report["assertions"] if not a["passed"]]
    assert failed == ["certificates[fgf]"]
    [run] = report["runs"]
    assert run["partial"] is True and run["steps"]
    assert run["certificates_ok"] is False


@pytest.mark.parametrize("ordering", ["fgf", "both"])
def test_context_invariant_error_exits_assertion(monkeypatch, ordering):
    import ap3.experiment as mod
    from ap3.midpoint import ContextInvariantError

    def explode(*args, **kwargs):
        raise ContextInvariantError("Q exceeds 4 sigma_k")

    monkeypatch.setattr(mod, "run_depletion", explode)
    report, code = run_experiment(cfg(ordering=ordering))
    assert code == EXIT_ASSERTION
    assert [f["type"] for f in report["failures"]] == ["certificate"]
    assert "4 sigma_k" in report["failures"][0]["detail"]
    assert report["runs"] == []


@pytest.mark.parametrize("ordering", ["fgf", "gff"])
@pytest.mark.parametrize(
    "where, by",
    [
        # one entry off by 1e-3 moves pair_weight / F^2 by 1.4e-6 at F = 27
        (5, 1e-3),
        # every entry off by 1e-7 moves pair_weight / F^2 by 3.7e-9, under
        # its 1e-8 tolerance, and each step's count by 3.7e-9 relative
        (slice(None), 1e-7),
    ],
    ids=["one-entry", "every-entry"],
)
def test_perturbed_pair_table_exits_assertion(monkeypatch, ordering, where, by):
    import ap3.midpoint as mod
    from ap3.lambda3 import pair_table

    def perturbed(spectrum, which):
        table = pair_table(spectrum, which)
        if which == ordering:
            table[where] += by
        return table

    monkeypatch.setattr(mod, "pair_table", perturbed)
    report, code = run_experiment(cfg(ordering="both"))
    assert code == EXIT_ASSERTION
    failed = [a["name"] for a in report["assertions"] if not a["passed"]]
    assert failed == [f"pair_table[{ordering}]"]
    names = {a["name"] for a in report["assertions"]}
    assert {"pair_table[fgf]", "pair_table[gff]"} <= names


def _skips_last_axis(params, c):
    perm = (c * np.arange(params.p)) % params.p
    table = np.arange(params.F, dtype=np.int64).reshape((params.p,) * params.n)
    for axis in range(params.n - 1):
        table = np.take(table, perm, axis=axis)
    return table.reshape(-1)


def _negated(params, c, scale_table=ap3.lambda3.scale_table):
    """a -> -c a, so the spectral partner a -> -2a becomes a -> 2a."""
    return scale_table(params, -c)


@pytest.mark.parametrize(
    "name,mutant,caught",
    [
        ("dense_theorem_p5_n4", _skips_last_axis, "oracle_agreement[f]"),
        ("smoothed_p3_n5", _skips_last_axis, "pair_table[fgf]"),
        ("smoothed_p3_n5", _negated, "pair_table[fgf]"),
    ],
    ids=[
        "dense_theorem_p5_n4-skips_last_axis",
        "smoothed_p3_n5-skips_last_axis",
        "smoothed_p3_n5-negated",
    ],
)
def test_scale_table_mutant_fails_oracle_agreement(monkeypatch, name, mutant, caught):
    """A broken scale_table fails an oracle check of a bundled config.

    A scale_table that skips its last axis breaks the spectral Lambda3 of
    dense_theorem_p5_n4, and the brute oracle catches it (a gap of 2.5e-7).
    Lambda3 alone misses the other mutants.  a -> 2a in place of a -> -2a:
    for real f2, f2hat(2a) = conj f2hat(-2a) is the transform of the
    reflection m -> f2(-m), so the sum is Lambda3 of (f1, f2(-.), f3), which
    an even f such as that config's cosine leaves unchanged.  And at p = 3
    every per-axis mutant of a -> -2a is still the identity, because
    -2 = 1 mod 3.  smoothed_p3_n5 catches both through pair_table[fgf]: its
    midpoint map a -> 2a is a reflection at p = 3, and its f is far enough
    from constant that the last step's pair count misses the direct count.
    """
    (config,) = load_config_file(str(CONFIGS / f"{name}.json"))
    monkeypatch.setattr(ap3.lambda3, "scale_table", mutant)
    report, code = run_experiment(config)
    assert code == EXIT_ASSERTION
    failed = [a["name"] for a in report["assertions"] if not a["passed"]]
    assert caught in failed

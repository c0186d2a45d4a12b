import json
import sys

import numpy as np
import pytest

import ap3.finder
import ap3.spectral
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
    report_json,
    resolve_delta,
    run_experiment,
    strip_timing,
    worst_exit,
)
from ap3.functions import convolve_direct
from ap3.lambda3 import lambda3_brute
from ap3.spectral import DenseFunction, dft


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


def test_worst_exit_severity_order():
    assert worst_exit([0, 0]) == 0
    assert worst_exit([0, 2, 1]) == 2
    assert worst_exit([3, 2]) == 3
    assert worst_exit([4, 3, 2, 1]) == 4
    assert worst_exit([1, 0]) == 1


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


def test_config_defaults_and_modes():
    c = cfg()
    assert c.orderings == ("fgf",)
    assert c.delta_mode() == "explicit"
    c2 = cfg(delta=None, gamma=0.1)
    assert c2.delta_mode() == "plugin"
    c3 = cfg(delta=None)
    assert c3.delta_mode() == "tail"
    c4 = cfg(ordering="both")
    assert c4.orderings == ("fgf", "gff")
    assert cfg(ordering="gff").orderings == ("gff",)
    assert cfg().label == cfg(label=None).label == ""
    assert cfg(g=None).g_recipe == {"kind": "same"}


def test_resolve_delta_modes(p33):
    f = DenseFunction.constant(p33, 1.0)
    spectrum = dft(f)
    assert resolve_delta(cfg(delta=0.25), spectrum) == 0.25
    got = resolve_delta(cfg(delta=None, gamma=0.0), spectrum)
    assert got == pytest.approx(1.0 / (2.0 * 2**2.5))
    assert resolve_delta(cfg(delta=None), spectrum) == pytest.approx(0.0, abs=1e-12)


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
    callers = []
    original = ap3.finder.sample_uniform_subspace

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)

    monkeypatch.setattr(ap3.finder, "sample_uniform_subspace", counted)
    report, _ = run_experiment(cfg(trials=30))
    assert report["estimates"]["trials"] == 30
    assert callers.count("estimate_condition_probabilities") == 30


def test_run_experiment_refusal():
    # f, g, k and delta alone decide a refusal, so both orderings record it once
    config = cfg(g={"kind": "constant", "value": 0.0}, ordering="both")
    report, code = run_experiment(config)
    assert code == EXIT_REFUSED
    assert report["passed"] is False
    (failure,) = report["failures"]
    assert failure["type"] == "hypothesis_refusal"
    assert "deplete" in failure["detail"]


def test_run_experiment_budget():
    config = cfg(
        f={"kind": "constant", "value": 1.0},
        g={"kind": "mask", "members": [0]},
        max_attempts=48,
    )
    report, code = run_experiment(config)
    assert code == EXIT_BUDGET
    assert any(r["partial"] for r in report["runs"])
    assert all(r["lambda_measured_brute"] > 0.0 for r in report["runs"])


def test_run_experiment_config_error_exit():
    config = cfg(exhaustive=True, enumeration_cap=3, trials=10)
    report, code = run_experiment(config)
    assert code == EXIT_ERROR
    assert any(f["type"] == "cap" for f in report["failures"])


def test_run_experiment_guardrail():
    config = cfg(p=3, n=10, delta=1.0)
    report, code = run_experiment(config)
    assert code == EXIT_ERROR
    assert any("brute" in f["detail"] for f in report["failures"])


def test_report_determinism():
    config = cfg(trials=20)
    r1, _ = run_experiment(config)
    r2, _ = run_experiment(config)
    assert report_json(strip_timing(r1)) == report_json(strip_timing(r2))
    assert "timing" in r1


def test_report_json_canonical():
    config = cfg(trials=5)
    report, _ = run_experiment(config)
    text = report_json(report)
    parsed = json.loads(text)
    assert parsed["field"]["F"] == 27
    assert "np." not in text
    round2 = report_json(strip_timing(report))
    assert json.loads(round2) == strip_timing(parsed)


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


def test_broken_certificate_fails_partial_run(monkeypatch):
    import ap3.midpoint

    real_table = ap3.midpoint.pair_table
    monkeypatch.setattr(ap3.midpoint, "pair_table", lambda *args: real_table(*args) - 1e6)
    report, code = run_experiment(cfg(max_attempts=1))
    assert code == EXIT_ASSERTION
    assert [f["type"] for f in report["failures"]] == ["finder_budget"]
    failed = [a["name"] for a in report["assertions"] if not a["passed"]]
    assert failed == ["certificates[fgf]"]
    [run] = report["runs"]
    assert run["partial"] is True and run["steps"]
    assert run["certificates_ok"] is False


def test_context_invariant_error_exits_assertion(monkeypatch):
    import ap3.experiment as mod
    from ap3.midpoint import ContextInvariantError

    def explode(*args, **kwargs):
        raise ContextInvariantError("Q exceeds 4 sigma_k")

    monkeypatch.setattr(mod, "run_depletion", explode)
    report, code = run_experiment(cfg())
    assert code == EXIT_ASSERTION
    assert report["failures"][0]["type"] == "certificate"
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

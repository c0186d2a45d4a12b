import math
from dataclasses import asdict

import numpy as np
import pytest

from ap3.bounds import (
    check_hypotheses,
    delta_from_sigma,
    derived_theta,
    lambda3_floor,
    optimal_k,
    pair_count,
    plugin_delta,
    quasinorm_regime_bound,
    sigma_tail_bound,
)
from ap3.spectral import DenseFunction, dft

from conftest import random_function


def test_pair_count():
    assert [pair_count(k) for k in (2, 3, 4, 10)] == [1, 3, 6, 45]


def test_floor_exact_frozen_value():
    assert lambda3_floor(3, 27, 2, 0.0, 0.0) == pytest.approx(1.0 / 1152.0)


def test_floor_weakened_frozen_value():
    got = lambda3_floor(3, 27, 2, 0.0, 0.0, form="weakened")
    assert got == pytest.approx(1.0 / 2304.0)


def test_floor_exact_dominates_weakened():
    for k in (2, 3, 5, 11):
        exact = lambda3_floor(3, 81, k, 0.1, 0.0)
        weak = lambda3_floor(3, 81, k, 0.1, 0.0, form="weakened")
        assert exact >= weak


def test_floor_negative_and_decay():
    assert lambda3_floor(3, 27, 2, 0.0, 1.0) < 0.0
    assert lambda3_floor(3, 27, 2, 50.0, 0.0) == pytest.approx(0.0, abs=1e-60)
    # decreasing in theta
    vals = [lambda3_floor(3, 27, 2, th, 0.0) for th in (0.0, 0.5, 1.0)]
    assert vals[0] > vals[1] > vals[2]


def test_floor_validation():
    with pytest.raises(ValueError):
        lambda3_floor(3, 27, 1, 0.0, 0.0)
    with pytest.raises(ValueError):
        lambda3_floor(3, 27, 2, 0.0, 0.0, form="sharp")


def test_sigma_tail_bound_and_plugin_delta():
    F = 27
    assert sigma_tail_bound(F, 0.0, 1) == pytest.approx(F**2 / 5.0)
    assert plugin_delta(F, 0.0, 1) == pytest.approx(0.5)
    # (delta F)^2 = F^(2+2gamma) / (4 k^5) strictly dominates the tail bound
    for k in (1, 2, 7):
        for gamma in (0.0, 0.03):
            d = plugin_delta(F, gamma, k)
            assert (d * F) ** 2 > sigma_tail_bound(F, gamma, k)


def test_delta_from_sigma():
    assert delta_from_sigma(729.0, 27) == pytest.approx(1.0)
    assert delta_from_sigma(0.0, 27) == 0.0
    f_sigma = 4.5
    assert delta_from_sigma(f_sigma, 27) == pytest.approx(math.sqrt(4.5) / 27)


def test_quasinorm_regime_bound():
    assert quasinorm_regime_bound(3, 27, 0.0, 0.0) == pytest.approx(1e-10 * 3.0**-8)
    # decreasing in both exponents
    base = quasinorm_regime_bound(3, 27, 0.0, 0.0)
    assert quasinorm_regime_bound(3, 27, 0.1, 0.0) < base
    assert quasinorm_regime_bound(3, 27, 0.0, 0.1) < base


def test_optimal_k_frozen_p3():
    res = optimal_k(3, 27, 0.0, 0.0)
    assert res.k_real == pytest.approx(2025.0 * 81.0)
    assert res.k == 164025
    assert res.stated_bound == pytest.approx(1e-10 * 3.0**-8)
    assert res.stated_bound == pytest.approx(1.524e-14, rel=1e-3)
    assert res.floor_exact >= res.stated_bound
    assert res.consistent


def test_optimal_k_documented_drift_p5():
    # the headline constant overshoots the stepwise floor away from p=3
    res = optimal_k(5, 625, 0.0, 0.0)
    assert res.k == 2025 * 5**4
    assert not res.consistent
    assert res.floor_exact < res.stated_bound


def test_optimal_k_neighbors_and_grid():
    res = optimal_k(3, 27, 0.05, 0.01, grid_check=True)
    assert res.k >= 2
    # the closed form beats every grid candidate up to discretization error
    assert res.consistent in (True, False)
    for cand in (res.k - 1, res.k + 1):
        if cand >= 2:
            alt = lambda3_floor(3, 27, cand, 0.05, plugin_delta(27, 0.01, cand), form="weakened")
            assert res.floor_weakened >= alt - 1e-18


def test_optimal_k_minimum_two():
    res = optimal_k(3, 3, 0.0, 0.0)
    assert res.k >= 2


def test_optimal_k_as_dict_roundtrip():
    res = optimal_k(3, 27, 0.0, 0.0)
    d = asdict(res)
    assert d["k"] == res.k
    assert d["consistent"] is True


def test_derived_theta():
    assert derived_theta(1.0, 27) == 0.0
    assert derived_theta(1.0 / 27.0, 27) == pytest.approx(1.0)
    assert math.isinf(derived_theta(0.0, 27))


def test_check_hypotheses_constant_fails_floor(p33):
    one = DenseFunction.constant(p33, 1.0)
    report = check_hypotheses(one, one, k=2, delta=0.0)
    assert not report.passed
    items = {name: ok for name, ok, _ in report.items}
    assert items["domination"]
    assert items["unit_range"]
    assert not items["density_floor"]  # 8 / (2 sqrt 3) = 2.31 > 1
    assert items["tail"]  # sigma_2 = 0 for a constant
    assert report.theta == 0.0


def test_check_hypotheses_passes_at_larger_k(p33):
    one = DenseFunction.constant(p33, 1.0)
    report = check_hypotheses(one, one, k=5, delta=0.0)
    assert report.passed


def test_check_hypotheses_zero_g(p33):
    one = DenseFunction.constant(p33, 1.0)
    zero = DenseFunction.constant(p33, 0.0)
    report = check_hypotheses(one, zero, k=5, delta=0.0)
    assert not report.passed
    assert math.isinf(report.theta)


def test_check_hypotheses_domination_witness(p33):
    f = DenseFunction.constant(p33, 0.5)
    vals = np.full(p33.F, 0.5)
    vals[11] = 0.8
    g = DenseFunction.make(p33, vals)
    report = check_hypotheses(f, g, k=5, delta=1.0)
    items = {name: (ok, detail) for name, ok, detail in report.items}
    ok, detail = items["domination"]
    assert not ok
    assert "index 11" in detail


def test_check_hypotheses_tail_item(p33, rng):
    f = random_function(p33, rng)
    spectrum = dft(f)
    sigma = spectrum.sigma(2)
    tight = math.sqrt(sigma) / p33.F
    report = check_hypotheses(f, f, k=2, delta=tight * 1.01, spectrum=spectrum)
    items = {name: ok for name, ok, _ in report.items}
    assert items["tail"]
    report2 = check_hypotheses(f, f, k=2, delta=tight * 0.5, spectrum=spectrum)
    items2 = {name: ok for name, ok, _ in report2.items}
    assert not items2["tail"]


def test_hypothesis_report_as_dict(p33):
    one = DenseFunction.constant(p33, 1.0)
    report = check_hypotheses(one, one, k=5, delta=0.0)
    d = report.as_dict()
    assert d["passed"] is True
    assert {row["name"] for row in d["items"]} == {
        "domination",
        "unit_range",
        "density_floor",
        "tail",
    }

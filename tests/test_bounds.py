import math

import numpy as np
import pytest

from ap3.bounds import (
    check_hypotheses,
    delta_from_sigma,
    derived_theta,
    lambda3_floors,
    plugin_delta,
    quasinorm_regime_bound,
)
from ap3.field import FieldParams
from ap3.spectral import DenseFunction

from conftest import random_function


def test_pair_count():
    # the exact floor at theta = delta = 0 is p^-2 C(k,2)^-1 / 128
    for k, pairs in ((2, 1), (3, 3), (4, 6), (10, 45)):
        assert lambda3_floors(3, 27, k, 0.0, 0.0)["exact"] == 1 / (9 * pairs * 128)


def test_floor_exact_frozen_value():
    assert lambda3_floors(3, 27, 2, 0.0, 0.0)["exact"] == pytest.approx(1.0 / 1152.0)


def test_floor_weakened_frozen_value():
    got = lambda3_floors(3, 27, 2, 0.0, 0.0)["weakened"]
    assert got == pytest.approx(1.0 / 2304.0)


def test_floor_exact_dominates_weakened():
    for k in (2, 3, 5, 11):
        floors = lambda3_floors(3, 81, k, 0.1, 0.0)
        assert floors["exact"] >= floors["weakened"]


def test_floor_negative_and_decay():
    assert lambda3_floors(3, 27, 2, 0.0, 1.0)["exact"] < 0.0
    assert lambda3_floors(3, 27, 2, 50.0, 0.0)["exact"] == pytest.approx(0.0, abs=1e-60)
    # decreasing in theta
    vals = [lambda3_floors(3, 27, 2, th, 0.0)["exact"] for th in (0.0, 0.5, 1.0)]
    assert vals[0] > vals[1] > vals[2]


def test_floor_validation():
    with pytest.raises(ValueError):
        lambda3_floors(3, 27, 1, 0.0, 0.0)


def test_plugin_delta_covers_measured_tail(rng):
    assert plugin_delta(27, 0.0, 1) == pytest.approx(0.5)
    # the tail lemma on real spectra, with gamma read off ||fhat||_{1/3} = F^(1+gamma)
    for p, n in ((3, 3), (3, 5), (5, 3), (7, 2)):
        params = FieldParams(p, n)
        F = params.F
        indicator = DenseFunction.make(params, (rng.random(F) < 0.5).astype(float))
        for f in (random_function(params, rng), indicator):
            gamma = math.log(f.spectrum.quasinorm(1.0 / 3.0), F) - 1.0
            for k in (1, 2, 5, F // 3):
                assert f.spectrum.sigma(k) <= (plugin_delta(F, gamma, k) * F) ** 2


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


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n,theta,gamma", [(2, 0.0, 0.0), (4, 0.1, 0.05), (6, 0.3, 0.2)])
def test_stated_headline_over_the_stepwise_floor(p, n, theta, gamma):
    # at the paper's k and the plug-in delta, the delta loss takes 4/5 of the
    # exact floor's main term, so the stated constant exceeds what is left by
    # 5 * 64 * 2025^2 * 1e-10 * p^2 = 0.13122 p^2, more than 1 at every odd p
    F = p**n
    k = math.ceil(2025 * p**4 * F ** (4 * theta + 2 * gamma))
    exact = lambda3_floors(p, F, k, theta, plugin_delta(F, gamma, k))["exact"]
    ratio = quasinorm_regime_bound(p, F, theta, gamma) / exact
    assert ratio == pytest.approx(0.1312 * p**2, rel=1e-3)


def test_derived_theta():
    assert derived_theta(1.0, 27) == 0.0
    assert derived_theta(1.0 / 27.0, 27) == pytest.approx(1.0)
    assert derived_theta(0.0, 27) is None


def test_check_hypotheses_constant_fails_floor(p33):
    one = DenseFunction.constant(p33, 1.0)
    report = check_hypotheses(one, one, k=2, delta=0.0)
    assert not report.passed
    assert report.items["domination"][0]
    assert report.items["unit_range"][0]
    assert not report.items["density_floor"][0]  # 8 / (2 sqrt 3) = 2.31 > 1
    assert report.items["tail"][0]  # sigma_2 = 0 for a constant
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
    assert report.theta is None


def test_check_hypotheses_domination_witness(p33):
    f = DenseFunction.constant(p33, 0.5)
    vals = np.full(p33.F, 0.5)
    vals[11] = 0.8
    g = DenseFunction.make(p33, vals)
    report = check_hypotheses(f, g, k=5, delta=1.0)
    ok, detail = report.items["domination"]
    assert not ok
    assert "index 11" in detail


def test_check_hypotheses_tail_item(p33, rng):
    f = random_function(p33, rng)
    sigma = f.spectrum.sigma(2)
    tight = math.sqrt(sigma) / p33.F
    report = check_hypotheses(f, f, k=2, delta=tight * 1.01)
    assert report.items["tail"][0]
    report2 = check_hypotheses(f, f, k=2, delta=tight * 0.5)
    assert not report2.items["tail"][0]


def test_hypothesis_report_as_dict(p33):
    one = DenseFunction.constant(p33, 1.0)
    report = check_hypotheses(one, one, k=5, delta=0.0)
    d = report.as_dict()
    assert d["passed"] is True
    assert [row["name"] for row in d["items"]] == [
        "domination",
        "unit_range",
        "density_floor",
        "tail",
    ]
    assert [(row["passed"], row["detail"]) for row in d["items"]] == list(report.items.values())

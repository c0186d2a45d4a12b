import numpy as np
import pytest

from ap3.field import FieldParams, ParameterError, Subspace
from ap3.experiment import derive_minorant
from ap3.functions import convolve_direct, indicator, normalized_conv_power, random_set
from ap3.spectral import dft, dft_naive

from conftest import random_function


def test_indicator_dedupes(p33):
    S = indicator(p33, [5, 1, 5, 0])
    assert np.flatnonzero(S.values).tolist() == [0, 1, 5]
    assert S.values[5] == 1.0
    assert S.values.sum() == 3
    with pytest.raises(ValueError, match=f"element index {p33.F} outside"):
        indicator(p33, [p33.F])


def test_indicator_examples(p33):
    assert indicator(p33, []).mean() == 0.0
    assert indicator(p33, range(p33.F)).mean() == 1.0
    assert indicator(p33, [0, 1, 2]).mean() == pytest.approx(3 / p33.F)


def test_random_set_size_and_determinism(p33):
    S1 = random_set(p33, 7, np.random.default_rng(5))
    S2 = random_set(p33, 7, np.random.default_rng(5))
    assert np.array_equal(S1.values, S2.values)
    assert S1.values.sum() == 7
    with pytest.raises(ValueError):
        random_set(p33, p33.F + 1, np.random.default_rng(0))


def test_convolve_identity_and_points(p33):
    f = random_function(p33, np.random.default_rng(1))
    delta0 = indicator(p33, [0])
    assert np.abs(convolve_direct(f, delta0).values - f.values).max() < 1e-9
    x, y = 4, 17
    conv = convolve_direct(indicator(p33, [x]), indicator(p33, [y]))
    expected = np.zeros(p33.F)
    expected[p33.indices_of(p33.digits_of(x) + p33.digits_of(y))] = 1.0
    assert np.abs(conv.values - expected).max() < 1e-9


def test_convolve_tiny_line():
    params = FieldParams(3, 1)
    S = indicator(params, [0, 1])
    out = convolve_direct(S, S)
    assert np.allclose(out.values, [1.0, 2.0, 1.0], atol=1e-9)


def test_convolve_matches_direct_oracle(p33, p52, rng):
    for params in (p33, p52):
        S = random_set(params, params.F // 3, rng)
        slow = S
        for r in (2, 3):
            slow = convolve_direct(slow, S)
            fast = normalized_conv_power(S, r)
            assert np.abs(fast.values - slow.values / S.values.sum() ** (r - 1)).max() < 1e-8


def test_convolve_rejects_mismatched_params(p33, p52, rng):
    with pytest.raises(ParameterError):
        convolve_direct(random_function(p33, rng), random_function(p52, rng))


def test_convolution_theorem(p33, rng):
    f = random_function(p33, rng)
    g = random_function(p33, rng)
    lhs = dft(convolve_direct(f, g)).coeffs
    rhs = dft(f).coeffs * dft(g).coeffs
    scale = max(np.abs(rhs).max(), 1.0)
    assert np.abs(lhs - rhs).max() / scale < 1e-8


def test_subspace_conv_power_idempotent(p33):
    H = Subspace.from_rows(p33, [[1, 0, 0], [0, 1, 0]])
    S = indicator(p33, H.members())
    out = normalized_conv_power(S, 2)
    assert np.abs(out.values - S.values).max() < 1e-9


def test_conv_power_mean_preserved(p33, rng):
    S = random_set(p33, 9, rng)
    for r in (2, 3, 7):
        f = normalized_conv_power(S, r)
        assert f.mean() == pytest.approx(S.values.sum() / p33.F, rel=1e-9)
        assert f.values.min() >= 0.0
        assert f.values.max() <= 1.0


def test_conv_power_spectrum_formula(p33, rng):
    S = random_set(p33, 9, rng)
    f = normalized_conv_power(S, 7)
    shat = dft_naive(S)
    expected = np.abs(shat) ** 7 / S.values.sum() ** 6
    assert np.abs(np.abs(dft(f).coeffs) - expected).max() < 1e-7


def test_conv_power_support_in_sumset():
    params = FieldParams(3, 2)
    members = [0, 1]
    f = normalized_conv_power(indicator(params, members), 2)
    D = params.digit_table()
    sumset = {params.indices_of(D[a] + D[b]) for a in members for b in members}
    support = set(np.flatnonzero(f.values > 1e-12).tolist())
    assert support == sumset


def test_conv_power_validation(p33):
    S = indicator(p33, [0, 1])
    with pytest.raises(ValueError):
        normalized_conv_power(S, 0)
    with pytest.raises(ValueError):
        normalized_conv_power(indicator(p33, []), 2)


def test_conv_power_large_coefficient_sharpening(rng):
    # for f = S*S/|S|, the count of |fhat| >= eps F is at most 1/eps
    params = FieldParams(3, 3)
    for _ in range(5):
        S = random_set(params, 6, rng)
        f = normalized_conv_power(S, 2)
        mags = np.abs(dft(f).coeffs)
        for eps in (0.05, 0.1, 0.3, 1.0):
            assert int((mags >= eps * params.F).sum()) <= 1.0 / eps + 1e-9


def test_mask_minorant(p33, rng):
    f = random_function(p33, rng)

    def mask(members):
        return derive_minorant(f, {"kind": "mask", "members": members}, rng)

    g_all = mask(list(range(p33.F)))
    assert np.array_equal(g_all.values, f.values)
    g_none = mask([])
    assert not g_none.values.any()
    half = rng.choice(p33.F, size=p33.F // 2, replace=False)
    g = mask(half.tolist())
    assert (g.values <= f.values + 1e-15).all()
    assert g.mean() <= f.mean()
    assert np.array_equal(np.flatnonzero(g.values), np.sort(half[f.values[half] > 0]))


def test_threshold_minorant(p33, rng):
    f = random_function(p33, rng)
    g = derive_minorant(f, {"kind": "threshold", "cutoff": 0.5}, rng)
    assert ((g.values == 0) | (g.values >= 0.5)).all()
    assert (g.values <= f.values).all()

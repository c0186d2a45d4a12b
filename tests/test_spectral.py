import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ap3.field import FieldParams, Subspace
from ap3.spectral import (
    DenseFunction,
    PaddedCube,
    axis_transforms,
    dft,
    dft_naive,
    difference_set,
    idft,
    parseval_gap,
)

from conftest import random_function


def test_constant_spectrum_is_single_spike(p33):
    s = dft(DenseFunction.constant(p33, 1.0))
    assert abs(s.coeffs[0] - p33.F) < 1e-12
    assert np.abs(s.coeffs[1:]).max() < 1e-12
    assert s.sigma(1) < 1e-18


def test_point_mass_spectrum_is_flat(p33):
    values = np.zeros(p33.F)
    values[0] = 1.0
    s = dft(DenseFunction.make(p33, values))
    assert np.abs(s.coeffs - 1.0).max() < 1e-12
    # all magnitudes tie at 1, so sigma_k counts the remaining coefficients
    for k in (0, 1, 5, p33.F):
        assert abs(s.sigma(k) - (p33.F - k)) < 1e-9


def test_indicator_of_subspace_spectrum():
    params = FieldParams(3, 2)
    W = Subspace.from_rows(params, [[1, 0]])
    values = np.zeros(params.F)
    values[W.members()] = 1.0
    f = DenseFunction.make(params, values)
    s = dft(f)
    assert np.abs(s.coeffs - dft_naive(f)).max() < 1e-8
    V = W.complement()
    on = np.zeros(params.F, dtype=bool)
    on[V.members()] = True
    assert np.allclose(s.coeffs[on], W.size, atol=1e-9)
    assert np.abs(s.coeffs[~on]).max() < 1e-9


@pytest.mark.parametrize("p,n", [(3, 1), (3, 3), (5, 2), (7, 2)])
def test_fast_matches_naive(p, n, rng):
    params = FieldParams(p, n)
    f = random_function(params, rng)
    assert np.abs(dft(f).coeffs - dft_naive(f)).max() < 1e-8


@pytest.mark.parametrize("p,n", [(3, 2), (3, 4), (5, 3), (7, 2)])
def test_round_trip_and_parseval(p, n, rng):
    params = FieldParams(p, n)
    f = random_function(params, rng)
    s = dft(f)
    back = idft(params, s.coeffs)
    assert np.abs(back.values - f.values).max() < 1e-9
    assert parseval_gap(f) < 1e-9


def test_spectrum_is_cached_transform(p33, rng):
    f = random_function(p33, rng)
    assert f.spectrum is f.spectrum
    assert np.array_equal(f.spectrum.coeffs, dft(f).coeffs)


def test_magnitudes_are_cached_and_read_only(p33, rng):
    s = dft(random_function(p33, rng))
    assert s.magnitudes is s.magnitudes
    assert not s.magnitudes.flags.writeable
    assert np.array_equal(s.magnitudes, np.abs(s.coeffs))


@pytest.mark.parametrize("p,n", [(3, 1), (3, 6), (3, 9), (5, 4), (7, 3), (13, 2), (101, 2)])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize(
    "transform,cube_transform",
    [(np.fft.fft, np.fft.fftn), (np.fft.ifft, np.fft.ifftn)],
    ids=["fft", "ifft"],
)
def test_axis_transforms_equal_the_cube_transform_bit_for_bit(
    p, n, kind, transform, cube_transform, rng
):
    """The contiguous passes run fftn's 1-D transforms on the same fibres in
    the same order, so not even the last bit may differ; the (p,)*n cube
    transform is the oracle."""
    params = FieldParams(p, n)
    values = rng.uniform(-1.0, 1.0, params.F)
    if kind == "complex":
        values = values + 1j * rng.uniform(-1.0, 1.0, params.F)
    expected = cube_transform(values.reshape((p,) * n)).reshape(-1)
    assert np.array_equal(axis_transforms(params, values, transform), expected)


def test_idft_of_spike_is_constant(p33):
    coeffs = np.zeros(p33.F, dtype=np.complex128)
    coeffs[0] = p33.F
    f = idft(p33, coeffs)
    assert np.abs(f.values - 1.0).max() < 1e-12


def test_idft_point_mass_round_trip(p33):
    values = np.zeros(p33.F)
    values[7] = 1.0
    f = DenseFunction.make(p33, values)
    assert np.abs(idft(p33, dft(f).coeffs).values - values).max() < 1e-12


def test_idft_rejects_asymmetric_coeffs(p33):
    coeffs = np.zeros(p33.F, dtype=np.complex128)
    coeffs[1] = 1.0  # no conjugate partner, inverse is not real
    with pytest.raises(ValueError):
        idft(p33, coeffs)


def test_make_validates(p33):
    with pytest.raises(ValueError):
        DenseFunction.make(p33, np.zeros(5))
    with pytest.raises(ValueError):
        DenseFunction.make(p33, np.full(p33.F, np.nan))
    with pytest.raises(ValueError):
        DenseFunction.make(p33, np.full(p33.F, 1.5), unit_range=True)
    f = DenseFunction.make(p33, np.full(p33.F, 1.0 + 5e-10), unit_range=True)
    assert f.values.max() == 1.0


def test_sigma_of_constant_and_bounds(p33, rng):
    s = dft(DenseFunction.constant(p33, 0.4))
    assert s.sigma(1) < 1e-18
    assert abs(s.quasinorm(1.0) - 0.4 * p33.F) < 1e-9
    with pytest.raises(ValueError):
        s.sigma(-1)
    with pytest.raises(ValueError):
        s.sigma(p33.F + 1)
    f = random_function(p33, rng)
    t = dft(f)
    beta = f.mean()
    # sigma_0 is the whole energy, which Parseval caps at beta F^2 for [0,1] values
    assert t.sigma(0) <= beta * p33.F**2 + 1e-6
    diffs = np.diff(t.tails)
    assert (diffs <= 1e-12).all()


def test_sigma_matches_naive_sort():
    params = FieldParams(3, 2)
    rng = np.random.default_rng(4)
    members = rng.choice(params.F, size=4, replace=False)
    values = np.zeros(params.F)
    values[members] = 1.0
    f = DenseFunction.make(params, values)
    s = dft(f)
    mags = np.sort(np.abs(dft_naive(f)))[::-1]
    for k in range(params.F + 1):
        assert abs(s.sigma(k) - (mags[k:] ** 2).sum()) < 1e-9


def test_order_breaks_ties_by_index(p33):
    values = np.zeros(p33.F)
    values[0] = 1.0
    s = dft(DenseFunction.make(p33, values))
    assert s.order.tolist() == list(range(p33.F))
    assert s.top_places(4).tolist() == [0, 1, 2, 3]


def test_top_places_k_one_is_zero_frequency(p33, rng):
    f = random_function(p33, rng)
    s = dft(f)
    assert s.top_places(1).tolist() == [0]
    with pytest.raises(ValueError):
        s.top_places(0)
    with pytest.raises(ValueError):
        s.top_places(p33.F + 1)


def test_quasinorm_examples(p33):
    s = dft(DenseFunction.constant(p33, 0.7))
    for t in (1.0 / 3.0, 0.5, 1.0, 2.0):
        assert abs(s.quasinorm(t) - 0.7 * p33.F) < 1e-8
    values = np.zeros(p33.F)
    values[0] = 1.0
    spike = dft(DenseFunction.make(p33, values))
    assert abs(spike.quasinorm(1.0 / 3.0) - float(p33.F) ** 3) < 1e-6
    with pytest.raises(ValueError):
        s.quasinorm(0.0)


def test_quasinorm_two_matches_parseval(p33, rng):
    f = random_function(p33, rng)
    s = dft(f)
    assert abs(s.quasinorm(2.0) ** 2 - p33.F * (f.values**2).sum()) < 1e-6


def test_difference_set_examples():
    params = FieldParams(3, 2)
    # digit vectors (0,1) and (1,0) are indices 3 and 1
    B = difference_set(params, np.array([3, 1]))
    assert sorted(B.tolist()) == [0, 5, 7]
    assert difference_set(params, np.array([4])).tolist() == [0]


def test_large_coefficient_count_bound(rng):
    # at most E(f) eps^-2 coefficients reach eps F, for every eps
    for p, n in [(3, 3), (5, 2)]:
        params = FieldParams(p, n)
        f = random_function(params, rng)
        s = dft(f)
        mags = s.magnitudes
        for eps in (0.05, 0.1, 0.25, 0.5, 1.0):
            count = int((mags >= eps * params.F).sum())
            assert count <= f.mean() / eps**2 + 1e-9


def test_translate_shifts_and_modulates(p33, p52, rng):
    for params in (p33, p52):
        f = random_function(params, rng)
        cube = PaddedCube(params, f.values)
        D = params.digit_table()
        for d in (0, 1, 13, params.F - 1):
            g = DenseFunction.make(params, cube.shifted(D[d]))
            for m in range(params.F):
                assert g.values[m] == f.values[params.indices_of(D[m] + D[d])]
            phases = np.exp(-2j * np.pi * ((D @ D[d]) % params.p) / params.p)
            assert np.abs(dft(g).coeffs - phases * dft(f).coeffs).max() < 1e-8


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_parseval_property(seed):
    params = FieldParams(3, 2)
    f = random_function(params, np.random.default_rng(seed))
    assert parseval_gap(f) < 1e-9


def test_function_csv_round_trip(p33, rng):
    f = random_function(p33, rng)
    again = DenseFunction.from_csv(p33, f.to_csv())
    assert np.array_equal(again.values, f.values)
    for text in ("bad,header\n0,1\n", ""):
        with pytest.raises(ValueError, match="header"):
            DenseFunction.from_csv(p33, text)
    rows = f.to_csv().splitlines()
    with pytest.raises(ValueError):
        DenseFunction.from_csv(p33, "\n".join(rows[:-1]) + "\n")
    last = rows[-1].split(",")[1]
    for bad, message in [
        (f"-1,{last}", "line 28: index -1 outside"),  # -1 must not stand for F - 1
        (f"27,{last}", "line 28: index 27 outside"),
        ("26", "line 28: expected index,value"),
        (f"0,{last}", "line 28: index 0 repeats"),
        ("x,0.1", "line 28: invalid literal for int"),
        ("26,abc", "line 28: could not convert string to float"),
    ]:
        with pytest.raises(ValueError, match=message):
            DenseFunction.from_csv(p33, "\n".join(rows[:-1] + [bad]) + "\n")


def test_function_json_round_trip(p33, rng):
    f = random_function(p33, rng)
    again = DenseFunction.from_json(f.to_json())
    assert again.params == p33
    assert np.array_equal(again.values, f.values)


def test_spectrum_csv_ranks(p33):
    values = np.zeros(p33.F)
    values[0] = 1.0
    values[1] = 0.5
    s = dft(DenseFunction.make(p33, values))
    rows = s.to_csv().splitlines()
    assert rows[0] == "index,re,im,magnitude,rank"
    rank_of = {int(r.split(",")[0]): int(r.split(",")[4]) for r in rows[1:]}
    assert rank_of[0] == 1
    assert len(rank_of) == p33.F
    assert "np." not in s.to_csv()

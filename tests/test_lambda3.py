import numpy as np
import pytest

from ap3.field import FieldParams, Subspace
from ap3.functions import indicator, subspace_indicator
from ap3.lambda3 import (
    diagonal_weight,
    endpoint_pair_count,
    lambda3_brute,
    lambda3_spectral,
    midpoint_pair_count,
    trivial_lower_bound,
)
from ap3.spectral import DenseFunction, translated_values

from conftest import random_function


def lambda3_loop(f1, f2, f3):
    """Literal double loop, the slowest possible oracle."""
    params = f1.params
    D = params.digit_table()
    total = 0.0
    for m in range(params.F):
        for d in range(params.F):
            m1 = params.index_of(D[m] + D[d])
            m2 = params.index_of(D[m] + 2 * D[d])
            total += f1.values[m] * f2.values[m1] * f3.values[m2]
    return total / params.F**2


def test_constant_triple_is_one(p33):
    one = DenseFunction.constant(p33, 1.0)
    assert lambda3_brute(one) == pytest.approx(1.0, abs=1e-12)
    assert lambda3_spectral(one) == pytest.approx(1.0, abs=1e-9)


def test_point_mass_triple(p33):
    delta = indicator(p33, [0])
    expected = 1.0 / p33.F**2
    assert lambda3_brute(delta) == pytest.approx(expected, abs=1e-15)
    assert lambda3_spectral(delta) == pytest.approx(expected, abs=1e-12)


def test_subspace_indicator_squares_density():
    params = FieldParams(3, 2)
    H = Subspace.from_rows(params, [[1, 0]])
    f = subspace_indicator(H)
    assert lambda3_brute(f) == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert lambda3_spectral(f) == pytest.approx(1.0 / 9.0, abs=1e-9)


def test_brute_matches_literal_loop(rng):
    params = FieldParams(3, 2)
    fs = [random_function(params, rng) for _ in range(3)]
    assert lambda3_brute(*fs) == pytest.approx(lambda3_loop(*fs), abs=1e-12)


@pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (7, 2)])
def test_spectral_matches_brute(p, n, rng):
    params = FieldParams(p, n)
    for _ in range(5):
        fs = [random_function(params, rng) for _ in range(3)]
        assert abs(lambda3_brute(*fs) - lambda3_spectral(*fs)) < 1e-8


def test_single_argument_means_diagonal_triple(p33, rng):
    f = random_function(p33, rng)
    assert lambda3_brute(f) == lambda3_brute(f, f, f)
    assert lambda3_spectral(f) == lambda3_spectral(f, f, f)


def test_translation_invariance(p33, rng):
    fs = [random_function(p33, rng) for _ in range(3)]
    base = lambda3_brute(*fs)
    for t in (1, 14):
        shifted = [f.translate(t) for f in fs]
        assert abs(lambda3_brute(*shifted) - base) < 1e-9


def test_monotone_in_minorant(p33, rng):
    f = random_function(p33, rng)
    g = DenseFunction.make(p33, f.values * rng.random(p33.F))
    assert lambda3_brute(f, g, f) <= lambda3_brute(f) + 1e-12
    assert lambda3_brute(g, f, f) <= lambda3_brute(f) + 1e-12


def test_trivial_lower_bound(p33, rng):
    one = DenseFunction.constant(p33, 1.0)
    assert trivial_lower_bound(one) == pytest.approx(1.0 / p33.F)
    assert trivial_lower_bound(DenseFunction.constant(p33, 0.0)) == 0.0
    for _ in range(5):
        f = random_function(p33, rng)
        assert lambda3_brute(f) >= trivial_lower_bound(f) - 1e-12


def test_diagonal_and_nonzero_difference_split(p33, rng):
    f = random_function(p33, rng)
    total = lambda3_brute(f) * p33.F**2
    diag = diagonal_weight(f, f, f)
    assert diag == pytest.approx(float((f.values**3).sum()), abs=1e-9)
    off_diagonal = 0.0
    for d in range(1, p33.F):
        shifted = translated_values(p33, f.values, d)
        off_diagonal += float(f.values @ (shifted * translated_values(p33, shifted, d)))
    assert off_diagonal == pytest.approx(total - diag, abs=1e-6)


def test_midpoint_pair_count_examples(p33):
    one = DenseFunction.constant(p33, 1.0)
    for m in (0, 11):
        assert midpoint_pair_count(one, m) == pytest.approx(p33.F)
    delta = indicator(p33, [4])
    assert midpoint_pair_count(delta, 4) == pytest.approx(1.0)
    assert midpoint_pair_count(delta, 5) == pytest.approx(0.0)


def test_midpoint_pair_count_routes_agree(p33, rng):
    f = random_function(p33, rng)
    D = p33.digit_table()
    for m in range(p33.F):
        direct = midpoint_pair_count(f, m, method="direct")
        spectral = midpoint_pair_count(f, m, method="spectral")
        assert abs(direct - spectral) < 1e-8
        # the midpoint count is the self-convolution at 2m
        loop = sum(
            f.values[p33.index_of(D[m] - D[d])] * f.values[p33.index_of(D[m] + D[d])]
            for d in range(p33.F)
        )
        assert direct == pytest.approx(loop, abs=1e-9)


def test_endpoint_pair_count_routes_agree(p33, rng):
    f = random_function(p33, rng)
    D = p33.digit_table()
    for m in range(0, p33.F, 3):
        direct = endpoint_pair_count(f, m, method="direct")
        spectral = endpoint_pair_count(f, m, method="spectral")
        assert abs(direct - spectral) < 1e-8
        loop = sum(
            f.values[p33.index_of(D[m] + D[d])] * f.values[p33.index_of(D[m] + 2 * D[d])]
            for d in range(p33.F)
        )
        assert direct == pytest.approx(loop, abs=1e-9)


def test_pair_count_method_validation(p33, rng):
    f = random_function(p33, rng)
    with pytest.raises(ValueError):
        midpoint_pair_count(f, 0, method="guess")


def test_lambda3_sums_midpoint_counts(p33, rng):
    # Lambda3(f,g,f) = F^-2 sum_m g(m) * (midpoint count of f at m)
    f = random_function(p33, rng)
    g = random_function(p33, rng)
    total = sum(
        g.values[m] * midpoint_pair_count(f, m) for m in range(p33.F)
    )
    assert lambda3_brute(f, g, f) == pytest.approx(total / p33.F**2, abs=1e-10)
    # and Lambda3(g,f,f) = F^-2 sum_m g(m) * (endpoint count of f at m)
    total_end = sum(
        g.values[m] * endpoint_pair_count(f, m) for m in range(p33.F)
    )
    assert lambda3_brute(g, f, f) == pytest.approx(total_end / p33.F**2, abs=1e-10)

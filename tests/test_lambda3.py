import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ap3.experiment import ORDERING_CHOICES
from ap3.field import FieldParams, Subspace
from ap3.functions import indicator
from ap3.lambda3 import (
    AGREEMENT_TOLERANCE,
    PAIR_SCALES,
    check_brute_budget,
    diagonal_weight,
    endpoint_pair_count,
    lambda3_brute,
    lambda3_spectral,
    midpoint_pair_count,
    pair_table,
    scale_table,
    trivial_lower_bound,
)
from ap3.spectral import DenseFunction, PaddedCube, dft

from conftest import lambda3_rolled, random_function


def lambda3_loop(f1, f2, f3):
    """Literal double loop, the slowest possible oracle."""
    params = f1.params
    D = params.digit_table()
    total = 0.0
    for m in range(params.F):
        for d in range(params.F):
            m1 = params.indices_of(D[m] + D[d])
            m2 = params.indices_of(D[m] + 2 * D[d])
            total += f1.values[m] * f2.values[m1] * f3.values[m2]
    return total / params.F**2


# n = 1 and odd n give halves of different sizes in lambda3_brute
BRUTE_PARAMS = [(3, 1), (3, 2), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2)]
TRIPLE_SHAPES = ["fff", "fgf", "gff", "explicit"]


def _triple(params, rng, shape, dyadic):
    if dyadic:
        f, g, h = (DenseFunction.make(params, rng.integers(0, 5, params.F) / 4.0) for _ in range(3))
    else:
        f, g, h = (random_function(params, rng) for _ in range(3))
    return {"fff": (f, f, f), "fgf": (f, g, f), "gff": (g, f, f), "explicit": (f, g, h)}[shape]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(BRUTE_PARAMS),
    st.integers(0, 2**32 - 1),
    st.sampled_from(TRIPLE_SHAPES),
)
def test_brute_equals_rolled_reference(pn, seed, shape):
    # values k/4 make every product a multiple of 1/64 and every partial sum
    # exact, so the matrix-product order and the per-d roll order agree exactly
    triple = _triple(FieldParams(*pn), np.random.default_rng(seed), shape, dyadic=True)
    assert lambda3_brute(*triple) == lambda3_rolled(*triple)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(BRUTE_PARAMS),
    st.integers(0, 2**32 - 1),
    st.sampled_from(TRIPLE_SHAPES),
)
def test_brute_matches_rolled_reference_on_reals(pn, seed, shape):
    # on real values the two summation orders round differently, by far less than 1e-13
    triple = _triple(FieldParams(*pn), np.random.default_rng(seed), shape, dyadic=False)
    assert lambda3_brute(*triple) == pytest.approx(lambda3_rolled(*triple), rel=1e-13, abs=0.0)


def test_constant_triple_is_one(p33):
    one = DenseFunction.constant(p33, 1.0)
    assert lambda3_brute(one, one, one) == pytest.approx(1.0, abs=1e-12)
    assert lambda3_spectral(one, one, one) == pytest.approx(1.0, abs=1e-9)


def test_point_mass_triple(p33):
    delta = indicator(p33, [0])
    expected = 1.0 / p33.F**2
    assert lambda3_brute(delta, delta, delta) == pytest.approx(expected, abs=1e-15)
    assert lambda3_spectral(delta, delta, delta) == pytest.approx(expected, abs=1e-12)


def test_indicator_of_subspace_squares_density():
    params = FieldParams(3, 2)
    H = Subspace.from_rows(params, [[1, 0]])
    f = indicator(H.params, H.members())
    assert lambda3_brute(f, f, f) == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert lambda3_spectral(f, f, f) == pytest.approx(1.0 / 9.0, abs=1e-9)


def test_brute_matches_literal_loop(rng):
    params = FieldParams(3, 2)
    fs = [random_function(params, rng) for _ in range(3)]
    assert lambda3_brute(*fs) == pytest.approx(lambda3_loop(*fs), abs=1e-12)


def test_brute_holds_o_f_memory():
    # at n = 1 the high half is the whole field: a full T_hi table would be
    # F x F int64 values, 32 MB here
    params = FieldParams(2003, 1)
    f = random_function(params, np.random.default_rng(3))
    tracemalloc.start()
    try:
        brute = lambda3_brute(f, f, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert abs(brute - lambda3_spectral(f, f, f)) <= AGREEMENT_TOLERANCE


@pytest.mark.parametrize(
    ("p", "n", "admitted"),
    [
        (3, 12, True), (5, 8, True), (727, 2, True), (19681, 1, True),
        (3, 13, False), (5, 9, False), (733, 2, False), (19687, 1, False),
    ],
)
def test_brute_budget_boundary(p, n, admitted):
    params = FieldParams(p, n)
    if admitted:
        check_brute_budget(params)
    else:
        with pytest.raises(ValueError, match="brute-force limit"):
            check_brute_budget(params)


@pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (7, 2)])
def test_spectral_matches_brute(p, n, rng):
    params = FieldParams(p, n)
    for _ in range(5):
        fs = [random_function(params, rng) for _ in range(3)]
        assert abs(lambda3_brute(*fs) - lambda3_spectral(*fs)) < 1e-8


def test_translation_invariance(p33, rng):
    fs = [random_function(p33, rng) for _ in range(3)]
    base = lambda3_brute(*fs)
    for t in (1, 14):
        digits = p33.digits_of(t)
        shifted = [DenseFunction.make(p33, PaddedCube(p33, f.values).shifted(digits)) for f in fs]
        assert abs(lambda3_brute(*shifted) - base) < 1e-9


def test_monotone_in_minorant(p33, rng):
    f = random_function(p33, rng)
    g = DenseFunction.make(p33, f.values * rng.random(p33.F))
    assert lambda3_brute(f, g, f) <= lambda3_brute(f, f, f) + 1e-12
    assert lambda3_brute(g, f, f) <= lambda3_brute(f, f, f) + 1e-12


def test_trivial_lower_bound(p33, rng):
    one = DenseFunction.constant(p33, 1.0)
    assert trivial_lower_bound(one) == pytest.approx(1.0 / p33.F)
    assert trivial_lower_bound(DenseFunction.constant(p33, 0.0)) == 0.0
    for _ in range(5):
        f = random_function(p33, rng)
        assert lambda3_brute(f, f, f) >= trivial_lower_bound(f) - 1e-12


def test_diagonal_and_nonzero_difference_split(p33, rng):
    f = random_function(p33, rng)
    total = lambda3_brute(f, f, f) * p33.F**2
    diag = diagonal_weight(f, f, f)
    assert diag == pytest.approx(float((f.values**3).sum()), abs=1e-9)
    cube = PaddedCube(p33, f.values)
    off_diagonal = 0.0
    for d in range(1, p33.F):
        digits = p33.digits_of(d)
        shifted = cube.shifted(digits).reshape(-1)
        twice = PaddedCube(p33, shifted).shifted(digits).reshape(-1)
        off_diagonal += float(f.values @ (shifted * twice))
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
    table = pair_table(dft(f), "fgf")
    D = p33.digit_table()
    for m in range(p33.F):
        direct = midpoint_pair_count(f, m)
        assert abs(direct - table[m]) < 1e-8
        # the midpoint count is the self-convolution at 2m
        loop = sum(
            f.values[p33.indices_of(D[m] - D[d])] * f.values[p33.indices_of(D[m] + D[d])]
            for d in range(p33.F)
        )
        assert direct == pytest.approx(loop, abs=1e-9)


def test_endpoint_pair_count_routes_agree(p33, rng):
    f = random_function(p33, rng)
    table = pair_table(dft(f), "gff")
    D = p33.digit_table()
    for m in range(0, p33.F, 3):
        direct = endpoint_pair_count(f, m)
        assert abs(direct - table[m]) < 1e-8
        loop = sum(
            f.values[p33.indices_of(D[m] + D[d])] * f.values[p33.indices_of(D[m] + 2 * D[d])]
            for d in range(p33.F)
        )
        assert direct == pytest.approx(loop, abs=1e-9)


def test_pair_count_method_validation(p33, rng):
    f = random_function(p33, rng)
    with pytest.raises(ValueError):
        pair_table(dft(f), "guess")


def test_pair_scales_cover_the_config_orderings():
    # every ordering a config accepts has a pair table, and no other does
    assert set(PAIR_SCALES) == set(ORDERING_CHOICES["both"])


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (7, 2)])
@pytest.mark.parametrize("ordering", ["fgf", "gff"])
def test_pair_table_matches_direct_counts_and_brute_weight(p, n, ordering, rng):
    # p = 3 is where -2a = a; p = 7 is where a -> -2a has longer cycles
    params = FieldParams(p, n)
    f, g = random_function(params, rng), random_function(params, rng)
    table = pair_table(dft(f), ordering)
    direct = midpoint_pair_count if ordering == "fgf" else endpoint_pair_count
    counts = np.array([direct(f, m) for m in range(params.F)])
    assert np.abs(table - counts).max() <= 1e-9 * max(1.0, np.abs(counts).max())
    # sum_m g(m) P(m) = F^2 Lambda3(f, g, f); sum_m g(m) E(m) = F^2 Lambda3(g, f, f)
    triple = (f, g, f) if ordering == "fgf" else (g, f, f)
    assert float(g.values @ table) / params.F**2 == pytest.approx(
        lambda3_brute(*triple), abs=1e-12
    )


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


@pytest.mark.parametrize(
    ("p", "n"), [(3, 1), (3, 4), (3, 9), (5, 1), (5, 3), (7, 2), (13, 2), (101, 2)]
)
@pytest.mark.parametrize("c", [-2, -1, 2, 3])
def test_scale_table_matches_digit_table_oracle(p, n, c):
    params = FieldParams(p, n)
    D = params.digit_table()
    assert np.array_equal(scale_table(params, c), params.indices_of((c * D) % p))

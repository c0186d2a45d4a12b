import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ap3.bounds import density_floor
from ap3.field import (
    EnumerationCapError,
    FieldParams,
    InfeasibleError,
    Subspace,
    enumerate_subspaces,
    sample_uniform_subspace,
)
from ap3.finder import (
    FinderBudgetError,
    FinderConfig,
    chebyshev_moments,
    choose_dimension,
    coset_sum,
    coset_sums,
    dense_translates,
    estimate_condition_probabilities,
    find_good_subspace,
)
from ap3.functions import indicator
from ap3.spectral import DenseFunction

from conftest import random_function


@pytest.mark.parametrize(
    "k,p,n,expected",
    [(2, 3, 3, 1), (4, 3, 3, 3), (10, 5, 4, 4), (1, 3, 3, 1), (3, 3, 3, 2)],
)
def test_choose_dimension(k, p, n, expected):
    assert choose_dimension(k, FieldParams(p, n)) == expected


def test_choose_dimension_infeasible():
    with pytest.raises(InfeasibleError):
        choose_dimension(10, FieldParams(5, 3))


def test_density_floor(p33):
    assert density_floor(p33, 2) == pytest.approx(8.0 / (np.sqrt(3.0) * 2))
    assert density_floor(FieldParams(5, 2), 10) == pytest.approx(
        8.0 / (np.sqrt(5.0) * 10)
    )


def test_coset_sums_exact(p33, rng):
    g = random_function(p33, rng)
    W = Subspace.from_rows(p33, [[1, 0, 0], [0, 1, 0]])
    reps, sums = coset_sums(g, W)
    seen = set()
    for m in range(p33.F):
        members = [p33.add(m, int(w)) for w in W.members()]
        direct = sum(g.values[x] for x in members)
        assert sums[reps[m]] == pytest.approx(direct, abs=1e-12)
        seen.add(int(reps[m]))
    assert len(seen) == p33.F // W.size


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_coset_sum_matches_coset_sums(pn, seed, data):
    params = FieldParams(*pn)
    rng = np.random.default_rng(seed)
    g = random_function(params, rng)
    W = sample_uniform_subspace(params, data.draw(st.integers(0, params.n)), rng)
    t = data.draw(st.integers(0, params.F - 1))
    reps, sums = coset_sums(g, W)
    assert coset_sum(g.values, W.coset(t)) == sums[reps[t]]


def test_sampled_estimators_read_one_coset(p33, rng, monkeypatch):
    calls = []
    full_field = Subspace.coset_representatives

    def counted(self):
        calls.append(self)
        return full_field(self)

    monkeypatch.setattr(Subspace, "coset_representatives", counted)
    g = random_function(p33, rng)
    estimate_condition_probabilities(p33, 1, A=np.array([0, 1]), g=g, trials=20, rng=rng)
    chebyshev_moments(g, 2, trials=20, rng=rng)
    assert calls == []


def test_dense_translates_full_for_constant(p33):
    g = DenseFunction.constant(p33, 1.0)
    W = Subspace.from_rows(p33, [[1, 0, 0]])
    T = dense_translates(g, W)
    assert T.size == p33.F


def test_dense_translates_point_mass(p33):
    g = indicator(p33, [0])
    W = Subspace.from_rows(p33, [[1, 0, 0]])
    T = dense_translates(g, W)
    # only the coset through 0 carries mass
    assert set(int(t) for t in T) == set(int(w) for w in W.members())


def _verify_good(found, A, g, params):
    B_vals = []
    A = np.asarray(A, dtype=np.int64)
    for a in A:
        for b in A:
            B_vals.append(params.sub(int(a), int(b)))
    B = np.unique(np.asarray(B_vals, dtype=np.int64))
    assert not found.V.contains_any_nonzero(B)
    assert found.translates.size >= params.F / 4.0
    assert found.W.intersects_trivially(found.V)
    assert found.W.dim + found.V.dim == params.n


def test_find_good_subspace_basic(p33, rng):
    # k = 5 keeps the density floor 8 / (sqrt(3) * 5) below E(g) = 1
    g = DenseFunction.constant(p33, 1.0)
    A = np.array([0, 1, 2], dtype=np.int64)
    found = find_good_subspace(A, g, FinderConfig(k=5, nprime=1), rng)
    _verify_good(found, A, g, p33)
    assert found.attempts <= 256


def test_find_good_subspace_singleton(p33, rng):
    g = DenseFunction.constant(p33, 0.8)
    found = find_good_subspace(np.array([0]), g, FinderConfig(k=1), rng)
    _verify_good(found, np.array([0]), g, p33)


def test_find_good_subspace_success_rate(p33):
    # random g with mean about 1/2 succeeds within 10 attempts almost surely
    master = np.random.default_rng(515)
    successes = 0
    runs = 1000
    for _ in range(runs):
        rng = np.random.default_rng(master.integers(2**63))
        vals = rng.random(p33.F)
        vals = np.clip(vals - vals.mean() + 0.5, 0.0, 1.0)
        g = DenseFunction.make(p33, vals)
        A = rng.choice(p33.F, size=2, replace=False).astype(np.int64)
        try:
            find_good_subspace(A, g, FinderConfig(k=2, max_attempts=10), rng)
            successes += 1
        except FinderBudgetError:
            pass
    assert successes / runs >= 0.99


def test_find_good_subspace_budget_error(p33, rng):
    g = indicator(p33, [0])
    with pytest.raises(FinderBudgetError) as exc:
        find_good_subspace(np.array([0]), g, FinderConfig(k=1, max_attempts=16), rng)
    # every attempt is rejected; isotropic draws fall to direct_sum first
    assert sum(exc.value.rejections.values()) == 16
    assert exc.value.rejections["separation"] == 0
    assert exc.value.rejections["coset_density"] >= 1


def test_estimate_exact_pair():
    params = FieldParams(3, 2)
    est = estimate_condition_probabilities(
        params, 1, A=np.array([0, 1]), exhaustive=True
    )
    assert est.exhaustive
    assert est.p_separation == pytest.approx(0.75, abs=1e-15)
    assert est.p_separation_stderr == 0.0
    assert est.trials == 4


def test_estimate_exact_matches_lemma_bound(p33):
    # exhaustive check that the sampled event has probability >= 1 - C(k,2) p^-nprime
    A = np.array([0, 1, 3], dtype=np.int64)
    est = estimate_condition_probabilities(p33, 1, A=A, exhaustive=True)
    bound = 1.0 - 3.0 * 3.0**-1
    assert est.p_separation >= bound - 1e-12


def test_estimate_constant_density(p33, rng):
    g = DenseFunction.constant(p33, 1.0)
    est = estimate_condition_probabilities(p33, 1, g=g, trials=200, rng=rng)
    assert est.p_coset_density == 1.0


def test_estimate_monte_carlo_tracks_bound(p33, rng):
    A = np.array([2, 7], dtype=np.int64)
    est = estimate_condition_probabilities(p33, 1, A=A, trials=10_000, rng=rng)
    assert not est.exhaustive
    bound = 1.0 - 1.0 * 3.0**-1  # one pair, nprime = 1
    assert est.p_separation > bound - 3.0 * est.p_separation_stderr
    exact = estimate_condition_probabilities(p33, 1, A=A, exhaustive=True)
    assert abs(est.p_separation - exact.p_separation) <= 4.0 * est.p_separation_stderr


def test_estimate_requires_input_or_rng(p33, rng):
    with pytest.raises(ValueError):
        estimate_condition_probabilities(p33, 1, trials=10, rng=rng)
    with pytest.raises(ValueError):
        estimate_condition_probabilities(p33, 1, A=np.array([0, 1]))


def test_chebyshev_constant_has_zero_variance(p33, rng):
    g = DenseFunction.constant(p33, 0.4)
    mom = chebyshev_moments(g, 1, trials=50, rng=rng)
    assert mom.variance == pytest.approx(0.0, abs=1e-18)
    assert mom.mean == pytest.approx(0.4 * 3)


def test_chebyshev_exhaustive_point_mass():
    params = FieldParams(3, 2)
    g = indicator(params, [0])
    mom = chebyshev_moments(g, 1, exhaustive=True)
    assert mom.exhaustive
    assert mom.mean_identity == pytest.approx(1.0 / 3.0)
    assert mom.mean == pytest.approx(mom.mean_identity, rel=1e-12)
    assert mom.variance <= mom.variance_bound + 1e-9


def test_chebyshev_exhaustive_random(p33, rng):
    g = random_function(p33, rng)
    mom = chebyshev_moments(g, 1, exhaustive=True)
    assert mom.mean == pytest.approx(mom.mean_identity, rel=1e-12)
    assert mom.variance <= 3.0 + 1e-9
    assert mom.variance_bound == 3.0


def test_chebyshev_sampled_needs_rng(p33):
    g = DenseFunction.constant(p33, 1.0)
    with pytest.raises(ValueError):
        chebyshev_moments(g, 1, trials=10)


def test_enumeration_cap_propagates():
    params = FieldParams(3, 2)
    g = DenseFunction.constant(params, 1.0)
    with pytest.raises(EnumerationCapError):
        chebyshev_moments(g, 1, exhaustive=True, cap=2)
    with pytest.raises(EnumerationCapError):
        estimate_condition_probabilities(
            params, 1, A=np.array([0, 1]), exhaustive=True, cap=2
        )


def test_enumerate_subspaces_matches_trials():
    params = FieldParams(3, 2)
    est = estimate_condition_probabilities(
        params, 1, A=np.array([0, 1]), exhaustive=True
    )
    assert est.trials == len(enumerate_subspaces(params, 1))

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ap3.finder
from ap3.bounds import density_floor
from ap3.field import (
    EnumerationCapError,
    FieldParams,
    InfeasibleError,
    Subspace,
    enumerate_subspaces,
    rref,
    sample_uniform_subspace,
)
from ap3.finder import (
    FinderBudgetError,
    chebyshev_moments,
    choose_dimension,
    coset_sum,
    coset_sums,
    estimate_condition_probabilities,
    find_good_subspace,
    is_dense,
    separates,
)
from ap3.functions import indicator
from ap3.midpoint import run_depletion
from ap3.spectral import DenseFunction, difference_set

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
    with pytest.raises(InfeasibleError, match="needs dimension 23 > n=22"):
        choose_dimension(164025, FieldParams(3, 22))


def test_density_floor(p33):
    assert density_floor(p33, 2) == pytest.approx(8.0 / (np.sqrt(3.0) * 2))
    assert density_floor(FieldParams(5, 2), 10) == pytest.approx(
        8.0 / (np.sqrt(5.0) * 10)
    )


def test_coset_sums_exact(p33, rng):
    g = random_function(p33, rng)
    W = Subspace.from_rows(p33, [[1, 0, 0], [0, 1, 0]])
    labels, sums = coset_sums(g, W.complement())
    D = p33.digit_table()
    seen = set()
    for m in range(p33.F):
        members = [p33.index_of(D[m] + D[w]) for w in W.members()]
        direct = sum(g.values[x] for x in members)
        assert sums[labels[m]] == pytest.approx(direct, abs=1e-12)
        seen.add(int(labels[m]))
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
    labels, sums = coset_sums(g, W.complement())
    assert coset_sum(g.values, W.coset(t)) == sums[labels[t]]


def test_sampled_estimators_read_one_coset(p33, rng, monkeypatch):
    # the finder and the depletion loop too: every coset question on the
    # fast path goes through Subspace.labels, never through row reduction
    calls = []
    for name in ("coset_representatives", "reduce_digit_rows"):
        original = getattr(Subspace, name)

        def counted(self, *args, _name=name, _original=original):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(Subspace, name, counted)
    g = random_function(p33, rng)
    estimate_condition_probabilities(1, A=np.array([0, 1]), g=g, trials=20, rng=rng)
    estimate_condition_probabilities(2, A=np.array([0, 1]), g=g, trials=20, rng=rng)
    find_good_subspace(np.array([0, 1]), g, rng)
    f = DenseFunction.make(p33, np.maximum(g.values, 0.5))
    run_depletion(f, g, k=2, delta=1.0, rng=rng)
    assert calls == []


def test_dense_translates_full_for_constant(p33):
    g = DenseFunction.constant(p33, 1.0)
    W = Subspace.from_rows(p33, [[1, 0, 0]])
    _, sums = coset_sums(g, W.complement())
    assert is_dense(sums, g.mean(), W.size).all()


def test_dense_translates_point_mass(p33):
    g = indicator(p33, [0])
    W = Subspace.from_rows(p33, [[1, 0, 0]])
    labels, sums = coset_sums(g, W.complement())
    T = np.flatnonzero(is_dense(sums, g.mean(), W.size)[labels])
    # only the coset through 0 carries mass
    assert set(int(t) for t in T) == set(int(w) for w in W.members())


def _verify_good(found, A, g, params):
    V = found.W.complement()
    D = params.digit_table()
    B = {params.index_of(D[a] - D[b]) for a in A for b in A} - {0}
    assert not any(V.contains(b) for b in B)
    assert found.dense.sum() * found.W.size >= params.F / 4.0
    stacked = np.vstack([found.W.matrix, V.matrix])
    assert len(rref(stacked, params.p)[0]) == found.W.dim + V.dim
    assert found.W.dim + V.dim == params.n


def test_separates(p33):
    # W.labels injective on A  <=>  no nonzero a - b lies in V = W-perp
    rng = np.random.default_rng(136)
    spaces = [W for dim in (1, 2) for W in enumerate_subspaces(p33, dim)]
    place_sets = [
        np.sort(rng.choice(p33.F, size=size, replace=False))
        for size in range(2, 6)
        for _ in range(6)
    ]
    separated = 0
    for A in place_sets:
        B = difference_set(p33, A)
        for W in spaces:
            expected = not (W.labels(B[B != 0]) == 0).any()
            assert separates(W, A) == expected
            separated += expected
    assert 0 < separated < len(place_sets) * len(spaces)


@pytest.mark.parametrize(("p", "n"), [(3, 3), (5, 2), (3, 4)])
def test_direct_sum_matches_isotropy_oracle(p, n):
    # separates(W, W.members()) fails exactly when some nonzero w in W lies in
    # W-perp, as the row-reduction membership test decides
    params = FieldParams(p, n)
    isotropic = 0
    for dim in range(1, n):
        for W in enumerate_subspaces(params, dim):
            V = W.complement()
            meets = any(V.contains(int(w)) for w in W.members() if w != 0)
            assert separates(W, W.members()) == (not meets)
            isotropic += meets
    assert isotropic > 0


def test_find_good_subspace_builds_one_complement(p33, monkeypatch):
    # V = W-perp is built only for the W that passes direct sum and separation
    calls = []
    original = Subspace.complement

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Subspace, "complement", counted)
    rng = np.random.default_rng(7)
    g = DenseFunction.constant(p33, 1.0)
    rejected = 0
    for _ in range(20):
        found = find_good_subspace(np.array([0, 1, 3]), g, rng, nprime=1)
        assert calls.pop() is found.W and calls == []
        rejected += found.rejections["direct_sum"] + found.rejections["separation"]
    assert rejected > 0


def test_find_good_subspace_basic(p33, rng):
    g = DenseFunction.constant(p33, 1.0)
    A = np.array([0, 1, 2], dtype=np.int64)
    found = find_good_subspace(A, g, rng, nprime=1)
    _verify_good(found, A, g, p33)
    assert found.attempts <= 256


def test_find_good_subspace_default_dimension(rng):
    params = FieldParams(3, 4)
    g = DenseFunction.constant(params, 1.0)
    for A in ([0, 1, 2], [0, 1, 2, 3, 4]):
        found = find_good_subspace(np.array(A), g, rng)
        assert found.W.dim == choose_dimension(len(A), params)
    assert find_good_subspace(np.array([0, 1, 2]), g, rng, nprime=3).W.dim == 3


def test_find_good_subspace_singleton(p33, rng):
    g = DenseFunction.constant(p33, 0.8)
    found = find_good_subspace(np.array([0]), g, rng)
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
            find_good_subspace(A, g, rng, max_attempts=10)
            successes += 1
        except FinderBudgetError:
            pass
    assert successes / runs >= 0.99


def test_find_good_subspace_budget_error(p33, rng):
    g = indicator(p33, [0])
    with pytest.raises(FinderBudgetError) as exc:
        find_good_subspace(np.array([0]), g, rng, max_attempts=16)
    # every attempt is rejected; isotropic draws fall to direct_sum first
    assert sum(exc.value.rejections.values()) == 16
    assert exc.value.rejections["separation"] == 0
    assert exc.value.rejections["coset_density"] >= 1


def test_estimate_exact_pair():
    params = FieldParams(3, 2)
    g = DenseFunction.constant(params, 1.0)
    est = estimate_condition_probabilities(1, A=np.array([0, 1]), g=g, exhaustive=True)
    assert est.exhaustive
    assert est.separation == pytest.approx(0.75, abs=1e-15)
    assert est.separation_stderr == 0.0
    assert est.trials == 4


def test_estimate_exact_matches_lemma_bound(p33):
    # exhaustive check that the sampled event has probability >= 1 - C(k,2) p^-nprime
    A = np.array([0, 1, 3], dtype=np.int64)
    g = DenseFunction.constant(p33, 1.0)
    est = estimate_condition_probabilities(1, A=A, g=g, exhaustive=True)
    bound = 1.0 - 3.0 * 3.0**-1
    assert est.separation >= bound - 1e-12


def test_estimate_constant_density(p33, rng):
    g = DenseFunction.constant(p33, 1.0)
    est = estimate_condition_probabilities(1, A=np.array([0, 1]), g=g, trials=200, rng=rng)
    assert est.coset_density == 1.0


def test_estimate_monte_carlo_tracks_bound(p33, rng):
    A = np.array([2, 7], dtype=np.int64)
    g = DenseFunction.constant(p33, 1.0)
    est = estimate_condition_probabilities(1, A=A, g=g, trials=10_000, rng=rng)
    assert not est.exhaustive
    bound = 1.0 - 1.0 * 3.0**-1  # one pair, nprime = 1
    assert est.separation > bound - 3.0 * est.separation_stderr
    exact = estimate_condition_probabilities(1, A=A, g=g, exhaustive=True)
    assert abs(est.separation - exact.separation) <= 4.0 * est.separation_stderr


def test_estimate_requires_input_or_rng(p33, rng):
    A, g = np.array([0, 1]), DenseFunction.constant(p33, 1.0)
    with pytest.raises(TypeError):  # A and g are both required
        estimate_condition_probabilities(1, A=A, trials=10, rng=rng)
    with pytest.raises(ValueError):
        estimate_condition_probabilities(1, A=A, g=g)


@pytest.mark.parametrize("trials", [0, -3])
def test_estimate_refuses_nonpositive_trials(p33, rng, trials):
    g = DenseFunction.constant(p33, 1.0)
    with pytest.raises(ValueError, match=rf"trials must be a positive integer .*got {trials}"):
        estimate_condition_probabilities(1, A=np.array([0, 1]), g=g, trials=trials, rng=rng)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["one", "ragged"]),
    st.data(),
)
def test_batched_estimator_matches_per_trial_oracle(pn, seed, blocks, data):
    # the blocked scoring reads the same draws as a loop over the trials that
    # sums each coset and tests each separation on its own
    params = FieldParams(*pn)
    nprime = data.draw(st.integers(0, params.n))
    trials = data.draw(st.integers(2, 40))
    per_block = 1 if blocks == "one" else data.draw(st.integers(2, trials))
    assume(blocks == "one" or trials % per_block)
    g = random_function(params, np.random.default_rng(seed))
    k = data.draw(st.integers(1, min(params.F, 6)))
    A = np.random.default_rng(seed + 1).choice(params.F, size=k, replace=False)

    seen, tables, coset_table = [], [], ap3.finder.coset_table

    def recording(X, mean, size):
        seen.append(X.copy())
        return chebyshev_moments(X, mean, size)

    def counted(*args):
        tables.append(args[1].shape[0])
        return coset_table(*args)

    with mock.patch.object(ap3.finder, "BLOCK_ENTRIES", per_block * params.p**nprime), \
            mock.patch.object(ap3.finder, "chebyshev_moments", recording), \
            mock.patch.object(ap3.finder, "coset_table", counted):
        est = estimate_condition_probabilities(
            nprime, A=A, g=g, trials=trials, rng=np.random.default_rng(seed)
        )
    assert tables == [per_block] * (trials // per_block) + [trials % per_block] * (blocks == "ragged")

    rng = np.random.default_rng(seed)
    X, hits = [], 0
    for _ in range(trials):
        W = sample_uniform_subspace(params, nprime, rng)
        t = int(rng.integers(params.F))
        labels = W.complement().labels()  # names the cosets of W
        X.append(coset_sum(g.values, np.flatnonzero(labels == labels[t])))
        hits += np.unique(W.labels(A)).size == len(A)
    (batched,) = seen
    assert np.array_equal(batched, np.array(X))
    assert est.separation == hits / trials and est.trials == trials


def test_estimate_memory_grows_only_with_x(monkeypatch):
    # a sampled estimate keeps X (8 bytes a trial) and one block of tables;
    # the draws are not kept.  They cycle through a pool of real subspaces,
    # since row reduction under tracemalloc would take most of a minute.
    params = FieldParams(3, 7)
    g = random_function(params, np.random.default_rng(5))
    A = np.arange(5)
    nprime = choose_dimension(len(A), params)
    rng = np.random.default_rng(1)
    pool = itertools.cycle([sample_uniform_subspace(params, nprime, rng) for _ in range(64)])
    monkeypatch.setattr(ap3.finder, "sample_uniform_subspace", lambda *args: next(pool))
    peaks = {}
    for trials in (20_000, 40_000):
        tracemalloc.start()
        try:
            estimate_condition_probabilities(nprime, A, g, trials=trials, rng=rng)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peaks[40_000] - peaks[20_000]) <= 1.5 * 8 * 20_000


def test_chebyshev_moments_formula():
    # (E(X), |W| E(g), Var(X), |W|)
    assert chebyshev_moments(np.array([1.0, 2.0, 3.0]), 0.5, 4) == (2.0, 2.0, 2.0 / 3.0, 4.0)


@pytest.mark.parametrize("exhaustive", [False, True])
def test_estimate_reads_one_sample(p33, rng, monkeypatch, exhaustive):
    seen = []

    def recording(X, mean, size):
        seen.append(X)
        return chebyshev_moments(X, mean, size)

    monkeypatch.setattr(ap3.finder, "chebyshev_moments", recording)
    g = random_function(p33, rng)
    est = estimate_condition_probabilities(
        1, A=np.array([0, 1]), g=g, trials=40, rng=rng, exhaustive=exhaustive
    )
    (X,) = seen
    assert X.size == est.trials * (p33.F if exhaustive else 1)
    assert est.coset_density == np.count_nonzero(is_dense(X, g.mean(), 3)) / X.size
    assert (est.moment_mean, est.moment_variance) == (X.mean(), X.var())


def test_chebyshev_constant_has_zero_variance(p33, rng):
    g = DenseFunction.constant(p33, 0.4)
    mom = estimate_condition_probabilities(1, A=np.array([0, 1]), g=g, trials=50, rng=rng)
    assert mom.moment_variance == pytest.approx(0.0, abs=1e-18)
    assert mom.moment_mean == pytest.approx(0.4 * 3)


def test_chebyshev_exhaustive_point_mass():
    params = FieldParams(3, 2)
    g = indicator(params, [0])
    mom = estimate_condition_probabilities(1, A=np.array([0, 1]), g=g, exhaustive=True)
    assert mom.exhaustive
    assert mom.moment_mean_identity == pytest.approx(1.0 / 3.0)
    assert mom.moment_mean == pytest.approx(mom.moment_mean_identity, rel=1e-12)
    assert mom.moment_variance <= mom.moment_variance_bound + 1e-9


def test_chebyshev_exhaustive_random(p33, rng):
    g = random_function(p33, rng)
    mom = estimate_condition_probabilities(1, A=np.array([0, 1]), g=g, exhaustive=True)
    assert mom.moment_mean == pytest.approx(mom.moment_mean_identity, rel=1e-12)
    assert mom.moment_variance <= 3.0 + 1e-9
    assert mom.moment_variance_bound == 3.0


def test_chebyshev_sampled_needs_rng(p33):
    g = DenseFunction.constant(p33, 1.0)
    with pytest.raises(ValueError):
        estimate_condition_probabilities(1, A=np.array([0, 1]), g=g, trials=10)


def test_enumeration_cap_propagates():
    params = FieldParams(3, 2)
    g = DenseFunction.constant(params, 1.0)
    with pytest.raises(EnumerationCapError):
        estimate_condition_probabilities(
            1, A=np.array([0, 1]), g=g, exhaustive=True, cap=2
        )


def test_enumerate_subspaces_matches_trials():
    params = FieldParams(3, 2)
    g = DenseFunction.constant(params, 1.0)
    est = estimate_condition_probabilities(1, A=np.array([0, 1]), g=g, exhaustive=True)
    assert est.trials == len(enumerate_subspaces(params, 1))


@pytest.mark.parametrize(("p", "n"), [(3, 3), (3, 4), (5, 2), (7, 2)])
def test_is_direct_matches_separates_members(p, n):
    # the Gram-matrix test decides exactly what W.labels on W.members() does
    params = FieldParams(p, n)
    verdicts = []
    for dim in range(n + 1):
        for W in enumerate_subspaces(params, dim):
            assert W.is_direct() == separates(W, W.members())
            verdicts.append(W.is_direct())
    # -1 is not a square mod 7, so no nonzero w in F_7^2 has w.w = 0
    assert any(verdicts) and all(verdicts) == ((p, n) == (7, 2))

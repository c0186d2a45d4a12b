import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ap3.finder
import ap3.midpoint
from ap3.bounds import density_floor
from ap3.experiment import load_config_file, run_experiment
from ap3.field import (
    EnumerationCapError,
    FieldParams,
    gaussian_binomial,
    InfeasibleError,
    Subspace,
    basis_labels,
    coset_labels,
    enumerate_bases,
    rref,
    sample_uniform_bases,
    sample_uniform_subspace,
)
from ap3.finder import (
    CandidateStream,
    FinderBudgetError,
    chebyshev_moments,
    choose_dimension,
    coset_sum,
    estimate_condition_probabilities,
    find_good_subspace,
    is_dense,
    screen,
    separates,
    separating,
)
from ap3.functions import indicator
from ap3.midpoint import run_depletion
from ap3.spectral import DenseFunction, difference_set

from conftest import all_subspaces, coset_sums, random_function, reference_find

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
        members = [p33.indices_of(D[m] + D[w]) for w in W.members()]
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
    # the finder's labels sum each coset in the same ascending order
    (fast,) = coset_labels(params, W.matrix[None])
    assert coset_sum(g.values, W.coset(t)) == np.bincount(fast, weights=g.values)[fast[t]]


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
    find_good_subspace(CandidateStream(p33, np.array([0, 1]), rng), g.values)
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
    B = {params.indices_of(D[a] - D[b]) for a in A for b in A} - {0}
    assert not any(V.contains(b) for b in B)
    assert found.dense.sum() * found.W.size >= params.F / 4.0
    stacked = np.vstack([found.W.matrix, V.matrix])
    assert len(rref(stacked, params.p)) == found.W.dim + V.dim
    assert found.W.dim + V.dim == params.n


def test_separates(p33):
    # W.labels injective on A  <=>  no nonzero a - b lies in V = W-perp
    rng = np.random.default_rng(136)
    spaces = [W for dim in (1, 2) for W in all_subspaces(p33, dim)]
    place_sets = [
        np.sort(rng.choice(p33.F, size=size, replace=False))
        for size in range(2, 6)
        for _ in range(6)
    ]
    separated = 0
    for A in place_sets:
        B = difference_set(p33, A)
        for W in spaces:
            expected = not (basis_labels(p33, W.matrix, B[B != 0]) == 0).any()
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
        for W in all_subspaces(params, dim):
            V = W.complement()
            meets = any(V.contains(int(w)) for w in W.members() if w != 0)
            assert separates(W, W.members()) == (not meets)
            isotropic += meets
    assert isotropic > 0


def find(A, g, rng, nprime=None, max_attempts=256):
    """find_good_subspace on a stream of its own."""
    return find_good_subspace(CandidateStream(g.params, A, rng, nprime), g.values, max_attempts)


def test_find_good_subspace_labels_only_candidates_that_pass(p33, monkeypatch):
    # the stream labels a W only once it is direct and separates A
    labelled = []

    def counted(params, bases):
        labelled.extend(Subspace(params, tuple(map(tuple, b))) for b in bases.tolist())
        return coset_labels(params, bases)

    monkeypatch.setattr(ap3.finder, "coset_labels", counted)
    A = np.array([0, 1, 3])
    stream = CandidateStream(p33, A, np.random.default_rng(7), nprime=1)
    rejected = 0
    for _ in range(20):
        found = find_good_subspace(stream, np.ones(p33.F))
        rejected += found.rejections["direct_sum"] + found.rejections["separation"]
    assert rejected > 0 and found.W in labelled
    assert all(W.is_direct() and separates(W, A) for W in labelled)


def test_lazy_run_draws_at_most_twice_the_attempts_it_uses(monkeypatch):
    # blocks double from one draw, so a run that needs one W draws about one
    draws, attempts = [], []
    real_draw, real_find = ap3.finder.sample_uniform_bases, ap3.midpoint.find_good_subspace

    def counted(params, dim, count, rng):
        if sys._getframe(1).f_code.co_name != "estimate_condition_probabilities":
            draws.append(count)
        return real_draw(params, dim, count, rng)

    def used(*args):
        found = real_find(*args)
        attempts.append(found.attempts)
        return found

    monkeypatch.setattr(ap3.finder, "sample_uniform_bases", counted)
    monkeypatch.setattr(ap3.midpoint, "find_good_subspace", used)
    (config,) = load_config_file(str(CONFIGS / "dense_theorem_p5_n4_lazy.json"))
    _, code = run_experiment(config)
    assert code == 0 and attempts
    assert sum(draws) <= 2 * sum(attempts)


def assert_same_find(found, reference):
    """The stream's accepted W, attempts and rejections are the reference's, and
    its labels split F into the reference's cosets with the same dense mask."""
    assert found.W == reference.W
    assert (found.attempts, found.rejections) == (reference.attempts, reference.rejections)
    assert found.dense.size == reference.dense.size
    pairs = np.unique(np.stack([found.coset_labels, reference.coset_labels]), axis=1)
    assert pairs.shape[1] == reference.dense.size
    assert np.array_equal(found.dense[found.coset_labels], reference.dense[reference.coset_labels])


@pytest.mark.parametrize(("p", "n", "k"), [(3, 3, 2), (3, 4, 3), (5, 3, 3), (7, 2, 2)])
def test_shared_stream_equals_the_per_attempt_reference(p, n, k):
    # consecutive calls on one stream accept what a finder drawing one W per
    # attempt accepts from a copy of the rng, with g_i depleted between calls
    params = FieldParams(p, n)
    g = random_function(params, np.random.default_rng(p * 100 + n))
    A = g.spectrum.top_places(k)
    nprime = choose_dimension(k, params)
    stream = CandidateStream(params, A, np.random.default_rng(5), nprime)
    reference_rng = np.random.default_rng(5)
    gi = g.values.copy()
    for _ in range(params.F // 3):
        found = find_good_subspace(stream, gi)
        reference = reference_find(A, DenseFunction.make(params, gi), reference_rng, nprime)
        assert_same_find(found, reference)
        gi[int(np.argmax(gi))] = 0.0


def test_a_budget_spent_mid_block_leaves_the_stream_in_step(p33, monkeypatch):
    # a point mass fails coset density on every line: 5 attempts read blocks of
    # 1, 2 and 4 draws, so the spent call leaves two tested draws in the stream
    draws = []
    real_draw = ap3.finder.sample_uniform_bases

    def counted(params, dim, count, rng):
        draws.append(count)
        return real_draw(params, dim, count, rng)

    monkeypatch.setattr(ap3.finder, "sample_uniform_bases", counted)
    A, point, ones = np.array([0]), indicator(p33, [0]), DenseFunction.constant(p33, 1.0)
    stream = CandidateStream(p33, A, np.random.default_rng(11), nprime=1)
    reference_rng = np.random.default_rng(11)
    with pytest.raises(FinderBudgetError) as spent:
        find_good_subspace(stream, point.values, max_attempts=5)
    with pytest.raises(FinderBudgetError) as oracle:
        reference_find(A, point, reference_rng, 1, max_attempts=5)
    assert spent.value.rejections == oracle.value.rejections
    assert sum(spent.value.rejections.values()) == 5 and len(draws) == 7
    for _ in range(3):
        found = find_good_subspace(stream, ones.values)
        assert_same_find(found, reference_find(A, ones, reference_rng, 1))


def test_the_whole_space_has_one_coset(p33, rng):
    # nprime = n: |V| = 1, no complement rows, every label 0
    A = np.array([0, 5, 7])
    g = random_function(p33, rng)
    found = find_good_subspace(CandidateStream(p33, A, np.random.default_rng(3), 3), g.values)
    assert found.W.size == p33.F and found.attempts == 1
    assert found.dense.tolist() == [True] and not found.coset_labels.any()
    assert_same_find(found, reference_find(A, g, np.random.default_rng(3), 3))


def check_labels(labels, W):
    """labels name the cosets of W: each of the |V| labels is hit |W| times,
    and the cosets are those W.complement().labels() names."""
    V = W.complement()
    assert labels.min() >= 0 and labels.max() < V.size
    assert np.bincount(labels, minlength=V.size).tolist() == [W.size] * V.size
    assert np.unique(np.stack([labels, V.labels()]), axis=1).shape[1] == V.size


@pytest.mark.parametrize(("p", "n", "d"), [(3, 3, 1), (3, 3, 2), (5, 2, 1), (3, 4, 2), (7, 2, 1)])
def test_screen_matches_the_per_subspace_oracles(p, n, d):
    params = FieldParams(p, n)
    bases = enumerate_bases(params, d)
    spaces = all_subspaces(params, d)
    A = np.random.default_rng(p * 100 + n * 10 + d).choice(params.F, size=3, replace=False)
    direct, separated, labels = screen(params, bases, A)
    assert direct.tolist() == [W.is_direct() for W in spaces]
    assert direct.tolist() == [separates(W, W.members()) for W in spaces]
    assert separated.tolist() == [separates(W, A) for W in spaces]
    assert 0 < separated.sum() < len(spaces)
    passing = [W for W, ok in zip(spaces, direct & separated) if ok]
    assert len(labels) == len(passing) > 0
    for row, W in zip(labels, passing):
        check_labels(row, W)
    for row, W in zip(coset_labels(params, bases), spaces):
        check_labels(row, W)


def test_find_good_subspace_basic(p33, rng):
    g = DenseFunction.constant(p33, 1.0)
    A = np.array([0, 1, 2], dtype=np.int64)
    found = find(A, g, rng, nprime=1)
    _verify_good(found, A, g, p33)
    assert found.attempts <= 256


def test_find_good_subspace_default_dimension(rng):
    params = FieldParams(3, 4)
    g = DenseFunction.constant(params, 1.0)
    for A in ([0, 1, 2], [0, 1, 2, 3, 4]):
        found = find(np.array(A), g, rng)
        assert found.W.dim == choose_dimension(len(A), params)
    assert find(np.array([0, 1, 2]), g, rng, nprime=3).W.dim == 3


def test_find_good_subspace_singleton(p33, rng):
    g = DenseFunction.constant(p33, 0.8)
    found = find(np.array([0]), g, rng)
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
            find(A, g, rng, max_attempts=10)
            successes += 1
        except FinderBudgetError:
            pass
    assert successes / runs >= 0.99


# A point mass at p=3, n=3, and 6 points at p=3, n=4: those leave every line W
# at most 6 dense cosets, a pool of at most 18 translates, below F/4 = 20.25
# though above F/8 for most W
@pytest.mark.parametrize(
    "n,members", [(3, [0]), (4, [3, 21, 24, 39, 49, 64])], ids=["point_mass", "six_points"]
)
def test_find_good_subspace_budget_error(rng, n, members):
    g = indicator(FieldParams(3, n), members)
    with pytest.raises(FinderBudgetError) as exc:
        find(np.array([0]), g, rng, nprime=1, max_attempts=16)
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
    # the blocked scoring agrees with scoring the same block draws one trial
    # at a time: each coset summed and each separation tested on its own
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
    for count in tables:
        bases = sample_uniform_bases(params, nprime, count, rng)
        for basis, t in zip(bases, rng.integers(params.F, size=count)):
            W = Subspace.from_rows(params, basis)
            labels = W.complement().labels()  # names the cosets of W
            X.append(coset_sum(g.values, np.flatnonzero(labels == labels[t])))
            hits += np.unique(basis_labels(params, W.matrix, A)).size == len(A)
    (batched,) = seen
    assert np.array_equal(batched, np.array(X))
    assert est.separation == hits / trials and est.trials == trials


def test_estimate_memory_grows_only_with_x():
    # a sampled estimate keeps X (8 bytes a trial) and one block of tables;
    # the draws are not kept
    params = FieldParams(3, 7)
    g = random_function(params, np.random.default_rng(5))
    A = np.arange(5)
    nprime = choose_dimension(len(A), params)
    rng = np.random.default_rng(1)
    peaks = {}
    for trials in (20_000, 40_000):
        tracemalloc.start()
        try:
            estimate_condition_probabilities(nprime, A, g, trials=trials, rng=rng)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peaks[40_000] - peaks[20_000]) <= 1.5 * 8 * 20_000
    # an exhaustive estimate keeps one coset sum per coset, count F / |W| floats
    # and one block of tables: far below 8 count F bytes, an X holding each
    # coset sum once for every (W, t)
    params = FieldParams(3, 6)
    g = random_function(params, np.random.default_rng(5))
    tracemalloc.start()
    try:
        estimate_condition_probabilities(4, A, g, exhaustive=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * gaussian_binomial(6, 4, 3) * params.F


def estimate_by_complements(params, nprime, A, g):
    """(X, separating hits, count) scored one enumerated W at a time: the coset
    sums of W through coset_sums(g, W.complement()), read at every translate
    t, so each coset sum appears |W| times.  The exhaustive estimator the
    block walk replaced, kept as its oracle."""
    spaces = all_subspaces(params, nprime)
    sums = (coset_sums(g, W.complement()) for W in spaces)
    X = np.hstack([totals[labels] for labels, totals in sums])
    hits = int(np.count_nonzero(separating(params, np.array([W.matrix for W in spaces]), A)))
    return X, hits, len(spaces)


EXHAUSTIVE_CASES = [
    (p, n, nprime)
    for p, n in [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]
    for nprime in range(1, n + 1)
]


@pytest.mark.parametrize("p,n,nprime", EXHAUSTIVE_CASES)
def test_exhaustive_estimate_matches_per_subspace_oracle(p, n, nprime, monkeypatch):
    params = FieldParams(p, n)
    rng = np.random.default_rng(p * 100 + n * 10 + nprime)
    g = random_function(params, rng)
    A = rng.choice(params.F, size=min(4, params.F), replace=False)
    seen = []

    def recording(X, mean, size):
        seen.append(X)
        return chebyshev_moments(X, mean, size)

    monkeypatch.setattr(ap3.finder, "chebyshev_moments", recording)
    est = estimate_condition_probabilities(nprime, A, g, exhaustive=True)
    (X,) = seen
    oracle_X, hits, count = estimate_by_complements(params, nprime, A, g)
    size = p**nprime
    assert est.trials == count and X.size == count * params.F // size
    assert est.separation == hits / count
    assert est.coset_density == np.count_nonzero(is_dense(oracle_X, g.mean(), size)) / oracle_X.size
    # each W's coset sums, repeated |W| times, are the oracle's bit for bit
    repeated = np.repeat(X.reshape(count, -1), size, axis=1)
    assert np.array_equal(np.sort(repeated, axis=1), np.sort(oracle_X.reshape(count, -1), axis=1))
    # the sums add up in another order; at nprime = n, X is constant and its
    # variance is 0 up to rounding
    _, identity, variance, bound = chebyshev_moments(oracle_X, g.mean(), size)
    assert est.moment_mean == pytest.approx(oracle_X.mean(), rel=1e-12)
    assert est.moment_variance == pytest.approx(variance, rel=1e-12, abs=1e-12)
    assert (est.moment_mean_identity, est.moment_variance_bound) == (identity, bound)


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
    assert X.size == est.trials * (p33.F // 3 if exhaustive else 1)
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


def test_enumerate_bases_matches_trials():
    params = FieldParams(3, 2)
    g = DenseFunction.constant(params, 1.0)
    est = estimate_condition_probabilities(1, A=np.array([0, 1]), g=g, exhaustive=True)
    assert est.trials == len(enumerate_bases(params, 1))


@pytest.mark.parametrize(("p", "n"), [(3, 3), (3, 4), (5, 2), (7, 2)])
def test_is_direct_matches_separates_members(p, n):
    # the Gram-matrix test decides exactly what W.labels on W.members() does
    params = FieldParams(p, n)
    verdicts = []
    for dim in range(n + 1):
        for W in all_subspaces(params, dim):
            assert W.is_direct() == separates(W, W.members())
            verdicts.append(W.is_direct())
    # -1 is not a square mod 7, so no nonzero w in F_7^2 has w.w = 0
    assert any(verdicts) and all(verdicts) == ((p, n) == (7, 2))

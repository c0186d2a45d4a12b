import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ap3.midpoint
from ap3.bounds import HypothesisRefusal, density_floor
from ap3.field import FieldParams, Subspace
from ap3.finder import FinderBudgetError, coset_sums, find_good_subspace, is_dense
from ap3.functions import indicator
from ap3.lambda3 import lambda3_brute
from ap3.midpoint import (
    ContextInvariantError,
    SubspaceFrame,
    build_context,
    coset_scores,
    run_depletion,
    select_translate,
    tail_energy,
    translate_scores,
)
from ap3.spectral import DenseFunction, PaddedCube, _root_powers, dft

from conftest import random_function


def separated_frame(f, k, rng):
    """A frame whose W separates the top-k places of f."""
    spectrum = dft(f)
    A = spectrum.top_places(k)
    ones = DenseFunction.constant(f.params, 1.0)
    good = find_good_subspace(A, ones, rng)
    return spectrum, A, good


def scores_of(spectrum, A, good):
    return coset_scores(tail_energy(spectrum, A), A, good.W, good.coset_labels)


def test_sum_of_scores_is_F_sigma(p33, rng):
    f = random_function(p33, rng)
    spectrum, A, good = separated_frame(f, 3, rng)
    frame = SubspaceFrame.build(spectrum, good.W)
    total = translate_scores(frame, A, np.arange(p33.F)).sum()
    sigma = spectrum.sigma(3)
    assert total == pytest.approx(p33.F * sigma, rel=1e-6)


def reference_translate(spectrum, A, good):
    """The translate rule from the per-translate oracle: score the smallest
    member of each dense coset, cosets in ascending order of those members,
    and take the first minimum."""
    T = np.flatnonzero(good.dense[good.coset_labels])
    _, first = np.unique(good.coset_labels[T], return_index=True)
    reps = T[np.sort(first)]
    scores = translate_scores(SubspaceFrame.build(spectrum, good.W), A, reps)
    pos = int(np.argmin(scores))
    return int(reps[pos]), float(scores[pos])


def test_select_translate_is_argmin_and_bounded(p33, rng):
    f = random_function(p33, rng)
    spectrum, A, good = separated_frame(f, 2, rng)
    sigma = spectrum.sigma(2)
    scores = scores_of(spectrum, A, good)
    t, q = select_translate(scores, good.coset_labels, good.dense, sigma, 0.0)
    t_ref, q_ref = reference_translate(spectrum, A, good)
    assert t == t_ref
    assert abs(q - q_ref) <= 1e-12 * max(1.0, p33.F * sigma)
    assert q <= 4.0 * sigma + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(3, 3), (5, 2), (7, 2)]), st.integers(0, 2**32 - 1))
def test_scores_constant_on_w_cosets(pn, seed):
    params = FieldParams(*pn)
    rng = np.random.default_rng(seed)
    spectrum, A, good = separated_frame(random_function(params, rng), 2, rng)
    frame = SubspaceFrame.build(spectrum, good.W)
    scores = translate_scores(frame, A, np.arange(params.F))
    reps = good.W.coset_representatives()
    spread = max(np.ptp(scores[reps == r]) for r in np.unique(reps))
    assert spread <= 1e-9 * (1.0 + scores.max())


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]),
    st.integers(0, 2**32 - 1),
)
def test_coset_scores_match_translate_scores(pn, seed):
    params = FieldParams(*pn)
    rng = np.random.default_rng(seed)
    f = random_function(params, rng)
    spectrum = dft(f)
    A = spectrum.top_places(2)
    ones = DenseFunction.constant(params, 1.0)
    accepted = 0
    for nprime in range(params.n + 1):
        try:
            good = find_good_subspace(A, ones, rng, nprime=nprime)
        except FinderBudgetError:
            continue
        accepted += 1
        scores = scores_of(spectrum, A, good)
        assert scores.shape == (good.W.complement().size,)
        oracle = translate_scores(SubspaceFrame.build(spectrum, good.W), A, np.arange(params.F))
        np.testing.assert_allclose(
            scores[good.coset_labels], oracle, rtol=1e-12, atol=1e-12 * oracle.max()
        )
        total = good.W.size * scores.sum()
        assert total == pytest.approx(params.F * spectrum.sigma(2), rel=1e-9)
    assert accepted >= 1


def test_coset_scores_rejects_unseparated_places(p33, rng):
    spectrum = dft(random_function(p33, rng))
    W = Subspace.from_rows(p33, [[1, 0, 0]])
    A = np.array([0, 3])  # 3 = (0, 1, 0) lies in V = W-perp
    with pytest.raises(ValueError, match="separation"):
        coset_scores(tail_energy(spectrum, A), A, W, W.complement().labels())


@pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (7, 2)])
def test_tail_energy_is_the_tail_squared(p, n):
    # F^2 |f(m) - F^-1 sum_{a in A} fhat(a) w^(-a.m)|^2, straight from the formula
    params = FieldParams(p, n)
    rng = np.random.default_rng(p)
    f = random_function(params, rng)
    spectrum = dft(f)
    D = params.digit_table()
    for A in (spectrum.top_places(3), np.array([1])):  # 1 without -1: f_tail is complex
        waves = _root_powers(p)[(-D @ D[A].T) % p]  # w^(-a.m), shape (F, |A|)
        tail = f.values - waves @ spectrum.coeffs[A] / params.F
        expected = params.F**2 * np.abs(tail) ** 2
        np.testing.assert_allclose(tail_energy(spectrum, A), expected, rtol=1e-10, atol=1e-10)
    assert np.abs(tail.imag).max() > 1e-3


def test_select_translate_scores_one_per_coset(p33, rng, monkeypatch):
    f = random_function(p33, rng)
    spectrum, A, good = separated_frame(f, 2, rng)
    scores = scores_of(spectrum, A, good)
    assert scores.size == good.W.complement().size < p33.F

    def forbidden(*args, **kwargs):
        raise AssertionError("the per-translate oracle is not on the fast path")

    monkeypatch.setattr(ap3.midpoint, "translate_scores", forbidden)
    t, q = select_translate(scores, good.coset_labels, good.dense, spectrum.sigma(2), 0.0)
    assert q == scores[good.coset_labels[t]]


def test_select_translate_zero_tail(p33, rng):
    f = DenseFunction.constant(p33, 0.7)
    spectrum, A, good = separated_frame(f, 2, rng)
    scores = scores_of(spectrum, A, good)
    t, q = select_translate(scores, good.coset_labels, good.dense, spectrum.sigma(2), 0.0)
    assert q == pytest.approx(0.0, abs=1e-18)


def test_select_translate_exact_tie_takes_smallest_dense_translate(p33):
    # A constant f has Q = 0 on every coset, so the tie-break alone picks t.
    f = DenseFunction.constant(p33, 0.7)
    spectrum = dft(f)
    A = spectrum.top_places(2)
    W = Subspace.from_rows(p33, [[1, 0, 0]])
    V = W.complement()
    g = indicator(p33, [5, 14, 22, 26])  # four cosets of W carry mass
    labels, sums = coset_sums(g, V)
    dense = is_dense(sums, g.mean(), W.size)
    assert 0 < dense.sum() < V.size and not dense[labels[0]]
    scores = coset_scores(tail_energy(spectrum, A), A, W, labels)
    assert not scores.any()
    t, q = select_translate(scores, labels, dense, spectrum.sigma(2), 0.0)
    assert t == int(np.flatnonzero(dense[labels])[0]) == 3  # the coset {3, 4, 5}
    assert q == 0.0


def test_select_translate_checks_the_averaging_bound():
    labels = np.arange(9) % 3  # three cosets of three translates each
    dense = np.array([True, True, False])
    scores = np.array([5.0, 4.0, 0.0])  # the undense coset's 0 is not eligible
    with pytest.raises(ContextInvariantError, match="above 4"):
        select_translate(scores, labels, dense, sigma_k=0.5, roundoff=0.0)
    assert select_translate(scores, labels, dense, sigma_k=1.0, roundoff=0.0) == (1, 4.0)
    # within roundoff of the minimum the smallest translate wins, with its own score
    assert select_translate(scores, labels, dense, sigma_k=2.0, roundoff=1.0) == (0, 5.0)


def test_select_translate_ignores_roundoff_noise():
    # sigma_4 of a one-frequency cosine is round-off, so every coset's Q is too
    params = FieldParams(5, 3)
    x = params.digit_table()[:, 0]
    f = DenseFunction.make(params, 0.99 + 0.01 * np.cos(2 * np.pi * x / 5), unit_range=True)
    A = f.spectrum.top_places(4)
    good = find_good_subspace(A, f, np.random.default_rng(4), nprime=2)  # five cosets
    first_dense = int(np.flatnonzero(good.dense[good.coset_labels])[0])
    roundoff = (np.finfo(float).eps * params.F * np.abs(f.values).sum()) ** 2
    energy = tail_energy(f.spectrum, A)
    noise = np.random.default_rng(5)
    exact_picks = set()
    for _ in range(10):
        jittered = energy * (1 + 1e-3 * noise.random(params.F))
        scores = coset_scores(jittered, A, good.W, good.coset_labels)
        args = (scores, good.coset_labels, good.dense, f.spectrum.sigma(4))
        t, q = select_translate(*args, roundoff)
        assert t == first_dense and q == scores[good.coset_labels[t]]
        exact_picks.add(select_translate(*args, 0.0)[0])
    assert exact_picks != {first_dense}  # the exact minimum follows the noise


def test_build_context_full_space(p33, rng):
    f = random_function(p33, rng)
    W = Subspace.from_rows(p33, np.eye(3, dtype=int))
    ctx = build_context(f, dft(f).top_places(1), W, 0)
    assert np.allclose(ctx.alpha.values, 1.0)
    assert np.allclose(ctx.h.values, f.values, atol=1e-12)
    assert np.allclose(ctx.hhat, dft(f).coeffs, atol=1e-8)


def test_build_context_zero_space(p33, rng):
    f = random_function(p33, rng)
    W = Subspace.from_rows(p33, np.zeros((0, 3), dtype=int))
    t = 7
    ctx = build_context(f, np.array([0]), W, t)
    # V is everything, so h averages the single window value everywhere
    assert np.allclose(ctx.h.values, f.values[t], atol=1e-12)


def test_build_context_window_indicator(p33, rng):
    W = Subspace.from_rows(p33, [[1, 0, 0]])
    t = 5
    coset = W.coset(t)
    vals = np.zeros(p33.F)
    vals[coset] = 1.0
    f = DenseFunction.make(p33, vals)
    ctx = build_context(f, dft(f).top_places(1), W, t)
    # h(m) = |{b in V : m - b in t+W}|, which a direct sum makes 1 everywhere
    members = set(int(c) for c in coset)
    V = W.complement()
    D = p33.digit_table()
    counts = np.array(
        [
            sum(1 for b in V.members() if p33.index_of(D[m] - D[b]) in members)
            for m in range(p33.F)
        ],
        dtype=float,
    )
    assert np.allclose(ctx.h.values, counts, atol=1e-12)
    assert np.allclose(ctx.h.values[coset], f.values[coset], atol=1e-12)


def test_build_context_invariants_random(p33, rng):
    f = random_function(p33, rng)
    spectrum, A, good = separated_frame(f, 2, rng)
    t = int(np.flatnonzero(good.dense[good.coset_labels])[0])
    ctx = build_context(f, A, good.W, t)
    coset = good.W.coset(t)
    assert np.allclose(ctx.h.values[coset], f.values[coset], atol=1e-9)
    assert ctx.h.values.min() >= -1e-9 and ctx.h.values.max() <= 1 + 1e-9
    h_cube = PaddedCube(p33, ctx.h.values)
    for row in good.W.complement().basis:
        v = p33.index_of(np.asarray(row))
        shifted = h_cube.shifted(p33.digits_of(int(v))).reshape(-1)
        assert np.allclose(shifted, ctx.h.values, atol=1e-9)
    assert ctx.w1_positions.size == len(A)
    assert ctx.w1_positions.size + ctx.w2_positions.size == good.W.size


def test_build_context_rejects_isotropic(p33, rng):
    f = random_function(p33, rng)
    W = Subspace.from_rows(p33, [[1, 1, 1]])  # 1+1+1 = 0, so W meets W-perp
    with pytest.raises(ValueError):
        build_context(f, np.array([0]), W, 0)


def test_depletion_constant_function(p33):
    one = DenseFunction.constant(p33, 1.0)
    run = run_depletion(one, one, k=2, delta=0.0, rng=np.random.default_rng(7))
    F = p33.F
    assert run.r == 14  # ceil(27 / 2)
    assert len(run.steps) == 14
    assert run.sigma_k == pytest.approx(0.0, abs=1e-9)
    measured = lambda3_brute(one, one, one)
    assert measured == pytest.approx(1.0)
    assert run.certificates_ok
    assert not run.partial
    # every coset has 9-element complement side; replicate the bookkeeping
    expected_lower = 0.0
    sum_g = float(F)
    for i in range(14):
        e_gi = sum_g / F
        floor = e_gi**2 * 9.0 / 4.0
        expected_lower += (1.0 / 4.0) * floor
        sum_g -= 1.0
    assert run.lambda_lower == pytest.approx(expected_lower / F**2, rel=1e-12)
    assert measured >= run.lambda_lower
    for step in run.steps:
        assert step.hypotheses_held
        assert not step.vacuous
        assert step.g_value == pytest.approx(1.0)
        assert step.pair_count == pytest.approx(F)
        assert step.e_gi >= run.e_g / 2.0 - 1e-12


def test_depletion_crossing_is_read_from_the_steps(p33, recwarn):
    # E(g) = 1/2 sits below the floor 8 / (sqrt(3) * 2) from the first step on;
    # the run records the crossing in its steps and warns about nothing
    one = DenseFunction.constant(p33, 1.0)
    half = DenseFunction.constant(p33, 0.5)
    run = run_depletion(one, half, k=2, delta=0.0, rng=np.random.default_rng(7))
    floor = density_floor(p33, 2)
    assert [s.step for s in run.steps if s.e_gi < floor][0] == 1
    assert not run.density_ok
    assert len(run.steps) == run.r == 7
    assert not recwarn.list


def test_depletion_bookkeeping_exact(p33, rng):
    f = random_function(p33, rng)
    vals = f.values * 0.9
    g = DenseFunction.make(p33, vals)
    delta = np.sqrt(dft(f).sigma(2)) / p33.F + 1e-12
    run = run_depletion(f, g, k=2, delta=float(delta), rng=rng)
    e = run.e_g
    for step in run.steps:
        assert step.e_gi == pytest.approx(e, rel=1e-10)
        assert step.e_gi >= run.e_g / 2.0 - 1e-12
        e -= step.g_value / p33.F
    if not run.partial:
        assert len(run.steps) == run.r
        assert lambda3_brute(f, g, f) >= run.lambda_lower - 1e-9


def test_depletion_gff_ordering(p33):
    one = DenseFunction.constant(p33, 1.0)
    run = run_depletion(one, one, k=2, delta=0.0, ordering="gff", rng=np.random.default_rng(7))
    assert run.ordering == "gff"
    assert run.certificates_ok
    assert lambda3_brute(one, one, one) >= run.lambda_lower


def test_depletion_lazy_refresh_matches(p33):
    one = DenseFunction.constant(p33, 1.0)
    always = run_depletion(one, one, k=2, delta=0.0, rng=np.random.default_rng(7))
    lazy = run_depletion(one, one, k=2, delta=0.0, refresh="lazy", rng=np.random.default_rng(7))
    assert any(s.reused for s in lazy.steps)
    assert not any(s.reused for s in always.steps)
    assert all(type(s.reused) is bool for s in lazy.steps)
    assert lazy.lambda_lower == pytest.approx(always.lambda_lower, rel=1e-12)
    assert lazy.certificates_ok


@pytest.mark.parametrize("refresh", ["always", "lazy"])
def test_depletion_runs_without_the_oracles(p33, rng, refresh, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an oracle ran on the fast path")

    monkeypatch.setattr(SubspaceFrame, "build", forbidden)
    monkeypatch.setattr(ap3.midpoint, "translate_scores", forbidden)
    f = random_function(p33, rng)
    g = DenseFunction.make(p33, f.values * 0.9)
    delta = float(np.sqrt(dft(f).sigma(2)) / p33.F + 1e-12)
    run = run_depletion(f, g, k=2, delta=delta, refresh=refresh, rng=rng)
    assert run.steps and run.certificates_ok


@pytest.mark.parametrize("refresh", ["always", "lazy"])
def test_depletion_builds_one_tail_energy_per_run(p33, rng, refresh, monkeypatch):
    calls = []

    def counted(spectrum, A):
        calls.append(A)
        return tail_energy(spectrum, A)

    monkeypatch.setattr(ap3.midpoint, "tail_energy", counted)
    f = random_function(p33, rng)
    g = DenseFunction.make(p33, f.values * 0.9)
    delta = float(np.sqrt(dft(f).sigma(2)) / p33.F + 1e-12)
    run = run_depletion(f, g, k=2, delta=delta, refresh=refresh, rng=rng)
    assert len(run.steps) > 1 and len(calls) == 1


def test_depletion_refusals(p33, rng):
    one = DenseFunction.constant(p33, 1.0)
    zero = DenseFunction.constant(p33, 0.0)
    with pytest.raises(HypothesisRefusal, match="nothing to deplete"):
        run_depletion(one, zero, k=2, delta=0.0, rng=rng)
    bigger = DenseFunction.constant(p33, 0.5)
    vals = np.full(p33.F, 0.5)
    vals[3] = 0.9
    with pytest.raises(HypothesisRefusal, match="index 3"):
        run_depletion(bigger, DenseFunction.make(p33, vals), k=2, delta=0.0, rng=rng)
    f = random_function(p33, rng)
    g = DenseFunction.make(p33, f.values * 0.5)
    with pytest.raises(HypothesisRefusal, match="tail hypothesis"):
        run_depletion(f, g, k=2, delta=0.0, rng=rng)
    over = DenseFunction.constant(p33, 5.0)
    with pytest.raises(HypothesisRefusal, match=r"outside \[0, 1\]"):
        run_depletion(over, one, k=2, delta=1.0, rng=rng)


def test_depletion_argument_validation(p33, rng):
    one = DenseFunction.constant(p33, 1.0)
    with pytest.raises(ValueError, match="ordering"):
        run_depletion(one, one, k=2, delta=0.0, ordering="ffg", rng=rng)
    with pytest.raises(ValueError, match="refresh"):
        run_depletion(one, one, k=2, delta=0.0, refresh="sometimes", rng=rng)
    with pytest.raises(ValueError, match="delta"):
        run_depletion(one, one, k=2, delta=-0.1, rng=rng)


def test_depletion_partial_on_finder_failure(p33):
    one = DenseFunction.constant(p33, 1.0)
    g = indicator(p33, [0])
    run = run_depletion(one, g, k=2, delta=0.0, max_attempts=32, rng=np.random.default_rng(3))
    assert run.partial
    assert len(run.steps) == 0
    assert run.lambda_lower == 0.0
    assert sum(run.finder_rejections.values()) == 32
    assert lambda3_brute(one, g, one) >= run.lambda_lower


# Values from {0, 1/2, 1} make ties in |fhat|, in g on a coset and in Q common.
TIE_VALUES = st.sampled_from([0.0, 0.5, 1.0])


@st.composite
def tied_pair(draw):
    params = FieldParams(*draw(st.sampled_from([(3, 2), (3, 3), (5, 2)])))
    f = np.array(draw(st.lists(TIE_VALUES, min_size=params.F, max_size=params.F)))
    cap = np.array(draw(st.lists(TIE_VALUES, min_size=params.F, max_size=params.F)))
    g = np.minimum(f, cap)
    assume(g.any())
    return DenseFunction.make(params, f), DenseFunction.make(params, g)


@settings(max_examples=40, deadline=None)
@given(tied_pair(), st.integers(0, 2**32 - 1))
def test_tie_breaks_are_explicit_and_deterministic(pair, seed):
    f, g = pair
    spectrum = dft(f)
    mag = spectrum.magnitudes
    assert spectrum.order.tolist() == sorted(range(f.params.F), key=lambda a: (-mag[a], a))

    frames = []
    original = ap3.midpoint.find_good_subspace

    def recording(*args):
        good = original(*args)
        frames.append(good.W)
        return good

    ap3.midpoint.find_good_subspace = recording
    try:
        run = run_depletion(f, g, k=2, delta=1.0, rng=np.random.default_rng(seed))
    finally:
        ap3.midpoint.find_good_subspace = original
    assert len(frames) == len(run.steps)  # refresh "always": one W per step
    gi = g.values.copy()
    for step, W in zip(run.steps, frames):
        coset = W.coset(step.t)
        top = gi[coset].max()
        assert step.m == int(coset[gi[coset] == top].min())
        assert step.g_value == top
        gi[step.m] = 0.0

    again = run_depletion(f, g, k=2, delta=1.0, rng=np.random.default_rng(seed))
    assert again.steps == run.steps

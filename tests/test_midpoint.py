import copy
import dataclasses
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ap3.experiment
import ap3.finder
import ap3.midpoint
from ap3.bounds import HypothesisRefusal, delta_from_sigma, density_floor
from ap3.experiment import ExperimentConfig, load_config_file, run_experiment
from ap3.field import FieldParams, Subspace, sample_uniform_subspace
from ap3.finder import (
    DEFAULT_MAX_ATTEMPTS,
    CandidateStream,
    FinderBudgetError,
    GoodSubspace,
    choose_dimension,
    coset_sum,
    find_good_subspace,
    is_dense,
)
from ap3.functions import indicator
from ap3.lambda3 import lambda3_brute, pair_table
from ap3.midpoint import (
    ContextInvariantError,
    SubspaceFrame,
    Window,
    build_context,
    coset_scores,
    retarget_translate,
    run_depletion,
    select_translate,
    step_floor,
    step_held,
    step_weight,
    tail_energy,
    translate_scores,
)
from ap3.spectral import DenseFunction, PaddedCube, _root_powers, dft

from conftest import coset_sums, random_function, reference_find


def separated_frame(f, k, rng):
    """A frame whose W separates the top-k places of f."""
    spectrum = dft(f)
    A = spectrum.top_places(k)
    good = find_good_subspace(CandidateStream(f.params, A, rng), np.ones(f.params.F))
    return spectrum, A, good


def scores_of(spectrum, A, good):
    return coset_scores(tail_energy(spectrum, A), good)


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
    accepted = 0
    for nprime in range(params.n + 1):
        try:
            good = find_good_subspace(CandidateStream(params, A, rng, nprime), np.ones(params.F))
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


def test_coset_scores_makes_no_separation_test(p33, rng, monkeypatch):
    # the finder tested separation when it accepted W; scoring does not repeat it
    spectrum, A, good = separated_frame(random_function(p33, rng), 2, rng)
    energy = tail_energy(spectrum, A)
    calls = []
    separating = ap3.finder.separating

    def counted(*args):
        calls.append(args)
        return separating(*args)

    monkeypatch.setattr(ap3.finder, "separating", counted)
    scores = coset_scores(energy, good)
    assert calls == []
    assert scores.shape == good.dense.shape


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
    scores = coset_scores(tail_energy(spectrum, A), GoodSubspace(W, dense, labels, 1, {}))
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
    stream = CandidateStream(params, A, np.random.default_rng(4), nprime=2)
    good = find_good_subspace(stream, f.values)  # five cosets
    first_dense = int(np.flatnonzero(good.dense[good.coset_labels])[0])
    roundoff = (np.finfo(float).eps * params.F * np.abs(f.values).sum()) ** 2
    energy = tail_energy(f.spectrum, A)
    noise = np.random.default_rng(5)
    exact_picks = set()
    for _ in range(10):
        jittered = energy * (1 + 1e-3 * noise.random(params.F))
        scores = coset_scores(jittered, good)
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
            sum(1 for b in V.members() if p33.indices_of(D[m] - D[b]) in members)
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
        v = p33.indices_of(np.asarray(row))
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
    (run,) = run_depletion(one, one, k=2, delta=0.0, rng=np.random.default_rng(7))
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
        assert step["hypotheses_held"]
        assert not step["vacuous"]
        assert step["g_value"] == pytest.approx(1.0)
        assert step["pair_count"] == pytest.approx(F)
        assert step["e_gi"] >= run.e_g / 2.0 - 1e-12


def test_depletion_crossing_is_read_from_the_steps(p33, recwarn):
    # E(g) = 1/2 sits below the floor 8 / (sqrt(3) * 2) from the first step on;
    # the run records the crossing in its steps and warns about nothing
    one = DenseFunction.constant(p33, 1.0)
    half = DenseFunction.constant(p33, 0.5)
    (run,) = run_depletion(one, half, k=2, delta=0.0, rng=np.random.default_rng(7))
    floor = density_floor(p33, 2)
    assert [s["step"] for s in run.steps if s["e_gi"] < floor][0] == 1
    assert not run.density_ok
    assert len(run.steps) == run.r == 7
    assert not recwarn.list


def test_depletion_bookkeeping_exact(p33, rng):
    f = random_function(p33, rng)
    vals = f.values * 0.9
    g = DenseFunction.make(p33, vals)
    delta = np.sqrt(dft(f).sigma(2)) / p33.F + 1e-12
    (run,) = run_depletion(f, g, k=2, delta=float(delta), rng=rng)
    e = run.e_g
    for step in run.steps:
        assert step["e_gi"] == pytest.approx(e, rel=1e-10)
        assert step["e_gi"] >= run.e_g / 2.0 - 1e-12
        e -= step["g_value"] / p33.F
    if not run.partial:
        assert len(run.steps) == run.r
        assert lambda3_brute(f, g, f) >= run.lambda_lower - 1e-9


def test_depletion_gff_ordering(p33):
    one = DenseFunction.constant(p33, 1.0)
    rng = np.random.default_rng(7)
    (run,) = run_depletion(one, one, k=2, delta=0.0, orderings=("gff",), rng=rng)
    assert run.ordering == "gff"
    assert run.certificates_ok
    assert lambda3_brute(one, one, one) >= run.lambda_lower


def test_depletion_lazy_refresh_matches(p33):
    one = DenseFunction.constant(p33, 1.0)
    (always,) = run_depletion(one, one, k=2, delta=0.0, rng=np.random.default_rng(7))
    (lazy,) = run_depletion(one, one, k=2, delta=0.0, refresh="lazy", rng=np.random.default_rng(7))
    assert any(s["reused"] for s in lazy.steps)
    assert not any(s["reused"] for s in always.steps)
    assert lazy.lambda_lower == pytest.approx(always.lambda_lower, rel=1e-12)
    assert lazy.certificates_ok


STEP_TYPES = {
    "step": int,
    "ordering": str,
    "m": int,
    "t": int,
    "g_value": float,
    "e_gi": float,
    "q_value": float,
    "pair_count": float,
    "floor": float,
    "vacuous": bool,
    "hypotheses_held": bool,
    "reused": bool,
    "finder_attempts": int,
}


@pytest.mark.parametrize("refresh", ["always", "lazy"])
@pytest.mark.parametrize("ordering", ["fgf", "gff"])
def test_step_values_are_native(p33, rng, refresh, ordering):
    """Each step is the row the report writes, so every value is exactly a
    Python int, float, bool or str: a numpy scalar there would make
    report_json raise."""
    f = random_function(p33, rng)
    g = DenseFunction.make(p33, f.values * 0.9)
    delta = float(np.sqrt(dft(f).sigma(2)) / p33.F + 1e-12)
    (run,) = run_depletion(
        f, g, k=2, delta=delta, orderings=(ordering,), refresh=refresh, rng=rng
    )
    assert run.steps
    for step in run.steps:
        assert {key: type(value) for key, value in step.items()} == STEP_TYPES


@pytest.mark.parametrize("refresh", ["always", "lazy"])
def test_depletion_runs_without_the_oracles(p33, rng, refresh, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an oracle ran on the fast path")

    monkeypatch.setattr(SubspaceFrame, "build", forbidden)
    monkeypatch.setattr(ap3.midpoint, "translate_scores", forbidden)
    f = random_function(p33, rng)
    g = DenseFunction.make(p33, f.values * 0.9)
    delta = float(np.sqrt(dft(f).sigma(2)) / p33.F + 1e-12)
    (run,) = run_depletion(f, g, k=2, delta=delta, refresh=refresh, rng=rng)
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
    (run,) = run_depletion(f, g, k=2, delta=delta, refresh=refresh, rng=rng)
    assert len(run.steps) > 1 and len(calls) == 1


def test_depletion_holds_no_step_above_four_sigma(monkeypatch):
    """A translate whose Q exceeds 4 sigma_k voids its step's hypotheses.
    select_translate raises before returning such a t whenever the dense
    pool covers F/4, so here it is patched to report Q = 8 sigma_k; a held
    check that reads Q <= 16 sigma_k would hold every step."""

    def above(scores, labels, dense, sigma_k, roundoff):
        t, _ = select_translate(scores, labels, dense, sigma_k, roundoff)
        return t, 8.0 * sigma_k

    monkeypatch.setattr(ap3.midpoint, "select_translate", above)
    params = FieldParams(3, 4)
    rng = np.random.default_rng(0)
    f = DenseFunction.make(params, rng.uniform(0.6, 1.0, params.F))
    delta = delta_from_sigma(f.spectrum.sigma(2), params.F)
    (run,) = run_depletion(f, f, k=2, delta=delta, rng=rng)
    assert run.steps and not any(step["hypotheses_held"] for step in run.steps)
    assert run.certificates_ok


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
        run_depletion(one, one, k=2, delta=0.0, orderings=("ffg",), rng=rng)
    with pytest.raises(ValueError, match="refresh"):
        run_depletion(one, one, k=2, delta=0.0, refresh="sometimes", rng=rng)
    with pytest.raises(ValueError, match="delta"):
        run_depletion(one, one, k=2, delta=-0.1, rng=rng)


def test_depletion_partial_on_finder_failure(p33):
    one = DenseFunction.constant(p33, 1.0)
    g = indicator(p33, [0])
    (run,) = run_depletion(one, g, k=2, delta=0.0, max_attempts=32, rng=np.random.default_rng(3))
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
        (run,) = run_depletion(f, g, k=2, delta=1.0, rng=np.random.default_rng(seed))
    finally:
        ap3.midpoint.find_good_subspace = original
    assert len(frames) == len(run.steps)  # refresh "always": one W per step
    gi = g.values.copy()
    for step, W in zip(run.steps, frames):
        coset = W.coset(step["t"])
        top = gi[coset].max()
        assert step["m"] == int(coset[gi[coset] == top].min())
        assert step["g_value"] == top
        gi[step["m"]] = 0.0

    (again,) = run_depletion(f, g, k=2, delta=1.0, rng=np.random.default_rng(seed))
    assert again.steps == run.steps


def reference_depletion(
    f, g, k, delta, ordering="fgf", nprime=None, max_attempts=DEFAULT_MAX_ATTEMPTS, rng=None,
    refresh="always",
):
    """The per-step depletion loop, an oracle for run_depletion's windows.

    One step per pass: m is the first largest g_i on the coset (argmax), a
    lazy step reuses (W, t) while the coset's sum, added afresh from the live
    g_i, is dense, and once it is not, the step retargets through
    select_translate over coset sums added afresh by one bincount, falling
    back to the finder when the dense cosets cover less than F/4.  Its finder
    is reference_find, one draw per attempt from rng.  Returns (steps,
    lambda_lower, partial, finder_calls, retargets).
    """
    params = f.params
    F = params.F
    dim = choose_dimension(k, params) if nprime is None else nprime
    spectrum = f.spectrum
    sigma_k = spectrum.sigma(k)
    A = spectrum.top_places(k)
    table = pair_table(spectrum, ordering)
    energy = tail_energy(spectrum, A)
    roundoff = (np.finfo(float).eps * F * float(np.abs(f.values).sum())) ** 2
    e_g = g.mean()
    gi = g.values.copy()
    sum_g = float(gi.sum())
    lower_sum = 0.0
    steps = []
    partial = False
    calls = retargets = 0
    good = coset = None
    for i in range(1, math.ceil(e_g * F / 2.0) + 1):
        e_gi = sum_g / F
        reused = (
            refresh == "lazy"
            and coset is not None
            and is_dense(coset_sum(gi, coset), e_gi, good.W.size)
        )
        if not reused:
            dense = None
            if refresh == "lazy" and good is not None:
                sums = np.bincount(good.coset_labels, weights=gi, minlength=good.dense.size)
                dense = is_dense(sums, e_gi, good.W.size)
                if dense.sum() * good.W.size < F / 4.0:
                    dense = None
            if dense is None:
                calls += 1
                try:
                    good = reference_find(
                        A, DenseFunction.make(params, gi), rng, dim, max_attempts
                    )
                except FinderBudgetError:
                    partial = True
                    break
                dense = good.dense
                scores = coset_scores(energy, good)
            else:
                retargets += 1
            t, q = select_translate(scores, good.coset_labels, dense, sigma_k, roundoff)
            coset = good.W.coset(t)
        local = gi[coset]
        pos = int(np.argmax(local))
        m, g_value = int(coset[pos]), float(local[pos])
        floor = step_floor(e_gi, F // good.W.size, delta, F)
        steps.append(
            {
                "step": i,
                "ordering": ordering,
                "m": m,
                "t": t,
                "g_value": g_value,
                "e_gi": e_gi,
                "q_value": q,
                "pair_count": float(table[m]),
                "floor": floor,
                "vacuous": floor <= 0.0,
                "hypotheses_held": step_held(g_value, e_gi, q, sigma_k, delta),
                "reused": bool(reused),
                "finder_attempts": good.attempts,
            }
        )
        lower_sum += step_weight(e_g) * floor
        sum_g -= g_value
        gi[m] = 0.0
    return tuple(steps), lower_sum / F**2, partial, calls, retargets


def assert_matches_reference(run, reference):
    steps, lambda_lower, partial, calls, retargets = reference
    assert run.steps == steps
    assert (run.lambda_lower, run.partial) == (lambda_lower, partial)
    assert (run.finder_calls, run.retargets) == (calls, retargets)


@settings(max_examples=40, deadline=None)
@given(tied_pair(), st.integers(0, 2**32 - 1), st.sampled_from(["always", "lazy"]))
def test_depletion_equals_the_per_step_reference(pair, seed, refresh):
    f, g = pair
    (run,) = run_depletion(f, g, k=2, delta=1.0, rng=np.random.default_rng(seed), refresh=refresh)
    reference = reference_depletion(
        f, g, k=2, delta=1.0, rng=np.random.default_rng(seed), refresh=refresh
    )
    assert_matches_reference(run, reference)


# In-test lazy configs at the sizes the finder used to dominate.  They are not
# bundled: their golden reports would run to about 1 MB each.
SEVENFOLD_P3_N8 = {
    "label": "sevenfold smoothing of a near-full random set, p=3 n=8, lazy refresh",
    "p": 3,
    "n": 8,
    "seed": 1,
    "f": {"kind": "conv_power", "size": math.ceil(0.95 * 3**8), "power": 7},
    "g": {"kind": "same"},
    "k": 5,
    "ordering": "fgf",
    "refresh": "lazy",
    "trials": 0,
}
COSINE_P5_N5 = {
    "label": "dense cosine majorant with a uniform minorant, p=5 n=5, lazy refresh",
    "p": 5,
    "n": 5,
    "seed": 11,
    "f": {"kind": "cosine", "base": 0.99, "amplitude": 0.01, "frequency": [1, 0, 0, 0, 0]},
    "g": {"kind": "uniform", "low": 0.9, "high": 0.98},
    "k": 4,
    "ordering": "both",
    "refresh": "lazy",
    "trials": 0,
}
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def bundled(name):
    (config,) = load_config_file(str(CONFIGS / f"{name}.json"))
    return config


EXPERIMENTS = {
    "sevenfold_p3_n8": lambda: ExperimentConfig.from_dict(SEVENFOLD_P3_N8),
    "cosine_p5_n5": lambda: ExperimentConfig.from_dict(COSINE_P5_N5),
    "dense_theorem_p5_n4": lambda: bundled("dense_theorem_p5_n4"),
    "dense_theorem_p5_n4_lazy": lambda: bundled("dense_theorem_p5_n4_lazy"),
}


@functools.cache
def traced_experiment(name):
    """(report, exit code, depletions, finder calls) for one of EXPERIMENTS.

    depletions holds a list per run_depletion call, of (run, reference) with
    each ordering's run beside reference_depletion of that ordering on a copy
    of the same rng; finder calls counts run_depletion's find_good_subspace
    calls, the references' not included."""
    depletions, finds = [], []

    def traced(f, g, k, delta, orderings, rng, **kwargs):
        references = [
            reference_depletion(f, g, k, delta, ordering, rng=copy.deepcopy(rng), **kwargs)
            for ordering in orderings
        ]
        runs = run_depletion(f, g, k, delta, orderings, rng=rng, **kwargs)
        depletions.append(list(zip(runs, references)))
        return runs

    def counted(*args):
        finds.append(args)
        return find_good_subspace(*args)

    originals = ap3.experiment.run_depletion, ap3.midpoint.find_good_subspace
    ap3.experiment.run_depletion, ap3.midpoint.find_good_subspace = traced, counted
    try:
        report, code = run_experiment(EXPERIMENTS[name]())
    finally:
        ap3.experiment.run_depletion, ap3.midpoint.find_good_subspace = originals
    return report, code, depletions, len(finds)


@pytest.mark.parametrize("name", ["dense_theorem_p5_n4_lazy", "sevenfold_p3_n8"])
def test_lazy_config_equals_the_per_step_reference(name):
    _, _, depletions, _ = traced_experiment(name)
    (pairs,) = depletions
    for run, reference in pairs:
        assert run.retargets > 0
        assert_matches_reference(run, reference)


@pytest.mark.parametrize("name", ["sevenfold_p3_n8", "cosine_p5_n5"])
def test_lazy_run_calls_the_finder_once_per_experiment(name):
    report, code, _, finder_calls = traced_experiment(name)
    assert code == 0 and report["passed"]
    assert finder_calls == 1
    assert [run["ordering"] for run in report["runs"]] == list(EXPERIMENTS[name]().orderings)
    for run in report["runs"]:
        assert run["finder_calls"] == 1 and run["retargets"] > 0
        assert len(run["steps"]) == run["r"] and not run["partial"]
        assert all(step["hypotheses_held"] for step in run["steps"])


ONE_DEPLETION = ("lambda_lower", "finder_calls", "retargets", "finder_rejections", "partial")


def depletion_of(run):
    """What one depletion fixes in a report run for every ordering: its steps
    without ordering and pair_count, and the ONE_DEPLETION fields."""
    steps = [
        {key: value for key, value in step.items() if key not in ("ordering", "pair_count")}
        for step in run["steps"]
    ]
    return steps, [run[key] for key in ONE_DEPLETION]


@pytest.mark.parametrize(
    "name", ["dense_theorem_p5_n4", "dense_theorem_p5_n4_lazy", "cosine_p5_n5"]
)
def test_a_both_experiment_is_one_depletion(name):
    report, code, depletions, finder_calls = traced_experiment(name)
    assert code == 0
    (pairs,) = depletions
    for run, reference in pairs:
        assert_matches_reference(run, reference)
    fgf, gff = report["runs"]
    assert (fgf["ordering"], gff["ordering"]) == ("fgf", "gff")
    assert depletion_of(fgf) == depletion_of(gff)
    assert finder_calls == fgf["finder_calls"]
    # at p=5, a -> -2a is not the identity, so the orderings count different pairs
    assert fgf["pair_weight"] != gff["pair_weight"]


def test_at_p3_the_orderings_coincide():
    """-2a = a mod 3, so both pair tables and both Lambda3 values are equal,
    and a both run at p=3 is the fgf run twice."""
    config = dataclasses.replace(bundled("sevenfold_p3_n5"), ordering="both")
    report, code = run_experiment(config)
    assert code == 0
    fgf, gff = (
        {**run, "ordering": None, "steps": [{**s, "ordering": None} for s in run["steps"]]}
        for run in report["runs"]
    )
    assert fgf == gff


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(3, 3, 1), (3, 4, 1), (3, 4, 2), (5, 2, 1), (5, 3, 1)]),
    st.integers(0, 2**32 - 1),
)
def test_retarget_translate_is_select_translate(pnd, seed):
    """The O(|V|) retarget picks the (t, q) select_translate picks, raises where
    it raises, and asks for the finder exactly when the pool is below F/4."""
    p, n, dim = pnd
    params = FieldParams(p, n)
    rng = np.random.default_rng(seed)
    W = sample_uniform_subspace(params, dim, rng)
    labels = W.complement().labels()
    cosets = params.F // W.size
    _, smallest = np.unique(labels, return_index=True)  # first x of each coset
    scores = rng.integers(0, 3, cosets).astype(float)  # small integers, so Q ties
    dense = rng.random(cosets) < rng.random()
    sigma_k, roundoff = rng.choice([0.2, 10.0]), rng.choice([0.0, 1.0])

    def outcome(fn, *args):
        try:
            return fn(*args)
        except ContextInvariantError as err:
            return str(err)

    got = outcome(retarget_translate, scores, dense, smallest, W.size, sigma_k, roundoff)
    if dense.sum() * W.size < params.F / 4.0:
        assert got is None
    else:
        assert got == outcome(select_translate, scores, labels, dense, sigma_k, roundoff)


def test_retarget_translate_calls_for_the_finder_below_a_quarter():
    labels = np.arange(16) % 8  # eight cosets of two translates each
    scores = np.zeros(8)
    smallest = np.arange(8)
    assert retarget_translate(scores, np.zeros(8, dtype=bool), smallest, 2, 1.0, 0.0) is None
    one = np.zeros(8, dtype=bool)
    one[5] = True  # 2 of 16 translates
    assert retarget_translate(scores, one, smallest, 2, 1.0, 0.0) is None
    one[6] = True  # 4 of 16: the pool reaches F/4
    assert retarget_translate(scores, one, smallest, 2, 1.0, 0.0) == (5, 0.0)
    assert select_translate(scores, labels, one, 1.0, 0.0) == (5, 0.0)


def test_step_formulas_give_one_bit_pattern_for_scalars_and_arrays():
    e = np.random.default_rng(2).uniform(0.3, 1.0, 200)
    floors = step_floor(e, 27, 1e-3, 729)
    assert floors.tolist() == [step_floor(x, 27, 1e-3, 729) for x in e.tolist()]
    held = step_held(e / 2.0 + 1e-3, e, 1.0, 0.5, 1e-3)
    assert held.all() and held.dtype == bool
    assert step_held(0.1, 0.3, 1.0, 0.5, 1e-3) is False
    assert step_weight(0.8) == 0.2


def test_always_builds_no_retarget_tables(p33, rng, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("refresh always reached the lazy window path")

    monkeypatch.setattr(Window, "retarget", forbidden)
    monkeypatch.setattr(Window, "take", forbidden)
    f = random_function(p33, rng)
    g = DenseFunction.make(p33, f.values * 0.9)
    delta = float(np.sqrt(dft(f).sigma(2)) / p33.F + 1e-12)
    (run,) = run_depletion(f, g, k=2, delta=delta, rng=rng)
    assert run.finder_calls == len(run.steps) == run.r and run.retargets == 0

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ap3.midpoint
from ap3.bounds import HypothesisRefusal
from ap3.field import FieldParams, Subspace
from ap3.finder import FinderConfig, find_good_subspace
from ap3.functions import indicator
from ap3.lambda3 import lambda3_brute
from ap3.midpoint import (
    CertificateError,
    ContextInvariantError,
    SubspaceFrame,
    build_context,
    run_depletion,
    select_translate,
    translate_scores,
)
from ap3.spectral import DenseFunction, dft

from conftest import random_function


def separated_frame(f, k, rng):
    """A frame whose W separates the top-k places of f."""
    spectrum = dft(f)
    A = spectrum.top_places(k)
    ones = DenseFunction.constant(f.params, 1.0)
    good = find_good_subspace(A, ones, FinderConfig(k=k), rng)
    return spectrum, A, good


def test_sum_of_scores_is_F_sigma(p33, rng):
    f = random_function(p33, rng)
    spectrum, A, good = separated_frame(f, 3, rng)
    frame = SubspaceFrame.build(spectrum, good.W, good.V)
    total = translate_scores(frame, A, np.arange(p33.F)).sum()
    sigma = spectrum.sigma(3)
    assert total == pytest.approx(p33.F * sigma, rel=1e-6)


def test_select_translate_is_argmin_and_bounded(p33, rng):
    f = random_function(p33, rng)
    spectrum, A, good = separated_frame(f, 2, rng)
    frame = SubspaceFrame.build(spectrum, good.W, good.V)
    sigma = spectrum.sigma(2)
    t, q = select_translate(frame, A, good.translates, sigma)
    scores = translate_scores(frame, A, good.translates)
    assert abs(q - scores.min()) <= 1e-12 * max(1.0, p33.F * sigma)
    in_T = np.intersect1d(good.W.coset(t), good.translates)
    assert t == int(in_T.min())
    assert q <= 4.0 * sigma + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(3, 3), (5, 2), (7, 2)]), st.integers(0, 2**32 - 1))
def test_scores_constant_on_w_cosets(pn, seed):
    params = FieldParams(*pn)
    rng = np.random.default_rng(seed)
    spectrum, A, good = separated_frame(random_function(params, rng), 2, rng)
    frame = SubspaceFrame.build(spectrum, good.W, good.V)
    scores = translate_scores(frame, A, np.arange(params.F))
    reps = good.W.coset_representatives()
    spread = max(np.ptp(scores[reps == r]) for r in np.unique(reps))
    assert spread <= 1e-9 * (1.0 + scores.max())


def test_select_translate_scores_one_per_coset(p33, rng, monkeypatch):
    f = random_function(p33, rng)
    spectrum, A, good = separated_frame(f, 2, rng)
    frame = SubspaceFrame.build(spectrum, good.W, good.V)
    scored = []

    def counted(frame, A, ts):
        scored.append(len(ts))
        return translate_scores(frame, A, ts)

    monkeypatch.setattr(ap3.midpoint, "translate_scores", counted)
    select_translate(frame, A, good.translates, spectrum.sigma(2))
    assert scored and sum(scored) <= good.V.size < good.translates.size


def test_select_translate_zero_tail(p33, rng):
    f = DenseFunction.constant(p33, 0.7)
    spectrum, A, good = separated_frame(f, 2, rng)
    frame = SubspaceFrame.build(spectrum, good.W, good.V)
    t, q = select_translate(frame, A, good.translates, spectrum.sigma(2))
    assert q == pytest.approx(0.0, abs=1e-18)


def test_build_context_full_space(p33, rng):
    f = random_function(p33, rng)
    W = Subspace.from_rows(p33, np.eye(3, dtype=int))
    ctx = build_context(f, dft(f).top_places(1), W, W.complement(), 0)
    assert np.allclose(ctx.alpha.values, 1.0)
    assert np.allclose(ctx.h.values, f.values, atol=1e-12)
    assert np.allclose(ctx.hhat, dft(f).coeffs, atol=1e-8)


def test_build_context_zero_space(p33, rng):
    f = random_function(p33, rng)
    W = Subspace.from_rows(p33, np.zeros((0, 3), dtype=int))
    t = 7
    ctx = build_context(f, np.array([0]), W, W.complement(), t)
    # V is everything, so h averages the single window value everywhere
    assert np.allclose(ctx.h.values, f.values[t], atol=1e-12)


def test_build_context_window_indicator(p33, rng):
    W = Subspace.from_rows(p33, [[1, 0, 0]])
    t = 5
    coset = W.coset(t)
    vals = np.zeros(p33.F)
    vals[coset] = 1.0
    f = DenseFunction.make(p33, vals)
    ctx = build_context(f, dft(f).top_places(1), W, W.complement(), t)
    # h(m) = |{b in V : m - b in t+W}|, which a direct sum makes 1 everywhere
    members = set(int(c) for c in coset)
    V = W.complement()
    counts = np.array(
        [
            sum(1 for b in V.members() if p33.sub(m, int(b)) in members)
            for m in range(p33.F)
        ],
        dtype=float,
    )
    assert np.allclose(ctx.h.values, counts, atol=1e-12)
    assert np.allclose(ctx.h.values[coset], f.values[coset], atol=1e-12)


def test_build_context_invariants_random(p33, rng):
    f = random_function(p33, rng)
    spectrum, A, good = separated_frame(f, 2, rng)
    t = int(good.translates[0])
    ctx = build_context(f, A, good.W, good.V, t, spectrum=spectrum)
    coset = good.W.coset(t)
    assert np.allclose(ctx.h.values[coset], f.values[coset], atol=1e-9)
    assert ctx.h.values.min() >= -1e-9 and ctx.h.values.max() <= 1 + 1e-9
    for row in good.V.basis:
        v = p33.index_of(np.asarray(row))
        shifted = ctx.h.translate(int(v))
        assert np.allclose(shifted.values, ctx.h.values, atol=1e-9)
    assert ctx.w1_positions.size == len(A)
    assert ctx.w1_positions.size + ctx.w2_positions.size == good.W.size


def test_build_context_rejects_wrong_complement(p33, rng):
    f = random_function(p33, rng)
    W = Subspace.from_rows(p33, [[1, 0, 0]])
    with pytest.raises(ValueError):
        build_context(f, np.array([0]), W, W, 0)


def test_build_context_rejects_isotropic(p33, rng):
    f = random_function(p33, rng)
    W = Subspace.from_rows(p33, [[1, 1, 1]])  # 1+1+1 = 0, so W meets W-perp
    with pytest.raises(ValueError):
        build_context(f, np.array([0]), W, W.complement(), 0)


def test_depletion_constant_function(p33):
    one = DenseFunction.constant(p33, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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


def test_depletion_warns_once_below_floor(p33):
    # E(g) = 1/2 sits below the floor 8 / (sqrt(3) * 2) from the first step on
    one = DenseFunction.constant(p33, 1.0)
    half = DenseFunction.constant(p33, 0.5)
    with pytest.warns(UserWarning, match="density floor") as record:
        run = run_depletion(one, half, k=2, delta=0.0, rng=np.random.default_rng(7))
    assert len(record) == 1
    assert "step 1 of 7" in str(record[0].message)
    assert not run.density_ok
    assert len(run.steps) == run.r == 7


def test_depletion_bookkeeping_exact(p33, rng):
    f = random_function(p33, rng)
    vals = f.values * 0.9
    g = DenseFunction.make(p33, vals)
    delta = np.sqrt(dft(f).sigma(2)) / p33.F + 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run = run_depletion(
            one, one, k=2, delta=0.0, ordering="gff", rng=np.random.default_rng(7)
        )
    assert run.ordering == "gff"
    assert run.certificates_ok
    assert lambda3_brute(one, one, one) >= run.lambda_lower


def test_depletion_lazy_refresh_matches(p33):
    one = DenseFunction.constant(p33, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        always = run_depletion(
            one, one, k=2, delta=0.0, rng=np.random.default_rng(7)
        )
        lazy = run_depletion(
            one, one, k=2, delta=0.0, refresh="lazy", rng=np.random.default_rng(7)
        )
    assert any(s.reused for s in lazy.steps)
    assert not any(s.reused for s in always.steps)
    assert lazy.lambda_lower == pytest.approx(always.lambda_lower, rel=1e-12)
    assert lazy.certificates_ok


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run = run_depletion(
            one,
            g,
            k=2,
            delta=0.0,
            finder_cfg=FinderConfig(k=2, max_attempts=32),
            rng=np.random.default_rng(3),
        )
    assert run.partial
    assert len(run.steps) == 0
    assert run.lambda_lower == 0.0
    assert sum(run.finder_rejections.values()) == 32
    assert lambda3_brute(one, g, one) >= run.lambda_lower

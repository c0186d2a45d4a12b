"""Coset localization, translate selection, and the midpoint depletion loop.

Fixing a subspace W with complement V = W-perp and a translate t, the window
alpha = indicator(t + W) localizes f: h = (f * alpha) convolved with the
indicator of V is V-translation-invariant, agrees with f on t + W, and its
transform lives on W via hhat(w) = sum_{v in V} fhat(w + v) w^(-v.t).  The
quality of a translate is

    Q(t) = sum_{a in A} |hhat(w(a)) - w^(-v(a).t) fhat(a)|^2
         + sum_{w in W2} |hhat(w)|^2,

which averages to sigma_k over all t in F, so any T with |T| >= F/4 contains
a translate with Q(t) <= 4 sigma_k.  At such a translate, any m in t + W with
g_i(m) >= E(g_i)/2 supports the certified pair-count floor

    E(g_i)^2 |V| / 4 - 9 delta F,

and depleting r = ceil(E(g) F / 2) such midpoints assembles a positive lower
bound for Lambda3.

Q is f's tail energy on the window.  Let fhat' be fhat with A set to 0 and
f_tail its inverse transform.  Separation gives each a in A its own V-coset,
so Q(t) sums |sum_{v in V} fhat'(c + v) w^(-v.t)|^2 over the V-cosets c.
With psi = f_tail 1_{t+W}, |psihat| is constant on each V-coset and equals
(|W|/F) |sum_{v in V} fhat'(c + v) w^(-v.t)|, and Parseval on psi gives

    Q(t) = (F^2 / |W|) sum_{m in t+W} |f_tail(m)|^2.

tail_energy holds F^2 |f_tail|^2, one transform per run since f and A stay
fixed; coset_scores sums it over every W-coset with one bincount.
select_translate takes the smallest t of the first minimal dense coset,
counting Q values within round-off of the minimum as tied.
SubspaceFrame, translate_scores (Q one translate at a time) and
build_context (the window's invariants) are oracles, off the fast path.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .bounds import HypothesisRefusal, check_hypotheses
from .field import Subspace, check_same_params
from .finder import (
    DEFAULT_MAX_ATTEMPTS,
    FinderBudgetError,
    coset_sum,
    find_good_subspace,
    is_dense,
    separates,
)
from .functions import convolve_direct, indicator
from .lambda3 import pair_table
from .spectral import DenseFunction, PaddedCube, Spectrum, _root_powers

HHAT_TOLERANCE = 1e-8
INVARIANT_TOLERANCE = 1e-9
CERT_TOLERANCE = 1e-9
ORDERINGS = ("fgf", "gff")


class ContextInvariantError(AssertionError):
    """A mathematically guaranteed context identity failed numerically."""


@dataclass(frozen=True)
class SubspaceFrame:
    """Per-W precomputation for the per-translate oracles; V = W-perp."""

    spectrum: Spectrum
    W: Subspace
    V: Subspace
    w_members: np.ndarray
    v_members: np.ndarray
    fhat_wv: np.ndarray  # (|W|, |V|): fhat(w_i + v_j)
    cell: np.ndarray  # cell[x] = i |V| + j where x = w_i + v_j

    @classmethod
    def build(cls, spectrum: Spectrum, W: Subspace) -> "SubspaceFrame":
        """Index every x = w_i + v_j by adding the digits of w_i and v_j.

        The |W| |V| = F sums hit every x, each once, exactly when F = V (+) W.
        """
        params = spectrum.params
        W.params.same_as(params)
        V = W.complement()
        w_members = W.members()
        v_members = V.members()
        D = params.digit_table()
        grid = params.indices_of(D[w_members][:, None, :] + D[v_members][None, :, :])
        cell = np.full(params.F, -1, dtype=np.int64)
        cell[grid.reshape(-1)] = np.arange(params.F)
        if (cell < 0).any():
            raise ValueError("subspaces do not form a direct sum")
        return cls(spectrum, W, V, w_members, v_members, spectrum.coeffs[grid], cell)

    def place_positions(self, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions of w(a) in w_members and v(a) in v_members for each a in A.

        Distinctness of the w(a) is equivalent to the separation condition;
        a collision means the caller skipped it.
        """
        pos_w, pos_v = np.divmod(self.cell[np.asarray(A, dtype=np.int64)], self.v_members.size)
        if np.unique(pos_w).size < pos_w.size:
            raise ValueError(
                "two top places share a W-component; the separation condition fails"
            )
        return pos_w, pos_v

    def phases(self, ts: np.ndarray) -> np.ndarray:
        """w^(-v.t) for each v in V and translate t in ts, shape (|V|, len(ts))."""
        params = self.spectrum.params
        roots_conj = _root_powers(params.p).conj()
        td = params.digit_table()[np.asarray(ts, dtype=np.int64)]
        vd = params.digit_table()[self.v_members]
        return roots_conj[(vd @ td.T) % params.p]


def translate_scores(frame: SubspaceFrame, A: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Q(t) for each candidate translate, from the formula; the oracle for
    coset_scores."""
    pos_w, pos_v = frame.place_positions(A)
    fa = frame.spectrum.coeffs[np.asarray(A, dtype=np.int64)]
    w2_mask = np.ones(frame.w_members.size, dtype=bool)
    w2_mask[pos_w] = False
    phases = frame.phases(ts)  # (|V|, len(ts))
    H = frame.fhat_wv @ phases  # (|W|, len(ts))
    main = H[pos_w, :] - fa[:, None] * phases[pos_v, :]
    return (np.abs(main) ** 2).sum(axis=0) + (np.abs(H[w2_mask, :]) ** 2).sum(axis=0)


def tail_energy(spectrum: Spectrum, A: np.ndarray) -> np.ndarray:
    """F^2 |f_tail(m)|^2 for every m, where f_tail is f with the places A
    removed from its spectrum."""
    params = spectrum.params
    coeffs = spectrum.coeffs.copy()
    coeffs[np.asarray(A, dtype=np.int64)] = 0.0
    tail = np.fft.fftn(coeffs.reshape((params.p,) * params.n)).reshape(-1)
    return np.abs(tail) ** 2


def coset_scores(energy: np.ndarray, A: np.ndarray, W: Subspace, labels: np.ndarray) -> np.ndarray:
    """Q for every W-coset, indexed by label: scores[labels[t]] = Q(t), the
    tail energy on t + W over |W|.  labels names the cosets of W, as the
    finder's coset_labels do."""
    if not separates(W, A):
        raise ValueError("two top places share a V-coset; the separation condition fails")
    return np.bincount(labels, weights=energy, minlength=energy.size // W.size) / W.size


def select_translate(
    scores: np.ndarray, labels: np.ndarray, dense: np.ndarray, sigma_k: float, roundoff: float
) -> tuple[int, float]:
    """The smallest t of the first minimal dense coset, with its score Q(t).

    scores and dense are indexed by coset label and labels[x] names x + W.
    Dense cosets scoring within roundoff of the minimum tie, so t is the
    first x whose coset is dense and ties; q is that coset's score.  With the
    dense cosets covering at least F/4 translates the averaging identity
    guarantees the minimum is at most 4 sigma_k; a violation is a broken
    invariant, not a data condition.
    """
    tied = dense & (scores <= scores[dense].min() + roundoff)
    t = int(np.argmax(tied[labels]))
    q = float(scores[labels[t]])
    pool = int(dense.sum()) * (labels.size // dense.size)
    if pool >= labels.size / 4.0 and q > 4.0 * sigma_k + INVARIANT_TOLERANCE:
        raise ContextInvariantError(
            f"min Q over {pool} translates is {q}, above 4*sigma_k={4*sigma_k}"
        )
    return t, q


@dataclass(frozen=True)
class CosetContext:
    """The localized window at (W, t), V = W-perp, with its validated invariants."""

    alpha: DenseFunction
    h: DenseFunction
    hhat: np.ndarray  # via the closed formula; supported on W
    w1_positions: np.ndarray  # positions in W.members() hit by A
    w2_positions: np.ndarray


def build_context(f: DenseFunction, A: np.ndarray, W: Subspace, t: int) -> CosetContext:
    """Construct the window at (W, t) and verify every context invariant."""
    params = f.params
    coset = W.coset(t)
    frame = SubspaceFrame.build(f.spectrum, W)

    alpha = indicator(params, coset)

    # alphahat(a) = |W| w^(a.t) on V, 0 elsewhere.
    expected = np.zeros(params.F, dtype=np.complex128)
    expected[frame.v_members] = W.size * frame.phases(np.array([t]))[:, 0].conj()
    gap = float(np.abs(alpha.spectrum.coeffs - expected).max())
    if gap > HHAT_TOLERANCE * max(W.size, 1):
        raise ContextInvariantError(f"window transform off by {gap}")

    # h = (f * alpha) convolved with the indicator of V.
    masked = DenseFunction.make(params, f.values * alpha.values)
    h = convolve_direct(indicator(params, frame.v_members), masked)

    hhat_formula = np.zeros(params.F, dtype=np.complex128)
    hhat_formula[frame.w_members] = frame.fhat_wv @ frame.phases(np.array([t]))[:, 0]
    gap = float(np.abs(h.spectrum.coeffs - hhat_formula).max())
    if gap > HHAT_TOLERANCE:
        raise ContextInvariantError(f"closed-form transform of h off by {gap}")

    h_cube = PaddedCube(params, h.values)
    for row in frame.V.basis:
        shifted = h_cube.shifted(np.asarray(row) % params.p)
        if float(np.abs(shifted - h.cube()).max()) > INVARIANT_TOLERANCE:
            raise ContextInvariantError("h is not invariant under its subspace")

    if float(np.abs(h.values[coset] - f.values[coset]).max()) > INVARIANT_TOLERANCE:
        raise ContextInvariantError("h does not restrict to f on the window")
    if h.values.min() < -INVARIANT_TOLERANCE or h.values.max() > 1 + INVARIANT_TOLERANCE:
        raise ContextInvariantError("h leaves [0, 1]")

    pos_w, _ = frame.place_positions(A)
    w2 = np.setdiff1d(np.arange(frame.w_members.size), pos_w)
    return CosetContext(alpha, h, hhat_formula, pos_w, w2)


@dataclass(frozen=True)
class MidpointCertificate:
    step: int
    ordering: str
    m: int
    t: int
    g_value: float
    e_gi: float
    q_value: float
    pair_count: float
    floor: float
    vacuous: bool
    hypotheses_held: bool
    reused: bool
    finder_attempts: int


@dataclass(frozen=True)
class DepletionRun:
    ordering: str
    k: int
    delta: float
    sigma_k: float
    e_g: float
    r: int
    steps: tuple
    lambda_lower: float
    pair_weight: float  # sum_m g(m) * pair_table[m]; F^2 times the measured Lambda3
    density_ok: bool
    partial: bool
    finder_rejections: dict

    @property
    def certificates_ok(self) -> bool:
        return all(
            (not s.hypotheses_held) or s.pair_count >= s.floor - CERT_TOLERANCE
            for s in self.steps
        )

    @property
    def vacuous_steps(self) -> int:
        return sum(1 for s in self.steps if s.vacuous)


def run_depletion(
    f: DenseFunction,
    g: DenseFunction,
    k: int,
    delta: float,
    ordering: str = "fgf",
    nprime: int | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    rng: np.random.Generator | None = None,
    refresh: str = "always",
) -> DepletionRun:
    """Deplete r = ceil(E(g) F / 2) certified midpoints and assemble the bound.

    refresh="always" re-runs the subspace finder every step (the conservative
    reading); refresh="lazy" reuses (W, t) while the coset-density condition
    still holds for the depleted g, which certifies identically because Q
    depends only on f.  Depletion never changes f, so every step reads its
    pair count from one pair_table and its coset scores from one tail_energy,
    both built before the loop.  nprime and max_attempts go to the finder.
    The run neither measures Lambda3 nor judges its steps: the caller checks
    lambda_lower and pair_weight against its own oracle and asserts
    certificates_ok, so a run with a broken step is still returned whole.
    Each step checks its own coset, so the run goes on below the density
    floor; the steps' e_gi show where it was crossed.
    """
    params = check_same_params(f, g)
    if ordering not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}")
    if refresh not in ("always", "lazy"):
        raise ValueError(f"refresh must be 'always' or 'lazy', got {refresh!r}")
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if rng is None:
        rng = np.random.default_rng(0)
    F = params.F

    hypotheses = check_hypotheses(f, g, k, delta)
    items = {name: (ok, detail) for name, ok, detail in hypotheses.items}
    ok, detail = items["domination"]
    if not ok:
        raise HypothesisRefusal(f"g exceeds f: {detail}; need g <= f pointwise")
    if not items["unit_range"][0]:
        raise HypothesisRefusal("f or g takes a value outside [0, 1]")
    e_g = hypotheses.e_g
    if e_g <= 0.0:
        raise HypothesisRefusal("E(g) = 0: nothing to deplete")
    ok, detail = items["tail"]
    if not ok:
        raise HypothesisRefusal(f"{detail}; the tail hypothesis fails for this delta")
    spectrum = f.spectrum
    sigma_k = hypotheses.sigma_k
    A = spectrum.top_places(k)
    table = pair_table(spectrum, ordering)
    energy = tail_energy(spectrum, A)
    # Each fhat(a) is off by up to about eps sum|f|, so F f_tail(m) by about
    # eps F sum|f|: Q values closer than its square are round-off apart.
    roundoff = (np.finfo(float).eps * F * float(np.abs(f.values).sum())) ** 2

    r = math.ceil(e_g * F / 2.0)
    gi = g.values.copy()
    sum_g = float(gi.sum())
    lower_sum = 0.0
    steps: list[MidpointCertificate] = []
    partial = False
    rejections = Counter(separation=0, coset_density=0, direct_sum=0)
    coset = None  # the window t + W of the last (W, t) chosen

    for i in range(1, r + 1):
        e_gi = sum_g / F
        reused = (
            refresh == "lazy"
            and coset is not None
            and is_dense(coset_sum(gi, coset), e_gi, good.W.size)
        )
        if not reused:
            try:
                good = find_good_subspace(
                    A, DenseFunction.make(params, gi), rng, nprime, max_attempts
                )
            except FinderBudgetError as err:
                rejections.update(err.rejections)
                partial = True
                break
            rejections.update(good.rejections)
            scores = coset_scores(energy, A, good.W, good.coset_labels)
            t, q = select_translate(scores, good.coset_labels, good.dense, sigma_k, roundoff)
            coset = good.W.coset(t)

        local = gi[coset]
        pos = int(np.argmax(local))
        m = int(coset[pos])
        g_value = float(local[pos])
        floor = e_gi**2 * (F // good.W.size) / 4.0 - 9.0 * delta * F
        pair = float(table[m])
        held = (
            g_value >= e_gi / 2.0 - INVARIANT_TOLERANCE
            and q <= 4.0 * sigma_k + INVARIANT_TOLERANCE
            and delta <= 1.0
        )
        cert = MidpointCertificate(
            step=i,
            ordering=ordering,
            m=m,
            t=t,
            g_value=g_value,
            e_gi=e_gi,
            q_value=q,
            pair_count=pair,
            floor=floor,
            vacuous=floor <= 0.0,
            hypotheses_held=held,
            reused=reused,
            finder_attempts=good.attempts,
        )
        steps.append(cert)
        lower_sum += (e_g / 4.0) * floor
        sum_g -= g_value
        gi[m] = 0.0

    return DepletionRun(
        ordering=ordering,
        k=k,
        delta=delta,
        sigma_k=sigma_k,
        e_g=e_g,
        r=r,
        steps=tuple(steps),
        lambda_lower=lower_sum / F**2,
        pair_weight=float(g.values @ table),
        density_ok=items["density_floor"][0],
        partial=partial,
        finder_rejections=dict(rejections),
    )

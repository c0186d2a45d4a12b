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
counting Q values within round-off of the minimum as tied, and
retarget_translate takes the same t in O(|V|) from each coset's smallest
member.  run_depletion works a window at a time: a Window is one (W, t) and
the run of steps it serves, each certified by step_floor, step_weight and
step_held.
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
    CandidateStream,
    FinderBudgetError,
    GoodSubspace,
    coset_sum,
    find_good_subspace,
    is_dense,
)
from .functions import convolve_direct, indicator
from .lambda3 import pair_table
from .spectral import DenseFunction, PaddedCube, Spectrum, _root_powers, axis_transforms

HHAT_TOLERANCE = 1e-8
INVARIANT_TOLERANCE = 1e-9
CERT_TOLERANCE = 1e-9


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
    tail = axis_transforms(params, coeffs, np.fft.fft)
    # not np.abs(tail) ** 2, whose last bits depend on numpy's SIMD dispatch
    return tail.real**2 + tail.imag**2


def coset_scores(energy: np.ndarray, good: GoodSubspace) -> np.ndarray:
    """Q for every coset of the finder's W, indexed by label:
    scores[good.coset_labels[t]] = Q(t), the tail energy on t + W over |W|.
    The finder accepted W only once it separated the places behind energy."""
    return np.bincount(good.coset_labels, weights=energy, minlength=good.dense.size) / good.W.size


def _minimal(scores: np.ndarray, dense: np.ndarray, roundoff: float) -> np.ndarray:
    """The dense cosets whose score is within roundoff of the least dense score."""
    return dense & (scores <= scores[dense].min() + roundoff)


def _bounded(q: float, pool: int, F: int, sigma_k: float) -> float:
    """q, unless dense cosets covering pool >= F/4 translates give a minimum
    above 4 sigma_k, which the averaging identity rules out: a broken
    invariant, not a data condition."""
    if pool >= F / 4.0 and q > 4.0 * sigma_k + INVARIANT_TOLERANCE:
        raise ContextInvariantError(
            f"min Q over {pool} translates is {q}, above 4*sigma_k={4*sigma_k}"
        )
    return q


def select_translate(
    scores: np.ndarray, labels: np.ndarray, dense: np.ndarray, sigma_k: float, roundoff: float
) -> tuple[int, float]:
    """The smallest t of the first minimal dense coset, with its score Q(t).

    scores and dense are indexed by coset label and labels[x] names x + W.
    Dense cosets scoring within roundoff of the minimum tie, so t is the
    first x whose coset is dense and ties; q is that coset's score.  With the
    dense cosets covering at least F/4 translates the averaging identity
    guarantees the minimum is at most 4 sigma_k; a violation raises
    ContextInvariantError.
    """
    t = int(np.argmax(_minimal(scores, dense, roundoff)[labels]))
    q = float(scores[labels[t]])
    return t, _bounded(q, int(dense.sum()) * (labels.size // dense.size), labels.size, sigma_k)


def retarget_translate(
    scores: np.ndarray,
    dense: np.ndarray,
    smallest: np.ndarray,
    size: int,
    sigma_k: float,
    roundoff: float,
) -> tuple[int, float] | None:
    """select_translate in O(|V|) within a W already accepted, or None when its
    dense cosets of size |W| cover less than F/4 translates and the finder
    must run again.

    smallest[c] is the smallest member of coset c, so the first x whose coset
    ties is the least smallest[c] over the tied cosets c.  Separation and
    directness are properties of W and Q depends on f alone, so any dense pool
    of F/4 translates certifies as a fresh W would.
    """
    pool = int(dense.sum()) * size
    if pool < dense.size * size / 4.0:
        return None
    tied = np.flatnonzero(_minimal(scores, dense, roundoff))
    label = tied[np.argmin(smallest[tied])]
    return int(smallest[label]), _bounded(float(scores[label]), pool, dense.size * size, sigma_k)


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


def step_floor(e_gi, cosets: int, delta: float, F: int):
    """The certified pair-count floor E(g_i)^2 |V| / 4 - 9 delta F of a step
    taken in a window with |V| = F / |W| cosets, elementwise on an array of
    E(g_i).  The square is e * e: Python's e**2 calls libm pow, which can
    differ in the last bit from numpy's array square."""
    return e_gi * e_gi * cosets / 4.0 - 9.0 * delta * F


def step_weight(e_g: float) -> float:
    """The weight E(g) / 4 of each step's floor in the assembled bound."""
    return e_g / 4.0


def step_held(g_value, e_gi, q: float, sigma_k: float, delta: float):
    """Whether a step's hypotheses held: g_i(m) >= E(g_i) / 2, Q(t) <= 4 sigma_k
    and delta <= 1.  A bool for scalars, elementwise on arrays."""
    return (
        (g_value >= e_gi / 2.0 - INVARIANT_TOLERANCE)
        & (q <= 4.0 * sigma_k + INVARIANT_TOLERANCE)
        & (delta <= 1.0)
    )


@dataclass(frozen=True)
class DepletionRun:
    ordering: str
    k: int
    delta: float
    sigma_k: float
    e_g: float
    r: int
    # One dict per step, the row the report writes, of native Python values:
    # step (from 1), ordering, m, t, g_value = g_i(m), e_gi = E(g_i),
    # q_value = Q(t), pair_count, floor, vacuous (floor <= 0),
    # hypotheses_held, reused and the window's finder_attempts.
    steps: tuple
    lambda_lower: float
    pair_weight: float  # sum_m g(m) * pair_table[m]; F^2 times the measured Lambda3
    density_ok: bool
    partial: bool
    finder_rejections: dict
    finder_calls: int  # find_good_subspace calls, the one that ran out of budget included
    retargets: int  # windows opened by moving t within the current W

    @property
    def certificates_ok(self) -> bool:
        return all(
            (not s["hypotheses_held"]) or s["pair_count"] >= s["floor"] - CERT_TOLERANCE
            for s in self.steps
        )

    @property
    def vacuous_steps(self) -> int:
        return sum(1 for s in self.steps if s["vacuous"])


@dataclass
class Window:
    """One accepted W, the translate t it serves now and the state a lazy run
    retargets from: V = W-perp, scores[c] = Q on coset c, t + W = coset.

    sums[c] (each coset's sum of the live g_i) and members[c] (its members,
    ascending) are built on the first retarget and kept for the rest of W."""

    good: GoodSubspace
    scores: np.ndarray
    t: int
    q: float
    coset: np.ndarray
    sums: np.ndarray | None = None
    members: np.ndarray | None = None

    @classmethod
    def open(
        cls, good: GoodSubspace, energy: np.ndarray, sigma_k: float, roundoff: float
    ) -> "Window":
        scores = coset_scores(energy, good)
        labels = good.coset_labels
        t, q = select_translate(scores, labels, good.dense, sigma_k, roundoff)
        return cls(good, scores, t, q, np.flatnonzero(labels == labels[t]))

    def retarget(self, gi: np.ndarray, e_gi: float, sigma_k: float, roundoff: float) -> bool:
        """Move t to the coset select_translate would pick among the cosets dense
        at the current E(g_i), in O(|V|); False, with t kept, when they cover
        less than F/4."""
        labels, size = self.good.coset_labels, self.good.W.size
        if self.sums is None:
            self.sums = np.bincount(labels, weights=gi, minlength=self.scores.size)
            # every label names |W| members of F, so a stable sort groups them by coset
            self.members = np.argsort(labels, kind="stable").reshape(self.scores.size, size)
        dense = is_dense(self.sums, e_gi, size)
        found = retarget_translate(self.scores, dense, self.members[:, 0], size, sigma_k, roundoff)
        if found is None:
            return False
        self.t, self.q = found
        self.coset = self.members[labels[self.t]]
        return True

    def take(self, gi: np.ndarray, sum_g: float, room: int):
        """The run of at most room steps t + W serves, from total g_i mass sum_g:
        arrays of m, g_i(m) and E(g_i) before each pick, and the mass left after
        the last.

        The picks are the coset's members by descending g_i, ties to the lower
        index.  The field's and the coset's remaining mass fall by one
        subtraction per pick, in order, so they carry the bits of a per-step
        loop.  The run ends before the first pick whose coset is no longer
        dense at that E(g_i)."""
        local = gi[self.coset]
        order = np.argsort(-local, kind="stable")[:room]
        g_value = local[order]
        label = self.good.coset_labels[self.t]
        start = coset_sum(gi, self.coset) if self.sums is None else self.sums[label]
        left = np.subtract.accumulate(np.concatenate(([start], g_value)))
        mass = np.subtract.accumulate(np.concatenate(([sum_g], g_value)))
        e_gi = mass[:-1] / gi.size
        dense = is_dense(left[:-1], e_gi, self.good.W.size)
        dense[0] = True  # the window opened on a dense coset
        length = dense.size if dense.all() else int(dense.argmin())
        if self.sums is not None:
            self.sums[label] = left[length]
        return self.coset[order[:length]], g_value[:length], e_gi[:length], float(mass[length])


def run_depletion(
    f: DenseFunction,
    g: DenseFunction,
    k: int,
    delta: float,
    orderings: tuple = ("fgf",),
    nprime: int | None = None,
    rng: np.random.Generator | None = None,
    refresh: str = "always",
) -> tuple[DepletionRun, ...]:
    """Deplete r = ceil(E(g) F / 2) certified midpoints and assemble the bound.

    The loop runs once per window, a (W, t) and the steps it serves.
    refresh="always" calls the subspace finder for every step, so each window
    is one step: the coset's first largest g_i (the conservative reading).
    refresh="lazy" keeps the accepted W for as long as it can, which
    certifies identically because separation and directness are properties
    of W and Q depends on f alone.  A lazy window takes the coset's members by
    descending g_i, ties to the lower index, and ends before the first pick
    whose coset is no longer dense at that E(g_i); each step's E(g_i) and the
    coset's remaining mass come from sequential subtraction, so they carry
    the bits of a per-step loop.  Then t retargets within W to the coset
    select_translate would pick among those dense at the current E(g_i), and
    the finder runs again only when they cover less than F/4.  A step is
    `reused` when it has the previous step's (W, t); the run counts its
    finder_calls and retargets.

    The ordering decides only which pair table a step's count is read from,
    so the loop runs once and returns one DepletionRun per ordering in
    orderings, their steps equal but for ordering and pair_count.  Depletion
    never changes f, so each ordering's pair_table and the coset scores' one
    tail_energy are built before the loop, and so is the run's one
    CandidateStream: every finder call reads its next candidates, screened a
    doubling block at a time, so the run draws the W sequence a finder
    drawing one W per attempt would, and a window opens on the coset labels
    the stream gives (t + W is the x with t's label).  nprime goes to the
    stream.  No run measures Lambda3 or judges its steps: the caller checks
    lambda_lower and pair_weight against its own oracle and asserts
    certificates_ok, so a run with a broken step is still returned whole.
    Each step checks its own coset, so the run goes on below the density
    floor; the steps' e_gi show where it was crossed.
    """
    params = check_same_params(f, g)
    if refresh not in ("always", "lazy"):
        raise ValueError(f"refresh must be 'always' or 'lazy', got {refresh!r}")
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if rng is None:
        rng = np.random.default_rng(0)
    F = params.F

    hypotheses = check_hypotheses(f, g, k, delta)
    ok, detail = hypotheses.items["domination"]
    if not ok:
        raise HypothesisRefusal(f"g exceeds f: {detail}; need g <= f pointwise")
    if not hypotheses.items["unit_range"][0]:
        raise HypothesisRefusal("f or g takes a value outside [0, 1]")
    e_g = hypotheses.e_g
    if e_g <= 0.0:
        raise HypothesisRefusal("E(g) = 0: nothing to deplete")
    ok, detail = hypotheses.items["tail"]
    if not ok:
        raise HypothesisRefusal(f"{detail}; the tail hypothesis fails for this delta")
    spectrum = f.spectrum
    sigma_k = hypotheses.sigma_k
    A = spectrum.top_places(k)
    tables = [pair_table(spectrum, ordering) for ordering in orderings]
    energy = tail_energy(spectrum, A)
    # Each fhat(a) is off by up to about eps sum|f|, so F f_tail(m) by about
    # eps F sum|f|: Q values closer than its square are round-off apart.
    roundoff = (np.finfo(float).eps * F * float(np.abs(f.values).sum())) ** 2

    r = math.ceil(e_g * F / 2.0)
    gi = g.values.copy()
    sum_g = float(gi.sum())
    lower_sum = 0.0
    steps: list[dict] = []
    partial = False
    rejections = Counter(separation=0, coset_density=0, direct_sum=0)
    finder_calls = retargets = 0
    lazy = refresh == "lazy"
    window = None
    stream = CandidateStream(params, A, rng, nprime)

    while len(steps) < r:
        if lazy and window is not None and window.retarget(gi, sum_g / F, sigma_k, roundoff):
            retargets += 1
        else:
            finder_calls += 1
            try:
                good = find_good_subspace(stream, gi)
            except FinderBudgetError as err:
                rejections.update(err.rejections)
                partial = True
                break
            rejections.update(good.rejections)
            window = Window.open(good, energy, sigma_k, roundoff)
        cosets, q = F // window.good.W.size, window.q
        if lazy:
            m, g_value, e_gi, left = window.take(gi, sum_g, r - len(steps))
        else:  # one step, in Python floats: no sort and no arrays
            local = gi[window.coset]
            pos = int(np.argmax(local))
            m, g_value, e_gi = int(window.coset[pos]), float(local[pos]), sum_g / F
            left = sum_g - g_value
        floor = step_floor(e_gi, cosets, delta, F)
        held = step_held(g_value, e_gi, q, sigma_k, delta)
        weight = step_weight(e_g) * floor
        if lazy:
            columns = zip(*(c.tolist() for c in (m, g_value, e_gi, floor, held, weight)))
        else:
            columns = [(m, g_value, e_gi, floor, held, weight)]
        for j, (m_j, g_j, e_j, floor_j, held_j, weight_j) in enumerate(columns):
            steps.append(
                {
                    "step": len(steps) + 1,
                    "m": m_j,
                    "t": window.t,
                    "g_value": g_j,
                    "e_gi": e_j,
                    "q_value": q,
                    "floor": floor_j,
                    "vacuous": floor_j <= 0.0,
                    "hypotheses_held": held_j,
                    "reused": j > 0,
                    "finder_attempts": window.good.attempts,
                }
            )
            lower_sum += weight_j
        sum_g = left
        gi[m] = 0.0

    shared = dict(
        k=k, delta=delta, sigma_k=sigma_k, e_g=e_g, r=r, lambda_lower=lower_sum / F**2,
        density_ok=hypotheses.items["density_floor"][0], partial=partial,
        finder_rejections=dict(rejections), finder_calls=finder_calls, retargets=retargets,
    )
    ms = [step["m"] for step in steps]
    return tuple(
        DepletionRun(
            ordering=ordering,
            steps=tuple(
                {**step, "ordering": ordering, "pair_count": count}
                for step, count in zip(steps, table[ms].tolist())
            ),
            pair_weight=float(np.sum(g.values * table)),
            **shared,
        )
        for ordering, table in zip(orderings, tables)
    )

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

Q sees t only through v.t for v in V, and v.w = 0 for every w in W, so Q is
constant on each coset t + W.  The finder's T is a union of such cosets, and
select_translate scores one translate per coset.  Its tie-break is the
smallest t of the first minimal coset, cosets ordered by their smallest
members.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bounds import HypothesisRefusal, density_floor
from .field import Subspace, check_same_params
from .finder import (
    FinderBudgetError,
    FinderConfig,
    GoodSubspace,
    coset_sum,
    find_good_subspace,
    is_dense,
)
from .lambda3 import endpoint_pair_count, midpoint_pair_count
from .spectral import (
    DenseFunction,
    Spectrum,
    _root_powers,
    dft,
    translated_values,
)

HHAT_TOLERANCE = 1e-8
INVARIANT_TOLERANCE = 1e-9
CERT_TOLERANCE = 1e-9
ORDERINGS = ("fgf", "gff")


class ContextInvariantError(AssertionError):
    """A mathematically guaranteed context identity failed numerically."""


class CertificateError(AssertionError):
    """A certified inequality failed while its hypotheses held."""


@dataclass(frozen=True)
class SubspaceFrame:
    """Per-(W, V) precomputation shared by translate scoring and contexts."""

    spectrum: Spectrum
    W: Subspace
    V: Subspace
    w_members: np.ndarray
    v_members: np.ndarray
    fhat_wv: np.ndarray  # (|W|, |V|): fhat(w_i + v_j)
    cell: np.ndarray  # cell[x] = i |V| + j where x = w_i + v_j

    @classmethod
    def build(cls, spectrum: Spectrum, W: Subspace, V: Subspace) -> "SubspaceFrame":
        """Index every w_i + v_j; the grid covers F once exactly when F = V (+) W."""
        params = spectrum.params
        W.params.same_as(params)
        V.params.same_as(params)
        if W.dim + V.dim != params.n:
            raise ValueError("component dimensions must sum to n")
        w_members = W.members()
        v_members = V.members()
        wd = params.digit_table()[w_members]
        vd = params.digit_table()[v_members]
        grid = (wd[:, None, :] + vd[None, :, :]) % params.p
        idx = params.indices_of(grid.reshape(-1, params.n))
        cell = np.full(params.F, -1, dtype=np.int64)
        cell[idx] = np.arange(params.F)
        if (cell < 0).any():
            raise ValueError("subspaces do not form a direct sum")
        fhat_wv = spectrum.coeffs[idx.reshape(w_members.size, v_members.size)]
        return cls(spectrum, W, V, w_members, v_members, fhat_wv, cell)

    def place_positions(self, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions of w(a) in w_members and v(a) in v_members for each a in A.

        Distinctness of the w(a) is equivalent to the separation condition;
        a collision means the caller skipped it.
        """
        pos_w, pos_v = np.divmod(self.cell[np.asarray(A, dtype=np.int64)], self.v_members.size)
        if np.unique(pos_w).size != pos_w.size:
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

    def hhat_on_w(self, ts: np.ndarray) -> np.ndarray:
        """hhat(w) for each translate in ts, shape (|W|, len(ts))."""
        return self.fhat_wv @ self.phases(ts)


def translate_scores(frame: SubspaceFrame, A: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Q(t) for each candidate translate."""
    pos_w, pos_v = frame.place_positions(A)
    fa = frame.spectrum.coeffs[np.asarray(A, dtype=np.int64)]
    w2_mask = np.ones(frame.w_members.size, dtype=bool)
    w2_mask[pos_w] = False
    phases = frame.phases(ts)  # (|V|, len(ts))
    H = frame.fhat_wv @ phases  # (|W|, len(ts))
    main = H[pos_w, :] - fa[:, None] * phases[pos_v, :]
    return (np.abs(main) ** 2).sum(axis=0) + (np.abs(H[w2_mask, :]) ** 2).sum(axis=0)


def select_translate(
    frame: SubspaceFrame, A: np.ndarray, translates: np.ndarray, sigma_k: float
) -> tuple[int, float]:
    """The translate in T minimizing Q, with its score.

    Q is constant on each coset t + W, so only the smallest t of each coset
    met by the ascending T is scored.  Ties go to the first minimal coset in
    ascending order.  With |T| >= F/4 the averaging identity guarantees the
    minimum is at most 4 sigma_k; a violation is a broken invariant, not a
    data condition.
    """
    translates = np.asarray(translates, dtype=np.int64)
    coset_ids = frame.cell[translates] % frame.v_members.size  # x + W = v(x) + W
    _, first = np.unique(coset_ids, return_index=True)
    reps = translates[np.sort(first)]
    scores = translate_scores(frame, A, reps)
    pos = int(np.argmin(scores))
    t, q = int(reps[pos]), float(scores[pos])
    F = frame.spectrum.params.F
    if translates.size >= F / 4.0 and q > 4.0 * sigma_k + INVARIANT_TOLERANCE:
        raise ContextInvariantError(
            f"min Q over {translates.size} translates is {q}, above 4*sigma_k={4*sigma_k}"
        )
    return t, q


@dataclass(frozen=True)
class CosetContext:
    """The localized window at (W, V, t) with its validated invariants."""

    f: DenseFunction
    A: np.ndarray
    W: Subspace
    V: Subspace
    t: int
    alpha: DenseFunction
    h: DenseFunction
    hhat: np.ndarray  # via the closed formula; supported on W
    w1_positions: np.ndarray  # positions in W.members() hit by A
    w2_positions: np.ndarray


def build_context(
    f: DenseFunction,
    A: np.ndarray,
    W: Subspace,
    V: Subspace,
    t: int,
    spectrum: Spectrum | None = None,
) -> CosetContext:
    """Construct the window at (W, V, t) and verify every context invariant."""
    params = f.params
    if V != W.complement():
        raise ValueError("V must be the orthogonal complement of W")
    params._check_element(t)
    spectrum = spectrum if spectrum is not None else dft(f)
    frame = SubspaceFrame.build(spectrum, W, V)

    coset = W.coset(t)
    alpha_values = np.zeros(params.F)
    alpha_values[coset] = 1.0
    alpha = DenseFunction.make(params, alpha_values, unit_range=True)

    # alphahat(a) = |W| w^(a.t) on V, 0 elsewhere.
    alphahat = dft(alpha).coeffs
    expected = np.zeros(params.F, dtype=np.complex128)
    roots = _root_powers(params.p)
    v_members = frame.v_members
    t_digits = params.digits_of(t)
    exps = (params.digit_table()[v_members] @ t_digits) % params.p
    expected[v_members] = W.size * roots[exps]
    gap = float(np.abs(alphahat - expected).max())
    if gap > HHAT_TOLERANCE * max(W.size, 1):
        raise ContextInvariantError(f"window transform off by {gap}")

    # h = (f * alpha) convolved with the indicator of V, by direct accumulation.
    masked = (f.values * alpha_values).reshape((params.p,) * params.n)
    axes = tuple(range(params.n))
    acc = np.zeros(params.F)
    for b in v_members:
        digits = params.digits_of(int(b))
        shift = tuple(int(x) for x in digits[::-1])
        acc += np.roll(masked, shift=shift, axis=axes).reshape(-1)
    h = DenseFunction.make(params, acc)

    hhat_direct = dft(h).coeffs
    hhat_formula = np.zeros(params.F, dtype=np.complex128)
    hhat_formula[frame.w_members] = frame.hhat_on_w(np.array([t]))[:, 0]
    gap = float(np.abs(hhat_direct - hhat_formula).max())
    if gap > HHAT_TOLERANCE:
        raise ContextInvariantError(f"closed-form transform of h off by {gap}")

    for row in V.basis:
        v = params.index_of(np.array(row))
        if float(np.abs(translated_values(params, h.values, v) - h.values).max()) > INVARIANT_TOLERANCE:
            raise ContextInvariantError("h is not invariant under its subspace")

    if float(np.abs(h.values[coset] - f.values[coset]).max()) > INVARIANT_TOLERANCE:
        raise ContextInvariantError("h does not restrict to f on the window")
    if h.values.min() < -INVARIANT_TOLERANCE or h.values.max() > 1 + INVARIANT_TOLERANCE:
        raise ContextInvariantError("h leaves [0, 1]")

    pos_w, _ = frame.place_positions(A)
    w2 = np.setdiff1d(np.arange(frame.w_members.size), pos_w)
    A_arr = np.asarray(A, dtype=np.int64)
    return CosetContext(f, A_arr, W, V, t, alpha, h, hhat_formula, pos_w, w2)


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


def _pair_quantity(f: DenseFunction, m: int, ordering: str) -> float:
    if ordering == "fgf":
        return midpoint_pair_count(f, m, method="direct")
    if ordering == "gff":
        return endpoint_pair_count(f, m, method="direct")
    raise ValueError(f"unknown ordering {ordering!r}")


def run_depletion(
    f: DenseFunction,
    g: DenseFunction,
    k: int,
    delta: float,
    ordering: str = "fgf",
    finder_cfg: FinderConfig | None = None,
    rng: np.random.Generator | None = None,
    refresh: str = "always",
    spectrum: Spectrum | None = None,
) -> DepletionRun:
    """Deplete r = ceil(E(g) F / 2) certified midpoints and assemble the bound.

    refresh="always" re-runs the subspace finder every step (the conservative
    reading); refresh="lazy" reuses (W, t) while the coset-density condition
    still holds for the depleted g, which certifies identically because Q
    depends only on f.  The run does not measure Lambda3; the caller checks
    lambda_lower against its own oracle.
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

    worst = float((g.values - f.values).max())
    if worst > 1e-12:
        witness = int(np.argmax(g.values - f.values))
        raise HypothesisRefusal(
            f"g exceeds f at index {witness} by {worst}; need g <= f pointwise"
        )
    e_g = g.mean()
    if e_g <= 0.0:
        raise HypothesisRefusal("E(g) = 0: nothing to deplete")
    spectrum = spectrum if spectrum is not None else dft(f)
    sigma_k = spectrum.sigma(k)
    if sigma_k > delta**2 * F**2 + INVARIANT_TOLERANCE:
        raise HypothesisRefusal(
            f"sigma_k={sigma_k} exceeds delta^2 F^2={delta**2 * F**2}; "
            "the tail hypothesis fails for this delta"
        )
    A = spectrum.top_places(k)
    cfg = finder_cfg if finder_cfg is not None else FinderConfig(k=k)
    floor_k = density_floor(params, k)
    density_ok = e_g >= floor_k

    r = math.ceil(e_g * F / 2.0)
    gi = g.values.copy()
    sum_g = float(gi.sum())
    lower_sum = 0.0
    steps: list[MidpointCertificate] = []
    partial = False
    warned_floor = False
    rejections = {"separation": 0, "coset_density": 0, "direct_sum": 0}
    current: tuple[GoodSubspace, np.ndarray, int, float] | None = None  # (good, coset, t, q)

    for i in range(1, r + 1):
        e_gi = sum_g / F
        if e_gi < floor_k and not warned_floor:
            warned_floor = True
            warnings.warn(
                f"E(g_{i})={e_gi:.6g} below the density floor {floor_k:.6g} "
                f"at depletion step {i} of {r}; the coset-density guarantee "
                "does not apply from here on",
                stacklevel=2,
            )
        reused = False
        if refresh == "lazy" and current is not None:
            good, coset, t, q = current
            if is_dense(coset_sum(gi, coset), e_gi, good.W.size):
                reused = True
            else:
                current = None
        if current is None or not reused:
            try:
                good = find_good_subspace(A, DenseFunction.make(params, gi), cfg, rng)
            except FinderBudgetError as err:
                for key in rejections:
                    rejections[key] += err.rejections.get(key, 0)
                partial = True
                break
            for key in rejections:
                rejections[key] += good.rejections.get(key, 0)
            frame = SubspaceFrame.build(spectrum, good.W, good.V)
            t, q = select_translate(frame, A, good.translates, sigma_k)
            coset = good.W.coset(t)
            current = (good, coset, t, q)

        local = gi[coset]
        pos = int(np.argmax(local))
        m = int(coset[pos])
        g_value = float(local[pos])
        v_size = good.V.size
        floor = e_gi**2 * v_size / 4.0 - 9.0 * delta * F
        pair = _pair_quantity(f, m, ordering)
        held = (
            g_value >= e_gi / 2.0 - INVARIANT_TOLERANCE
            and q <= 4.0 * sigma_k + INVARIANT_TOLERANCE
            and sigma_k <= delta**2 * F**2 + INVARIANT_TOLERANCE
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
        if held and pair < floor - CERT_TOLERANCE:
            raise CertificateError(
                f"step {i}: pair count {pair} below certified floor {floor} at m={m}, "
                f"t={t} (ordering {ordering})"
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
        density_ok=density_ok,
        partial=partial,
        finder_rejections=rejections,
    )

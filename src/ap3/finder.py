"""Random search for a subspace W whose orthocomplement separates the top
spectrum and whose cosets still carry their share of g's mass.

An attempt draws W uniform of dimension nprime and accepts when three
conditions hold: (separation) the complement V = W-perp meets the difference
set of the top places only in 0; (coset density) at least F/4 translates t
have sum_{m in t+W} g(m) >= E(g) |W| / 2; (direct sum) W and V meet only in 0,
so every element splits uniquely as v + w.  The first two events each hold
with probability > 1/2 resp. > 3/4 when the density hypothesis E(g) >
8 p^(-1/2) k^(-1) is met, so rejection sampling terminates quickly; below the
hypothesis the finder warns and proceeds, where the budget does the guarding.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bounds import density_floor, pair_count
from .field import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    FieldParams,
    InfeasibleError,
    Subspace,
    enumerate_subspaces,
    sample_uniform_subspace,
)
from .spectral import DenseFunction, difference_set

COSET_SUM_TOLERANCE = 1e-12


class FinderBudgetError(RuntimeError):
    """Rejection sampling exhausted its attempt budget."""

    def __init__(self, message: str, rejections: dict):
        super().__init__(message)
        self.rejections = rejections


def choose_dimension(k: int, params: FieldParams) -> int:
    """Smallest nprime with p^(nprime - 1) >= C(k, 2), clamped to [1, n].

    Integer arithmetic throughout: the defining condition nprime >= 1 +
    log_p(C(k, 2)) is exactly p^(nprime - 1) >= C(k, 2), which avoids float
    boundary errors when C(k, 2) is a power of p.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pairs = pair_count(k)
    e = 0
    while params.p**e < pairs:
        e += 1
    nprime = max(1, 1 + e if pairs > 0 else 1)
    if nprime > params.n:
        raise InfeasibleError(
            f"k={k} needs dimension {nprime} > n={params.n}; the field is too small"
        )
    return nprime


def coset_sums(g: DenseFunction, W: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """(reps, sums): reps[x] is the canonical representative of x + W and
    sums[reps[x]] the total of g over that coset (zero off-representative)."""
    reps = W.coset_representatives()
    sums = np.bincount(reps, weights=g.values, minlength=g.params.F)
    return reps, sums


def dense_translates(g: DenseFunction, W: Subspace, mean: float | None = None) -> np.ndarray:
    """All t whose coset t + W carries at least E(g) |W| / 2 of mass."""
    mean = g.mean() if mean is None else mean
    reps, sums = coset_sums(g, W)
    threshold = mean * W.size / 2.0 - COSET_SUM_TOLERANCE
    return np.flatnonzero(sums[reps] >= threshold).astype(np.int64)


@dataclass(frozen=True)
class FinderConfig:
    k: int
    max_attempts: int = 256
    nprime: int | None = None


@dataclass(frozen=True)
class GoodSubspace:
    W: Subspace
    V: Subspace
    translates: np.ndarray
    attempts: int
    rejections: dict
    density_ok: bool


def find_good_subspace(
    A: np.ndarray,
    g: DenseFunction,
    cfg: FinderConfig,
    rng: np.random.Generator,
    warn: bool = True,
) -> GoodSubspace:
    """Rejection-sample W until separation, coset density, and directness hold.

    warn=False leaves the below-floor warning to a caller that invokes the
    finder repeatedly and reports once on its own.
    """
    params = g.params
    nprime = cfg.nprime if cfg.nprime is not None else choose_dimension(cfg.k, params)
    B = difference_set(params, np.asarray(A, dtype=np.int64))
    mean = g.mean()
    floor = density_floor(params, cfg.k)
    density_ok = mean >= floor
    if not density_ok and warn:
        warnings.warn(
            f"E(g)={mean:.6g} below the density floor {floor:.6g}; "
            "the coset-density guarantee does not apply",
            stacklevel=2,
        )
    rejections = {"separation": 0, "coset_density": 0, "direct_sum": 0}
    for attempt in range(1, cfg.max_attempts + 1):
        W = sample_uniform_subspace(params, nprime, rng)
        V = W.complement()
        if not W.intersects_trivially(V):
            rejections["direct_sum"] += 1
            continue
        if V.contains_any_nonzero(B):
            rejections["separation"] += 1
            continue
        T = dense_translates(g, W, mean)
        if T.size < params.F / 4.0:
            rejections["coset_density"] += 1
            continue
        return GoodSubspace(W, V, T, attempt, rejections, density_ok)
    raise FinderBudgetError(
        f"no good subspace in {cfg.max_attempts} attempts (rejections: {rejections})",
        rejections,
    )


@dataclass(frozen=True)
class ConditionEstimates:
    """Monte-Carlo (or exhaustive) frequencies of the finder's two events."""

    p_separation: float | None
    p_separation_stderr: float | None
    p_coset_density: float | None
    p_coset_density_stderr: float | None
    trials: int
    exhaustive: bool


def _frequency(hits: int, total: int, exhaustive: bool) -> tuple[float, float]:
    frac = hits / total
    stderr = 0.0 if exhaustive else math.sqrt(max(frac * (1 - frac), 0.0) / total)
    return frac, stderr


def estimate_condition_probabilities(
    params: FieldParams,
    nprime: int,
    A: np.ndarray | None = None,
    g: DenseFunction | None = None,
    trials: int = 1000,
    rng: np.random.Generator | None = None,
    exhaustive: bool = False,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ConditionEstimates:
    """Estimate P(separation) for A and/or P(coset density) for g.

    Exhaustive mode enumerates every W of dimension nprime (and every
    translate t for the density event) and returns exact frequencies.
    """
    if A is None and g is None:
        raise ValueError("provide A, g, or both")
    if g is not None:
        g.params.same_as(params)
    B = difference_set(params, np.asarray(A, dtype=np.int64)) if A is not None else None
    p_sep = se_sep = p_den = se_den = None
    if exhaustive:
        spaces = enumerate_subspaces(params, nprime, cap=cap)
        if B is not None:
            hits = sum(1 for W in spaces if not W.complement().contains_any_nonzero(B))
            p_sep, se_sep = _frequency(hits, len(spaces), True)
        if g is not None:
            mean = g.mean()
            hits = total = 0
            for W in spaces:
                T = dense_translates(g, W, mean)
                hits += int(T.size)
                total += params.F
            p_den, se_den = _frequency(hits, total, True)
        trials_used = len(spaces)
    else:
        if rng is None:
            raise ValueError("sampled mode needs an rng")
        mean = g.mean() if g is not None else None
        sep_hits = den_hits = 0
        for _ in range(trials):
            W = sample_uniform_subspace(params, nprime, rng)
            if B is not None and not W.complement().contains_any_nonzero(B):
                sep_hits += 1
            if g is not None:
                t = int(rng.integers(params.F))
                reps, sums = coset_sums(g, W)
                threshold = mean * W.size / 2.0 - COSET_SUM_TOLERANCE
                if sums[reps[t]] >= threshold:
                    den_hits += 1
        if B is not None:
            p_sep, se_sep = _frequency(sep_hits, trials, False)
        if g is not None:
            p_den, se_den = _frequency(den_hits, trials, False)
        trials_used = trials
    return ConditionEstimates(p_sep, se_sep, p_den, se_den, trials_used, exhaustive)


@dataclass(frozen=True)
class CosetMoments:
    """Moments of X = sum_{m in t+W} g(m) over uniform (t, W)."""

    mean: float
    variance: float
    mean_identity: float  # p^nprime * E(g); the exact expectation
    variance_bound: float  # p^nprime
    trials: int
    exhaustive: bool


def chebyshev_moments(
    g: DenseFunction,
    nprime: int,
    trials: int = 1000,
    rng: np.random.Generator | None = None,
    exhaustive: bool = False,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> CosetMoments:
    """First and second moments of the coset sum X; E(X) = p^nprime E(g) exactly
    and Var(X) <= p^nprime for g taking values in [0, 1]."""
    params = g.params
    size = params.p**nprime
    if exhaustive:
        spaces = enumerate_subspaces(params, nprime, cap=cap)
        blocks = []
        for W in spaces:
            reps, sums = coset_sums(g, W)
            blocks.append(sums[reps])
        samples = np.concatenate(blocks)
        trials_used = samples.size
    else:
        if rng is None:
            raise ValueError("sampled mode needs an rng")
        vals = []
        for _ in range(trials):
            W = sample_uniform_subspace(params, nprime, rng)
            reps, sums = coset_sums(g, W)
            t = int(rng.integers(params.F))
            vals.append(sums[reps[t]])
        samples = np.array(vals)
        trials_used = trials
    mean = float(samples.mean())
    variance = float(samples.var())
    return CosetMoments(mean, variance, size * g.mean(), float(size), trials_used, exhaustive)

"""Random search for a subspace W whose orthocomplement separates the top
spectrum and whose cosets still carry their share of g's mass.

An attempt draws W uniform of dimension nprime and accepts when three
conditions hold: (separation) the complement V = W-perp meets the difference
set of the top places only in 0; (coset density) the cosets t + W with
sum_{m in t+W} g(m) >= E(g) |W| / 2 cover at least F/4 translates t;
(direct sum) W and V meet only in 0, so every element splits uniquely as
v + w.  The first two events each hold
with probability > 1/2 resp. > 3/4 when the density hypothesis E(g) >
8 p^(-1/2) k^(-1) is met, so rejection sampling terminates quickly.  Below
the hypothesis the finder proceeds all the same and the attempt budget does
the guarding; check_hypotheses and run_depletion report the shortfall.

All three tests read coset labels (Subspace.labels): V.labels() names the
cosets of W, W.labels(x) is 0 exactly when x lies in V, and W meets V only
in 0 exactly when W.labels is injective on W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import pair_count
from .field import (
    DEFAULT_ENUMERATION_CAP,
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


def coset_sums(g: DenseFunction, V: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """(labels, sums) for the cosets of W = V-perp: labels[x] = V.labels(x)
    names the coset x + W and sums[labels[x]] is the total of g over it."""
    labels = V.labels()
    return labels, np.bincount(labels, weights=g.values, minlength=V.size)


def coset_sum(values: np.ndarray, coset: np.ndarray) -> float:
    """The total of values over one coset, given as ascending indices.

    The terms are added one at a time in ascending index order, the order in
    which np.bincount accumulates them in coset_sums, so both give the same
    float; ndarray.sum() adds pairwise and can differ in the last bit.
    """
    return float(np.add.accumulate(values[coset])[-1])


def is_dense(total, mean: float, size: int):
    """The coset-density rule: a coset of size |W| is dense when it carries at
    least E(g) |W| / 2 of mass.  Elementwise on arrays of totals."""
    return total >= mean * size / 2.0 - COSET_SUM_TOLERANCE


def separates(W: Subspace, B: np.ndarray) -> bool:
    """The separation event: V = W-perp holds no nonzero b in B."""
    return not (W.labels(B[B != 0]) == 0).any()


@dataclass(frozen=True)
class GoodSubspace:
    W: Subspace
    V: Subspace
    dense: np.ndarray  # by coset label: does that W-coset carry E(g) |W| / 2 of g's mass?
    coset_labels: np.ndarray  # V.labels() over all of F: x + W is named by coset_labels[x]
    attempts: int
    rejections: dict


def find_good_subspace(
    A: np.ndarray,
    g: DenseFunction,
    rng: np.random.Generator,
    nprime: int | None = None,
    max_attempts: int = 256,
) -> GoodSubspace:
    """Rejection-sample W until separation, coset density, and directness hold.

    W has dimension nprime, by default choose_dimension(len(A)).
    """
    params = g.params
    if nprime is None:
        nprime = choose_dimension(len(A), params)
    B = difference_set(params, np.asarray(A, dtype=np.int64))
    mean = g.mean()
    rejections = {"separation": 0, "coset_density": 0, "direct_sum": 0}
    for attempt in range(1, max_attempts + 1):
        W = sample_uniform_subspace(params, nprime, rng)
        V = W.complement()
        if np.unique(W.labels(W.members())).size < W.size:
            rejections["direct_sum"] += 1
            continue
        if not separates(W, B):
            rejections["separation"] += 1
            continue
        labels, sums = coset_sums(g, V)
        dense = is_dense(sums, mean, W.size)
        if dense.sum() * W.size < params.F / 4.0:
            rejections["coset_density"] += 1
            continue
        return GoodSubspace(W, V, dense, labels, attempt, rejections)
    raise FinderBudgetError(
        f"no good subspace in {max_attempts} attempts (rejections: {rejections})",
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


def _sample_cosets(
    params: FieldParams,
    nprime: int,
    g: DenseFunction | None,
    trials: int,
    rng: np.random.Generator | None,
    exhaustive: bool,
    cap: int,
) -> tuple[list[Subspace], np.ndarray | None]:
    """The subspaces W drawn and, when g is given, the coset sums X(W, t).

    Exhaustive mode takes every W of dimension nprime and every t in F, so X
    holds F sums per W, W-major.  Sampled mode draws W and then t for each
    trial, reading only the coset t + W; it draws no t when g is None.
    """
    if exhaustive:
        spaces = enumerate_subspaces(params, nprime, cap=cap)
        if g is None:
            return spaces, None
        blocks = []
        for W in spaces:
            labels, sums = coset_sums(g, W.complement())
            blocks.append(sums[labels])
        return spaces, np.concatenate(blocks)
    if rng is None:
        raise ValueError("sampled mode needs an rng")
    spaces, sums = [], []
    for _ in range(trials):
        W = sample_uniform_subspace(params, nprime, rng)
        spaces.append(W)
        if g is not None:
            sums.append(coset_sum(g.values, W.coset(int(rng.integers(params.F)))))
    return spaces, None if g is None else np.array(sums)


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
    spaces, X = _sample_cosets(params, nprime, g, trials, rng, exhaustive, cap)
    p_sep = se_sep = p_den = se_den = None
    if B is not None:
        hits = sum(1 for W in spaces if separates(W, B))
        p_sep, se_sep = _frequency(hits, len(spaces), exhaustive)
    if g is not None:
        hits = int(np.count_nonzero(is_dense(X, g.mean(), params.p**nprime)))
        p_den, se_den = _frequency(hits, X.size, exhaustive)
    return ConditionEstimates(p_sep, se_sep, p_den, se_den, len(spaces), exhaustive)


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
    size = g.params.p**nprime
    _, X = _sample_cosets(g.params, nprime, g, trials, rng, exhaustive, cap)
    return CosetMoments(
        float(X.mean()), float(X.var()), size * g.mean(), float(size), X.size, exhaustive
    )

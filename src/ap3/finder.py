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

All three tests read coset labels.  W.labels is linear with kernel V, so
each of the direct-sum and the separation test asks that W.labels be
injective: on W for the first, on A for the second.  On the member c.B of W,
W.labels reads B B^T c, so the direct-sum test asks that c -> B B^T c be
injective on F_p^nprime (direct_sums); the separation test is separating.
Both read W alone, so a CandidateStream draws W one at a time from the rng
and decides them for a block of draws with stacked calls (screen), blocks
doubling up to about BLOCK_ENTRIES labels.  For the W that pass both, one
params.dots call gives coset_labels: x + W is named by the digits of x
reduced by W's RREF basis at its free columns, a renumbering of the cosets
V.labels() names.  find_good_subspace reads the stream and runs only the
density test, one bincount of g, per attempt.  run_depletion opens one stream
per run and every finder call reads from it, so the W sequence, the attempts
and the rejections are those of drawing one W per attempt.
Subspace.is_direct, separates (the one-subspace case of separating) and
Subspace.complement().labels() are the per-subspace oracles of the stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    FieldParams,
    InfeasibleError,
    Subspace,
    basis_labels,
    coset_labels,
    coset_table,
    direct_sums,
    enumerate_bases,
    gaussian_binomial,
    sample_uniform_bases,
)
from .spectral import DenseFunction

COSET_SUM_TOLERANCE = 1e-12
DEFAULT_MAX_ATTEMPTS = 256
# The lemma estimator scores its cosets in blocks of about this many coset
# members, so a block's tables stay small and only X grows with the sample;
# a CandidateStream labels at most this many elements (or one W) per block.
BLOCK_ENTRIES = 2**14
# Exhaustive X holds one float per coset of every enumerated W; the estimator
# refuses before enumerating when that exceeds this many floats (256 MB).
EXHAUSTIVE_X_FLOATS = 2**25


class FinderBudgetError(RuntimeError):
    """Rejection sampling exhausted its attempt budget."""

    def __init__(self, message: str, rejections: dict):
        super().__init__(message)
        self.rejections = rejections


def choose_dimension(k: int, params: FieldParams) -> int:
    """Smallest nprime >= 1 with p^(nprime - 1) >= C(k, 2); raises
    InfeasibleError when that nprime exceeds n.

    Integer arithmetic throughout: the defining condition nprime >= 1 +
    log_p(C(k, 2)) is exactly p^(nprime - 1) >= C(k, 2), which avoids float
    boundary errors when C(k, 2) is a power of p.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pairs = math.comb(k, 2)
    e = 0
    while params.p**e < pairs:
        e += 1
    nprime = 1 + e
    if nprime > params.n:
        raise InfeasibleError(
            f"k={k} needs dimension {nprime} > n={params.n}; the field is too small"
        )
    return nprime


def coset_sum(values: np.ndarray, cosets: np.ndarray):
    """The total of values over each coset, given as ascending indices along
    the last axis: a float for one coset, an array for a table of them.

    The terms are added one at a time in ascending index order, the order in
    which np.bincount accumulates a coset's terms over its labels, so both give
    the same float; ndarray.sum() adds pairwise and can differ in the last bit.
    """
    sums = np.add.accumulate(values[cosets], axis=-1)[..., -1]
    return float(sums) if sums.ndim == 0 else sums


def is_dense(total, mean: float, size: int):
    """The coset-density rule: a coset of size |W| is dense when it carries at
    least E(g) |W| / 2 of mass.  Elementwise on arrays of totals."""
    return total >= mean * size / 2.0 - COSET_SUM_TOLERANCE


def separating(params: FieldParams, bases: np.ndarray, A: np.ndarray):
    """The separation event for distinct places A, for each basis stacked in
    bases: V = W-perp holds no nonzero a - b, that is W.labels (linear, with
    kernel V) is injective on A, so the sorted labels of A have no two equal
    neighbours.  A bool for one (dim, n) basis, an array for a stack."""
    labels = np.sort(basis_labels(params, bases, A), axis=-1)
    return ~(labels[..., 1:] == labels[..., :-1]).any(axis=-1)


def separates(W: Subspace, A: np.ndarray) -> bool:
    """separating for the one subspace W: the oracle the finder's stacked
    separation test is checked against."""
    return bool(separating(W.params, W.matrix, A))


def screen(params: FieldParams, bases: np.ndarray, A: np.ndarray):
    """The finder's two tests that do not read g, on each basis stacked in
    bases, and the coset labels of the bases that pass both: (direct,
    separated, labels), with labels[j] the coset_labels of the j-th passing
    basis in stack order."""
    direct = direct_sums(params, bases)
    separated = separating(params, bases, A)
    return direct, separated, coset_labels(params, bases[direct & separated])


class CandidateStream:
    """The finder's candidate subspaces for one run, in the order the rng
    draws them.  next(stream) gives (basis, the first g-free test the W fails
    or None, and its coset labels when it passes both).

    Each W is one sample_uniform_bases(params, nprime, 1, rng) draw, the one
    sample_uniform_subspace makes, so the stream reads the rng as a finder
    drawing one W per attempt would, and a draw it has tested but not yet
    handed out waits for the next find_good_subspace call.  The draws are
    screened a block at a time, blocks doubling from 1 up to max(1,
    BLOCK_ENTRIES // F) candidates, so a run that needs one W draws about
    one.
    """

    def __init__(
        self,
        params: FieldParams,
        A: np.ndarray,
        rng: np.random.Generator,
        nprime: int | None = None,
    ):
        self.params = params
        self.nprime = choose_dimension(len(A), params) if nprime is None else nprime
        self._candidates = self._screened(np.asarray(A, dtype=np.int64), rng)

    def __next__(self) -> tuple[np.ndarray, str | None, np.ndarray | None]:
        return next(self._candidates)

    def _screened(self, A: np.ndarray, rng: np.random.Generator):
        params, block = self.params, 1
        while True:
            draws = [sample_uniform_bases(params, self.nprime, 1, rng) for _ in range(block)]
            bases = np.concatenate(draws)
            direct, separated, labels = screen(params, bases, A)
            passed = iter(labels)
            for basis, is_direct, is_separated in zip(bases, direct.tolist(), separated.tolist()):
                if not is_direct:
                    yield basis, "direct_sum", None
                elif not is_separated:
                    yield basis, "separation", None
                else:
                    yield basis, None, next(passed)
            block = min(2 * block, max(1, BLOCK_ENTRIES // params.F))


@dataclass(frozen=True)
class GoodSubspace:
    W: Subspace
    dense: np.ndarray  # by coset label: does that W-coset carry E(g) |W| / 2 of g's mass?
    coset_labels: np.ndarray  # over all of F: x + W is named by coset_labels[x]
    attempts: int
    rejections: dict


def find_good_subspace(
    stream: CandidateStream, g: np.ndarray, max_attempts: int = DEFAULT_MAX_ATTEMPTS
) -> GoodSubspace:
    """The first of the next max_attempts candidates of stream that passes
    directness, separation and coset density for the values g, or
    FinderBudgetError.  Only the density test, one bincount of g over the
    candidate's labels, runs here per attempt."""
    params, size = stream.params, stream.params.p**stream.nprime
    mean = float(g.mean())
    rejections = {"separation": 0, "coset_density": 0, "direct_sum": 0}
    for attempt in range(1, max_attempts + 1):
        basis, failed, labels = next(stream)
        if failed is not None:
            rejections[failed] += 1
            continue
        dense = is_dense(np.bincount(labels, weights=g, minlength=params.F // size), mean, size)
        if dense.sum() * size < params.F / 4.0:
            rejections["coset_density"] += 1
            continue
        W = Subspace(params, tuple(map(tuple, basis.tolist())))
        return GoodSubspace(W, dense, labels, attempt, rejections)
    raise FinderBudgetError(
        f"no good subspace in {max_attempts} attempts (rejections: {rejections})",
        rejections,
    )


@dataclass(frozen=True)
class LemmaEstimates:
    """The finder's two lemmas read off one sample of (W, t): Monte-Carlo (or
    exhaustive) frequencies of separation and coset density, and the moments
    of the coset sum X = sum_{m in t+W} g(m) that bound the density event
    through Chebyshev's inequality.  The field names are the report keys."""

    separation: float
    separation_stderr: float
    coset_density: float
    coset_density_stderr: float
    moment_mean: float
    moment_mean_identity: float  # p^nprime * E(g); the exact expectation
    moment_variance: float
    moment_variance_bound: float  # p^nprime
    trials: int
    exhaustive: bool


def _frequency(hits: int, total: int, exhaustive: bool) -> tuple[float, float]:
    frac = hits / total
    stderr = 0.0 if exhaustive else math.sqrt(max(frac * (1 - frac), 0.0) / total)
    return frac, stderr


def chebyshev_moments(X: np.ndarray, mean: float, size: int) -> tuple[float, float, float, float]:
    """(E(X), |W| E(g), Var(X), |W|) for coset sums X of a g with mean E(g) over
    cosets of size |W|: E(X) = |W| E(g) exactly over uniform (W, t), and
    Var(X) <= |W| for g taking values in [0, 1]."""
    return float(X.mean()), size * mean, float(X.var()), float(size)


def estimate_condition_probabilities(
    nprime: int,
    A: np.ndarray,
    g: DenseFunction,
    trials: int = 1000,
    rng: np.random.Generator | None = None,
    exhaustive: bool = False,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> LemmaEstimates:
    """Estimate P(separation) for A, and P(coset density) and the moments of X
    for g, all from one sample.

    Sampled mode draws (W, t) for each trial and reads only the coset t + W.
    Exhaustive mode enumerates every W of dimension nprime and reads each of
    its cosets t + W once, W-major, t over the span of the unit vectors off
    W's pivot columns, so its frequencies are exact; it raises
    EnumerationCapError before enumerating when X would exceed
    EXHAUSTIVE_X_FLOATS.  Both work a block of W at a time: one table of the
    block's cosets gives X and one table of the labels of A gives separation.
    """
    params = g.params
    size = params.p**nprime
    if exhaustive:
        count, cosets = gaussian_binomial(params.n, nprime, params.p), params.F // size
        if count * cosets > EXHAUSTIVE_X_FLOATS:
            raise EnumerationCapError(
                f"exhaustive X of {count} subspaces x {cosets} cosets exceeds the budget "
                f"of {EXHAUSTIVE_X_FLOATS} floats"
            )
        spaces = enumerate_bases(params, nprime, cap=cap)
    elif rng is None:
        raise ValueError("sampled mode needs an rng")
    elif trials < 1:
        raise ValueError(f"trials must be a positive integer in sampled mode, got {trials}")
    else:
        count, cosets = trials, 1
    X, hits = np.empty(count * cosets), 0
    block = max(1, BLOCK_ENTRIES // (size * cosets))
    for start in range(0, count, block):
        if exhaustive:
            bases = spaces[start : start + block]
            pivots = (np.arange(params.n) == (bases != 0).argmax(axis=2)[..., None]).any(axis=1)
            off = np.eye(params.n, dtype=np.int64)[np.argsort(~pivots, axis=1)[:, nprime:]]
            translates = coset_table(params, off, [0] * len(bases)).ravel()
        else:
            bases = sample_uniform_bases(params, nprime, min(block, count - start), rng)
            translates = rng.integers(params.F, size=len(bases))
        table = coset_table(params, np.repeat(bases, cosets, axis=0), translates)
        X[start * cosets : (start + len(bases)) * cosets] = coset_sum(g.values, table)
        hits += int(np.count_nonzero(separating(params, bases, A)))
    separation = _frequency(hits, count, exhaustive)
    density = _frequency(int(np.count_nonzero(is_dense(X, g.mean(), size))), X.size, exhaustive)
    moments = chebyshev_moments(X, g.mean(), size)
    return LemmaEstimates(*separation, *density, *moments, count, exhaustive)

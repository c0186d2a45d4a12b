import numpy as np
import pytest

from ap3.field import FieldParams, Subspace, enumerate_bases, sample_uniform_subspace
from ap3.finder import (
    DEFAULT_MAX_ATTEMPTS,
    FinderBudgetError,
    GoodSubspace,
    is_dense,
    separates,
)
from ap3.spectral import DenseFunction


@pytest.fixture
def rng():
    return np.random.default_rng(0xA93)


def random_function(params: FieldParams, rng, unit_range: bool = True) -> DenseFunction:
    values = rng.random(params.F)
    return DenseFunction.make(params, values, unit_range=unit_range)


def lambda3_rolled(f1, f2, f3):
    """The brute double sum with one cyclic np.roll of each cube per d."""
    params = f1.params
    p, n, F = params.p, params.n, params.F
    axes = tuple(range(n))
    cube2 = f2.values.reshape((p,) * n)
    cube3 = f3.values.reshape((p,) * n)
    D = params.digit_table()
    total = 0.0
    for d in range(F):
        dd = D[d]
        shift2 = tuple(-int(x) for x in dd[::-1])
        shift3 = tuple(-int(2 * x % p) for x in dd[::-1])
        t2 = np.roll(cube2, shift=shift2, axis=axes).reshape(-1)
        t3 = np.roll(cube3, shift=shift3, axis=axes).reshape(-1)
        total += float(f1.values @ (t2 * t3))
    return total / F**2


def all_subspaces(params: FieldParams, dim: int) -> list[Subspace]:
    """enumerate_bases' stack as Subspace objects, in its order."""
    return [Subspace(params, tuple(map(tuple, b))) for b in enumerate_bases(params, dim).tolist()]


def coset_sums(g: DenseFunction, V: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """(labels, sums) for the cosets of W = V-perp: labels[x] = V.labels(x)
    names the coset x + W and sums[labels[x]] is the total of g over it.  The
    per-subspace oracle for the finder's coset_labels and its density sums."""
    labels = V.labels()
    return labels, np.bincount(labels, weights=g.values, minlength=V.size)


def reference_find(A, g, rng, nprime, max_attempts=DEFAULT_MAX_ATTEMPTS) -> GoodSubspace:
    """The per-attempt finder, an oracle for find_good_subspace's stream: one
    sample_uniform_subspace draw per attempt, tested by W.is_direct(),
    separates(W, A) and the coset sums over W.complement().labels(), for the
    values g.  Its coset labels are V.labels(), so its dense mask is the
    stream's up to a renumbering of the cosets."""
    params = g.params
    rejections = {"separation": 0, "coset_density": 0, "direct_sum": 0}
    for attempt in range(1, max_attempts + 1):
        W = sample_uniform_subspace(params, nprime, rng)
        if not W.is_direct():
            rejections["direct_sum"] += 1
            continue
        if not separates(W, A):
            rejections["separation"] += 1
            continue
        labels, sums = coset_sums(g, W.complement())
        dense = is_dense(sums, g.mean(), W.size)
        if dense.sum() * W.size < params.F / 4.0:
            rejections["coset_density"] += 1
            continue
        return GoodSubspace(W, dense, labels, attempt, rejections)
    raise FinderBudgetError(f"no good subspace in {max_attempts} attempts", rejections)


@pytest.fixture
def p33():
    return FieldParams(3, 3)


@pytest.fixture
def p52():
    return FieldParams(5, 2)

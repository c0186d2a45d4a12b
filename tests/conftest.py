import numpy as np
import pytest

from ap3.field import FieldParams, Subspace, enumerate_bases
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


@pytest.fixture
def p33():
    return FieldParams(3, 3)


@pytest.fixture
def p52():
    return FieldParams(5, 2)

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


def all_subspaces(params: FieldParams, dim: int) -> list[Subspace]:
    """enumerate_bases' stack as Subspace objects, in its order."""
    return [Subspace(params, tuple(map(tuple, b))) for b in enumerate_bases(params, dim).tolist()]


@pytest.fixture
def p33():
    return FieldParams(3, 3)


@pytest.fixture
def p52():
    return FieldParams(5, 2)

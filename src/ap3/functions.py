"""Constructors for the [0, 1]-valued test functions the pipeline studies."""

from __future__ import annotations

import numpy as np

from .field import FieldParams, check_same_params
from .spectral import DenseFunction, PaddedCube, idft


def indicator(params: FieldParams, members) -> DenseFunction:
    """The 0/1 indicator of a set of element indices, the one form a set takes."""
    idx = np.asarray(members)  # Python ints beyond int64 stay exact as objects
    params.check_elements(idx)
    values = np.zeros(params.F)
    values[idx.astype(np.int64)] = 1.0
    return DenseFunction.make(params, values)


def random_set(params: FieldParams, size: int, rng: np.random.Generator) -> DenseFunction:
    if not 0 <= size <= params.F:
        raise ValueError(f"set size {size} outside [0, {params.F}]")
    return indicator(params, rng.choice(params.F, size=size, replace=False))


def convolve_direct(f: DenseFunction, g: DenseFunction) -> DenseFunction:
    """O(F^2) convolution oracle: accumulate f(u) * g(. - u) over the support of f."""
    params = check_same_params(f, g)
    out = np.zeros((params.p,) * params.n)
    cube = PaddedCube(params, g.values)
    for u in np.flatnonzero(f.values):
        out += f.values[u] * cube.shifted((-params.digits_of(int(u))) % params.p)
    return DenseFunction.make(params, out)


def normalized_conv_power(S: DenseFunction, r: int) -> DenseFunction:
    """|S|^(1-r) times the r-fold convolution power of the indicator S.

    Values lie in [0, 1] and the spectrum is |S|^(1-r) * Shat^r pointwise.
    Powering the unit-normalized coefficients keeps every intermediate
    magnitude at most F, so no large-integer overflow can occur.
    """
    if r < 1:
        raise ValueError(f"convolution power must be >= 1, got {r}")
    size = S.values.sum()  # an exact integer, so the coefficients match an int |S|
    if size == 0:
        raise ValueError("conv power of the empty set is undefined under |S|^(1-r) scaling")
    shat = S.spectrum.coeffs
    coeffs = shat * (shat / size) ** (r - 1)
    return DenseFunction.make(S.params, idft(S.params, coeffs).values, unit_range=True)


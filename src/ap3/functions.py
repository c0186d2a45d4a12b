"""Constructors for the [0, 1]-valued test functions the pipeline studies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import FieldParams, check_same_params
from .spectral import DenseFunction, PaddedCube, idft


@dataclass(frozen=True)
class SetSpec:
    """A subset of F_p^n given by its sorted element indices."""

    params: FieldParams
    members: tuple[int, ...]

    @classmethod
    def make(cls, params: FieldParams, members) -> "SetSpec":
        idx = sorted({int(m) for m in members})
        for m in idx:
            params._check_element(m)
        return cls(params, tuple(idx))

    @property
    def size(self) -> int:
        return len(self.members)

    def indicator(self) -> DenseFunction:
        values = np.zeros(self.params.F)
        values[list(self.members)] = 1.0
        return DenseFunction.make(self.params, values, unit_range=True)


def random_set(params: FieldParams, size: int, rng: np.random.Generator) -> SetSpec:
    if not 0 <= size <= params.F:
        raise ValueError(f"set size {size} outside [0, {params.F}]")
    members = rng.choice(params.F, size=size, replace=False)
    return SetSpec.make(params, members)


def indicator(params: FieldParams, members) -> DenseFunction:
    return SetSpec.make(params, members).indicator()


def convolve_direct(f: DenseFunction, g: DenseFunction) -> DenseFunction:
    """O(F^2) convolution oracle: accumulate f(u) * g(. - u) over the support of f."""
    params = check_same_params(f, g)
    out = np.zeros((params.p,) * params.n)
    cube = PaddedCube(params, g.values)
    for u in np.flatnonzero(f.values):
        out += f.values[u] * cube.shifted((-params.digits_of(int(u))) % params.p)
    return DenseFunction.make(params, out)


def normalized_conv_power(S: SetSpec, r: int) -> DenseFunction:
    """|S|^(1-r) times the r-fold convolution power of the indicator of S.

    Values lie in [0, 1] and the spectrum is |S|^(1-r) * Shat^r pointwise.
    Powering the unit-normalized coefficients keeps every intermediate
    magnitude at most F, so no large-integer overflow can occur.
    """
    if r < 1:
        raise ValueError(f"convolution power must be >= 1, got {r}")
    if S.size == 0:
        raise ValueError("conv power of the empty set is undefined under |S|^(1-r) scaling")
    params = S.params
    shat = S.indicator().spectrum.coeffs
    coeffs = shat * (shat / S.size) ** (r - 1)
    return DenseFunction.make(params, idft(params, coeffs).values, unit_range=True)


def minorant_restrict(
    f: DenseFunction,
    members=None,
    threshold: float | None = None,
) -> DenseFunction:
    """The minorant that keeps f on the given set (or where f >= threshold) and is 0 elsewhere."""
    if (members is None) == (threshold is None):
        raise ValueError("provide exactly one of members or threshold")
    if members is not None:
        mask = np.zeros(f.params.F, dtype=bool)
        mask[np.asarray(list(members), dtype=np.int64)] = True
    else:
        mask = f.values >= threshold
    return DenseFunction.make(f.params, np.where(mask, f.values, 0.0))

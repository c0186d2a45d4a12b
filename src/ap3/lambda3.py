"""Three-term progression density and the pair counts behind its certificates.

Lambda3(f1, f2, f3) = F^(-2) sum_{m, d} f1(m) f2(m+d) f3(m+2d).  The brute
evaluator walks every difference d; the spectral evaluator uses the identity
Lambda3 = F^(-3) sum_a f1hat(a) f2hat(-2a) f3hat(a).  For p = 3 the index map
a -> -2a is the identity, so the pairing there looks degenerate but is correct.
"""

from __future__ import annotations

import numpy as np

from .field import FieldParams, check_same_params
from .spectral import DenseFunction, PaddedCube, Spectrum, idft

AGREEMENT_TOLERANCE = 1e-8
BRUTE_FORCE_LIMIT = 20_000


def scale_table(params: FieldParams, c: int) -> np.ndarray:
    """Index map a -> c a; c = -2 gives the partner of a in the spectral identity.

    Scaling acts digit by digit, so the map is the index cube (p,)*n with the
    digit permutation k -> c k mod p taken along each axis in turn.
    """
    perm = (c * np.arange(params.p)) % params.p
    table = np.arange(params.F, dtype=np.int64).reshape((params.p,) * params.n)
    for axis in range(params.n):
        table = np.take(table, perm, axis=axis)
    return table.reshape(-1)


def lambda3_brute(f1: DenseFunction, f2: DenseFunction, f3: DenseFunction) -> float:
    """Exact double sum over all (m, d) pairs; cost O(F^2).

    Each d reads f2(m + d) and f3(m + 2d) as shifted views of padded cubes.
    """
    params = check_same_params(f1, f2, f3)
    cube2 = PaddedCube(params, f2.values)
    cube3 = cube2 if f3 is f2 else PaddedCube(params, f3.values)
    base = f1.values
    D = params.digit_table()
    total = 0.0
    for dd, dd2 in zip(D, (2 * D) % params.p):
        total += float(base @ (cube2.shifted(dd) * cube3.shifted(dd2)).reshape(-1))
    return total / params.F**2


def lambda3_spectral(f1: DenseFunction, f2: DenseFunction, f3: DenseFunction) -> float:
    """F^(-3) sum_a f1hat(a) f2hat(-2a) f3hat(a); imaginary part must vanish."""
    params = check_same_params(f1, f2, f3)
    c2 = f2.spectrum.coeffs[scale_table(params, -2)]
    total = complex(np.sum(f1.spectrum.coeffs * c2 * f3.spectrum.coeffs))
    if abs(total.imag) > AGREEMENT_TOLERANCE * max(abs(total.real), 1.0):
        raise ValueError(f"spectral Lambda3 has imaginary residue {total.imag}")
    return total.real / params.F**3


def diagonal_weight(f1: DenseFunction, f2: DenseFunction, f3: DenseFunction) -> float:
    """The d = 0 contribution sum_m f1(m) f2(m) f3(m) to F^2 * Lambda3."""
    check_same_params(f1, f2, f3)
    return float(np.sum(f1.values * f2.values * f3.values))


def pair_table(spectrum: Spectrum, ordering: str) -> np.ndarray:
    """The pair count of f at every m, from one inverse transform of its spectrum.

    fgf (midpoint): P(m) = sum_d f(m-d) f(m+d) = (f*f)(2m).
    gff (endpoint): E(m) = sum_d f(m+d) f(m+2d) = F^(-1) sum_a fhat(a) fhat(-2a) w^(a.m).
    sum_m g(m) P(m) = F^2 Lambda3(f, g, f) and sum_m g(m) E(m) = F^2 Lambda3(g, f, f).
    midpoint_pair_count and endpoint_pair_count are the direct oracles.
    """
    params = spectrum.params
    c = spectrum.coeffs
    if ordering == "fgf":
        return idft(params, c * c).values[scale_table(params, 2)]
    if ordering == "gff":
        return idft(params, c * c[scale_table(params, -2)]).values[scale_table(params, -1)]
    raise ValueError(f"unknown ordering {ordering!r}")


def midpoint_pair_count(f: DenseFunction, m: int) -> float:
    """sum_d f(m-d) f(m+d), counted directly; the oracle for pair_table(., "fgf")."""
    return _pair_count(f, m, -1, 1)


def endpoint_pair_count(f: DenseFunction, m: int) -> float:
    """sum_d f(m+d) f(m+2d), counted directly; the oracle for pair_table(., "gff")."""
    return _pair_count(f, m, 1, 2)


def _pair_count(f: DenseFunction, m: int, a: int, b: int) -> float:
    """sum_d f(m + a d) f(m + b d), counted directly."""
    params = f.params
    D = params.digit_table()
    dm = params.digits_of(m)
    first, second = (params.indices_of((dm[None, :] + c * D) % params.p) for c in (a, b))
    return float(f.values[first] @ f.values[second])


def trivial_lower_bound(f: DenseFunction) -> float:
    """Lambda3(f) >= E(f)^3 / F for f taking values in [0, 1].

    The d = 0 diagonal alone gives F^(-2) sum_m f(m)^3 >= F^(-2) * F * E(f)^3
    by the power-mean inequality.
    """
    return f.mean() ** 3 / f.params.F

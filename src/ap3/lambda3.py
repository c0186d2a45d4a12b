"""Three-term progression density and the pair counts behind its certificates.

Lambda3(f1, f2, f3) = F^(-2) sum_{m, d} f1(m) f2(m+d) f3(m+2d).  The brute
evaluator walks every difference d; the spectral evaluator uses the identity
Lambda3 = F^(-3) sum_a f1hat(a) f2hat(-2a) f3hat(a).  For p = 3 the index map
a -> -2a is the identity, so the pairing there looks degenerate but is correct.
"""

from __future__ import annotations

import numpy as np

from .field import FieldParams, check_same_params
from .spectral import DenseFunction, Spectrum, dft, _root_powers

AGREEMENT_TOLERANCE = 1e-8
BRUTE_FORCE_LIMIT = 20_000


def _as_triple(f1, f2=None, f3=None):
    if f2 is None and f3 is None:
        return f1, f1, f1
    if f2 is None or f3 is None:
        raise ValueError("provide one function or all three")
    return f1, f2, f3


def neg_double_table(params: FieldParams) -> np.ndarray:
    """Index map a -> -2a, the partner of a in the spectral identity."""
    D = params.digit_table()
    return params.indices_of((-2 * D) % params.p)


def lambda3_brute(f1: DenseFunction, f2=None, f3=None) -> float:
    """Exact double sum over all (m, d) pairs; cost O(F^2)."""
    f1, f2, f3 = _as_triple(f1, f2, f3)
    params = check_same_params(f1, f2, f3)
    p, n, F = params.p, params.n, params.F
    axes = tuple(range(n))
    cube2 = f2.values.reshape((p,) * n)
    cube3 = f3.values.reshape((p,) * n)
    base = f1.values
    D = params.digit_table()
    total = 0.0
    for d in range(F):
        dd = D[d]
        shift2 = tuple(-int(x) for x in dd[::-1])
        shift3 = tuple(-int(2 * x % p) for x in dd[::-1])
        t2 = np.roll(cube2, shift=shift2, axis=axes).reshape(-1)
        t3 = np.roll(cube3, shift=shift3, axis=axes).reshape(-1)
        total += float(base @ (t2 * t3))
    return total / F**2


def lambda3_spectral(f1: DenseFunction, f2=None, f3=None) -> float:
    """F^(-3) sum_a f1hat(a) f2hat(-2a) f3hat(a); imaginary part must vanish."""
    f1, f2, f3 = _as_triple(f1, f2, f3)
    params = check_same_params(f1, f2, f3)
    coeffs = {}
    for fn in (f1, f2, f3):
        if fn not in coeffs:
            coeffs[fn] = dft(fn).coeffs
    c1 = coeffs[f1]
    c2 = coeffs[f2][neg_double_table(params)]
    c3 = coeffs[f3]
    total = complex(np.sum(c1 * c2 * c3))
    if abs(total.imag) > AGREEMENT_TOLERANCE * max(abs(total.real), 1.0):
        raise ValueError(f"spectral Lambda3 has imaginary residue {total.imag}")
    return total.real / params.F**3


def diagonal_weight(f1: DenseFunction, f2=None, f3=None) -> float:
    """The d = 0 contribution sum_m f1(m) f2(m) f3(m) to F^2 * Lambda3."""
    f1, f2, f3 = _as_triple(f1, f2, f3)
    check_same_params(f1, f2, f3)
    return float(np.sum(f1.values * f2.values * f3.values))


def midpoint_pair_count(f: DenseFunction, m: int, method: str = "direct") -> float:
    """sum_d f(m-d) f(m+d); equals the autoconvolution (f*f)(2m)."""
    params = f.params
    params._check_element(m)
    if method == "direct":
        D = params.digit_table()
        dm = params.digits_of(m)
        plus = params.indices_of((dm[None, :] + D) % params.p)
        minus = params.indices_of((dm[None, :] - D) % params.p)
        return float(f.values[minus] @ f.values[plus])
    if method == "spectral":
        coeffs = dft(f).coeffs
        D = params.digit_table()
        exps = (2 * (D @ params.digits_of(m))) % params.p
        phases = _root_powers(params.p).conj()[exps]
        total = complex(np.sum(coeffs**2 * phases)) / params.F
        return total.real
    raise ValueError(f"unknown method {method!r}")


def endpoint_pair_count(f: DenseFunction, m: int, method: str = "direct") -> float:
    """sum_d f(m+d) f(m+2d): progression weight with m as the first point.

    Spectrally this is F^(-1) sum_a fhat(a) fhat(-2a) w^(a.m), the same
    coefficient pairing the spectral Lambda3 identity uses.
    """
    params = f.params
    params._check_element(m)
    if method == "direct":
        D = params.digit_table()
        dm = params.digits_of(m)
        plus = params.indices_of((dm[None, :] + D) % params.p)
        plus2 = params.indices_of((dm[None, :] + 2 * D) % params.p)
        return float(f.values[plus] @ f.values[plus2])
    if method == "spectral":
        coeffs = dft(f).coeffs
        paired = coeffs[neg_double_table(params)]
        D = params.digit_table()
        exps = (D @ params.digits_of(m)) % params.p
        phases = _root_powers(params.p)[exps]
        total = complex(np.sum(coeffs * paired * phases)) / params.F
        return total.real
    raise ValueError(f"unknown method {method!r}")


def trivial_lower_bound(f: DenseFunction) -> float:
    """Lambda3(f) >= E(f)^3 / F for f taking values in [0, 1].

    The d = 0 diagonal alone gives F^(-2) sum_m f(m)^3 >= F^(-2) * F * E(f)^3
    by the power-mean inequality.
    """
    return f.mean() ** 3 / f.params.F

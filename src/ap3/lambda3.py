"""Three-term progression density and the pair counts behind its certificates.

Lambda3(f1, f2, f3) = F^(-2) sum_{m, d} f1(m) f2(m+d) f3(m+2d).  The brute
evaluator multiplies out every (m, d) term; the spectral evaluator uses the
identity Lambda3 = F^(-3) sum_a f1hat(a) f2hat(-2a) f3hat(a).  For p = 3 the
index map a -> -2a is the identity, so the pairing there looks degenerate but
is correct.
"""

from __future__ import annotations

import numpy as np

from .field import FieldParams, _digit_table, _power_table, check_same_params
from .spectral import DenseFunction, Spectrum, idft

AGREEMENT_TOLERANCE = 1e-8
BRUTE_COST_LIMIT = 3**18  # lambda3_brute's loop at p = 3, n = 12: about 9 s on a 2-core VM


def check_brute_budget(params: FieldParams) -> None:
    """Refuse, allocating nothing, a field where lambda3_brute's loop, F values
    per column of T_hi, costs F * p^(n - n//2) > BRUTE_COST_LIMIT."""
    cost = params.F * params.p ** (params.n - params.n // 2)
    if cost > BRUTE_COST_LIMIT:
        raise ValueError(
            f"the brute oracle at p = {params.p}, n = {params.n} costs {cost}, over the "
            f"brute-force limit {BRUTE_COST_LIMIT}; lambda3 --method spectral skips it"
        )


def scale_table(params: FieldParams, c: int) -> np.ndarray:
    """Index map a -> c a; c = -2 gives the partner of a in the spectral identity.

    Scaling acts digit by digit through the permutation k -> c k mod p, so the
    table is built one digit at a time, lowest first: after digit i it maps
    every index below p^(i+1), and the passes write about F p / (p - 1) entries.
    """
    perm = (c * np.arange(params.p, dtype=np.int64)) % params.p
    table = np.zeros(1, dtype=np.int64)
    for i in range(params.n):
        table = (perm[:, None] * params.p**i + table[None, :]).reshape(-1)
    return table


def _difference_index(p: int, k: int, b: np.ndarray) -> np.ndarray:
    """T[a, j] = the index of 2a - b[j] in F_p^k, built digit by digit from the
    (p^k, k) digit table."""
    D = _digit_table(p, k)
    table = np.zeros((p**k, len(b)), dtype=np.int64)
    for i, power in enumerate(_power_table(p, k).tolist()):
        table += (2 * D[:, None, i] - D[None, b, i]) % p * power
    return table


def lambda3_brute(f1: DenseFunction, f2: DenseFunction, f3: DenseFunction) -> float:
    """Exact double sum over all (m, d) pairs; F^2 multiply-adds in O(F) memory.

    (m, d) -> (x, y) = (m + d, m + 2d) is a bijection of F^2 with m = 2x - y,
    so F^2 Lambda3 = sum_{x, y} f1(2x - y) f2(x) f3(y).  With lo = n // 2, an
    index splits into a high and a low digit half, values.reshape(p^(n-lo),
    p^lo) is the table V[x_hi, x_lo], and 2x - y splits the same way: its
    halves are T_hi[x_hi, y_hi] and T_lo[x_lo, y_lo].  For each high half z
    of 2x - y, y_hi = T_hi[x_hi, z], so the terms with that z are one matrix
    product: sum((V2 @ V1[z][T_lo]) * V3[T_hi[:, z]]), with T_hi built p^lo
    columns at a time.  Every one of the F^2 terms is still multiplied out;
    no transform, scale table or (F, n) digit table is read.
    """
    params = check_same_params(f1, f2, f3)
    p, lo, hi = params.p, params.n // 2, params.n - params.n // 2
    T_lo = _difference_index(p, lo, np.arange(p**lo))
    V1, V2, V3 = (f.values.reshape(p**hi, p**lo) for f in (f1, f2, f3))
    total = 0.0
    for block in np.arange(p**hi).reshape(-1, p**lo):
        for z, column in zip(block.tolist(), _difference_index(p, hi, block).T):
            total += float(np.sum((V2 @ V1[z][T_lo]) * V3[column]))
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


# The ordering's c in its pair count sum_d f(m+d) f(m+c d): -1 pairs the two
# ends of a progression around its midpoint, 2 the two points after its start.
PAIR_SCALES = {"fgf": -1, "gff": 2}


def pair_table(spectrum: Spectrum, ordering: str) -> np.ndarray:
    """The pair count of f at every m, from one inverse transform of its spectrum.

    With c = PAIR_SCALES[ordering], the count sum_d f(m+d) f(m+c d) equals
    F^(-1) sum_a fhat(a) fhat(-c a) w^(a.(1-c)m): the inverse transform of
    fhat(a) fhat(-c a), read at (1-c) m.
    sum_m g(m) table[m] is F^2 Lambda3(f, g, f) for fgf and F^2 Lambda3(g, f, f) for gff.
    midpoint_pair_count and endpoint_pair_count are the direct oracles.
    """
    if ordering not in PAIR_SCALES:
        raise ValueError(f"unknown ordering {ordering!r}")
    params, c, coeffs = spectrum.params, PAIR_SCALES[ordering], spectrum.coeffs
    return idft(params, coeffs * coeffs[scale_table(params, -c)]).values[scale_table(params, 1 - c)]


def midpoint_pair_count(f: DenseFunction, m: int) -> float:
    """sum_d f(m-d) f(m+d), counted directly; the oracle for pair_table(., "fgf")."""
    return _pair_count(f, m, -1)


def endpoint_pair_count(f: DenseFunction, m: int) -> float:
    """sum_d f(m+d) f(m+2d), counted directly; the oracle for pair_table(., "gff")."""
    return _pair_count(f, m, 2)


def _pair_count(f: DenseFunction, m: int, c: int) -> float:
    """sum_d f(m + d) f(m + c d), counted directly."""
    params = f.params
    D = params.digit_table()
    dm = params.digits_of(m)
    first, second = (params.indices_of((dm[None, :] + s * D) % params.p) for s in (1, c))
    return float(np.sum(f.values[first] * f.values[second]))


def trivial_lower_bound(f: DenseFunction) -> float:
    """Lambda3(f) >= E(f)^3 / F for f taking values in [0, 1].

    The d = 0 diagonal alone gives F^(-2) sum_m f(m)^3 >= F^(-2) * F * E(f)^3
    by the power-mean inequality.
    """
    return f.mean() ** 3 / f.params.F

"""Exact linear algebra over the group F_p^n of coordinate vectors mod p.

Group elements are encoded as integers in [0, p^n) via little-endian
base-p digits: digit i of the index is coordinate i.  Subspaces are
stored in reduced row echelon form over GF(p), so equal subspaces
compare (and hash) equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np


class ParameterError(ValueError):
    """Operands built over different field parameters."""


class InfeasibleError(ValueError):
    """No admissible subspace dimension exists for the request."""


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin: the prime bases up to 37 decide every
    m < 3.3 * 10^24, far beyond the 2^62 field-size limit."""
    if m < 2:
        return False
    if m in _WITNESSES:
        return True
    if any(m % a == 0 for a in _WITNESSES):
        return False
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def is_integral(value) -> bool:
    """An int or an integer-valued float, not a bool: what a JSON integer may parse to."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


@lru_cache(maxsize=64)
def _digit_table(p: int, n: int) -> np.ndarray:
    """All p^n digit vectors as an (F, n) int64 array, row m = digits of m."""
    table = (np.arange(p**n, dtype=np.int64)[:, None] // _power_table(p, n)) % p
    table.setflags(write=False)
    return table


@lru_cache(maxsize=64)
def _power_table(p: int, n: int) -> np.ndarray:
    powers = p ** np.arange(n, dtype=np.int64)
    powers.setflags(write=False)
    return powers


@dataclass(frozen=True)
class FieldParams:
    """Ambient group parameters: vectors of length n over GF(p), p an odd prime."""

    p: int
    n: int

    def __post_init__(self):
        if not is_prime(self.p) or self.p < 3:
            raise ValueError(f"p must be an odd prime >= 3, got {self.p}")
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        # p >= 3 makes p^n > 2^62 for every n > 62; refusing first spares computing p^n
        if self.n > 62 or self.p**self.n > 2**62:
            raise ValueError("p^n exceeds the supported desk scale")

    @property
    def F(self) -> int:
        return self.p**self.n

    def digit_table(self) -> np.ndarray:
        return _digit_table(self.p, self.n)

    def powers(self) -> np.ndarray:
        return _power_table(self.p, self.n)

    def dots(self, rows) -> np.ndarray:
        """row.x mod p for every x in F and every row, as an (F, r) array.

        With lo = n // 2, x = x_hi p^lo + x_lo splits into a low and a high
        digit half, so row.x is a sum of one term from each half: two
        half-width digit tables of about sqrt(F) rows stand in for the (F, n)
        table.
        """
        B = np.asarray(rows, dtype=np.int64).reshape(-1, self.n)
        lo = self.n // 2
        low = _digit_table(self.p, lo) @ B[:, :lo].T
        high = _digit_table(self.p, self.n - lo) @ B[:, lo:].T
        return ((high[:, None, :] + low[None, :, :]) % self.p).reshape(self.F, -1)

    def digits_of(self, indices) -> np.ndarray:
        """The n base-p digits of each index, in a new last axis: the one digits
        formula.  An index outside [0, F) is refused."""
        self.check_elements(indices)
        return np.asarray(indices, dtype=np.int64)[..., None] // self.powers() % self.p

    def indices_of(self, digit_rows: np.ndarray) -> np.ndarray:
        """The index of each digit vector along the last axis, digits taken mod p:
        the one index formula, the inverse of digits_of."""
        return (np.asarray(digit_rows, dtype=np.int64) % self.p) @ self.powers()

    def check_elements(self, indices) -> None:
        """Refuse an index or an array of element indices if any lies outside
        [0, F), naming the smallest such index."""
        idx = np.asarray(indices)
        outside = idx[(idx < 0) | (idx >= self.F)]
        if outside.size:
            raise ValueError(f"element index {int(outside.min())} outside [0, {self.F})")

    def same_as(self, other: "FieldParams") -> None:
        if self != other:
            raise ParameterError(f"mismatched field parameters {self} vs {other}")

    @classmethod
    def from_json_dict(cls, data) -> "FieldParams":
        """p and n from a JSON object; each must be an integer-valued number."""
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {type(data).__name__}")
        for key in ("p", "n"):
            if not is_integral(data.get(key)):
                raise ValueError(f"field {key!r} must be an integer, got {data.get(key)!r}")
        return cls(int(data["p"]), int(data["n"]))


def check_same_params(*objs) -> FieldParams:
    params = objs[0].params
    for o in objs[1:]:
        params.same_as(o.params)
    return params


def rref(matrix, p: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over GF(p).

    Returns the nonzero rows as a tuple of int tuples, the form Subspace.basis
    keeps; Subspace.pivots reads their pivot columns.  The elimination runs on
    Python int lists, which beat numpy row operations on the few short rows a
    subspace basis has.
    """
    M = np.asarray(matrix, dtype=np.int64) % p
    if M.ndim != 2:
        raise ValueError("rref expects a 2-d matrix")
    cols = M.shape[1]
    A = M.tolist()
    rows = len(A)
    r = 0
    for c in range(cols):
        for pivot_row in range(r, rows):
            if A[pivot_row][c]:
                break
        else:
            continue
        top = A[pivot_row]
        A[pivot_row] = A[r]
        if top[c] != 1:
            inv = pow(top[c], -1, p)
            top = [v * inv % p for v in top]
        A[r] = top
        for i in range(rows):
            factor = A[i][c]
            if factor and i != r:
                A[i] = [(v - factor * t) % p for v, t in zip(A[i], top)]
        r += 1
        if r == rows:
            break
    return tuple(map(tuple, A[:r]))


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over GF(p)."""
    if k < 0 or k > n:
        return 0
    num, den = 1, 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    assert num % den == 0
    return num // den


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of F_p^n, basis rows in reduced row echelon form."""

    params: FieldParams
    basis: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, params: FieldParams, rows) -> "Subspace":
        arr = np.atleast_2d(np.array(rows, dtype=np.int64)) % params.p
        if len(rows) == 0:  # no rows, not rows with no entries: [[]] is refused
            return cls(params, ())
        if arr.shape[1] != params.n:
            raise ValueError(f"basis rows must have length {params.n}")
        return cls(params, rref(arr, params.p))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return self.params.p**self.dim

    @property
    def matrix(self) -> np.ndarray:
        return np.array(self.basis, dtype=np.int64).reshape(self.dim, self.params.n)

    @property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each basis row: its first nonzero entry, since
        the basis is kept in reduced row echelon form."""
        return tuple(next(c for c, v in enumerate(row) if v) for row in self.basis)

    def labels(self) -> np.ndarray:
        """basis.x mod p read as a base-p integer in [0, p^dim), for every x in
        F; basis_labels labels chosen elements.  Labels agree exactly on the
        cosets of the orthogonal complement and are 0 exactly on it: for
        V = W-perp, V.labels() names every coset of W and W.labels() every
        coset of V.  With complement(), the oracle for coset_labels, which
        renumbers these cosets."""
        return self.params.dots(self.matrix) @ _power_table(self.params.p, self.dim)

    def reduce_digit_rows(self, digit_rows: np.ndarray) -> np.ndarray:
        """Eliminate this subspace from each digit row (one row is a one-row table):
        each result row is the canonical coset representative of its row.  An
        oracle path; the fast path names cosets by labels."""
        p = self.params.p
        R = np.atleast_2d(np.array(digit_rows, dtype=np.int64) % p)
        for row, c in zip(self.matrix, self.pivots):
            coef = R[:, c].copy()
            R = (R - coef[:, None] * row[None, :]) % p
        return R

    def contains(self, x: int) -> bool:
        return not self.reduce_digit_rows(self.params.digits_of(x)).any()

    def is_direct(self) -> bool:
        """Does F split as this subspace (+) its complement, that is do the two
        meet only in 0?  labels() reads B B^T c at the member c.B, so this is
        finder.separates(self, self.members()) decided on the dim x dim Gram
        matrix B B^T: it must be invertible mod p.  The oracle for
        direct_sums, the finder's stacked test."""
        B = self.matrix
        return len(rref(B @ B.T, self.params.p)) == self.dim

    def members(self) -> np.ndarray:
        """All element indices of the subspace, ascending."""
        return self.coset(0)

    def coset(self, t: int) -> np.ndarray:
        """Element indices of t + subspace, ascending: the one-row coset_table."""
        return coset_table(self.params, self.matrix[None], [t])[0]

    def coset_representatives(self) -> np.ndarray:
        """For every x in F, the index of the canonical representative of x + subspace.
        The oracle for complement().labels(), and a layer the benchmark times."""
        reduced = self.reduce_digit_rows(self.params.digit_table())
        return self.params.indices_of(reduced)

    def complement(self) -> "Subspace":
        """The orthogonal complement under the coordinate dot product: each free
        column f gives e_f with -B[i][f] at the pivot column of basis row i.
        An oracle: coset_labels reads these rows for a stack of bases without
        building the subspace."""
        p, n = self.params.p, self.params.n
        pivot_row = dict(zip(self.pivots, self.basis))
        rows = [
            [-pivot_row[c][f] % p if c in pivot_row else int(c == f) for c in range(n)]
            for f in range(n)
            if f not in pivot_row
        ]
        return Subspace.from_rows(self.params, rows)


def basis_labels(params: FieldParams, bases: np.ndarray, indices) -> np.ndarray:
    """Subspace.labels at the given indices for each basis stacked in bases:
    basis.x mod p read as a base-p integer, shape bases.shape[:-2] +
    indices.shape for a stack of (dim, n) bases and a 1-d indices; one basis
    takes indices of any shape.  An index outside [0, F) is refused."""
    digits = params.digits_of(indices)
    weights = _power_table(params.p, bases.shape[-2])
    return ((digits @ np.swapaxes(bases, -1, -2)) % params.p) @ weights


def direct_sums(params: FieldParams, bases: np.ndarray) -> np.ndarray:
    """Subspace.is_direct for each basis B stacked in a (T, dim, n) bases: the
    span meets its complement only in 0 when c -> B B^T c mod p, what
    Subspace.labels reads at the member c.B, is injective on F_p^dim, that is
    when c = 0 is the only c it maps to 0.  A (T,) bool array."""
    gram = bases @ np.swapaxes(bases, -1, -2) % params.p
    images = gram @ _digit_table(params.p, bases.shape[-2]).T % params.p  # column c: B B^T c
    return np.count_nonzero(~images.any(axis=-2), axis=-1) == 1


def coset_labels(params: FieldParams, bases: np.ndarray) -> np.ndarray:
    """For each RREF basis B stacked in a (T, dim, n) bases, a label in
    [0, p^(n - dim)) for every x in F naming the coset x + span(B): the digits
    of x reduced by B at B's free columns, read as a base-p integer.  A (T, F)
    array.

    Reducing x subtracts x[c_i] B_i for each pivot column c_i, so the digit
    at the free column f is x.(e_f - sum_i B_i[f] e_{c_i}): a row of
    Subspace.complement before its rref, whose kernel is span(B).  So the
    labels renumber the cosets complement().labels() names, and all T (n -
    dim) rows take one params.dots call.
    """
    n, (count, dim) = params.n, bases.shape[:2]
    pivots = (np.arange(n) == (bases != 0).argmax(axis=-1)[..., None]).astype(np.int64)
    free = np.argsort(pivots.any(axis=1), axis=1, kind="stable")[:, : n - dim]  # ascending
    at_free = np.take_along_axis(bases, free[:, None, :], axis=2)  # (T, dim, n - dim)
    rows = (np.arange(n) == free[..., None]) - np.swapaxes(at_free, 1, 2) @ pivots
    digits = params.dots(rows).reshape(params.F, count, n - dim)
    return np.ascontiguousarray((digits @ _power_table(params.p, n - dim)).T)


def coset_table(params: FieldParams, bases: np.ndarray, translates) -> np.ndarray:
    """Row i holds the element indices of translates[i] + span(bases[i]),
    ascending, for a (T, dim, n) stack of bases: a (T, p^dim) table.

    The digits of the members c.B + t are built as one (T, n, p^dim) array,
    so a caller that bounds T p^dim bounds it too, and read as indices by
    one product with the powers of p.
    """
    p = params.p
    coeffs = _digit_table(p, bases.shape[-2]).T  # (dim, p^dim): column c holds c's digits
    digits = np.swapaxes(bases, -1, -2) @ coeffs
    digits += params.digits_of(translates)[:, :, None]
    digits %= p
    table = params.powers() @ digits
    table.sort(axis=1)
    return table


@lru_cache(maxsize=64)
def echelon_patterns(p: int, n: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One (templates, masks, cdf) entry per pivot set P, in combinations order:
    P's pivot 1s as a (dim, n) matrix, its free entries (right of a pivot, outside
    the pivot columns) and its cumulative share of the p^free(P) fillings, a float
    (p^free overflows int64) ending at exactly 1.  Each subspace is one (P, filling)."""
    pivots = np.array(list(combinations(range(n), dim)), dtype=np.int64)[..., None]
    templates = (np.arange(n) == pivots).astype(np.int64)
    masks = (np.arange(n) > pivots) & ~templates.any(axis=1, keepdims=True)
    cumsum = np.cumsum(float(p) ** masks.sum(axis=(1, 2)))
    cdf = cumsum / cumsum[-1]
    for table in (templates, masks, cdf):
        table.setflags(write=False)
    return templates, masks, cdf


def sample_uniform_bases(
    params: FieldParams, dim: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """count uniform dim-dimensional subspaces as a (count, dim, n) stack of RREF
    bases: a pivot set drawn by its cdf share, its free entries filled uniformly."""
    if not 0 <= dim <= params.n:
        raise ValueError(f"dimension {dim} outside [0, {params.n}]")
    templates, masks, cdf = echelon_patterns(params.p, params.n, dim)
    j = np.searchsorted(cdf, rng.random(count), side="right")
    return templates[j] + masks[j] * rng.integers(0, params.p, size=(count, dim, params.n))


def sample_uniform_subspace(params: FieldParams, dim: int, rng: np.random.Generator) -> Subspace:
    """One uniformly random dim-dimensional subspace: sample_uniform_bases' one
    draw.  The oracle for the finder's CandidateStream, which makes the same
    draw per candidate."""
    (basis,) = sample_uniform_bases(params, dim, 1, rng).tolist()
    return Subspace(params, tuple(map(tuple, basis)))


def enumerate_bases(params: FieldParams, dim: int) -> np.ndarray:
    """All gaussian_binomial(n, dim, p) dim-dimensional subspaces as a (count,
    dim, n) RREF stack, pattern by pattern."""
    templates, masks, _ = echelon_patterns(params.p, params.n, dim)
    sizes = [params.p ** int(mask.sum()) for mask in masks]
    bases = np.repeat(templates, sizes, axis=0)
    for mask, block in zip(masks, np.split(bases, np.cumsum(sizes)[:-1])):
        block[:, mask] = _digit_table(params.p, int(mask.sum()))[:, ::-1]  # last entry fastest
    return bases

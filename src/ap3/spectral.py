"""Fourier analysis on F_p^n and the sorted-spectrum bookkeeping built on it.

Convention: fhat(a) = sum_m f(m) w^(a.m) with w = exp(2*pi*i/p) and a.m the
coordinate dot product mod p.  Inversion is f(m) = F^(-1) sum_a fhat(a) w^(-a.m).
The fast path, axis_transforms, transforms one digit per pass over a
contiguous (F/p, p) view; a naive O(F^2) evaluator written straight from the
definition serves as the independent oracle.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .field import FieldParams

IMAG_TOLERANCE = 1e-9


@lru_cache(maxsize=64)
def _root_powers(p: int) -> np.ndarray:
    """w^j for j in [0, p), from the exact angle 2*pi/p."""
    out = np.exp(2j * np.pi * np.arange(p) / p)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class DenseFunction:
    """A real-valued function on F_p^n, stored densely by element index."""

    params: FieldParams
    values: np.ndarray

    @classmethod
    def make(cls, params: FieldParams, values, unit_range: bool = False) -> "DenseFunction":
        arr = np.array(values, dtype=np.float64).reshape(-1)
        if arr.shape != (params.F,):
            raise ValueError(f"expected {params.F} values, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("function values must be finite")
        if unit_range:
            if arr.min() < -1e-9 or arr.max() > 1 + 1e-9:
                raise ValueError(
                    f"values outside [0, 1]: min={arr.min()}, max={arr.max()}"
                )
            np.clip(arr, 0.0, 1.0, out=arr)
        arr.setflags(write=False)
        return cls(params, arr)

    @classmethod
    def constant(cls, params: FieldParams, value: float) -> "DenseFunction":
        return cls.make(params, np.full(params.F, float(value)))

    @cached_property
    def spectrum(self) -> "Spectrum":
        """The transform of f, computed on first use; the values are read-only,
        so it cannot go stale."""
        return dft(self)

    def mean(self) -> float:
        return float(self.values.mean())

    def cube(self) -> np.ndarray:
        """The values reshaped to a (p,)*n cube; axis j holds digit n-1-j."""
        p, n = self.params.p, self.params.n
        return self.values.reshape((p,) * n)

    def to_json(self) -> str:
        data = {"p": self.params.p, "n": self.params.n, "values": self.values.tolist()}
        return json.dumps(data, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DenseFunction":
        data = json.loads(text)
        params = FieldParams.from_json_dict(data)
        raw = data["values"]
        values = np.array(raw)
        # numpy reads a bool among numbers as 0 or 1, so the elements are checked,
        # but only when the text could hold JSON's true or false: finding a 't'
        # or an 'f' is a memchr, while searching for the words costs as much as
        # the scan
        if (
            values.ndim != 1
            or values.dtype.kind not in "iuf"
            or (("t" in text or "f" in text) and bool in set(map(type, raw)))
        ):
            raise ValueError("'values' must be a flat list of numbers")
        return cls.make(params, values)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["index", "value"])
        for i, v in enumerate(self.values):
            writer.writerow([i, repr(float(v))])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, params: FieldParams, text: str) -> "DenseFunction":
        values = np.zeros(params.F)
        seen = np.zeros(params.F, dtype=bool)
        reader = csv.reader(io.StringIO(text))
        header = next(reader, [])
        if [h.strip().lower() for h in header[:2]] != ["index", "value"]:
            raise ValueError("expected CSV header 'index,value'")
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"CSV line {reader.line_num}: expected index,value")
            try:
                i, value = int(row[0]), float(row[1])
            except ValueError as exc:
                raise ValueError(f"CSV line {reader.line_num}: {exc}") from None
            if not 0 <= i < params.F:
                raise ValueError(f"CSV line {reader.line_num}: index {i} outside [0, {params.F})")
            if seen[i]:
                raise ValueError(f"CSV line {reader.line_num}: index {i} repeats")
            values[i] = value
            seen[i] = True
        if not seen.all():
            missing = int(np.flatnonzero(~seen)[0])
            raise ValueError(f"CSV is missing index {missing}")
        return cls.make(params, values)


class PaddedCube:
    """The values of f as a (p,)*n cube wrap-padded once to (2p-1,)*n, so that
    every translate m -> f(m + d) is a view of the padding, not a copy.

    Axis j holds digit n-1-j.  This is the one translate helper; its padding
    holds (2p-1)^n floats, about (2 - 1/p)^n times F, which many translates of
    one function repay, as in the O(F^2) oracles.
    """

    def __init__(self, params: FieldParams, values: np.ndarray):
        self.p = params.p
        cube = np.asarray(values, dtype=np.float64).reshape((params.p,) * params.n)
        self.padded = np.pad(cube, [(0, params.p - 1)] * params.n, mode="wrap")

    def shifted(self, digits: np.ndarray) -> np.ndarray:
        """The (p,)*n view of m -> f(m + d), for d given by its digits in [0, p)."""
        return self.padded[tuple(slice(x, x + self.p) for x in digits[::-1].tolist())]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Fourier coefficients plus the sorted order and its tail energies.

    order sorts |coeffs| descending with ties broken by ascending index, so
    the rank of every coefficient is deterministic.  tails[i] is the energy
    strictly below rank i: tails[0] = total energy, tails[F] = 0, and
    sigma_k = tails[k] is the energy outside the top-k coefficients.  Both
    are computed on first use, so a caller that reads only coeffs never sorts.
    """

    params: FieldParams
    coeffs: np.ndarray

    @cached_property
    def order(self) -> np.ndarray:
        order = np.lexsort((np.arange(self.params.F), -self.magnitudes))
        order.setflags(write=False)
        return order

    @cached_property
    def tails(self) -> np.ndarray:
        sorted_sq = self.magnitudes[self.order] ** 2
        tails = np.zeros(self.params.F + 1)
        tails[:-1] = sorted_sq[::-1].cumsum()[::-1]
        tails.setflags(write=False)
        return tails

    @cached_property
    def magnitudes(self) -> np.ndarray:
        mags = np.abs(self.coeffs)
        mags.setflags(write=False)
        return mags

    def sigma(self, k: int) -> float:
        """Energy outside the top-k coefficients."""
        if not 0 <= k <= self.params.F:
            raise ValueError(f"k={k} outside [0, {self.params.F}]")
        return float(self.tails[k])

    def top_places(self, k: int) -> np.ndarray:
        """Indices of the k largest coefficients (ties by ascending index)."""
        if not 1 <= k <= self.params.F:
            raise ValueError(f"k={k} outside [1, {self.params.F}]")
        return self.order[:k].copy()

    def quasinorm(self, t: float) -> float:
        """(sum_a |fhat(a)|^t)^(1/t); a quasinorm for 0 < t < 1."""
        if t <= 0:
            raise ValueError(f"quasinorm exponent must be positive, got {t}")
        return float(np.power(self.magnitudes, t).sum() ** (1.0 / t))

    def to_csv(self) -> str:
        """Columns index, re, im, magnitude, rank (rank 1 = largest)."""
        ranks = np.empty(self.params.F, dtype=np.int64)
        ranks[self.order] = np.arange(1, self.params.F + 1)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["index", "re", "im", "magnitude", "rank"])
        mags = self.magnitudes
        for i in range(self.params.F):
            c = self.coeffs[i]
            writer.writerow(
                [i, repr(float(c.real)), repr(float(c.imag)), repr(float(mags[i])), int(ranks[i])]
            )
        return buf.getvalue()


def axis_transforms(params: FieldParams, values: np.ndarray, transform) -> np.ndarray:
    """transform (np.fft.fft or np.fft.ifft) along every digit of the flat values.

    Each pass transforms the last axis of a contiguous (F/p, p) view, which
    holds the lowest digit not yet transformed, then moves that digit to the
    front with one transpose copy; after n passes the digits are back in
    place.  These are the 1-D transforms fftn runs on the (p,)*n cube, on the
    same fibres in the same order (last axis first), so the result equals
    fftn's bit for bit; the passes read contiguous memory where fftn strides.
    A pass's input is dropped before its copy, so at most two F-sized arrays
    are held beside values.
    """
    out = values
    for _ in range(params.n):
        out = transform(out.reshape(-1, params.p))
        out = out.T.copy()
    return out.reshape(-1)


def dft(f: DenseFunction) -> Spectrum:
    """fhat(a) = sum_m f(m) w^(a.m): the inverse transform along every digit, times F."""
    coeffs = axis_transforms(f.params, f.values, np.fft.ifft) * f.params.F
    coeffs.setflags(write=False)
    return Spectrum(f.params, coeffs)


def dft_naive(f: DenseFunction, block: int = 256) -> np.ndarray:
    """O(F^2) evaluation straight from the definition; the transform oracle."""
    params = f.params
    D = params.digit_table()
    roots = _root_powers(params.p)
    out = np.empty(params.F, dtype=np.complex128)
    for start in range(0, params.F, block):
        rows = D[start : start + block]
        exps = (rows @ D.T) % params.p
        out[start : start + block] = roots[exps] @ f.values
    return out


def idft(params: FieldParams, coeffs: np.ndarray) -> DenseFunction:
    """f(m) = F^(-1) sum_a fhat(a) w^(-a.m); the imaginary residue must vanish."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    values = axis_transforms(params, coeffs, np.fft.fft) / params.F
    residue = float(np.abs(values.imag).max()) if params.F else 0.0
    if residue > IMAG_TOLERANCE:
        raise ValueError(f"imaginary residue {residue} exceeds {IMAG_TOLERANCE}")
    return DenseFunction.make(params, values.real)


def parseval_gap(f: DenseFunction) -> float:
    """Relative gap |sum|fhat|^2 - F*sum f^2| / max(F*sum f^2, 1)."""
    lhs = float((f.spectrum.magnitudes**2).sum())
    rhs = f.params.F * float((f.values**2).sum())
    return abs(lhs - rhs) / max(rhs, 1.0)


def difference_set(params: FieldParams, places: np.ndarray) -> np.ndarray:
    """Sorted indices {a - b : a, b in places} (includes 0 when places is
    nonempty); the definition finder.separates is checked against."""
    idx = np.asarray(places, dtype=np.int64)
    D = params.digit_table()[idx]
    diffs = (D[:, None, :] - D[None, :, :]) % params.p
    flat = params.indices_of(diffs.reshape(-1, params.n))
    return np.unique(flat)

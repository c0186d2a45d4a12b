"""Closed-form floors, parameter selection, and hypothesis checking.

theta always denotes -log_F E(g) (so F^(-theta) = E(g)) and gamma the
quasinorm exponent in ||fhat||_{1/3} <= F^(1+gamma).  The floors here are
evaluated exactly as stated; callers decide which delta to feed them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .field import FieldParams
from .spectral import DenseFunction

TAIL_TOLERANCE = 1e-9
DOMINATION_TOLERANCE = 1e-12
DENSITY_FLOOR_COEFF = 8.0


class HypothesisRefusal(RuntimeError):
    """Inputs violate a hypothesis the pipeline cannot proceed without."""


def pair_count(k: int) -> int:
    """C(k, 2), the number of unordered pairs of top places."""
    return k * (k - 1) // 2


def density_floor(params: FieldParams, k: int) -> float:
    """E(g) must reach 8 p^(-1/2) k^(-1) for the coset-density guarantee."""
    return DENSITY_FLOOR_COEFF / (math.sqrt(params.p) * k)


def lambda3_floor(
    p: int, F: int, k: int, theta: float, delta: float, form: str = "exact"
) -> float:
    """The certified progression-density floor.

    form="exact":    p^-2 C(k,2)^-1 F^(-4 theta) / 128 - 9 delta F^(-2 theta) / 8
    form="weakened": p^-2 k^-2      F^(-4 theta) / 64  - 9 delta F^(-2 theta) / 8

    The weakened form replaces C(k,2)^-1/128 by the smaller k^-2/64 and is the
    one the closed-form k optimizer targets.  Negative values mean the floor
    is vacuous at these parameters.
    """
    if k < 2:
        raise ValueError(f"the floor needs k >= 2, got {k}")
    if form == "exact":
        main = F ** (-4.0 * theta) / (p**2 * pair_count(k) * 128.0)
    elif form == "weakened":
        main = F ** (-4.0 * theta) / (p**2 * k**2 * 64.0)
    else:
        raise ValueError(f"unknown form {form!r}")
    return main - 9.0 * delta * F ** (-2.0 * theta) / 8.0


def sigma_tail_bound(F: int, gamma: float, k: int) -> float:
    """sigma_k < F^(2+2 gamma) / (5 k^5) whenever ||fhat||_{1/3} <= F^(1+gamma)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return F ** (2.0 + 2.0 * gamma) / (5.0 * k**5)


def plugin_delta(F: int, gamma: float, k: int) -> float:
    """The closed-form delta = F^gamma / (2 k^(5/2)).

    (delta F)^2 = F^(2+2 gamma) / (4 k^5) exceeds the sigma tail bound
    (1/4 > 1/5), so this delta always satisfies sigma_k <= delta^2 F^2
    in the quasinorm regime.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return F**gamma / (2.0 * k**2.5)


def delta_from_sigma(sigma_k: float, F: int) -> float:
    """The minimal delta with sigma_k <= delta^2 F^2, from a measured tail."""
    if sigma_k < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma_k}")
    return math.sqrt(sigma_k) / F


def quasinorm_regime_bound(p: int, F: int, theta: float, gamma: float) -> float:
    """The stated headline floor 1e-10 p^-8 F^(-12 theta - 4 gamma).

    Note this stated constant is slightly stronger than what the stepwise
    floor yields at the optimizing k for p >= 5; optimal_k reports both so
    the drift is visible rather than papered over.
    """
    return 1e-10 * p**-8.0 * F ** (-12.0 * theta - 4.0 * gamma)


@dataclass(frozen=True)
class OptimalK:
    k: int
    k_real: float
    floor_weakened: float  # weakened form at k with the plug-in delta
    floor_exact: float  # exact form at k with the minimal tail delta
    stated_bound: float  # the headline closed-form value
    consistent: bool  # floor_exact >= stated_bound


def _weakened_objective(p: int, F: int, theta: float, gamma: float, k: int) -> float:
    return lambda3_floor(p, F, k, theta, plugin_delta(F, gamma, k), form="weakened")


def optimal_k(
    p: int, F: int, theta: float, gamma: float, grid_check: bool = False
) -> OptimalK:
    """k = round(2025 p^4 F^(4 theta + 2 gamma)), floored at 2.

    2025 = 45^2 comes from maximizing the weakened floor with the plug-in
    delta over real k.  Both integer neighbors are evaluated and the better
    kept.  grid_check=True additionally scans a geometric k grid to confirm
    the closed form is the discrete maximizer within discretization error.
    """
    k_real = 2025.0 * p**4 * F ** (4.0 * theta + 2.0 * gamma)
    candidates = sorted({max(2, math.floor(k_real)), max(2, math.ceil(k_real))})
    best = max(candidates, key=lambda k: _weakened_objective(p, F, theta, gamma, k))
    if grid_check:
        lo, hi = 2, max(4, int(k_real * 4) + 1)
        grid = sorted(
            {int(round(lo * (hi / lo) ** (i / 400.0))) for i in range(401)}
        )
        grid_best = max(grid, key=lambda k: _weakened_objective(p, F, theta, gamma, k))
        if _weakened_objective(p, F, theta, gamma, grid_best) > _weakened_objective(
            p, F, theta, gamma, best
        ) * (1 + 1e-12) + 1e-300:
            best = grid_best
    floor_weak = _weakened_objective(p, F, theta, gamma, best)
    sigma_cap = sigma_tail_bound(F, gamma, best)
    floor_exact = lambda3_floor(
        p, F, best, theta, delta_from_sigma(sigma_cap, F), form="exact"
    )
    stated = quasinorm_regime_bound(p, F, theta, gamma)
    return OptimalK(
        k=best,
        k_real=k_real,
        floor_weakened=floor_weak,
        floor_exact=floor_exact,
        stated_bound=stated,
        consistent=floor_exact >= stated,
    )


@dataclass(frozen=True)
class HypothesisReport:
    k: int
    delta: float
    theta: float
    e_f: float
    e_g: float
    sigma_k: float
    items: tuple  # (name, passed, detail) triples
    passed: bool

    def as_dict(self) -> dict:
        items = [{"name": n, "passed": ok, "detail": d} for n, ok, d in self.items]
        return {**asdict(self), "items": items}


def derived_theta(e_g: float, F: int) -> float:
    """theta with F^(-theta) = E(g); infinite when g vanishes."""
    if e_g <= 0:
        return math.inf
    return -math.log(e_g) / math.log(F)


def check_hypotheses(
    f: DenseFunction,
    g: DenseFunction,
    k: int,
    delta: float,
) -> HypothesisReport:
    """Check every hypothesis of the certified floor and report item by item.

    Items: pointwise domination g <= f, unit range for both functions, the
    density floor E(g) >= max(F^(-theta), 8 p^(-1/2) k^(-1)) with theta
    derived (so the binding part is the k term), and the tail condition
    sigma_k <= delta^2 F^2.  Nothing is raised here; callers decide what a
    failure means.
    """
    params = f.params
    g.params.same_as(params)
    F = params.F
    e_f, e_g = f.mean(), g.mean()
    sigma_k = f.spectrum.sigma(k)
    theta = derived_theta(e_g, F)

    items = []
    gap = float((g.values - f.values).max())
    witness = int(np.argmax(g.values - f.values))
    items.append(
        (
            "domination",
            gap <= DOMINATION_TOLERANCE,
            f"max(g - f) = {gap:.3g} at index {witness}",
        )
    )
    in_range = (
        f.values.min() >= -DOMINATION_TOLERANCE
        and f.values.max() <= 1 + DOMINATION_TOLERANCE
        and g.values.min() >= -DOMINATION_TOLERANCE
        and g.values.max() <= 1 + DOMINATION_TOLERANCE
    )
    items.append(("unit_range", bool(in_range), "both functions take values in [0, 1]"))
    floor = max(F ** (-theta) if math.isfinite(theta) else 0.0, density_floor(params, k))
    items.append(
        (
            "density_floor",
            e_g >= floor - DOMINATION_TOLERANCE,
            f"E(g) = {e_g:.6g} vs floor {floor:.6g}",
        )
    )
    tail_cap = delta**2 * F**2
    items.append(
        (
            "tail",
            sigma_k <= tail_cap + TAIL_TOLERANCE,
            f"sigma_k = {sigma_k:.6g} vs delta^2 F^2 = {tail_cap:.6g}",
        )
    )
    passed = all(ok for _, ok, _ in items)
    return HypothesisReport(k, delta, theta, e_f, e_g, sigma_k, tuple(items), passed)

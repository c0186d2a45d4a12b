"""Closed-form floors, delta schedules, and hypothesis checking.

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


def density_floor(params: FieldParams, k: int) -> float:
    """E(g) must reach 8 p^(-1/2) k^(-1) for the coset-density guarantee."""
    return DENSITY_FLOOR_COEFF / (math.sqrt(params.p) * k)


def lambda3_floors(p: int, F: int, k: int, theta: float, delta: float) -> dict:
    """The certified progression-density floor in both stated forms.

    exact:    p^-2 C(k,2)^-1 F^(-4 theta) / 128 - 9 delta F^(-2 theta) / 8
    weakened: p^-2 k^-2      F^(-4 theta) / 64  - 9 delta F^(-2 theta) / 8

    The weakened form replaces C(k,2)^-1/128 by the smaller k^-2/64.  Negative
    values mean the floor is vacuous at these parameters.
    """
    if k < 2:
        raise ValueError(f"the floor needs k >= 2, got {k}")
    loss = 9.0 * delta * F ** (-2.0 * theta) / 8.0
    return {
        "exact": F ** (-4.0 * theta) / (p**2 * math.comb(k, 2) * 128.0) - loss,
        "weakened": F ** (-4.0 * theta) / (p**2 * k**2 * 64.0) - loss,
    }


def plugin_delta(F: int, gamma: float, k: int) -> float:
    """The closed-form delta = F^gamma / (2 k^(5/2)).

    In the quasinorm regime ||fhat||_{1/3} <= F^(1+gamma) the j-th largest
    |fhat| is at most ||fhat||_{1/3} / j^3, so summing j^-6 over j > k gives
    sigma_k < F^(2+2 gamma) / (5 k^5) < F^(2+2 gamma) / (4 k^5) = (delta F)^2.
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

    Stronger than the stepwise floor at every odd p: at the paper's k = ceil(2025 p^4
    F^(4 theta + 2 gamma)) and the plug-in delta it is 0.1312 p^2 times the exact floor.
    """
    return 1e-10 * p**-8.0 * F ** (-12.0 * theta - 4.0 * gamma)


@dataclass(frozen=True)
class HypothesisReport:
    k: int
    delta: float
    theta: float | None
    e_f: float
    e_g: float
    sigma_k: float
    items: dict  # name -> (passed, detail), in the order checked
    passed: bool

    def as_dict(self) -> dict:
        items = [{"name": n, "passed": ok, "detail": d} for n, (ok, d) in self.items.items()]
        return {**asdict(self), "items": items}


def derived_theta(e_g: float, F: int) -> float | None:
    """theta with F^(-theta) = E(g); None when g vanishes, where no theta exists."""
    if e_g <= 0:
        return None
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

    items = {}
    gap = float((g.values - f.values).max())
    witness = int(np.argmax(g.values - f.values))
    items["domination"] = (
        gap <= DOMINATION_TOLERANCE,
        f"max(g - f) = {gap:.3g} at index {witness}",
    )
    in_range = (
        f.values.min() >= -DOMINATION_TOLERANCE
        and f.values.max() <= 1 + DOMINATION_TOLERANCE
        and g.values.min() >= -DOMINATION_TOLERANCE
        and g.values.max() <= 1 + DOMINATION_TOLERANCE
    )
    items["unit_range"] = (bool(in_range), "both functions take values in [0, 1]")
    floor = max(F ** (-theta) if theta is not None else 0.0, density_floor(params, k))
    items["density_floor"] = (
        e_g >= floor - DOMINATION_TOLERANCE,
        f"E(g) = {e_g:.6g} vs floor {floor:.6g}",
    )
    tail_cap = delta**2 * F**2
    items["tail"] = (
        sigma_k <= tail_cap + TAIL_TOLERANCE,
        f"sigma_k = {sigma_k:.6g} vs delta^2 F^2 = {tail_cap:.6g}",
    )
    passed = all(ok for ok, _ in items.values())
    return HypothesisReport(k, delta, theta, e_f, e_g, sigma_k, items, passed)

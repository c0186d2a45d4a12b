"""Config-driven experiment runner.

A config names a field, a recipe for f, a minorant rule for g, and the
certification parameters; run_experiment builds the corpus, checks every
hypothesis, runs the depletion pipeline per requested ordering, and returns
a report dict whose JSON serialization is byte-stable for a fixed config
and seed (only the "timing" key varies between runs).

Exit codes: 0 all assertions passed, 1 cap or config error, 2 hypothesis
refusal, 3 finder budget exhausted, 4 assertion failure.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .bounds import (
    HypothesisRefusal,
    check_hypotheses,
    delta_from_sigma,
    density_floor,
    lambda3_floor,
    plugin_delta,
    quasinorm_regime_bound,
)
from .field import DEFAULT_ENUMERATION_CAP, EnumerationCapError, FieldParams, Subspace, is_integral
from .finder import DEFAULT_MAX_ATTEMPTS, choose_dimension, estimate_condition_probabilities
from .functions import indicator, normalized_conv_power, random_set
from .lambda3 import (
    AGREEMENT_TOLERANCE,
    BRUTE_FORCE_LIMIT,
    diagonal_weight,
    endpoint_pair_count,
    lambda3_brute,
    lambda3_spectral,
    midpoint_pair_count,
    trivial_lower_bound,
)
from .midpoint import ContextInvariantError, run_depletion
from .spectral import DenseFunction, Spectrum, parseval_gap

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_REFUSED = 2
EXIT_BUDGET = 3
EXIT_ASSERTION = 4

_SEVERITY = (EXIT_ASSERTION, EXIT_BUDGET, EXIT_REFUSED, EXIT_ERROR, EXIT_PASS)


class ConfigError(ValueError):
    """The config is malformed or references an unimplemented recipe."""


def worst_exit(codes) -> int:
    codes = set(codes)
    for code in _SEVERITY:
        if code in codes:
            return code
    return EXIT_PASS


def build_recipe(params: FieldParams, spec: dict, rng: np.random.Generator) -> DenseFunction:
    """Construct a corpus function from a recipe dict.

    Kinds: constant {value}; indicator {members}; random_set {size};
    subspace {basis}; conv_power {power, size | members} for the normalized
    repeated self-convolution of a set indicator; uniform {low, high};
    cosine {base, amplitude, frequency} for base + amplitude cos(2 pi a.m / p).
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"recipe must be a dict with a 'kind', got {spec!r}")
    kind = spec["kind"]
    if kind == "constant":
        value = _number(spec, "value")
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"field 'value' must lie in [0, 1], got {value}")
        return DenseFunction.constant(params, value)
    if kind == "indicator":
        return indicator(params, _integers(spec, "members"))
    if kind == "random_set":
        return random_set(params, _integer(spec, "size"), rng)
    if kind == "subspace":
        basis = spec.get("basis", [])
        if not isinstance(basis, list) or not all(map(_integer_list, basis)):
            raise ConfigError(f"field 'basis' must be a list of integer rows, got {basis!r}")
        return indicator(params, Subspace.from_rows(params, basis).members())
    if kind == "conv_power":
        power = _integer(spec, "power")
        return normalized_conv_power(_recipe_set(params, spec, rng), power)
    if kind == "uniform":
        low, high = _number(spec, "low"), _number(spec, "high")
        if not 0.0 <= low <= high <= 1.0:
            raise ConfigError(f"uniform range [{low}, {high}] must sit inside [0, 1]")
        return DenseFunction.make(params, rng.uniform(low, high, params.F))
    if kind == "cosine":
        base = _number(spec, "base")
        amplitude = _number(spec, "amplitude")
        freq = tuple(d % params.p for d in _integers(spec, "frequency"))
        if len(freq) != params.n:
            raise ConfigError(f"cosine frequency needs {params.n} digits, got {freq}")
        phase = params.dots([freq])[:, 0]
        values = base + amplitude * np.cos(2.0 * np.pi * phase / params.p)
        return DenseFunction.make(params, values, unit_range=True)
    raise ConfigError(f"unknown recipe kind {kind!r}")


def derive_minorant(
    f: DenseFunction, spec: dict, rng: np.random.Generator
) -> DenseFunction:
    """Build g from f (same / scale / mask / threshold) or as a fresh recipe."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"minorant rule must be a dict with a 'kind', got {spec!r}")
    kind = spec["kind"]
    if kind == "same":
        return f
    if kind == "scale":
        factor = _number(spec, "factor")
        if not 0.0 <= factor <= 1.0:
            raise ConfigError(f"scale factor must lie in [0, 1], got {factor}")
        return DenseFunction.make(f.params, f.values * factor)
    if kind == "mask":
        keep = _recipe_set(f.params, spec, rng).values > 0
    elif kind == "threshold":
        keep = f.values >= _number(spec, "cutoff")
    else:
        return build_recipe(f.params, spec, rng)
    return DenseFunction.make(f.params, np.where(keep, f.values, 0.0))


def _field(spec: dict, key: str):
    if key not in spec:
        raise ConfigError(f"recipe {spec.get('kind')!r} needs field {key!r}")
    return spec[key]


def _number(spec: dict, key: str) -> float:
    value = _field(spec, key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"field {key!r} must be a number, got {value!r}")
    try:
        number = float(value)  # an int beyond the float range overflows
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"field {key!r} must be finite, got {value!r}")
    return number


def _integer(spec: dict, key: str) -> int:
    value = _field(spec, key)
    if not is_integral(value):
        raise ConfigError(f"field {key!r} must be an integer, got {value!r}")
    return int(value)


def _integer_list(values) -> bool:
    return isinstance(values, list) and all(map(is_integral, values))


def _integers(spec: dict, key: str) -> list[int]:
    values = spec.get(key, [])
    if not _integer_list(values):
        raise ConfigError(f"field {key!r} must be a list of integers, got {values!r}")
    return [int(v) for v in values]


def _recipe_set(params: FieldParams, spec: dict, rng: np.random.Generator) -> DenseFunction:
    """The indicator of the set a recipe gives by its 'members', or else at random of its 'size'."""
    if "members" in spec:
        return indicator(params, _integers(spec, "members"))
    return random_set(params, _integer(spec, "size"), rng)


def _flag(spec: dict, key: str) -> bool:
    value = spec.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"field {key!r} must be true or false, got {value!r}")
    return value


_ORDERING_CHOICES = {"fgf": ("fgf",), "gff": ("gff",), "both": ("fgf", "gff")}
# Config keys whose ExperimentConfig attribute carries a different name.
_CONFIG_KEYS = {"f_recipe": "f", "g_recipe": "g"}


def _check_bounds_finite(p: int, n: int, k: int, delta: float | None, gamma: float | None) -> None:
    """Refuse a delta or gamma that overflows a float in delta^2 F^2, or for gamma in the
    plug-in delta, F^(1+gamma) or the headline floor at E(g) = 1, where it is largest."""
    F = p**n
    try:
        values = []
        if gamma is not None:
            delta = plugin_delta(F, gamma, k)
            values += [F ** (1.0 + gamma), quasinorm_regime_bound(p, F, 0.0, gamma)]
        if delta is not None:
            values.append(delta**2 * F**2)
        finite = all(map(math.isfinite, values))
    except OverflowError:
        finite = False
    if not finite:
        key, value = ("delta", delta) if gamma is None else ("gamma", gamma)
        raise ConfigError(f"field {key!r} = {value} overflows the bounds at F = {F}")


@dataclass(frozen=True)
class ExperimentConfig:
    p: int
    n: int
    seed: int
    f_recipe: dict
    g_recipe: dict
    k: int
    delta: float | None
    gamma: float | None
    ordering: str
    refresh: str
    max_attempts: int
    nprime: int | None
    trials: int
    exhaustive: bool
    enumeration_cap: int
    force: bool
    label: str

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        known = {_CONFIG_KEYS.get(f.name, f.name) for f in fields(cls)}
        extra = set(raw) - known
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        for key in ("p", "n", "seed", "f", "k"):
            if key not in raw:
                raise ConfigError(f"config is missing required field {key!r}")

        def integer(key: str, default):
            return default if raw.get(key) is None else _integer(raw, key)

        def recipe(key: str, default):
            value = default if raw.get(key) is None else raw[key]
            if not isinstance(value, dict):
                raise ConfigError(f"field {key!r} must be an object, got {value!r}")
            return dict(value)

        ordering = raw.get("ordering", "fgf")
        if not isinstance(ordering, str) or ordering not in _ORDERING_CHOICES:
            raise ConfigError(f"field 'ordering' must be fgf, gff or both, got {ordering!r}")
        refresh = raw.get("refresh", "always")
        if refresh not in ("always", "lazy"):
            raise ConfigError(f"refresh must be always or lazy, got {refresh!r}")
        delta = None if raw.get("delta") is None else _number(raw, "delta")
        gamma = None if raw.get("gamma") is None else _number(raw, "gamma")
        if delta is not None and gamma is not None:
            raise ConfigError("give delta or gamma, not both")
        if delta is not None and delta < 0:
            raise ConfigError(f"field 'delta' must be nonnegative, got {delta}")
        p, n, k, seed = (_integer(raw, key) for key in ("p", "n", "k", "seed"))
        try:
            FieldParams(p, n)
        except ValueError as exc:
            raise ConfigError(f"fields 'p' and 'n': {exc}") from None
        if not 0 <= seed < 2**64:
            raise ConfigError(f"field 'seed' must lie in [0, 2**64), got {seed}")
        if k < 2:
            raise ConfigError(f"field 'k' must be at least 2, got {k}")
        if k > p**n:
            raise ConfigError(f"field 'k' must be at most p**n={p**n}, got {k}")
        nprime = integer("nprime", None)
        if nprime is not None and not 0 <= nprime <= n:
            raise ConfigError(f"field 'nprime' must lie in [0, n={n}], got {nprime}")
        if nprime is not None and p**nprime < k:
            raise ConfigError(f"field 'nprime' needs p**nprime >= k={k}, got {p}**{nprime}")
        _check_bounds_finite(p, n, k, delta, gamma)
        trials = integer("trials", 0)
        if trials < 0:
            raise ConfigError(f"field 'trials' must be nonnegative, got {trials}")
        label = "" if raw.get("label") is None else raw["label"]
        if not isinstance(label, str):
            raise ConfigError(f"field 'label' must be a string, got {label!r}")
        limits = {"max_attempts": DEFAULT_MAX_ATTEMPTS, "enumeration_cap": DEFAULT_ENUMERATION_CAP}
        for key, default in limits.items():
            limits[key] = integer(key, default)
            if limits[key] < 1:
                raise ConfigError(f"field {key!r} must be at least 1, got {limits[key]}")
        return cls(
            p=p,
            n=n,
            seed=seed,
            f_recipe=recipe("f", None),
            g_recipe=recipe("g", {"kind": "same"}),
            k=k,
            delta=delta,
            gamma=gamma,
            ordering=ordering,
            refresh=refresh,
            nprime=nprime,
            trials=trials,
            exhaustive=_flag(raw, "exhaustive"),
            **limits,
            force=_flag(raw, "force"),
            label=label,
        )

    @property
    def orderings(self) -> tuple:
        return _ORDERING_CHOICES[self.ordering]

    def as_dict(self) -> dict:
        return {_CONFIG_KEYS.get(key, key): value for key, value in asdict(self).items()}

    def delta_mode(self) -> str:
        if self.delta is not None:
            return "explicit"
        if self.gamma is not None:
            return "plugin"
        return "tail"


def resolve_delta(config: ExperimentConfig, spectrum: Spectrum) -> float:
    mode = config.delta_mode()
    if mode == "explicit":
        return config.delta
    if mode == "plugin":
        return plugin_delta(config.p**config.n, config.gamma, config.k)
    return delta_from_sigma(spectrum.sigma(config.k), config.p**config.n)


def report_json(report: dict) -> str:
    """Canonical serialization; byte-stable given identical report content.
    A report holds native values only, so json is its one encoder."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def strip_timing(report: dict) -> dict:
    out = dict(report)
    out.pop("timing", None)
    if isinstance(out.get("entries"), list):
        out["entries"] = [strip_timing(e) for e in out["entries"]]
    return out


def _run_dict(run, rhs_exact: float, brute: float, spectral: float) -> dict:
    """Every DepletionRun field (steps as certificate dicts) plus the values
    measured or derived outside the run.  The fields are read shallowly,
    where asdict would deep-copy them."""
    return {
        **vars(run),
        "steps": [vars(step) for step in run.steps],
        "lambda_measured_brute": brute,
        "lambda_measured_spectral": spectral,
        "certificates_ok": run.certificates_ok,
        "vacuous_steps": run.vacuous_steps,
        "floor_exact": rhs_exact,
        "floor_vacuous": rhs_exact < 0,
    }


def run_experiment(config: ExperimentConfig) -> tuple[dict, int]:
    """Execute one experiment and return (report, exit_code).

    The report is deterministic for fixed config apart from the "timing"
    key; every randomized stage draws from its own child of the config
    seed, so toggling one stage never shifts another's stream.
    """
    start = time.perf_counter()
    params = FieldParams(config.p, config.n)
    children = np.random.SeedSequence(config.seed).spawn(4)
    rng_corpus, rng_est, rng_fgf, rng_gff = (np.random.default_rng(c) for c in children)

    report: dict = {
        "version": __version__,
        "seed": config.seed,
        "config": config.as_dict(),
        "field": {"p": params.p, "n": params.n, "F": params.F},
        "assertions": [],
        "failures": [],
        "runs": [],
    }
    codes = [EXIT_PASS]

    def fail(kind: str, message: str, code: int) -> None:
        report["failures"].append({"type": kind, "detail": message})
        codes.append(code)

    def check(name: str, passed: bool, detail: str) -> None:
        report["assertions"].append({"name": name, "passed": bool(passed), "detail": detail})
        if not passed:
            codes.append(EXIT_ASSERTION)

    def agree(name: str, brute: float, spectral: float) -> None:
        gap = abs(brute - spectral)
        check(name, gap <= AGREEMENT_TOLERANCE, f"|brute - spectral| = {gap:.3g}")

    def at_least(
        name: str, measured: float, bound: float, label: str, tol: float = 1e-12, note: str = ""
    ) -> None:
        detail = f"measured {measured:.6g} vs {label} {bound:.6g}{note}"
        check(name, measured >= bound - tol, detail)

    def finish() -> tuple[dict, int]:
        report["passed"] = (
            all(a["passed"] for a in report["assertions"]) and not report["failures"]
        )
        report["timing"] = {"wall_seconds": round(time.perf_counter() - start, 3)}
        return report, worst_exit(codes)

    # refused before build_recipe allocates an F-sized array
    if params.F > BRUTE_FORCE_LIMIT and not config.force:
        fail(
            "guardrail",
            f"F = {params.F} exceeds the brute-force limit {BRUTE_FORCE_LIMIT}; "
            "pass force to spend the quadratic time",
            EXIT_ERROR,
        )
        return finish()

    try:
        f = build_recipe(params, config.f_recipe, rng_corpus)
        g = derive_minorant(f, config.g_recipe, rng_corpus)
    except (ConfigError, ValueError) as exc:
        fail("config", str(exc), EXIT_ERROR)
        return finish()
    except MemoryError as exc:
        fail("cap", str(exc), EXIT_ERROR)
        return finish()

    spectrum = f.spectrum
    delta = resolve_delta(config, spectrum)
    hypotheses = check_hypotheses(f, g, config.k, delta)
    theta = hypotheses.theta
    report["means"] = {"e_f": hypotheses.e_f, "e_g": hypotheses.e_g}
    report["spectrum"] = {
        "top_magnitudes": spectrum.magnitudes[spectrum.order[: config.k]].tolist(),
        "sigma_k": hypotheses.sigma_k,
        "quasinorm_third": spectrum.quasinorm(1.0 / 3.0),
        "parseval_gap": parseval_gap(f),
    }
    report["delta"] = delta
    report["delta_mode"] = config.delta_mode()
    report["theta"] = theta
    report["hypotheses"] = hypotheses.as_dict()
    try:
        nprime = config.nprime if config.nprime is not None else choose_dimension(config.k, params)
        report["nprime"] = nprime
    except ValueError as exc:
        fail("config", str(exc), EXIT_ERROR)
        return finish()
    report["density_floor"] = density_floor(params, config.k)

    report["floors"] = {
        form: lambda3_floor(params.p, params.F, config.k, theta, delta, form=form)
        if theta is not None
        else None
        for form in ("exact", "weakened")
    }
    rhs_exact = report["floors"]["exact"]
    if config.gamma is not None and theta is not None:
        report["floors"]["stated_headline"] = quasinorm_regime_bound(
            params.p, params.F, theta, config.gamma
        )
        report["spectrum"]["quasinorm_benchmark"] = params.F ** (1.0 + config.gamma)

    if config.trials > 0 or config.exhaustive:
        try:
            est = estimate_condition_probabilities(
                nprime,
                A=spectrum.top_places(config.k),
                g=g,
                trials=config.trials,
                rng=rng_est,
                exhaustive=config.exhaustive,
                cap=config.enumeration_cap,
            )
            report["estimates"] = asdict(est)
        except (EnumerationCapError, MemoryError) as exc:
            fail("cap", str(exc), EXIT_ERROR)

    oracles: dict = {}

    def measure(f1: DenseFunction, f2: DenseFunction, f3: DenseFunction) -> tuple[float, float]:
        """(brute, spectral) Lambda3 of the triple, computed once per run."""
        key = (f1, f2, f3)
        if key not in oracles:
            oracles[key] = (lambda3_brute(f1, f2, f3), lambda3_spectral(f1, f2, f3))
        return oracles[key]

    brute_fff, spectral_fff = measure(f, f, f)
    report["lambda3_f"] = {
        "brute": brute_fff,
        "spectral": spectral_fff,
        "trivial_bound": trivial_lower_bound(f),
        "nonzero_difference_weight": brute_fff * params.F**2 - diagonal_weight(f),
    }
    agree("oracle_agreement[f]", brute_fff, spectral_fff)
    at_least("trivial_bound[f]", brute_fff, trivial_lower_bound(f), "trivial")

    run_rngs = {"fgf": rng_fgf, "gff": rng_gff}
    for ordering in config.orderings:
        try:
            run = run_depletion(
                f,
                g,
                config.k,
                delta,
                ordering=ordering,
                nprime=nprime,
                max_attempts=config.max_attempts,
                rng=run_rngs[ordering],
                refresh=config.refresh,
            )
        except HypothesisRefusal as exc:
            fail("hypothesis_refusal", str(exc), EXIT_REFUSED)
            break  # f, g, k and delta alone decide a refusal, so the other ordering repeats it
        except ContextInvariantError as exc:
            fail("certificate", str(exc), EXIT_ASSERTION)
            continue
        brute, spectral = measure(f, g, f) if ordering == "fgf" else measure(g, f, f)
        report["runs"].append(_run_dict(run, rhs_exact, brute, spectral))
        certificate_detail = f"{len(run.steps)} steps, {run.vacuous_steps} vacuous"
        if run.partial:
            # A broken step before the budget ran out still fails the run.
            if not run.certificates_ok:
                check(f"certificates[{ordering}]", False, certificate_detail)
            fail(
                "finder_budget",
                f"ordering {ordering}: finder budget exhausted after "
                f"{len(run.steps)} of {run.r} steps; rejections {run.finder_rejections}",
                EXIT_BUDGET,
            )
            continue
        agree(f"oracle_agreement[{ordering}]", brute, spectral)
        # The steps' table against the brute oracle through sum_m g(m) table[m],
        # and against the direct count at the first and last step.
        direct = midpoint_pair_count if ordering == "fgf" else endpoint_pair_count
        weight_gap = abs(run.pair_weight / params.F**2 - brute)
        step_gaps = []
        for step in (run.steps[0], run.steps[-1]):
            count = direct(f, step.m)
            step_gaps.append(abs(step.pair_count - count) / max(1.0, abs(count)))
        check(
            f"pair_table[{ordering}]",
            weight_gap <= AGREEMENT_TOLERANCE and max(step_gaps) <= 1e-9,
            f"|pair_weight/F^2 - brute| = {weight_gap:.3g}; first and last step "
            f"vs direct count: {step_gaps[0]:.3g}, {step_gaps[1]:.3g} relative",
        )
        check(f"certificates[{ordering}]", run.certificates_ok, certificate_detail)
        at_least(
            f"certified_le_measured[{ordering}]", brute, run.lambda_lower, "certified", tol=1e-9
        )
        vacuous = " (vacuous)" if rhs_exact < 0 else ""
        at_least(
            f"floor_le_measured[{ordering}]", brute, rhs_exact, "closed-form floor", note=vacuous
        )
        at_least(f"trivial_le_measured[{ordering}]", brute, trivial_lower_bound(g), "trivial")

    return finish()


def load_config_file(path: str) -> list[ExperimentConfig]:
    """Parse a config file holding one experiment or {"experiments": [...]}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    entries = raw["experiments"] if isinstance(raw, dict) and "experiments" in raw else [raw]
    if not isinstance(entries, list) or not entries:
        raise ConfigError("'experiments' must be a nonempty list")
    return [ExperimentConfig.from_dict(entry) for entry in entries]


def run_config(configs: list[ExperimentConfig]) -> tuple[dict, int]:
    """Run one or many experiments, one after another."""
    start = time.perf_counter()
    if len(configs) == 1:
        return run_experiment(configs[0])
    results = [run_experiment(c) for c in configs]
    report = {
        "version": __version__,
        "entries": [r for r, _ in results],
        "passed": all(r.get("passed") for r, _ in results),
        "timing": {"wall_seconds": round(time.perf_counter() - start, 3)},
    }
    return report, worst_exit(code for _, code in results)

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
    derived_theta,
    lambda3_floor,
    plugin_delta,
    quasinorm_regime_bound,
)
from .field import EnumerationCapError, FieldParams, Subspace
from .finder import (
    FinderConfig,
    chebyshev_moments,
    choose_dimension,
    estimate_condition_probabilities,
)
from .functions import (
    SetSpec,
    indicator,
    minorant_restrict,
    normalized_conv_power,
    random_set,
    subspace_indicator,
)
from .lambda3 import (
    BRUTE_FORCE_LIMIT,
    diagonal_weight,
    lambda3_brute,
    lambda3_spectral,
    trivial_lower_bound,
)
from .midpoint import CertificateError, ContextInvariantError, run_depletion
from .spectral import DenseFunction, Spectrum, dft, parseval_gap

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
        return DenseFunction.constant(params, _number(spec, "value"))
    if kind == "indicator":
        return indicator(params, spec.get("members", ()))
    if kind == "random_set":
        size = _integer(spec, "size")
        return random_set(params, size, rng).indicator()
    if kind == "subspace":
        return subspace_indicator(Subspace.from_rows(params, spec.get("basis", ())))
    if kind == "conv_power":
        power = _integer(spec, "power")
        if "members" in spec:
            S = SetSpec.make(params, spec["members"])
        else:
            S = random_set(params, _integer(spec, "size"), rng)
        return normalized_conv_power(S, power)
    if kind == "uniform":
        low, high = _number(spec, "low"), _number(spec, "high")
        if not 0.0 <= low <= high <= 1.0:
            raise ConfigError(f"uniform range [{low}, {high}] must sit inside [0, 1]")
        return DenseFunction.make(params, rng.uniform(low, high, params.F))
    if kind == "cosine":
        base = _number(spec, "base")
        amplitude = _number(spec, "amplitude")
        freq = tuple(int(d) % params.p for d in spec.get("frequency", ()))
        if len(freq) != params.n:
            raise ConfigError(f"cosine frequency needs {params.n} digits, got {freq}")
        D = params.digit_table()
        phase = (D @ np.asarray(freq, dtype=np.int64)) % params.p
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
        if "members" in spec:
            return minorant_restrict(f, members=spec["members"])
        size = _integer(spec, "size")
        return minorant_restrict(f, members=random_set(f.params, size, rng).members)
    if kind == "threshold":
        return minorant_restrict(f, threshold=_number(spec, "cutoff"))
    return build_recipe(f.params, spec, rng)


def _number(spec: dict, key: str) -> float:
    if key not in spec:
        raise ConfigError(f"recipe {spec.get('kind')!r} needs field {key!r}")
    value = spec[key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"field {key!r} must be a number, got {value!r}")
    return float(value)


def _integer(spec: dict, key: str) -> int:
    value = _number(spec, key)
    if value != int(value):
        raise ConfigError(f"field {key!r} must be an integer, got {value}")
    return int(value)


_ORDERING_CHOICES = {"fgf": ("fgf",), "gff": ("gff",), "both": ("fgf", "gff")}
# Config keys whose ExperimentConfig attribute carries a different name.
_CONFIG_KEYS = {"f_recipe": "f", "g_recipe": "g", "orderings": "ordering"}


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
    orderings: tuple
    refresh: str
    max_attempts: int
    nprime: int | None
    trials: int
    exhaustive: bool
    enumeration_cap: int
    brute_force_limit: int
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
        ordering = raw.get("ordering", "fgf")
        if isinstance(ordering, str):
            if ordering not in _ORDERING_CHOICES:
                raise ConfigError(f"ordering must be fgf, gff, or both, got {ordering!r}")
            orderings = _ORDERING_CHOICES[ordering]
        else:
            orderings = tuple(ordering)
            if not orderings or any(o not in ("fgf", "gff") for o in orderings):
                raise ConfigError(f"ordering list may contain only fgf/gff, got {ordering!r}")
        refresh = raw.get("refresh", "always")
        if refresh not in ("always", "lazy"):
            raise ConfigError(f"refresh must be always or lazy, got {refresh!r}")
        delta = raw.get("delta")
        gamma = raw.get("gamma")
        if delta is not None and gamma is not None:
            raise ConfigError("give delta or gamma, not both")
        if delta is not None and float(delta) < 0:
            raise ConfigError(f"field 'delta' must be nonnegative, got {delta}")
        p, n, k = int(raw["p"]), int(raw["n"]), int(raw["k"])
        if k < 2:
            raise ConfigError(f"field 'k' must be at least 2, got {k}")
        if p >= 2 and n >= 1 and k > p**n:
            raise ConfigError(f"field 'k' must be at most p**n={p**n}, got {k}")
        nprime = None if raw.get("nprime") is None else int(raw["nprime"])
        if nprime is not None and not 0 <= nprime <= n:
            raise ConfigError(f"field 'nprime' must lie in [0, n={n}], got {nprime}")
        trials = int(raw.get("trials", 0))
        if trials < 0:
            raise ConfigError(f"field 'trials' must be nonnegative, got {trials}")
        return cls(
            p=p,
            n=n,
            seed=int(raw["seed"]),
            f_recipe=dict(raw["f"]),
            g_recipe=dict(raw.get("g", {"kind": "same"})),
            k=k,
            delta=None if delta is None else float(delta),
            gamma=None if gamma is None else float(gamma),
            orderings=orderings,
            refresh=refresh,
            max_attempts=int(raw.get("max_attempts", 256)),
            nprime=nprime,
            trials=trials,
            exhaustive=bool(raw.get("exhaustive", False)),
            enumeration_cap=int(raw.get("enumeration_cap", 200_000)),
            brute_force_limit=int(raw.get("brute_force_limit", BRUTE_FORCE_LIMIT)),
            force=bool(raw.get("force", False)),
            label=str(raw.get("label", "")),
        )

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


def _jsonable(obj):
    """Recursively coerce report values into canonical JSON-safe types."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else repr(value)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def report_json(report: dict) -> str:
    """Canonical serialization; byte-stable given identical report content."""
    return json.dumps(_jsonable(report), indent=2, sort_keys=True, allow_nan=False) + "\n"


def strip_timing(report: dict) -> dict:
    out = dict(report)
    out.pop("timing", None)
    if isinstance(out.get("entries"), list):
        out["entries"] = [strip_timing(e) for e in out["entries"]]
    return out


def _run_dict(run, rhs_exact: float, brute: float, spectral: float) -> dict:
    """Every DepletionRun field (steps as certificate dicts) plus the values
    measured or derived outside the run."""
    return {
        **asdict(run),
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

    def finish() -> tuple[dict, int]:
        report["passed"] = (
            all(a["passed"] for a in report["assertions"]) and not report["failures"]
        )
        report["timing"] = {"wall_seconds": round(time.perf_counter() - start, 3)}
        return report, worst_exit(codes)

    try:
        f = build_recipe(params, config.f_recipe, rng_corpus)
        g = derive_minorant(f, config.g_recipe, rng_corpus)
    except (ConfigError, ValueError) as exc:
        fail("config", str(exc), EXIT_ERROR)
        return finish()

    if params.F > config.brute_force_limit and not config.force:
        fail(
            "guardrail",
            f"F = {params.F} exceeds the brute-force limit {config.brute_force_limit}; "
            "pass force to spend the quadratic time",
            EXIT_ERROR,
        )
        return finish()

    spectrum = dft(f)
    delta = resolve_delta(config, spectrum)
    theta = derived_theta(g.mean(), params.F)
    hypotheses = check_hypotheses(f, g, config.k, delta, spectrum)
    top = spectrum.magnitudes[spectrum.order[: config.k]]
    report["means"] = {"e_f": f.mean(), "e_g": g.mean()}
    report["spectrum"] = {
        "top_magnitudes": top,
        "sigma_k": spectrum.sigma(config.k),
        "quasinorm_third": spectrum.quasinorm(1.0 / 3.0),
        "parseval_gap": parseval_gap(f, spectrum),
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

    rhs_exact = (
        lambda3_floor(params.p, params.F, config.k, theta, delta, form="exact")
        if math.isfinite(theta)
        else -math.inf
    )
    rhs_weakened = (
        lambda3_floor(params.p, params.F, config.k, theta, delta, form="weakened")
        if math.isfinite(theta)
        else -math.inf
    )
    report["floors"] = {"exact": rhs_exact, "weakened": rhs_weakened}
    if config.gamma is not None and math.isfinite(theta):
        report["floors"]["stated_headline"] = quasinorm_regime_bound(
            params.p, params.F, theta, config.gamma
        )
        report["spectrum"]["quasinorm_benchmark"] = params.F ** (1.0 + config.gamma)

    if config.trials > 0 or config.exhaustive:
        A = spectrum.top_places(config.k)
        try:
            est = estimate_condition_probabilities(
                params,
                nprime,
                A=A,
                g=g,
                trials=config.trials,
                rng=rng_est,
                exhaustive=config.exhaustive,
                cap=config.enumeration_cap,
            )
            mom = chebyshev_moments(
                g,
                nprime,
                trials=config.trials,
                rng=rng_est,
                exhaustive=config.exhaustive,
                cap=config.enumeration_cap,
            )
            report["estimates"] = {
                "separation": est.p_separation,
                "separation_stderr": est.p_separation_stderr,
                "coset_density": est.p_coset_density,
                "coset_density_stderr": est.p_coset_density_stderr,
                "trials": est.trials,
                "exhaustive": est.exhaustive,
                "moment_mean": mom.mean,
                "moment_mean_identity": mom.mean_identity,
                "moment_variance": mom.variance,
                "moment_variance_bound": mom.variance_bound,
            }
        except EnumerationCapError as exc:
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
    check(
        "oracle_agreement[f]",
        abs(brute_fff - spectral_fff) <= 1e-8,
        f"|brute - spectral| = {abs(brute_fff - spectral_fff):.3g}",
    )
    check(
        "trivial_bound[f]",
        brute_fff >= trivial_lower_bound(f) - 1e-12,
        f"measured {brute_fff:.6g} vs trivial {trivial_lower_bound(f):.6g}",
    )

    finder_cfg = FinderConfig(
        k=config.k, max_attempts=config.max_attempts, nprime=config.nprime
    )
    run_rngs = {"fgf": rng_fgf, "gff": rng_gff}
    for ordering in config.orderings:
        try:
            run = run_depletion(
                f,
                g,
                config.k,
                delta,
                ordering=ordering,
                finder_cfg=finder_cfg,
                rng=run_rngs[ordering],
                refresh=config.refresh,
                spectrum=spectrum,
            )
        except HypothesisRefusal as exc:
            fail("hypothesis_refusal", str(exc), EXIT_REFUSED)
            continue
        except (CertificateError, ContextInvariantError) as exc:
            fail("certificate", str(exc), EXIT_ASSERTION)
            continue
        brute, spectral = measure(f, g, f) if ordering == "fgf" else measure(g, f, f)
        report["runs"].append(_run_dict(run, rhs_exact, brute, spectral))
        if run.partial:
            fail(
                "finder_budget",
                f"ordering {ordering}: finder budget exhausted after "
                f"{len(run.steps)} of {run.r} steps; rejections {run.finder_rejections}",
                EXIT_BUDGET,
            )
            continue
        gap = abs(brute - spectral)
        check(
            f"oracle_agreement[{ordering}]",
            gap <= 1e-8,
            f"|brute - spectral| = {gap:.3g}",
        )
        check(
            f"certificates[{ordering}]",
            run.certificates_ok,
            f"{len(run.steps)} steps, {run.vacuous_steps} vacuous",
        )
        check(
            f"certified_le_measured[{ordering}]",
            brute >= run.lambda_lower - 1e-9,
            f"measured {brute:.6g} vs certified {run.lambda_lower:.6g}",
        )
        check(
            f"floor_le_measured[{ordering}]",
            brute >= rhs_exact - 1e-12,
            f"measured {brute:.6g} vs closed-form floor {rhs_exact:.6g}"
            + (" (vacuous)" if rhs_exact < 0 else ""),
        )
        check(
            f"trivial_le_measured[{ordering}]",
            brute >= trivial_lower_bound(g) - 1e-12,
            f"measured {brute:.6g} vs trivial {trivial_lower_bound(g):.6g}",
        )

    return finish()


def load_config_file(path: str, overrides: dict | None = None) -> list[ExperimentConfig]:
    """Parse a config file holding one experiment or {"experiments": [...]};
    every key in overrides replaces that key in each entry."""
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
    configs = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ConfigError(f"config must be a JSON object, got {type(entry).__name__}")
        configs.append(ExperimentConfig.from_dict({**entry, **(overrides or {})}))
    return configs


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

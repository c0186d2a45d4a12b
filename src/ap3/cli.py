"""Batch front-end.

Subcommands: transform (function -> spectrum CSV), lambda3 (progression
density with oracle cross-check), verify (config-driven end-to-end runs),
estimate (lemma frequency sweeps over k).

Exit codes: 0 pass, 1 cap/IO/guardrail error, 2 hypothesis refusal,
3 finder budget exhausted, 4 assertion failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import __version__
from .bounds import pair_count
from .experiment import (
    EXIT_ASSERTION,
    EXIT_ERROR,
    EXIT_PASS,
    ConfigError,
    build_recipe,
    load_config_file,
    report_json,
    run_config,
)
from .field import EnumerationCapError, FieldParams, InfeasibleError
from .finder import chebyshev_moments, choose_dimension, estimate_condition_probabilities
from .lambda3 import (
    AGREEMENT_TOLERANCE,
    BRUTE_FORCE_LIMIT,
    lambda3_brute,
    lambda3_spectral,
    trivial_lower_bound,
)
from .spectral import DenseFunction, dft

EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse with the BSD usage-error exit code instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _trials_type(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("trials must be a positive integer")
    return value


def _k_list(text: str) -> list[int]:
    try:
        ks = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad k list {text!r}") from exc
    if not ks or any(k < 1 for k in ks):
        raise argparse.ArgumentTypeError("k must be a comma list of positive integers")
    return ks


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ap3", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ap3 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    tr = sub.add_parser("transform", help="write the spectrum of a function as CSV")
    tr.add_argument("--in", dest="infile", help="function file (.json self-describing, .csv needs --p/--n)")
    tr.add_argument("--recipe", help="inline JSON recipe instead of a file")
    tr.add_argument("--p", type=int)
    tr.add_argument("--n", type=int)
    tr.add_argument("--seed", type=_seed_type, default=0)
    tr.add_argument("--out", help="output directory (default: stdout)")

    la = sub.add_parser("lambda3", help="progression density with oracle cross-check")
    la.add_argument("--files", nargs="+", metavar="FILE", help="one function, or two with --ordering, or an explicit triple")
    la.add_argument("--recipe", help="inline JSON recipe for a single function")
    la.add_argument("--p", type=int)
    la.add_argument("--n", type=int)
    la.add_argument("--seed", type=_seed_type, default=0)
    la.add_argument("--method", choices=("brute", "spectral", "both"), default="both")
    la.add_argument("--ordering", choices=("fgf", "gff", "both"), default="fgf")
    la.add_argument("--force", action="store_true", help="spend quadratic time above the brute-force limit")
    la.add_argument("--out", help="output directory (default: stdout)")

    ve = sub.add_parser("verify", help="run configured experiments end to end")
    ve.add_argument("--config", required=True, help="experiment config JSON")
    ve.add_argument("--seed", type=_seed_type)
    ve.add_argument("--p", type=int)
    ve.add_argument("--n", type=int)
    ve.add_argument("--k", type=int)
    ve.add_argument("--gamma", type=float)
    ve.add_argument("--delta", type=float)
    ve.add_argument("--trials", type=int)
    ve.add_argument("--exhaustive", action="store_true", default=None)
    ve.add_argument("--ordering", choices=("fgf", "gff", "both"))
    ve.add_argument("--force", action="store_true", default=None)
    ve.add_argument("--out", help="output directory (default: report to stdout)")

    es = sub.add_parser("estimate", help="lemma condition frequencies over a k grid")
    es.add_argument("--p", type=int, required=True)
    es.add_argument("--n", type=int, required=True)
    es.add_argument("--k", type=_k_list, required=True, help="comma list, e.g. 2,3,4")
    es.add_argument("--lemma", choices=("separation", "moments", "both"), default="both")
    es.add_argument("--trials", type=_trials_type, default=1000)
    es.add_argument("--exhaustive", action="store_true")
    es.add_argument("--seed", type=_seed_type, default=0)
    es.add_argument("--cap", type=int, default=200_000, help="exhaustive enumeration cap")
    es.add_argument("--out", help="output directory (default: stdout)")
    return parser


def _emit(text: str, out_dir: str | None, filename: str) -> None:
    if out_dir is None:
        sys.stdout.write(text)
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(path)


def _load_function(path: str, p: int | None, n: int | None) -> DenseFunction:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if path.endswith(".csv"):
        if p is None or n is None:
            raise ConfigError("CSV function files need --p and --n")
        return DenseFunction.from_csv(FieldParams(p, n), text)
    try:
        return DenseFunction.from_json(text)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{path} is not a valid function file: {exc}") from exc


def _function_from_args(args) -> DenseFunction:
    infile = getattr(args, "infile", None)
    if (infile is None) == (args.recipe is None):
        raise ConfigError("give exactly one of --in and --recipe")
    if infile is not None:
        return _load_function(infile, args.p, args.n)
    if args.p is None or args.n is None:
        raise ConfigError("--recipe needs --p and --n")
    try:
        spec = json.loads(args.recipe)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--recipe is not valid JSON: {exc}") from exc
    params = FieldParams(args.p, args.n)
    return build_recipe(params, spec, np.random.default_rng(args.seed))


def cmd_transform(args) -> int:
    f = _function_from_args(args)
    _emit(dft(f).to_csv(), args.out, "spectrum.csv")
    return EXIT_PASS


def _lambda3_triples(args) -> list[tuple[str, tuple[DenseFunction, ...]]]:
    if args.files and args.recipe:
        raise ConfigError("give --files or --recipe, not both")
    if args.recipe or (args.files and len(args.files) == 1):
        if args.recipe:
            f = _function_from_args(args)
        else:
            f = _load_function(args.files[0], args.p, args.n)
        return [("fff", (f, f, f))]
    if not args.files:
        raise ConfigError("give --files or --recipe")
    if len(args.files) == 2:
        f = _load_function(args.files[0], args.p, args.n)
        g = _load_function(args.files[1], args.p, args.n)
        rows = []
        if args.ordering in ("fgf", "both"):
            rows.append(("fgf", (f, g, f)))
        if args.ordering in ("gff", "both"):
            rows.append(("gff", (g, f, f)))
        return rows
    if len(args.files) == 3:
        fs = tuple(_load_function(path, args.p, args.n) for path in args.files)
        return [("explicit", fs)]
    raise ConfigError(f"--files takes 1, 2, or 3 paths, got {len(args.files)}")


def cmd_lambda3(args) -> int:
    triples = _lambda3_triples(args)
    params = triples[0][1][0].params
    if args.method in ("brute", "both") and params.F > BRUTE_FORCE_LIMIT and not args.force:
        raise ConfigError(
            f"F = {params.F} exceeds the brute-force limit {BRUTE_FORCE_LIMIT}; "
            "pass --force or --method spectral"
        )
    rows = []
    worst = EXIT_PASS
    for name, fs in triples:
        row: dict = {"ordering": name, "method": args.method}
        if args.method in ("brute", "both"):
            row["brute"] = lambda3_brute(*fs)
        if args.method in ("spectral", "both"):
            row["spectral"] = lambda3_spectral(*fs)
        if args.method == "both":
            gap = abs(row["brute"] - row["spectral"])
            row["agreement_gap"] = gap
            row["agrees"] = gap <= AGREEMENT_TOLERANCE
            if not row["agrees"]:
                worst = EXIT_ASSERTION
        if name == "fff":
            row["trivial_bound"] = trivial_lower_bound(fs[0])
        rows.append(row)
    report = {
        "version": __version__,
        "field": {"p": params.p, "n": params.n, "F": params.F},
        "results": rows,
    }
    _emit(report_json(report), args.out, "lambda3.json")
    return worst


def cmd_verify(args) -> int:
    overrides = {}
    for key in ("seed", "p", "n", "k", "gamma", "delta", "trials"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    if args.ordering is not None:
        overrides["ordering"] = args.ordering
    if args.exhaustive is not None:
        overrides["exhaustive"] = True
    if args.force is not None:
        overrides["force"] = True
    report, code = run_config(load_config_file(args.config, overrides))
    _emit(report_json(report), args.out, "report.json")
    status = "PASS" if code == EXIT_PASS else f"FAIL(exit {code})"
    print(f"verify: {status}", file=sys.stderr)
    return code


def _estimate_row(
    params: FieldParams,
    k: int,
    lemma: str,
    trials: int,
    exhaustive: bool,
    cap: int,
    child: np.random.SeedSequence,
) -> dict:
    rng = np.random.default_rng(child)
    nprime = choose_dimension(k, params)
    g = DenseFunction.make(params, rng.uniform(0.0, 1.0, params.F))
    A = rng.choice(params.F, size=k, replace=False).astype(np.int64)
    pairs = pair_count(k)
    row = {
        "p": params.p,
        "n": params.n,
        "k": k,
        "nprime": nprime,
        "trials": trials,
        "exhaustive": exhaustive,
        "separation": "",
        "separation_stderr": "",
        "separation_bound": "",
        "coset_density": "",
        "coset_density_stderr": "",
        "moment_mean": "",
        "moment_mean_identity": "",
        "moment_variance": "",
        "moment_variance_bound": "",
    }
    if lemma in ("separation", "both"):
        est = estimate_condition_probabilities(
            params, nprime, A=A, g=g, trials=trials, rng=rng, exhaustive=exhaustive, cap=cap
        )
        row["separation"] = est.p_separation
        row["separation_stderr"] = est.p_separation_stderr
        row["separation_bound"] = 1.0 - pairs * float(params.p) ** (-nprime)
        row["coset_density"] = est.p_coset_density
        row["coset_density_stderr"] = est.p_coset_density_stderr
    if lemma in ("moments", "both"):
        mom = chebyshev_moments(g, nprime, trials=trials, rng=rng, exhaustive=exhaustive, cap=cap)
        row["moment_mean"] = mom.mean
        row["moment_mean_identity"] = mom.mean_identity
        row["moment_variance"] = mom.variance
        row["moment_variance_bound"] = mom.variance_bound
    return row


def cmd_estimate(args) -> int:
    params = FieldParams(args.p, args.n)
    children = np.random.SeedSequence(args.seed).spawn(len(args.k))
    rows = [
        _estimate_row(params, k, args.lemma, args.trials, args.exhaustive, args.cap, child)
        for k, child in zip(args.k, children)
    ]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _emit(buf.getvalue(), args.out, "estimates.csv")
    return EXIT_PASS


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "transform": cmd_transform,
        "lambda3": cmd_lambda3,
        "verify": cmd_verify,
        "estimate": cmd_estimate,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, EnumerationCapError, InfeasibleError) as exc:
        print(f"ap3 {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        print(f"ap3 {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Batch front-end.

Subcommands: transform (function -> spectrum CSV), lambda3 (progression
density with oracle cross-check), verify (config-driven end-to-end runs),
estimate (lemma frequency sweeps over k).
verify prices every config entry, and estimate every k, before any runs.

Exit codes: 0 pass, 1 config/IO/limit error, 2 hypothesis refusal,
3 finder budget exhausted, 4 assertion failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .experiment import (
    EXIT_ASSERTION,
    EXIT_ERROR,
    EXIT_PASS,
    ORDERING_CHOICES,
    ConfigError,
    build_recipe,
    load_config_file,
    report_json,
    run_config,
)
from .field import FieldParams
from .finder import check_estimate_budget, choose_dimension, estimate_condition_probabilities
from .lambda3 import (
    AGREEMENT_TOLERANCE,
    check_brute_budget,
    lambda3_brute,
    lambda3_spectral,
    trivial_lower_bound,
)
from .spectral import DenseFunction

EXIT_USAGE = 64
# The estimate columns each --lemma fills, by name prefix.
_LEMMA_COLUMNS = {
    "separation": ("separation", "coset_density"),
    "moments": ("moment_",),
    "both": ("separation", "coset_density", "moment_"),
}
# The estimate figure columns, in CSV order; the ones --lemma leaves out are "".
_FIGURE_COLUMNS = (
    "separation", "separation_stderr", "separation_bound", "coset_density", "coset_density_stderr",
    "moment_mean", "moment_mean_identity", "moment_variance", "moment_variance_bound",
)


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


def _positive_int(text: str) -> int:
    """An integer of at least 1; argparse names the flag in the error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
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
    la.add_argument("--ordering", choices=tuple(ORDERING_CHOICES), help="with two --files only (default fgf)")
    la.add_argument("--out", help="output directory (default: stdout)")

    ve = sub.add_parser("verify", help="run configured experiments end to end")
    ve.add_argument("--config", required=True, help="experiment config JSON")
    ve.add_argument("--out", help="output directory (default: report to stdout)")

    es = sub.add_parser("estimate", help="lemma condition frequencies over a k grid")
    es.add_argument("--p", type=int, required=True)
    es.add_argument("--n", type=int, required=True)
    es.add_argument("--k", type=_k_list, required=True, help="comma list, e.g. 2,3,4")
    es.add_argument("--lemma", choices=("separation", "moments", "both"), default="both")
    es.add_argument("--trials", type=_positive_int, default=1000)
    es.add_argument("--exhaustive", action="store_true")
    es.add_argument("--seed", type=_seed_type, default=0)
    es.add_argument("--out", help="output directory (default: stdout)")
    return parser


def _emit(text: str, out_dir: str | None, filename: str) -> None:
    if out_dir is None:
        sys.stdout.write(text)
        return
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
        f = DenseFunction.from_json(text)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{path} is not a valid function file: {exc}") from exc
    for flag, given, stored in (("--p", p, f.params.p), ("--n", n, f.params.n)):
        if given is not None and given != stored:
            raise ConfigError(f"{flag} {given} contradicts {flag[2:]} = {stored} in {path}")
    return f


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
    _emit(f.spectrum.to_csv(), args.out, "spectrum.csv")
    return EXIT_PASS


def _lambda3_triples(args) -> list[tuple[str, tuple[DenseFunction, ...]]]:
    if args.files and args.recipe:
        raise ConfigError("give --files or --recipe, not both")
    if args.ordering is not None and len(args.files or ()) != 2:
        raise ConfigError("--ordering needs exactly two --files")
    if not args.files and not args.recipe:
        raise ConfigError("give --files or --recipe")
    if args.files and len(args.files) > 3:
        raise ConfigError(f"--files takes 1, 2, or 3 paths, got {len(args.files)}")
    if args.recipe:
        fs = [_function_from_args(args)]
    else:
        fs = [_load_function(path, args.p, args.n) for path in args.files]
    if len(fs) == 1:
        return [("fff", (fs[0], fs[0], fs[0]))]
    if len(fs) == 2:
        f, g = fs
        triples = {"fgf": (f, g, f), "gff": (g, f, f)}
        return [(name, triples[name]) for name in ORDERING_CHOICES[args.ordering or "fgf"]]
    return [("explicit", tuple(fs))]


def cmd_lambda3(args) -> int:
    brute = args.method in ("brute", "both")
    if brute and args.p is not None and args.n is not None:
        check_brute_budget(FieldParams(args.p, args.n))  # before a recipe is built
    triples = _lambda3_triples(args)
    params = triples[0][1][0].params
    if brute:
        check_brute_budget(params)  # a JSON function file names its own field
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
    config = load_config_file(args.config)
    report, code = run_config(config)
    _emit(report_json(report), args.out, "report.json")
    status = "PASS" if code == EXIT_PASS else f"FAIL(exit {code})"
    print(f"verify: {status}", file=sys.stderr)
    return code


def _estimate_row(
    params: FieldParams,
    k: int,
    nprime: int,
    lemma: str,
    trials: int,
    exhaustive: bool,
    child: np.random.SeedSequence,
) -> dict:
    rng = np.random.default_rng(child)
    g = DenseFunction.make(params, rng.uniform(0.0, 1.0, params.F))
    A = rng.choice(params.F, size=k, replace=False).astype(np.int64)
    est = estimate_condition_probabilities(
        nprime, A=A, g=g, trials=trials, rng=rng, exhaustive=exhaustive
    )
    figures = asdict(est)
    figures["separation_bound"] = 1.0 - math.comb(k, 2) * float(params.p) ** (-nprime)
    filled = _LEMMA_COLUMNS[lemma]
    return {
        "p": params.p,
        "n": params.n,
        "k": k,
        "nprime": nprime,
        "trials": est.trials,
        "exhaustive": est.exhaustive,
        **{key: figures[key] if key.startswith(filled) else "" for key in _FIGURE_COLUMNS},
    }


def cmd_estimate(args) -> int:
    params = FieldParams(args.p, args.n)
    nprimes = [choose_dimension(k, params) for k in args.k]
    for nprime in nprimes:  # every row is priced before the first runs
        check_estimate_budget(params, nprime, args.trials, args.exhaustive)
    children = np.random.SeedSequence(args.seed).spawn(len(args.k))
    rows = [
        _estimate_row(params, k, nprime, args.lemma, args.trials, args.exhaustive, child)
        for k, nprime, child in zip(args.k, nprimes, children)
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
    made, path = [], args.out  # the directories --out makes, leaf first
    while path and not os.path.isdir(path):
        made.append(path)
        path = os.path.dirname(path)
    try:
        if args.out == "":  # else the output would land in the working directory
            raise ValueError("--out is empty; name a directory")
        if made:  # an unusable --out fails before any command runs
            os.makedirs(args.out)
        return handlers[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        # ValueError covers ConfigError, InfeasibleError and every budget refusal
        print(f"ap3 {args.command}: error: {exc}", file=sys.stderr)
        for path in made:  # a refused command leaves no empty directory it made
            with contextlib.suppress(OSError):
                os.rmdir(path)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance gate: one verdict line per criterion, at the stated tolerances.

Each test prints "[ACCEPTANCE] <criterion>: PASS/FAIL (<detail>)" past the
capture so the verdicts survive a plain pytest run, then asserts.
"""

import json
import math
import time

import numpy as np
import pytest

from ap3.cli import main as cli_main
from ap3.experiment import ExperimentConfig, run_experiment
from ap3.field import FieldParams, Subspace
from ap3.finder import (
    CandidateStream,
    choose_dimension,
    estimate_condition_probabilities,
    find_good_subspace,
)
from ap3.functions import indicator, normalized_conv_power, random_set
from ap3.lambda3 import lambda3_brute, lambda3_spectral, trivial_lower_bound
from ap3.midpoint import (
    SubspaceFrame,
    build_context,
    coset_scores,
    run_depletion,
    select_translate,
    tail_energy,
    translate_scores,
)
from ap3.spectral import DenseFunction, PaddedCube, dft, idft, parseval_gap


FIELD_GRID = [(p, n) for p in (3, 5, 7) for n in (1, 2, 3, 4)]

END_TO_END_CORPUS = {
    "k4_p5": {
        "p": 5, "n": 4, "seed": 11, "k": 4, "ordering": "both", "trials": 300,
        "f": {"kind": "cosine", "base": 0.99, "amplitude": 0.01, "frequency": [1, 0, 0, 0]},
        "g": {"kind": "uniform", "low": 0.9, "high": 0.98},
    },
    "k4_p7": {
        "p": 7, "n": 3, "seed": 23, "k": 4, "ordering": "both",
        "f": {"kind": "cosine", "base": 0.95, "amplitude": 0.05, "frequency": [1, 0, 0]},
        "g": {"kind": "uniform", "low": 0.8, "high": 0.89},
    },
    "k3_flagged": {
        "p": 5, "n": 4, "seed": 11, "k": 3,
        "f": {"kind": "cosine", "base": 0.99, "amplitude": 0.01, "frequency": [1, 0, 0, 0]},
        "g": {"kind": "uniform", "low": 0.9, "high": 0.98},
    },
    "k2_vacuous": {
        "p": 5, "n": 4, "seed": 11, "k": 2, "gamma": 0.0,
        "f": {"kind": "cosine", "base": 0.99, "amplitude": 0.01, "frequency": [1, 0, 0, 0]},
        "g": {"kind": "uniform", "low": 0.9, "high": 0.98},
    },
}


@pytest.fixture
def announce(capsys):
    def emit(name, ok, detail):
        with capsys.disabled():
            print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} ({detail})")

    return emit


@pytest.fixture(scope="module")
def random_triples():
    """100 seeded triples across the (p, n) grid, built once."""
    rng = np.random.default_rng(0xACC3)
    triples = []
    for i in range(100):
        p, n = FIELD_GRID[i % len(FIELD_GRID)]
        params = FieldParams(p, n)
        fs = tuple(
            DenseFunction.make(params, rng.random(params.F)) for _ in range(3)
        )
        triples.append((params, fs))
    return triples


@pytest.fixture(scope="module")
def corpus_reports():
    out = {}
    for name, raw in END_TO_END_CORPUS.items():
        config = ExperimentConfig.from_dict(raw)
        out[name] = run_experiment(config)
    return out


def test_parseval_and_roundtrip(announce):
    start = time.perf_counter()
    rng = np.random.default_rng(0xFA57)
    worst_parseval = worst_roundtrip = 0.0
    for i in range(200):
        p, n = FIELD_GRID[i % len(FIELD_GRID)]
        params = FieldParams(p, n)
        f = DenseFunction.make(params, rng.random(params.F))
        spectrum = dft(f)
        worst_parseval = max(worst_parseval, parseval_gap(f))
        back = idft(params, spectrum.coeffs)
        worst_roundtrip = max(worst_roundtrip, float(np.abs(back.values - f.values).max()))
    elapsed = time.perf_counter() - start
    ok = worst_parseval < 1e-9 and worst_roundtrip < 1e-9 and elapsed < 30.0
    announce(
        "parseval_roundtrip",
        ok,
        f"200 functions, parseval rel {worst_parseval:.2e}, "
        f"roundtrip {worst_roundtrip:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_lambda3_oracle_equivalence(announce, random_triples):
    start = time.perf_counter()
    worst = 0.0
    for params, fs in random_triples:
        gap = abs(lambda3_brute(*fs) - lambda3_spectral(*fs))
        worst = max(worst, gap)
    # module examples: constant, point mass, subgroup
    examples_ok = True
    for p, n in ((3, 3), (5, 2), (7, 2)):
        params = FieldParams(p, n)
        one = DenseFunction.constant(params, 1.0)
        examples_ok &= abs(lambda3_brute(one, one, one) - 1.0) < 1e-12
        examples_ok &= abs(lambda3_spectral(one, one, one) - 1.0) < 1e-8
        point = indicator(params, [0])
        expected = params.F**-2.0
        examples_ok &= abs(lambda3_brute(point, point, point) - expected) < 1e-12
        examples_ok &= abs(lambda3_spectral(point, point, point) - expected) < 1e-8
    for p in (3, 5):
        params = FieldParams(p, 2)
        H = Subspace.from_rows(params, [[1, 0]])
        f = indicator(H.params, H.members())
        density = H.size / params.F
        examples_ok &= abs(lambda3_brute(f, f, f) - density**2) < 1e-12
        examples_ok &= abs(lambda3_spectral(f, f, f) - density**2) < 1e-8
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and bool(examples_ok) and elapsed < 120.0
    announce(
        "lambda3_oracle",
        ok,
        f"100 triples, worst gap {worst:.2e}, module examples "
        f"{'ok' if examples_ok else 'BROKEN'}, {elapsed:.1f}s",
    )
    assert ok


def test_trivial_bound_corpus(announce, random_triples):
    start = time.perf_counter()
    worst_margin = math.inf
    for params, fs in random_triples:
        f = fs[0]
        margin = lambda3_brute(f, f, f) - trivial_lower_bound(f)
        worst_margin = min(worst_margin, margin)
    elapsed = time.perf_counter() - start
    ok = worst_margin >= -1e-12
    announce(
        "trivial_bound",
        ok,
        f"100 functions, worst margin {worst_margin:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_separation_exhaustive(announce):
    start = time.perf_counter()
    rng = np.random.default_rng(0x5E9A)
    tested = 0
    ok = True
    worst = math.inf
    for n in (2, 3):
        params = FieldParams(3, n)
        g = DenseFunction.constant(params, 1.0)
        for k in (2, 3):
            nprime = choose_dimension(k, params)
            bound = 1.0 - k * (k - 1) / 2.0 * 3.0**-nprime
            sets = [np.arange(k, dtype=np.int64)]
            for _ in range(10):
                sets.append(rng.choice(params.F, size=k, replace=False).astype(np.int64))
            for A in sets:
                est = estimate_condition_probabilities(nprime, A=A, g=g, exhaustive=True)
                tested += 1
                worst = min(worst, est.separation)
                ok &= est.separation >= bound - 1e-12
                ok &= est.separation >= 0.5 - 1e-12
    elapsed = time.perf_counter() - start
    ok = bool(ok) and elapsed < 60.0
    announce(
        "separation_exact",
        ok,
        f"{tested} sets over p=3 n=2,3 k=2,3, worst exact P {worst:.4f}, {elapsed:.1f}s",
    )
    assert ok


def test_coset_moments_exhaustive(announce):
    start = time.perf_counter()
    rng = np.random.default_rng(0x30B5)
    grid = [(2, 1), (3, 1), (3, 2)]
    A = np.array([0, 1], dtype=np.int64)
    worst_rel = 0.0
    worst_var_slack = math.inf
    ok = True
    for i in range(50):
        n, nprime = grid[i % len(grid)]
        params = FieldParams(3, n)
        g = DenseFunction.make(params, rng.random(params.F))
        mom = estimate_condition_probabilities(nprime, A=A, g=g, exhaustive=True)
        rel = abs(mom.moment_mean - mom.moment_mean_identity) / abs(mom.moment_mean_identity)
        worst_rel = max(worst_rel, rel)
        worst_var_slack = min(worst_var_slack, mom.moment_variance_bound - mom.moment_variance)
        ok &= rel <= 1e-12
        ok &= mom.moment_variance <= mom.moment_variance_bound + 1e-9
    elapsed = time.perf_counter() - start
    ok = bool(ok) and elapsed < 120.0
    announce(
        "coset_moments",
        ok,
        f"50 functions, worst mean rel {worst_rel:.2e}, "
        f"min variance slack {worst_var_slack:.3f}, {elapsed:.1f}s",
    )
    assert ok


def test_averaging_identity(announce):
    start = time.perf_counter()
    rng = np.random.default_rng(0xA0E1)
    worst_rel = 0.0
    min_ok = True
    for i in range(50):
        n = 2 + (i % 2)
        k = 2 + (i % 2)
        params = FieldParams(3, n)
        f = DenseFunction.make(params, rng.random(params.F))
        spectrum = dft(f)
        A = spectrum.top_places(k)
        good = find_good_subspace(CandidateStream(params, A, rng), np.ones(params.F))
        frame = SubspaceFrame.build(spectrum, good.W)
        sigma = spectrum.sigma(k)
        total = float(translate_scores(frame, A, np.arange(params.F)).sum())
        rel = abs(total - params.F * sigma) / max(params.F * sigma, 1e-12)
        worst_rel = max(worst_rel, rel)
        scores = coset_scores(tail_energy(spectrum, A), good)
        t, q = select_translate(scores, good.coset_labels, good.dense, sigma, 0.0)
        min_ok &= q <= 4.0 * sigma + 1e-9
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-6 and bool(min_ok) and elapsed < 120.0
    announce(
        "averaging_identity",
        ok,
        f"50 (f, W) pairs, worst rel gap {worst_rel:.2e}, "
        f"min Q <= 4 sigma_k {'held' if min_ok else 'BROKEN'}, {elapsed:.1f}s",
    )
    assert ok


def test_context_invariants(announce):
    start = time.perf_counter()
    rng = np.random.default_rng(0xC0DE)
    built = 0
    worst_hhat = 0.0
    ok = True
    for i in range(20):
        p, n = ((3, 3), (3, 2), (5, 2), (7, 2))[i % 4]
        params = FieldParams(p, n)
        f = DenseFunction.make(params, rng.random(params.F))
        spectrum = dft(f)
        A = spectrum.top_places(2)
        good = find_good_subspace(CandidateStream(params, A, rng), np.ones(params.F))
        scores = coset_scores(tail_energy(spectrum, A), good)
        t, _ = select_translate(scores, good.coset_labels, good.dense, spectrum.sigma(2), 0.0)
        ctx = build_context(f, A, good.W, t)
        built += 1
        gap = float(np.abs(dft(ctx.h).coeffs - ctx.hhat).max())
        worst_hhat = max(worst_hhat, gap)
        ok &= gap < 1e-8
        coset = good.W.coset(t)
        ok &= bool(np.abs(ctx.h.values[coset] - f.values[coset]).max() < 1e-9)
        h_cube = PaddedCube(params, ctx.h.values)
        for row in good.W.complement().basis:
            v = int(params.indices_of(np.asarray(row)))
            shifted = h_cube.shifted(params.digits_of(v)).reshape(-1)
            ok &= bool(np.abs(shifted - ctx.h.values).max() < 1e-9)
    elapsed = time.perf_counter() - start
    ok = bool(ok)
    announce(
        "context_invariants",
        ok,
        f"{built} contexts, worst hhat gap {worst_hhat:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_midpoint_certificates(announce, corpus_reports):
    start = time.perf_counter()
    runs = steps = 0
    ok = True
    worst_margin = math.inf
    for name, (report, code) in corpus_reports.items():
        for run in report["runs"]:
            runs += 1
            ok &= run["certificates_ok"] is True
            for step in run["steps"]:
                steps += 1
                if step["hypotheses_held"]:
                    margin = step["pair_count"] - step["floor"]
                    worst_margin = min(worst_margin, margin)
                    ok &= margin >= -1e-9
    elapsed = time.perf_counter() - start
    ok = bool(ok) and runs > 0
    announce(
        "midpoint_certificates",
        ok,
        f"{steps} certified steps across {runs} depletion runs, "
        f"worst margin {worst_margin:.3g}, {elapsed:.1f}s",
    )
    assert ok


def test_theorem_end_to_end(announce, corpus_reports):
    start = time.perf_counter()
    ok = True
    details = []
    for name in ("k4_p5", "k4_p7"):
        report, code = corpus_reports[name]
        ok &= code == 0
        ok &= report["hypotheses"]["passed"] is True
        rhs = report["floors"]["exact"]
        ok &= rhs > 0.0
        ok &= {r["ordering"] for r in report["runs"]} == {"fgf", "gff"}
        for run in report["runs"]:
            ok &= not run["partial"]
            ok &= run["lambda_measured_brute"] >= rhs - 1e-9
        details.append(f"{name} rhs {rhs:.3g}")
    report, code = corpus_reports["k3_flagged"]
    ok &= code == 0
    ok &= report["hypotheses"]["passed"] is False
    ok &= all(not r["partial"] for r in report["runs"])
    ok &= all(r["lambda_measured_brute"] >= report["floors"]["exact"] - 1e-9 for r in report["runs"])
    report, code = corpus_reports["k2_vacuous"]
    ok &= code == 0
    ok &= report["floors"]["exact"] < 0.0
    run = report["runs"][0]
    ok &= run["floor_vacuous"] is True
    ok &= not run["partial"]
    ok &= len(run["steps"]) == run["r"]
    ok &= run["vacuous_steps"] > 0
    elapsed = time.perf_counter() - start
    wall = sum(rep["timing"]["wall_seconds"] for rep, _ in corpus_reports.values())
    ok = bool(ok) and wall < 300.0
    announce(
        "theorem_end_to_end",
        ok,
        f"{', '.join(details)}; k3 flagged, k2 vacuous completes, "
        f"corpus wall {wall:.1f}s",
    )
    assert ok


def test_sevenfold_pipeline(announce):
    start = time.perf_counter()
    rng = np.random.default_rng(0x7F0)
    expected_sizes = {6: 683, 7: 2026, 8: 6009}
    ok = True
    details = []
    for n in (6, 7, 8):
        params = FieldParams(3, n)
        size = math.ceil(params.F**0.99)
        ok &= size == expected_sizes[n]
        S = random_set(params, size, rng)
        f = normalized_conv_power(S, 7)
        spectrum = dft(f)
        quasinorm = spectrum.quasinorm(1.0 / 3.0)
        benchmark = params.F**1.03
        brute = lambda3_brute(f, f, f)
        spectral = lambda3_spectral(f, f, f)
        ok &= abs(brute - spectral) <= 1e-8
        trivial = trivial_lower_bound(f)
        ok &= brute > trivial
        pos = (f.values > 0.0).astype(np.float64)
        pos_cube = PaddedCube(params, pos)
        count = 0.0
        for d in range(1, params.F):
            digits = params.digits_of(d)
            pd = pos_cube.shifted(digits).reshape(-1)
            p2d = pos_cube.shifted((2 * digits) % params.p).reshape(-1)
            count += float((pos * pd * p2d).sum())
        ok &= count > 0.0
        details.append(
            f"n={n} quasinorm {quasinorm:.0f} vs F^1.03 {benchmark:.0f}, "
            f"lambda3 {brute:.3f} > trivial {trivial:.2e}, d!=0 count {count:.0f}"
        )
        if n == 6:
            delta = 1.01 * float(np.sqrt(spectrum.sigma(5))) / params.F
            (run,) = run_depletion(f, f, k=5, delta=delta, rng=rng)
            ok &= not run.partial
            ok &= run.certificates_ok
            ok &= run.lambda_lower > 0.0
            ok &= brute >= run.lambda_lower - 1e-9
            details.append(
                f"n=6 depletion {len(run.steps)} steps certified, "
                f"lower {run.lambda_lower:.3g} <= measured {brute:.3f}"
            )
    elapsed = time.perf_counter() - start
    ok = bool(ok) and elapsed < 600.0
    announce(
        "sevenfold_pipeline",
        ok,
        "; ".join(details) + f"; {elapsed:.1f}s",
    )
    assert ok


def test_report_determinism(announce, tmp_path, capsys):
    start = time.perf_counter()
    out1, out2 = tmp_path / "one", tmp_path / "two"
    codes = []
    for out in (out1, out2):
        codes.append(
            cli_main(
                ["verify", "--config", "configs/sevenfold_p3_n5.json", "--out", str(out)]
            )
        )
    capsys.readouterr()
    raw1 = (out1 / "report.json").read_text()
    raw2 = (out2 / "report.json").read_text()
    rep1, rep2 = json.loads(raw1), json.loads(raw2)
    rep1.pop("timing"), rep2.pop("timing")
    canon1 = json.dumps(rep1, sort_keys=True)
    canon2 = json.dumps(rep2, sort_keys=True)
    elapsed = time.perf_counter() - start
    ok = codes == [0, 0] and canon1 == canon2
    announce(
        "determinism",
        ok,
        f"two verify runs, {len(canon1)} canonical bytes identical modulo timing, "
        f"{elapsed:.1f}s",
    )
    assert ok

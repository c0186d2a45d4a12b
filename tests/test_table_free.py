"""The fast path and the brute Lambda3 oracle read no (F, n) digit table.

Each test refuses FieldParams.digit_table and the full-width
ap3.field._digit_table, while half-width and dimension-sized tables stay
allowed, runs the fast path, and checks what it returned against an oracle
run with the table back in place.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ap3.field
from ap3.cli import main
from ap3.experiment import build_recipe, derive_minorant, load_config_file, resolve_delta
from ap3.field import FieldParams, basis_labels, sample_uniform_subspace
from ap3.finder import CandidateStream, find_good_subspace
from ap3.lambda3 import (
    endpoint_pair_count,
    lambda3_brute,
    lambda3_spectral,
    midpoint_pair_count,
    pair_table,
)
from ap3.midpoint import (
    SubspaceFrame,
    coset_scores,
    run_depletion,
    tail_energy,
    translate_scores,
)
from ap3.spectral import DenseFunction

from conftest import lambda3_rolled, random_function

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TABLE_FREE_PARAMS = [(3, 4), (3, 5), (5, 2), (5, 3)]


def _refuse_full_table(monkeypatch, params: FieldParams) -> None:
    def refused(self):
        raise AssertionError("the fast path read FieldParams.digit_table()")

    original = ap3.field._digit_table

    def guarded(p, n):
        if (p, n) == (params.p, params.n):
            raise AssertionError(f"the fast path built the full ({p}, {n}) digit table")
        return original(p, n)

    monkeypatch.setattr(FieldParams, "digit_table", refused)
    monkeypatch.setattr(ap3.field, "_digit_table", guarded)


def test_guard_refuses_the_full_table(monkeypatch):
    params = FieldParams(3, 4)
    _refuse_full_table(monkeypatch, params)
    with pytest.raises(AssertionError):
        params.digit_table()
    with pytest.raises(AssertionError):
        ap3.field._digit_table(3, 4)
    assert ap3.field._digit_table(3, 2).shape == (9, 2)


@pytest.mark.parametrize("pn", TABLE_FREE_PARAMS, ids=lambda pn: f"p{pn[0]}n{pn[1]}")
def test_fast_path_without_table(pn, monkeypatch):
    params = FieldParams(*pn)
    rng = np.random.default_rng(sum(pn))
    f = random_function(params, rng)
    g = DenseFunction.make(params, f.values * 0.5)
    W = sample_uniform_subspace(params, 1, rng)
    while not W.is_direct():
        W = sample_uniform_subspace(params, 1, rng)
    A = f.spectrum.top_places(2)
    t = int(rng.integers(params.F))
    cosine = {"kind": "cosine", "base": 0.5, "amplitude": 0.5, "frequency": [1] * params.n}

    with monkeypatch.context() as patch:
        _refuse_full_table(patch, params)
        tables = {o: pair_table(f.spectrum, o) for o in ("fgf", "gff")}
        spectral = lambda3_spectral(f, g, f)
        energy = tail_energy(f.spectrum, A)
        stream = CandidateStream(params, A, np.random.default_rng(1), nprime=1)
        found = find_good_subspace(stream, g.values)
        scores = coset_scores(energy, found)
        labels_all, coset = W.labels(), W.coset(t)
        labels_A = basis_labels(params, W.matrix, A)
        wave = build_recipe(params, cosine, rng)

    D = params.digit_table()
    for m in range(params.F):
        assert tables["fgf"][m] == pytest.approx(midpoint_pair_count(f, m), abs=1e-9)
        assert tables["gff"][m] == pytest.approx(endpoint_pair_count(f, m), abs=1e-9)
    assert spectral == pytest.approx(lambda3_brute(f, g, f), abs=1e-12)
    assert np.array_equal(labels_all, (D @ W.basis[0]) % params.p)
    assert np.array_equal(labels_A, labels_all[A])
    td = D[t]
    assert np.array_equal(coset, np.sort(params.indices_of(D[W.members()] + td)))
    phase = D.sum(axis=1) % params.p
    assert np.allclose(wave.values, 0.5 + 0.5 * np.cos(2 * np.pi * phase / params.p))
    assert found.W.is_direct() and found.dense.sum() * found.W.size >= params.F / 4.0
    oracle = translate_scores(SubspaceFrame.build(f.spectrum, found.W), A, np.arange(params.F))
    np.testing.assert_allclose(
        scores[found.coset_labels], oracle, rtol=1e-12, atol=1e-12 * oracle.max()
    )


@pytest.mark.parametrize("pn", TABLE_FREE_PARAMS, ids=lambda pn: f"p{pn[0]}n{pn[1]}")
def test_brute_oracle_without_table(pn, monkeypatch):
    params = FieldParams(*pn)
    rng = np.random.default_rng(sum(pn))
    f, g, h = (random_function(params, rng) for _ in range(3))
    triples = [(f, f, f), (f, g, f), (g, f, f), (f, g, h)]
    with monkeypatch.context() as patch:
        _refuse_full_table(patch, params)
        values = [lambda3_brute(*triple) for triple in triples]
    for value, triple in zip(values, triples):
        assert value == pytest.approx(lambda3_rolled(*triple), rel=1e-13, abs=0.0)


def test_brute_oracle_memory(monkeypatch):
    # at p=3, n=8 the brute oracle holds two 81 x 81 index tables and one
    # 81 x 81 product at a time; a walk over padded cubes peaked at 7.5 MB here
    params = FieldParams(3, 8)
    rng = np.random.default_rng(8)
    f, g = (random_function(params, rng) for _ in range(2))
    with monkeypatch.context() as patch:
        _refuse_full_table(patch, params)
        tracemalloc.start()
        try:
            brute = lambda3_brute(f, g, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2**20
    assert brute == pytest.approx(lambda3_spectral(f, g, f), rel=1e-12)


@pytest.mark.parametrize("name", ["sevenfold_p3_n5.json", "dense_theorem_p5_n4.json"])
def test_depletion_without_table(name, monkeypatch):
    (config,) = load_config_file(str(CONFIGS / name))
    params = FieldParams(config.p, config.n)
    with monkeypatch.context() as patch:
        _refuse_full_table(patch, params)
        rng = np.random.default_rng(config.seed)
        f = build_recipe(params, config.f_recipe, rng)
        g = derive_minorant(f, config.g_recipe, rng)
        delta, _ = resolve_delta(config, f.spectrum)
        runs = run_depletion(
            f, g, config.k, delta, config.orderings, config.nprime, config.max_attempts, rng,
            config.refresh,
        )
    for run in runs:
        brute = lambda3_brute(f, g, f) if run.ordering == "fgf" else lambda3_brute(g, f, f)
        assert not run.partial and run.certificates_ok
        assert len(run.steps) == run.r
        assert run.lambda_lower <= brute + 1e-12
        assert run.pair_weight == pytest.approx(params.F**2 * brute, rel=1e-9)


def test_cli_spectral_lambda3_without_table(capsys, tmp_path, monkeypatch):
    params = FieldParams(3, 5)
    rng = np.random.default_rng(5)
    f = random_function(params, rng)
    g = DenseFunction.make(params, f.values * 0.5)
    fp, gp = tmp_path / "f.json", tmp_path / "g.json"
    fp.write_text(f.to_json())
    gp.write_text(g.to_json())
    argv = ["lambda3", "--files", str(fp), str(gp), "--ordering", "both"]
    with monkeypatch.context() as patch:
        _refuse_full_table(patch, params)
        code = main(argv + ["--method", "spectral"])
    assert code == 0
    results = {r["ordering"]: r for r in json.loads(capsys.readouterr().out)["results"]}
    assert results["fgf"]["spectral"] == pytest.approx(lambda3_brute(f, g, f), abs=1e-12)
    assert results["gff"]["spectral"] == pytest.approx(lambda3_brute(g, f, f), abs=1e-12)

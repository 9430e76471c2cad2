"""Acceptance suite: one test per conformance criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``).  The
heavy sweeps are shared through module-scoped fixtures so the whole suite
runs in one pass over the models.
"""

import itertools
import json
import time

import numpy as np
import pytest

from chainequiv.cli import EXIT_OK, main
from chainequiv.crf import (
    DegenerateModel,
    crf_mpm_decode,
    crf_posterior_marginals,
    crf_posterior_marginals_batch,
    random_crf_model,
)
from chainequiv.equivalence import crf_to_hmc
from chainequiv.hmc import hmc_mpm_decode, hmc_posterior_marginals, hmc_posterior_marginals_batch
from chainequiv.oracle import (
    all_sequences,
    compare_posteriors,
    enumerate_crf_posterior,
    enumerate_crf_posterior_batch,
    enumerate_hmc_posterior,
    enumerate_hmc_posterior_batch,
    posterior_matrix_marginals,
)
from chainequiv.tables import Table2

NUM_MODELS = 1000
GRID = [(n, k, l)
        for n in (1, 2, 3, 4, 5, 6)
        for k in (2, 3, 4)
        for l in (2, 3)]
BASE_SEED = 824_000

TOL_EQUIVALENCE = 1e-9
TOL_FAST_PATH = 1e-10
TOL_ROW_SUM = 1e-9
TOL_SHIFT = 1e-9
TOL_NORMALIZATION = 1e-9


def _model_params(i: int, mode: str):
    n, k, l = GRID[i % len(GRID)]
    return n, k, l, BASE_SEED + i + (500_000 if mode == "generalized" else 0)


def _raw_row_sum_error(model, trace) -> float:
    """Row-sum error of the constructed tables before any renormalization."""
    worst = 0.0
    for step in range(model.length - 1):
        raw = (trace.phi[step].log_values
               + trace.beta[step + 1].log_values[None, :]
               - trace.beta[step].log_values[:, None])
        worst = max(worst, float(np.abs(np.exp(raw).sum(axis=1) - 1.0).max()))
    for pos in range(model.length):
        raw = model.emit_potentials[pos].log_values - trace.psi[pos].log_values[:, None]
        worst = max(worst, float(np.abs(np.exp(raw).sum(axis=1) - 1.0).max()))
    return worst


@pytest.fixture(scope="module")
def strict_sweep():
    """Criteria 1, 3, 4, 5 share one pass over 1000 strict-mode models."""
    stats = {
        "discrepancy": 0.0,       # criterion 1
        "fast_path": 0.0,         # criterion 3
        "row_sum": 0.0,           # criterion 4
        "mpm_mismatches": 0,      # criterion 5
        "models": 0,
        "observation_sequences": 0,
        "spot_checks": 0,
    }
    t0 = time.perf_counter()
    for i in range(NUM_MODELS):
        n, k, l, seed = _model_params(i, "strict")
        model = random_crf_model(n, k, l, seed=seed)
        hmc, trace = crf_to_hmc(model)
        stats["row_sum"] = max(stats["row_sum"], _raw_row_sum_error(model, trace))

        ys = all_sequences(l, n)
        crf_post, _ = enumerate_crf_posterior_batch(model, ys)
        hmc_post, _ = enumerate_hmc_posterior_batch(hmc, ys)
        stats["discrepancy"] = max(stats["discrepancy"],
                                   float(np.abs(crf_post - hmc_post).max()))

        oracle_crf = posterior_matrix_marginals(crf_post, k, n)
        oracle_hmc = posterior_matrix_marginals(hmc_post, k, n)
        _, crf_rows = crf_posterior_marginals_batch(model, ys)
        _, hmc_rows = hmc_posterior_marginals_batch(hmc, ys)
        stats["fast_path"] = max(
            stats["fast_path"],
            float(np.abs(np.exp(crf_rows) - oracle_crf).max()),
            float(np.abs(np.exp(hmc_rows) - oracle_hmc).max()),
        )
        stats["mpm_mismatches"] += int(
            (np.argmax(crf_rows, axis=2) != np.argmax(hmc_rows, axis=2)).sum())

        # weld the batched sweep to the per-sequence operations on a sample
        for j in (0, len(ys) // 2):
            y = tuple(int(v) for v in ys[j])
            pm = crf_posterior_marginals(model, y)
            assert np.array_equal(
                np.stack([r.log_values for r in pm.rows]), crf_rows[j])
            qm = hmc_posterior_marginals(hmc, y)
            assert np.array_equal(
                np.stack([r.log_values for r in qm.rows]), hmc_rows[j])
            assert crf_mpm_decode(model, y) == tuple(np.argmax(crf_rows[j], axis=1))
            assert hmc_mpm_decode(hmc, y) == tuple(np.argmax(hmc_rows[j], axis=1))
            report = compare_posteriors(enumerate_crf_posterior(model, y),
                                        enumerate_hmc_posterior(hmc, y))
            assert abs(report.max_abs_diff
                       - float(np.abs(crf_post[j] - hmc_post[j]).max())) <= 1e-13
            stats["spot_checks"] += 1

        stats["models"] += 1
        stats["observation_sequences"] += len(ys)
    stats["elapsed"] = time.perf_counter() - t0
    return stats


@pytest.fixture(scope="module")
def generalized_sweep():
    """Criterion 2: the same protocol with 10% zero-weight cells."""
    stats = {
        "discrepancy": 0.0,
        "zero_pattern_mismatches": 0,
        "models": 0,
        "degenerate_models": 0,
        "observation_sequences": 0,
        "skipped_zero_evidence": 0,
    }
    for i in range(NUM_MODELS):
        n, k, l, seed = _model_params(i, "generalized")
        model = random_crf_model(n, k, l, seed=seed, mode="generalized")
        try:
            hmc, _ = crf_to_hmc(model)
        except DegenerateModel:
            stats["degenerate_models"] += 1
            continue
        ys = all_sequences(l, n)
        crf_post, log_kappa = enumerate_crf_posterior_batch(model, ys)
        hmc_post, _ = enumerate_hmc_posterior_batch(hmc, ys)
        valid = ~np.isneginf(log_kappa)
        stats["skipped_zero_evidence"] += int((~valid).sum())
        if not valid.any():
            continue
        crf_post, hmc_post = crf_post[valid], hmc_post[valid]
        # positive CRF evidence must imply positive HMC evidence
        assert not np.isnan(hmc_post).any()
        stats["discrepancy"] = max(stats["discrepancy"],
                                   float(np.abs(crf_post - hmc_post).max()))
        stats["zero_pattern_mismatches"] += int(
            ((crf_post == 0.0) != (hmc_post == 0.0)).sum())
        stats["models"] += 1
        stats["observation_sequences"] += int(valid.sum())
    return stats


def test_criterion_1_equivalence_theorem(strict_sweep):
    """Enumerated CRF and constructed-HMC posteriors agree everywhere."""
    worst = strict_sweep["discrepancy"]
    ok = worst <= TOL_EQUIVALENCE
    print(f"criterion 1 (equivalence theorem): {'PASS' if ok else 'FAIL'} "
          f"max discrepancy {worst:.3e} over {strict_sweep['models']} models / "
          f"{strict_sweep['observation_sequences']} observation sequences "
          f"in {strict_sweep['elapsed']:.1f}s")
    assert strict_sweep["models"] == NUM_MODELS
    assert worst <= TOL_EQUIVALENCE


def test_criterion_2_generalized_equivalence(generalized_sweep):
    """Zero-weight potentials: equivalence holds and zeros match exactly."""
    worst = generalized_sweep["discrepancy"]
    zeros = generalized_sweep["zero_pattern_mismatches"]
    ok = worst <= TOL_EQUIVALENCE and zeros == 0
    print(f"criterion 2 (generalized-mode equivalence): {'PASS' if ok else 'FAIL'} "
          f"max discrepancy {worst:.3e}, zero-pattern mismatches {zeros}, "
          f"{generalized_sweep['models']} models "
          f"({generalized_sweep['degenerate_models']} fully degenerate skipped, "
          f"{generalized_sweep['skipped_zero_evidence']} zero-evidence y skipped)")
    assert generalized_sweep["models"] >= 0.95 * NUM_MODELS
    assert worst <= TOL_EQUIVALENCE
    assert zeros == 0


def test_criterion_3_fast_path_correctness(strict_sweep):
    """Forward-backward marginals match oracle marginals on every instance."""
    worst = strict_sweep["fast_path"]
    ok = worst <= TOL_FAST_PATH
    print(f"criterion 3 (fast-path correctness): {'PASS' if ok else 'FAIL'} "
          f"max marginal error {worst:.3e} "
          f"({strict_sweep['spot_checks']} per-sequence spot checks welded)")
    assert worst <= TOL_FAST_PATH


def test_criterion_4_constructed_model_validity(strict_sweep):
    """Constructed transition and emission rows sum to one as built."""
    worst = strict_sweep["row_sum"]
    ok = worst <= TOL_ROW_SUM
    print(f"criterion 4 (constructed-model validity): {'PASS' if ok else 'FAIL'} "
          f"max raw row-sum error {worst:.3e}")
    assert worst <= TOL_ROW_SUM


def test_criterion_5_mpm_agreement(strict_sweep):
    """MPM decodes agree position-wise with lowest-index tie-breaking."""
    bad = strict_sweep["mpm_mismatches"]
    print(f"criterion 5 (MPM agreement): {'PASS' if bad == 0 else 'FAIL'} "
          f"{bad} mismatched positions")
    assert bad == 0


def test_criterion_6_shift_invariance():
    """Adding a constant to any single table moves no posterior marginal."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for i in range(150):
        n, k, l = GRID[i % len(GRID)]
        model = random_crf_model(n, k, l, seed=BASE_SEED + 900_000 + i)
        c = float(rng.uniform(-10, 10))
        which = int(rng.integers(0, 2 * n - 1))
        pair, emit = list(model.pair_potentials), list(model.emit_potentials)
        if which < n - 1:
            pair[which] = Table2(pair[which].log_values + c)
        else:
            emit[which - (n - 1)] = Table2(emit[which - (n - 1)].log_values + c)
        shifted = type(model)(model.hidden, model.obs, tuple(pair), tuple(emit))
        ys = all_sequences(l, n)
        _, before = crf_posterior_marginals_batch(model, ys)
        _, after = crf_posterior_marginals_batch(shifted, ys)
        worst = max(worst, float(np.abs(np.exp(before) - np.exp(after)).max()))
    ok = worst <= TOL_SHIFT
    print(f"criterion 6 (shift invariance): {'PASS' if ok else 'FAIL'} "
          f"max marginal change {worst:.3e} over 150 shifted models")
    assert worst <= TOL_SHIFT


def test_criterion_7_numerical_robustness():
    """Large potentials at length 100: normalized, NaN-free fast paths."""
    worst = 0.0
    rng = np.random.default_rng(3)
    for k, l in itertools.product((2, 3, 4), (2, 3)):
        for seed in (1, 2):
            model = random_crf_model(100, k, l, seed=seed, low=-50.0, high=50.0)
            y = tuple(int(v) for v in rng.integers(0, l, 100))
            crf_rows = crf_posterior_marginals(model, y).probabilities()
            hmc, _ = crf_to_hmc(model)
            hmc_rows = hmc_posterior_marginals(hmc, y).probabilities()
            for rows in (crf_rows, hmc_rows):
                assert not np.isnan(rows).any()
                worst = max(worst, float(np.abs(rows.sum(axis=1) - 1.0).max()))
    ok = worst <= TOL_NORMALIZATION
    print(f"criterion 7 (numerical robustness): {'PASS' if ok else 'FAIL'} "
          f"max row-sum error {worst:.3e} at length 100, potentials in [-50, 50]")
    assert worst <= TOL_NORMALIZATION


def test_criterion_8_cli_pipeline(tmp_path, capsys):
    """random -> convert -> verify exits 0; decode output is byte-identical."""
    sizes = [(n, k, l) for n in (1, 2, 3, 4, 5) for k in (2, 3) for l in (2, 3)]
    for seed in range(100):
        n, k, l = sizes[seed % len(sizes)]
        crf_path = str(tmp_path / f"crf{seed}.json")
        hmc_path = str(tmp_path / f"hmc{seed}.json")
        assert main(["random", "--n", str(n), "--hidden", str(k), "--obs", str(l),
                     "--seed", str(seed), "-o", crf_path]) == EXIT_OK
        assert main(["convert", crf_path, "-o", hmc_path]) == EXIT_OK
        assert main(["verify", crf_path, "--against", hmc_path]) == EXIT_OK

    rng = np.random.default_rng(0)
    identical = 0
    for seed in range(0, 100, 10):
        n, k, l = sizes[seed % len(sizes)]
        seq_path = tmp_path / f"seqs{seed}.txt"
        seq_path.write_text("\n".join(
            " ".join(f"o{v}" for v in rng.integers(0, l, n)) for _ in range(20)) + "\n")
        capsys.readouterr()
        assert main(["decode", str(tmp_path / f"crf{seed}.json"), str(seq_path)]) == EXIT_OK
        crf_out = capsys.readouterr().out
        assert main(["decode", str(tmp_path / f"hmc{seed}.json"), str(seq_path)]) == EXIT_OK
        hmc_out = capsys.readouterr().out
        crf_labels = [line.split("\t")[0] for line in crf_out.splitlines()]
        hmc_labels = [line.split("\t")[0] for line in hmc_out.splitlines()]
        assert crf_labels == hmc_labels
        identical += 1
    with capsys.disabled():
        print(f"\ncriterion 8 (CLI pipeline): PASS 100 seeds verified, "
              f"{identical} decode runs byte-identical")

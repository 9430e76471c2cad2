"""The scaled-product chain kernel on potentials too wide for its scaled product.

Potentials in [-1000, 1000] push many entries of a step's scaled product below
``tables.SCALED_FLOOR``; the kernel recomputes those entries exactly with
``tables.log_sum_exp`` over their gathered terms.  The results are checked
against the plain-Python enumeration of ``tests/conftest.py``, and a batch
that mixes zero-weight and live columns against single-sequence calls.  The
blocks in which the passes prepare their tables must not change a result.
"""

import itertools

import numpy as np
import pytest

from chainequiv import tables
from chainequiv.crf import (
    GENERALIZED,
    STRICT,
    CrfModel,
    crf_log_normalizer,
    crf_posterior_marginals,
    crf_posterior_marginals_batch,
    random_crf_model,
)
from chainequiv.equivalence import crf_to_hmc, crf_to_hmc_generalized
from chainequiv.hmc import (
    HmcModel,
    hmc_log_evidence,
    hmc_posterior_marginals,
    hmc_posterior_marginals_batch,
)
from chainequiv.tables import LOG_ZERO, Table2

from conftest import brute_crf_posterior, brute_hmc_posterior, marginals_of

N, K, L = 5, 3, 2
ALL_YS = np.array(list(itertools.product(range(L), repeat=N)))


@pytest.fixture
def lse_rows(monkeypatch):
    """Rows passed to ``tables.log_sum_exp``, one entry per call.

    A batch call of ``count`` columns sends ``count`` rows for its totals;
    every further row is a product entry recomputed below the floor.
    """
    rows = []
    original = tables.log_sum_exp

    def spy(values, axis=None):
        rows.append(np.shape(values)[0] if axis is not None else 1)
        return original(values, axis)

    monkeypatch.setattr(tables, "log_sum_exp", spy)
    return rows


def to_hmc(model):
    return (crf_to_hmc(model) if model.mode == STRICT else crf_to_hmc_generalized(model))[0]


def check_against_enumeration(totals, log_marginals, brute, model, ys):
    for y, total, lm in zip(ys, totals, log_marginals):
        try:
            posterior, want_total = brute(model, tuple(y))
        except ZeroDivisionError:
            assert total == LOG_ZERO and np.isnan(lm).all()
            continue
        assert total == pytest.approx(want_total, abs=1e-10)
        np.testing.assert_allclose(np.exp(lm), marginals_of(posterior, K, N), atol=1e-10)


@pytest.mark.parametrize("mode", [STRICT, GENERALIZED])
def test_potentials_spanning_2000_match_enumeration(mode, lse_rows):
    recomputed = 0
    for seed in range(20):
        model = random_crf_model(N, K, L, seed=seed, mode=mode, low=-1000.0, high=1000.0)
        hmc = to_hmc(model)
        for batch, target, brute in ((crf_posterior_marginals_batch, model, brute_crf_posterior),
                                     (hmc_posterior_marginals_batch, hmc, brute_hmc_posterior)):
            lse_rows.clear()
            totals, log_marginals = batch(target, ALL_YS)
            recomputed += sum(lse_rows) - len(ALL_YS)
            sample = slice(seed % 4, None, 4)
            check_against_enumeration(totals[sample], log_marginals[sample], brute, target,
                                      ALL_YS[sample])
    assert recomputed > 0


def dead_symbol_model(seed: int) -> CrfModel:
    """A generalized CRF in which symbol 1 has zero weight at position 2."""
    model = random_crf_model(N, K, L, seed=seed, mode=GENERALIZED, low=-1000.0, high=1000.0)
    emits = list(model.emit_potentials)
    cut = emits[2].log_values.copy()
    cut[:, 1] = LOG_ZERO
    emits[2] = Table2(cut)
    return CrfModel(model.hidden, model.obs, model.pair_potentials, emits, mode=GENERALIZED)


@pytest.mark.parametrize("side", ["crf", "hmc"])
def test_dead_and_live_columns_in_one_batch(side, lse_rows):
    model = dead_symbol_model(seed=4)
    if side == "crf":
        batch, single, total_of = (crf_posterior_marginals_batch, crf_posterior_marginals,
                                   crf_log_normalizer)
    else:
        model = to_hmc(model)
        batch, single, total_of = (hmc_posterior_marginals_batch, hmc_posterior_marginals,
                                   hmc_log_evidence)
    totals, log_marginals = batch(model, ALL_YS)
    assert sum(lse_rows) > len(ALL_YS)

    dead = ~np.isfinite(totals)
    assert dead[ALL_YS[:, 2] == 1].all()
    assert (totals[dead] == LOG_ZERO).all()
    assert np.isnan(log_marginals[dead]).all()
    assert (~dead).any()
    for i in np.flatnonzero(~dead):
        y = tuple(int(v) for v in ALL_YS[i])
        rows = np.stack([r.log_values for r in single(model, y).rows])
        assert np.array_equal(rows, log_marginals[i])
        assert total_of(model, y) == totals[i]


@pytest.mark.parametrize("cells", [1, 2 * K * K, 3 * K * K])
def test_factor_blocks_do_not_change_results(cells, monkeypatch):
    """The passes prepare their tables a block of steps at a time; where the
    blocks end must not move a bit, also when a table object recurs across them."""
    base = random_crf_model(N + 3, K, L, seed=9, low=-1000.0, high=1000.0)
    a, b = base.pair_potentials[:2]
    pairs = [a, b, a, a, b, base.pair_potentials[5], a]
    model = CrfModel(base.hidden, base.obs, pairs, base.emit_potentials, mode=base.mode)
    ys = np.random.default_rng(0).integers(0, L, (16, N + 3))
    want_totals, want = crf_posterior_marginals_batch(model, ys)
    monkeypatch.setattr(tables, "FACTOR_BLOCK_CELLS", cells)
    totals, got = crf_posterior_marginals_batch(model, ys)
    assert np.array_equal(totals, want_totals)
    assert np.array_equal(got, want)



@pytest.mark.parametrize("cells", [1, 2 * K * K, tables.FACTOR_BLOCK_CELLS])
def test_tiled_models_match_their_materialized_copies(cells, monkeypatch):
    """A tiled stack (stride 0) has its one table prepared per block; the result
    must equal the same tables stored one per position, bit for bit."""
    base = random_crf_model(2, K, L, seed=3, low=-1000.0, high=1000.0)
    hmc = to_hmc(base)
    n = N + 3
    crf = CrfModel.homogeneous(base.hidden, base.obs, n, base.pair_potentials[0],
                               base.emit_potentials[0])
    hmc = HmcModel.homogeneous(hmc.hidden, hmc.obs, n, hmc.init, hmc.transitions[0],
                               hmc.emissions[1])
    copies = (CrfModel(crf.hidden, crf.obs, np.array(crf.pair_potentials.log_values),
                       np.array(crf.emit_potentials.log_values)),
              HmcModel(hmc.hidden, hmc.obs, hmc.init, np.array(hmc.transitions.log_values),
                       np.array(hmc.emissions.log_values)))
    assert crf.pair_potentials.log_values.strides[0] == hmc.transitions.log_values.strides[0] == 0
    monkeypatch.setattr(tables, "FACTOR_BLOCK_CELLS", cells)
    ys = np.random.default_rng(1).integers(0, L, (16, n))
    for batch, tiled, copy in ((crf_posterior_marginals_batch, crf, copies[0]),
                               (hmc_posterior_marginals_batch, hmc, copies[1])):
        assert copy.length == n and tiled.length == n
        want_totals, want = batch(copy, ys)
        totals, got = batch(tiled, ys)
        assert np.array_equal(totals, want_totals)
        assert np.array_equal(got, want, equal_nan=True)

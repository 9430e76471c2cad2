"""The scaled-product chain kernel on potentials too wide for its scaled product.

Potentials in [-1000, 1000] push many entries of a step's scaled product below
``tables.SCALED_FLOOR``; the kernel recomputes those entries exactly with
``tables.log_sum_exp`` over their gathered terms.  The results are checked
against the plain-Python enumeration of ``tests/conftest.py``, and a batch
that mixes zero-weight and live columns against single-sequence calls.  The
blocks in which the passes prepare their tables must not change a result.
Ragged batches (``lengths``) must equal, row by row and bit for bit, single
calls on the chain cut to each row's length.
"""

import itertools

import numpy as np
import pytest

from chainequiv import crf, hmc, tables
from chainequiv.crf import (
    GENERALIZED,
    STRICT,
    CrfModel,
    crf_log_normalizer,
    crf_posterior_marginals,
    crf_posterior_marginals_batch,
    random_crf_model,
)
from chainequiv.equivalence import crf_to_hmc
from chainequiv.hmc import (
    HmcModel,
    hmc_log_evidence,
    hmc_posterior_marginals,
    hmc_posterior_marginals_batch,
)
from chainequiv.tables import LOG_ZERO, Table2, ValidationError

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
    return crf_to_hmc(model)[0]


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


def prefix_call(factors, y, length: int):
    """``(total, log_marginals)`` of one sequence on the chain factors cut to ``length`` positions."""
    pairs, emits = factors
    totals, log_marginals = tables.chain_log_marginals(
        *tables.chain_parts(pairs[:length - 1], emits[:length], [y[:length]]))
    return totals[0], log_marginals[0]


def ragged_case(side: str, mode: str, seed: int):
    """A model of length N + 3 (its chain factors and batch call), rows and unsorted lengths."""
    n = N + 3
    model = random_crf_model(n, K, L, seed=seed, mode=mode, low=-1000.0, high=1000.0)
    if mode == GENERALIZED:  # symbol 1 has zero weight at position 2
        emits = model.emit_potentials.log_values.copy()
        emits[2, :, 1] = LOG_ZERO
        model = CrfModel(model.hidden, model.obs, model.pair_potentials, emits, mode=mode)
    if side == "crf":
        factors, batch = crf._factors(model), crf_posterior_marginals_batch
    else:
        model = to_hmc(model)
        factors, batch = hmc._factors(model), hmc_posterior_marginals_batch
    rng = np.random.default_rng(seed)
    ys = rng.integers(0, L, (60, n))
    lengths = rng.integers(1, n + 1, 60)
    lengths[:4] = (2, n, 1, n)
    return model, factors, batch, ys, lengths


@pytest.mark.parametrize("order", ["unsorted", "sorted"])
@pytest.mark.parametrize("side", ["crf", "hmc"])
@pytest.mark.parametrize("mode", [STRICT, GENERALIZED])
def test_ragged_rows_equal_calls_on_the_cut_chain(mode, side, order, lse_rows):
    """Each row equals, bit for bit, a single call on the chain cut to its length;
    past its length it is NaN.  The potentials reach the below-floor recompute."""
    model, factors, batch, ys, lengths = ragged_case(side, mode, seed=11)
    if order == "sorted":
        lengths = np.sort(lengths)[::-1]
    lse_rows.clear()
    totals, log_marginals = batch(model, ys, lengths)
    assert sum(lse_rows) > len(ys)  # rows beyond the totals' are recomputed entries
    assert log_marginals.shape == (len(ys), model.length, K)
    for y, length, total, rows in zip(ys, lengths, totals, log_marginals):
        want_total, want = prefix_call(factors, y, length)
        assert total == want_total
        assert np.array_equal(rows[:length], want, equal_nan=True)
        assert np.isnan(rows[length:]).all()
    if mode == GENERALIZED:
        dead = totals == LOG_ZERO
        assert dead.any() and (~dead).any()
        assert np.isnan(log_marginals[dead]).all()
        assert not dead[(ys[:, 2] == 1) & (lengths <= 2)].any()  # the dead cell is cut off


@pytest.mark.parametrize("side", ["crf", "hmc"])
def test_single_calls_on_cut_models_match_ragged_rows(side):
    """A ragged row is the public single call on the model cut to its length: bit for
    bit for a CRF, and for an HMC the posterior of the prefix alone under the same chain."""
    model, factors, batch, ys, lengths = ragged_case(side, STRICT, seed=12)
    totals, log_marginals = batch(model, ys, lengths)
    for y, length, total, rows in zip(ys, lengths, totals, log_marginals):
        if side == "crf":
            cut = CrfModel(model.hidden, model.obs, model.pair_potentials[:length - 1],
                           model.emit_potentials[:length], mode=model.mode)
            assert total == crf_log_normalizer(cut, y[:length])
            assert np.array_equal(rows[:length], crf_posterior_marginals(cut, y[:length]).rows.log_values)
        else:  # the HMC cut to a length renormalizes its rows, which can move a last bit
            cut = HmcModel(model.hidden, model.obs, model.init, model.transitions[:length - 1],
                           model.emissions[:length])
            assert total == pytest.approx(hmc_log_evidence(cut, y[:length]), rel=1e-12, abs=1e-9)
            want = hmc_posterior_marginals(cut, y[:length]).probabilities()
            np.testing.assert_allclose(np.exp(rows[:length]), want, atol=1e-12)


@pytest.mark.parametrize("side", ["crf", "hmc"])
def test_full_lengths_take_the_plain_path(side, monkeypatch):
    """Lengths that are all the model's length give the plain call's result, and a
    batch whose longest row is shorter than the model skips the steps past it."""
    model, factors, batch, ys, _ = ragged_case(side, GENERALIZED, seed=13)
    n = model.length
    want_totals, want = batch(model, ys)
    totals, got = batch(model, ys, np.full(len(ys), n))
    assert np.array_equal(totals, want_totals)
    assert np.array_equal(got, want, equal_nan=True)

    steps = []
    original = tables._log_product
    monkeypatch.setattr(tables, "_log_product",
                        lambda rows, row_max, factor: steps.append(len(rows)) or original(rows, row_max, factor))
    short = np.array([n - 2, 1, n - 2, 3] * 4)
    totals, got = batch(model, ys[:16], short)
    assert len(steps) == 2 * (n - 3)  # forward and backward, to the longest row only
    assert np.isnan(got[:, n - 2:]).all()
    for y, length, total, rows in zip(ys, short, totals, got):
        want_total, want = prefix_call(factors, y, length)
        assert total == want_total and np.array_equal(rows[:length], want, equal_nan=True)


@pytest.mark.parametrize("bad, error", [
    ([2.0] * 4, "must be integers"),
    ([True] * 4, "must be integers"),
    (["2"] * 4, "must be integers"),
    ([2, 2, 2], "expected 4 lengths"),
    ([[2, 2, 2, 2]], "expected 4 lengths"),
    ([2, 0, 2, 2], r"length 0 out of range \[1, 5\]"),
    ([2, 6, 2, 2], r"length 6 out of range \[1, 5\]"),
    ([-1, 2, 2, 2], r"length -1 out of range"),
])
@pytest.mark.parametrize("side", ["crf", "hmc"])
def test_bad_lengths_raise_validation_error(side, bad, error):
    model = random_crf_model(N, K, L, seed=0)
    batch = crf_posterior_marginals_batch
    if side == "hmc":
        model, batch = to_hmc(model), hmc_posterior_marginals_batch
    with pytest.raises(ValidationError, match=error):
        batch(model, ALL_YS[:4], bad)

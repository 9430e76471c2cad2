"""The scaled-product chain kernel on potentials too wide for its scaled product.

Potentials in [-1000, 1000] push many entries of a step's scaled product below
``tables.SCALED_FLOOR``; the kernel recomputes those entries exactly with
``tables.log_sum_exp`` over their gathered terms.  The results are checked
against the plain-Python enumeration of ``tests/conftest.py``, and a batch
that mixes zero-weight and live columns against single-sequence calls.  The
blocks in which the passes prepare their tables must not change a result.
Ragged batches (``lengths``) must equal, row by row and bit for bit, single
calls on the chain cut to each row's length.  The step product runs as GEMMs of
``tables.PRODUCT_BLOCK_ROWS`` rows up to ``tables.PRODUCT_MAX_STATES`` states,
and a row's bits must not depend on where in its block it sits, on the BLAS
thread count, or on the padded tail.  A model built from arrays in another
memory layout, or tiled, must give the bits of its C-contiguous copy.
"""

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    default_alphabets,
    random_crf_model,
)
from chainequiv.equivalence import crf_to_hmc
from chainequiv.hmc import (
    HmcModel,
    hmc_log_evidence,
    hmc_posterior_marginals,
    hmc_posterior_marginals_batch,
)
from chainequiv.tables import LOG_ZERO, Table1, Table2, ValidationError

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



# Per label count: symbols, seed and potential bound of the tiled model, its length and rows.
TILED_CASES = {K: (L, 3, 1000.0, N + 3, 16), 129: (3, 129, 5.0, 25, 50)}
TILED_CELLS = [1, 2 * K * K, tables.FACTOR_BLOCK_CELLS]


@pytest.mark.parametrize("cells, labels", [(c, k) for k in TILED_CASES for c in TILED_CELLS],
                         ids=[f"{c}" if k == K else f"{c}-{k}" for k in TILED_CASES for c in TILED_CELLS])
def test_tiled_models_match_their_materialized_copies(cells, labels, monkeypatch):
    """A tiled stack (stride 0) is prepared like any other stack; the result must
    equal the same tables stored one per position, bit for bit."""
    symbols, seed, bound, n, count = TILED_CASES[labels]
    base = random_crf_model(2, labels, symbols, seed=seed, low=-bound, high=bound)
    hmc = to_hmc(base)
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
    ys = np.random.default_rng(1).integers(0, symbols, (count, n))
    for batch, tiled, copy in ((crf_posterior_marginals_batch, crf, copies[0]),
                               (hmc_posterior_marginals_batch, hmc, copies[1])):
        assert copy.length == n and tiled.length == n
        want_totals, want = batch(copy, ys)
        totals, got = batch(tiled, ys)
        assert np.array_equal(totals, want_totals)
        assert np.array_equal(got, want, equal_nan=True)


def relaid(a: np.ndarray) -> list[np.ndarray]:
    """``a`` in two other memory layouts: Fortran order and a view with the last two
    axes' strides swapped, or for a vector, a strided and a reversed view."""
    if a.ndim == 1:
        return [np.repeat(a, 2)[::2], a[::-1].copy()[::-1]]
    return [np.asfortranarray(a), np.swapaxes(np.swapaxes(a, -1, -2).copy(), -1, -2)]


@pytest.mark.parametrize("k", [8, 32, 129])
def test_results_do_not_depend_on_the_layout_of_the_tables(k):
    """Tables are stored C-contiguous, so a model built from arrays in another layout
    gives the C model's bits: batch marginals, normalizer and conversion.  A full
    batch also equals the same call with every length given."""
    n, l, count = 12, 12, 40
    model = random_crf_model(n, k, l, seed=k)
    hmc, trace = crf_to_hmc(model)
    ys = np.random.default_rng(k).integers(0, l, (count, n))
    want_crf, want_hmc = crf_posterior_marginals_batch(model, ys), hmc_posterior_marginals_batch(hmc, ys)
    for got, want in ((crf_posterior_marginals_batch(model, ys, np.full(count, n)), want_crf),
                      (hmc_posterior_marginals_batch(hmc, ys, np.full(count, n)), want_hmc)):
        assert all(map(np.array_equal, got, want))

    for pairs, emits, init, trans, emissions in zip(
            *(relaid(t.log_values) for t in (model.pair_potentials, model.emit_potentials,
                                              hmc.init, hmc.transitions, hmc.emissions))):
        copy = CrfModel(model.hidden, model.obs, pairs, emits)
        assert all(map(np.array_equal, crf_posterior_marginals_batch(copy, ys), want_crf))
        assert crf_log_normalizer(copy, ys[0]) == crf_log_normalizer(model, ys[0])
        got_hmc, got_trace = crf_to_hmc(copy)
        for name in ("init", "transitions", "emissions"):
            assert np.array_equal(getattr(got_hmc, name).log_values, getattr(hmc, name).log_values)
        for name in ("psi", "phi", "beta"):
            assert np.array_equal(getattr(got_trace, name).log_values, getattr(trace, name).log_values)
        hmc_copy = HmcModel(hmc.hidden, hmc.obs, Table1(init), trans, emissions)
        assert all(map(np.array_equal, hmc_posterior_marginals_batch(hmc_copy, ys), want_hmc))


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


def product_case(k: int, count: int, seed: int = 0):
    """``count`` message rows shifted to a maximum of 0, and a step's factor, over ``k`` states."""
    rng = np.random.default_rng(seed)
    factor = next(tables._step_factors(rng.uniform(-5.0, 5.0, (1, k, k))))[1]
    rows = rng.uniform(-30.0, 0.0, (count, k))
    rows[np.arange(count), rng.integers(0, k, count)] = 0.0
    return rows, rows.max(axis=1), factor


COUNTS = (1, 31, 32, 33, 100)


@pytest.mark.parametrize("k", range(1, tables.PRODUCT_MAX_STATES + 2))
def test_product_and_marginal_rows_do_not_depend_on_their_block(k):
    """Each row of a product or of ``chain_log_marginals`` at any count equals the
    single-row call bit for bit: at every place in its 32-row block, the padded tail too."""
    rows, row_max, factor = product_case(k, max(COUNTS) + 7, seed=k)
    with np.errstate(divide="ignore"):
        single = np.concatenate([tables._log_product(rows[i:i + 1], row_max[i:i + 1], factor)
                                 for i in range(len(rows))])
        for count, start in itertools.product(COUNTS, (0, 7)):
            window = slice(start, start + count)
            assert np.array_equal(tables._log_product(rows[window], row_max[window], factor),
                                  single[window])

    rng = np.random.default_rng(k)
    first, pairs = rng.uniform(-5.0, 5.0, (k, max(COUNTS))), rng.uniform(-5.0, 5.0, (2, k, k))
    unary = rng.uniform(-5.0, 5.0, (2, max(COUNTS), k)).transpose(0, 2, 1)
    singles = [tables.chain_log_marginals(first[:, i:i + 1], pairs, unary[:, :, i:i + 1])
               for i in range(max(COUNTS))]
    for count in COUNTS:
        totals, log_marginals = tables.chain_log_marginals(first[:, :count], pairs, unary[:, :, :count])
        for i in range(count):
            assert totals[i] == singles[i][0][0]
            assert np.array_equal(log_marginals[i], singles[i][1][0])


@pytest.mark.parametrize("k, block", [(tables.PRODUCT_MAX_STATES, tables.PRODUCT_BLOCK_ROWS),
                                      (tables.PRODUCT_MAX_STATES + 1, 1)])
def test_product_block_shape(k, block, monkeypatch):
    """Up to 128 states the product runs as 32-row GEMMs; above, one row per product."""
    shapes = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda a, b: shapes.append(a.shape) or matmul(a, b))
    rows, row_max, factor = product_case(k, 40)
    tables._log_product(rows, row_max, factor)
    assert shapes == [(-(-40 // block), block, k)]


BATCH_BITS = """
import sys
import numpy as np
from chainequiv import tables
for k in (8, 32, 128):
    rng = np.random.default_rng(k)
    first, pairs = rng.uniform(-5.0, 5.0, (k, 70)), rng.uniform(-5.0, 5.0, (3, k, k))
    unary = rng.uniform(-5.0, 5.0, (3, 70, k)).transpose(0, 2, 1)
    totals, log_marginals = tables.chain_log_marginals(first, pairs, unary)
    sys.stdout.buffer.write(totals.tobytes() + log_marginals.tobytes())
"""


def test_batch_bits_do_not_depend_on_blas_threads():
    """The same batches give the same bits on 1 and on 4 OpenBLAS threads, a
    count OpenBLAS reads when it loads, hence one process each."""
    src = str(Path(tables.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "4"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", BATCH_BITS], env=env, capture_output=True,
                              check=True, timeout=120)
        outputs.append(done.stdout)
    assert len(outputs[0]) == 8 * 70 * (3 + 4 * (8 + 32 + 128))
    assert outputs[0] == outputs[1]


def test_marginals_need_little_memory_beyond_their_output():
    """Positions are normalized one at a time, so no temporary of the output's size is made."""
    count, n, k = 200, 100, 32
    rng = np.random.default_rng(5)
    first, pairs = rng.uniform(-5.0, 5.0, (k, count)), rng.uniform(-5.0, 5.0, (n - 1, k, k))
    unary = rng.uniform(-5.0, 5.0, (n - 1, count, k)).transpose(0, 2, 1)
    tracemalloc.start()
    try:
        _, log_marginals = tables.chain_log_marginals(first, pairs, unary)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * log_marginals.nbytes


def diagonal_case(count: int = 625, k: int = 128, l: int = 4):
    """A wide model whose every product entry off the live labels underflows, and its batch.

    Pairwise 0 on the diagonal and -1000 off it; each label emits one symbol
    at 0 and the others at -1000.  So each step has k - k/l live entries per
    row below the floor, recomputed from k terms each.
    """
    pair = np.where(np.eye(k, dtype=bool), 0.0, -1000.0)
    emit = np.full((k, l), -1000.0)
    emit[np.arange(k), np.arange(k) % l] = 0.0
    model = CrfModel.homogeneous(*default_alphabets(k, l), 2, Table2(pair), Table2(emit))
    return model, np.random.default_rng(11).integers(0, l, (count, 2))


def diagonal_batch(side: str):
    """The diagonal case on one side: its model (the CRF or its HMC), batch call and rows."""
    model, ys = diagonal_case()
    if side == "crf":
        return model, crf_posterior_marginals_batch, ys
    return to_hmc(model), hmc_posterior_marginals_batch, ys


@pytest.mark.parametrize("side", ["crf", "hmc"])
def test_exact_recompute_gathers_a_bounded_block(side):
    """The gather of underflowed entries holds at most FACTOR_BLOCK_CELLS terms,
    so a wide batch needs memory of about its output, not count * k**2 terms."""
    model, batch, ys = diagonal_batch(side)
    tracemalloc.start()
    try:
        _, log_marginals = batch(model, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log_marginals.nbytes < 2**21
    assert peak < 16 * 2**20


@pytest.mark.parametrize("cells", ["1", "k", "k*k+1"])
@pytest.mark.parametrize("side", ["crf", "hmc"])
def test_gather_blocks_do_not_change_results(side, cells, monkeypatch, lse_rows):
    """Each recomputed entry is its own log_sum_exp row: splitting the gather
    moves no bit, and the default run does split it."""
    model, batch, ys = diagonal_batch(side)
    k = model.hidden.size
    want_totals, want = batch(model, ys)
    gathers = [rows for rows in lse_rows if rows != len(ys)]  # all but the totals' call
    assert len(gathers) == len(lse_rows) - 1
    assert len(gathers) > 2  # more than one per product, forward and backward
    assert all(rows * k <= tables.FACTOR_BLOCK_CELLS for rows in gathers)
    monkeypatch.setattr(tables, "FACTOR_BLOCK_CELLS", {"1": 1, "k": k, "k*k+1": k * k + 1}[cells])
    totals, got = batch(model, ys)
    assert np.isfinite(totals).all()
    assert np.array_equal(totals, want_totals)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("side", ["crf", "hmc"])
def test_ragged_rows_with_one_entry_per_gather(side, monkeypatch, lse_rows):
    """A ragged batch whose gathers hold one entry each equals the default run bit
    for bit: the backward rows that start late, at 0, take split gathers too."""
    model, _, batch, ys, lengths = ragged_case(side, STRICT, seed=14)
    want_totals, want = batch(model, ys, lengths)
    monkeypatch.setattr(tables, "FACTOR_BLOCK_CELLS", K)
    lse_rows.clear()
    totals, got = batch(model, ys, lengths)
    gathers = [rows for rows in lse_rows if rows != len(ys)]  # all but the totals' call
    assert len(gathers) == len(lse_rows) - 1
    assert len(gathers) > 2 and set(gathers) == {1}
    assert np.array_equal(totals, want_totals)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("side", ["crf", "hmc"])
def test_one_sequence_is_normalized_a_slab_at_a_time(side, monkeypatch):
    """A one-sequence call normalizes its finished positions in blocks of up to
    FACTOR_BLOCK_CELLS cells: at n = 20, k = 8, the last position, then the
    other 19 in one call.  One position a call gives the same bits."""
    model = random_crf_model(20, 8, 4, seed=3, low=-500.0, high=500.0)
    if side == "hmc":
        model = to_hmc(model)
    single = crf_posterior_marginals if side == "crf" else hmc_posterior_marginals
    y = np.random.default_rng(3).integers(0, 4, 20)
    calls = []
    original = tables._normalize_position
    monkeypatch.setattr(tables, "_normalize_position", lambda rows: calls.append(len(rows)) or original(rows))
    want = single(model, y).rows.log_values
    assert calls == [1, 19]
    calls.clear()
    monkeypatch.setattr(tables, "FACTOR_BLOCK_CELLS", 8)
    got = single(model, y).rows.log_values
    assert calls == [1] * 20
    assert np.array_equal(got, want)


@pytest.mark.parametrize("order", ["full", "unsorted", "sorted"])
@pytest.mark.parametrize("side", ["crf", "hmc"])
def test_batch_marginals_are_writable_arrays_of_their_own(side, order):
    """The batch marginals, a (count, n, k) view of the position-major stack when no
    reorder is needed, are writable and share memory with neither the model's tables
    nor another call's result: writing into one leaves a second call's bits unchanged."""
    model, _, batch, ys, lengths = ragged_case(side, STRICT, seed=15)
    lengths = {"full": None, "unsorted": lengths, "sorted": np.sort(lengths)[::-1]}[order]
    _, first = batch(model, ys, lengths)
    _, second = batch(model, ys, lengths)
    want = second.copy()
    assert first.shape == (len(ys), model.length, K)
    assert first.flags.writeable and second.flags.writeable
    held = [t.log_values for t in vars(model).values() if hasattr(t, "log_values")]
    assert held and not any(np.shares_memory(first, a) for a in [second, *held])
    first[...] = 0.0
    _, third = batch(model, ys, lengths)
    assert np.array_equal(second, want, equal_nan=True)
    assert np.array_equal(third, want, equal_nan=True)

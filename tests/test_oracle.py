import itertools
import math
import tracemalloc

import numpy as np
import pytest

from chainequiv.crf import DegenerateModel, default_alphabets, random_crf_model
from chainequiv.crf import CrfModel, crf_posterior_marginals
from chainequiv.crf import _factors as crf_factors
from chainequiv.equivalence import crf_to_hmc
from chainequiv.hmc import HmcModel
from chainequiv.hmc import _factors as hmc_factors
from chainequiv.oracle import (
    ENUMERATION_BLOCK_CELLS,
    BudgetExceeded,
    ShapeMismatch,
    all_sequences,
    block_rows,
    compare_posteriors,
    enumerate_crf_posterior,
    enumerate_crf_posterior_batch,
    enumerate_hmc_posterior,
    enumerate_hmc_posterior_batch,
    posterior_matrix_marginals,
    _continuation_width,
    _score_matrix,
    _stable_total,
    _table_shape,
)
from chainequiv.tables import LOG_ZERO, Table2

from conftest import brute_crf_posterior, brute_hmc_posterior


def zero_crf(n, k=2, l=2):
    hidden, obs = default_alphabets(k, l)
    return CrfModel(hidden, obs,
                    tuple(Table2(np.zeros((k, k))) for _ in range(n - 1)),
                    tuple(Table2(np.zeros((k, l))) for _ in range(n)))


class TestEnumerateCrf:
    def test_uniform_two_step(self):
        ep = enumerate_crf_posterior(zero_crf(2), (0, 0))
        assert set(ep.entries) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for p in ep.entries.values():
            assert p == pytest.approx(0.25, abs=1e-15)
        assert ep.total == pytest.approx(1.0, abs=1e-12)

    def test_length_one_is_normalized_row(self):
        hidden, obs = default_alphabets(2, 2)
        emit = Table2([[math.log(1), 0.0], [math.log(3), 0.0]])
        m = CrfModel(hidden, obs, (), (emit,))
        ep = enumerate_crf_posterior(m, (0,))
        assert ep.probability((0,)) == pytest.approx(0.25, abs=1e-14)
        assert ep.probability((1,)) == pytest.approx(0.75, abs=1e-14)

    def test_matches_independent_brute_force(self):
        m = random_crf_model(4, 3, 2, seed=10)
        y = (0, 1, 1, 0)
        ep = enumerate_crf_posterior(m, y)
        want, log_kappa = brute_crf_posterior(m, y)
        assert ep.log_total_weight == pytest.approx(log_kappa, abs=1e-12)
        for x, p in want.items():
            assert ep.probability(x) == pytest.approx(p, abs=1e-13)

    def test_marginalization_matches_fast_path(self):
        m = random_crf_model(5, 3, 3, seed=44)
        y = (2, 1, 0, 2, 1)
        got = enumerate_crf_posterior(m, y).marginals()
        want = crf_posterior_marginals(m, y).probabilities()
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_budget_enforced(self):
        m = zero_crf(8, k=3)
        with pytest.raises(BudgetExceeded):
            enumerate_crf_posterior(m, (0,) * 8, budget=1000)
        enumerate_crf_posterior(m, (0,) * 8, budget=3**8)

    def test_deterministic(self):
        m = random_crf_model(4, 3, 2, seed=2)
        a = enumerate_crf_posterior(m, (0, 1, 0, 1))
        b = enumerate_crf_posterior(m, (0, 1, 0, 1))
        assert np.array_equal(a.probabilities, b.probabilities)

    def test_degenerate_raises(self):
        hidden, obs = default_alphabets(2, 2)
        emit = Table2(np.full((2, 2), LOG_ZERO))
        m = CrfModel(hidden, obs, (), (emit,), mode="generalized")
        with pytest.raises(DegenerateModel):
            enumerate_crf_posterior(m, (0,))

    def test_generalized_entries_omit_zero_mass(self):
        hidden, obs = default_alphabets(2, 1)
        pair = Table2([[0.0, LOG_ZERO], [LOG_ZERO, LOG_ZERO]])
        emit = Table2(np.zeros((2, 1)))
        m = CrfModel(hidden, obs, (pair,), (emit, emit), mode="generalized")
        ep = enumerate_crf_posterior(m, (0, 0))
        assert set(ep.entries) == {(0, 0)}
        assert ep.entries[(0, 0)] == pytest.approx(1.0, abs=1e-15)


class TestEnumerateHmc:
    def test_deterministic_chain_single_entry(self):
        hidden, obs = default_alphabets(2, 2)
        m = HmcModel.from_probabilities(hidden, obs, [1.0, 0.0],
                                        [np.eye(2)], [np.eye(2)] * 2)
        ep = enumerate_hmc_posterior(m, (0, 0))
        assert ep.entries == {(0, 0): 1.0}

    def test_uniform_model(self):
        hidden, obs = default_alphabets(2, 2)
        m = HmcModel.from_probabilities(hidden, obs, [0.5, 0.5],
                                        [np.full((2, 2), 0.5)], [np.full((2, 2), 0.5)] * 2)
        ep = enumerate_hmc_posterior(m, (0, 1))
        for p in ep.entries.values():
            assert p == pytest.approx(0.25, abs=1e-15)

    def test_constructed_hmc_matches_crf_enumeration(self):
        m = random_crf_model(4, 3, 2, seed=73)
        hmc, _ = crf_to_hmc(m)
        for y in itertools.product(range(2), repeat=4):
            a = enumerate_crf_posterior(m, y)
            b = enumerate_hmc_posterior(hmc, y)
            assert compare_posteriors(a, b).max_abs_diff <= 1e-10

    def test_matches_independent_brute_force(self):
        m = random_crf_model(3, 2, 2, seed=51)
        hmc, _ = crf_to_hmc(m)
        y = (1, 0, 1)
        want, evidence = brute_hmc_posterior(hmc, y)
        ep = enumerate_hmc_posterior(hmc, y)
        assert ep.log_total_weight == pytest.approx(evidence, abs=1e-12)
        for x, p in want.items():
            assert ep.probability(x) == pytest.approx(p, abs=1e-13)


class TestComparePosteriors:
    def test_identity(self):
        ep = enumerate_crf_posterior(zero_crf(2), (0, 0))
        report = compare_posteriors(ep, ep)
        assert report.max_abs_diff == 0.0
        assert report.position_marginal_diffs.max() == 0.0

    def test_uniform_vs_point_mass(self):
        uniform = enumerate_crf_posterior(zero_crf(2), (0, 0))
        hidden, obs = default_alphabets(2, 1)
        pair = Table2([[0.0, LOG_ZERO], [LOG_ZERO, LOG_ZERO]])
        emit = Table2(np.zeros((2, 1)))
        point = enumerate_crf_posterior(
            CrfModel(hidden, obs, (pair,), (emit, emit), mode="generalized"), (0, 0))
        report = compare_posteriors(uniform, point)
        assert report.max_abs_diff == pytest.approx(0.75, abs=1e-12)
        assert report.worst_sequence == (0, 0)

    def test_symmetry(self):
        a = enumerate_crf_posterior(random_crf_model(3, 2, 2, seed=1), (0, 1, 0))
        b = enumerate_crf_posterior(random_crf_model(3, 2, 2, seed=2), (0, 1, 0))
        ra, rb = compare_posteriors(a, b), compare_posteriors(b, a)
        assert ra.max_abs_diff == rb.max_abs_diff
        np.testing.assert_array_equal(ra.position_marginal_diffs, rb.position_marginal_diffs)

    def test_shape_mismatch(self):
        a = enumerate_crf_posterior(zero_crf(2), (0, 0))
        b = enumerate_crf_posterior(zero_crf(3), (0, 0, 0))
        with pytest.raises(ShapeMismatch):
            compare_posteriors(a, b)


class TestBatchEnumeration:
    def test_rows_match_single_calls(self):
        m = random_crf_model(4, 3, 3, seed=19)
        hmc, _ = crf_to_hmc(m)
        ys = all_sequences(3, 4)
        pc, lk = enumerate_crf_posterior_batch(m, ys)
        ph, le = enumerate_hmc_posterior_batch(hmc, ys)
        for i in range(0, len(ys), 7):
            a = enumerate_crf_posterior(m, tuple(ys[i]))
            b = enumerate_hmc_posterior(hmc, tuple(ys[i]))
            assert np.abs(pc[i] - a.probabilities).max() <= 1e-13
            assert np.abs(ph[i] - b.probabilities).max() <= 1e-13
            assert lk[i] == pytest.approx(a.log_total_weight, abs=1e-12)
            assert le[i] == pytest.approx(b.log_total_weight, abs=1e-12)

    def test_matrix_marginals_match(self):
        m = random_crf_model(3, 3, 2, seed=61)
        ys = all_sequences(2, 3)
        pc, _ = enumerate_crf_posterior_batch(m, ys)
        marg = posterior_matrix_marginals(pc, 3, 3)
        for i in (0, 3, 7):
            want = enumerate_crf_posterior(m, tuple(ys[i])).marginals()
            np.testing.assert_allclose(marg[i], want, atol=1e-13)

    def test_dead_rows_marked(self):
        hidden, obs = default_alphabets(2, 2)
        u = Table2([[0.0, LOG_ZERO], [0.0, LOG_ZERO]])  # symbol o1 impossible
        m = CrfModel(hidden, obs, (), (u,), mode="generalized")
        pc, lk = enumerate_crf_posterior_batch(m, all_sequences(2, 1))
        assert np.isfinite(lk[0]) and np.isneginf(lk[1])
        assert np.isnan(pc[1]).all()


def reference_scores(pairs, emits, obs) -> np.ndarray:
    """Each labeling's score, in plain floats: pairwise by step, then emissions by position."""
    pairs, emits = pairs.tolist(), emits.tolist()
    k, n = len(emits[0]), len(emits)
    rows = []
    for y in obs.tolist():
        row = []
        for x in itertools.product(range(k), repeat=n):
            total = 0.0
            for step in range(n - 1):
                total += pairs[step][x[step]][x[step + 1]]
            for pos in range(n):
                total += emits[pos][x[pos]][y[pos]]
            row.append(total)
        rows.append(row)
    return np.array(rows)


class TestScoreMatrixOrder:
    """The shared pairwise sum keeps every cell's additions in one fixed order."""

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("mode", ["strict", "generalized"])
    @pytest.mark.parametrize("high", [5.0, 500.0])
    def test_bit_equal_to_plain_summation(self, n, k, mode, high):
        seed = 100 * n + 10 * k + (mode == "generalized") + int(high)
        while True:  # a generalized draw can have zero total weight; take the next seed
            crf = random_crf_model(n, k, 3, seed, mode=mode, low=-high, high=high, zero_prob=0.3)
            try:
                hmc = crf_to_hmc(crf)[0]
                break
            except DegenerateModel:
                seed += 1000
        obs = np.random.default_rng(seed).integers(0, 3, size=(7, n))
        for pairs, emits in (crf_factors(crf), hmc_factors(hmc)):
            got = _score_matrix(pairs, emits, obs)
            assert np.array_equal(got, reference_scores(pairs, emits, obs))
        if mode == "generalized" and n > 1:
            assert np.isneginf(got).any()


def unshared_scores(pairs, emits, obs) -> np.ndarray:
    """The score matrix as it was before rows shared emission partial sums.

    Pairwise tables summed into one path tensor in step order, then each
    position's emission entries added to every row at once.
    """
    k, n, c = len(emits[0]), len(emits), len(obs)
    path = np.zeros((1,) + (k,) * n)
    for step, t in enumerate(pairs):
        path += t.reshape(_table_shape(k, n, step, 2))

    def picked(pos):
        return emits[pos][:, obs[:, pos]].T.reshape((c,) + _table_shape(k, n, pos, 1)[1:])

    scores = path + picked(0)
    for pos in range(1, n):
        scores += picked(pos)
    return scores.reshape(c, k**n)


def both_factors(n, k, l, mode, seed):
    """CRF and constructed-HMC factors of a random model; generalized draws have ``-inf`` cells."""
    while True:  # a generalized draw can have zero total weight; take the next seed
        crf = random_crf_model(n, k, l, seed, mode=mode, zero_prob=0.3)
        try:
            return crf_factors(crf), hmc_factors(crf_to_hmc(crf)[0])
        except DegenerateModel:
            seed += 1000


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSharedPrefixSums:
    """Rows that are one prefix and all its continuations share partial sums, bit for bit."""

    SHAPES = [(1, 2, 2), (2, 3, 1), (3, 2, 3), (4, 3, 2), (4, 2, 1), (5, 4, 3), (6, 3, 3), (6, 4, 2)]

    @pytest.mark.parametrize("mode", ["strict", "generalized"])
    @pytest.mark.parametrize("n, k, l", SHAPES)
    def test_every_aligned_block_equals_the_unshared_sum(self, n, k, l, mode):
        ys = all_sequences(l, n)
        for pairs, emits in both_factors(n, k, l, mode, seed=n * 100 + k * 10 + l):
            want = unshared_scores(pairs, emits, ys)
            if mode == "generalized" and n > 1:
                assert np.isneginf(want).any()
            for j in range(n + 1):
                size = l**j
                for start in range(0, len(ys), size):
                    block = ys[start:start + size]
                    assert _continuation_width(block, l) == (j if l > 1 else 0)
                    assert same_bits(_score_matrix(pairs, emits, block), want[start:start + size]), \
                        (j, start)

    @pytest.mark.parametrize("mode", ["strict", "generalized"])
    @pytest.mark.parametrize("n, k, l", [(3, 2, 3), (4, 3, 2), (5, 4, 3), (6, 3, 3)])
    def test_other_rows_equal_the_unshared_sum(self, n, k, l, mode):
        ys = all_sequences(l, n)
        rng = np.random.default_rng(n * 100 + k * 10 + l)
        others = {
            "misaligned": ys[1:1 + l],
            "misaligned-long": ys[l:l + l**2],
            "one-too-many": ys[:l**2 + 1],
            "repeated": np.repeat(ys[5:6], l, axis=0),
            "repeated-block": np.concatenate([ys[:l], ys[:l]]),
            "reversed": ys[:l][::-1],
            "random": rng.integers(0, l, size=(l**2, n)),
            "single": ys[-1:],
        }
        for pairs, emits in both_factors(n, k, l, mode, seed=n * 100 + k * 10 + l):
            for name, rows in others.items():
                assert same_bits(_score_matrix(pairs, emits, rows), unshared_scores(pairs, emits, rows)), name
        for name in ("misaligned", "misaligned-long", "one-too-many", "repeated", "repeated-block",
                     "reversed"):
            assert _continuation_width(others[name], l) == 0, name

    @pytest.mark.parametrize("mode", ["strict", "generalized"])
    def test_more_labelings_than_a_block(self, mode):
        n, k, l = 3, 41, 2
        assert k**n > ENUMERATION_BLOCK_CELLS
        ys = all_sequences(l, n)
        for pairs, emits in both_factors(n, k, l, mode, seed=7):
            for rows in (ys[3:4], ys[2:4], ys[1:3]):
                assert same_bits(_score_matrix(pairs, emits, rows), unshared_scores(pairs, emits, rows))


class TestBlockRows:
    def test_within_the_block_and_the_budget(self):
        assert block_rows(1000, 10**6) == ENUMERATION_BLOCK_CELLS // 1000
        assert block_rows(729, 729 * 9) == 9  # the budget caps a block below ENUMERATION_BLOCK_CELLS

    def test_at_least_one_row(self):
        assert block_rows(ENUMERATION_BLOCK_CELLS + 1, 10**6) == 1
        assert block_rows(8, 1) == 1


class TestAllSequences:
    def test_lexicographic_order(self):
        got = [tuple(r) for r in all_sequences(2, 3)]
        assert got == list(itertools.product(range(2), repeat=3))

    def test_length_zero_is_one_empty_sequence(self):
        assert all_sequences(3, 0).shape == (1, 0)

    def test_sequence_accessor_agrees(self):
        ep = enumerate_crf_posterior(zero_crf(2, k=3), (0, 0))
        for i in (0, 4, 8):
            assert ep.sequence(i) == tuple(all_sequences(3, 2)[i])


class TestNothingKept:
    def test_sequence_and_entries_leave_no_enumeration_behind(self):
        # n = 6, k = 10: the index rows of all 10^6 labelings took 48 MB, and stayed.
        k, n = 10, 6
        hidden, obs = default_alphabets(k, 2)
        pinned = np.zeros((k, 2))
        pinned[1:] = LOG_ZERO  # only label 0 has weight, at every position but the last
        model = CrfModel(hidden, obs, tuple(Table2(np.zeros((k, k))) for _ in range(n - 1)),
                         (Table2(pinned),) * (n - 1) + (Table2(np.zeros((k, 2))),), mode="generalized")
        ep = enumerate_crf_posterior(model, (0,) * n)
        tracemalloc.start()
        try:
            assert ep.sequence(0) == (0,) * n and ep.sequence(-1) == ep.sequence(k**n - 1) == (k - 1,) * n
            assert ep.entries == pytest.approx({(0,) * (n - 1) + (label,): 1 / k for label in range(k)})
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert current < 1e6


class TestStableTotal:
    def test_agrees_with_fsum(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.uniform(0.0, 1.0, rng.integers(1, 5000))
            got = _stable_total(w)
            want = math.fsum(w.tolist())
            assert got == pytest.approx(want, rel=1e-15, abs=1e-300)

    def test_adversarial_cancellation_free_sums(self):
        # many tiny values next to a large one
        w = np.concatenate([[1.0], np.full(10**5, 1e-16)])
        assert _stable_total(w) == pytest.approx(math.fsum(w.tolist()), rel=1e-15)

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainequiv.crf import (
    CrfModel,
    SCORE_LIMIT,
    DegenerateModel,
    ScoreOverflow,
    crf_log_normalizer,
    crf_log_score,
    crf_mpm_decode,
    crf_posterior_marginals,
    crf_posterior_marginals_batch,
    default_alphabets,
    random_crf_model,
)
from chainequiv.tables import LOG_ZERO, LengthMismatch, Table2, ValidationError

from conftest import brute_crf_posterior, label_space, marginals_of, naive_crf_score


def zero_model(n, k=2, l=2, mode="strict"):
    hidden, obs = default_alphabets(k, l)
    pair = tuple(Table2(np.zeros((k, k))) for _ in range(n - 1))
    emit = tuple(Table2(np.zeros((k, l))) for _ in range(n))
    return CrfModel(hidden, obs, pair, emit, mode=mode)


class TestModelValidation:
    def test_table_counts(self):
        hidden, obs = default_alphabets(2, 2)
        with pytest.raises(ValidationError):
            CrfModel(hidden, obs, (), (Table2(np.zeros((2, 2))),) * 2)

    def test_table_shapes(self):
        hidden, obs = default_alphabets(2, 3)
        with pytest.raises(ValidationError):
            CrfModel(hidden, obs, (), (Table2(np.zeros((3, 3))),))

    def test_strict_mode_rejects_zero_weights(self):
        hidden, obs = default_alphabets(2, 2)
        emit = Table2([[0.0, LOG_ZERO], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            CrfModel(hidden, obs, (), (emit,), mode="strict")
        CrfModel(hidden, obs, (), (emit,), mode="generalized")

    def test_homogeneous_tiling(self):
        hidden, obs = default_alphabets(2, 2)
        pair, emit = Table2(np.ones((2, 2))), Table2(np.ones((2, 2)))
        m = CrfModel.homogeneous(hidden, obs, 4, pair, emit)
        assert m.length == 4
        assert all(np.array_equal(t.log_values, pair.log_values) for t in m.pair_potentials)

    def test_homogeneous_stores_one_table_pair(self):
        hidden, obs = default_alphabets(3, 2)
        pair, emit = Table2(np.ones((3, 3))), Table2(np.zeros((3, 2)))
        m = CrfModel.homogeneous(hidden, obs, 100_000, pair, emit)
        assert m.pair_potentials.shape == (99_999, 3, 3)
        assert m.emit_potentials.shape == (100_000, 3, 2)
        for stack, table in ((m.pair_potentials, pair), (m.emit_potentials, emit)):
            assert stack.log_values.strides[0] == 0
            assert np.shares_memory(stack.log_values, table.log_values)

    @pytest.mark.parametrize("field", ["pair", "emit"])
    def test_strict_error_names_the_table(self, field):
        hidden, obs = default_alphabets(2, 2)
        tables = {"pair": [np.zeros((2, 2))] * 3, "emit": [np.zeros((2, 2))] * 4}
        tables[field][2] = np.array([[0.0, 0.0], [LOG_ZERO, 0.0]])
        with pytest.raises(ValidationError, match=rf"^{field}_potentials\[2\] contains -inf"):
            CrfModel(hidden, obs, tables["pair"], tables["emit"])

    def test_shape_error_names_the_table(self):
        hidden, obs = default_alphabets(2, 3)
        emits = [Table2(np.zeros((2, 3)))] * 3
        with pytest.raises(ValidationError,
                           match=r"^emit_potentials\[1\] has shape \(2, 2\), expected \(2, 3\)"):
            CrfModel(hidden, obs, [np.zeros((2, 2))] * 2,
                     [emits[0], Table2(np.zeros((2, 2))), emits[2]])
        with pytest.raises(ValidationError,
                           match=r"^pair_potentials\[0\] has shape \(3, 3\), expected \(2, 2\)"):
            CrfModel(hidden, obs, np.zeros((2, 3, 3)), emits)

    def test_path_sums_beyond_the_float_range_raise_score_overflow(self):
        # Every potential is finite, but V + U is 2e308: +inf in float arithmetic.
        hidden, obs = default_alphabets(2, 1)
        with pytest.raises(ScoreOverflow, match="overflow"):
            CrfModel(hidden, obs, [np.full((2, 2), 1e308)], [np.full((2, 1), 1e308)] * 2)
        with pytest.raises(ScoreOverflow):
            CrfModel(hidden, obs, [np.full((2, 2), -1e308)], [np.full((2, 1), -1e308)] * 2)
        assert issubclass(ScoreOverflow, ValidationError)

    def test_score_bound_counts_every_position_of_a_tiled_model(self):
        hidden, obs = default_alphabets(2, 2)
        pair = Table2(np.full((2, 2), -SCORE_LIMIT / 1e4))
        emit = Table2([[SCORE_LIMIT / 1e4, LOG_ZERO], [0.0, 0.0]])
        CrfModel.homogeneous(hidden, obs, 5000, pair, emit, mode="generalized")
        with pytest.raises(ScoreOverflow):
            CrfModel.homogeneous(hidden, obs, 5001, pair, emit, mode="generalized")

    def test_scores_just_inside_the_limit_give_finite_marginals(self):
        hidden, obs = default_alphabets(2, 1)
        pair = np.array([[SCORE_LIMIT / 2, 0.0], [0.0, 0.0]])
        m = CrfModel(hidden, obs, [pair], [np.array([[SCORE_LIMIT / 4], [0.0]])] * 2)
        totals, log_marginals = crf_posterior_marginals_batch(m, [[0, 0]])
        assert totals[0] == SCORE_LIMIT
        np.testing.assert_array_equal(np.exp(log_marginals[0]), [[1.0, 0.0], [1.0, 0.0]])

    def test_random_model_deterministic(self):
        a = random_crf_model(3, 2, 2, seed=9)
        b = random_crf_model(3, 2, 2, seed=9)
        for ta, tb in zip((*a.pair_potentials, *a.emit_potentials),
                          (*b.pair_potentials, *b.emit_potentials)):
            assert np.array_equal(ta.log_values, tb.log_values)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_random_model_rejects_a_negative_or_non_integer_seed(self, seed):
        with pytest.raises(ValidationError, match=r"^seed must be an integer >= 0"):
            random_crf_model(3, 2, 2, seed=seed)

    def test_random_generalized_has_zero_cells(self):
        m = random_crf_model(6, 4, 3, seed=0, mode="generalized")
        cells = np.concatenate([t.log_values.ravel()
                                for t in (*m.pair_potentials, *m.emit_potentials)])
        frac = np.isneginf(cells).mean()
        assert 0.02 < frac < 0.25


class TestLogScore:
    def test_all_zero_potentials(self):
        m = zero_model(3)
        assert crf_log_score(m, (0, 1, 1), (1, 0, 1)) == 0.0

    def test_single_position_single_term(self):
        hidden, obs = default_alphabets(2, 2)
        emit = Table2([[0.0, math.log(3)], [0.0, 0.0]])
        m = CrfModel(hidden, obs, (), (emit,))
        assert crf_log_score(m, (0,), (1,)) == pytest.approx(math.log(3), abs=1e-15)

    def test_matches_naive_resummation(self):
        m = random_crf_model(3, 3, 2, seed=17)
        for x in label_space(3, 3):
            for y in ((0, 1, 0), (1, 1, 1)):
                assert crf_log_score(m, x, y) == pytest.approx(
                    naive_crf_score(m, x, y), abs=1e-12)

    def test_length_mismatch(self):
        m = zero_model(3)
        with pytest.raises(LengthMismatch):
            crf_log_score(m, (0, 0), (0, 0, 0))
        with pytest.raises(LengthMismatch):
            crf_log_score(m, (0, 0, 0), (0, 0))

    def test_out_of_range_label(self):
        m = zero_model(2)
        with pytest.raises(ValidationError):
            crf_log_score(m, (0, 2), (0, 0))


class TestLogNormalizer:
    def test_two_positions_all_zero(self):
        assert crf_log_normalizer(zero_model(2), (0, 0)) == pytest.approx(math.log(4), abs=1e-12)

    def test_single_position_direct_sum(self):
        hidden, obs = default_alphabets(2, 2)
        emit = Table2([[math.log(1), 0.0], [math.log(3), 0.0]])
        m = CrfModel(hidden, obs, (), (emit,))
        assert crf_log_normalizer(m, (0,)) == pytest.approx(math.log(4), abs=1e-12)

    def test_matches_brute_force(self):
        m = random_crf_model(4, 3, 2, seed=5)
        for y in itertools.product(range(2), repeat=4):
            _, log_kappa = brute_crf_posterior(m, y)
            assert crf_log_normalizer(m, y) == pytest.approx(log_kappa, abs=1e-10)

    def test_degenerate_generalized_model(self):
        hidden, obs = default_alphabets(2, 2)
        emit = Table2(np.full((2, 2), LOG_ZERO))
        m = CrfModel(hidden, obs, (), (emit,), mode="generalized")
        with pytest.raises(DegenerateModel):
            crf_log_normalizer(m, (0,))


class TestPosteriorMarginals:
    def test_all_zero_potentials_uniform(self):
        pm = crf_posterior_marginals(zero_model(3), (0, 1, 0))
        np.testing.assert_allclose(pm.probabilities(), 0.5, atol=1e-12)

    def test_label_swap_symmetry(self):
        # diagonal pairwise pull, symmetric under relabeling: rows stay 1/2
        hidden, obs = default_alphabets(2, 2)
        pair = Table2([[math.log(9), 0.0], [0.0, math.log(9)]])
        emit = Table2(np.zeros((2, 2)))
        m = CrfModel(hidden, obs, (pair,), (emit, emit))
        pm = crf_posterior_marginals(m, (0, 0))
        np.testing.assert_allclose(pm.probabilities(), 0.5, atol=1e-12)

    def test_matches_enumeration(self):
        m = random_crf_model(5, 3, 2, seed=23)
        for y in ((0, 1, 0, 1, 1), (1, 1, 1, 1, 1), (0, 0, 0, 0, 0)):
            post, _ = brute_crf_posterior(m, y)
            want = marginals_of(post, 3, 5)
            got = crf_posterior_marginals(m, y).probabilities()
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_rows_normalized(self):
        m = random_crf_model(6, 4, 3, seed=2)
        pm = crf_posterior_marginals(m, (0, 1, 2, 0, 1, 2))
        np.testing.assert_allclose(pm.probabilities().sum(axis=1), 1.0, atol=1e-12)

    def test_batch_rows_equal_single_calls(self):
        m = random_crf_model(4, 3, 3, seed=31)
        ys = np.array(list(itertools.product(range(3), repeat=4)))
        totals, lm = crf_posterior_marginals_batch(m, ys)
        for i in range(0, len(ys), 13):
            single = crf_posterior_marginals(m, tuple(ys[i]))
            rows = np.stack([r.log_values for r in single.rows])
            assert np.array_equal(rows, lm[i])
            assert crf_log_normalizer(m, tuple(ys[i])) == totals[i]

    @pytest.mark.parametrize("scale", [5.0, 500.0])
    @pytest.mark.parametrize("k", [8, 33, 128, 129])
    def test_batch_rows_equal_single_calls_wide_labels(self, k, scale):
        m = random_crf_model(5, k, 3, seed=k, low=-scale, high=scale)
        ys = np.random.default_rng(k).integers(0, 3, (50, 5))
        totals, lm = crf_posterior_marginals_batch(m, ys)
        for i in range(0, len(ys), 7):
            single = crf_posterior_marginals(m, tuple(ys[i]))
            assert np.array_equal(np.stack([r.log_values for r in single.rows]), lm[i])
            assert crf_log_normalizer(m, tuple(ys[i])) == totals[i]

    def test_no_false_locality(self):
        # with strong pairwise coupling, changing the emission table at
        # position 2 must move the posterior at position 1
        hidden, obs = default_alphabets(2, 2)
        pair = Table2([[math.log(9), 0.0], [0.0, math.log(9)]])
        emit_flat = Table2(np.zeros((2, 2)))
        emit_biased = Table2([[math.log(4), 0.0], [0.0, math.log(4)]])
        before = crf_posterior_marginals(
            CrfModel(hidden, obs, (pair,), (emit_flat, emit_flat)), (0, 0))
        after = crf_posterior_marginals(
            CrfModel(hidden, obs, (pair,), (emit_flat, emit_biased)), (0, 0))
        delta = np.abs(before.probabilities()[0] - after.probabilities()[0]).max()
        assert delta > 0.1


class TestMpmDecode:
    def test_argmax_forced(self):
        hidden, obs = default_alphabets(2, 2)
        emit1 = Table2([[math.log(0.6), 0.0], [math.log(0.4), 0.0]])
        emit2 = Table2([[math.log(0.3), 0.0], [math.log(0.7), 0.0]])
        m = CrfModel(hidden, obs, (Table2(np.zeros((2, 2))),), (emit1, emit2))
        assert crf_mpm_decode(m, (0, 0)) == (0, 1)

    def test_exact_tie_takes_lowest_index(self):
        assert crf_mpm_decode(zero_model(2), (0, 1)) == (0, 0)

    def test_matches_oracle_argmax(self):
        m = random_crf_model(4, 3, 2, seed=77)
        for y in itertools.product(range(2), repeat=4):
            post, _ = brute_crf_posterior(m, y)
            want = tuple(int(np.argmax(row)) for row in marginals_of(post, 3, 4))
            assert crf_mpm_decode(m, y) == want


class TestInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6), st.integers(2, 4), st.integers(2, 3))
    def test_enumeration_equivalence(self, seed, n, k, l):
        # exp(score - normalizer) over all labelings sums to one
        m = random_crf_model(n, k, l, seed=seed)
        y = tuple(np.random.default_rng(seed).integers(0, l, n))
        log_kappa = crf_log_normalizer(m, y)
        total = math.fsum(math.exp(crf_log_score(m, x, y) - log_kappa)
                          for x in label_space(k, n))
        assert total == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 5), st.data())
    def test_shift_invariance(self, seed, n, data):
        # adding a constant to any one table leaves the posterior unchanged
        m = random_crf_model(n, 3, 2, seed=seed)
        c = data.draw(st.floats(min_value=-20, max_value=20))
        which = data.draw(st.integers(0, 2 * n - 2))
        pair = list(m.pair_potentials)
        emit = list(m.emit_potentials)
        if which < n - 1:
            pair[which] = Table2(pair[which].log_values + c)
        else:
            i = which - (n - 1)
            emit[i] = Table2(emit[i].log_values + c)
        shifted = CrfModel(m.hidden, m.obs, tuple(pair), tuple(emit))
        y = tuple(np.random.default_rng(seed + 1).integers(0, 2, n))
        a = crf_posterior_marginals(m, y).probabilities()
        b = crf_posterior_marginals(shifted, y).probabilities()
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_marginal_consistency_with_joint(self):
        m = random_crf_model(4, 3, 3, seed=13)
        y = (2, 0, 1, 2)
        post, _ = brute_crf_posterior(m, y)
        want = marginals_of(post, 3, 4)
        got = crf_posterior_marginals(m, y).probabilities()
        np.testing.assert_allclose(got, want, atol=1e-10)

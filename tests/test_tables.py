import itertools
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from chainequiv.tables import (
    LOG_ZERO,
    Alphabet,
    LengthMismatch,
    PosteriorMarginals,
    Table1,
    Table2,
    Table3,
    ValidationError,
    hamming_loss,
    log_sum_exp,
    normalize_rows,
)

getcontext().prec = 50


def decimal_lse(values) -> Decimal:
    """Arbitrary-precision log(sum(exp(v))) for finite inputs."""
    return sum(Decimal(v).exp() for v in values).ln()


class TestLogSumExp:
    def test_small_integers(self):
        assert log_sum_exp([math.log(1), math.log(3)]) == pytest.approx(math.log(4), abs=1e-14)

    def test_empty_sum_is_log_zero(self):
        assert log_sum_exp([]) == LOG_ZERO
        np.testing.assert_array_equal(log_sum_exp(np.zeros((2, 0)), axis=1), [LOG_ZERO, LOG_ZERO])
        assert log_sum_exp(np.zeros((0, 3)), axis=0).tolist() == [LOG_ZERO] * 3

    def test_all_neg_inf(self):
        assert log_sum_exp([LOG_ZERO, LOG_ZERO]) == LOG_ZERO

    def test_large_identical_values_do_not_overflow(self):
        # oracle: Decimal gives 1000 + ln(50) = 1003.9120230054281...
        got = log_sum_exp([1000.0] * 50)
        want = decimal_lse([1000.0] * 50)
        assert got == pytest.approx(float(want), rel=1e-14)
        assert got == pytest.approx(1000.0 + math.log(50), abs=1e-12)

    def test_neg_inf_entries_are_ignored(self):
        assert log_sum_exp([0.0, LOG_ZERO]) == pytest.approx(0.0, abs=1e-15)

    def test_axis_reduction_matches_flat(self):
        a = np.array([[0.0, 1.0, LOG_ZERO], [2.0, LOG_ZERO, LOG_ZERO]])
        rows = log_sum_exp(a, axis=1)
        assert rows[0] == pytest.approx(log_sum_exp(a[0]), abs=1e-15)
        assert rows[1] == pytest.approx(2.0, abs=1e-15)
        dead = log_sum_exp(np.full((2, 2), LOG_ZERO), axis=0)
        assert np.isneginf(dead).all()

    @given(st.lists(st.floats(min_value=-300, max_value=300), min_size=1, max_size=60))
    def test_matches_arbitrary_precision(self, values):
        want = decimal_lse(values)
        assert log_sum_exp(values) == pytest.approx(float(want), rel=1e-12, abs=1e-12)

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=20),
           st.floats(min_value=-200, max_value=200))
    def test_shift_identity(self, values, c):
        shifted = log_sum_exp([v + c for v in values])
        assert shifted == pytest.approx(log_sum_exp(values) + c, rel=1e-12, abs=1e-9)


def one_row(values) -> np.ndarray:
    """``normalize_rows`` on a single 1-d row, which must not be dead."""
    rows, dead = normalize_rows(values)
    assert rows.shape == np.shape(values) and dead.shape == () and not dead
    return rows


class TestNormalizeRows:
    def test_symmetric_row(self):
        row = one_row([math.log(2), math.log(2)])
        np.testing.assert_allclose(row, [math.log(0.5)] * 2, atol=1e-15)

    def test_single_support_cell(self):
        row = one_row([0.0, LOG_ZERO])
        assert row[0] == pytest.approx(0.0, abs=1e-15)
        assert row[1] == LOG_ZERO

    def test_matches_decimal_softmax(self):
        # oracle: softmax(1,2,3) with 50-digit Decimal arithmetic
        values = [1.0, 2.0, 3.0]
        total = sum(Decimal(v).exp() for v in values)
        want = [float(Decimal(v).exp() / total) for v in values]
        got = np.exp(one_row(values))
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_all_zero_row_is_flagged_dead(self):
        rows, dead = normalize_rows([LOG_ZERO, LOG_ZERO])
        assert dead.shape == () and dead
        assert (rows == -math.log(2)).all()

    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8))
    def test_normalizes_and_preserves_argmax(self, values):
        arr = np.asarray(values)
        gaps = np.abs(arr - arr.max())
        assume((gaps[gaps > 0] > 1e-9).all())  # sub-ulp near-ties may collapse
        row = one_row(values)
        assert np.exp(row).sum() == pytest.approx(1.0, abs=1e-12)
        assert int(np.argmax(row)) == int(np.argmax(arr))

    def test_exact_ties_stay_ties(self):
        row = one_row([2.5, 2.5, 1.0])
        assert row[0] == row[1]
        assert int(np.argmax(row)) == 0

    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8))
    @example(values=[0.0, 0.0, 0.0, 0.0523167482295352, 0.0523167482295352,
                     -11.343629044070187, 0.0])
    def test_idempotent(self, values):
        once = one_row(values)
        twice = one_row(once)
        assert np.abs(twice - once).max() <= 1e-15

    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8))
    def test_normalized_row_is_a_fixed_point(self, values):
        once = one_row(values)
        assert one_row(once) is once

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8),
           st.floats(min_value=-200, max_value=200))
    def test_shift_invariance(self, values, c):
        shifted = one_row([v + c for v in values])
        np.testing.assert_allclose(shifted, one_row(values), rtol=0, atol=1e-12)

    # normalize_rows: the cases above as stacked (..., k) inputs, with rows
    # spanning 1e3 to 1e300 and rows of only -inf.

    ROWS = [[math.log(2), math.log(2)], [0.0, LOG_ZERO], [1.0, 2.0], [2.5, 2.5]]
    WIDE = [[1e3, 0.0, -1e3], [1e300, 1.0, -1e300], [-1e300, -1e300, LOG_ZERO], [1e3, 1e3, -1e300],
            [-1e3, LOG_ZERO, -1e3 - 1e-9], [0.0, -40.0, -1e300]]

    @staticmethod
    def check(stack, rows, dead):
        """Live rows as one-row calls give them, dead rows uniform, and a second pass bit for bit."""
        stack = np.asarray(stack, dtype=float)
        assert rows.shape == stack.shape and dead.shape == stack.shape[:-1]
        for index in np.ndindex(stack.shape[:-1]):
            if dead[index]:
                assert (stack[index] == LOG_ZERO).all()
                assert (rows[index] == -math.log(stack.shape[-1])).all()
            else:
                one = one_row(stack[index])
                assert rows[index].tobytes() == one.tobytes()
                assert int(np.argmax(rows[index])) == int(np.argmax(stack[index]))
                assert np.exp(rows[index]).sum() == pytest.approx(1.0, abs=1e-15)
        again, dead_again = normalize_rows(rows)
        assert again is rows and not dead_again.any()

    @pytest.mark.parametrize("shape", [(4, 2), (2, 2, 2), (1, 4, 1, 2)])
    def test_stacked_rows(self, shape):
        stack = np.reshape(self.ROWS, shape)
        self.check(stack, *normalize_rows(stack))

    def test_rows_spanning_1e3_to_1e300(self):
        stack = np.reshape(self.WIDE, (2, 3, 3))
        self.check(stack, *normalize_rows(stack))

    def test_all_inf_rows_are_flagged_dead(self):
        stack = np.array([[[0.0, 1.0, 2.0], [LOG_ZERO] * 3], [[LOG_ZERO] * 3, [LOG_ZERO, 5.0, LOG_ZERO]]])
        rows, dead = normalize_rows(stack)
        assert dead.tolist() == [[False, True], [True, False]]
        self.check(stack, rows, dead)

    @given(st.lists(st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=3, max_size=3),
                    min_size=1, max_size=6))
    def test_second_pass_is_bit_identical(self, values):
        once, _ = normalize_rows(values)
        twice, dead = normalize_rows(once)
        assert twice is once and not dead.any()


class TestHammingLoss:
    def test_identity(self):
        assert hamming_loss([0, 1, 1], [0, 1, 1]) == 0

    def test_single_disagreement(self):
        assert hamming_loss([0, 1, 1], [0, 1, 0]) == 1

    def test_total_disagreement(self):
        assert hamming_loss([0, 0], [1, 1]) == 2

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            hamming_loss([0, 1], [0, 1, 0])

    @pytest.mark.parametrize("a, b", [
        ((0.5, 1), (0, 1)),
        ((0, 1), (0, -1)),
        ("ab", "ac"),
        ((None, 1), (0, 1)),
        ((float("nan"), 1), (0, 1)),
    ])
    def test_malformed_labels_raise_validation_error(self, a, b):
        with pytest.raises(ValidationError) as info:
            hamming_loss(a, b)
        assert not isinstance(info.value, LengthMismatch)

    def test_whole_number_labels_of_any_numeric_type(self):
        assert hamming_loss((np.int32(1), 2.0, True), (1, 2, 0)) == 1

    def test_is_a_metric_exhaustively(self):
        # identity, symmetry and triangle inequality over all pairs, N <= 3, 3 labels
        for n in (1, 2, 3):
            seqs = list(itertools.product(range(3), repeat=n))
            for a, b in itertools.product(seqs, repeat=2):
                d = hamming_loss(a, b)
                assert (d == 0) == (a == b)
                assert d == hamming_loss(b, a)
            for a, b, c in itertools.product(seqs, repeat=3):
                assert hamming_loss(a, c) <= hamming_loss(a, b) + hamming_loss(b, c)


class TestAlphabet:
    def test_index_symbol_roundtrip(self):
        ab = Alphabet(("x", "y", "z"))
        for i, s in enumerate(ab.symbols):
            assert ab.index(s) == i
            assert ab.symbol(i) == s
        assert ab.size == 3
        assert "y" in ab and "w" not in ab

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValidationError):
            Alphabet(("a", "a"))
        with pytest.raises(ValidationError):
            Alphabet(())

    def test_rejects_out_of_range(self):
        ab = Alphabet(("a",))
        with pytest.raises(ValidationError):
            ab.symbol(1)
        with pytest.raises(ValidationError):
            ab.index("b")

    def test_symbol_rejects_bool_and_non_integral_indices(self):
        ab = Alphabet(("a", "b"))
        for bad in (True, False, np.True_, 0.5, 1.0, "1", None):
            with pytest.raises(ValidationError):
                ab.symbol(bad)
        assert ab.symbol(np.int64(1)) == "b"
        assert ab.symbol(np.uint8(0)) == "a"

    def test_indices_map_a_sequence_and_name_the_first_unknown_symbol(self):
        ab = Alphabet(("x", "y", "z"))
        assert ab.indices(["z", "x", "z", "y"]) == [2, 0, 2, 1]
        assert ab.indices([]) == []
        with pytest.raises(ValidationError, match=r"^symbol 'w' is not in the alphabet$"):
            ab.indices(["x", "w", "q"])

    def test_lookup_maps_every_symbol_and_marks_unknown_ones(self):
        ab = Alphabet(("x", "y", "z"))
        got = ab.lookup(iter(["z", "w", "x", "-1", "y"]), 5)
        assert got.dtype == np.intp and got.tolist() == [2, -1, 0, -1, 1]
        assert ab.lookup([]).tolist() == []

    @given(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=8, unique=True))
    def test_bijection(self, symbols):
        ab = Alphabet(tuple(symbols))
        assert [ab.symbol(ab.index(s)) for s in symbols] == symbols


class TestTables:
    def test_rejects_nan_and_pos_inf(self):
        with pytest.raises(ValidationError):
            Table1([0.0, float("nan")])
        with pytest.raises(ValidationError):
            Table2([[0.0, float("inf")]])

    def test_neg_inf_is_allowed(self):
        t = Table2([[0.0, LOG_ZERO]])
        assert t[0, 1] == LOG_ZERO

    def test_shape_checks(self):
        with pytest.raises(ValidationError):
            Table1([[0.0]])
        with pytest.raises(ValidationError):
            Table2([0.0])
        with pytest.raises(ValidationError):
            Table1([])

    def test_lookup_is_total_in_range_only(self):
        t = Table1([1.0, 2.0])
        assert t[1] == 2.0
        with pytest.raises(IndexError):
            t[2]
        with pytest.raises(IndexError):
            t[-1]
        t2 = Table2([[1.0, 2.0], [3.0, 4.0]])
        assert t2[1, 0] == 3.0
        with pytest.raises(IndexError):
            t2[0, 2]

    def test_entries_are_immutable(self):
        t = Table1([1.0, 2.0])
        with pytest.raises(ValueError):
            t.log_values[0] = 5.0

    def test_partial_index_is_a_read_only_sub_table(self):
        values = np.arange(24.0).reshape(2, 3, 4)
        stack = Table3(values)
        table = stack[1]
        assert type(table) is Table2
        assert np.array_equal(table.log_values, values[1])
        assert np.shares_memory(table.log_values, stack.log_values)
        with pytest.raises(ValueError):
            table.log_values[0, 0] = 5.0
        row = stack[1, 2]
        assert type(row) is Table1 and np.array_equal(row.log_values, values[1, 2])
        assert type(table[2]) is Table1
        assert stack[-1][0, 0] == stack[1][0, 0] == 12.0
        assert type(stack[:1]) is Table3 and stack[:1].shape == (1, 3, 4)
        assert stack[1, 2, 3] == 23.0 and type(stack[1, 2, 3]) is float

    def test_len_and_iteration_run_over_axis_0(self):
        values = np.arange(12.0).reshape(3, 2, 2)
        stack = Table3(values)
        assert len(stack) == 3
        tables = list(stack)
        assert [type(t) for t in tables] == [Table2] * 3
        assert all(np.array_equal(t.log_values, v) for t, v in zip(tables, values))
        assert [len(t) for t in tables] == [2, 2, 2]
        assert list(Table1([1.0, 2.0])) == [1.0, 2.0]

    def test_out_of_range_index_raises_index_error(self):
        stack = Table3(np.zeros((2, 3, 4)))
        for index in (2, -3, (0, 3), (2, 0, 0), (0, 0, 4), (0, 0, -1), (0, 0, 0, 0)):
            with pytest.raises(IndexError):
                stack[index]

    def test_empty_leading_axis_only_for_stacks(self):
        empty = Table3(np.zeros((0, 2, 3)))
        assert len(empty) == 0 and list(empty) == []
        for bad in (np.zeros((2, 0, 3)), np.zeros((0, 0, 0)), []):
            with pytest.raises(ValidationError):
                Table3(bad)
        with pytest.raises(ValidationError):
            Table2(np.zeros((0, 2)))

    def test_a_sequence_of_tables_stacks(self):
        tables = [Table2([[0.0, 1.0]]), Table2([[2.0, LOG_ZERO]])]
        assert np.array_equal(Table3(tables).log_values, [[[0.0, 1.0]], [[2.0, LOG_ZERO]]])
        with pytest.raises(ValidationError):
            Table3([Table2([[0.0, 1.0]]), Table2([[0.0]])])

    def test_from_probabilities(self):
        t = Table1.from_probabilities([0.5, 0.0, 0.5])
        assert t[0] == pytest.approx(math.log(0.5))
        assert t[1] == LOG_ZERO
        with pytest.raises(ValidationError):
            Table1.from_probabilities([-0.1, 1.1])


class TestPosteriorMarginals:
    def test_mpm_labels_argmax(self):
        pm = PosteriorMarginals((
            Table1(np.log([0.6, 0.4])),
            Table1(np.log([0.3, 0.7])),
        ))
        assert pm.mpm_labels() == (0, 1)

    def test_mpm_tie_breaks_to_lowest_index(self):
        pm = PosteriorMarginals((Table1(np.log([0.5, 0.5])),))
        assert pm.mpm_labels() == (0,)

    def test_probabilities_shape(self):
        pm = PosteriorMarginals((Table1(np.log([0.25, 0.75])),) * 3)
        assert pm.probabilities().shape == (3, 2)
        assert pm.length == 3

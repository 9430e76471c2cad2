import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainequiv.crf import default_alphabets, random_crf_model
from chainequiv.equivalence import crf_to_hmc
from chainequiv.hmc import (
    HmcModel,
    ImpossibleObservation,
    hmc_log_evidence,
    hmc_log_joint,
    hmc_mpm_decode,
    hmc_posterior_marginals,
    hmc_posterior_marginals_batch,
)
from chainequiv.tables import LOG_ZERO, LengthMismatch, Table1, Table2, ValidationError

from conftest import brute_hmc_posterior, label_space, marginals_of, naive_hmc_log_joint


def build(init, trans, emit):
    k = len(init)
    l = len(emit[0][0])
    hidden, obs = default_alphabets(k, l)
    return HmcModel.from_probabilities(hidden, obs, init, trans, emit)


def uniform_model(n, k=2, l=2):
    return build([1 / k] * k,
                 [np.full((k, k), 1 / k)] * (n - 1),
                 [np.full((k, l), 1 / l)] * n)


def random_hmc(n, k, l, seed):
    rng = np.random.default_rng(seed)

    def rows(r, c):
        a = rng.uniform(0.05, 1.0, (r, c))
        return a / a.sum(axis=1, keepdims=True)

    init = rng.uniform(0.05, 1.0, k)
    return build(init / init.sum(), [rows(k, k) for _ in range(n - 1)], [rows(k, l) for _ in range(n)])


class TestModelValidation:
    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValidationError):
            build([0.6, 0.6], [], [np.full((2, 2), 0.5)])
        with pytest.raises(ValidationError):
            build([0.5, 0.5], [[[0.9, 0.2], [0.5, 0.5]]], [np.full((2, 2), 0.5)] * 2)

    def test_accepts_rows_within_tolerance_and_renormalizes(self):
        off = 1 + 4e-10
        m = build([0.5 * off, 0.5 * off], [], [np.full((2, 2), 0.5)])
        assert m.init.probabilities().sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("field", ["transitions", "emissions"])
    def test_stochastic_error_names_the_table_and_row(self, field):
        tables = {"transitions": [np.full((2, 2), 0.5)] * 3, "emissions": [np.full((2, 2), 0.5)] * 4}
        tables[field][2] = np.array([[0.5, 0.5], [0.9, 0.3]])
        with pytest.raises(ValidationError, match=rf"^{field}\[2\] row 1 sums to 1.2,"):
            build([0.5, 0.5], tables["transitions"], tables["emissions"])

    @pytest.mark.parametrize("off", ["scaled", "one-row", "near-tolerance", "zero-row"])
    def test_stochastic_error_reports_the_direct_row_sums(self, off):
        # The check screens on the normalizer's row sums, but a failure names
        # the worst row and prints the sum as direct sums of the rows give
        # them, also where rows scaled alike tie to the last bit or two.
        rng = np.random.default_rng(["scaled", "one-row", "near-tolerance", "zero-row"].index(off))
        for _ in range(50):
            p = rng.random((3, 3, 3))
            p /= p.sum(axis=-1, keepdims=True)
            if off == "scaled":
                p *= rng.uniform(0.5, 2.0)
            elif off == "one-row":
                p[rng.integers(3), rng.integers(3)] *= rng.uniform(0.5, 2.0)
            elif off == "near-tolerance":
                p *= 1 + rng.uniform(-2e-9, 2e-9, (3, 3, 1))
            else:
                p[1, 2] = 0.0
            with np.errstate(divide="ignore"):
                sums = np.exp(np.log(p)).sum(axis=-1)
            bad = (np.abs(sums - 1.0) > 1e-9).any(axis=1)
            emit = [np.full((3, 2), 0.5)] * 4
            if not bad.any():
                build([1 / 3] * 3, p, emit)
                continue
            i = int(np.argmax(bad))
            row = int(np.argmax(np.abs(sums[i] - 1.0)))
            message = f"transitions[{i}] row {row} sums to {sums[i, row]:.12g}, expected 1 within 1e-09"
            with pytest.raises(ValidationError) as e:
                build([1 / 3] * 3, p, emit)
            assert str(e.value) == message

    def test_homogeneous_keeps_one_table_pair(self):
        hidden, obs = default_alphabets(2, 2)
        trans = Table2.from_probabilities(np.full((2, 2), 0.5))
        emit = Table2.from_probabilities([[0.25, 0.75], [1.0, 0.0]])
        m = HmcModel.homogeneous(hidden, obs, 1000, Table1.from_probabilities([0.5, 0.5]),
                                 trans, emit)
        assert m.transitions.log_values.strides[0] == 0
        assert m.emissions.log_values.strides[0] == 0
        assert m.emissions.shape == (1000, 2, 2)

    def test_homogeneous_repeats_a_models_first_tables_as_views(self):
        m = random_hmc(4, 3, 2, seed=5)

        def tile(length):
            return HmcModel.homogeneous(m.hidden, m.obs, length, m.init, m.transitions[0],
                                        m.emissions[0])

        r = tile(7)
        assert r.length == 7 and r.init is m.init
        assert r.transitions.log_values.strides[0] == 0
        assert (r.transitions.log_values == m.transitions.log_values[0]).all()
        assert (r.emissions.log_values == m.emissions.log_values[0]).all()
        assert tile(1).transitions.shape == (0, 3, 3)
        with pytest.raises(ValidationError):
            tile(0)

    def test_table_counts(self):
        with pytest.raises(ValidationError):
            build([0.5, 0.5], [np.eye(2)], [np.full((2, 2), 0.5)])

    def test_zero_probabilities_allowed(self):
        m = build([1.0, 0.0], [], [np.eye(2)])
        assert m.init[1] == LOG_ZERO


class TestLogJoint:
    def test_deterministic_chain(self):
        m = build([1.0, 0.0], [], [[[1.0, 0.0], [0.0, 1.0]]])
        assert hmc_log_joint(m, (0,), (0,)) == 0.0

    def test_zero_initial_mass(self):
        m = build([1.0, 0.0], [], [[[1.0, 0.0], [0.0, 1.0]]])
        assert hmc_log_joint(m, (1,), (0,)) == LOG_ZERO

    def test_matches_naive_product(self):
        m = random_hmc(4, 3, 2, seed=11)
        for x in label_space(3, 4):
            assert hmc_log_joint(m, x, (0, 1, 1, 0)) == pytest.approx(
                naive_hmc_log_joint(m, x, (0, 1, 1, 0)), abs=1e-12)

    def test_length_mismatch(self):
        m = uniform_model(3)
        with pytest.raises(LengthMismatch):
            hmc_log_joint(m, (0, 0), (0, 0, 0))


class TestEvidence:
    def test_deterministic_single_path(self):
        m = build([1.0, 0.0], [], [[[1.0, 0.0], [0.0, 1.0]]])
        assert hmc_log_evidence(m, (0,)) == pytest.approx(0.0, abs=1e-15)

    def test_unobservable_symbol(self):
        m = build([0.5, 0.5], [], [[[1.0, 0.0], [1.0, 0.0]]])
        assert hmc_log_evidence(m, (1,)) == LOG_ZERO

    def test_matches_enumerated_joints(self):
        m = random_hmc(5, 3, 2, seed=4)
        for y in ((0, 1, 0, 1, 1), (1, 1, 0, 0, 0)):
            want = math.log(math.fsum(
                math.exp(naive_hmc_log_joint(m, x, y)) for x in label_space(3, 5)))
            assert hmc_log_evidence(m, y) == pytest.approx(want, abs=1e-10)

    def test_evidence_sums_to_one_over_all_y(self):
        m = random_hmc(3, 2, 3, seed=8)
        total = math.fsum(math.exp(hmc_log_evidence(m, y))
                          for y in itertools.product(range(3), repeat=3))
        assert total == pytest.approx(1.0, abs=1e-10)


class TestPosteriorMarginals:
    def test_uniform_model_gives_uniform_rows(self):
        pm = hmc_posterior_marginals(uniform_model(4), (0, 1, 1, 0))
        np.testing.assert_allclose(pm.probabilities(), 0.5, atol=1e-12)

    def test_deterministic_emissions_pin_states(self):
        m = build([0.5, 0.5], [np.full((2, 2), 0.5)] * 2, [np.eye(2)] * 3)
        pm = hmc_posterior_marginals(m, (1, 0, 1))
        np.testing.assert_allclose(pm.probabilities(), [[0, 1], [1, 0], [0, 1]], atol=1e-12)

    def test_matches_enumeration(self):
        m = random_hmc(5, 3, 2, seed=21)
        for y in ((0, 0, 1, 1, 0), (1, 1, 1, 1, 1)):
            post, _ = brute_hmc_posterior(m, y)
            want = marginals_of(post, 3, 5)
            got = hmc_posterior_marginals(m, y).probabilities()
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_impossible_observation_raises(self):
        m = build([0.5, 0.5], [], [[[1.0, 0.0], [1.0, 0.0]]])
        with pytest.raises(ImpossibleObservation):
            hmc_posterior_marginals(m, (1,))

    def test_batch_rows_equal_single_calls(self):
        m = random_hmc(4, 2, 3, seed=6)
        ys = np.array(list(itertools.product(range(3), repeat=4)))
        evidences, lm = hmc_posterior_marginals_batch(m, ys)
        for i in range(0, len(ys), 17):
            single = hmc_posterior_marginals(m, tuple(ys[i]))
            assert np.array_equal(np.stack([r.log_values for r in single.rows]), lm[i])
            assert hmc_log_evidence(m, tuple(ys[i])) == evidences[i]

    @pytest.mark.parametrize("scale", [5.0, 500.0])
    @pytest.mark.parametrize("k", [8, 33, 128, 129])
    def test_batch_rows_equal_single_calls_wide_labels(self, k, scale):
        m, _ = crf_to_hmc(random_crf_model(5, k, 3, seed=k, low=-scale, high=scale))
        ys = np.random.default_rng(k).integers(0, 3, (50, 5))
        evidences, lm = hmc_posterior_marginals_batch(m, ys)
        for i in range(0, len(ys), 7):
            single = hmc_posterior_marginals(m, tuple(ys[i]))
            assert np.array_equal(np.stack([r.log_values for r in single.rows]), lm[i])
            assert hmc_log_evidence(m, tuple(ys[i])) == evidences[i]

    def test_two_step_stationary_chain_against_exact_rationals(self):
        # hand computation: init (1/2, 1/2), transitions ((3/4, 1/4), (1/4, 3/4)),
        # emissions ((2/3, 1/3), (1/3, 2/3)), observations (o0, o1)
        init = [Fraction(1, 2), Fraction(1, 2)]
        trans = [[Fraction(3, 4), Fraction(1, 4)], [Fraction(1, 4), Fraction(3, 4)]]
        emit = [[Fraction(2, 3), Fraction(1, 3)], [Fraction(1, 3), Fraction(2, 3)]]
        y = (0, 1)
        joint = {}
        for x1, x2 in itertools.product(range(2), repeat=2):
            joint[(x1, x2)] = init[x1] * emit[x1][y[0]] * trans[x1][x2] * emit[x2][y[1]]
        evidence = sum(joint.values())
        exact = np.array([
            [float(sum(p for (a, b), p in joint.items() if a == v) / evidence) for v in range(2)],
            [float(sum(p for (a, b), p in joint.items() if b == v) / evidence) for v in range(2)],
        ])
        m = build([1 / 2, 1 / 2], [[[3 / 4, 1 / 4], [1 / 4, 3 / 4]]],
                  [[[2 / 3, 1 / 3], [1 / 3, 2 / 3]]] * 2)
        got = hmc_posterior_marginals(m, y).probabilities()
        np.testing.assert_allclose(got, exact, atol=1e-12)
        assert hmc_log_evidence(m, y) == pytest.approx(math.log(float(evidence)), abs=1e-12)


class TestMpmDecode:
    def test_point_mass_marginals(self):
        m = build([0.5, 0.5], [np.full((2, 2), 0.5)] * 2, [np.eye(2)] * 3)
        assert hmc_mpm_decode(m, (1, 0, 1)) == (1, 0, 1)

    def test_uniform_ties_break_low(self):
        assert hmc_mpm_decode(uniform_model(3), (0, 1, 0)) == (0, 0, 0)

    def test_matches_oracle_argmax(self):
        m = random_hmc(4, 3, 2, seed=14)
        for y in itertools.product(range(2), repeat=4):
            post, _ = brute_hmc_posterior(m, y)
            want = tuple(int(np.argmax(row)) for row in marginals_of(post, 3, 4))
            assert hmc_mpm_decode(m, y) == want


class TestChainRule:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 4))
    def test_joint_minus_evidence_is_log_posterior(self, seed, n):
        m = random_hmc(n, 2, 2, seed=seed)
        rng = np.random.default_rng(seed)
        y = tuple(rng.integers(0, 2, n))
        x = tuple(rng.integers(0, 2, n))
        post, _ = brute_hmc_posterior(m, y)
        want = math.log(post[x])
        got = hmc_log_joint(m, x, y) - hmc_log_evidence(m, y)
        assert got == pytest.approx(want, abs=1e-10)

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainequiv.crf import (
    GENERALIZED,
    STRICT,
    CrfModel,
    DegenerateModel,
    crf_posterior_marginals,
    default_alphabets,
    random_crf_model,
)
from chainequiv import equivalence
from chainequiv.equivalence import (
    build_beta,
    build_phi,
    build_psi,
    crf_to_hmc,
    crf_to_hmc_generalized,
    hmc_to_crf,
)
from chainequiv.hmc import HmcModel, hmc_log_evidence, hmc_log_joint, hmc_posterior_marginals
from chainequiv.oracle import (
    all_sequences,
    compare_posteriors,
    enumerate_crf_posterior,
    enumerate_hmc_posterior,
)
from chainequiv.tables import LOG_ZERO, Table1, Table2, ValidationError, _normalized_rows, log_sum_exp

from conftest import (
    brute_crf_posterior,
    brute_hmc_posterior,
    label_space,
    log_ratio_bound,
    naive_crf_score,
    naive_hmc_log_joint,
)


def model_of(pair_arrays, emit_arrays, mode="strict"):
    k = len(emit_arrays[0])
    l = len(emit_arrays[0][0])
    hidden, obs = default_alphabets(k, l)
    return CrfModel(hidden, obs,
                    tuple(Table2(a) for a in pair_arrays),
                    tuple(Table2(a) for a in emit_arrays), mode=mode)


def symmetric_two_step():
    # length 2, two labels, one observation symbol, all potentials zero
    return model_of([np.zeros((2, 2))], [np.zeros((2, 1)), np.zeros((2, 1))])


class TestBuildPsi:
    def test_single_observation_symbol(self):
        psi = build_psi(symmetric_two_step())
        for row in psi:
            np.testing.assert_allclose(row.log_values, 0.0, atol=1e-15)

    def test_hand_evaluated_sum(self):
        # sum of exp over the row (ln 1, ln 3) is 4
        m = model_of([], [np.array([[math.log(1), math.log(3)], [0.0, 0.0]])])
        psi = build_psi(m)
        assert psi[0][0] == pytest.approx(math.log(4), abs=1e-12)
        assert psi[0][1] == pytest.approx(math.log(2), abs=1e-12)

    def test_constant_row_identity(self):
        c = -2.75
        m = model_of([], [np.full((2, 3), c)])
        psi = build_psi(m)
        np.testing.assert_allclose(psi[0].log_values, c + math.log(3), atol=1e-12)


class TestBuildPhi:
    def test_all_zero(self):
        m = symmetric_two_step()
        phi = build_phi(m, build_psi(m))
        np.testing.assert_allclose(phi[0].log_values, 0.0, atol=1e-15)

    def test_single_obs_symbol_collapses_to_pairwise(self):
        v = np.array([[1.0, -2.0], [0.5, 3.0]])
        m = model_of([v], [np.zeros((2, 1)), np.zeros((2, 1))])
        phi = build_phi(m, build_psi(m))
        np.testing.assert_allclose(phi[0].log_values, v, atol=1e-15)

    def test_cells_match_defining_sum(self):
        m = random_crf_model(4, 3, 2, seed=3)
        psi = build_psi(m)
        phi = build_phi(m, psi)
        for i in range(3):
            for a in range(3):
                for b in range(3):
                    want = m.pair_potentials[i][a, b] + psi[i + 1][b]
                    if i == 0:
                        want += psi[0][a]
                    assert phi[i][a, b] == pytest.approx(want, abs=1e-12)


def paper_beta(phi) -> Table2:
    """The unshifted beta: build_beta's rows plus the suffix sums of its per-position shifts."""
    rows, shifts = build_beta(phi)
    return Table2(rows + np.cumsum(shifts[::-1])[::-1, None])


class TestBuildBeta:
    def test_unit_factors(self):
        m = symmetric_two_step()
        beta = paper_beta(build_phi(m, build_psi(m)))
        np.testing.assert_allclose(beta[1].log_values, 0.0, atol=1e-15)
        np.testing.assert_allclose(beta[0].log_values, math.log(2), atol=1e-15)

    def test_length_one_base_case(self):
        beta = paper_beta(np.empty((0, 3, 3)))
        assert len(beta) == 1
        np.testing.assert_allclose(beta[0].log_values, 0.0)

    @pytest.mark.parametrize("phi", [(), np.zeros((2, 2)), np.zeros((1, 2, 2, 2)), np.zeros((1, 2, 3))],
                             ids=["empty", "2d", "4d", "not-square"])
    def test_phi_must_be_a_stack_of_tables(self, phi):
        with pytest.raises(ValidationError):
            build_beta(phi)

    @pytest.mark.parametrize("length", [1, 2, 2000])
    @pytest.mark.parametrize("scale", [5.0, 500.0, 1e4])
    @pytest.mark.parametrize("mode", [STRICT, GENERALIZED])
    def test_rows_and_shifts_are_those_of_a_log_sum_exp_loop(self, mode, scale, length):
        for seed in range(3):
            m = random_crf_model(length, 16 if length > 2 else 4, 3, seed, mode=mode, low=-scale, high=scale)
            phi = build_phi(m, build_psi(m)).log_values
            rows, shifts = build_beta(phi)
            want_rows, want_shifts = np.zeros_like(rows), np.zeros_like(shifts)
            for n in range(length - 2, -1, -1):
                row = log_sum_exp(phi[n] + want_rows[n + 1], axis=1)
                want_shifts[n] = row.max() if np.isfinite(row.max()) else 0.0
                want_rows[n] = row - want_shifts[n]
            assert np.array_equal(rows.view(np.uint64), want_rows.view(np.uint64))
            assert np.array_equal(shifts.view(np.uint64), want_shifts.view(np.uint64))

    def test_matches_suffix_path_enumeration(self):
        m = random_crf_model(4, 3, 2, seed=41)
        phi = build_phi(m, build_psi(m))
        beta = paper_beta(phi)
        for n in range(4):
            for x in range(3):
                if n == 3:
                    want = 0.0
                else:
                    terms = []
                    for suffix in itertools.product(range(3), repeat=3 - n):
                        path = (x,) + suffix
                        terms.append(math.exp(math.fsum(
                            phi[n + i][path[i], path[i + 1]] for i in range(len(suffix)))))
                    want = math.log(math.fsum(terms))
                assert beta[n][x] == pytest.approx(want, abs=1e-10)


class TestConstruction:
    def test_fully_symmetric_model(self):
        hmc, trace = crf_to_hmc(symmetric_two_step())
        np.testing.assert_allclose(hmc.init.probabilities(), [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(hmc.transitions[0].probabilities(), 0.5, atol=1e-12)
        np.testing.assert_allclose(hmc.emissions[0].probabilities(), 1.0, atol=1e-12)
        np.testing.assert_allclose(trace.beta[0].probabilities(), [2.0, 2.0], atol=1e-12)

    def test_emission_row_hand_case(self):
        # emission potentials (ln 1, ln 3) normalize to the row (1/4, 3/4)
        m = model_of([], [np.array([[math.log(1), math.log(3)], [0.0, 0.0]])])
        hmc, _ = crf_to_hmc(m)
        np.testing.assert_allclose(hmc.emissions[0].probabilities()[0], [0.25, 0.75], atol=1e-12)

    def test_last_beta_is_all_ones(self):
        m = random_crf_model(5, 3, 2, seed=1)
        _, trace = crf_to_hmc(m)
        assert (trace.beta[-1].log_values == 0.0).all()

    def test_posteriors_agree_with_oracle_everywhere(self):
        m = random_crf_model(5, 3, 2, seed=99)
        hmc, _ = crf_to_hmc(m)
        for y in itertools.product(range(2), repeat=5):
            report = compare_posteriors(enumerate_crf_posterior(m, y),
                                         enumerate_hmc_posterior(hmc, y))
            assert report.max_abs_diff <= 1e-10

    def test_posterior_agrees_with_independent_brute_force(self):
        m = random_crf_model(4, 2, 3, seed=15)
        hmc, _ = crf_to_hmc(m)
        y = (2, 0, 1, 1)
        want, _ = brute_crf_posterior(m, y)
        for x, p in want.items():
            got = math.exp(hmc_log_joint(hmc, x, y) - hmc_log_evidence(hmc, y))
            assert got == pytest.approx(p, abs=1e-12)

    def test_length_one_construction(self):
        m = model_of([], [np.array([[math.log(1), math.log(3)], [math.log(2), math.log(2)]])])
        hmc, trace = crf_to_hmc(m)
        assert trace.phi.shape == (0, 2, 2)
        assert (trace.beta.log_values == 0.0).all() and trace.beta.shape == (1, 2)
        # init proportional to the per-state emission totals (4, 4)
        np.testing.assert_allclose(hmc.init.probabilities(), [0.5, 0.5], atol=1e-12)
        for y in ((0,), (1,)):
            a = crf_posterior_marginals(m, y).probabilities()
            b = hmc_posterior_marginals(hmc, y).probabilities()
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_generalized_entry_point_is_crf_to_hmc(self):
        # crf_to_hmc converts both modes; TestGeneralizedMode runs it on generalized models.
        assert crf_to_hmc_generalized is crf_to_hmc

    def test_trace_beta_recomputable_from_phi(self):
        m = random_crf_model(6, 4, 3, seed=7)
        _, trace = crf_to_hmc(m)
        again = paper_beta(trace.phi)
        for a, b in zip(trace.beta, again):
            assert np.abs(a.log_values - b.log_values).max() <= 1e-12

    def test_constructed_rows_sum_to_one_before_renormalization(self):
        m = random_crf_model(6, 4, 3, seed=29)
        _, trace = crf_to_hmc(m)
        for step in range(5):
            raw = (trace.phi[step].log_values
                   + trace.beta[step + 1].log_values[None, :]
                   - trace.beta[step].log_values[:, None])
            np.testing.assert_allclose(np.exp(raw).sum(axis=1), 1.0, atol=1e-9)
        psi = trace.psi
        for pos in range(6):
            raw = m.emit_potentials[pos].log_values - psi[pos].log_values[:, None]
            np.testing.assert_allclose(np.exp(raw).sum(axis=1), 1.0, atol=1e-9)

    def test_shift_covariance_of_emissions(self):
        # adding a constant to one emission table leaves its conditional
        # rows untouched and the posterior unchanged
        m = random_crf_model(4, 3, 2, seed=55)
        emit = list(m.emit_potentials)
        emit[2] = Table2(emit[2].log_values + 3.7)
        shifted = CrfModel(m.hidden, m.obs, m.pair_potentials, tuple(emit))
        a, _ = crf_to_hmc(m)
        b, _ = crf_to_hmc(shifted)
        np.testing.assert_allclose(a.emissions[2].log_values, b.emissions[2].log_values,
                                   atol=1e-12)
        for y in itertools.product(range(2), repeat=4):
            pa = hmc_posterior_marginals(a, y).probabilities()
            pb = hmc_posterior_marginals(b, y).probabilities()
            np.testing.assert_allclose(pa, pb, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 5), st.integers(2, 4), st.integers(2, 3))
    def test_equivalence_property(self, seed, n, k, l):
        m = random_crf_model(n, k, l, seed=seed)
        hmc, _ = crf_to_hmc(m)
        rng = np.random.default_rng(seed)
        y = tuple(rng.integers(0, l, n))
        a = crf_posterior_marginals(m, y).probabilities()
        b = hmc_posterior_marginals(hmc, y).probabilities()
        assert np.abs(a - b).max() <= 1e-9


class TestExactConstruction:
    """The constructed HMC has the CRF's posterior over whole labelings, at every length and scale."""

    def test_bound_covers_the_enumerated_log_ratios(self):
        """Against an HMC built from perturbed potentials, the worst log ratio lies in [bound/2, bound]."""
        rng = np.random.default_rng(2024)
        for seed in range(30):
            n, k, l = 1 + seed % 4, 2 + seed % 2, 2
            m = random_crf_model(n, k, l, seed=seed)
            noisy = CrfModel(m.hidden, m.obs,
                             m.pair_potentials.log_values + rng.normal(0, 0.01, (n - 1, k, k)),
                             m.emit_potentials.log_values + rng.normal(0, 0.01, (n, k, l)))
            hmc, _ = crf_to_hmc(noisy)
            worst = 0.0
            for y in itertools.product(range(l), repeat=n):
                _, log_z = brute_crf_posterior(m, y)
                _, log_evidence = brute_hmc_posterior(hmc, y)
                for x in label_space(k, n):
                    ratio = ((naive_hmc_log_joint(hmc, x, y) - log_evidence)
                             - (naive_crf_score(m, x, y) - log_z))
                    worst = max(worst, abs(ratio))
            bound = log_ratio_bound(m, hmc)
            assert bound / 2 - 1e-12 <= worst <= bound + 1e-12, (seed, worst, bound)

    @pytest.mark.parametrize("n, k, l, scale", [(2000, 16, 8, 5), (2000, 16, 8, 50), (200, 4, 3, 500),
                                                (20000, 4, 3, 5)])
    def test_long_chains_and_large_potentials(self, n, k, l, scale):
        m = random_crf_model(n, k, l, seed=0, low=-scale, high=scale)
        hmc, _ = crf_to_hmc(m)
        assert log_ratio_bound(m, hmc) <= 1e-10

    def test_hmc_model_moves_no_constructed_row(self):
        """Building the HMC again from copies of its rows keeps every row bit for bit, in both modes."""
        checked = 0
        for mode in (STRICT, GENERALIZED):
            for seed in range(300):
                try:
                    hmc, _ = crf_to_hmc(random_crf_model(6, 4, 3, seed=seed, mode=mode))
                except DegenerateModel:
                    continue
                assert_same_tables(hmc, rebuilt(hmc))
                checked += 1
        assert checked >= 550

    @pytest.mark.parametrize("mode", [STRICT, GENERALIZED])
    @pytest.mark.parametrize("n, k, l, scale", [(2000, 16, 8, 5), (2000, 16, 8, 50), (200, 4, 3, 500),
                                                (200, 4, 3, 1e4)])
    def test_hand_off_equals_the_constructor_on_long_and_wide_models(self, n, k, l, scale, mode):
        hmc, _ = crf_to_hmc(random_crf_model(n, k, l, seed=0, mode=mode, low=-scale, high=scale))
        assert_same_tables(hmc, rebuilt(hmc))

    @pytest.mark.parametrize("bad", ["nan", "+inf", "off by 1e-6"])
    @pytest.mark.parametrize("call, field", [(0, "init"), (1, r"transitions\[0\] row 0"),
                                             (2, r"emissions\[0\] row 0")],
                             ids=["init", "transitions", "emissions"])
    def test_hand_off_checks_every_row(self, monkeypatch, call, field, bad):
        """A NaN, a +inf or a row sum off by 1e-6 in any row _normalized_rows hands over raises ValidationError."""
        calls = []

        def spoiled(a):
            rows, dead, log_sums = _normalized_rows(a)
            if len(calls) == call:
                rows = np.array(rows)
                first = rows.reshape(-1, rows.shape[-1])[0]
                if bad == "off by 1e-6":
                    first += math.log1p(1e-6)
                else:
                    first[0] = float(bad)
            calls.append(a)
            return rows, dead, log_sums

        monkeypatch.setattr(equivalence, "_normalized_rows", spoiled)
        for mode in (STRICT, GENERALIZED):
            with pytest.raises(ValidationError, match=f"^{field} sums to"):
                crf_to_hmc(random_crf_model(4, 3, 2, seed=5, mode=mode))
            calls.clear()

    def test_hand_off_keeps_read_only_rows_and_the_constructor_copies(self):
        hmc, _ = crf_to_hmc(random_crf_model(5, 3, 2, seed=3))
        handed = [getattr(hmc, name).log_values for name in ("init", "transitions", "emissions")]
        assert not any(a.flags.writeable for a in handed)
        init, trans, emit = (np.array(a) for a in handed)
        again = HmcModel(hmc.hidden, hmc.obs, Table1(init), trans, emit)
        for name, given in zip(("transitions", "emissions"), (trans, emit)):
            kept = getattr(again, name).log_values
            assert not np.shares_memory(kept, given) and not kept.flags.writeable
            given[0, 0, 0] = 0.5  # the caller's array changes, the model does not
            assert kept[0, 0, 0] != 0.5
        assert_same_tables(hmc, again)


def rebuilt(hmc: HmcModel) -> HmcModel:
    """The HMC built again by the public constructor from copies of its tables."""
    return HmcModel(hmc.hidden, hmc.obs, Table1(hmc.init.log_values),
                    np.array(hmc.transitions.log_values), np.array(hmc.emissions.log_values))


def assert_same_tables(a: HmcModel, b: HmcModel):
    """The init, transition and emission tables of two HMCs are equal bit for bit."""
    for name in ("init", "transitions", "emissions"):
        x, y = (np.ascontiguousarray(getattr(m, name).log_values) for m in (a, b))
        assert x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64)), name


class TestGeneralizedMode:
    def test_zero_pair_weight_forces_zero_transition(self):
        v = np.zeros((2, 2))
        v[0, 1] = LOG_ZERO
        m = model_of([v], [np.zeros((2, 1)), np.zeros((2, 1))], mode="generalized")
        hmc, _ = crf_to_hmc(m)
        assert hmc.transitions[0][0, 1] == LOG_ZERO
        assert hmc.transitions[0].probabilities()[0, 1] == 0.0

    def test_forbidden_symbol_gives_zero_evidence(self):
        u = np.array([[0.0, LOG_ZERO], [0.0, LOG_ZERO]])
        m = model_of([np.zeros((2, 2))], [u, u], mode="generalized")
        hmc, _ = crf_to_hmc(m)
        assert hmc_log_evidence(hmc, (0, 1)) == LOG_ZERO
        assert hmc_log_evidence(hmc, (0, 0)) > LOG_ZERO

    def test_sparse_seeded_equivalence(self):
        checked = 0
        for seed in range(12):
            m = random_crf_model(4, 3, 2, seed=seed, mode="generalized")
            try:
                hmc, _ = crf_to_hmc(m)
            except DegenerateModel:
                continue
            for y in itertools.product(range(2), repeat=4):
                try:
                    a = enumerate_crf_posterior(m, y)
                except DegenerateModel:
                    continue
                b = enumerate_hmc_posterior(hmc, y)
                assert compare_posteriors(a, b).max_abs_diff <= 1e-10
                checked += 1
        assert checked > 50

    def test_zero_weight_sequences_have_exactly_zero_joint(self):
        for seed in (0, 3, 9):
            m = random_crf_model(3, 3, 2, seed=seed, mode="generalized")
            try:
                hmc, _ = crf_to_hmc(m)
            except DegenerateModel:
                continue
            for y in itertools.product(range(2), repeat=3):
                for x in label_space(3, 3):
                    if naive_crf_score(m, x, y) == LOG_ZERO:
                        assert hmc_log_joint(hmc, x, y) == LOG_ZERO

    def test_unreachable_state_gets_placebo_row(self):
        # state 1 at position 1 is a dead end: every outgoing weight is zero
        v0 = np.zeros((2, 2))
        v1 = np.array([[0.0, 0.0], [LOG_ZERO, LOG_ZERO]])
        m = model_of([v0, v1],
                     [np.zeros((2, 2))] * 3, mode="generalized")
        hmc, trace = crf_to_hmc(m)
        assert trace.beta[1][1] == LOG_ZERO
        assert trace.unreachable == (frozenset(), frozenset({1}), frozenset())
        assert (hmc.transitions[1].log_values[1] == -math.log(2)).all()
        # the placebo never matters: no mass ever enters the dead state
        assert hmc.init[1] == LOG_ZERO or hmc.transitions[0][0, 1] == LOG_ZERO
        for y in itertools.product(range(2), repeat=3):
            pm = hmc_posterior_marginals(hmc, y).probabilities()
            assert pm[1, 1] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_unreachable_sets_match_a_per_position_loop(self, seed):
        rng = np.random.default_rng(seed)
        n, k, l = 30, 4, 2
        pairs = np.where(rng.random((n - 1, k, k)) < 0.3, LOG_ZERO, rng.normal(size=(n - 1, k, k)))
        emits = np.where(rng.random((n, k, l)) < 0.3, LOG_ZERO, rng.normal(size=(n, k, l)))
        _, trace = crf_to_hmc(model_of(pairs, emits, mode="generalized"))
        want = []
        for pos in range(n):
            dead = {x for x in range(k) if (emits[pos][x] == LOG_ZERO).all()}
            if pos < n - 1:
                mass = trace.phi.log_values[pos] + trace.beta.log_values[pos + 1]
                dead |= {x for x in range(k) if (mass[x] == LOG_ZERO).all()}
            want.append(frozenset(dead))
        assert trace.unreachable == tuple(want)
        assert sum(map(len, want)) > 0
        assert all(type(x) is int for u in trace.unreachable for x in u)

    def test_fully_degenerate_model_raises(self):
        u = np.full((2, 2), LOG_ZERO)
        m = model_of([], [u], mode="generalized")
        with pytest.raises(DegenerateModel):
            crf_to_hmc(m)

    def test_strict_models_also_accepted(self):
        m = random_crf_model(3, 2, 2, seed=5, mode="strict")
        hmc, _ = crf_to_hmc(m)
        y = (0, 1, 0)
        np.testing.assert_allclose(crf_posterior_marginals(m, y).probabilities(),
                                   hmc_posterior_marginals(hmc, y).probabilities(),
                                   atol=1e-10)


class TestHmcToCrf:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 5), st.integers(2, 4), st.integers(1, 3),
           st.sampled_from([STRICT, GENERALIZED]))
    def test_crf_hmc_crf_hmc_round_trip(self, seed, n, k, l, mode):
        m = random_crf_model(n, k, l, seed=seed, mode=mode)
        try:
            first, first_trace = crf_to_hmc(m)
        except DegenerateModel:
            assume(False)
        back = hmc_to_crf(first)
        finite = all(np.isfinite(t.log_values).all()
                     for t in (first.init, first.transitions, first.emissions))
        assert back.mode == (STRICT if finite else GENERALIZED)
        second, second_trace = crf_to_hmc(back)

        y = tuple(int(v) for v in np.random.default_rng(seed).integers(0, l, n))
        try:
            want, _ = brute_crf_posterior(m, y)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                brute_crf_posterior(back, y)
            return
        for got, _ in (brute_crf_posterior(back, y), brute_hmc_posterior(second, y)):
            assert max(abs(got[x] - p) for x, p in want.items()) <= 1e-10

        np.testing.assert_allclose(second.init.probabilities(), first.init.probabilities(),
                                   rtol=0, atol=1e-12)
        for pos in range(n):
            live = [x for x in range(k) if x not in first_trace.unreachable[pos]
                    and x not in second_trace.unreachable[pos]]
            pairs = ((first.emissions, second.emissions),)
            if pos < n - 1:
                pairs += ((first.transitions, second.transitions),)
            for a, b in pairs:
                np.testing.assert_allclose(b[pos].probabilities()[live],
                                           a[pos].probabilities()[live], rtol=0, atol=1e-12)

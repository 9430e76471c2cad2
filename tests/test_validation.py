"""Every entry point that takes label or observation indices rejects malformed ones.

Length errors raise ``LengthMismatch``; everything else raises
``ValidationError`` (its base class), never a bare numpy or Python error and
never a silently wrong answer.
"""

import math

import numpy as np
import pytest

from chainequiv.crf import (
    crf_log_normalizer,
    crf_log_score,
    crf_posterior_marginals,
    crf_posterior_marginals_batch,
    random_crf_model,
)
from chainequiv.equivalence import build_phi, build_psi, crf_to_hmc
from chainequiv.hmc import (
    hmc_log_evidence,
    hmc_log_joint,
    hmc_posterior_marginals,
    hmc_posterior_marginals_batch,
)
from chainequiv.oracle import (
    EnumeratedPosterior,
    enumerate_crf_posterior,
    enumerate_crf_posterior_batch,
    enumerate_hmc_posterior,
    enumerate_hmc_posterior_batch,
    posterior_matrix_marginals,
    ShapeMismatch,
)
from chainequiv.tables import (
    LengthMismatch,
    PosteriorMarginals,
    Table2,
    ValidationError,
    log_sum_exp,
    normalize_rows,
)

# Length 3, three labels, three observation symbols: index 3 is out of range
# for both alphabets.
CRF = random_crf_model(3, 3, 3, seed=0)
HMC, _ = crf_to_hmc(CRF)
GOOD = (0, 1, 2)

# Each entry point takes (sequence, batch) and feeds the one it accepts.
ENTRY_POINTS = {
    "crf_posterior_marginals": lambda s, b: crf_posterior_marginals(CRF, s),
    "hmc_posterior_marginals": lambda s, b: hmc_posterior_marginals(HMC, s),
    "crf_posterior_marginals_batch": lambda s, b: crf_posterior_marginals_batch(CRF, b),
    "hmc_posterior_marginals_batch": lambda s, b: hmc_posterior_marginals_batch(HMC, b),
    "crf_log_normalizer": lambda s, b: crf_log_normalizer(CRF, s),
    "hmc_log_evidence": lambda s, b: hmc_log_evidence(HMC, s),
    "crf_log_score_labels": lambda s, b: crf_log_score(CRF, s, GOOD),
    "crf_log_score_obs": lambda s, b: crf_log_score(CRF, GOOD, s),
    "hmc_log_joint_labels": lambda s, b: hmc_log_joint(HMC, s, GOOD),
    "hmc_log_joint_obs": lambda s, b: hmc_log_joint(HMC, GOOD, s),
    "enumerate_crf_posterior": lambda s, b: enumerate_crf_posterior(CRF, s),
    "enumerate_hmc_posterior": lambda s, b: enumerate_hmc_posterior(HMC, s),
    "enumerate_crf_posterior_batch": lambda s, b: enumerate_crf_posterior_batch(CRF, b),
    "enumerate_hmc_posterior_batch": lambda s, b: enumerate_hmc_posterior_batch(HMC, b),
    "EnumeratedPosterior.probability":
        lambda s, b: enumerate_crf_posterior(CRF, GOOD).probability(s),
}

# (sequence form, batch form, expected error)
MALFORMED = {
    "negative": ((0, -1, 1), [(0, -1, 1)], ValidationError),
    "too_large": ((0, 3, 1), [(0, 3, 1)], ValidationError),
    "too_long": ((0, 1, 0, 1), [(0, 1, 0, 1)], LengthMismatch),
    "too_short": ((0, 1), [(0, 1)], LengthMismatch),
    "ragged": ([(0, 1, 0), (0, 1)], [(0, 1, 0), (0, 1)], ValidationError),
    "fractional": ((0, 0.5, 1), [(0, 0.5, 1)], ValidationError),
    "string": ("010", ["010"], ValidationError),
}


@pytest.mark.parametrize("bad", MALFORMED.values(), ids=MALFORMED.keys())
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_malformed_indices_raise_typed_errors(call, bad):
    seq, batch, error = bad
    with pytest.raises(error):
        call(seq, batch)


def returned_values(out) -> list:
    """The numbers an entry point returned, as a list of arrays."""
    if isinstance(out, tuple):
        return [np.asarray(o) for o in out]
    if isinstance(out, PosteriorMarginals):
        return [out.probabilities()]
    if isinstance(out, EnumeratedPosterior):
        return [out.probabilities]
    return [np.asarray(out)]


@pytest.mark.parametrize("form, plain", [
    (np.array([0, 1, 2], dtype=np.int32), (0, 1, 2)),
    (np.array([0.0, 1.0, 2.0]), (0, 1, 2)),
    (np.array([False, True, True]), (0, 1, 1)),
    ((np.False_, 1.0, np.int8(2)), (0, 1, 2)),
], ids=["int32", "float", "bool", "mixed"])
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_integral_indices_of_any_numeric_dtype_are_accepted(call, form, plain):
    got = returned_values(call(form, [form]))
    want = returned_values(call(plain, [plain]))
    for g, w in zip(got, want, strict=True):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("kwargs", [
    {"low": 1.0, "high": -1.0},
    {"high": math.inf},
    {"low": -math.inf},
    {"low": math.nan},
    {"high": math.nan},
    {"zero_prob": 2.0},
    {"zero_prob": -0.5},
    {"zero_prob": math.nan},
], ids=["low>high", "high=inf", "low=-inf", "low=nan", "high=nan", "zero_prob=2", "zero_prob<0", "zero_prob=nan"])
@pytest.mark.parametrize("mode", ["strict", "generalized"])
def test_random_crf_model_rejects_bad_ranges(kwargs, mode):
    with pytest.raises(ValidationError, match="low and high|zero_prob"):
        random_crf_model(3, 2, 2, seed=0, mode=mode, **kwargs)


@pytest.mark.parametrize("kwargs", [{"low": 2.0, "high": 2.0}, {"zero_prob": 0.0}, {"zero_prob": 1.0}],
                         ids=["low=high", "zero_prob=0", "zero_prob=1"])
def test_random_crf_model_accepts_edge_ranges(kwargs):
    model = random_crf_model(3, 2, 2, seed=0, mode="generalized", **kwargs)
    assert model.length == 3


@pytest.mark.parametrize("shape", [(1, 9), (1, 4), (2, 4), ()], ids=["wide", "narrow", "two-half-rows", "scalar"])
def test_posterior_matrix_marginals_rejects_wrong_row_widths(shape):
    with pytest.raises(ShapeMismatch, match="2\\^3 = 8 entries"):
        posterior_matrix_marginals(np.ones(shape), 2, 3)


def test_posterior_matrix_marginals_sums_rows_as_given():
    """An unnormalized row gives unnormalized "marginals": 8 ones at size 2 and length 3 give 4s."""
    np.testing.assert_array_equal(posterior_matrix_marginals(np.ones((1, 8)), 2, 3), np.full((1, 3, 2), 4.0))


# The numeric helpers on malformed arrays: (call, the input its message names).
MALFORMED_ARRAYS = {
    "normalize_rows-0d": (lambda: normalize_rows(np.float64(0.0)), "normalize_rows"),
    "normalize_rows-zero-width": (lambda: normalize_rows(np.zeros((2, 0))), "normalize_rows"),
    "normalize_rows-strings": (lambda: normalize_rows([["a", "b"]]), "normalize_rows"),
    "normalize_rows-nan": (lambda: normalize_rows([[math.nan, 0.0]]), "normalize_rows"),
    "normalize_rows-inf": (lambda: normalize_rows([[math.inf, 0.0]]), "normalize_rows"),
    "log_sum_exp-axis": (lambda: log_sum_exp(np.zeros((2, 3)), axis=2), "log_sum_exp"),
    "log_sum_exp-negative-axis": (lambda: log_sum_exp(np.zeros((2, 3)), axis=-3), "log_sum_exp"),
    "log_sum_exp-strings": (lambda: log_sum_exp(["a", "b"]), "log_sum_exp"),
    "log_sum_exp-strings-axis": (lambda: log_sum_exp([["a", "b"]], axis=1), "log_sum_exp"),
    "build_phi-psi-rows": (lambda: build_phi(CRF, Table2(np.zeros((2, 3)))), "psi"),
    "build_phi-psi-width": (lambda: build_phi(CRF, Table2(np.zeros((3, 1)))), "psi"),  # it would broadcast
    "build_phi-psi-transposed": (lambda: build_phi(random_crf_model(3, 2, 2, seed=0),
                                                   Table2(np.zeros((2, 3)))), "psi"),
}


@pytest.mark.parametrize("call, what", MALFORMED_ARRAYS.values(), ids=MALFORMED_ARRAYS.keys())
def test_numeric_helpers_raise_typed_errors(call, what):
    with pytest.raises(ValidationError, match=f"^{what}"):
        call()


def test_build_phi_accepts_the_psi_of_its_model():
    assert build_phi(CRF, build_psi(CRF)).shape == (2, 3, 3)

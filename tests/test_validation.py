"""Every entry point that takes label or observation indices rejects malformed ones.

Length errors raise ``LengthMismatch``; everything else raises
``ValidationError`` (its base class), never a bare numpy or Python error and
never a silently wrong answer.
"""

import numpy as np
import pytest

from chainequiv.crf import (
    crf_log_normalizer,
    crf_log_score,
    crf_posterior_marginals,
    crf_posterior_marginals_batch,
    random_crf_model,
)
from chainequiv.equivalence import crf_to_hmc
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
)
from chainequiv.tables import LengthMismatch, PosteriorMarginals, ValidationError

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

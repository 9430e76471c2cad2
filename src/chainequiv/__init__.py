"""Linear-chain CRFs, hidden Markov chains, and the exact conversion between them.

Every linear-chain CRF over finite alphabets is the posterior of some hidden
Markov chain; :func:`crf_to_hmc` constructs that chain explicitly, for strict
and generalized (zero-weight) models alike, and the :mod:`~chainequiv.oracle`
module certifies the equality by brute-force enumeration on small instances.
"""

from .tables import (
    LOG_ZERO,
    Alphabet,
    LabelSeq,
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
from .crf import (
    CrfModel,
    DegenerateModel,
    ScoreOverflow,
    crf_log_normalizer,
    crf_log_score,
    crf_mpm_decode,
    crf_posterior_marginals,
    crf_posterior_marginals_batch,
    random_crf_model,
)
from .hmc import (
    HmcModel,
    ImpossibleObservation,
    hmc_log_evidence,
    hmc_log_joint,
    hmc_mpm_decode,
    hmc_posterior_marginals,
    hmc_posterior_marginals_batch,
)
from .equivalence import (
    ConstructionTrace,
    build_beta,
    build_phi,
    build_psi,
    crf_to_hmc,
    crf_to_hmc_generalized,
    hmc_to_crf,
)
from .oracle import (
    BudgetExceeded,
    EnumeratedPosterior,
    PosteriorComparison,
    ShapeMismatch,
    all_sequences,
    compare_posteriors,
    enumerate_crf_posterior,
    enumerate_crf_posterior_batch,
    enumerate_hmc_posterior,
    enumerate_hmc_posterior_batch,
    posterior_matrix_marginals,
)

__version__ = "0.1.0"

"""Hidden Markov chains with time-indexed transitions and emissions.

The joint probability of labels ``x`` and observations ``y`` factorizes as

    init(x_1) emit[1](y_1 | x_1) * prod_{n>=2} trans[n](x_n | x_{n-1}) emit[n](y_n | x_n)

All rows are stored as log-probabilities.  Transitions and emissions are
time-indexed because the CRF-to-HMC construction produces genuinely
time-varying rows; a stationary chain is the special case of tiling one
table pair.
"""

from dataclasses import dataclass

import numpy as np

from .tables import (
    LOG_ZERO,
    Alphabet,
    LabelSeq,
    PosteriorMarginals,
    Table1,
    Table2,
    Table3,
    ValidationError,
    _normalized_rows,
    chain_log_marginals,
    chain_log_totals,
    chain_parts,
    check_chain_shapes,
    distinct_tables,
    log_of_probabilities,
    path_log_weight,
    tiled,
)

# Not called in this module: perfbench/tracing.py counts calls under this name.
from .tables import log_sum_exp  # noqa: F401

ROW_SUM_TOL = 1e-9
ZERO_EVIDENCE = "observation sequence has probability zero under the model"


class ImpossibleObservation(ValueError):
    """The observation sequence has probability zero under the model."""


def _check_stochastic(log_rows: np.ndarray, log_sums: np.ndarray, what: str):
    """Check that the rows of a stack of tables, or of the init row, sum to one.

    ``log_sums`` holds the log of each row's sum, as the normalizer computed
    it.  When every one is within half the tolerance of zero, the rows pass
    on that alone; otherwise they are summed here, so a failure names the
    first table with a row off, and its worst row, by their direct sums.
    """
    if (np.abs(log_sums) <= ROW_SUM_TOL / 2).all():
        return
    sums = np.atleast_2d(np.exp(log_rows).sum(axis=-1))
    off = np.abs(sums - 1.0)
    bad = (off > ROW_SUM_TOL).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        row = int(np.argmax(off[i]))
        label = what if log_rows.ndim == 1 else f"{what}[{i}] row {row}"
        raise ValidationError(
            f"{label} sums to {sums[i, row]:.12g}, expected 1 within {ROW_SUM_TOL}"
        )


def _renormalized(table, what: str):
    """Normalize the rows of the init row or of a stack, after checking them; a tiled stack stays tiled."""
    a = distinct_tables(table.log_values)
    out, _, log_sums = _normalized_rows(a)
    _check_stochastic(a, log_sums, what)
    return table if out is a else type(table)._view(np.broadcast_to(out, table.shape))


@dataclass(frozen=True, eq=False)
class HmcModel:
    """A hidden Markov chain over finite alphabets.

    Parameters
    ----------
    hidden, obs : Alphabet
        Label and observation alphabets.
    init : Table1
        Log-probabilities of the first label.
    transitions : Table3
        ``length - 1`` stacked row-stochastic tables over (hidden x hidden).
    emissions : Table3
        ``length`` stacked row-stochastic tables over (hidden x obs).

    The constructor takes each stack as a Table3, an array-like or a
    sequence of Table2.  Rows must sum to one within ``1e-9`` (probability
    domain) and are then normalized by ``tables.normalize_rows``, which
    keeps a row it has normalized before bit for bit: a model built from
    another model's tables, as ``homogeneous`` builds one from a model's
    first tables, has the same rows.
    """

    hidden: Alphabet
    obs: Alphabet
    init: Table1
    transitions: Table3
    emissions: Table3

    def __post_init__(self):
        names = ("transitions", "emissions")
        stacks = check_chain_shapes(self.transitions, self.emissions, self.hidden.size,
                                    self.obs.size, names)
        if len(self.init) != self.hidden.size:
            raise ValidationError(f"init has size {len(self.init)}, expected {self.hidden.size}")

        for name, table in zip(("init", *names), (self.init, *stacks)):
            object.__setattr__(self, name, _renormalized(table, name))

    @property
    def length(self) -> int:
        return len(self.emissions)

    @classmethod
    def from_probabilities(cls, hidden: Alphabet, obs: Alphabet, init, transitions,
                           emissions) -> "HmcModel":
        """Build from probability-domain rows (zeros become -inf internally)."""
        return cls(hidden, obs, Table1.from_probabilities(init),
                   log_of_probabilities(transitions, "transitions"),
                   log_of_probabilities(emissions, "emissions"))

    @classmethod
    def homogeneous(cls, hidden: Alphabet, obs: Alphabet, length: int, init: Table1,
                    trans: Table2, emit: Table2) -> "HmcModel":
        """Tile one (transition, emission) pair into a stationary chain, as stride-0 views."""
        if length < 1:
            raise ValidationError("length must be >= 1")
        return cls(hidden, obs, init, tiled(trans, length - 1), tiled(emit, length))


def _factors(model: HmcModel):
    """The HMC as CRF factors: its stacked log transition and log emission tables.

    ``log init`` is folded into emission 0, so this is the only code that
    knows an HMC has a start term.
    """
    emits = np.array(model.emissions.log_values)
    emits[0] += model.init.log_values[:, None]
    return model.transitions.log_values, emits


def hmc_log_joint(model: HmcModel, x, y) -> float:
    """Log joint probability of the labeling ``x`` and observations ``y``.

    ``-inf`` whenever any factor in the chain is zero.
    """
    return path_log_weight(*_factors(model), x, y)


def hmc_log_evidence(model: HmcModel, y) -> float:
    """Log marginal probability of the observations (``-inf`` is allowed)."""
    return float(chain_log_totals(*chain_parts(*_factors(model), [y]))[0])


def hmc_posterior_marginals(model: HmcModel, y) -> PosteriorMarginals:
    """Posterior distribution of the label at each position, by forward-backward.

    Raises :class:`ImpossibleObservation` when the observations have
    probability zero (conditioning on them would be undefined).
    """
    totals, log_marginals = chain_log_marginals(*chain_parts(*_factors(model), [y]))
    if totals[0] == LOG_ZERO:
        raise ImpossibleObservation(ZERO_EVIDENCE)
    return PosteriorMarginals(Table2(log_marginals[0]))


def hmc_posterior_marginals_batch(model: HmcModel, ys, lengths=None) -> tuple[np.ndarray, np.ndarray]:
    """Posterior marginals for many observation sequences in one pass.

    ``ys`` is a (count, length) array of observation indices.  Returns
    ``(log_evidences, log_marginals)`` with shapes (count,) and
    (count, length, num_labels); zero-probability sequences come back as
    ``-inf`` / NaN instead of raising, so callers can filter.  Column ``i``
    equals ``hmc_posterior_marginals`` on ``ys[i]``.

    ``lengths``, one integer in [1, length] per row, decodes prefixes: row
    ``i`` is then the posterior of ``ys[i, :lengths[i]]`` alone under the
    same chain, and its log evidence, bit for bit equal to the single call
    on the chain's first ``lengths[i]`` positions.  ``ys`` keeps its
    (count, length) shape, padded past each prefix with any valid index,
    and the marginals past a prefix are NaN.  A bad ``lengths`` raises
    :class:`ValidationError`.
    """
    return chain_log_marginals(*chain_parts(*_factors(model), ys), lengths=lengths)


def hmc_mpm_decode(model: HmcModel, y) -> LabelSeq:
    """MPM decoding: the position-wise argmax of the posterior marginals."""
    return hmc_posterior_marginals(model, y).mpm_labels()

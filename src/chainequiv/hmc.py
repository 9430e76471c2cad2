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
    chain_log_marginals,
    chain_log_totals,
    chain_parts,
    check_chain_shapes,
    distinct_tables,
    log_of_probabilities,
    log_sum_exp,
    path_log_weight,
    tiled,
)

ROW_SUM_TOL = 1e-9
ZERO_EVIDENCE = "observation sequence has probability zero under the model"


class ImpossibleObservation(ValueError):
    """The observation sequence has probability zero under the model."""


def _check_stochastic(log_rows: np.ndarray, what: str):
    """Check that the rows of a stack of tables, or of the init row, sum to one.

    A failure names the first table with a row off, and its worst row.
    """
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


def _renormalized(stack: Table3, what: str) -> Table3:
    """Check the stack's rows, then shift each to sum to exactly one; a tiled stack stays tiled."""
    a = distinct_tables(stack.log_values)
    _check_stochastic(a, what)
    out = a - log_sum_exp(a, axis=-1)[..., None]
    return Table3._view(np.broadcast_to(out, stack.shape))


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
    domain) and are then exactly renormalized, since constructions produce
    rows normalized only up to floating rounding.
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

        init = self.init.log_values
        _check_stochastic(init, "init")
        # The init row takes the flat sum (math.log), which can round the last
        # bit apart from numpy's vectorized log; convert's init output follows it.
        object.__setattr__(self, "init", Table1(init - log_sum_exp(init)))
        for name, stack in zip(names, stacks):
            object.__setattr__(self, name, _renormalized(stack, name))

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

    def retiled(self, length: int) -> "HmcModel":
        """The chain of this model's init, first transition and first emission table at ``length``.

        The stacks are stride-0 views of this model's own rows, which are
        normalized already: they are neither checked nor renormalized again,
        so every table equals the one it repeats bit for bit.  For a
        stationary model this is the same chain at another length.
        """
        if length < 1:
            raise ValidationError("length must be >= 1")
        if not len(self.transitions):
            raise ValidationError("a length-1 chain has no transition table to repeat")
        model = object.__new__(HmcModel)
        for name, value in (("hidden", self.hidden), ("obs", self.obs), ("init", self.init),
                            ("transitions", tiled(self.transitions[0], length - 1)),
                            ("emissions", tiled(self.emissions[0], length))):
            object.__setattr__(model, name, value)
        return model


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

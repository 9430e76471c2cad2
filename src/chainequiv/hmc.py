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
    ValidationError,
    chain_log_marginals,
    chain_log_totals,
    chain_parts,
    check_chain_shapes,
    log_sum_exp,
    path_log_weight,
)

ROW_SUM_TOL = 1e-9
ZERO_EVIDENCE = "observation sequence has probability zero under the model"


class ImpossibleObservation(ValueError):
    """The observation sequence has probability zero under the model."""


def _check_stochastic(log_rows: np.ndarray, what: str):
    sums = np.atleast_1d(np.exp(log_rows).sum(axis=-1))
    worst = int(np.argmax(np.abs(sums - 1.0)))
    if abs(sums[worst] - 1.0) > ROW_SUM_TOL:
        label = what if log_rows.ndim == 1 else f"{what} row {worst}"
        raise ValidationError(
            f"{label} sums to {sums[worst]:.12g}, expected 1 within {ROW_SUM_TOL}"
        )


def _renormalized(table):
    """Shift each log row so it sums to exactly one after exponentiation."""
    a = table.log_values
    # The 1-D init row takes the flat sum (math.log), which can round the last
    # bit apart from numpy's vectorized log; convert's init output follows it.
    totals = log_sum_exp(a, axis=-1) if a.ndim == 2 else log_sum_exp(a)
    return type(table)(a - np.expand_dims(totals, -1))


@dataclass(frozen=True, eq=False)
class HmcModel:
    """A hidden Markov chain over finite alphabets.

    Parameters
    ----------
    hidden, obs : Alphabet
        Label and observation alphabets.
    init : Table1
        Log-probabilities of the first label.
    transitions : tuple of Table2
        ``length - 1`` row-stochastic tables over (hidden x hidden).
    emissions : tuple of Table2
        ``length`` row-stochastic tables over (hidden x obs).

    Rows must sum to one within ``1e-9`` (probability domain) and are then
    exactly renormalized, since constructions produce rows normalized only
    up to floating rounding.
    """

    hidden: Alphabet
    obs: Alphabet
    init: Table1
    transitions: tuple[Table2, ...]
    emissions: tuple[Table2, ...]

    def __post_init__(self):
        object.__setattr__(self, "transitions", tuple(self.transitions))
        object.__setattr__(self, "emissions", tuple(self.emissions))
        check_chain_shapes(self.transitions, self.emissions, self.hidden.size, self.obs.size,
                           ("transitions", "emissions"))
        if self.init.size != self.hidden.size:
            raise ValidationError(f"init has size {self.init.size}, expected {self.hidden.size}")

        _check_stochastic(self.init.log_values, "init")
        for i, t in enumerate(self.transitions):
            _check_stochastic(t.log_values, f"transitions[{i}]")
        for i, t in enumerate(self.emissions):
            _check_stochastic(t.log_values, f"emissions[{i}]")

        object.__setattr__(self, "init", _renormalized(self.init))
        object.__setattr__(self, "transitions", tuple(_renormalized(t) for t in self.transitions))
        object.__setattr__(self, "emissions", tuple(_renormalized(t) for t in self.emissions))

    @property
    def length(self) -> int:
        return len(self.emissions)

    @classmethod
    def from_probabilities(cls, hidden: Alphabet, obs: Alphabet, init, transitions,
                           emissions) -> "HmcModel":
        """Build from probability-domain rows (zeros become -inf internally)."""
        return cls(
            hidden,
            obs,
            Table1.from_probabilities(init),
            tuple(Table2.from_probabilities(t) for t in transitions),
            tuple(Table2.from_probabilities(t) for t in emissions),
        )

    @classmethod
    def homogeneous(cls, hidden: Alphabet, obs: Alphabet, length: int, init: Table1,
                    trans: Table2, emit: Table2) -> "HmcModel":
        """Tile one (transition, emission) pair into a stationary chain."""
        if length < 1:
            raise ValidationError("length must be >= 1")
        return cls(hidden, obs, init, (trans,) * (length - 1), (emit,) * length)


def _factors(model: HmcModel):
    """The HMC as CRF factors: its log transition and log emission tables.

    ``log init`` is folded into emission 0, so this is the only code that
    knows an HMC has a start term.
    """
    emits = [t.log_values for t in model.emissions]
    emits[0] = model.init.log_values[:, None] + emits[0]
    return [t.log_values for t in model.transitions], emits


def hmc_log_joint(model: HmcModel, x, y) -> float:
    """Log joint probability of the labeling ``x`` and observations ``y``.

    ``-inf`` whenever any factor in the chain is zero.
    """
    return path_log_weight(*_factors(model), x, y)


def hmc_log_evidence(model: HmcModel, y) -> float:
    """Log marginal probability of the observations (``-inf`` is allowed)."""
    first, steps = chain_parts(*_factors(model), [y])
    return float(chain_log_totals(first, steps)[0])


def hmc_posterior_marginals(model: HmcModel, y) -> PosteriorMarginals:
    """Posterior distribution of the label at each position, by forward-backward.

    Raises :class:`ImpossibleObservation` when the observations have
    probability zero (conditioning on them would be undefined).
    """
    first, steps = chain_parts(*_factors(model), [y])
    totals, log_marginals = chain_log_marginals(first, steps)
    if totals[0] == LOG_ZERO:
        raise ImpossibleObservation(ZERO_EVIDENCE)
    return PosteriorMarginals(tuple(Table1(r) for r in log_marginals[0]))


def hmc_posterior_marginals_batch(model: HmcModel, ys) -> tuple[np.ndarray, np.ndarray]:
    """Posterior marginals for many observation sequences in one pass.

    ``ys`` is a (count, length) array of observation indices.  Returns
    ``(log_evidences, log_marginals)`` with shapes (count,) and
    (count, length, num_labels); zero-probability sequences come back as
    ``-inf`` / NaN instead of raising, so callers can filter.  Column ``i``
    equals ``hmc_posterior_marginals`` on ``ys[i]``.
    """
    first, steps = chain_parts(*_factors(model), ys)
    return chain_log_marginals(first, steps)


def hmc_mpm_decode(model: HmcModel, y) -> LabelSeq:
    """MPM decoding: the position-wise argmax of the posterior marginals."""
    return hmc_posterior_marginals(model, y).mpm_labels()

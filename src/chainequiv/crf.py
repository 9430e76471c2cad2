"""Linear-chain conditional random fields over finite alphabets.

A model assigns each label sequence ``x`` given observations ``y`` the
unnormalized log weight

    sum_n pair[n](x_n, x_{n+1})  +  sum_n emit[n](x_n, y_n)

with one pairwise table per adjacent position pair and one emission table
per position.  This module computes that score, the exact normalizer, the
per-position posterior marginals and the MPM (maximum posterior mode)
decoding, all in O(length * num_labels^2).
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
    path_log_weight,
)

STRICT = "strict"
GENERALIZED = "generalized"
MODES = (STRICT, GENERALIZED)
ZERO_WEIGHT = "all label sequences have zero weight for these observations"


class DegenerateModel(ValueError):
    """Every label sequence has zero weight for the given observations."""


@dataclass(frozen=True, eq=False)
class CrfModel:
    """A time-indexed linear-chain CRF.

    Parameters
    ----------
    hidden, obs : Alphabet
        Label and observation alphabets.
    pair_potentials : tuple of Table2
        ``length - 1`` tables over (hidden x hidden), one per adjacent pair.
    emit_potentials : tuple of Table2
        ``length`` tables over (hidden x obs), one per position.
    mode : str
        ``"strict"`` requires all potentials finite; ``"generalized"``
        additionally allows ``-inf`` (weight exactly zero).
    """

    hidden: Alphabet
    obs: Alphabet
    pair_potentials: tuple[Table2, ...]
    emit_potentials: tuple[Table2, ...]
    mode: str = STRICT

    def __post_init__(self):
        object.__setattr__(self, "pair_potentials", tuple(self.pair_potentials))
        object.__setattr__(self, "emit_potentials", tuple(self.emit_potentials))
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        check_chain_shapes(self.pair_potentials, self.emit_potentials, self.hidden.size,
                           self.obs.size, ("pair_potentials", "emit_potentials"))
        if self.mode == STRICT:
            for name, tabs in (("pair_potentials", self.pair_potentials),
                               ("emit_potentials", self.emit_potentials)):
                for i, t in enumerate(tabs):
                    if not np.isfinite(t.log_values).all():
                        raise ValidationError(
                            f"{name}[{i}] contains -inf; strict mode requires finite potentials"
                        )

    @property
    def length(self) -> int:
        return len(self.emit_potentials)

    @classmethod
    def homogeneous(cls, hidden: Alphabet, obs: Alphabet, length: int,
                    pair: Table2, emit: Table2, mode: str = STRICT) -> "CrfModel":
        """Tile a single (pairwise, emission) table pair across all positions."""
        if length < 1:
            raise ValidationError("length must be >= 1")
        return cls(hidden, obs, (pair,) * (length - 1), (emit,) * length, mode=mode)


def default_alphabets(hidden_size: int, obs_size: int) -> tuple[Alphabet, Alphabet]:
    """Generated symbol names h0..h{k-1} / o0..o{l-1} for synthetic models."""
    if hidden_size < 1 or obs_size < 1:
        raise ValidationError("alphabet sizes must be >= 1")
    return (Alphabet(tuple(f"h{i}" for i in range(hidden_size))),
            Alphabet(tuple(f"o{i}" for i in range(obs_size))))


def random_crf_model(length: int, hidden_size: int, obs_size: int, seed: int,
                     mode: str = STRICT, low: float = -5.0, high: float = 5.0,
                     zero_prob: float = 0.1) -> CrfModel:
    """Seeded random CRF with potentials i.i.d. uniform on [low, high].

    Deterministic for a fixed seed; in generalized mode each cell is
    independently set to ``-inf`` with probability ``zero_prob``.  Pairwise
    tables are drawn first (in position order), then emission tables.
    """
    hidden, obs = default_alphabets(hidden_size, obs_size)
    if length < 1:
        raise ValidationError("length must be >= 1")
    rng = np.random.default_rng(seed)

    def draw(shape):
        t = rng.uniform(low, high, shape)
        if mode == GENERALIZED:
            t[rng.random(shape) < zero_prob] = -np.inf
        return Table2(t)

    k, l = hidden_size, obs_size
    pair = tuple(draw((k, k)) for _ in range(length - 1))
    emit = tuple(draw((k, l)) for _ in range(length))
    return CrfModel(hidden, obs, pair, emit, mode=mode)


def _factors(model: CrfModel):
    """The CRF's chain factors: its pairwise and emission log tables."""
    return ([t.log_values for t in model.pair_potentials],
            [t.log_values for t in model.emit_potentials])


def crf_log_score(model: CrfModel, x, y) -> float:
    """Unnormalized log weight of the labeling ``x`` given observations ``y``."""
    return path_log_weight(*_factors(model), x, y)


def crf_log_normalizer(model: CrfModel, y) -> float:
    """Log of the sum of exp(score) over all label sequences.

    Computed by a forward pass over the y-conditioned factor chain; equals
    brute-force enumeration on small instances.  Raises
    :class:`DegenerateModel` when every labeling has zero weight (possible
    only in generalized mode).
    """
    first, steps = chain_parts(*_factors(model), [y])
    total = float(chain_log_totals(first, steps)[0])
    if total == LOG_ZERO:
        raise DegenerateModel(ZERO_WEIGHT)
    return total


def crf_posterior_marginals(model: CrfModel, y) -> PosteriorMarginals:
    """Posterior distribution of the label at each position given ``y``."""
    first, steps = chain_parts(*_factors(model), [y])
    totals, log_marginals = chain_log_marginals(first, steps)
    if totals[0] == LOG_ZERO:
        raise DegenerateModel(ZERO_WEIGHT)
    return PosteriorMarginals(tuple(Table1(r) for r in log_marginals[0]))


def crf_posterior_marginals_batch(model: CrfModel, ys) -> tuple[np.ndarray, np.ndarray]:
    """Posterior marginals for many observation sequences in one pass.

    ``ys`` is a (count, length) array of observation indices.  Returns
    ``(log_normalizers, log_marginals)`` with shapes (count,) and
    (count, length, num_labels); entries for sequences where every labeling
    has zero weight come back as ``-inf`` / NaN instead of raising, so
    callers can filter.  Column ``i`` equals ``crf_posterior_marginals``
    on ``ys[i]``.
    """
    first, steps = chain_parts(*_factors(model), ys)
    return chain_log_marginals(first, steps)


def crf_mpm_decode(model: CrfModel, y) -> LabelSeq:
    """MPM decoding: the position-wise argmax of the posterior marginals."""
    return crf_posterior_marginals(model, y).mpm_labels()

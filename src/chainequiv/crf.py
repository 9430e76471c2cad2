"""Linear-chain conditional random fields over finite alphabets.

A model assigns each label sequence ``x`` given observations ``y`` the
unnormalized log weight

    sum_n pair[n](x_n, x_{n+1})  +  sum_n emit[n](x_n, y_n)

with one pairwise table per adjacent position pair and one emission table
per position.  This module computes that score, the exact normalizer, the
per-position posterior marginals and the MPM (maximum posterior mode)
decoding, all in O(length * num_labels^2).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .tables import (
    LOG_ZERO,
    Alphabet,
    LabelSeq,
    PosteriorMarginals,
    Table2,
    Table3,
    ValidationError,
    chain_log_marginals,
    chain_log_totals,
    chain_parts,
    check_chain_shapes,
    distinct_tables,
    path_log_weight,
    tiled,
)

STRICT = "strict"
GENERALIZED = "generalized"
MODES = (STRICT, GENERALIZED)
ZERO_WEIGHT = "all label sequences have zero weight for these observations"
# The largest allowed bound on the size of a path score: for the pairwise
# and for the emission stack, the number of tables times the largest finite
# |potential| among them, summed.  The chain passes, the construction and the
# oracle add at most a few scores of this size (plus logs of label counts):
# far inside the float range, which ends near 1.8e308.
SCORE_LIMIT = 1e300


class DegenerateModel(ValueError):
    """Every label sequence has zero weight for the given observations."""


class ScoreOverflow(ValidationError):
    """The potentials are finite, but sums of them along a path can leave the float range."""


def _score_bound(stack: np.ndarray) -> float:
    """The number of tables in a stack times their largest finite |potential|."""
    a = distinct_tables(stack)  # a tiled stack's one table stands for every position
    return len(stack) * float(np.abs(a).max(where=np.isfinite(a), initial=0.0))


@dataclass(frozen=True, eq=False)
class CrfModel:
    """A time-indexed linear-chain CRF.

    Parameters
    ----------
    hidden, obs : Alphabet
        Label and observation alphabets.
    pair_potentials : Table3
        ``length - 1`` tables over (hidden x hidden), one per adjacent pair.
    emit_potentials : Table3
        ``length`` tables over (hidden x obs), one per position.
    mode : str
        ``"strict"`` requires all potentials finite; ``"generalized"``
        additionally allows ``-inf`` (weight exactly zero).

    The constructor takes each stack as a Table3, an array-like or a
    sequence of Table2, and checks it once.  When a path score could pass
    SCORE_LIMIT in size, it raises :class:`ScoreOverflow`.
    """

    hidden: Alphabet
    obs: Alphabet
    pair_potentials: Table3
    emit_potentials: Table3
    mode: str = STRICT

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        names = ("pair_potentials", "emit_potentials")
        stacks = check_chain_shapes(self.pair_potentials, self.emit_potentials,
                                    self.hidden.size, self.obs.size, names)
        for name, stack in zip(names, stacks):
            object.__setattr__(self, name, stack)
            if self.mode == STRICT:
                zeros = ~np.isfinite(distinct_tables(stack.log_values)).all(axis=(1, 2))
                if zeros.any():
                    raise ValidationError(f"{name}[{int(np.argmax(zeros))}] contains -inf; "
                                          "strict mode requires finite potentials")
        bound = sum(_score_bound(stack.log_values) for stack in stacks)
        if not bound <= SCORE_LIMIT:
            raise ScoreOverflow(f"path scores may reach {bound:.3g} in size, above {SCORE_LIMIT:g} "
                                "(tables times the largest |potential|): they could overflow floats")

    @property
    def length(self) -> int:
        return len(self.emit_potentials)

    @classmethod
    def homogeneous(cls, hidden: Alphabet, obs: Alphabet, length: int,
                    pair: Table2, emit: Table2, mode: str = STRICT) -> "CrfModel":
        """Tile one (pairwise, emission) table pair across all positions.

        The stacks are stride-0 views of the two tables: O(k^2) memory at any length.
        """
        if length < 1:
            raise ValidationError("length must be >= 1")
        return cls(hidden, obs, tiled(pair, length - 1), tiled(emit, length), mode=mode)


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
    ``seed`` must be an integer >= 0, ``low`` and ``high`` finite with
    ``low <= high``, and ``zero_prob`` in [0, 1].
    """
    hidden, obs = default_alphabets(hidden_size, obs_size)
    if length < 1:
        raise ValidationError("length must be >= 1")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")
    if not -math.inf < low <= high < math.inf:
        raise ValidationError(f"low and high must be finite with low <= high, got {low!r} and {high!r}")
    if not 0 <= zero_prob <= 1:
        raise ValidationError(f"zero_prob must be in [0, 1], got {zero_prob!r}")
    rng = np.random.default_rng(seed)

    def draw(shape):
        t = rng.uniform(low, high, shape)
        if mode == GENERALIZED:
            t[rng.random(shape) < zero_prob] = -np.inf
        return t

    k, l = hidden_size, obs_size
    pair = [draw((k, k)) for _ in range(length - 1)]
    emit = [draw((k, l)) for _ in range(length)]
    return CrfModel(hidden, obs, pair, emit, mode=mode)


def _factors(model: CrfModel):
    """The CRF's chain factors: its stacked pairwise and emission log tables."""
    return model.pair_potentials.log_values, model.emit_potentials.log_values


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
    total = float(chain_log_totals(*chain_parts(*_factors(model), [y]))[0])
    if total == LOG_ZERO:
        raise DegenerateModel(ZERO_WEIGHT)
    return total


def crf_posterior_marginals(model: CrfModel, y) -> PosteriorMarginals:
    """Posterior distribution of the label at each position given ``y``."""
    totals, log_marginals = chain_log_marginals(*chain_parts(*_factors(model), [y]))
    if totals[0] == LOG_ZERO:
        raise DegenerateModel(ZERO_WEIGHT)
    return PosteriorMarginals(Table2(log_marginals[0]))


def crf_posterior_marginals_batch(model: CrfModel, ys, lengths=None) -> tuple[np.ndarray, np.ndarray]:
    """Posterior marginals for many observation sequences in one pass.

    ``ys`` is a (count, length) array of observation indices.  Returns
    ``(log_normalizers, log_marginals)`` with shapes (count,) and
    (count, length, num_labels); entries for sequences where every labeling
    has zero weight come back as ``-inf`` / NaN instead of raising, so
    callers can filter.  Column ``i`` equals ``crf_posterior_marginals``
    on ``ys[i]``.

    ``lengths``, one integer in [1, length] per row, decodes prefixes: row
    ``i`` is then ``crf_posterior_marginals`` on ``ys[i, :lengths[i]]``
    under the CRF truncated to its first ``lengths[i]`` positions, bit for
    bit, which for a time-homogeneous CRF is the same CRF at that length.
    ``ys`` keeps its (count, length) shape, padded past each prefix with
    any valid index, and the marginals past a prefix are NaN.  A bad
    ``lengths`` raises :class:`ValidationError`.
    """
    return chain_log_marginals(*chain_parts(*_factors(model), ys), lengths=lengths)


def crf_mpm_decode(model: CrfModel, y) -> LabelSeq:
    """MPM decoding: the position-wise argmax of the posterior marginals."""
    return crf_posterior_marginals(model, y).mpm_labels()

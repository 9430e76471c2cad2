"""Brute-force enumeration over all label sequences, for certifying the fast paths.

Enumeration materializes the exact posterior over every labeling of a fixed
observation sequence.  It is deliberately independent of the forward-backward
code: scores come straight from table lookups over the full path matrix and
are normalized by direct summation.  The pairwise part of every path score is
the same for all observation rows, so it is summed once per call and shared;
each score adds its pairwise entries in step order, then its emission entries
in position order, starting from 0.0 (see :func:`_score_matrix`).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .crf import CrfModel, DegenerateModel
from .crf import _factors as _crf_factors
from .hmc import HmcModel
from .hmc import _factors as _hmc_factors
from .tables import LabelSeq, index_rows

DEFAULT_BUDGET = 10**6


class BudgetExceeded(ValueError):
    """The requested enumeration is larger than the configured budget."""


class ShapeMismatch(ValueError):
    """Two enumerated posteriors do not live on the same label space."""


def _check_budget(size: int, length: int, budget: int):
    if size**length > budget:
        raise BudgetExceeded(
            f"{size}^{length} = {size**length} label sequences exceed the budget of {budget}"
        )


def _stable_total(weights: np.ndarray) -> float:
    # Extended-precision accumulation; agrees with math.fsum to ~1e-18 relative.
    return float(np.sum(weights, dtype=np.longdouble))


@dataclass(frozen=True, eq=False)
class EnumeratedPosterior:
    """The exact posterior over all labelings of one observation sequence.

    ``probabilities[i]`` is the posterior mass of the i-th sequence in
    lexicographic order (``sequence(i)`` recovers it).  ``entries`` views the
    same data as a mapping from label tuples to probability, omitting
    zero-mass sequences.  ``log_total_weight`` is the log of the unnormalized
    mass that was summed (the CRF normalizer, or the HMC evidence).
    """

    hidden_size: int
    length: int
    probabilities: np.ndarray
    log_total_weight: float

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    @property
    def total(self) -> float:
        """Sum of all entries; one up to floating rounding."""
        return _stable_total(self.probabilities)

    @property
    def entries(self) -> dict[LabelSeq, float]:
        paths = all_sequences(self.hidden_size, self.length)
        return {
            tuple(int(v) for v in paths[i]): float(p)
            for i, p in enumerate(self.probabilities)
            if p != 0.0
        }

    def sequence(self, i: int) -> LabelSeq:
        return tuple(int(v) for v in all_sequences(self.hidden_size, self.length)[i])

    def probability(self, labels) -> float:
        labels = index_rows([labels], self.length, self.hidden_size, "label")[0]
        flat = np.ravel_multi_index(labels, (self.hidden_size,) * self.length)
        return float(self.probabilities[flat])

    def marginals(self) -> np.ndarray:
        """(length, hidden_size) per-position marginals of the joint posterior."""
        return posterior_matrix_marginals(self.probabilities[None], self.hidden_size,
                                          self.length)[0]


@lru_cache(maxsize=16)
def all_sequences(size: int, length: int) -> np.ndarray:
    """Every index sequence of the given length, one per row, lexicographic; read-only and cached."""
    paths = np.indices((size,) * length).reshape(length, -1).T
    paths.setflags(write=False)
    return paths


def _table_shape(size: int, length: int, pos: int, width: int):
    """Broadcast shape placing a table's axes at label position ``pos``.

    The leading axis is the sequence axis (length one for tables shared by
    all sequences); the remaining ``length`` axes index one label position
    each.
    """
    return (1,) * (pos + 1) + (size,) * width + (1,) * (length - pos - width)


def _score_matrix(pairs, emits, obs: np.ndarray) -> np.ndarray:
    """(num_sequences, num_labelings) log weight of every labeling of each row.

    Takes a model as CRF factors (pairwise tables, emission tables) and
    scores every labeling by summing its table entries, with labelings
    flattened in lexicographic order.  The pairwise tables do not depend on
    the observations, so they are summed once, in step order starting from
    0.0, into a (1, label, label, ...) path tensor; the emission entries of
    each row are then added in position order, the first add making the
    (sequences, label, label, ...) tensor.  Every cell therefore adds its
    entries in one fixed order: pairwise by step, then emissions by position.
    """
    k, n, c = len(emits[0]), len(emits), len(obs)
    path = np.zeros((1,) + (k,) * n)
    for step, t in enumerate(pairs):
        path += t.reshape(_table_shape(k, n, step, 2))

    def picked(pos):  # the rows' emission entries at ``pos``, (sequences, labels) broadcast
        return emits[pos][:, obs[:, pos]].T.reshape((c,) + _table_shape(k, n, pos, 1)[1:])

    scores = path + picked(0)
    for pos in range(1, n):
        scores += picked(pos)
    return scores.reshape(c, k**n)


def _enumerate(model, factors, ys, budget: int) -> np.ndarray:
    """Score matrix of ``factors`` for the observation rows ``ys`` of ``model``.

    Checks ``ys`` with :func:`index_rows`, then refuses with
    :class:`BudgetExceeded` when the model has more labelings than ``budget``.
    """
    obs = index_rows(ys, model.length, model.obs.size, "observation")
    _check_budget(model.hidden.size, model.length, budget)
    return _score_matrix(*factors, obs)


def _normalize_score_matrix(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalize a log score matrix in place; dead rows become NaN / -inf.

    Row sums use numpy's pairwise reduction over the contiguous row, keeping
    the relative error below eps * log2(row length), i.e. well under 1e-12
    at the default enumeration budget.
    """
    m = scores.max(axis=1)
    dead = np.isneginf(m)
    np.subtract(scores, np.where(dead, 0.0, m)[:, None], out=scores)
    np.exp(scores, out=scores)
    totals = scores.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(scores, totals[:, None], out=scores)
        log_totals = m + np.log(totals)
    scores[dead, :] = np.nan
    log_totals[dead] = float("-inf")
    return scores, log_totals


def _enumerated_posterior(model, factors, y, budget: int) -> EnumeratedPosterior:
    """The one-row case of :func:`_normalize_score_matrix`; a dead row raises."""
    posteriors, log_totals = _normalize_score_matrix(_enumerate(model, factors, [y], budget))
    if log_totals[0] == float("-inf"):
        raise DegenerateModel("every label sequence has zero weight for these observations")
    return EnumeratedPosterior(model.hidden.size, model.length, posteriors[0], float(log_totals[0]))


def enumerate_crf_posterior(model: CrfModel, y, budget: int = DEFAULT_BUDGET) -> EnumeratedPosterior:
    """Exact CRF posterior by scoring every labeling directly."""
    return _enumerated_posterior(model, _crf_factors(model), y, budget)


def enumerate_hmc_posterior(model: HmcModel, y, budget: int = DEFAULT_BUDGET) -> EnumeratedPosterior:
    """Exact HMC posterior: every joint probability, normalized by the evidence."""
    return _enumerated_posterior(model, _hmc_factors(model), y, budget)


def enumerate_crf_posterior_batch(model: CrfModel, ys,
                                  budget: int = DEFAULT_BUDGET) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise exact CRF posteriors for many observation sequences.

    ``ys`` is a (count, length) index array.  Returns ``(posteriors,
    log_normalizers)`` where ``posteriors[i]`` is the full posterior over
    labelings of ``ys[i]`` in lexicographic order; rows with zero total
    weight come back NaN with an ``-inf`` normalizer instead of raising.
    Normalization uses pairwise summation; row ``i`` matches
    :func:`enumerate_crf_posterior` on ``ys[i]`` to well below 1e-12.
    """
    return _normalize_score_matrix(_enumerate(model, _crf_factors(model), ys, budget))


def enumerate_hmc_posterior_batch(model: HmcModel, ys,
                                  budget: int = DEFAULT_BUDGET) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise exact HMC posteriors; see :func:`enumerate_crf_posterior_batch`."""
    return _normalize_score_matrix(_enumerate(model, _hmc_factors(model), ys, budget))


def posterior_matrix_marginals(posteriors: np.ndarray, size: int, length: int) -> np.ndarray:
    """(count, length, size) per-position marginals of row-wise posteriors."""
    cube = posteriors.reshape((-1,) + (size,) * length)
    axes = tuple(range(1, length + 1))
    return np.stack(
        [cube.sum(axis=tuple(a for a in axes if a != n)) for n in axes], axis=1
    )


@dataclass(frozen=True, eq=False)
class PosteriorComparison:
    """Symmetric discrepancy report between two enumerated posteriors."""

    max_abs_diff: float
    worst_sequence: LabelSeq
    position_marginal_diffs: np.ndarray

    @property
    def worst_position(self) -> int:
        return int(np.argmax(self.position_marginal_diffs))


def compare_posteriors(a: EnumeratedPosterior, b: EnumeratedPosterior) -> PosteriorComparison:
    """Max absolute sequence-posterior difference plus per-position marginal gaps."""
    if (a.hidden_size, a.length) != (b.hidden_size, b.length):
        raise ShapeMismatch(
            f"posteriors live on different spaces: "
            f"{a.hidden_size}^{a.length} vs {b.hidden_size}^{b.length}"
        )
    diff = np.abs(a.probabilities - b.probabilities)
    worst = int(np.argmax(diff))
    per_position = np.abs(a.marginals() - b.marginals()).max(axis=1)
    return PosteriorComparison(float(diff[worst]), a.sequence(worst), per_position)

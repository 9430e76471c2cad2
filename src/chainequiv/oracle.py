"""Brute-force enumeration over all label sequences, for certifying the fast paths.

Enumeration materializes the exact posterior over every labeling of a fixed
observation sequence.  It is deliberately independent of the forward-backward
code: scores come straight from table lookups over the full path matrix and
are normalized by direct summation.  The pairwise part of every path score is
the same for all observation rows, so it is summed once per call and shared;
so are the emission partial sums of rows that are one observation prefix and
all its continuations, the blocks in which ``verify`` enumerates every
observation sequence.  One loop over the positions scores any set of rows:
each score adds its pairwise entries in step order, then its emission entries
in position order, starting from 0.0, so sharing changes no bit (see
:func:`_score_matrix`).  No enumeration outlives the call that made it: a
labeling is recovered from its index in lexicographic order.
"""

from dataclasses import dataclass

import numpy as np

from .crf import CrfModel, DegenerateModel
from .crf import _factors as _crf_factors
from .hmc import HmcModel
from .hmc import _factors as _hmc_factors
from .tables import LabelSeq, ValidationError, index_rows

DEFAULT_BUDGET = 10**6
# Labeling cells scored at once by ``verify``: 2**16 float64 cells are
# 0.5 MB, so a block's arrays stay in a core's L2 cache.
ENUMERATION_BLOCK_CELLS = 2**16


class BudgetExceeded(ValueError):
    """The requested enumeration is larger than the configured budget."""


class ShapeMismatch(ValueError):
    """Posteriors do not live on the label space they should: two enumerated ones differ, or a row's width is wrong."""


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
    ``probabilities`` must be a vector of ``hidden_size ** length`` entries,
    else ShapeMismatch, all finite and nonnegative, else ValidationError.
    """

    hidden_size: int
    length: int
    probabilities: np.ndarray
    log_total_weight: float

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.shape != (self.hidden_size**self.length,):
            raise ShapeMismatch(f"probabilities must hold {self.hidden_size}^{self.length} entries, "
                                f"got shape {p.shape}")
        if not (0 <= p.min() and p.max() < np.inf):  # a NaN fails both
            raise ValidationError("probabilities must be finite and nonnegative")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    @property
    def total(self) -> float:
        """Sum of all entries; one up to floating rounding."""
        return _stable_total(self.probabilities)

    @property
    def entries(self) -> dict[LabelSeq, float]:
        nonzero = np.flatnonzero(self.probabilities)
        labels = np.unravel_index(nonzero, (self.hidden_size,) * self.length)
        return dict(zip(zip(*(axis.tolist() for axis in labels)), self.probabilities[nonzero].tolist()))

    def sequence(self, i: int) -> LabelSeq:
        i = range(self.probabilities.size)[i]  # a negative index counts from the end, as in an array
        return tuple(int(v) for v in np.unravel_index(i, (self.hidden_size,) * self.length))

    def probability(self, labels) -> float:
        labels = index_rows([labels], self.length, self.hidden_size, "label")[0]
        flat = np.ravel_multi_index(labels, (self.hidden_size,) * self.length)
        return float(self.probabilities[flat])

    def marginals(self) -> np.ndarray:
        """(length, hidden_size) per-position marginals of the joint posterior."""
        return posterior_matrix_marginals(self.probabilities[None], self.hidden_size,
                                          self.length)[0]


def all_sequences(size: int, length: int) -> np.ndarray:
    """Every index sequence of the given length, one per row, lexicographic; a new array each call."""
    return np.indices((size,) * length).reshape(length, size**length).T


def block_rows(labelings: int, budget: int) -> int:
    """Observation rows to enumerate at once, each with ``labelings`` cells.

    At most ENUMERATION_BLOCK_CELLS and ``budget`` cells, and at least one row.
    """
    return max(1, min(ENUMERATION_BLOCK_CELLS, budget) // labelings)


def _table_shape(size: int, length: int, pos: int, width: int):
    """Broadcast shape placing a table's axes at label position ``pos``.

    The leading axis is the sequence axis (length one for tables shared by
    all sequences); the remaining ``length`` axes index one label position
    each.
    """
    return (1,) * (pos + 1) + (size,) * width + (1,) * (length - pos - width)


def _continuation_width(obs: np.ndarray, symbols: int) -> int:
    """j when the rows of ``obs`` are one prefix followed by all its ``symbols**j`` continuations, else 0.

    That is, the rows agree on their first n - j positions and their last j
    positions, read as base-``symbols`` numbers, count 0, 1, 2, ... in
    order, as an aligned block of :func:`all_sequences` does.  A single row,
    or any other set of rows, gives 0.
    """
    count, n = obs.shape
    j = 0
    while symbols > 1 and j < n and symbols**j < count:
        j += 1
    aligned = (j and symbols**j == count
               and (obs[:, n - j:] @ symbols ** np.arange(j - 1, -1, -1) == np.arange(count)).all()
               and (obs[:, :n - j] == obs[0, :n - j]).all())
    return j if aligned else 0


def _score_matrix(pairs, emits, obs: np.ndarray) -> np.ndarray:
    """(num_sequences, num_labelings) log weight of every labeling of each row.

    Takes a model as CRF factors (pairwise tables, emission tables) and
    scores every labeling by summing its table entries, with labelings
    flattened in lexicographic order.  The pairwise tables do not depend on
    the observations, so they are summed once, in step order starting from
    0.0, into a (1, label, label, ...) path tensor.  The emission entries
    then come in position order: each cell adds its entries in one fixed
    order, pairwise by step, then emissions by position.

    Rows that are one prefix and all its ``symbols**j`` continuations (an
    aligned block of :func:`all_sequences`; see :func:`_continuation_width`)
    share their partial sums.  The rows' heads, the one prefix of such a
    block or else every row, have their emission entries added at the
    first n - j positions; a single head adds its labels' entries in place
    to the path.  Each of the last j positions then multiplies the rows by
    the number of symbols with one broadcast add of that position's
    (symbols, labelings) emission table.  The emission work of a block falls
    from about n passes over the result to about l / (l - 1), and no add
    changes its order, so every bit is that of the rows scored one by one.
    """
    k, n = len(emits[0]), len(emits)
    path = np.zeros((1,) + (k,) * n)
    for step, t in enumerate(pairs):
        path += t.reshape(_table_shape(k, n, step, 2))

    symbols = emits[0].shape[1]
    j = _continuation_width(obs, symbols)
    heads = obs[:len(obs) // symbols**j]
    # one position's emissions for the continuations, at most the result's size
    table = np.empty((symbols,) + (k,) * n) if j else None
    scores = path
    for pos in range(n):
        shape = _table_shape(k, n, pos, 1)[1:]
        if pos < n - j:
            entries = emits[pos][:, heads[:, pos] if len(heads) != 1 else heads[0, pos]]
            entries = entries.T.reshape((-1,) + shape)
            scores = np.add(scores, entries, out=scores if len(scores) == len(entries) else None)
        else:
            table[...] = emits[pos].T.reshape((symbols,) + shape)
            scores = scores.reshape(-1, 1, k**n) + table.reshape(1, symbols, k**n)
    return scores.reshape(len(obs), k**n)


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
    """(count, length, size) per-position marginals of row-wise posteriors.

    ``posteriors`` is an array-like of numbers, else ValidationError, and
    each row must hold ``size**length`` entries, else ShapeMismatch.  Rows
    are summed as given, so a row that is not normalized gives "marginals"
    that are not either: one row of 8 ones at size 2 and length 3 gives 4s.
    """
    try:
        posteriors = np.asarray(posteriors, dtype=float)
    except (ValueError, TypeError):
        raise ValidationError("posterior_matrix_marginals expects an array of numbers") from None
    if posteriors.shape[-1:] != (size**length,):
        raise ShapeMismatch(f"posterior rows must hold {size}^{length} = {size**length} entries, "
                            f"got shape {posteriors.shape}")
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

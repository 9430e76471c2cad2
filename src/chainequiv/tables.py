"""Finite alphabets, log-domain weight tables, and shared numeric helpers.

Every weight and probability in this package lives in the log domain as a
plain float: ``-inf`` is a first-class value meaning "weight exactly zero".
Probabilities are exponentiated only at API boundaries.  NaN is rejected at
table construction so that every downstream operation is total.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

LOG_ZERO = float("-inf")


class ValidationError(ValueError):
    """A table, alphabet, sequence or model failed a structural check."""


class LengthMismatch(ValidationError):
    """Two sequences (or a sequence and a model) disagree on length."""


class AllZeroRow(ValidationError):
    """A row with no mass at all was asked to normalize."""


@dataclass(frozen=True)
class Alphabet:
    """An ordered collection of distinct symbol names.

    ``index`` and ``symbol`` are mutually inverse bijections between the
    symbol names and ``range(size)``.
    """

    symbols: tuple[str, ...]
    _positions: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        symbols = tuple(str(s) for s in self.symbols)
        if not symbols:
            raise ValidationError("an alphabet needs at least one symbol")
        positions = {s: i for i, s in enumerate(symbols)}
        if len(positions) != len(symbols):
            raise ValidationError("alphabet symbols must be unique")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "_positions", positions)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self._positions[symbol]
        except KeyError:
            raise ValidationError(f"symbol {symbol!r} is not in the alphabet") from None

    def symbol(self, index: int) -> str:
        if isinstance(index, bool) or not isinstance(index, numbers.Integral):
            raise ValidationError(f"alphabet index must be an integer, got {index!r}")
        if not 0 <= index < len(self.symbols):
            raise ValidationError(f"index {index} out of range for alphabet of size {self.size}")
        return self.symbols[index]

    def __contains__(self, symbol) -> bool:
        return symbol in self._positions


def _as_log_array(values, ndim: int, what: str) -> np.ndarray:
    a = np.array(values, dtype=float)
    if a.ndim != ndim:
        raise ValidationError(f"{what} expects a {ndim}-dimensional array, got shape {a.shape}")
    if a.size == 0:
        raise ValidationError(f"{what} must not be empty")
    if np.isnan(a).any():
        raise ValidationError(f"{what} rejects NaN entries")
    if np.isposinf(a).any():
        raise ValidationError(f"{what} rejects +inf entries (only finite values and -inf are valid)")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class _Table:
    """A dense, read-only array of log-domain weights with ``ndim`` axes."""

    log_values: np.ndarray
    ndim: ClassVar[int]

    def __post_init__(self):
        what = type(self).__name__
        object.__setattr__(self, "log_values", _as_log_array(self.log_values, self.ndim, what))

    @classmethod
    def from_probabilities(cls, probs):
        return cls(_log_of_probs(probs, cls.__name__))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.log_values.shape

    def __getitem__(self, index) -> float:
        ix = index if isinstance(index, tuple) else (index,)
        if len(ix) != self.ndim or not all(0 <= i < s for i, s in zip(ix, self.shape)):
            raise IndexError(
                f"index {index} out of range for {type(self).__name__} of shape {self.shape}"
            )
        return float(self.log_values[ix])

    def probabilities(self) -> np.ndarray:
        return np.exp(self.log_values)


class Table1(_Table):
    """A dense vector of log-domain weights indexed by one alphabet."""

    ndim = 1

    @property
    def size(self) -> int:
        return self.log_values.shape[0]


class Table2(_Table):
    """A dense row-major matrix of log-domain weights over two alphabets."""

    ndim = 2


def _log_of_probs(probs, what: str) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    if np.isnan(p).any():
        raise ValidationError(f"{what} rejects NaN entries")
    if (p < 0).any():
        raise ValidationError(f"{what}.from_probabilities needs nonnegative values")
    with np.errstate(divide="ignore"):
        return np.log(p)


# Sequences of alphabet indices.  Plain tuples keep them hashable and cheap.
LabelSeq = tuple[int, ...]
ObsSeq = tuple[int, ...]


def index_rows(rows, length: int, size: int, what: str) -> np.ndarray:
    """Check index sequences and return them as a (count, length) intp array.

    ``rows`` is a nonempty (count, length) array-like of indices into an
    alphabet of ``size`` symbols; integer, bool and whole-valued float
    entries are accepted.  Rows of another length, ragged rows included,
    raise :class:`LengthMismatch`; anything else malformed (non-numeric,
    fractional or out-of-range entries, or a wrong number of dimensions)
    raises :class:`ValidationError`.  ``what`` names the symbols in messages.
    """
    try:
        a = np.asarray(rows)
    except ValueError:
        raise LengthMismatch(f"{what} sequences differ in length, model expects {length}") from None
    if a.dtype.kind not in "biuf":
        raise ValidationError(f"{what} indices must be integers, got {a.dtype} entries")
    if a.ndim != 2 or a.shape[0] == 0:
        raise ValidationError(f"expected a nonempty (count, length) array of {what} indices")
    if a.shape[1] != length:
        raise LengthMismatch(f"{what} sequence has length {a.shape[1]}, model expects {length}")
    if a.dtype.kind == "f" and (a != np.trunc(a)).any():
        raise ValidationError(f"{what} indices must be whole numbers")
    if a.min() < 0 or a.max() >= size:
        bad = a[(a < 0) | (a >= size)][0]
        raise ValidationError(f"{what} index {bad} out of range for alphabet of size {size}")
    return a.astype(np.intp, copy=False)


def check_chain_shapes(pairs, emits, num_states: int, num_obs: int, names: tuple[str, str]):
    """Check the table counts and shapes of a chain model.

    A model of length ``n >= 1`` has ``n - 1`` (num_states, num_states)
    pairwise tables and ``n`` (num_states, num_obs) emission tables;
    ``names`` are the model's field names for the two, used in messages.
    """
    n = len(emits)
    if n < 1:
        raise ValidationError(f"{names[1]} needs at least one table (length >= 1)")
    if len(pairs) != n - 1:
        raise ValidationError(
            f"expected {n - 1} {names[0]} tables for length {n}, got {len(pairs)}"
        )
    k = num_states
    for name, group, shape in ((names[0], pairs, (k, k)), (names[1], emits, (k, num_obs))):
        for i, t in enumerate(group):
            if t.shape != shape:
                raise ValidationError(f"{name}[{i}] has shape {t.shape}, expected {shape}")


def log_sum_exp(values, axis: int | None = None):
    """log(sum(exp(values))), computed without overflow for finite inputs.

    The empty sum (and a sum of only ``-inf`` terms) is ``-inf``.  With
    ``axis`` given, reduces a numpy array along that axis and returns an
    array; otherwise flattens and returns a float.
    """
    a = np.asarray(values, dtype=float)
    if axis is None:
        if a.size == 0:
            return LOG_ZERO
        m = float(a.max())
        if m == LOG_ZERO:
            return LOG_ZERO
        return m + math.log(float(np.exp(a - m).sum()))
    m = a.max(axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - m_safe).sum(axis=axis)) + np.squeeze(m_safe, axis=axis)
    return out


def normalize_log(row: Table1) -> Table1:
    """Shift a log-domain row so its exponentiated entries sum to one.

    Raises :class:`AllZeroRow` when every entry is ``-inf``.  Being a pure
    translation, normalization preserves the argmax.  The shift is computed
    as ``max + log1p(rest)`` with the leading term split out.  A row whose
    shift is within a few ulps of zero is already normalized and comes back
    unchanged, so normalization is an exact fixed point on its own output.
    """
    v = row.log_values
    top = int(np.argmax(v))
    m = float(v[top])
    if m == LOG_ZERO:
        raise AllZeroRow("cannot normalize a row whose entries are all -inf")
    shifted = v - m  # the top entry lands on exactly zero
    rest = np.exp(shifted)
    rest[top] = 0.0
    tail = math.log1p(float(rest.sum()))
    if abs(m + tail) <= 4 * np.finfo(float).eps:
        return row
    return Table1(shifted - tail)


def hamming_loss(a, b) -> int:
    """Number of positions at which two label sequences disagree.

    Sequences of different lengths raise :class:`LengthMismatch`; a label
    that is not a nonnegative whole number raises :class:`ValidationError`.
    """
    a = tuple(a)
    b = tuple(b)
    if len(a) != len(b):
        raise LengthMismatch(f"sequences have different lengths ({len(a)} vs {len(b)})")
    for v in a + b:
        if not isinstance(v, numbers.Real) or v < 0 or not float(v).is_integer():
            raise ValidationError(f"label {v!r} is not a nonnegative whole number")
    return sum(1 for x, y in zip(a, b) if x != y)


@dataclass(frozen=True, eq=False)
class PosteriorMarginals:
    """Per-position posterior label distributions, one normalized log row each."""

    rows: tuple[Table1, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))

    @property
    def length(self) -> int:
        return len(self.rows)

    def probabilities(self) -> np.ndarray:
        """Stack the rows into a (length, num_labels) probability array."""
        return np.stack([r.probabilities() for r in self.rows])

    def mpm_labels(self) -> LabelSeq:
        """Position-wise argmax labels; the lowest index wins on ties."""
        return tuple(int(np.argmax(r.log_values)) for r in self.rows)


# ---------------------------------------------------------------------------
# Pairwise-factor chain recursions.
#
# A chain over positions 0..n-1 assigns each path x, per column c, the weight
#
#     exp(first[x_0, c] + sum_k (pair_k[x_k, x_{k+1}] + unary_k[x_{k+1}, c]))
#
# so each step is a (pair, unary) tuple: a (num_states, num_states) table
# shared by all columns and a per-column log weight of the state it enters.
# The column axis batches independent conditioning contexts (e.g. many
# observation sequences); a single context is simply the one-column case.
# ``chain_parts`` builds this form from CRF factors, the pairwise and
# emission tables.  An HMC enters as the CRF whose pairwise tables are its
# log transitions and whose emissions are its log emissions, with ``log
# init`` folded into emission 0.  All passes renormalize their messages at
# every step, reaccumulating the dropped constants, so they stay well-scaled
# for long chains and large potentials.
# ---------------------------------------------------------------------------


def chain_parts(pairs, emits, ys):
    """Fold CRF factors and observation rows into ``(first, steps)`` chain input.

    ``pairs[k]`` is the (num_states, num_states) log table between positions
    k and k + 1 and ``emits[k]`` the (num_states, num_obs) log table at
    position k.  ``ys`` is a (count, length) array-like of observation
    indices, checked by :func:`index_rows` against the tables' length and
    number of symbols; each row becomes one column of the chain.  Position
    0's emission is the start term; every later emission is the unary term
    of the step entering its position.
    """
    obs = index_rows(ys, len(emits), emits[0].shape[1], "observation")
    unary = [e[:, obs[:, k]] for k, e in enumerate(emits)]
    return unary[0], list(zip(pairs, unary[1:]))


def path_log_weight(pairs, emits, x, y) -> float:
    """Log weight of the labeling ``x`` given observations ``y`` under CRF factors.

    Both sequences are checked by :func:`index_rows` against the tables.
    """
    x = index_rows([x], len(emits), emits[0].shape[0], "label")[0]
    y = index_rows([y], len(emits), emits[0].shape[1], "observation")[0]
    score = 0.0
    for k, pair in enumerate(pairs):
        score += pair[x[k], x[k + 1]]
    for k, emit in enumerate(emits):
        score += emit[x[k], y[k]]
    return float(score)


def _forward_messages(first, steps):
    msgs = [np.asarray(first, dtype=float)]
    shift = np.zeros(msgs[0].shape[1])
    for pair, unary in steps:
        m = log_sum_exp(msgs[-1][:, None, :] + pair[:, :, None], axis=0) + unary
        c = m.max(axis=0)
        c = np.where(np.isfinite(c), c, 0.0)
        msgs.append(m - c)
        shift += c
    return msgs, shift


def chain_log_totals(first: np.ndarray, steps) -> np.ndarray:
    """Per-column log total weight of a batched pairwise-factor chain.

    ``first`` has shape (num_states, num_columns); each step is a
    ``(pair, unary)`` tuple where ``pair`` is (num_states, num_states),
    shared across columns, and ``unary`` is the (num_states, num_columns)
    log weight of the destination state.  Columns whose every path has zero
    weight come back as ``-inf``.
    """
    msgs, shift = _forward_messages(first, steps)
    return shift + log_sum_exp(msgs[-1], axis=0)


def chain_log_marginals(first: np.ndarray, steps) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-position, per-column chain marginals plus the per-column log totals.

    Takes the ``(first, steps)`` input of :func:`chain_log_totals`.  Returns
    ``(totals, rows)`` where ``rows[k]`` is the (num_states, num_columns)
    normalized log marginal at position ``k``.  Columns with
    zero total weight get a ``-inf`` total and NaN rows; callers decide how
    to surface that (the per-sequence operations raise).
    """
    msgs, shift = _forward_messages(first, steps)
    totals = shift + log_sum_exp(msgs[-1], axis=0)

    n = len(steps) + 1
    rows = [None] * n
    bwd = np.zeros_like(msgs[0])
    rows[n - 1] = msgs[n - 1] + bwd
    for k in range(len(steps) - 1, -1, -1):
        pair, unary = steps[k]
        m = log_sum_exp(pair[:, :, None] + (bwd + unary)[None, :, :], axis=1)
        c = m.max(axis=0)
        bwd = m - np.where(np.isfinite(c), c, 0.0)
        rows[k] = msgs[k] + bwd

    with np.errstate(invalid="ignore"):
        rows = [r - log_sum_exp(r, axis=0) for r in rows]
    return totals, rows

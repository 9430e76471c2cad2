"""Finite alphabets, log-domain weight tables, and shared numeric helpers.

Every weight and probability in this package lives in the log domain as a
plain float: ``-inf`` is a first-class value meaning "weight exactly zero".
Probabilities are exponentiated only at API boundaries.  NaN is rejected at
table construction so that every downstream operation is total.
"""

import itertools
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


def _unknown_symbol(symbol) -> ValidationError:
    return ValidationError(f"symbol {symbol!r} is not in the alphabet")


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
            raise _unknown_symbol(symbol) from None

    def indices(self, symbols) -> list[int]:
        """``[self.index(s) for s in symbols]``, one C-level lookup per symbol.

        An unknown symbol raises the ValidationError of ``index``, naming the first one.
        """
        try:
            return list(map(self._positions.__getitem__, symbols))
        except KeyError as e:
            raise _unknown_symbol(e.args[0]) from None

    def lookup(self, symbols, count: int = -1) -> np.ndarray:
        """The index of each of ``symbols`` as an intp array, ``-1`` for a symbol not in the alphabet.

        One C-level lookup per symbol and no error; ``count``, when known,
        is the number of symbols.
        """
        return np.fromiter(map(self._positions.get, symbols, itertools.repeat(-1)), np.intp, count)

    def symbol(self, index: int) -> str:
        if isinstance(index, bool) or not isinstance(index, numbers.Integral):
            raise ValidationError(f"alphabet index must be an integer, got {index!r}")
        if not 0 <= index < len(self.symbols):
            raise ValidationError(f"index {index} out of range for alphabet of size {self.size}")
        return self.symbols[index]

    def __contains__(self, symbol) -> bool:
        return symbol in self._positions


def _as_log_array(values, ndim: int, what: str) -> np.ndarray:
    try:
        a = np.array(values, dtype=float)
    except (ValueError, TypeError):
        raise ValidationError(f"{what} expects a {ndim}-dimensional array of numbers") from None
    if a.ndim != ndim:
        raise ValidationError(f"{what} expects a {ndim}-dimensional array, got shape {a.shape}")
    if 0 in (a.shape[1:] if ndim == 3 else a.shape):  # a stack may hold no tables
        raise ValidationError(f"{what} must not be empty")
    if np.isnan(a).any():
        raise ValidationError(f"{what} rejects NaN entries")
    if np.isposinf(a).any():
        raise ValidationError(f"{what} rejects +inf entries (only finite values and -inf are valid)")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class _Table:
    """A dense, read-only array of log-domain weights with ``ndim`` axes.

    It is also a stack of tables of one axis fewer: ``len`` and iteration run
    over axis 0, and fewer indices than ``ndim`` give the sub-table as a
    read-only view, indexed as a tuple of tables would be.  A full index
    gives the entry as a float and must lie in range.
    """

    log_values: np.ndarray
    ndim: ClassVar[int]

    def __post_init__(self):
        what = type(self).__name__
        object.__setattr__(self, "log_values", _as_log_array(self.log_values, self.ndim, what))

    @classmethod
    def from_probabilities(cls, probs):
        return cls(log_of_probabilities(probs, cls.__name__))

    @classmethod
    def _view(cls, log_values: np.ndarray) -> "_Table":
        """A table over a read-only array already validated, without a copy."""
        table = object.__new__(cls)
        object.__setattr__(table, "log_values", log_values)
        return table

    @property
    def shape(self) -> tuple[int, ...]:
        return self.log_values.shape

    def __len__(self) -> int:
        return len(self.log_values)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.log_values, dtype=dtype)

    def __getitem__(self, index):
        ix = index if isinstance(index, tuple) else (index,)
        if len(ix) < self.ndim:
            sub = self.log_values[index]
            return _TABLES[sub.ndim]._view(sub)
        if len(ix) != self.ndim or not all(isinstance(i, numbers.Integral) and 0 <= i < s
                                           for i, s in zip(ix, self.shape)):
            raise IndexError(
                f"index {index} out of range for {type(self).__name__} of shape {self.shape}"
            )
        return float(self.log_values[ix])

    def probabilities(self) -> np.ndarray:
        return np.exp(self.log_values)


class Table1(_Table):
    """A dense vector of log-domain weights indexed by one alphabet."""

    ndim = 1


class Table2(_Table):
    """A dense row-major matrix of log-domain weights over two alphabets."""

    ndim = 2


class Table3(_Table):
    """A stack of Table2 of one shape, one per position; it may be empty."""

    ndim = 3


_TABLES = {1: Table1, 2: Table2, 3: Table3}


def tiled(table: Table2, count: int) -> Table3:
    """``count`` copies of ``table`` as one stack: a read-only stride-0 view, no copy."""
    return Table3._view(np.broadcast_to(table.log_values, (count, *table.shape)))


def distinct_tables(stack: np.ndarray) -> np.ndarray:
    """The tables of a stacked array that can differ: the first alone when it is tiled."""
    return stack[:1] if stack.strides[0] == 0 else stack


def log_of_probabilities(probs, what: str) -> np.ndarray:
    """The log of an array of probabilities; ``what`` names the input in messages."""
    try:
        p = np.asarray(probs, dtype=float)
    except (ValueError, TypeError):
        raise ValidationError(f"{what} expects an array of numbers") from None
    if np.isnan(p).any():
        raise ValidationError(f"{what} rejects NaN entries")
    if (p < 0).any():
        raise ValidationError(f"{what}.from_probabilities needs nonnegative values")
    with np.errstate(divide="ignore"):
        return np.log(p)


# A sequence of label indices.  Plain tuples keep it hashable and cheap.
LabelSeq = tuple[int, ...]


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


def _stack(values, tail: tuple[int, int], name: str) -> Table3:
    """``values`` as a Table3 of ``tail``-shaped tables; a Table3 is kept as it is.

    A table of another shape raises ValidationError naming the model field
    ``name`` and the index of the first such table.
    """
    if len(values) == 0:
        return Table3(np.empty((0, *tail)))
    if not isinstance(values, Table3):
        try:
            values = Table3(values)
        except ValidationError as e:
            try:  # a ragged table has no shape: the error stands as it is
                i = next(i for i, t in enumerate(values) if np.shape(t) != tail)
            except (StopIteration, ValueError):
                raise e from None
            raise ValidationError(
                f"{name}[{i}] has shape {np.shape(values[i])}, expected {tail}"
            ) from None
    if values.shape[1:] != tail:
        raise ValidationError(f"{name}[0] has shape {values.shape[1:]}, expected {tail}")
    return values


def check_chain_shapes(pairs, emits, num_states: int, num_obs: int,
                       names: tuple[str, str]) -> tuple[Table3, Table3]:
    """The pairwise and emission tables of a chain model as checked stacks.

    A model of length ``n >= 1`` has ``n - 1`` (num_states, num_states)
    pairwise tables and ``n`` (num_states, num_obs) emission tables, each
    group a Table3, an array-like or a sequence of Table2; ``names`` are the
    model's field names for the two, used in messages.
    """
    n = len(emits)
    if n < 1:
        raise ValidationError(f"{names[1]} needs at least one table (length >= 1)")
    pairs = _stack(pairs, (num_states, num_states), names[0])
    if len(pairs) != n - 1:
        raise ValidationError(
            f"expected {n - 1} {names[0]} tables for length {n}, got {len(pairs)}"
        )
    return pairs, _stack(emits, (num_states, num_obs), names[1])


def log_sum_exp(values, axis: int | None = None):
    """log(sum(exp(values))), computed without overflow for finite inputs.

    The empty sum (and a sum of only ``-inf`` terms) is ``-inf``.  With
    ``axis`` given, reduces a numpy array along that axis and returns an
    array; otherwise flattens and returns a float.  Values that are not
    numbers, or an ``axis`` out of range, raise :class:`ValidationError`.
    """
    try:
        a = np.asarray(values, dtype=float)
    except (ValueError, TypeError):
        raise ValidationError("log_sum_exp expects an array of numbers") from None
    if axis is None:
        if a.size == 0:
            return LOG_ZERO
        m = float(a.max())
        if m == LOG_ZERO:
            return LOG_ZERO
        return m + math.log(float(np.exp(a - m).sum()))
    try:
        m = a.max(axis=axis, keepdims=True, initial=LOG_ZERO)
    except np.exceptions.AxisError:
        raise ValidationError(f"log_sum_exp: axis {axis} is out of range for an array of shape {a.shape}") from None
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - m_safe).sum(axis=axis)) + np.squeeze(m_safe, axis=axis)
    return out


_FIXED_POINT_SHIFT = 4 * np.finfo(float).eps


def normalize_rows(a) -> tuple[np.ndarray, np.ndarray]:
    """Shift each row of a (..., k) log-domain array so its exponentiated entries sum to one.

    Returns ``(rows, dead)``, ``dead`` flagging the rows of only ``-inf``,
    which come back uniform.  The shift is ``max + log1p(rest)``, the first
    maximal entry split out of the rest.  A row whose shift is within 4 eps
    of zero comes back unchanged, so this is an exact fixed point on its own
    output; when no row moves, ``a`` itself comes back.  An input that is
    not an array of numbers, is 0-d or of width 0, or holds NaN or ``+inf``
    raises :class:`ValidationError`.
    """
    try:
        a = np.asarray(a, dtype=float)
    except (ValueError, TypeError):
        raise ValidationError("normalize_rows expects an array of numbers") from None
    if a.ndim == 0 or a.shape[-1] == 0:
        raise ValidationError(f"normalize_rows expects a (..., k) array with k >= 1, got shape {a.shape}")
    if not (a < math.inf).all():
        raise ValidationError("normalize_rows expects finite or -inf entries, got NaN or +inf")
    rows, dead, _ = _normalized_rows(a)
    return rows, dead


def _normalized_rows(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`normalize_rows` on a checked float array, and each row's log sum (the shift; ``-inf`` on a dead row)."""
    flat = a.reshape(-1, a.shape[-1])
    first = flat.argmax(axis=1) + np.arange(0, flat.size, flat.shape[1])  # flat indices
    top = flat.take(first)
    dead = top == LOG_ZERO
    top[dead] = 0.0
    shifted = flat - top[:, None]  # the top entry lands on exactly zero
    rest = np.exp(shifted)
    rest.put(first, 0.0)
    tail = np.log1p(rest.sum(axis=1))  # 0 on a dead row
    log_sums = top + tail
    move = (np.abs(log_sums) > _FIXED_POINT_SHIFT) | dead
    log_sums[dead] = LOG_ZERO
    shifted[dead] = -math.log(flat.shape[1])
    dead, log_sums = dead.reshape(a.shape[:-1]), log_sums.reshape(a.shape[:-1])
    if not move.any():
        return a, dead, log_sums
    out = np.subtract(shifted, tail[:, None], out=rest)
    np.copyto(out, flat, where=~move[:, None])
    return out.reshape(a.shape), dead, log_sums


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
    """Per-position posterior label distributions, one normalized log row each.

    ``rows`` is a (length, num_labels) Table2, given as any Table2 input.
    """

    rows: Table2

    def __post_init__(self):
        if not isinstance(self.rows, Table2):
            object.__setattr__(self, "rows", Table2(self.rows))

    @property
    def length(self) -> int:
        return len(self.rows)

    def probabilities(self) -> np.ndarray:
        """The rows as a (length, num_labels) probability array."""
        return self.rows.probabilities()

    def mpm_labels(self) -> LabelSeq:
        """Position-wise argmax labels; the lowest index wins on ties."""
        return tuple(np.argmax(self.rows.log_values, axis=1).tolist())


# ---------------------------------------------------------------------------
# Pairwise-factor chain recursions.
#
# A chain over positions 0..n-1 assigns each path x, per column c, the weight
#
#     exp(first[x_0, c] + sum_k (pairs[k, x_k, x_{k+1}] + unary[k, x_{k+1}, c]))
#
# so step k has a (num_states, num_states) table ``pairs[k]`` shared by all
# columns and a per-column log weight ``unary[k]`` of the state it enters;
# ``pairs`` and ``unary`` are stacked arrays, one entry per step.
# The column axis batches independent conditioning contexts (e.g. many
# observation sequences); a single context is simply the one-column case.
# ``chain_parts`` builds this form from CRF factors, the pairwise and
# emission tables.  An HMC enters as the CRF whose pairwise tables are its
# log transitions and whose emissions are its log emissions, with ``log
# init`` folded into emission 0.
#
# The passes hold their messages row-major, one (num_states,) log row per
# column, and take every reduction over states along that last axis, so the
# arithmetic of a column never depends on the other columns of its batch: a
# batch row equals the single-column call bit for bit.  Each message row is
# shifted to a maximum of 0 before it is used and the forward pass adds the
# shifts up apart, so messages stay well-scaled on long chains and large
# potentials.
#
# A step is the scaled product of Rabiner (1989, sec. V.A) on a matrix
# multiply.  With the message row at a maximum of 0 and each table column
# shifted by its maximum, both exponentiate into [0, 1].  How BLAS rounds a
# row of a 2-D product depends on the call's row count, not on the other
# rows, so the product runs as GEMMs of exactly PRODUCT_BLOCK_ROWS rows: the
# full blocks in one stacked matmul, and the rest of the rows in one block
# padded with zero rows.  A row thus gets the same bits wherever it sits,
# and the same on any thread count: verified on OpenBLAS 0.3.31 (Haswell
# kernels) for k = 1..128 at 1, 2, 4 and 8 threads.  Two limits were
# measured: 64-row blocks break from k = 126 with 2 threads, and 32-row
# blocks break single-threaded from k = 193 (except at multiples of 8).
# Above PRODUCT_MAX_STATES states a step runs as a stack of (1, k) @ (k, k)
# products instead, one per row, which BLAS rounds alone.
# The log of the product plus the column shift is the step's log-sum-exp.
#
# Subnormal floats, many times slower to compute with, are kept out of the
# product: both factors are clamped from below at exp(-_CLAMP), about
# 2.6e-304, and the table factor is lifted by the power of two _LIFT, so any
# product of two factor entries is a normal float.  Dividing by _LIFT
# afterwards is exact for every entry above the floor below.
#
# Precision: the clamp raises each of the k terms of a product entry by at
# most 2 exp(-_CLAMP), about 5e-304.  An entry of at least SCALED_FLOOR
# (1e-280) is thus off by less than k * 5e-24 of itself beyond ordinary
# rounding, as exact as a log-domain sum.  An entry below the floor is
# recomputed exactly by ``log_sum_exp`` over its gathered terms, unless its
# message row or its table column is all ``-inf``: then it is exactly
# ``-inf``.
#
# The backward pass normalizes each position as soon as it is final, on a
# state-major (k, count) copy: max, shift, exp and sum run along the states,
# and the sum adds them in order whatever the count (see
# :func:`_normalize_position`).
#
# FACTOR_BLOCK_CELLS bounds both the prepared tables and the recompute gather.
# Each pass prepares the exponentiated tables a block of at most that many
# pair cells at a time; a tiled stack (stride 0 along the steps) has one table
# to prepare.  The exact recompute gathers the k terms of at most
# max(1, FACTOR_BLOCK_CELLS // k) entries at a time, each entry its own row.
# ---------------------------------------------------------------------------

SCALED_FLOOR = 1e-280
FACTOR_BLOCK_CELLS = 2**16
PRODUCT_BLOCK_ROWS = 32
PRODUCT_MAX_STATES = 128
_CLAMP = 699.0
_LIFT = 2.0**996


def chain_parts(pairs, emits, ys):
    """Fold CRF factors and observation rows into ``(first, pairs, unary)`` chain input.

    ``pairs`` is the (length - 1, num_states, num_states) array of log
    tables between adjacent positions and ``emits`` the (length, num_states,
    num_obs) array of emission log tables.  ``ys`` is a (count, length)
    array-like of observation indices, checked by :func:`index_rows`; each
    row becomes one column of the chain.  Position 0's emission is the start
    term; every later one is the unary term of the step entering its
    position.  The unary terms are transposed views of a row-major (length,
    count, num_states) array, the layout the passes use.
    """
    n = len(emits)
    obs = index_rows(ys, n, emits.shape[2], "observation")
    unary = emits[np.arange(n)[:, None], :, obs.T].transpose(0, 2, 1)
    return unary[0], pairs, unary[1:]


def path_log_weight(pairs, emits, x, y) -> float:
    """Log weight of the labeling ``x`` given observations ``y`` under CRF factors.

    Both sequences are checked by :func:`index_rows` against the tables.  The
    terms are summed in order, pairwise terms first.
    """
    n = len(emits)
    x = index_rows([x], n, emits.shape[1], "label")[0]
    y = index_rows([y], n, emits.shape[2], "observation")[0]
    terms = np.concatenate((pairs[np.arange(n - 1), x[:-1], x[1:]], emits[np.arange(n), x, y]))
    return float(np.cumsum(terms)[-1])


def _finite_or_zero(a: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(a), a, 0.0)


def _shifted_rows(m: np.ndarray, out: np.ndarray | None = None):
    """Move each row of the (count, k) ``m`` to a maximum of 0.

    Returns ``(m - shift[:, None], row_max, shift)``, the first written into
    ``out`` when given (it may be ``m``); the shift of an all ``-inf`` row is 0.
    """
    # A row-wise max over few states runs one short loop per row; the max of a
    # state-major copy runs along the rows instead, and a max is exact either way.
    row_max = np.ascontiguousarray(m.T).max(axis=0)
    shift = _finite_or_zero(row_max)
    return np.subtract(m, shift[:, None], out=out), row_max, shift


def _step_factors(pairs, backward: bool = False):
    """Yield ``(k, factor)`` for every step ``k``, what :func:`_log_product` needs.

    ``factor`` is ``(table, maxima, shifts, lifted)``: the step's pairwise
    table, transposed with ``backward``, which also yields the steps last to
    first; its column maxima; the same with 0 for an all ``-inf`` column;
    and ``_LIFT * exp(max(table - shifts, -_CLAMP))``.  The tables are
    prepared a block of steps at a time, a slice of ``pairs`` of at most
    FACTOR_BLOCK_CELLS pair cells (one step when a table is larger); a tiled
    ``pairs`` has its one table prepared once per block.
    """
    n = len(pairs)
    tiled = pairs.strides[0] == 0
    block = max(1, FACTOR_BLOCK_CELLS // math.prod(pairs.shape[1:]))
    for start in range(0, n, block):
        lo, hi = (max(0, n - start - block), n - start) if backward else (start, min(n, start + block))
        lifted = np.array(pairs[lo:lo + 1] if tiled else pairs[lo:hi], dtype=float)
        if backward:
            lifted = lifted.transpose(0, 2, 1)
        maxima = lifted.max(axis=1)
        shifts = _finite_or_zero(maxima)
        lifted -= shifts[:, None, :]
        np.maximum(lifted, -_CLAMP, out=lifted)
        np.exp(lifted, out=lifted)
        lifted *= _LIFT
        for k in (range(hi - 1, lo - 1, -1) if backward else range(lo, hi)):
            i = 0 if tiled else k - lo
            yield k, (pairs[k].T if backward else pairs[k], maxima[i], shifts[i], lifted[i])


def _log_product(rows, row_max, factor):
    """``out[c, j] = log(sum_i exp(rows[c, i] + table[i, j]))`` by a scaled product.

    ``rows`` is (count, k), each row shifted to a maximum of 0 (see
    :func:`_shifted_rows`, which also gives ``row_max``); ``factor`` is the
    table with what the product needs, from :func:`_step_factors`.  See the
    comment above :func:`chain_parts` for the product blocks, the clamp, the
    floor and the exact recompute.
    Entries that underflow to 0 take a log of 0, so the passes call this
    with divide warnings off.
    """
    table, maxima, shifts, lifted = factor
    count, k = rows.shape
    block = PRODUCT_BLOCK_ROWS if k <= PRODUCT_MAX_STATES else 1
    padded = -(-count // block) * block
    left = np.zeros((padded, k))  # zero rows fill the last block
    np.maximum(rows, -_CLAMP, out=left[:count])
    np.exp(left[:count], out=left[:count])
    scaled = np.matmul(left.reshape(-1, block, k), lifted).reshape(padded, k)[:count]
    scaled /= _LIFT
    low = scaled.min() < SCALED_FLOOR
    if low:
        r, c = np.nonzero(scaled < SCALED_FLOOR)
    out = np.log(scaled, out=scaled)
    out += shifts
    if low:
        out[r, c] = LOG_ZERO
        live = np.isfinite(row_max[r]) & np.isfinite(maxima[c])
        r, c = r[live], c[live]
        gather = max(1, FACTOR_BLOCK_CELLS // k)  # entries, of k terms each
        for i in range(0, len(r), gather):
            ri, ci = r[i:i + gather], c[i:i + gather]
            out[ri, ci] = log_sum_exp(rows[ri] + table.T[ci], axis=1)
    return out


def _row_lengths(lengths, count: int, n: int) -> np.ndarray | None:
    """Checked per-row chain lengths as an intp array, or None when every row has all ``n`` positions."""
    if lengths is None:
        return None
    a = np.asarray(lengths)
    if a.dtype.kind not in "iu":
        raise ValidationError(f"lengths must be integers, got {a.dtype} entries")
    if a.shape != (count,):
        raise ValidationError(f"expected {count} lengths, one per row, got shape {a.shape}")
    if a.size and (a.min() < 1 or a.max() > n):
        bad = a[(a < 1) | (a > n)][0]
        raise ValidationError(f"length {bad} out of range [1, {n}]")
    return None if (a == n).all() else a.astype(np.intp, copy=False)


def _active_rows(lengths: np.ndarray | None, count: int, steps: int) -> list[int]:
    """Per step ``t``, how many leading rows take it.

    That is all ``count`` rows, or with ``lengths``, sorted longest first,
    the rows longer than ``t + 1``: a step is taken by a prefix of the rows,
    and there is no step past the longest row.
    """
    if lengths is None:
        return [count] * steps
    return np.searchsorted(-lengths, -np.arange(2, lengths[0] + 1), side="right").tolist()


def _forward_messages(first, pairs, unary, lengths=None):
    """Row-major forward messages, (count, n, k), and the per-column log totals.

    Each stored row has a maximum of 0; the shifts are accumulated apart.
    With ``lengths``, sorted longest first, row ``i`` stops at position
    ``lengths[i] - 1``: its total is taken there, and its messages past it
    are NaN.
    """
    msg = np.ascontiguousarray(np.asarray(first, dtype=float).T)
    count, k = msg.shape
    active = _active_rows(lengths, count, len(pairs))
    shape = (count, len(pairs) + 1, k)
    fwd = np.empty(shape) if lengths is None else np.full(shape, np.nan)
    total_shift = np.zeros(count)
    with np.errstate(divide="ignore"):
        for a, (t, factor) in zip(active, _step_factors(pairs[:len(active)])):
            live = len(msg)
            rows, row_max, shift = _shifted_rows(msg, out=fwd[:live, t])
            total_shift[:live] += shift
            msg = _log_product(rows[:a], row_max[:a], factor)
            msg += unary[t].T[:a]
    live = len(msg)
    _, _, shift = _shifted_rows(msg, out=fwd[:live, len(active)])
    total_shift[:live] += shift
    ends = fwd[:, -1] if lengths is None else fwd[np.arange(count), lengths - 1]
    return fwd, total_shift + log_sum_exp(ends, axis=1)


def chain_log_totals(first: np.ndarray, pairs: np.ndarray, unary: np.ndarray) -> np.ndarray:
    """Per-column log total weight of a batched pairwise-factor chain.

    ``first`` has shape (num_states, num_columns); ``pairs`` is the
    (steps, num_states, num_states) array of pairwise tables, shared across
    columns, and ``unary`` the (steps, num_states, num_columns) log weight
    of each step's destination state.  Columns whose every path has zero
    weight come back as ``-inf``.
    """
    return _forward_messages(first, pairs, unary)[1]


def chain_log_marginals(first: np.ndarray, pairs: np.ndarray, unary: np.ndarray,
                        lengths=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-column chain marginals plus the per-column log totals.

    Takes the ``(first, pairs, unary)`` input of :func:`chain_log_totals`.
    Returns ``(totals, log_marginals)`` with shapes (num_columns,) and
    (num_columns, n, num_states): ``log_marginals[c, k]`` is the normalized
    log marginal of column ``c`` at position ``k``.  Columns with zero total
    weight get a ``-inf`` total and NaN rows; callers decide how to surface
    that (the per-sequence operations raise).

    ``lengths``, one integer in [1, n] per column, makes the columns ragged
    prefixes: column ``c`` takes only its first ``lengths[c]`` positions, so
    its total and marginals are those of the chain cut after that position,
    bit for bit, and its rows past it are NaN.  A bad ``lengths`` raises
    :class:`ValidationError`.  The columns run sorted by length, longest
    first, so that each step works on a prefix of them; the results come
    back in input order.
    """
    lengths = _row_lengths(lengths, np.shape(first)[1], len(pairs) + 1)
    if lengths is not None and (lengths[:-1] < lengths[1:]).any():
        order = np.argsort(-lengths, kind="stable")
        back = np.empty_like(order)
        back[order] = np.arange(len(order))
        # Permute along the columns of unary's row-major (steps, count, k) layout.
        unary = np.take(np.asarray(unary).transpose(0, 2, 1), order, axis=1).transpose(0, 2, 1)
        totals, out = _chain_marginals(np.take(first, order, axis=1), pairs, unary, lengths[order])
        return totals[back], out[back]
    return _chain_marginals(first, pairs, unary, lengths)


def _chain_marginals(first, pairs, unary, lengths):
    """:func:`chain_log_marginals` on checked ``lengths``, None or sorted longest first."""
    out, totals = _forward_messages(first, pairs, unary, lengths)
    count, n, k = out.shape
    active = _active_rows(lengths, count, len(pairs))
    for t in range(len(active), n):  # no backward step reaches these positions
        _normalize_position(out[:, t])
    bwd = np.zeros((active[0] if active else 0, k))  # a row stays 0 until its last step
    with np.errstate(divide="ignore"):
        for t, factor in _step_factors(pairs[:len(active)], backward=True):
            a = active[t]
            bwd[:a] += unary[t].T[:a]
            rows, row_max, _ = _shifted_rows(bwd[:a], out=bwd[:a])
            bwd[:a] = _log_product(rows, row_max, factor)
            out[:a, t] += bwd[:a]
            _normalize_position(out[:, t])
    return totals, out


def _normalize_position(rows: np.ndarray):
    """Normalize in place each row of ``rows``, one position's (count, k) log weights.

    A row is shifted to a maximum of 0 (an all ``-inf`` row turns NaN here),
    then the log of its sum is subtracted.  The clamp keeps exp off
    subnormals; clamped terms are below 1e-303 and the sum is at least 1.
    """
    states = np.ascontiguousarray(rows.T)
    with np.errstate(invalid="ignore"):
        states -= states.max(axis=0)
    terms = np.maximum(states, -_CLAMP)
    np.exp(terms, out=terms)
    # numpy sums pairwise only along the fast axis in memory: over many
    # columns it adds the states in order, but one column is a 1-d sum, which
    # takes the scan, in order too but several times slower on many columns.
    sums = terms.sum(axis=0) if terms.shape[1] > 1 else np.add.accumulate(terms)[-1]
    states -= np.log(sums)
    rows[...] = states.T

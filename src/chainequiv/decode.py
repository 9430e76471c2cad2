"""Decoding: MPM labels per nonblank line of a sequence file, and its marginal columns.

The file is read whole (:func:`read_sequences`), then :func:`decode_lines`
handles its nonblank lines in blocks of DECODE_BLOCK_LINES.  A block takes
block-level calls, with no Python step per line: its tokens become one flat
index array by one ``Alphabet.lookup``, and only lines that fail a check are
visited one by one.
A line with an unknown symbol, or of another length than the model's without
``tile`` or when ``tile`` cannot extend the model, is reported, in that order
of checks.  Whether ``tile`` can extend the model is checked once, at the
first line of another length.  The valid lines are sorted by length, longest
first, and decoded in batch marginals calls, each line a ragged prefix of its
call on the model tiled to the call's longest line.  A call holds at most
DECODE_CALL_CELLS padded cells (lines * longest length * k): the kernel holds
a few arrays of about 8 bytes a cell.  Each run of lines of one length is
assembled as arrays: its labels from one gather of the symbols, its marginal
columns as exact ``"%.6f"`` text from :func:`_marginal_columns`, its lines
scattered back to input order.  A block goes out in input order, one
``writelines`` per run of lines bound for one stream: labelled lines to
stdout, bad and impossible ones to stderr.
"""

import functools
import itertools
import operator
import re
import sys

import numpy as np

from . import crf as _crf
from . import hmc as _hmc
from .crf import ZERO_WEIGHT, CrfModel
from .hmc import ZERO_EVIDENCE, HmcModel
from .modelfile import _read_text
from .tables import LOG_ZERO, ValidationError

DECODE_BLOCK_LINES = 1024
DECODE_CALL_CELLS = 160 * 2**10

# One line with its end: a line ends at "\n", "\r\n" or "\r" only, as editors
# count lines.  Other characters ``str.splitlines`` breaks at ("\v", "\f",
# "\x1c"-"\x1e", "\x85", U+2028, U+2029) are whitespace inside a line, where
# ``str.split`` separates tokens at them.
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def read_sequences(path: str):
    """(line number, symbol tokens) per nonblank line of a sequence file, as an iterator.

    The file is read whole here, so an unreadable or non-UTF-8 one raises
    ParseError before any line is taken; lines are split into tokens only as
    the iterator is advanced.  The iterator is built of C-level parts, with
    no Python step per line.
    """
    text = _read_text(path)
    numbered = zip(itertools.count(1), map(str.split, map(re.Match.group, _LINE.finditer(text))))
    return filter(operator.itemgetter(1), numbered)  # nonblank lines


# ---------------------------------------------------------------------------
# Marginal columns
#
# ``decode --marginals`` prints each marginal as ``"%.6f" % p``, and a
# probability prints as exactly 8 characters, ``d.dddddd``.  So the columns of
# a group of lines are fixed-width text, 9 bytes per cell: the separator, the
# first four characters ``d.dd`` and the last four ``dddd``, each four taken
# from a table by an integer index.  Cells are written into a packed record
# array and decoded to text a chunk of whole lines at a time, at most
# MARGINAL_CHUNK_CELLS cells or one line; no string is made per cell.
#
# Why the digits are those of "%.6f": it prints the exact value p * 10**6
# rounded to an integer (half to even) as millionths.  1e6 is exact in
# binary, so the computed product is that exact value rounded to the nearest
# double, and that rounding is monotonic: the half-integers below 2**52 are
# doubles, so a product that is not a half-integer lies strictly between the
# same two half-integers as the exact value, and its ``rint`` is the same
# integer.  A product that is exactly a half-integer may come from an exact
# value just above or below it; such cells, exact ties such as 2**-7 among
# them, take "%.6f" itself, and so does every cell whose "%.6f" text is not
# ``d.dddddd``: NaN, infinite, negative or -0.0, or 9.5 and above.
# ---------------------------------------------------------------------------

MARGINAL_CHUNK_CELLS = 2**14
_CELL = np.dtype([("separator", "u1"), ("high", "<u4"), ("low", "<u4")])  # packed: 9 bytes
# As unsigned integers, the bits of the doubles in [0, 9.5) are exactly those
# below the bits of 9.5: NaN, infinities, negatives and -0.0 lie above.
_BITS_OF_9_5 = np.float64(9.5).view(np.uint64)


@functools.cache
def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII text ``d.dd`` of 0-950 hundredths and ``dddd`` of 0-9999, four bytes per uint32."""
    high = "".join(f"{i // 100}.{i % 100:02d}" for i in range(951))
    low = "".join(f"{i:04d}" for i in range(10000))
    return np.frombuffer(high.encode("ascii"), "<u4"), np.frombuffer(low.encode("ascii"), "<u4")


def _marginal_columns(probs: np.ndarray, k: int) -> list[str]:
    """Per row of ``probs``, ``"\\t" + ",".join("%.6f" % p ...)`` for each run of ``k`` cells.

    ``probs`` is a (lines, width) float array and ``width`` a multiple of
    ``k``: a row is one line's marginals, position by position.  The text of
    every cell equals ``"%.6f" % p`` for any float ``p``: ``rint(p * 1e6)``
    is the correctly rounded number of millionths unless ``p * 1e6`` rounds
    to a half-integer, and such cells, like those outside [0, 9.5), are
    formatted by "%.6f" one by one (the argument is in full above).  Cells
    are written a chunk of whole lines at a time.
    """
    width = probs.shape[1]
    line_chars = 9 * width
    chunk = max(1, MARGINAL_CHUNK_CELLS // width)
    high_words, low_words = _digit_words()
    separators = np.full(width, ord(","), dtype=np.uint8)
    separators[::k] = ord("\t")
    tails = []
    for start in range(0, len(probs), chunk):
        p = probs[start:start + chunk]
        scaled = p * 1e6
        millionths = np.rint(scaled)
        with np.errstate(invalid="ignore"):  # inf - inf
            exact = (np.abs(scaled - millionths) != 0.5) & (p.view(np.uint64) < _BITS_OF_9_5)
        odd = np.flatnonzero(~exact).tolist()
        millionths.flat[odd] = 0  # no NaN or inf reaches the integer cast
        millionths = millionths.astype(np.int32)
        hundredths = millionths // 10000
        cells = np.empty(p.shape, _CELL)
        cells["separator"] = separators
        cells["high"] = high_words.take(hundredths)
        cells["low"] = low_words.take(millionths - 10000 * hundredths)
        text = cells.tobytes().decode("ascii")
        lines = [text[j:j + line_chars] for j in range(0, len(text), line_chars)]
        # Right to left, so each patch leaves the offsets of the cells before it.
        for f in reversed(odd):
            line, at = divmod(f, width)
            at = 9 * at + 1
            lines[line] = lines[line][:at] + "%.6f" % p.flat[f] + lines[line][at + 8:]
        tails += lines
    return tails


def _tile_error(model) -> str:
    """Why ``--tile`` cannot extend ``model`` to other lengths, or "" when it can."""
    if isinstance(model, CrfModel):
        pairs, emits = model.pair_potentials, model.emit_potentials
    else:
        pairs, emits = model.transitions, model.emissions
    for group, name in ((pairs, "pairwise"), (emits, "emission")):
        if not (group.log_values == group.log_values[:1]).all():
            return f"--tile requires identical {name} tables at every position"
    return "" if len(pairs) else "--tile cannot extend a length-1 model (no pairwise table to repeat)"


def _tiled_model(model, length: int):
    """Retile a time-homogeneous model to another sequence length; its tables stay bit for bit.

    Raises ValidationError with :func:`_tile_error`'s message when it cannot.
    """
    if error := _tile_error(model):
        raise ValidationError(error)
    if isinstance(model, CrfModel):
        return CrfModel.homogeneous(model.hidden, model.obs, length, model.pair_potentials[0],
                                    model.emit_potentials[0], mode=model.mode)
    return HmcModel.homogeneous(model.hidden, model.obs, length, model.init, model.transitions[0],
                                model.emissions[0])


def _runs(values: np.ndarray) -> list[tuple[int, int]]:
    """``(start, stop)`` of each run of equal neighbours in the nonempty 1-d array ``values``."""
    cuts = (np.flatnonzero(values[1:] != values[:-1]) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, len(values)]))


def _chain_calls(lengths: np.ndarray, k: int):
    """``(start, stop)`` of each chain call over lines of ``lengths``, sorted longest first.

    A call holds at most DECODE_CALL_CELLS padded cells, or one line.
    """
    start = 0
    while start < len(lengths):
        stop = min(len(lengths), start + max(1, DECODE_CALL_CELLS // (int(lengths[start]) * k)))
        yield start, stop
        start = stop


def decode_lines(model, lines, tile: bool, marginals: bool) -> tuple[int, int]:
    """Decode ``lines``, ``(line number, tokens)`` pairs, with ``model``; the numbers of bad and impossible lines."""
    # Looked up through the modules, where perfbench/tracing.py wraps them.
    if isinstance(model, CrfModel):
        marginals_batch, zero_message = _crf.crf_posterior_marginals_batch, ZERO_WEIGHT
    else:
        marginals_batch, zero_message = _hmc.hmc_posterior_marginals_batch, ZERO_EVIDENCE
    k = model.hidden.size
    symbols = np.array(model.hidden.symbols, dtype=object)
    tiled = {model.length: model}  # by length, each the longest line of a chain call
    tile_error = functools.cache(functools.partial(_tile_error, model))  # run at most once
    parse_errors = impossible = 0

    while block_lines := list(itertools.islice(lines, DECODE_BLOCK_LINES)):
        line_numbers, tokens = zip(*block_lines)
        counts = np.fromiter(map(len, tokens), np.intp, len(tokens))
        offsets = np.zeros(len(tokens) + 1, dtype=np.intp)  # line i holds flat[offsets[i]:offsets[i + 1]]
        np.cumsum(counts, out=offsets[1:])
        flat = model.obs.lookup(itertools.chain.from_iterable(tokens), int(offsets[-1]))
        texts = np.empty(len(tokens), dtype=object)  # each line's output, in input order
        to_stderr = np.zeros(len(tokens), dtype=bool)

        errors = {}  # position in block -> message
        unknown = np.searchsorted(offsets, np.flatnonzero(flat < 0), side="right") - 1
        for i in dict.fromkeys(unknown.tolist()):  # not np.unique: it imports numpy.ma (1.2 MB)
            try:
                model.obs.indices(tokens[i])  # raises, naming the line's first unknown symbol
            except ValidationError as e:
                errors[i] = str(e)
        valid = np.ones(len(tokens), dtype=bool)
        valid[list(errors)] = False
        other = np.flatnonzero(valid & (counts != model.length)).tolist()
        if not tile:
            for i in other:
                errors[i] = f"expected {model.length} symbols, got {counts[i]} (use --tile for other lengths)"
        elif other and tile_error():
            errors.update(dict.fromkeys(other, tile_error()))
        if errors:
            bad = list(errors)
            valid[bad], to_stderr[bad] = False, True
            texts[bad] = [f"line {line_numbers[i]}: {message}\n" for i, message in errors.items()]
            parse_errors += len(errors)

        order = np.flatnonzero(valid)
        order = order[np.argsort(-counts[order], kind="stable")]
        all_lengths = counts[order]
        for start, stop in _chain_calls(all_lengths, k):
            rows, lengths = order[start:stop], all_lengths[start:stop]
            longest = int(lengths[0])
            padded = np.arange(longest) < lengths[:, None]
            ys = np.zeros((len(rows), longest), dtype=np.intp)  # padded with index 0
            ys[padded] = flat[(offsets[rows, None] + np.arange(longest))[padded]]
            if longest not in tiled:
                tiled[longest] = _tiled_model(model, longest)
            totals, log_marginals = marginals_batch(tiled[longest], ys, lengths)
            for lo, hi in _runs(lengths):
                length, run_rows = int(lengths[lo]), rows[lo:hi]
                run = log_marginals[lo:hi, :length]
                possible = totals[lo:hi] != LOG_ZERO  # the other rows are NaN
                if not possible.all():
                    dead = run_rows[~possible]
                    to_stderr[dead] = True
                    texts[dead] = [f"line {line_numbers[i]}: {zero_message}\n" for i in dead.tolist()]
                    impossible += len(dead)
                    run, run_rows = run[possible], run_rows[possible]
                labels = map(" ".join, symbols[run.argmax(axis=2)].tolist())  # lowest index wins ties
                if marginals:
                    tails = _marginal_columns(np.exp(run).reshape(len(run), length * k), k)
                    texts[run_rows] = list(map("{}{}\n".format, labels, tails))
                else:
                    texts[run_rows] = list(map("{}\n".format, labels))

        for lo, hi in _runs(to_stderr):
            (sys.stderr if to_stderr[lo] else sys.stdout).writelines(texts[lo:hi].tolist())

    return parse_errors, impossible

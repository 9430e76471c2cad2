"""Batch command-line front end: model files, conversion, decoding, verification.

Model files are JSON documents.  Common keys: ``kind`` ("crf" or "hmc"),
``hidden_symbols``, ``obs_symbols``, ``n``, ``mode`` ("strict" or
"generalized").  CRF files carry ``V`` (n-1 pairwise tables) and ``U``
(n emission tables) as nested row-major arrays of natural-log potentials;
the string ``"-inf"`` denotes log of zero.  HMC files carry ``init``,
``trans`` and ``emit`` as probability-domain rows.

Exit codes: 0 ok, 2 parse error, 3 degenerate model, 4 impossible
observation, 5 equivalence failure, 6 budget exceeded.
"""

import argparse
import functools
import itertools
import json
import math
import operator
import os
import re
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import orjson

from . import crf as _crf
from . import hmc as _hmc
from .crf import MODES, STRICT, ZERO_WEIGHT, CrfModel, DegenerateModel, random_crf_model
from .equivalence import crf_to_hmc
from .hmc import ZERO_EVIDENCE, HmcModel
from .oracle import (
    DEFAULT_BUDGET,
    all_sequences,
    enumerate_crf_posterior_batch,
    enumerate_hmc_posterior_batch,
    posterior_matrix_marginals,
)
from .tables import LOG_ZERO, Alphabet, ValidationError

# Not called in this module: perfbench/tracing.py wraps the per-line
# marginals and the conversion under these names.
from .crf import crf_posterior_marginals  # noqa: F401
from .equivalence import crf_to_hmc_generalized  # noqa: F401
from .hmc import hmc_posterior_marginals  # noqa: F401

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_IMPOSSIBLE = 4
EXIT_MISMATCH = 5
EXIT_BUDGET = 6

NEG_INF_TOKEN = "-inf"


class ParseError(ValueError):
    """A model or sequence file was rejected, its CRF could not be converted, or an output not written.

    The message names the spot.
    """


def _read_text(path: str) -> str:
    """The UTF-8 text of ``path`` (``"-"`` for stdin); failures raise ParseError."""
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from None


# ---------------------------------------------------------------------------
# JSON output
#
# Every JSON document the CLI writes has the layout of ``json.dumps(doc,
# indent=2)``, which runs the pure-Python encoder.  An array is written one
# block of its leading axis at a time, at most JSON_BLOCK_CELLS cells (one
# item when an item is larger), by ``orjson.dumps(block,
# OPT_SERIALIZE_NUMPY | OPT_INDENT_2)``.  orjson prints the same shortest
# round-trip digits as ``float.__repr__``, which ``json`` calls, and the
# ``indent=2`` layout of a nested list at level 0; one replacement of "\n"
# moves it to the array's level.  Its number text differs from ``repr`` in
# three layout rules, each rewritten in the block text:
#
# - a positive exponent has no sign: ``1e16`` becomes ``1e+16``;
# - a one-digit negative exponent has no leading zero: ``2.19e-6`` becomes
#   ``2.19e-06``;
# - a cell with 1e-5 <= |x| < 1e-4 is printed positionally:
#   ``0.00002005762503325462`` becomes ``2.005762503325462e-05``.
#
# The first two are one regular expression each, with a constant
# replacement, run when the block text holds an ``e``.  A cell of the third
# kind, or a ``-inf`` cell (orjson writes it as ``null``), is a hole: the
# block is printed with NaN there, which orjson also writes as ``null``; the
# holes are printed by one more orjson call, their digits are moved into the
# ``repr`` layout by array operations (_hole_texts), and the block text is
# split at ``null`` and joined with them.  No step runs per cell: ``repr`` of
# a cell in that band takes about 2 us, some 25 times orjson's time a cell.
# The rest of a document (symbols, counts, the report) is small and keeps
# ``json.dumps(..., indent=2)``.  Pieces are written as they are made.
# ---------------------------------------------------------------------------

JSON_BLOCK_CELLS = 2**14
# ``convert --trace`` writes a trace of at least FORK_CELLS cells from a forked
# process while this one writes the HMC (see _write_outputs).  The writer
# takes about 0.15-0.35 us a cell, and fork plus wait about 4 ms.  On a 2-vCPU
# Xeon, converting k = 16 models in one process, forking cost 4.4 ms at
# 11,264 trace cells, broke even within about 1 ms from 23,000 to 46,000,
# and saved 4-7 ms at 69,000 and 19 ms at 138,000.
FORK_CELLS = 2**15

_POSITIVE_EXPONENT = re.compile(rb"e(?=\d)")
_ONE_DIGIT_EXPONENT = re.compile(rb"e-(?=\d[,\n])")
_NEG_INF_JSON = f'"{NEG_INF_TOKEN}"'.encode()


def _indent(level: int) -> str:
    return "\n" + "  " * level


def _hole_texts(cells: np.ndarray) -> list[bytes]:
    """The ``json`` text of each of ``cells``, a 1-d array of ``-inf`` and of cells with 1e-5 <= |x| < 1e-4.

    orjson writes ``-inf`` as ``null``, and a cell in that band as ``0.0000``
    and its shortest digits D, after a ``-`` when negative; ``repr`` writes
    D[0], then ``.`` and D[1:] when D has more than one digit, then ``e-05``.
    The digits are moved in place by array operations over all cells at once.
    """
    text = np.frombuffer(bytearray(orjson.dumps(cells, option=orjson.OPT_SERIALIZE_NUMPY)), np.uint8)
    point = np.flatnonzero(text == ord("."))  # in 0.0000D, one per cell in the band
    single = (text[point + 6] == ord(",")) | (text[point + 6] == ord("]"))  # D is one digit
    text[point + 4] = text[point + 5]
    text[point + 5] = np.where(single, 0, ord("."))
    for k in range(-1, 4):
        text[point + k] = 0  # 0.000
    text = text[text != 0].tobytes()[1:-1].replace(b",", b"e-05,") + b"e-05"
    return text.replace(b"nulle-05", _NEG_INF_JSON).split(b",")


def _block_text(block: np.ndarray, indent: bytes) -> str:
    """The items of the float array ``block`` as ``json.dumps(block.tolist(), indent=2)`` lays them out.

    The text is moved to the level of ``indent``: it starts with ``indent``
    + "  " and the first item, and ends with the last item.
    """
    magnitude = np.abs(block)
    holes = ((1e-5 <= magnitude) & (magnitude < 1e-4)) | (block == -math.inf)
    has_holes = holes.any()
    text = orjson.dumps(np.where(holes, math.nan, block) if has_holes else np.ascontiguousarray(block),
                        option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_INDENT_2)
    if b"e" in text:
        text = _ONE_DIGIT_EXPONENT.sub(b"e-0", _POSITIVE_EXPONENT.sub(b"e+", text))
    if has_holes:
        tokens = _hole_texts(block[holes])
        pieces = [b""] * (2 * len(tokens) + 1)
        pieces[::2], pieces[1::2] = text.split(b"null"), tokens
        text = b"".join(pieces)
    return text[1:-2].replace(b"\n", indent).decode()  # no outer brackets


def _array_pieces(a: np.ndarray, level: int):
    """The ``indent=2`` text of the float array ``a`` in pieces, as a value on a line at ``level``.

    Cells are shortest round-trip decimals and ``-inf`` is its string token;
    ``a`` holds no NaN or ``+inf`` and only its leading axis may be empty.
    """
    if len(a) == 0:
        yield "[]"
        return
    rows = max(1, JSON_BLOCK_CELLS // math.prod(a.shape[1:]))
    indent = _indent(level).encode()
    yield "["
    for start in range(0, len(a), rows):
        yield ("," if start else "") + _block_text(a[start:start + rows], indent)
    yield _indent(level) + "]"


def _json_pieces(doc: dict):
    """Check ``doc`` whole, then return its pieces: ``json.dumps(doc, indent=2) + "\\n"``.

    ``doc`` maps names to numpy arrays, written by :func:`_array_pieces`, or
    to other JSON values, each run of which is one ``json.dumps`` of its
    items.  A NaN or infinite number, other than ``-inf`` in an array,
    raises ValueError here, before any piece exists.
    """
    runs = []  # the text of a run of other items, or (quoted key, array)
    for is_array, items in itertools.groupby(doc.items(), lambda item: isinstance(item[1], np.ndarray)):
        if not is_array:
            runs.append(json.dumps(dict(items), indent=2, allow_nan=False)[1:-2])  # no braces
            continue
        for key, value in items:
            value = np.asarray(value, dtype=float)
            if not (value < math.inf).all():
                raise ValueError(f"{key}: NaN and +inf cannot be written as JSON")
            runs.append((json.dumps(key), value))

    def pieces():
        for i, run in enumerate(runs):
            yield "," if i else "{"
            if isinstance(run, str):
                yield run
            else:
                yield _indent(1) + run[0] + ": "
                yield from _array_pieces(run[1], 1)
        yield "\n}\n"

    return pieces()


def _write_json(path: str, doc: dict):
    """Write ``doc`` to ``path`` (``"-"`` for stdout) piece by piece; see :func:`_json_pieces`.

    A failed open or write raises ParseError ``cannot write PATH: reason``.
    """
    pieces = _json_pieces(doc)
    try:
        if path == "-":
            sys.stdout.writelines(pieces)
        else:
            with open(path, "w") as out:
                out.writelines(pieces)
    except OSError as e:
        raise ParseError(f"cannot write {path}: {e}") from None


def _same_target(a: str, b: str) -> bool:
    """Whether the output paths ``a`` and ``b`` name one target: both stdout, or one file.

    ``-`` and a path are one target when stdout's descriptor and the path
    stat as one file (``/dev/stdout``, or the file stdout is redirected to);
    a stdout without a file descriptor is never a path's target.
    """
    if a == b:
        return True
    if "-" in (a, b):
        try:
            return os.path.samestat(os.fstat(sys.stdout.fileno()), os.stat(b if a == "-" else a))
        except (OSError, ValueError):  # no descriptor, or a file that does not exist yet
            return False
    try:
        return os.path.samefile(a, b)
    except OSError:  # a file that does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


def _write_outputs(writes, cells: int):
    """Run ``writes``, two ``(path, write)`` pairs, one after the other or both at once.

    They run at once (:func:`_write_forked`) when ``cells`` is at least
    FORK_CELLS, the platform has ``os.fork`` and the paths name different
    targets; in order when the fork itself fails.  In order, stdout is
    flushed between the writes, and when the first wrote stdout's own
    file through its path and the second writes ``-``, stdout's file is
    started again, as a second open of the path would, so the bytes are
    those of one path named twice.
    """
    (path_a, write_a), (path_b, write_b) = writes
    same = _same_target(path_a, path_b)
    if cells >= FORK_CELLS and hasattr(os, "fork") and not same and _write_forked(writes):
        return
    write_a()
    sys.stdout.flush()  # before write_b opens a path that may be stdout's file
    if same and path_b == "-" != path_a and sys.stdout.seekable():
        sys.stdout.seek(0)
        sys.stdout.truncate()
    write_b()


def _write_forked(writes) -> bool:
    """Run ``writes`` at once, one in a forked child; False, with nothing written, if the fork fails.

    The child runs the write with a file path, the second when both have
    one, and leaves through ``os._exit``, so it never returns into the
    caller and never touches stdout; it only formats text and writes one
    file, with no BLAS call.  This process runs the other write meanwhile
    and reaps the child on every path.  A write that fails with ParseError
    (``cannot write``) leaves the other's output complete; once both are
    done, the failure is raised here, the first write's when both fail.
    Any other failure of the child raises RuntimeError with the child's
    traceback.  A pipe or fork refused by the system (EMFILE, EAGAIN,
    ENOMEM) closes what was opened and returns False.
    """
    child = 1 if writes[1][0] != "-" else 0
    sys.stdout.flush()
    sys.stderr.flush()
    ends = ()
    try:
        ends = read_end, write_end = os.pipe()
        pid = os.fork()
    except OSError:
        for end in ends:
            os.close(end)
        return False
    if pid == 0:
        _run_forked(writes[child][1], read_end, write_end)
    os.close(write_end)
    failures = {}
    try:
        writes[1 - child][1]()
    except ParseError as e:
        failures[1 - child] = e
    finally:
        with open(read_end, "rb") as pipe:
            report = pipe.read().decode()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == EXIT_PARSE:
        failures[child] = ParseError(report)
    elif code != EXIT_OK:
        raise RuntimeError(f"the writer of {writes[child][0]} exited with {code}:\n{report}")
    if failures:
        raise failures[min(failures)]
    return True


def _run_forked(write, read_end: int, write_end: int):
    """The child of :func:`_write_forked`: run ``write``, send any failure down the pipe, exit."""
    code = 1
    try:
        os.close(read_end)
        try:
            write()
            code, report = EXIT_OK, ""
        except ParseError as e:
            code, report = EXIT_PARSE, str(e)
        except BaseException:
            report = traceback.format_exc()
        with open(write_end, "wb") as pipe:
            pipe.write(report.encode())
    finally:
        os._exit(code)


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------


def _parse_number(value, path: str) -> float:
    if value == NEG_INF_TOKEN:
        return float("-inf")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f'{path}: expected a number or "{NEG_INF_TOKEN}", got {value!r}')
    try:
        v = float(value)
    except OverflowError:  # an integer literal beyond the float range
        v = math.inf
    if math.isnan(v) or math.isinf(v):
        raise ParseError(f'{path}: non-finite values must be written as "{NEG_INF_TOKEN}"')
    return v


def _plain_array(value, shape: tuple[int, ...], nonnegative: bool) -> np.ndarray | None:
    """``value`` as a float array if it is a valid nested list of ``shape``, else None.

    Checks every cell without a call per cell: one conversion of the whole
    list, a set of the cell types, and vectorized finite and sign checks;
    only a list holding strings is searched for them.  Cells may be ints,
    floats and ``"-inf"`` tokens; a non-finite number (``1e999`` parses to
    inf) or a bool, any other string (numpy reads ``"1.5"`` as a number) or
    a negative cell under ``nonnegative`` makes the result None.
    """
    try:
        a = np.array(value, dtype=float)  # numpy reads the "-inf" token as -inf
    except (ValueError, TypeError, OverflowError):
        return None
    if a.shape != shape:
        return None
    cells = value
    for _ in shape[1:]:
        cells = list(itertools.chain.from_iterable(cells))
    types = set(map(type, cells))
    if not types <= {int, float, str}:
        return None
    tokens = 0
    if str in types:
        strings = list(filter(str.__instancecheck__, cells))
        tokens = strings.count(NEG_INF_TOKEN)
        if tokens != len(strings):
            return None
    if np.isfinite(a).sum() + tokens != a.size or (nonnegative and (a < 0).any()):
        return None
    return a


def _parse_array(value, shape: tuple[int, ...], path: str, nonnegative: bool = False) -> np.ndarray:
    """A nested JSON list of the given ``shape`` as a float array.

    Each level must be a list of exactly ``shape[0]`` items; cells are parsed
    by :func:`_parse_number` and, with ``nonnegative``, must not be negative.
    Valid input takes :func:`_plain_array`; otherwise the checks below run
    level by level and cell by cell, and the first failing one names its spot.
    """
    plain = _plain_array(value, shape, nonnegative)
    if plain is not None:
        return plain
    if not isinstance(value, list) or len(value) != shape[0]:
        unit = ("entries", "rows", "tables")[len(shape) - 1]
        raise ParseError(f"{path}: expected {shape[0]} {unit}")
    if len(shape) > 1:
        items = [_parse_array(v, shape[1:], f"{path}[{i}]", nonnegative)
                 for i, v in enumerate(value)]
        return np.array(items).reshape(shape)  # keeps the shape of an empty list
    out = []
    for j, cell in enumerate(value):
        v = _parse_number(cell, f"{path}[{j}]")
        if nonnegative and v < 0:
            raise ParseError(f"{path}[{j}]: probabilities must be nonnegative")
        out.append(v)
    return np.array(out)


def _symbols(value, path: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not value or not all(isinstance(s, str) for s in value):
        raise ParseError(f"{path}: expected a nonempty list of strings")
    if len(set(value)) != len(value):
        raise ParseError(f"{path}: symbols must be unique")
    return tuple(value)


def _json_object(text: str) -> dict:
    """The JSON object in ``text`` as Python's ``json`` reads it.

    Bad syntax, a non-finite literal, nesting too deep for the parser's
    recursion, or a value other than an object raise ParseError.
    """
    def reject_constant(name):
        raise ParseError(f'non-finite literal {name} is not allowed; use "{NEG_INF_TOKEN}"')

    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError("top level: nested too deeply to read") from None
    if not isinstance(doc, dict):
        raise ParseError("top level: expected a JSON object")
    return doc


# orjson 3.9 and later refuse nesting deeper than 1024 levels; 3.8 recurses
# on the C stack without a limit and crashes the process some 10^4-10^6
# levels down.  A text that may nest deeper is left to json.
ORJSON_DEPTH = 1024
_NOT_BRACKET_OR_QUOTE = bytes(sorted(set(range(256)) - set(b'[]{}"')))


def _nests_deeper(raw: bytes, limit: int) -> bool:
    """Whether a JSON parser may nest more than ``limit`` levels deep in the UTF-8 text ``raw`` before its first error.

    Escaped backslashes, then escaped quotes, are dropped, then every byte
    but brackets and quotes, so the quotes left open and close strings;
    the depth is the running count of the brackets outside them.  Up to
    the text's first error this is the parser's own count, and past it a
    count can only raise the maximum.  No step runs per byte in Python,
    and a text of at most ``limit`` brackets and quotes is answered by
    their number.
    """
    if b"\\" in raw:
        raw = raw.replace(b"\\\\", b"").replace(b'\\"', b"")
    marks = raw.translate(None, _NOT_BRACKET_OR_QUOTE)
    if len(marks) <= limit:
        return False
    marks = np.frombuffer(marks, np.uint8)
    quotes = marks == ord('"')
    brackets = marks[~quotes & (np.cumsum(quotes) % 2 == 0)]
    return bool(np.cumsum((brackets & 2).astype(np.intp) - 1).max(initial=0) > limit)  # [{ have bit 1, ]} not


def _orjson_object(text: str) -> dict | None:
    """The JSON object in ``text`` as orjson reads it.

    None when orjson refuses ``text``, when it may nest deeper than
    ORJSON_DEPTH, or when it holds a value other than an object.
    """
    try:
        if _nests_deeper(text.encode(), ORJSON_DEPTH):
            return None
        doc = orjson.loads(text)
    except (UnicodeEncodeError, orjson.JSONDecodeError):  # a lone surrogate, or what orjson refuses
        return None
    return doc if isinstance(doc, dict) else None


@dataclass
class ModelFile:
    """The raw content of a model file, exactly as serialized.

    Keeping the parsed numbers verbatim (rather than the validated model)
    makes write-then-read reproduce every table entry exactly.
    """

    kind: str
    hidden_symbols: tuple[str, ...]
    obs_symbols: tuple[str, ...]
    n: int
    mode: str
    V: np.ndarray | None = None        # (n-1, k, k), log domain, CRF only
    U: np.ndarray | None = None        # (n, k, l)
    init: np.ndarray | None = None     # (k,), probability domain, HMC only
    trans: np.ndarray | None = None    # (n-1, k, k)
    emit: np.ndarray | None = None     # (n, k, l)

    @classmethod
    def from_json(cls, text: str) -> "ModelFile":
        """The model file in ``text``, as Python's ``json`` and the checks below read it.

        orjson reads the text first, some three times as fast.  A text it
        refuses (``1e999``, ``NaN``, a lone surrogate, a BOM, bad syntax),
        a value other than an object, or a document the checks reject
        (orjson reads an integer of 2^64 or more as a float) is read again
        by ``json``, so the files accepted, their arrays bit for bit, and
        every message are ``json``'s.
        """
        doc = _orjson_object(text)
        if doc is not None:
            try:
                return cls._from_document(doc)
            except (ParseError, RecursionError):  # the repr of a deep value in a message can recurse too far
                doc = None  # freed before json reads the text again
        return cls._from_document(_json_object(text))

    @classmethod
    def _from_document(cls, doc: dict) -> "ModelFile":
        kind = doc.get("kind")
        if kind not in ("crf", "hmc"):
            raise ParseError(f'kind: expected "crf" or "hmc", got {kind!r}')
        hidden = _symbols(doc.get("hidden_symbols"), "hidden_symbols")
        obs = _symbols(doc.get("obs_symbols"), "obs_symbols")
        n = doc.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ParseError(f"n: expected an integer >= 1, got {n!r}")
        mode = doc.get("mode", STRICT)
        if mode not in MODES:
            raise ParseError(f"mode: expected one of {MODES}, got {mode!r}")

        k, l = len(hidden), len(obs)
        if kind == "crf":
            for key in ("init", "trans", "emit"):
                if key in doc:
                    raise ParseError(f"{key}: not a CRF file key")
            v = _parse_array(doc.get("V"), (n - 1, k, k), "V")
            u = _parse_array(doc.get("U"), (n, k, l), "U")
            if mode == STRICT:
                for name, tables in (("V", v), ("U", u)):
                    zeros = ~np.isfinite(tables).all(axis=(1, 2))
                    if zeros.any():
                        raise ParseError(f'{name}[{int(np.argmax(zeros))}]: '
                                         f'contains "{NEG_INF_TOKEN}" but mode is "strict"')
            return cls(kind, hidden, obs, n, mode, V=v, U=u)

        for key in ("V", "U"):
            if key in doc:
                raise ParseError(f"{key}: not an HMC file key")
        init = _parse_array(doc.get("init"), (k,), "init", nonnegative=True)
        trans = _parse_array(doc.get("trans"), (n - 1, k, k), "trans", nonnegative=True)
        emit = _parse_array(doc.get("emit"), (n, k, l), "emit", nonnegative=True)
        return cls(kind, hidden, obs, n, mode, init=init, trans=trans, emit=emit)

    def _document(self) -> dict:
        doc = {
            "kind": self.kind,
            "hidden_symbols": list(self.hidden_symbols),
            "obs_symbols": list(self.obs_symbols),
            "n": self.n,
            "mode": self.mode,
        }
        keys = ("V", "U") if self.kind == "crf" else ("init", "trans", "emit")
        return doc | {key: getattr(self, key) for key in keys}

    def to_json(self) -> str:
        return "".join(_json_pieces(self._document()))

    @classmethod
    def load(cls, path: str) -> "ModelFile":
        return cls.from_json(_read_text(path))

    def dump(self, path: str):
        _write_json(path, self._document())

    @classmethod
    def from_crf(cls, model: CrfModel) -> "ModelFile":
        return cls(
            "crf", model.hidden.symbols, model.obs.symbols, model.length, model.mode,
            V=model.pair_potentials.log_values, U=model.emit_potentials.log_values,
        )

    @classmethod
    def from_hmc(cls, model: HmcModel, mode: str = STRICT) -> "ModelFile":
        return cls(
            "hmc", model.hidden.symbols, model.obs.symbols, model.length, mode,
            init=model.init.probabilities(), trans=model.transitions.probabilities(),
            emit=model.emissions.probabilities(),
        )

    def to_model(self):
        """Validate into a CrfModel or HmcModel; parse-level failures re-raise."""
        hidden, obs = Alphabet(self.hidden_symbols), Alphabet(self.obs_symbols)
        try:
            if self.kind == "crf":
                return CrfModel(hidden, obs, self.V, self.U, mode=self.mode)
            return HmcModel.from_probabilities(hidden, obs, self.init, self.trans, self.emit)
        except ValidationError as e:
            raise ParseError(str(e)) from None


# ---------------------------------------------------------------------------
# Sequence files
# ---------------------------------------------------------------------------


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
# array MARGINAL_CHUNK_CELLS at a time and decoded to text once per chunk;
# no string is made per cell.
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
    are written a chunk at a time; a chunk may end inside a line.
    """
    width = probs.shape[1]
    line_chars = 9 * width
    flat = probs.reshape(-1)
    high_words, low_words = _digit_words()
    # A chunk's worth from any column, filled in place: np.resize of one
    # line's pattern makes a copy per repeat, about 20 us a call.
    separators = np.full(MARGINAL_CHUNK_CELLS + width, ord(","), dtype=np.uint8)
    separators[::k] = ord("\t")
    tails, carry, fallback = [], "", []
    for start in range(0, flat.size, MARGINAL_CHUNK_CELLS):
        p = flat[start:start + MARGINAL_CHUNK_CELLS]
        scaled = p * 1e6
        millionths = np.rint(scaled)
        with np.errstate(invalid="ignore"):  # inf - inf
            exact = (np.abs(scaled - millionths) != 0.5) & (p < 9.5) & ~np.signbit(p)
        odd = np.flatnonzero(~exact)
        if odd.size:
            millionths[odd] = 0  # no NaN or inf reaches the integer cast
            fallback.append(odd + start)
        millionths = millionths.astype(np.int32)
        hundredths = millionths // 10000
        cells = np.empty(len(p), _CELL)
        cells["separator"] = separators[start % width:][:len(p)]
        cells["high"] = high_words.take(hundredths)
        cells["low"] = low_words.take(millionths - 10000 * hundredths)
        text = carry + cells.tobytes().decode("ascii")
        whole = len(text) - len(text) % line_chars
        tails += [text[j:j + line_chars] for j in range(0, whole, line_chars)]
        carry = text[whole:]
    # Right to left, so each patch leaves the offsets of the cells before it.
    for f in reversed(np.concatenate(fallback).tolist() if fallback else []):
        line, at = divmod(f, width)
        at = 9 * at + 1
        tails[line] = tails[line][:at] + "%.6f" % flat[f] + tails[line][at + 8:]
    return tails


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_random(args) -> int:
    try:
        model = random_crf_model(args.n, args.hidden, args.obs, seed=args.seed, mode=args.mode)
        ModelFile.from_crf(model).dump(args.output)
    except (ValidationError, ParseError) as e:
        return _fail(EXIT_PARSE, str(e))
    return EXIT_OK


def _load_crf(path: str, command: str) -> CrfModel:
    """The CRF in the model file at ``path``; ``command`` names the caller in errors."""
    mf = ModelFile.load(path)
    if mf.kind != "crf":
        raise ParseError(f'kind: {command} expects a "crf" model file')
    return mf.to_model()


def _to_hmc(model: CrfModel):
    """``(hmc, trace)`` of the model, strict or generalized, from :func:`crf_to_hmc`.

    Raises DegenerateModel for a CRF of zero total weight, and ParseError
    when the constructed rows fail the HMC checks.
    """
    try:
        return crf_to_hmc(model)
    except ValidationError as e:
        # A guard: every row is normalized by its own maximum, so built rows
        # pass the HMC checks at any potentials below the CRF's score limit.
        raise ParseError(f"the HMC construction built rows that fail the HMC checks: {e}") from None


def cmd_convert(args) -> int:
    try:
        model = _load_crf(args.model, "convert")
        hmc, trace = _to_hmc(model)
    except ParseError as e:
        return _fail(EXIT_PARSE, str(e))
    except DegenerateModel as e:
        return _fail(EXIT_DEGENERATE, str(e))

    def write_hmc():
        ModelFile.from_hmc(hmc, mode=model.mode).dump(args.output)

    try:
        if args.trace is None:
            write_hmc()
        else:
            doc = {
                "psi": trace.psi.log_values,
                "phi": trace.phi.log_values,
                "beta": trace.beta.log_values,
                "unreachable": [sorted(u) for u in trace.unreachable],
            }
            cells = sum(doc[key].size for key in ("psi", "phi", "beta"))
            _write_outputs([(args.output, write_hmc),
                            (args.trace, functools.partial(_write_json, args.trace, doc))], cells)
    except ParseError as e:
        return _fail(EXIT_PARSE, str(e))
    return EXIT_OK


def _tiled_model(model, length: int):
    """Retile a time-homogeneous model to another sequence length; its tables stay bit for bit."""
    if isinstance(model, CrfModel):
        pairs, emits = model.pair_potentials, model.emit_potentials
    else:
        pairs, emits = model.transitions, model.emissions
    for group, name in ((pairs, "pairwise"), (emits, "emission")):
        if not (group.log_values == group.log_values[:1]).all():
            raise ValidationError(f"--tile requires identical {name} tables at every position")
    if not len(pairs):
        raise ValidationError("--tile cannot extend a length-1 model (no pairwise table to repeat)")
    if isinstance(model, CrfModel):
        return CrfModel.homogeneous(model.hidden, model.obs, length, pairs[0], emits[0],
                                    mode=model.mode)
    return HmcModel.homogeneous(model.hidden, model.obs, length, model.init, pairs[0], emits[0])


# ``decode`` works through its nonblank lines in blocks of at most
# DECODE_BLOCK_LINES, and of at most DECODE_BLOCK_CELLS // k**2 lines for wide
# label sets: the chain kernel's exact recompute of underflowed entries
# gathers up to lines * k**2 cells in one step, and this keeps that gather
# bounded.  A block takes block-level calls, with no Python step per line:
# its tokens are looked up by one ``Alphabet.lookup``, and only lines that
# fail a check are visited one by one.  Its valid lines go to the chain kernel
# sorted by length, longest first, as ragged prefixes of one call at the
# longest length, each call at most DECODE_CALL_CELLS padded cells (lines *
# longest length * k): the kernel holds a few arrays of about 8 bytes a cell.
DECODE_BLOCK_LINES = 1024
DECODE_BLOCK_CELLS = 2**20
DECODE_CALL_CELLS = 160 * 2**10


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


def cmd_decode(args) -> int:
    """MPM labels per nonblank sequence line, with ``--marginals`` also its marginal columns.

    The file is read whole, then its nonblank lines are handled a block at a
    time (see DECODE_BLOCK_LINES).  A block's tokens become one flat index
    array; a line with an unknown symbol, of the wrong length without
    ``--tile``, or of a length the model cannot be retiled to is reported, in
    that order of checks.  The valid lines are sorted by length, longest
    first, and decoded in batch marginals calls of bounded size, each line a
    ragged prefix of its call.  Each run of lines of one length is assembled
    as arrays: its labels from one gather of the symbols, its marginal columns
    as exact ``"%.6f"`` text from :func:`_marginal_columns`, its lines
    scattered back to input order.  A block goes out in input order, one
    ``writelines`` per run of lines bound for one stream: labelled lines to
    stdout, bad and impossible ones to stderr.
    """
    if args.model == "-" and args.sequences == "-":
        return _fail(EXIT_PARSE, "the model and the sequences cannot both come from stdin")
    try:
        mf = ModelFile.load(args.model)
        model = mf.to_model()
        lines = read_sequences(args.sequences)
    except ParseError as e:
        return _fail(EXIT_PARSE, str(e))

    # Looked up through the modules, where perfbench/tracing.py wraps them.
    if isinstance(model, CrfModel):
        marginals_batch, zero_message = _crf.crf_posterior_marginals_batch, ZERO_WEIGHT
    else:
        marginals_batch, zero_message = _hmc.hmc_posterior_marginals_batch, ZERO_EVIDENCE
    k = model.hidden.size
    block = min(DECODE_BLOCK_LINES, max(1, DECODE_BLOCK_CELLS // k**2))
    symbols = np.array(model.hidden.symbols, dtype=object)
    index_type = np.min_scalar_type(model.obs.size)  # the batch call makes its own intp copy
    tiled = {model.length: model}
    untileable = {}  # line length -> the message of its failed retile
    parse_errors = impossible = 0

    while block_lines := list(itertools.islice(lines, block)):
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
        if not args.tile:
            for i in np.flatnonzero(valid & (counts != model.length)).tolist():
                errors[i] = f"expected {model.length} symbols, got {counts[i]} (use --tile for other lengths)"
        else:
            for length in set(counts[valid].tolist()):
                if length not in tiled and length not in untileable:
                    try:
                        tiled[length] = _tiled_model(model, length)
                    except ValidationError as e:
                        untileable[length] = str(e)
                if length in untileable:
                    for i in np.flatnonzero(valid & (counts == length)).tolist():
                        errors[i] = untileable[length]
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
            ys = np.zeros((len(rows), longest), dtype=index_type)  # padded with index 0
            ys[padded] = flat[(offsets[rows, None] + np.arange(longest))[padded]]
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
                if args.marginals:
                    tails = _marginal_columns(np.exp(run).reshape(len(run), length * k), k)
                    texts[run_rows] = list(map("{}{}\n".format, labels, tails))
                else:
                    texts[run_rows] = list(map("{}\n".format, labels))

        for lo, hi in _runs(to_stderr):
            (sys.stderr if to_stderr[lo] else sys.stdout).writelines(texts[lo:hi].tolist())

    if parse_errors:
        return EXIT_PARSE
    if impossible:
        return EXIT_IMPOSSIBLE
    return EXIT_OK


def cmd_verify(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        return _fail(EXIT_PARSE, f"--tolerance must be a finite number >= 0, got {args.tolerance}")
    if args.budget < 1:
        return _fail(EXIT_PARSE, f"--budget must be at least 1, got {args.budget}")
    if args.samples is not None and args.samples < 1:
        return _fail(EXIT_PARSE, f"--samples must be at least 1, got {args.samples}")
    if args.seed < 0:
        return _fail(EXIT_PARSE, f"--seed must be at least 0, got {args.seed}")
    try:
        model = _load_crf(args.model, "verify")
        against = None
        if args.against is not None:
            amf = ModelFile.load(args.against)
            if amf.kind != "hmc":
                raise ParseError('kind: --against expects an "hmc" model file')
            against = amf.to_model()
            if (against.hidden.symbols != model.hidden.symbols
                    or against.obs.symbols != model.obs.symbols
                    or against.length != model.length):
                raise ParseError("--against model does not match the CRF's alphabets and length")
        hmc = against if against is not None else _to_hmc(model)[0]
    except ParseError as e:
        return _fail(EXIT_PARSE, str(e))
    except DegenerateModel as e:
        return _fail(EXIT_DEGENERATE, str(e))

    k, l, n = model.hidden.size, model.obs.size, model.length
    num_labelings = k**n
    if num_labelings > args.budget:
        return _fail(EXIT_BUDGET,
                     f"{k}^{n} = {num_labelings} labelings exceed the budget of {args.budget}")
    exhaustive = l**n * num_labelings <= args.budget
    if exhaustive:
        ys = all_sequences(l, n)
    elif args.samples is not None:
        ys = np.random.default_rng(args.seed).integers(0, l, size=(args.samples, n), dtype=np.intp)
    else:
        return _fail(EXIT_BUDGET,
                     f"exhaustive check needs {l}^{n} * {k}^{n} = {l**n * num_labelings} "
                     f"enumerations, over the budget of {args.budget}; pass --samples")

    chunk = max(1, args.budget // num_labelings)
    checked = skipped = 0
    worst = -1.0
    worst_y = None
    worst_pos = 0
    for start in range(0, len(ys), chunk):
        block = ys[start:start + chunk]
        pc, log_kappa = enumerate_crf_posterior_batch(model, block, budget=args.budget)
        ph, _ = enumerate_hmc_posterior_batch(hmc, block, budget=args.budget)
        valid = ~np.isneginf(log_kappa)
        skipped += int((~valid).sum())
        if not valid.any():
            continue
        if not valid.all():
            pc, ph, block = pc[valid], ph[valid], block[valid]
        # A NaN can only fill a whole dead HMC row, whose NaN maximum is overwritten.
        diffs = np.abs(pc - ph).max(axis=1)
        diffs[np.isnan(ph[:, 0])] = 1.0
        checked += len(block)
        i = int(np.argmax(diffs))
        if diffs[i] > worst:
            worst = float(diffs[i])
            worst_y = tuple(int(v) for v in block[i])
            mc = posterior_matrix_marginals(pc[i:i + 1], k, n)
            mh = posterior_matrix_marginals(np.nan_to_num(ph[i:i + 1], nan=0.0), k, n)
            worst_pos = int(np.argmax(np.abs(mc - mh).max(axis=2)))

    if checked == 0:
        return _fail(EXIT_DEGENERATE, "every checked observation sequence has zero evidence")

    passed = worst <= args.tolerance
    report = {
        "hidden_size": k,
        "obs_size": l,
        "n": n,
        "mode": model.mode,
        "exhaustive": bool(exhaustive),
        "sequences_checked": int(checked),
        "sequences_skipped_zero_evidence": int(skipped),
        "max_discrepancy": float(worst),
        "worst_y": [model.obs.symbol(i) for i in worst_y],
        "worst_position": worst_pos,
        "tolerance": float(args.tolerance),
        "passed": bool(passed),
    }
    print(f"checked {checked} observation sequence(s)"
          + (f", skipped {skipped} with zero evidence" if skipped else "")
          + f" ({'exhaustive' if exhaustive else 'sampled'})")
    print(f"max posterior discrepancy: {worst:.3e} (tolerance {args.tolerance:.1e})")
    print(f"worst y: {' '.join(report['worst_y'])} (position {worst_pos})")
    print("PASS" if passed else "FAIL")
    if args.report is not None:
        try:
            _write_json(args.report, report)
        except ParseError as e:
            return _fail(EXIT_PARSE, str(e))
    return EXIT_OK if passed else EXIT_MISMATCH


# Built once per process: ``main`` only calls ``parse_args`` on it, which
# returns a fresh namespace each time and leaves the parser as it was.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainequiv",
        description="Linear-chain CRFs, hidden Markov chains, and the exact conversion between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("random", help="generate a seeded random CRF model file")
    p.add_argument("--n", type=int, required=True, help="sequence length (>= 1)")
    p.add_argument("--hidden", type=int, required=True, help="number of hidden labels")
    p.add_argument("--obs", type=int, required=True, help="number of observation symbols")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--mode", choices=MODES, default=STRICT,
                   help='"generalized" zeroes each cell with probability 0.1')
    p.add_argument("-o", "--output", default="-", help="output path (default stdout)")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("convert", help="construct the HMC equivalent to a CRF model file")
    p.add_argument("model", help='CRF model file (or "-" for stdin)')
    p.add_argument("-o", "--output", default="-", help="output path (default stdout)")
    p.add_argument("--trace", metavar="FILE",
                   help="also write the psi/phi/beta construction trace as JSON")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("decode", help="MPM-decode observation sequences with a model file")
    p.add_argument("model", help='CRF or HMC model file (or "-" for stdin)')
    p.add_argument("sequences", help="text file, one whitespace-separated sequence per line")
    p.add_argument("--marginals", action="store_true",
                   help="append per-position marginal columns (6 decimals)")
    p.add_argument("--tile", action="store_true",
                   help="retile a time-homogeneous model to each line's length")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("verify", help="check a CRF and its constructed HMC agree on every y")
    p.add_argument("model", help='CRF model file (or "-" for stdin)')
    p.add_argument("--against", metavar="FILE",
                   help="verify against this HMC file instead of constructing one")
    p.add_argument("--tolerance", type=float, default=1e-9,
                   help="max allowed posterior discrepancy (default 1e-9)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max total enumerated labelings (default 10^6)")
    p.add_argument("--samples", type=int, default=None,
                   help="check this many random y instead of all of them")
    p.add_argument("--seed", type=int, default=0, help="seed for --samples (default 0)")
    p.add_argument("--report", metavar="FILE",
                   help='write a machine-readable JSON report ("-" for stdout, after the summary)')
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

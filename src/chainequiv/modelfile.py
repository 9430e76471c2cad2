"""Model files: the JSON format of a CRF or an HMC, read and written.

Model files are JSON documents.  Common keys: ``kind`` ("crf" or "hmc"),
``hidden_symbols``, ``obs_symbols``, ``n``, ``mode`` ("strict" or
"generalized").  CRF files carry ``V`` (n-1 pairwise tables) and ``U``
(n emission tables) as nested row-major arrays of natural-log potentials;
the string ``"-inf"`` denotes log of zero.  HMC files carry ``init``,
``trans`` and ``emit`` as probability-domain rows.  Files are written in the
layout of ``json.dumps(doc, indent=2)``, each array cell in orjson's shortest
round-trip number text (``1e16``, ``2.19e-6``), which reads back bit for bit.
"""

import gc
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import orjson

from .crf import MODES, STRICT, CrfModel
from .hmc import HmcModel
from .tables import Alphabet

NEG_INF_TOKEN = "-inf"


class ParseError(ValueError):
    """A file or an option was rejected, or an output not written.

    The message names the spot.
    """


def _read_bytes(path: str) -> bytes:
    """The bytes of ``path``, or of stdin for ``"-"``, with no decode on the way."""
    return sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()


def _read_text(path: str) -> str:
    """The UTF-8 text of ``path`` (``"-"`` for stdin); failures raise ParseError.

    stdin is decoded as strictly as a file, whatever error handler
    ``sys.stdin`` has.  Line ends are left as they are: ``\r\n`` and
    ``\r`` stay in the text.
    """
    try:
        return _read_bytes(path).decode("utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from None


# ---------------------------------------------------------------------------
# JSON output
#
# Every JSON document the CLI writes has the layout of ``json.dumps(doc,
# indent=2)``.  An array is written one block of its leading axis at a time,
# at most JSON_BLOCK_CELLS cells (one item when an item is larger), by
# ``orjson.dumps(OPT_SERIALIZE_NUMPY | OPT_INDENT_2)`` of the block wrapped in
# a one-item list: orjson writes the block's items at the indentation of a
# value in the document's top-level object, where every array sits, and a
# fixed slice drops the wrapper's brackets, so no pass over the text moves
# it.  Each cell is orjson's shortest round-trip text (``1e16``, ``2.19e-6``,
# ``0.00002005762503325462``), which ``json.loads`` and orjson read back to
# the same double.  NaN and ``+inf`` are refused before the first piece, so
# every ``null`` orjson writes is a ``-inf`` cell and becomes the ``"-inf"``
# token.  The rest of a document (symbols, counts, the report) is small and
# keeps ``json.dumps(..., indent=2)``.  Pieces are written as they are made.
# ---------------------------------------------------------------------------

JSON_BLOCK_CELLS = 2**14

_NEG_INF_JSON = f'"{NEG_INF_TOKEN}"'.encode()


def _block_text(block: np.ndarray) -> str:
    """The items of the float array ``block`` in the ``indent=2`` layout of a document's array.

    Each cell is in orjson's number text.  The text starts with a newline,
    two indents and the first item, and ends with the last item: the slice
    drops ``"[\\n  ["`` before it and ``"\\n  ]\\n]"`` after it, the brackets of
    the one-item wrapper and of ``block``.  ``block`` holds no NaN or ``+inf``.
    """
    wrapped = [np.ascontiguousarray(block)]
    text = orjson.dumps(wrapped, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_INDENT_2)
    if (block == -math.inf).any():  # cheaper than a search of the text for "null"
        text = _NEG_INF_JSON.join(text.split(b"null"))  # faster than bytes.replace, the same bytes
    return text[5:-6].decode()


def _array_pieces(a: np.ndarray):
    """The ``indent=2`` text of the float array ``a`` in pieces, as a top-level key's value.

    Cells are shortest round-trip decimals and ``-inf`` is its string token;
    ``a`` holds no NaN or ``+inf`` and only its leading axis may be empty.
    """
    if len(a) == 0:
        yield "[]"
        return
    rows = max(1, JSON_BLOCK_CELLS // math.prod(a.shape[1:]))
    yield "["
    for start in range(0, len(a), rows):
        yield ("," if start else "") + _block_text(a[start:start + rows])
    yield "\n  ]"


def _json_pieces(doc: dict):
    """Check ``doc`` whole, then return its pieces: the layout of ``json.dumps(doc, indent=2) + "\\n"``.

    ``doc`` maps names to numpy arrays, written by :func:`_array_pieces`, or
    to other JSON values, each run of which is one ``json.dumps`` of its
    items; array cells are in orjson's number text (:func:`_block_text`).
    A NaN or infinite number, other than ``-inf`` in an array, raises
    ValueError here, before any piece exists.
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
                yield "\n  " + run[0] + ": "
                yield from _array_pieces(run[1])
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


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------


def _parse_number(value, path: str, nonnegative: bool = False) -> float:
    if value == NEG_INF_TOKEN:
        v = -math.inf
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f'{path}: expected a number or "{NEG_INF_TOKEN}", got {value!r}')
    else:
        try:
            v = float(value)
        except OverflowError:  # an integer literal beyond the float range
            v = math.inf
        if math.isnan(v) or math.isinf(v):
            raise ParseError(f'{path}: non-finite values must be written as "{NEG_INF_TOKEN}"')
    if nonnegative and v < 0:
        raise ParseError(f"{path}: probabilities must be nonnegative")
    return v


def _plain_array(value, shape: tuple[int, ...], nonnegative: bool) -> np.ndarray | None:
    """``value``, parsed from a plain text (:func:`_walk`), as a float array if it is valid and of ``shape``, else None.

    Such a text holds no bool, null or string but headers and ``"-inf"``
    tokens, which numpy reads as ``-inf``, so one conversion and vectorized
    shape, finite and sign checks vouch for every cell.
    """
    try:
        a = np.array(value, dtype=float)
    except (ValueError, TypeError, OverflowError):
        return None
    valid = a.shape == shape and (a < math.inf).all() and not (nonnegative and (a < 0).any())
    return a if valid else None


def _parse_array(value, shape: tuple[int, ...], path: str, nonnegative: bool = False,
                 plain: bool = False) -> np.ndarray:
    """A nested JSON list of the given ``shape`` as a float array.

    Each level must be a list of exactly ``shape[0]`` items; cells are parsed
    by :func:`_parse_number` and, with ``nonnegative``, must not be negative.
    With ``plain``, from a text :func:`_walk` proved plain, :func:`_plain_array`
    reads valid input whole; any other input is checked level by level and
    cell by cell, and the first failing check names its spot.
    """
    a = _plain_array(value, shape, nonnegative) if plain else None
    if a is not None:
        return a
    if not isinstance(value, list) or len(value) != shape[0]:
        unit = ("entries", "rows", "tables")[len(shape) - 1]
        raise ParseError(f"{path}: expected {shape[0]} {unit}")
    if len(shape) > 1:
        items = [_parse_array(v, shape[1:], f"{path}[{i}]", nonnegative)
                 for i, v in enumerate(value)]
        return np.array(items).reshape(shape)  # keeps the shape of an empty list
    return np.array([_parse_number(cell, f"{path}[{j}]", nonnegative) for j, cell in enumerate(value)])


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
_LETTERS = b"abcdfghijklmnopqrstuvwxyzABCDFGHIJKLMNOPQRSTUVWXYZ"  # all but e and E, which numbers hold
_NOT_MARK = bytes(sorted(set(range(256)) - set(b'[]{}"' + _LETTERS)))
_STEP = bytes.maketrans(b"[]{}", b"\x01\xff\x01\xff")  # as int8: +1 opens a level, -1 closes one


def _walk(raw: bytes, limit: int) -> tuple[bool, int | None]:
    """Whether a JSON parser may nest more than ``limit`` levels deep in the UTF-8 text ``raw``, and its string count.

    Escaped backslashes, then escaped quotes, are dropped, then every byte
    but brackets, quotes and letters other than ``e`` and ``E``, so the
    quotes left open and close strings; the depth is the running count of
    the brackets outside them.  Up to the text's first error this is the
    parser's own count, and past it a count can only raise the maximum.
    No step runs per byte in Python.

    The count, of the strings other than exact ``"-inf"`` tokens, is made
    for a plain text: no backslash, and no letter outside strings but
    ``e`` and ``E``, so no ``true``, ``false``, ``null`` or ``NaN``; any
    other text counts None.  Every ``"inf"``, a token's marks, is cut out
    before the marks are split at their quotes: with its two quotes, each
    other mark stays inside or outside a string as it was, and a CRF's
    tens of thousands of tokens make no pieces.
    """
    plain = b"\\" not in raw
    if not plain:
        raw = raw.replace(b"\\\\", b"").replace(b'\\"', b"")
    kept = raw.translate(None, _NOT_MARK)
    pieces = kept.replace(b'"inf"', b"").split(b'"')  # outside strings at even indices
    outside = b"".join(pieces[::2])
    steps = np.frombuffer(outside.translate(_STEP, _LETTERS), np.int8)
    deeper = bool(np.cumsum(steps, dtype=np.intp).max(initial=0) > limit)
    if not plain or len(steps) != len(outside):
        return deeper, None
    tokens = raw.count(_NEG_INF_JSON) if b'"inf"' in kept else 0
    return deeper, kept.count(b'"') // 2 - tokens


def _orjson_object(data: str | bytes) -> tuple[dict | None, int | None]:
    """The JSON object in ``data``, text or its UTF-8 bytes, as orjson reads it, and :func:`_walk`'s count of strings.

    The object is None when orjson refuses ``data`` (bytes that are not
    UTF-8 among it), when it may nest deeper than ORJSON_DEPTH, or when it
    holds a value other than an object.
    """
    try:
        raw = data.encode() if isinstance(data, str) else data
        deeper, strings = _walk(raw, ORJSON_DEPTH)
        doc = None if deeper else orjson.loads(raw)
    except (UnicodeEncodeError, orjson.JSONDecodeError):  # a lone surrogate, or what orjson refuses
        return None, None
    return (doc, strings) if isinstance(doc, dict) else (None, None)


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
    def from_json(cls, data: str | bytes) -> "ModelFile":
        """The model file in ``data``, as Python's ``json`` and the checks below read it.

        ``data`` is the text, or the file's bytes, which ``json`` reads as
        ``Path.read_text`` would: UTF-8, with ``\\r\\n`` and ``\\r`` line ends
        read as ``\\n``; bytes that are not UTF-8 raise UnicodeDecodeError.
        orjson reads ``data`` first, some three times as fast.  A text it
        refuses (``1e999``, ``NaN``, a lone surrogate, a BOM, bad syntax),
        a value other than an object, or a document the checks reject
        (orjson reads an integer of 2^64 or more as a float) is read again
        by ``json``, so the files accepted, their arrays bit for bit, and
        every message are ``json``'s.

        The cyclic garbage collector is paused while the parsed document
        exists, and left as it was found: the document's lists hold no
        cycles, yet their tens of thousands of allocations would start
        collections that walk it all and free none of it.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            return cls._from_json(data)  # the document is freed when this returns
        finally:
            if enabled:
                gc.enable()

    @classmethod
    def _from_json(cls, data: str | bytes) -> "ModelFile":
        doc, strings = _orjson_object(data)
        if doc is not None:
            try:
                return cls._from_document(doc, strings)
            except (ParseError, RecursionError):  # the repr of a deep value in a message can recurse too far
                doc = None  # freed before json reads the text again
        if isinstance(data, bytes):
            data = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        return cls._from_document(_json_object(data))

    @classmethod
    def _from_document(cls, doc: dict, strings: int | None = None) -> "ModelFile":
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

        # The walk's count leaves out the "-inf" tokens: when it is just the header strings (these, kind
        # and mode), none of them spelled "-inf", every other string is a token, and the cells are plain.
        header = (*doc, *hidden, *obs)
        plain = strings == len(header) + 1 + ("mode" in doc) and NEG_INF_TOKEN not in header

        k, l = len(hidden), len(obs)
        if kind == "crf":
            for key in ("init", "trans", "emit"):
                if key in doc:
                    raise ParseError(f"{key}: not a CRF file key")
            v = _parse_array(doc.get("V"), (n - 1, k, k), "V", plain=plain)
            u = _parse_array(doc.get("U"), (n, k, l), "U", plain=plain)
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
        init = _parse_array(doc.get("init"), (k,), "init", nonnegative=True, plain=plain)
        trans = _parse_array(doc.get("trans"), (n - 1, k, k), "trans", nonnegative=True, plain=plain)
        emit = _parse_array(doc.get("emit"), (n, k, l), "emit", nonnegative=True, plain=plain)
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
        """The model file at ``path`` (``"-"`` for stdin), by :meth:`from_json`.

        The file, or stdin, is handed over as its bytes (:func:`_read_bytes`).
        One that cannot be read, or whose bytes are not UTF-8, raises
        ParseError ``cannot read PATH: reason``, as for any text file.
        """
        try:
            return cls.from_json(_read_bytes(path))
        except (OSError, UnicodeDecodeError) as e:  # the read, or json's decode of the bytes
            raise ParseError(f"cannot read {path}: {e}") from None

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
        """Validate into a CrfModel or HmcModel; a table the model rejects raises ValidationError."""
        hidden, obs = Alphabet(self.hidden_symbols), Alphabet(self.obs_symbols)
        if self.kind == "crf":
            return CrfModel(hidden, obs, self.V, self.U, mode=self.mode)
        return HmcModel.from_probabilities(hidden, obs, self.init, self.trans, self.emit)

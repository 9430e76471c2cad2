import errno
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from chainequiv import (
    CrfModel,
    Table2,
    cli,
    crf_posterior_marginals,
    crf_to_hmc,
    decode,
    hmc_posterior_marginals,
    modelfile,
    oracle,
)
from chainequiv.cli import (
    EXIT_BUDGET,
    EXIT_DEGENERATE,
    EXIT_IMPOSSIBLE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from chainequiv.decode import _tiled_model, read_sequences
from chainequiv.modelfile import ModelFile, ParseError
from chainequiv.crf import DegenerateModel, default_alphabets, random_crf_model
from chainequiv.hmc import HmcModel, ImpossibleObservation
from chainequiv.tables import Table1, ValidationError

from conftest import brute_crf_posterior, label_space, marginals_of, naive_crf_score

SRC = str(Path(__file__).resolve().parent.parent / "src")


def write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def symmetric_crf_json() -> str:
    return json.dumps({
        "kind": "crf",
        "hidden_symbols": ["a", "b"],
        "obs_symbols": ["x"],
        "n": 2,
        "mode": "strict",
        "V": [[[0.0, 0.0], [0.0, 0.0]]],
        "U": [[[0.0], [0.0]], [[0.0], [0.0]]],
    })


def pinning_hmc_json() -> str:
    # emissions are the identity: each label emits its own observation symbol
    return json.dumps({
        "kind": "hmc",
        "hidden_symbols": ["A", "B"],
        "obs_symbols": ["a", "b"],
        "n": 3,
        "mode": "strict",
        "init": [0.5, 0.5],
        "trans": [[[0.5, 0.5], [0.5, 0.5]]] * 2,
        "emit": [[[1.0, 0.0], [0.0, 1.0]]] * 3,
    })


# A cell of U[1][0][0] that the reader refuses: test id -> (JSON literal, message).
BAD_CELLS = {
    "1e999": ("1e999", 'U[1][0][0]: non-finite values must be written as "-inf"'),
    "-1e999": ("-1e999", 'U[1][0][0]: non-finite values must be written as "-inf"'),
    "int-1e400": ("1" + "0" * 400, 'U[1][0][0]: non-finite values must be written as "-inf"'),
    "true": ("true", 'U[1][0][0]: expected a number or "-inf", got True'),
    "numeric-string": ('"1.5"', "U[1][0][0]: expected a number or \"-inf\", got '1.5'"),
    "false": ("false", 'U[1][0][0]: expected a number or "-inf", got False'),
    "inf-string": ('"inf"', "U[1][0][0]: expected a number or \"-inf\", got 'inf'"),
    "nan-string": ('"nan"', "U[1][0][0]: expected a number or \"-inf\", got 'nan'"),
    "Infinity-string": ('"-Infinity"', "U[1][0][0]: expected a number or \"-inf\", got '-Infinity'"),
    "spaced-token": ('" -inf"', "U[1][0][0]: expected a number or \"-inf\", got ' -inf'"),
    "integer-string": ('"2"', "U[1][0][0]: expected a number or \"-inf\", got '2'"),
}


class TestModelFileRoundTrip:
    def test_dump_load_is_exact(self, tmp_path):
        main(["random", "--n", "4", "--hidden", "3", "--obs", "2", "--seed", "7",
              "-o", str(tmp_path / "m.json")])
        mf = ModelFile.load(str(tmp_path / "m.json"))
        mf.dump(str(tmp_path / "again.json"))
        again = ModelFile.load(str(tmp_path / "again.json"))
        for a, b in zip((*mf.V, *mf.U), (*again.V, *again.U)):
            assert np.array_equal(a, b)
        assert (tmp_path / "m.json").read_text() == (tmp_path / "again.json").read_text()

    def test_neg_inf_round_trip(self, tmp_path):
        doc = json.loads(symmetric_crf_json())
        doc["mode"] = "generalized"
        doc["V"][0][0][1] = "-inf"
        path = write(tmp_path / "g.json", json.dumps(doc))
        mf = ModelFile.load(path)
        assert mf.V[0][0, 1] == float("-inf")
        text = mf.to_json()
        assert '"-inf"' in text
        assert np.array_equal(ModelFile.from_json(text).V[0], mf.V[0])

    def test_hmc_round_trip(self, tmp_path):
        path = write(tmp_path / "h.json", pinning_hmc_json())
        mf = ModelFile.load(path)
        mf.dump(str(tmp_path / "h2.json"))
        again = ModelFile.load(str(tmp_path / "h2.json"))
        assert np.array_equal(mf.init, again.init)
        for a, b in zip((*mf.trans, *mf.emit), (*again.trans, *again.emit)):
            assert np.array_equal(a, b)


class TestParseErrors:
    def test_syntax_error_reports_line(self, tmp_path):
        path = write(tmp_path / "bad.json", "{\n  broken\n}")
        with pytest.raises(ParseError, match="line 2"):
            ModelFile.load(path)

    def test_bad_kind(self):
        with pytest.raises(ParseError, match="kind"):
            ModelFile.from_json('{"kind": "markov"}')

    def test_wrong_table_count(self):
        doc = json.loads(symmetric_crf_json())
        doc["V"] = []
        with pytest.raises(ParseError, match="V: expected 1 tables"):
            ModelFile.from_json(json.dumps(doc))

    def test_cell_error_names_the_cell(self):
        doc = json.loads(symmetric_crf_json())
        doc["U"][1][0][0] = "oops"
        with pytest.raises(ParseError, match=r"U\[1\]\[0\]\[0\]"):
            ModelFile.from_json(json.dumps(doc))

    def test_infinity_literal_rejected(self):
        doc = symmetric_crf_json().replace("0.0, 0.0], [0.0", "Infinity, 0.0], [0.0")
        with pytest.raises(ParseError, match="-inf"):
            ModelFile.from_json(doc)

    @pytest.mark.parametrize("literal, message", BAD_CELLS.values(), ids=BAD_CELLS.keys())
    def test_bad_cell_message(self, literal, message):
        doc = json.loads(symmetric_crf_json())
        doc["U"][1][0][0] = "CELL"
        with pytest.raises(ParseError) as e:
            ModelFile.from_json(json.dumps(doc).replace('"CELL"', literal))
        assert str(e.value) == message

    @pytest.mark.parametrize("cell", [True, False, "inf", "nan", "1.5", "2", "-Infinity", " -inf", "-INF"])
    @pytest.mark.parametrize("with_token", [False, True])
    def test_cell_checks_refuse_every_cell_they_cannot_vouch_for(self, cell, with_token):
        # With or without a "-inf" token elsewhere in the list.
        rows = [[0.5, cell], ["-inf" if with_token else 1.0, 2]]
        with pytest.raises(ParseError):
            modelfile._parse_array(rows, (2, 2), "V")

    def test_plain_array_reads_tokens_ints_and_floats(self):
        a = modelfile._plain_array([[0.5, "-inf"], [3, -2]], (2, 2), nonnegative=False)
        np.testing.assert_array_equal(a, [[0.5, -math.inf], [3.0, -2.0]])
        assert modelfile._plain_array([[0.5, 1], [3, 2]], (2, 2), nonnegative=True).dtype == float
        assert modelfile._plain_array([[0.5, "-inf"]], (1, 2), nonnegative=True) is None

    def test_strict_mode_rejects_neg_inf(self):
        doc = json.loads(symmetric_crf_json())
        doc["V"][0][0][0] = "-inf"
        with pytest.raises(ParseError, match="strict"):
            ModelFile.from_json(json.dumps(doc))

    def test_negative_probability_rejected(self):
        doc = json.loads(pinning_hmc_json())
        doc["init"] = [1.2, -0.2]
        with pytest.raises(ParseError, match=r"init\[1\]"):
            ModelFile.from_json(json.dumps(doc))

    def test_non_stochastic_row_rejected(self):
        doc = json.loads(pinning_hmc_json())
        doc["init"] = [0.7, 0.7]
        with pytest.raises(ValidationError, match="sums to"):
            ModelFile.from_json(json.dumps(doc)).to_model()

    def test_cli_exit_code_on_parse_error(self, tmp_path, capsys):
        path = write(tmp_path / "bad.json", "not json")
        assert main(["convert", path]) == EXIT_PARSE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["convert", "decode"])
    def test_non_utf8_file_is_parse_error(self, tmp_path, capsys, command):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("caf\xe9 \xff\n".encode("latin-1"))
        if command == "convert":
            argv = ["convert", str(bad)]
        else:
            argv = ["decode", write(tmp_path / "h.json", pinning_hmc_json()), str(bad)]
        assert main(argv) == EXIT_PARSE
        assert f"error: cannot read {bad}: " in capsys.readouterr().err


def json_reader_outcome(read, text):
    """What ``read(text)`` gives: each field of the ModelFile, arrays as their bytes, or the ParseError text."""
    try:
        mf = read(text)
    except ParseError as e:
        return "error", str(e)
    return "model", {key: (value.dtype.str, value.shape, value.tobytes()) if isinstance(value, np.ndarray)
                     else value for key, value in vars(mf).items()}


def read_with_json(text):
    """The reference: the model file in ``text`` as Python's json and the checks read it."""
    return ModelFile._from_document(modelfile._json_object(text))


def set_text(doc: dict, spot: str, literal: str) -> str:
    """``doc`` as JSON text with the value at ``spot`` (a key, ``symbol`` or ``cell``) written as ``literal``."""
    doc = json.loads(json.dumps(doc))
    if spot == "symbol":
        doc["hidden_symbols"][0] = "SPOT"
    elif spot == "cell":
        doc["U"][1][0][0] = "SPOT"
    else:
        doc[spot] = "SPOT"
    return json.dumps(doc).replace('"SPOT"', literal)


def nested(depth: int) -> str:
    return "[" * depth + "]" * depth


# JSON texts of finite doubles and of long decimals, some beyond the float range.
decimal_texts = st.from_regex(r"-?(0|[1-9][0-9]{0,45})(\.[0-9]{1,45})?([eE][+-]?[0-9]{1,3})?", fullmatch=True)
cell_texts = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), decimal_texts)


class TestReaderMatchesJson:
    """orjson reads model files, and what it refuses or the checks reject is read again by json.

    The outcome is always json's: the same ModelFile, arrays bit for bit,
    or the same ParseError text.
    """

    CRF = json.loads(symmetric_crf_json())

    @staticmethod
    def check(text):
        expected = json_reader_outcome(read_with_json, text)
        assert json_reader_outcome(ModelFile.from_json, text) == expected
        return expected

    @pytest.mark.parametrize("literal", [literal for literal, _ in BAD_CELLS.values()], ids=BAD_CELLS.keys())
    def test_bad_cells(self, literal):
        assert self.check(set_text(self.CRF, "cell", literal))[0] == "error"

    @pytest.mark.parametrize("spot", ["n", "symbol", "cell"])
    @pytest.mark.parametrize("value", [2**64, 10**20, 10**400], ids=["2^64", "10^20", "10^400"])
    def test_integers_beyond_64_bits(self, spot, value):
        outcome, detail = self.check(set_text(self.CRF, spot, str(value)))
        if spot == "cell" and value < 10**400:
            assert outcome == "model" and np.frombuffer(detail["U"][2])[2] == value  # U[1][0][0]
        else:
            assert outcome == "error"

    def test_surrogate_symbol(self):
        escaped = set_text(self.CRF, "symbol", '"\\ud800"')
        raw = json.dumps(json.loads(escaped), ensure_ascii=False)
        for text in (escaped, raw):
            outcome, detail = self.check(text)
            assert outcome == "model" and detail["hidden_symbols"][0] == "\ud800"

    def test_surrogate_from_stdin(self, monkeypatch, tmp_path):
        """The byte a surrogateescape stdin reads as U+DCFF is not UTF-8: refused as from a file."""
        text = json.dumps(json.loads(set_text(self.CRF, "symbol", '"\\udcff"')), ensure_ascii=False)
        data = text.encode("utf-8", "surrogateescape")
        assert b"\xff" in data
        path = tmp_path / "m.json"
        path.write_bytes(data)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), errors="surrogateescape"))
        outcome, message = json_reader_outcome(lambda _: ModelFile.load("-"), None)
        from_file = json_reader_outcome(ModelFile.load, str(path))[1]
        assert (outcome, message) == ("error", from_file.replace(str(path), "-"))
        assert message.startswith("cannot read -: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("text", [
        "\ufeff" + symmetric_crf_json(),
        set_text(CRF, "cell", "NaN"),
        set_text(CRF, "cell", "Infinity"),
        set_text(CRF, "cell", "-Infinity"),
        symmetric_crf_json() + " x",
        symmetric_crf_json() + "{}",
        symmetric_crf_json()[:-1],
        "",
        "[]",
        '"crf"',
    ], ids=["bom", "nan", "infinity", "-infinity", "trailing-word", "trailing-object", "unclosed", "empty",
            "array", "string"])
    def test_refused_texts(self, text):
        assert self.check(text)[0] == "error"

    @pytest.mark.parametrize("key, first, last, outcome", [
        ("n", "5", "2", "model"), ("n", "2", "5", "error"),
        ("V", "[]", json.dumps(CRF["V"]), "model"), ("V", json.dumps(CRF["V"]), "[]", "error"),
    ])
    def test_duplicate_keys_keep_the_last(self, key, first, last, outcome):
        text = symmetric_crf_json()[:-1] + f', "{key}": {last}}}'
        text = text.replace(f'"{key}": ', f'"{key}": {first}, "{key}": ', 1)
        assert self.check(text)[0] == outcome

    @pytest.mark.parametrize("depth", [1000, 5000])
    @pytest.mark.parametrize("spot", ["top", "kind", "symbol", "cell"])
    def test_deep_nesting(self, depth, spot):
        text = nested(depth) if spot == "top" else set_text(self.CRF, spot, nested(depth))
        assert self.check(text)[0] == "error"

    @settings(max_examples=200)
    @given(st.lists(cell_texts, min_size=6, max_size=6))
    def test_cells(self, cells):
        doc = json.loads(symmetric_crf_json())
        doc["V"] = [[["C", "C"], ["C", "C"]]]
        doc["U"] = [[["C"], ["C"]], [["C"], ["C"]]]
        pieces = json.dumps(doc).split('"C"')
        self.check("".join(piece + cell for piece, cell in zip(pieces, cells + [""])))

    def test_valid_files_are_read_by_orjson_alone(self, monkeypatch):
        def refuse(text):
            raise AssertionError("json read a file orjson can read")

        monkeypatch.setattr(modelfile, "_json_object", refuse)
        assert ModelFile.from_json(symmetric_crf_json()).n == 2
        assert ModelFile.from_json(pinning_hmc_json()).kind == "hmc"

    @settings(max_examples=100)
    @given(st.recursive(st.none() | st.integers() | st.text(alphabet='[]{}"\\ab\u00e9'),
                        lambda items: st.lists(items, max_size=3)
                        | st.dictionaries(st.text(alphabet='[]{}"\\a', max_size=3), items, max_size=3)))
    def test_depth_of_valid_json(self, value):
        def depth(v):
            if isinstance(v, list):
                return 1 + max(map(depth, v), default=0)
            if isinstance(v, dict):
                return 1 + max(map(depth, v.values()), default=0)
            return 0

        for text in (json.dumps(value), json.dumps(value, ensure_ascii=False)):
            for limit in range(depth(value) + 2):
                assert modelfile._walk(text.encode(), limit)[0] == (depth(value) > limit)

    @pytest.mark.parametrize("text", ['"]]]]"' + "[" * 2000, '"\\\\"' + "[" * 2000, "[" * 2000 + '"\\"]]]]'],
                             ids=["closers-in-a-string", "escaped-backslash", "escaped-quote"])
    def test_depth_counts_only_brackets_outside_strings(self, text):
        assert modelfile._walk(text.encode(), 1999)[0] and not modelfile._walk(text.encode(), 2000)[0]


def long_crf_doc(mode: str = "generalized") -> dict:
    """A CRF document of 120 positions, 2 labels and 1 symbol.

    In generalized mode V[3][0][1] and U[7][1][0] are ``"-inf"`` tokens.
    """
    rng = np.random.default_rng(5)
    doc = {"kind": "crf", "hidden_symbols": ["a", "b"], "obs_symbols": ["x"], "n": 120, "mode": mode,
           "V": rng.uniform(-5, 5, (119, 2, 2)).tolist(), "U": rng.uniform(-5, 5, (120, 2, 1)).tolist()}
    if mode == "generalized":
        doc["V"][3][0][1] = doc["U"][7][1][0] = "-inf"
    return doc


def long_hmc_doc() -> dict:
    """The HMC of the strict :func:`long_crf_doc`, as a document."""
    return json.loads(ModelFile.from_hmc(crf_to_hmc(ModelFile.from_json(json.dumps(long_crf_doc("strict")))
                                                    .to_model())[0]).to_json())


class TestPlainReader:
    """A model file whose walk proves it plain reads each array whole; any other is checked cell by cell.

    Every case is checked through ``TestReaderMatchesJson.check``, so the
    outcome is json's whichever path reads the arrays.
    """

    LONG = long_crf_doc()
    check = staticmethod(TestReaderMatchesJson.check)

    @staticmethod
    def plain_reads(text) -> list:
        """For each plain read (call of ``_plain_array``) in ``ModelFile.from_json(text)``, whether it gave an array."""
        reads, real = [], modelfile._plain_array

        def spy(value, shape, nonnegative):
            got = real(value, shape, nonnegative)
            reads.append(got is not None)
            return got

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(modelfile, "_plain_array", spy)
            try:
                ModelFile.from_json(text)
            except ParseError:
                pass
        return reads

    @pytest.mark.parametrize("doc", [long_crf_doc("strict"), LONG, long_hmc_doc()],
                             ids=["strict", "generalized", "hmc"])
    def test_long_files_are_read_plain(self, doc):
        text = json.dumps(doc)
        assert self.check(text)[0] == "model"
        assert self.plain_reads(text) == [True] * (3 if doc["kind"] == "hmc" else 2)

    @pytest.mark.parametrize("n, k, l, mode", [(20, 8, 6, "strict"), (3, 3, 2, "generalized"),
                                               (6, 2, 2, "generalized"), (4, 4, 3, "generalized")])
    def test_short_files_are_read_plain(self, n, k, l, mode):
        """Files of the sizes of perfbench's decode-stream and convert-verify models hold at most ORJSON_DEPTH
        marks, and their arrays are read plain: the CRF, its HMC, and the two-position test CRF."""
        crf = random_crf_model(n, k, l, seed=n, mode=mode)
        texts = (ModelFile.from_crf(crf).to_json(), ModelFile.from_hmc(crf_to_hmc(crf)[0]).to_json(),
                 symmetric_crf_json())
        for text in texts:
            assert len(text.encode().translate(None, modelfile._NOT_MARK)) <= modelfile.ORJSON_DEPTH
            assert self.check(text)[0] == "model"
            assert self.plain_reads(text) == [True] * (3 if '"kind": "hmc"' in text else 2)

    @pytest.mark.parametrize("literal", [literal for literal, _ in BAD_CELLS.values()]
                             + ['"-inf "', '"-Inf"', '"-INF"', '"\u00a0-inf"', "null"],
                             ids=[*BAD_CELLS.keys(), "token-space", "-Inf", "-INF", "nbsp-token", "null"])
    def test_bad_cells_are_checked_cell_by_cell(self, literal):
        text = set_text(self.LONG, "cell", literal)
        assert self.check(text)[0] == "error"
        assert self.plain_reads(text) == []

    @pytest.mark.parametrize("doc, key, outcome", [
        (long_crf_doc("strict"), "U", "error"), (LONG, "U", "model"), (long_hmc_doc(), "trans", "error"),
    ], ids=["strict", "generalized", "hmc"])
    def test_token_cell(self, doc, key, outcome):
        """A ``"-inf"`` cell is read plain: strict mode rejects it afterwards, and a probability table's plain
        read refuses it (the HMC's init was read before), so the cell checks name it."""
        doc = json.loads(json.dumps(doc))
        doc[key][1][0][0] = "-inf"
        text = json.dumps(doc)
        assert self.check(text)[0] == outcome
        assert self.plain_reads(text) == ([True, False] if key == "trans" else [True, True])

    @pytest.mark.parametrize("where", ["symbol", "key", "escaped-backslash"])
    @pytest.mark.parametrize("cell, outcome", [(None, "model"), ('"1.5"', "error"), ('"2"', "error")],
                             ids=["valid", "numeric-string", "integer-string"])
    def test_header_string_spelled_token(self, where, cell, outcome):
        """A numeric string cell, which numpy reads, would pass the string count with a symbol or key spelled
        ``-inf``, or with a symbol ``-inf\\``, whose text ``"-inf\\\\"`` holds ``"-inf"`` once escapes are dropped."""
        doc = json.loads(json.dumps(self.LONG))
        if where != "key":
            doc["hidden_symbols"][0] = "-inf" if where == "symbol" else "-inf\\"
        else:
            doc["-inf"] = 1
        text = json.dumps(doc) if cell is None else set_text(doc, "cell", cell)
        assert self.check(text)[0] == outcome
        assert self.plain_reads(text) == []

    @pytest.mark.parametrize("symbol", ['a\\"b', "a\\u00e9", "\u00e9"], ids=["escaped-quote", "escape", "raw-utf8"])
    def test_symbols(self, symbol):
        """A backslash anywhere takes the cell checks; a raw UTF-8 symbol does not."""
        text = set_text(self.LONG, "symbol", f'"{symbol}"')
        assert self.check(text)[0] == "model"
        assert self.plain_reads(text) == ([] if "\\" in symbol else [True, True])

    @pytest.mark.parametrize("extra, plain", [(["x", "y"], False), (["-inf"], True), ([1, 2], True)],
                             ids=["strings", "tokens", "numbers"])
    def test_extra_key(self, extra, plain):
        text = json.dumps(self.LONG | {"extra": extra})
        assert self.check(text)[0] == "model"
        assert self.plain_reads(text) == ([True, True] if plain else [])

    def test_one_position(self):
        """At n = 1, V is empty: its plain read misses numpy's shape, and the level-by-level checks build it."""
        k = 600
        doc = {"kind": "crf", "hidden_symbols": [f"h{i}" for i in range(k)], "obs_symbols": ["x"], "n": 1,
               "mode": "generalized", "V": [], "U": [[[0.5]] * (k - 1) + [["-inf"]]]}
        text = json.dumps(doc)
        outcome, detail = self.check(text)
        assert outcome == "model" and detail["V"][1] == (0, k, k)
        assert self.plain_reads(text) == [False, True]

    odd_cells = st.sampled_from([None, True, False, "-inf", " -inf", "-inf ", "-Inf", "\u00a0-inf", "1.5", "2", "x",
                                 [], {}, [1.0], 1e308, -0.0])
    odd_symbols = st.sampled_from(["-inf", " -inf", "inf", 'q"', "\\", "\u00a0", "\n"])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_plain_reads_equal_the_cell_checks(self, data):
        """On generated model documents, an array a plain read accepts is the cell checks' array, bit for bit."""
        kind = data.draw(st.sampled_from(["crf", "hmc"]))
        mode = data.draw(st.sampled_from(["strict", "generalized"]))
        n = data.draw(st.integers(1, 3))
        plain_names = st.text(alphabet="ab\u00e9", min_size=1, max_size=2)
        names = st.lists(st.one_of(plain_names, plain_names, plain_names, self.odd_symbols),
                         min_size=1, max_size=3, unique=True)
        hidden, obs = data.draw(names), data.draw(names)
        k, l = len(hidden), len(obs)
        if kind == "crf":
            number = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-2**70, 2**70))
            shapes = {"V": (n - 1, k, k), "U": (n, k, l)}
        else:
            number = st.floats(0, 1)
            shapes = {"init": (k,), "trans": (n - 1, k, k), "emit": (n, k, l)}
        cell = st.one_of(number, number, number, st.just("-inf")) if kind == "crf" else number
        doc = {"kind": kind, "hidden_symbols": hidden, "obs_symbols": obs, "n": n, "mode": mode}
        doc |= {key: data.draw(st.lists(cell, min_size=math.prod(shape), max_size=math.prod(shape))
                               .map(lambda cells, shape=shape: np.array(cells, dtype=object).reshape(shape).tolist()))
                for key, shape in shapes.items()}
        if data.draw(st.integers(0, 2)) == 2:  # one odd cell or row
            key = data.draw(st.sampled_from([key for key, shape in shapes.items() if math.prod(shape)]))
            row = doc[key]
            for _ in shapes[key][1:]:
                row = row[data.draw(st.integers(0, len(row) - 1))]
            row[data.draw(st.integers(0, len(row) - 1))] = data.draw(self.odd_cells)
        extra = data.draw(st.sampled_from([{}, {}, {"x": 1}, {"x": "-inf"}, {"x": ["-inf"]}, {"x": "y"},
                                           {"x": ["y"]}, {"-inf": 1}, {"y\\z": 1}]))
        doc = extra | doc
        text = json.dumps(doc, ensure_ascii=data.draw(st.integers(0, 3)) == 3)  # ensure_ascii writes \u00e9 with a backslash

        accepted, real = [], modelfile._plain_array

        def spy(value, shape, nonnegative):
            got = real(value, shape, nonnegative)
            if got is not None:
                checked = modelfile._parse_array(value, shape, "cells", nonnegative)
                assert checked.shape == got.shape and checked.tobytes() == got.tobytes()
                accepted.append(shape)
            return got

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(modelfile, "_plain_array", spy)
            self.check(text)
        event("plain read" if accepted else "cell checks only")


def text_reader_error(path: str) -> str:
    """The ParseError text a model file gave when it was read as text first, as ``Path.read_text`` reads it."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        return f"cannot read {path}: {e}"
    with pytest.raises(ParseError) as e:
        ModelFile.from_json(text)
    return str(e.value)


class TestBytesReader:
    """``ModelFile.load`` hands a file's bytes to the reader, with no decode; the outcome is the text reader's."""

    @pytest.mark.parametrize("raw", [
        b'{\r\n  "kind": "crf",\r\n  "n": 2,\r\n  x\r\n}',
        b'{\r  "kind": "crf",\r  "n": 2,\r  x\r}',
        b'{\r\n  "kind": "crf",\r  "n": 2,\n\r  "V": [1,, 2]}',
        b'{"kind": "crf", "hidden_symbols": ["caf\xe9"]}',
        b'{"kind": "crf",\n "n": 2}\xff',
        b"\xef\xbb\xbf" + symmetric_crf_json().encode(),
        symmetric_crf_json().replace(", ", ",\r").encode() + b"\r\r x",
    ], ids=["crlf", "lone-cr", "mixed-ends", "latin-1", "invalid-utf8-at-end", "bom", "cr-then-trailing-word"])
    def test_same_error_line_as_the_text_reader(self, tmp_path, capsys, raw):
        path = tmp_path / "m.json"
        path.write_bytes(raw)
        message = text_reader_error(str(path))
        with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
            ModelFile.load(str(path))
        assert main(["convert", str(path)]) == EXIT_PARSE
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("ends", ["\r\n", "\r"])
    def test_line_ends_read_as_a_text_file(self, tmp_path, ends):
        path = tmp_path / "m.json"
        path.write_bytes(json.dumps(json.loads(symmetric_crf_json()), indent=2).replace("\n", ends).encode())
        read = json_reader_outcome(ModelFile.load, str(path))
        assert read[0] == "model"
        assert read == json_reader_outcome(ModelFile.from_json, path.read_text(encoding="utf-8"))


class TestGcPause:
    """Reading a model file pauses the cyclic collector and leaves it as it was found."""

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_state(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("text, outcome", [
        (symmetric_crf_json(), "model"),
        ('{"kind": "markov"}', "error"),
        (set_text(json.loads(symmetric_crf_json()), "cell", str(2**64)), "model"),  # json reads it again
        (set_text(json.loads(symmetric_crf_json()), "cell", "NaN"), "error"),  # orjson refuses, json rejects
    ], ids=["valid", "parse-error", "json-fallback", "json-fallback-error"])
    @pytest.mark.parametrize("source", ["text", "file"])
    def test_state_is_restored(self, tmp_path, gc_state, text, outcome, source):
        seen = []  # the collector's state at each step of the read

        def spy(step):
            def run(*args):
                seen.append(gc.isenabled())
                return step(*args)
            return run

        with pytest.MonkeyPatch.context() as patch:
            for name in ("_orjson_object", "_json_object"):
                patch.setattr(modelfile, name, spy(getattr(modelfile, name)))
            patch.setattr(ModelFile, "_from_document", staticmethod(spy(ModelFile._from_document)))
            if source == "file":
                read, data = ModelFile.load, write(tmp_path / "m.json", text)
            else:
                read, data = ModelFile.from_json, text
            assert json_reader_outcome(read, data)[0] == outcome
        assert len(seen) >= 2 and not any(seen)
        assert gc.isenabled() == gc_state

    def test_state_is_restored_after_a_failed_read(self, tmp_path, gc_state):
        with pytest.raises(ParseError, match="cannot read"):
            ModelFile.load(str(tmp_path / "missing.json"))
        assert gc.isenabled() == gc_state


class TestDeepNesting:
    """Nesting too deep for json's recursion: exit 2 and one ``error:`` line, not a traceback."""

    @pytest.mark.parametrize("command", ["convert", "decode", "verify"])
    @pytest.mark.parametrize("spot", ["top", "symbols"])
    def test_exit_2(self, tmp_path, capsys, command, spot):
        if spot == "top":
            text = nested(5000)
        else:
            text = set_text(json.loads(symmetric_crf_json()), "hidden_symbols", nested(3000))
        model = write(tmp_path / "deep.json", text)
        argv = {"convert": ["convert", model], "verify": ["verify", model],
                "decode": ["decode", model, write(tmp_path / "ys.txt", "x x\n")]}[command]
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: top level: nested too deeply to read\n"

    @pytest.mark.parametrize("opener", ["[", '{"a": '])
    def test_nesting_that_overflows_the_c_stack(self, tmp_path, opener):
        # orjson 3.8 recurses without a limit and crashes about 10^5 levels down.
        depth = 200_000
        closer = "]" if opener == "[" else "}"
        model = write(tmp_path / "deep.json", opener * depth + "1" * (opener != "[") + closer * depth)
        done = subprocess.run([sys.executable, "-m", "chainequiv", "convert", model], capture_output=True,
                              env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        assert (done.returncode, done.stdout) == (EXIT_PARSE, b"")
        assert done.stderr == b"error: top level: nested too deeply to read\n"


class TestRandom:
    def test_same_seed_byte_identical(self, tmp_path):
        for name in ("a.json", "b.json"):
            assert main(["random", "--n", "3", "--hidden", "2", "--obs", "2",
                         "--seed", "5", "-o", str(tmp_path / name)]) == EXIT_OK
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed_exits_2_with_one_error_line(self, tmp_path, capsys, seed):
        path = tmp_path / "m.json"
        assert main(["random", "--n", "3", "--hidden", "2", "--obs", "2", "--seed", seed,
                     "-o", str(path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: seed must be an integer >= 0, got {seed}\n"
        assert not path.exists()

    def test_length_one_has_empty_pairwise_array(self, tmp_path):
        main(["random", "--n", "1", "--hidden", "2", "--obs", "2", "-o",
              str(tmp_path / "m.json")])
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["V"] == []
        assert len(doc["U"]) == 1

    def test_generalized_mode_writes_neg_inf_tokens(self, tmp_path):
        main(["random", "--n", "6", "--hidden", "4", "--obs", "3", "--seed", "1",
              "--mode", "generalized", "-o", str(tmp_path / "g.json")])
        assert '"-inf"' in (tmp_path / "g.json").read_text()

    def test_output_accepted_by_convert(self, tmp_path):
        main(["random", "--n", "4", "--hidden", "3", "--obs", "2", "--seed", "3",
              "-o", str(tmp_path / "m.json")])
        assert main(["convert", str(tmp_path / "m.json"),
                     "-o", str(tmp_path / "h.json")]) == EXIT_OK
        assert ModelFile.load(str(tmp_path / "h.json")).kind == "hmc"


class TestConvert:
    def test_symmetric_example(self, tmp_path, capsys):
        path = write(tmp_path / "m.json", symmetric_crf_json())
        assert main(["convert", path, "-o", str(tmp_path / "h.json")]) == EXIT_OK
        doc = json.loads((tmp_path / "h.json").read_text())
        np.testing.assert_allclose(doc["init"], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(doc["trans"][0], [[0.5, 0.5]] * 2, atol=1e-12)
        np.testing.assert_allclose(doc["emit"][0], [[1.0], [1.0]], atol=1e-12)

    def test_trace_on_length_one_model(self, tmp_path):
        doc = json.loads(symmetric_crf_json())
        doc["n"] = 1
        doc["V"] = []
        doc["U"] = [[[0.0], [0.0]]]
        path = write(tmp_path / "m.json", json.dumps(doc))
        assert main(["convert", path, "-o", str(tmp_path / "h.json"),
                     "--trace", str(tmp_path / "t.json")]) == EXIT_OK
        trace = json.loads((tmp_path / "t.json").read_text())
        assert trace["beta"] == [[0.0, 0.0]]
        assert trace["phi"] == []
        assert trace["unreachable"] == [[]]

    def test_rejects_hmc_input(self, tmp_path):
        path = write(tmp_path / "h.json", pinning_hmc_json())
        assert main(["convert", path]) == EXIT_PARSE

    def test_degenerate_model_exits_3(self, tmp_path):
        doc = json.loads(symmetric_crf_json())
        doc["mode"] = "generalized"
        doc["n"] = 1
        doc["V"] = []
        doc["U"] = [[["-inf"], ["-inf"]]]
        path = write(tmp_path / "m.json", json.dumps(doc))
        assert main(["convert", path]) == EXIT_DEGENERATE

    def test_converted_model_passes_verify(self, tmp_path):
        main(["random", "--n", "4", "--hidden", "3", "--obs", "2", "--seed", "11",
              "-o", str(tmp_path / "m.json")])
        main(["convert", str(tmp_path / "m.json"), "-o", str(tmp_path / "h.json")])
        assert main(["verify", str(tmp_path / "m.json"),
                     "--against", str(tmp_path / "h.json")]) == EXIT_OK


class TestForkedTraceWriter:
    """``convert --trace`` writes a large trace from a forked process, with the bytes of the in-order writes."""

    @pytest.fixture(scope="class")
    def models(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("forked")
        paths = {}
        large = cli.FORK_CELLS // (16 * 16 + 2 * 16) + 2  # a k = 16 trace just above FORK_CELLS
        for name, n, k in (("strict", large, 16), ("generalized", large, 16), ("length-one", 1, 3)):
            mode = "strict" if name == "length-one" else name
            paths[name] = str(d / f"{name}.json")
            ModelFile.from_crf(random_crf_model(n, k, 4, seed=3, mode=mode)).dump(paths[name])
        return paths

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the children ``os.fork`` started, as seen by the parent."""
        pids = []
        fork = os.fork

        def spy():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", spy)
        return pids

    @staticmethod
    def convert(monkeypatch, capsys, argv, fork_cells=None):
        """``(exit code, stdout, stderr)`` of ``main(argv)``; ``fork_cells`` overrides FORK_CELLS."""
        if fork_cells is not None:
            monkeypatch.setattr(cli, "FORK_CELLS", fork_cells)
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_large_traces_are_forked(self, models, tmp_path, monkeypatch, capsys, forks):
        trace = tmp_path / "t.json"
        for name in ("strict", "generalized"):
            assert main(["convert", models[name], "-o", str(tmp_path / "h.json"), "--trace", str(trace)]) == EXIT_OK
            doc = json.loads(trace.read_text())
            assert sum(np.size(doc[key]) for key in ("psi", "phi", "beta")) >= cli.FORK_CELLS
        assert len(forks) == 2
        assert main(["convert", models["length-one"], "-o", str(tmp_path / "h.json"),
                     "--trace", str(trace)]) == EXIT_OK
        assert len(forks) == 2  # far too small to pay for a fork

    @pytest.mark.parametrize("name", ["strict", "generalized", "length-one"])
    def test_files_equal_the_in_order_writes(self, models, name, tmp_path, monkeypatch, capsys, forks):
        files = {}
        for label, fork_cells in (("forked", 0), ("in-order", math.inf)):
            hmc, trace = tmp_path / f"{label}-h.json", tmp_path / f"{label}-t.json"
            argv = ["convert", models[name], "-o", str(hmc), "--trace", str(trace)]
            assert self.convert(monkeypatch, capsys, argv, fork_cells) == (EXIT_OK, "", "")
            files[label] = hmc.read_bytes(), trace.read_bytes()
            assert len(forks) == 1
        assert files["forked"] == files["in-order"]
        if name == "length-one":
            assert json.loads(files["forked"][1])["phi"] == []

    @pytest.mark.parametrize("output, trace, forked", [
        ("-", "t.json", True),
        ("h.json", "-", True),
        ("-", "-", False),
        ("x.json", "x.json", False),
        ("x.json", "./x.json", False),
    ], ids=["hmc-to-stdout", "trace-to-stdout", "both-to-stdout", "same-path", "same-file"])
    def test_stdout_and_file_combinations(self, models, tmp_path, monkeypatch, capsys, forks,
                                          output, trace, forked):
        monkeypatch.chdir(tmp_path)
        results = {}
        for fork_cells in (0, math.inf):
            argv = ["convert", models["strict"], "-o", output, "--trace", trace]
            code, out, err = self.convert(monkeypatch, capsys, argv, fork_cells)
            written = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
            results[fork_cells] = code, out, err, written
            for p in tmp_path.iterdir():
                p.unlink()
        assert results[0] == results[math.inf]
        assert len(forks) == (1 if forked else 0)
        code, out, err, written = results[0]
        assert (code, err) == (EXIT_OK, "")
        if output == trace == "-":
            hmc_doc, trace_doc = out.split("\n}\n")[:2]
            assert json.loads(hmc_doc + "}")["kind"] == "hmc" and "psi" in json.loads(trace_doc + "}")
        elif output == "-":
            assert json.loads(out)["kind"] == "hmc" and list(written) == ["t.json"]
        elif trace == "-":
            assert "psi" in json.loads(out) and list(written) == ["h.json"]
        else:  # the trace overwrites the HMC, as in order
            assert out == "" and "psi" in json.loads(written["x.json"])

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    @pytest.mark.parametrize("trace", ["/dev/stdout", "out.json"])
    def test_stdout_file_named_as_a_path_is_one_target(self, models, tmp_path, trace):
        """``-o -`` and a path to stdout's own file: no fork, and the bytes of one path named twice."""
        twice = tmp_path / "twice.json"
        assert main(["convert", models["strict"], "-o", str(twice), "--trace", str(twice)]) == EXIT_OK
        script = ("import os, sys\n"
                  "from chainequiv.cli import main\n"
                  "def fork():\n"
                  "    raise AssertionError('forked')\n"
                  "os.fork = fork\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
        with open(tmp_path / "out.json", "wb") as out:
            argv = ["convert", models["strict"], "-o", "-", "--trace", trace]
            done = subprocess.run([sys.executable, "-c", script, *argv], stdout=out, stderr=subprocess.PIPE,
                                  env=env, cwd=tmp_path)
        assert (done.returncode, done.stderr) == (EXIT_OK, b"")
        assert (tmp_path / "out.json").read_bytes() == twice.read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    @pytest.mark.parametrize("output", ["/dev/stdout", "out.json"])
    def test_stdout_file_named_as_the_hmc_path_is_one_target(self, models, tmp_path, output):
        """A path to stdout's own file for the HMC and ``--trace -``: the bytes of one path named twice."""
        twice = tmp_path / "twice.json"
        assert main(["convert", models["strict"], "-o", str(twice), "--trace", str(twice)]) == EXIT_OK
        env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
        with open(tmp_path / "out.json", "wb") as out:
            done = subprocess.run([sys.executable, "-m", "chainequiv", "convert", models["strict"],
                                   "-o", output, "--trace", "-"], stdout=out, stderr=subprocess.PIPE,
                                  env=env, cwd=tmp_path)
        assert (done.returncode, done.stderr) == (EXIT_OK, b"")
        assert (tmp_path / "out.json").read_bytes() == twice.read_bytes()

    def test_failed_fork_writes_in_order(self, models, tmp_path, monkeypatch, capsys):
        expected = self.in_order_files(models, tmp_path, monkeypatch, capsys)
        pipes = []
        pipe = os.pipe

        def spy_pipe():
            pipes.extend(pipe())
            return tuple(pipes[-2:])

        def fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "pipe", spy_pipe)
        monkeypatch.setattr(os, "fork", fork)
        hmc, trace = tmp_path / "h.json", tmp_path / "t.json"
        argv = ["convert", models["strict"], "-o", str(hmc), "--trace", str(trace)]
        assert self.convert(monkeypatch, capsys, argv, fork_cells=0) == (EXIT_OK, "", "")
        assert (hmc.read_bytes(), trace.read_bytes()) == expected
        assert len(pipes) == 2
        for fd in pipes:
            with pytest.raises(OSError) as e:
                os.fstat(fd)
            assert e.value.errno == errno.EBADF

    def test_no_child_is_left_behind(self, models, tmp_path, forks):
        assert main(["convert", models["strict"], "-o", str(tmp_path / "h.json"),
                     "--trace", str(tmp_path / "t.json")]) == EXIT_OK
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def in_order_files(self, models, tmp_path, monkeypatch, capsys):
        hmc, trace = tmp_path / "ok-h.json", tmp_path / "ok-t.json"
        argv = ["convert", models["strict"], "-o", str(hmc), "--trace", str(trace)]
        assert self.convert(monkeypatch, capsys, argv, math.inf)[0] == EXIT_OK
        return hmc.read_bytes(), trace.read_bytes()

    @pytest.mark.parametrize("broken", ["trace", "hmc", "both"])
    def test_unwritable_output_exits_2_with_one_error_line(self, models, tmp_path, monkeypatch, capsys,
                                                           forks, broken):
        expected = self.in_order_files(models, tmp_path, monkeypatch, capsys)
        missing = tmp_path / "missing"
        hmc = (missing if broken != "trace" else tmp_path) / "h.json"
        trace = (missing if broken != "hmc" else tmp_path) / "t.json"
        code, out, err = self.convert(monkeypatch, capsys,
                                      ["convert", models["strict"], "-o", str(hmc), "--trace", str(trace)],
                                      fork_cells=0)
        assert len(forks) == 1
        assert (code, out) == (EXIT_PARSE, "")
        failed = trace if broken == "trace" else hmc  # the HMC's error when both fail, as in order
        assert err.startswith(f"error: cannot write {failed}: ") and err.count("\n") == 1
        # The output that could be written is complete.
        if broken == "trace":
            assert hmc.read_bytes() == expected[0]
        if broken == "hmc":
            assert trace.read_bytes() == expected[1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_failure_is_raised_in_the_parent(self, models, tmp_path, monkeypatch, forks):
        pieces = modelfile._json_pieces

        def failing(doc):
            if "psi" in doc:
                raise ValueError("trace writer broke")
            return pieces(doc)

        monkeypatch.setattr(modelfile, "_json_pieces", failing)
        monkeypatch.setattr(cli, "FORK_CELLS", 0)
        with pytest.raises(RuntimeError, match="trace writer broke"):
            main(["convert", models["strict"], "-o", str(tmp_path / "h.json"),
                  "--trace", str(tmp_path / "t.json")])
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_fresh_process_writes_each_document_once(self, models, tmp_path, monkeypatch, capsys):
        expected = self.in_order_files(models, tmp_path, monkeypatch, capsys)
        trace = tmp_path / "t.json"
        env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
        done = subprocess.run([sys.executable, "-m", "chainequiv", "convert", models["strict"],
                               "-o", "-", "--trace", str(trace)], capture_output=True, env=env)
        assert (done.returncode, done.stderr) == (EXIT_OK, b"")
        assert done.stdout == expected[0]
        assert trace.read_bytes() == expected[1]


class TestUnwritableOutput:
    """An output that cannot be written: exit 2 and one ``error: cannot write`` line."""

    def check(self, capsys, code, path, out=""):
        captured = capsys.readouterr()
        assert code == EXIT_PARSE
        assert captured.out == out
        assert captured.err.startswith(f"error: cannot write {path}: ") and captured.err.count("\n") == 1

    def test_random(self, tmp_path, capsys):
        path = tmp_path / "missing" / "m.json"
        self.check(capsys, main(["random", "--n", "3", "--hidden", "2", "--obs", "2", "-o", str(path)]), path)

    def test_convert(self, tmp_path, capsys):
        model = write(tmp_path / "m.json", symmetric_crf_json())
        path = tmp_path / "missing" / "h.json"
        self.check(capsys, main(["convert", model, "-o", str(path)]), path)
        trace = tmp_path / "t.json"
        self.check(capsys, main(["convert", model, "-o", str(path), "--trace", str(trace)]), path)
        assert not trace.exists()  # small traces are written after the HMC, in order

    def test_verify_report(self, tmp_path, capsys):
        model = write(tmp_path / "m.json", symmetric_crf_json())
        assert main(["verify", model]) == EXIT_OK
        summary = capsys.readouterr().out
        path = tmp_path / "missing" / "r.json"
        self.check(capsys, main(["verify", model, "--report", str(path)]), path, out=summary)


class TestScoreOverflow:
    """Finite potentials whose path sums overflow floats: exit 2 before any output."""

    @staticmethod
    def model(tmp_path) -> str:
        doc = json.loads(symmetric_crf_json())
        doc["V"] = [[[1e308, 1e308], [1e308, 1e308]]]
        doc["U"] = [[[1e308], [1e308]], [[1e308], [1e308]]]
        return write(tmp_path / "big.json", json.dumps(doc))

    @staticmethod
    def check_nothing_written(capsys, *paths: Path):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "overflow" in captured.err
        assert not any(p.exists() for p in paths)

    def test_convert(self, tmp_path, capsys):
        out, trace = tmp_path / "h.json", tmp_path / "t.json"
        assert main(["convert", self.model(tmp_path), "-o", str(out), "--trace", str(trace)]) == EXIT_PARSE
        self.check_nothing_written(capsys, out, trace)

    def test_decode(self, tmp_path, capsys):
        seqs = write(tmp_path / "seqs.txt", "x x\n")
        assert main(["decode", self.model(tmp_path), seqs, "--marginals"]) == EXIT_PARSE
        self.check_nothing_written(capsys)

    def test_verify(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert main(["verify", self.model(tmp_path), "--report", str(report)]) == EXIT_PARSE
        self.check_nothing_written(capsys, report)


class TestConstructionPrecision:
    """Tie potentials far above any suffix sum a row could afford to subtract: convert and verify."""

    @staticmethod
    def model(tmp_path, value: float) -> str:
        doc = json.loads(symmetric_crf_json())
        doc["V"] = [[[value, value], [value, value]]]
        doc["U"] = [[[value], [value]], [[value], [value]]]
        return write(tmp_path / "big.json", json.dumps(doc))

    @pytest.mark.parametrize("value", [1e15, 1e16, 1e100], ids=["1e15", "1e16", "1e100"])
    def test_convert(self, tmp_path, capsys, value):
        out, trace = tmp_path / "h.json", tmp_path / "t.json"
        assert main(["convert", self.model(tmp_path, value), "-o", str(out),
                     "--trace", str(trace)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        hmc = ModelFile.load(str(out)).to_model()
        for table in (hmc.init, *hmc.transitions, *hmc.emissions):
            np.testing.assert_allclose(table.probabilities().sum(axis=-1), 1.0, atol=1e-15)
        assert json.loads(trace.read_text())["beta"][-1] == [0.0, 0.0]

    @pytest.mark.parametrize("value", [1e15, 1e16, 1e100], ids=["1e15", "1e16", "1e100"])
    def test_verify(self, tmp_path, capsys, value):
        report = tmp_path / "r.json"
        assert main(["verify", self.model(tmp_path, value), "--report", str(report)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        rep = json.loads(report.read_text())
        assert rep["passed"] is True and rep["max_discrepancy"] <= 1e-9


class TestDecode:
    def test_pinning_emissions(self, tmp_path, capsys):
        model = write(tmp_path / "h.json", pinning_hmc_json())
        seqs = write(tmp_path / "s.txt", "a b a\nb b b\n")
        assert main(["decode", model, seqs]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out == ["A B A", "B B B"]

    def test_uniform_model_breaks_ties_low(self, tmp_path, capsys):
        model = write(tmp_path / "m.json", symmetric_crf_json())
        seqs = write(tmp_path / "s.txt", "x x\n")
        assert main(["decode", model, seqs]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["a a"]

    def test_marginals_column_format(self, tmp_path, capsys):
        model = write(tmp_path / "h.json", pinning_hmc_json())
        seqs = write(tmp_path / "s.txt", "a b a\n")
        assert main(["decode", model, seqs, "--marginals"]) == EXIT_OK
        fields = capsys.readouterr().out.strip().split("\t")
        assert fields[0] == "A B A"
        assert fields[1:] == ["1.000000,0.000000", "0.000000,1.000000", "1.000000,0.000000"]

    def test_crf_and_converted_hmc_agree_bytewise(self, tmp_path, capsys):
        main(["random", "--n", "4", "--hidden", "3", "--obs", "2", "--seed", "21",
              "-o", str(tmp_path / "m.json")])
        main(["convert", str(tmp_path / "m.json"), "-o", str(tmp_path / "h.json")])
        rng = np.random.default_rng(0)
        lines = "\n".join(" ".join(f"o{v}" for v in rng.integers(0, 2, 4))
                          for _ in range(25))
        seqs = write(tmp_path / "s.txt", lines + "\n")
        assert main(["decode", str(tmp_path / "m.json"), seqs]) == EXIT_OK
        crf_out = capsys.readouterr().out
        assert main(["decode", str(tmp_path / "h.json"), seqs]) == EXIT_OK
        hmc_out = capsys.readouterr().out
        crf_labels = [line.split("\t")[0] for line in crf_out.splitlines()]
        hmc_labels = [line.split("\t")[0] for line in hmc_out.splitlines()]
        assert crf_labels == hmc_labels

    def test_impossible_line_is_isolated(self, tmp_path, capsys):
        model = write(tmp_path / "h.json", pinning_hmc_json())
        doc = json.loads(pinning_hmc_json())
        doc["init"] = [1.0, 0.0]  # starting in B is impossible
        model = write(tmp_path / "h.json", json.dumps(doc))
        seqs = write(tmp_path / "s.txt", "b a a\na a a\n")
        assert main(["decode", model, seqs]) == EXIT_IMPOSSIBLE
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["A A A"]
        assert "line 1" in captured.err

    def test_zero_evidence_line_on_generalized_crf(self, tmp_path, capsys):
        doc = json.loads(symmetric_crf_json())
        doc["mode"] = "generalized"
        doc["obs_symbols"] = ["x", "y"]
        doc["U"] = [[[0.0, "-inf"], [0.0, "-inf"]]] * 2  # y unobservable
        model = write(tmp_path / "m.json", json.dumps(doc))
        seqs = write(tmp_path / "s.txt", "x y\nx x\n")
        assert main(["decode", model, seqs]) == EXIT_IMPOSSIBLE
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["a a"]
        assert "line 1" in captured.err

    def test_unknown_symbol_is_parse_error(self, tmp_path, capsys):
        model = write(tmp_path / "h.json", pinning_hmc_json())
        seqs = write(tmp_path / "s.txt", "a z a\na b a\n")
        assert main(["decode", model, seqs]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["A B A"]
        assert "line 1" in captured.err

    def test_wrong_length_without_tile(self, tmp_path, capsys):
        model = write(tmp_path / "h.json", pinning_hmc_json())
        seqs = write(tmp_path / "s.txt", "a b\n")
        assert main(["decode", model, seqs]) == EXIT_PARSE
        assert "--tile" in capsys.readouterr().err

    def test_tile_accepts_any_length(self, tmp_path, capsys, monkeypatch):
        model = write(tmp_path / "h.json", pinning_hmc_json())
        seqs = write(tmp_path / "s.txt", "a b\nb a b a b\n")
        tiled, leaders = spy_on_tiling(monkeypatch, "hmc")
        assert main(["decode", model, seqs, "--tile"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["A B", "B A B A B"]
        assert tiled == leaders == [5]  # one call, on the model tiled to its longest line

    @pytest.mark.parametrize("space", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
                             ids=["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"])
    def test_only_newlines_end_lines(self, tmp_path, capsys, space):
        # The character is whitespace inside line 1, not a line break, so the
        # bad symbol is on line 2.
        model = write(tmp_path / "h.json", pinning_hmc_json())
        seqs = tmp_path / "s.txt"
        seqs.write_text(f"a{space}b a\nb z b\n", encoding="utf-8")
        assert main(["decode", model, str(seqs)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "A B A\n"
        assert captured.err == "line 2: symbol 'z' is not in the alphabet\n"

    def test_crlf_and_cr_end_lines(self, tmp_path, capsys):
        model = write(tmp_path / "h.json", pinning_hmc_json())
        seqs = tmp_path / "s.txt"
        seqs.write_bytes(b"a b a\r\n\rb z b\rb b b\r\n\nb a b")
        assert main(["decode", model, str(seqs)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "A B A\nB B B\nB A B\n"
        assert captured.err == "line 3: symbol 'z' is not in the alphabet\n"

    def test_sequences_are_read_before_any_line_is_split(self, tmp_path):
        lines = read_sequences(write(tmp_path / "s.txt", "a b\n\n c \n"))
        assert iter(lines) is lines
        assert list(lines) == [(1, ["a", "b"]), (3, ["c"])]
        with pytest.raises(ParseError, match="cannot read"):
            read_sequences(str(tmp_path / "missing.txt"))

    def test_tile_rejects_time_varying_model(self, tmp_path, capsys, monkeypatch):
        """Lines of the model's length decode; every other line gets the one ``--tile`` error line.

        The model is checked once, so no model is tiled for a length that does
        not lead a chain call.
        """
        for kind, table in (("crf", "pairwise"), ("hmc", "emission")):
            path = str(tmp_path / f"{kind}.json")
            if kind == "crf":
                ModelFile.from_crf(random_crf_model(3, 2, 2, seed=5)).dump(path)
            else:
                doc = json.loads(pinning_hmc_json())
                doc["emit"][2] = [[0.5, 0.5], [0.5, 0.5]]
                write(Path(path), json.dumps(doc))
            model = ModelFile.load(path).to_model()
            a, b = model.obs.symbols
            text = f"{a} {b} {a}\n{b}\n\n{a} {a} {b} {b}\n{b} {a} {b}\n{a} {b}\n"
            seqs = write(tmp_path / "s.txt", text)
            lines = [(i, line.split()) for i, line in enumerate(text.splitlines(), start=1) if line]
            expected = per_line_decode(model, lines, tile=True)
            message = f"--tile requires identical {table} tables at every position"
            assert expected[1] == "".join(f"line {i}: {message}\n" for i in (2, 4, 6))
            assert len(expected[0].splitlines()) == 2
            with monkeypatch.context() as patch:
                tiled, leaders = spy_on_tiling(patch, kind)
                code = main(["decode", path, seqs, "--tile", "--marginals"])
            captured = capsys.readouterr()
            assert (captured.out, captured.err, code) == expected, kind
            assert leaders == [3] and tiled == [], kind

    @pytest.mark.parametrize("kind", ["crf", "hmc"])
    def test_tile_cannot_extend_a_length_one_model(self, tmp_path, capsys, kind):
        """Length-1 lines decode; every longer line gets the one length-1 error line."""
        crf = random_crf_model(1, 3, 2, seed=4)
        doc = ModelFile.from_crf(crf) if kind == "crf" else ModelFile.from_hmc(crf_to_hmc(crf)[0])
        path = str(tmp_path / "m.json")
        doc.dump(path)
        model = ModelFile.load(path).to_model()
        seqs = write(tmp_path / "s.txt", "o0\no1 o0\n\no1\no0 o1 o1\no1 o1\n")
        assert main(["decode", path, seqs, "--tile"]) == EXIT_PARSE
        marginals = crf_posterior_marginals if kind == "crf" else hmc_posterior_marginals
        labels = [model.hidden.symbol(marginals(model, (y,)).mpm_labels()[0]) for y in (0, 1)]
        message = "--tile cannot extend a length-1 model (no pairwise table to repeat)"
        assert capsys.readouterr() == (
            f"{labels[0]}\n{labels[1]}\n",
            "".join(f"line {i}: {message}\n" for i in (2, 5, 6)),
        )
        with pytest.raises(ValidationError, match="cannot extend a length-1 model"):
            _tiled_model(model, 3)


def spy_on_tiling(monkeypatch, kind: str) -> tuple[list[int], list[int]]:
    """Lists that fill, as ``decode`` runs, with the lengths it tiles models to and
    the longest line of each chain call."""
    tiled, leaders = [], []
    module, name = (decode._crf, "crf_posterior_marginals_batch") if kind == "crf" else (
        decode._hmc, "hmc_posterior_marginals_batch")
    batch, tile = getattr(module, name), decode._tiled_model

    def batch_spy(model, ys, lengths):
        leaders.append(int(lengths[0]))
        return batch(model, ys, lengths)

    def tile_spy(model, length):
        tiled.append(length)
        return tile(model, length)

    monkeypatch.setattr(module, name, batch_spy)
    monkeypatch.setattr(decode, "_tiled_model", tile_spy)
    return tiled, leaders


def per_line_decode(model, lines, tile: bool, with_columns: bool = True):
    """``decode`` output as (stdout, stderr, exit code), one marginals call and one "%.6f" per value.

    ``lines`` are (line number, tokens) pairs; ``with_columns`` adds the
    columns of ``--marginals``.
    """
    marginal_fn = crf_posterior_marginals if isinstance(model, CrfModel) else hmc_posterior_marginals
    tiled = {model.length: model}
    out, err = [], []
    parse_errors = impossible = 0
    for line_no, tokens in lines:
        try:
            y = tuple(model.obs.index(t) for t in tokens)
            if len(y) != model.length and not tile:
                raise ValidationError(
                    f"expected {model.length} symbols, got {len(y)} (use --tile for other lengths)"
                )
            if len(y) not in tiled:
                tiled[len(y)] = _tiled_model(model, len(y))
        except ValidationError as e:
            parse_errors += 1
            err.append(f"line {line_no}: {e}\n")
            continue
        try:
            marginals = marginal_fn(tiled[len(y)], y)
        except (DegenerateModel, ImpossibleObservation) as e:
            impossible += 1
            err.append(f"line {line_no}: {e}\n")
            continue
        fields = [" ".join(model.hidden.symbol(i) for i in marginals.mpm_labels())]
        if with_columns:
            fields += [",".join(f"{p:.6f}" for p in row) for row in marginals.probabilities()]
        out.append("\t".join(fields) + "\n")
    code = EXIT_PARSE if parse_errors else EXIT_IMPOSSIBLE if impossible else EXIT_OK
    return "".join(out), "".join(err), code


class TestBatchedDecode:
    """``decode`` batches lines by length; its bytes must match the per-line loop."""

    K, L, N = 64, 4, 4
    BLOCK = 256  # decode's block, patched so that the lines cross one

    @pytest.fixture(scope="class")
    def models(self, tmp_path_factory):
        """Time-homogeneous strict and generalized CRFs and their converted HMCs."""
        tmp = tmp_path_factory.mktemp("batched")
        rng = np.random.default_rng(8)
        hidden, obs = default_alphabets(self.K, self.L)
        paths = {}
        for mode in ("strict", "generalized"):
            pair = rng.uniform(-5.0, 5.0, (self.K, self.K))
            emit = rng.uniform(-5.0, 5.0, (self.K, self.L))
            if mode == "generalized":
                pair[rng.random(pair.shape) < 0.1] = -np.inf
                emit[:, 3] = -np.inf  # any line with o3 is impossible
            crf = CrfModel.homogeneous(hidden, obs, self.N, Table2(pair), Table2(emit), mode=mode)
            paths[mode, "crf"] = str(tmp / f"{mode}-crf.json")
            paths[mode, "hmc"] = str(tmp / f"{mode}-hmc.json")
            ModelFile.from_crf(crf).dump(paths[mode, "crf"])
            assert main(["convert", paths[mode, "crf"], "-o", paths[mode, "hmc"]]) == EXIT_OK
        lines = []
        for i in range(self.BLOCK + 60):
            length = (self.N, 1, self.N + 2, self.N, self.N - 1)[i % 5]
            tokens = [f"o{v}" for v in rng.integers(0, self.L, length)]
            if i % 97 == 5:
                tokens[-1] = "zz"
            lines.append(" ".join(tokens))
            if i % 150 == 7:
                lines.append("")
        seqs = write(tmp / "seqs.txt", "\n".join(lines) + "\n")
        return paths, seqs

    @pytest.mark.parametrize("tile", [True, False])
    @pytest.mark.parametrize("kind", ["crf", "hmc"])
    @pytest.mark.parametrize("mode", ["strict", "generalized"])
    def test_matches_per_line_decode(self, models, capsys, monkeypatch, mode, kind, tile):
        paths, seqs = models
        monkeypatch.setattr(decode, "DECODE_BLOCK_LINES", self.BLOCK)
        model = ModelFile.load(paths[mode, kind]).to_model()
        expected = per_line_decode(model, read_sequences(seqs), tile)
        code = main(["decode", paths[mode, kind], seqs, "--marginals"] + (["--tile"] if tile else []))
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == expected
        if mode == "generalized":
            assert "probability zero" in expected[1] or "zero weight" in expected[1]

    def test_model_and_sequences_both_from_stdin_rejected(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(pinning_hmc_json()))
        assert main(["decode", "-", "-"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "stdin" in captured.err

    def test_model_from_stdin(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(pinning_hmc_json().encode())))
        seqs = write(tmp_path / "s.txt", "a b a\n")
        assert main(["decode", "-", seqs]) == EXIT_OK
        assert capsys.readouterr().out == "A B A\n"


class TestDecodeAgainstPerLine:
    """``decode`` bytes against :func:`per_line_decode` for k in {1, 2, 8, 33}.

    Each length group of the sequence file mixes decodable, unknown-symbol
    and (generalized models) impossible lines, with blank lines between; the
    CLI runs with every warning an error, so a NaN row that warns fails.
    """

    N, L = 4, 3  # model length; observation symbols (o2 is impossible under "generalized")

    @pytest.fixture(scope="class")
    def models(self, tmp_path_factory):
        """Time-homogeneous strict and generalized CRFs and their converted HMCs."""
        tmp = tmp_path_factory.mktemp("per-line")
        rng = np.random.default_rng(9)
        paths = {}
        for k in (1, 2, 8, 33):
            hidden, obs = default_alphabets(k, self.L)
            for mode in ("strict", "generalized"):
                pair = rng.uniform(-5.0, 5.0, (k, k))
                emit = rng.uniform(-5.0, 5.0, (k, self.L))
                if mode == "generalized":
                    pair[rng.random(pair.shape) < 0.2] = -np.inf
                    np.fill_diagonal(pair, 0.0)  # every state can stay, so no length is dead
                    emit[:, self.L - 1] = -np.inf
                crf = CrfModel.homogeneous(hidden, obs, self.N, Table2(pair), Table2(emit), mode=mode)
                paths[k, mode, "crf"] = str(tmp / f"{k}-{mode}-crf.json")
                paths[k, mode, "hmc"] = str(tmp / f"{k}-{mode}-hmc.json")
                ModelFile.from_crf(crf).dump(paths[k, mode, "crf"])
                assert main(["convert", paths[k, mode, "crf"], "-o", paths[k, mode, "hmc"]]) == EXIT_OK
        return paths

    def sequences(self, tmp_path, seed: int):
        """A sequence file of lengths 1-6, and its (line number, tokens) pairs."""
        rng = np.random.default_rng(seed)
        lines = []
        for i in range(48):
            length = (self.N, 2, self.N, 6, 1, self.N)[i % 6]
            tokens = [f"o{v}" for v in rng.integers(0, self.L - 1, length)]
            if i % 7 == 3:
                tokens[0] = f"o{self.L - 1}"
            if i % 11 == 5:
                tokens[-1] = "zz"
            lines.append(" ".join(tokens))
            if i % 13 == 2:
                lines.append("   ")
        path = write(tmp_path / "seqs.txt", "\n".join(lines) + "\n")
        return path, [(i, line.split()) for i, line in enumerate(lines, start=1) if line.split()]

    @pytest.mark.parametrize("marginals", [True, False], ids=["marginals", "labels"])
    @pytest.mark.parametrize("tile", [True, False], ids=["tile", "fixed"])
    @pytest.mark.parametrize("kind", ["crf", "hmc"])
    @pytest.mark.parametrize("mode", ["strict", "generalized"])
    @pytest.mark.parametrize("k", [1, 2, 8, 33])
    def test_matches_per_line_decode(self, models, tmp_path, capsys, k, mode, kind, tile, marginals):
        path = models[k, mode, kind]
        seqs, lines = self.sequences(tmp_path, seed=k)
        expected = per_line_decode(ModelFile.load(path).to_model(), lines, tile, marginals)
        argv = ["decode", path, seqs] + ["--tile"] * tile + ["--marginals"] * marginals
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == expected
        assert code == EXIT_PARSE and captured.out
        if mode == "generalized":
            assert "probability zero" in captured.err or "zero weight" in captured.err

    @pytest.mark.parametrize("chunk", [1, 9, 4 * 8 + 1])
    def test_bytes_do_not_depend_on_the_column_chunk(self, models, tmp_path, capsys, monkeypatch, chunk):
        seqs, _ = self.sequences(tmp_path, seed=5)
        argv = ["decode", models[8, "generalized", "crf"], seqs, "--tile", "--marginals"]
        code = main(argv)
        expected = capsys.readouterr()
        monkeypatch.setattr(decode, "MARGINAL_CHUNK_CELLS", chunk)
        assert main(argv) == code
        assert capsys.readouterr() == expected


class TestLengthSortedDecode:
    """``decode`` sorts a block's lines by length into ragged chain calls of bounded
    size; its bytes must match :func:`per_line_decode` wherever blocks and calls end.

    The block and the call bound are set small, so that block and call seams fall
    inside runs of lines of one length.  The file mixes lengths 1-40 with
    unknown-symbol, blank and impossible lines.
    """

    N, K, L = 6, 3, 3  # model length, labels, symbols; o2 is impossible

    @pytest.fixture(scope="class")
    def models(self, tmp_path_factory):
        """A generalized time-homogeneous CRF and a stationary HMC with zero-weight cells."""
        tmp = tmp_path_factory.mktemp("sorted")
        rng = np.random.default_rng(21)
        hidden, obs = default_alphabets(self.K, self.L)
        pair = rng.uniform(-5.0, 5.0, (self.K, self.K))
        pair[rng.random(pair.shape) < 0.3] = -np.inf
        np.fill_diagonal(pair, 0.0)
        emit = rng.uniform(-5.0, 5.0, (self.K, self.L))
        emit[:, 2] = -np.inf
        crf = CrfModel.homogeneous(hidden, obs, self.N, Table2(pair), Table2(emit), mode="generalized")
        trans, emit = np.exp(pair), np.exp(emit)
        hmc = HmcModel.homogeneous(hidden, obs, self.N, Table1.from_probabilities([0.5, 0.3, 0.2]),
                                   Table2.from_probabilities(trans / trans.sum(1, keepdims=True)),
                                   Table2.from_probabilities(emit / emit.sum(1, keepdims=True)))
        paths = {"crf": str(tmp / "crf.json"), "hmc": str(tmp / "hmc.json")}
        ModelFile.from_crf(crf).dump(paths["crf"])
        ModelFile.from_hmc(hmc, mode="generalized").dump(paths["hmc"])
        return paths

    def sequences(self, tmp_path):
        rng = np.random.default_rng(22)
        lines = []
        for i in range(160):
            length = int(rng.integers(1, 41)) if i % 4 == 0 else (self.N, 12, 3)[i % 3]
            tokens = [f"o{v}" for v in rng.integers(0, self.L - 1, length)]
            if i % 9 == 4:
                tokens[-1] = "o2"
            if i % 13 == 6:
                tokens[0], tokens[-1] = "zz", "yy"  # the first unknown symbol is named
            lines.append(" ".join(tokens))
            if i % 17 == 2:
                lines.append("")
        path = write(tmp_path / "seqs.txt", "\n".join(lines) + "\n")
        return path, [(i, line.split()) for i, line in enumerate(lines, start=1) if line.split()]

    @pytest.mark.parametrize("tile", [True, False], ids=["tile", "fixed"])
    @pytest.mark.parametrize("kind", ["crf", "hmc"])
    def test_matches_per_line_decode(self, models, tmp_path, capsys, monkeypatch, kind, tile):
        seqs, lines = self.sequences(tmp_path)
        model = ModelFile.load(models[kind]).to_model()
        expected = per_line_decode(model, lines, tile)
        monkeypatch.setattr(decode, "DECODE_BLOCK_LINES", 23)
        monkeypatch.setattr(decode, "DECODE_CALL_CELLS", 4 * 12 * self.K)
        calls = []
        module, name = (decode._crf, "crf_posterior_marginals_batch") if kind == "crf" else (
            decode._hmc, "hmc_posterior_marginals_batch")
        batch = getattr(module, name)

        def spy(model, ys, lengths):
            calls.append((model.length, lengths.tolist()))
            return batch(model, ys, lengths)

        monkeypatch.setattr(module, name, spy)
        tiled, _ = spy_on_tiling(monkeypatch, kind)
        argv = ["decode", models[kind], seqs, "--marginals"] + ["--tile"] * tile
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == expected
        assert code == EXIT_PARSE and captured.out
        assert "zero weight" in captured.err or "probability zero" in captured.err
        assert "symbol 'zz' is not in the alphabet" in captured.err
        for longest, lengths in calls:
            assert lengths == sorted(lengths, reverse=True) and longest == lengths[0]
            assert len(lengths) * longest * self.K <= decode.DECODE_CALL_CELLS or len(lengths) == 1
        if tile:  # a retiled model has the loaded tables, so the model's own length shares calls
            assert any(self.N in lengths and len(set(lengths)) > 1 for _, lengths in calls)
        seams = [a[-1] for (_, a), (_, b) in zip(calls, calls[1:]) if a[-1] == b[0]]
        assert seams  # a run of one length spans two calls
        if tile:
            assert len({n for _, lengths in calls for n in lengths}) > 10
        # each length that leads a call and is not the model's own is tiled once
        assert sorted(tiled) == sorted({longest for longest, _ in calls} - {self.N})


class TestDecodeBlockSeams:
    """``decode`` bytes against :func:`per_line_decode` with blocks of 1, 2, 7 and the default
    number of lines, on a file that puts every kind of line next to a block seam.

    The file mixes blank and whitespace-only lines, ``\\n``, ``\\r\\n`` and ``\\r``
    ends (and none on the last line), ``\\x85`` and U+2028 between tokens, unknown
    symbols first or last on a line, a line both unknown and of the wrong length,
    and impossible lines; the reference reads it with :func:`read_sequences`.
    """

    N, K, L = 5, 3, 3  # model length, labels, symbols; o2 is impossible

    @pytest.fixture(scope="class")
    def models(self, tmp_path_factory):
        """A generalized time-homogeneous CRF and a stationary HMC with zero-weight cells."""
        tmp = tmp_path_factory.mktemp("seams")
        rng = np.random.default_rng(31)
        hidden, obs = default_alphabets(self.K, self.L)
        pair = rng.uniform(-5.0, 5.0, (self.K, self.K))
        pair[rng.random(pair.shape) < 0.3] = -np.inf
        np.fill_diagonal(pair, 0.0)
        emit = rng.uniform(-5.0, 5.0, (self.K, self.L))
        emit[:, 2] = -np.inf
        crf = CrfModel.homogeneous(hidden, obs, self.N, Table2(pair), Table2(emit), mode="generalized")
        trans, emit = np.exp(pair), np.exp(emit)
        hmc = HmcModel.homogeneous(hidden, obs, self.N, Table1.from_probabilities([0.2, 0.5, 0.3]),
                                   Table2.from_probabilities(trans / trans.sum(1, keepdims=True)),
                                   Table2.from_probabilities(emit / emit.sum(1, keepdims=True)))
        paths = {"crf": str(tmp / "crf.json"), "hmc": str(tmp / "hmc.json")}
        ModelFile.from_crf(crf).dump(paths["crf"])
        ModelFile.from_hmc(hmc, mode="generalized").dump(paths["hmc"])

        lines = []
        for i in range(64):
            length = int(rng.integers(1, 10)) if i % 2 else self.N
            tokens = [f"o{v}" for v in rng.integers(0, self.L - 1, length)]
            if i % 11 == 1:
                tokens[0] = "zz"
            if i % 11 == 6:
                tokens[-1] = "yy"
            if i % 13 == 2:
                tokens = ["o0"] * (self.N + 3) + ["xx"]  # unknown and the wrong length
            if i % 9 == 4:
                tokens[-1] = "o2"
            separators = [" "] * len(tokens)
            if i % 7 == 3:
                separators[-1] = "\x85"
            if i % 7 == 5:
                separators[0] = "\u2028"
            lines.append("".join(sep + t for sep, t in zip(separators, tokens)).lstrip(" "))
            if i % 6 == 2:
                lines.append("" if i % 12 == 2 else " \t ")
        ends = rng.choice(["\n", "\r\n", "\r"], len(lines)).tolist()
        text = "".join(line + end for line, end in zip(lines, ends))[:-len(ends[-1])]
        seqs = tmp / "seqs.txt"
        seqs.write_bytes(text.encode())
        return paths, str(seqs)

    @pytest.mark.parametrize("marginals", [True, False], ids=["marginals", "labels"])
    @pytest.mark.parametrize("tile", [True, False], ids=["tile", "fixed"])
    @pytest.mark.parametrize("kind", ["crf", "hmc"])
    @pytest.mark.parametrize("block", [1, 2, 7, None], ids=["1", "2", "7", "default"])
    def test_matches_per_line_decode(self, models, capsys, monkeypatch, block, kind, tile, marginals):
        paths, seqs = models
        model = ModelFile.load(paths[kind]).to_model()
        expected = per_line_decode(model, read_sequences(seqs), tile, marginals)
        if block is not None:
            monkeypatch.setattr(decode, "DECODE_BLOCK_LINES", block)
        argv = ["decode", paths[kind], seqs] + ["--tile"] * tile + ["--marginals"] * marginals
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == expected
        for message in ("symbol 'zz'", "symbol 'yy'", "symbol 'xx'", "zero weight" if kind == "crf"
                        else "probability zero"):
            assert message in captured.err
        assert (f"expected {self.N} symbols" in captured.err) != tile

    @pytest.mark.parametrize("kind", ["crf", "hmc"])
    def test_sequences_from_stdin_match_the_file(self, models, capsys, monkeypatch, kind):
        paths, seqs = models
        argv = ["decode", paths[kind], seqs, "--tile", "--marginals"]
        code = main(argv)
        expected = capsys.readouterr()
        stdin = io.TextIOWrapper(io.BytesIO(Path(seqs).read_bytes()), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(argv[:2] + ["-"] + argv[3:]) == code
        assert capsys.readouterr() == expected


class TestRetiledTables:
    def test_retiled_stationary_hmc_keeps_the_loaded_tables(self):
        """200 stationary HMCs with rows from ``crf_to_hmc``: retiling copies no bit wrong."""
        for seed in range(200):
            hmc, _ = crf_to_hmc(random_crf_model(3, 4, 3, seed=seed))
            stationary = HmcModel.homogeneous(hmc.hidden, hmc.obs, 3, hmc.init, hmc.transitions[0],
                                              hmc.emissions[0])
            loaded = ModelFile.from_json(ModelFile.from_hmc(stationary).to_json()).to_model()
            for length in (1, 2, 3, 4, 9, 40):
                tiled = _tiled_model(loaded, length)
                assert tiled.length == length
                for name in ("init", "transitions", "emissions"):
                    got = getattr(tiled, name).log_values
                    want = getattr(loaded, name).log_values
                    want = want if name == "init" else np.broadcast_to(want[:1], got.shape)
                    assert got.tobytes() == np.ascontiguousarray(want).tobytes(), (seed, length, name)


class TestVerify:
    def test_all_zero_model_zero_discrepancy(self, tmp_path, capsys):
        path = write(tmp_path / "m.json", symmetric_crf_json())
        assert main(["verify", path]) == EXIT_OK
        assert "max posterior discrepancy" in capsys.readouterr().out

    def test_report_file(self, tmp_path):
        main(["random", "--n", "4", "--hidden", "3", "--obs", "2", "--seed", "13",
              "-o", str(tmp_path / "m.json")])
        assert main(["verify", str(tmp_path / "m.json"),
                     "--report", str(tmp_path / "r.json")]) == EXIT_OK
        rep = json.loads((tmp_path / "r.json").read_text())
        assert rep["passed"] is True
        assert rep["max_discrepancy"] <= 1e-10
        assert rep["exhaustive"] is True
        assert rep["sequences_checked"] == 16

    def test_report_to_stdout_follows_the_summary(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        main(["random", "--n", "3", "--hidden", "2", "--obs", "2", "--seed", "13", "-o", "m.json"])
        assert main(["verify", "m.json", "--report", "r.json"]) == EXIT_OK
        summary = capsys.readouterr().out
        assert main(["verify", "m.json", "--report", "-"]) == EXIT_OK
        assert capsys.readouterr().out == summary + (tmp_path / "r.json").read_text()
        assert not (tmp_path / "-").exists()

    def test_chunked_sampling_counts_zero_evidence_rows(self, tmp_path):
        # symbol o2 is impossible at position 1, so some sampled y have no weight
        model = random_crf_model(4, 2, 3, seed=8, mode="generalized")
        emits = np.array(model.emit_potentials.log_values)
        emits[1][:, 2] = float("-inf")
        model = CrfModel(model.hidden, model.obs, model.pair_potentials.log_values, emits,
                         mode="generalized")
        ModelFile.from_crf(model).dump(str(tmp_path / "m.json"))
        reports = []
        # 2^4 labelings: a budget of 48 checks 3 rows per chunk, 1000 all 40 in one
        for budget in ("48", "1000"):
            report = tmp_path / f"r{budget}.json"
            assert main(["verify", str(tmp_path / "m.json"), "--budget", budget,
                         "--samples", "40", "--seed", "3", "--report", str(report)]) == EXIT_OK
            reports.append(report.read_text())
        assert reports[0] == reports[1]
        rep = json.loads(reports[0])
        ys = np.random.default_rng(3).integers(0, 3, size=(40, 4))
        dead = sum(all(naive_crf_score(model, x, y) == float("-inf") for x in label_space(2, 4))
                   for y in ys.tolist())
        assert 0 < dead < 40
        assert rep["sequences_skipped_zero_evidence"] == dead
        assert rep["sequences_checked"] == 40 - dead
        assert rep["exhaustive"] is False and rep["passed"] is True

    @pytest.mark.parametrize("kind", ["strict", "dead-rows", "one-symbol"])
    def test_exhaustive_blocks_leave_the_report_unchanged(self, tmp_path, monkeypatch, capsys, kind):
        """The exhaustive twin of the chunked sampling test: one report at every block size."""
        if kind == "dead-rows":  # symbol o2 is impossible at position 1: 27 of 81 y have no weight
            model = random_crf_model(4, 2, 3, seed=8, mode="generalized")
            emits = np.array(model.emit_potentials.log_values)
            emits[1][:, 2] = float("-inf")
            model = CrfModel(model.hidden, model.obs, model.pair_potentials.log_values, emits,
                             mode="generalized")
        else:
            model = random_crf_model(4, 3, 3, seed=5) if kind == "strict" else random_crf_model(3, 3, 1, seed=2)
        crf, hmc = str(tmp_path / "m.json"), str(tmp_path / "h.json")
        ModelFile.from_crf(model).dump(crf)
        assert main(["convert", crf, "-o", hmc]) == EXIT_OK
        k, l, n = model.hidden.size, model.obs.size, model.length
        labelings, rows = k**n, l**n
        calls = []
        original = cli.enumerate_crf_posterior_batch
        monkeypatch.setattr(cli, "enumerate_crf_posterior_batch",
                            lambda m, ys, budget: calls.append(len(ys)) or original(m, ys, budget))
        runs = [(cells, "1000000") for cells in (1, labelings, l * labelings, oracle.ENUMERATION_BLOCK_CELLS)]
        runs.append((oracle.ENUMERATION_BLOCK_CELLS, str(rows * labelings)))  # the smallest exhaustive budget
        outputs, blocks = [], []
        for cells, budget in runs:
            monkeypatch.setattr(oracle, "ENUMERATION_BLOCK_CELLS", cells)
            report = tmp_path / "r.json"
            calls.clear()
            assert main(["verify", crf, "--against", hmc, "--budget", budget,
                         "--report", str(report)]) == EXIT_OK
            outputs.append((capsys.readouterr(), report.read_bytes()))
            blocks.append(len(calls))
            assert sum(calls) == rows
        assert all(output == outputs[0] for output in outputs)
        assert blocks == [rows, rows, max(1, rows // l), 1, 1]
        rep = json.loads(outputs[0][1])
        assert rep["exhaustive"] is True and rep["passed"] is True
        assert rep["sequences_skipped_zero_evidence"] == (27 if kind == "dead-rows" else 0)

    @pytest.mark.parametrize("n, k, l", [(3, 10, 10), (6, 1, 10)])
    def test_exhaustive_memory_does_not_grow_with_the_check(self, tmp_path, n, k, l):
        # At the default budget's edge.  10^3 observation rows of 10^3
        # labelings: whole score matrices took about 30 MB.  10^6 rows of one
        # labeling: all observation sequences at once took about 48 MB.
        # Blocks of 2^16 cells, built one at a time, take under 2 MB.
        crf, hmc = str(tmp_path / "m.json"), str(tmp_path / "h.json")
        assert main(["random", "--n", str(n), "--hidden", str(k), "--obs", str(l), "--seed", "1",
                     "-o", crf]) == EXIT_OK
        assert main(["convert", crf, "-o", hmc]) == EXIT_OK
        tracemalloc.start()
        try:
            code = main(["verify", crf, "--against", hmc, "--report", str(tmp_path / "r.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert json.loads((tmp_path / "r.json").read_text())["sequences_checked"] == l**n
        assert peak < 4e6

    @pytest.mark.parametrize("symbols", [2, 3, 5, 256, 2**33])
    def test_sampled_blocks_are_one_draw(self, symbols):
        # ``verify --samples`` draws its rows a block at a time from one
        # generator; joined, the blocks are one whole draw, as before.
        for length, rows, samples in ((3, 7, 1000), (6, 89, 3000), (1, 1, 5)):
            whole = np.random.default_rng(5).integers(0, symbols, size=(samples, length), dtype=np.intp)
            blocks = list(cli._sampled_blocks(symbols, length, rows, samples, 5))
            assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
            assert np.array_equal(np.concatenate(blocks), whole)

    def test_sampled_memory_does_not_grow_with_the_samples(self, tmp_path, capsys):
        # 2^2 labelings of 200^2 observation sequences, over a budget of 2^16:
        # sampled, 2^14 rows a block.  10^6 rows drawn at once took 16 MB more.
        crf = str(tmp_path / "m.json")
        assert main(["random", "--n", "2", "--hidden", "2", "--obs", "200", "--seed", "1", "-o", crf]) == EXIT_OK
        peaks = []
        for samples in (10**4, 10**6):
            tracemalloc.start()
            try:
                assert main(["verify", crf, "--samples", str(samples), "--budget", str(2**16)]) == EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert f"checked {10**6} observation sequence(s) (sampled)" in capsys.readouterr().out
        assert peaks[1] - peaks[0] < 2e6

    def test_dead_hmc_row_worst_position_uses_zero_marginals(self, tmp_path):
        # The HMC forbids symbol o1, so its posterior for the first y holding
        # o1 is dead (discrepancy 1) while the strict CRF's is not; the worst
        # position compares the CRF marginals with zeros there.
        main(["random", "--n", "3", "--hidden", "3", "--obs", "2", "--seed", "6",
              "-o", str(tmp_path / "m.json")])
        main(["convert", str(tmp_path / "m.json"), "-o", str(tmp_path / "h.json")])
        doc = json.loads((tmp_path / "h.json").read_text())
        doc["emit"] = [[[1.0, 0.0]] * 3] * 3
        write(tmp_path / "h.json", json.dumps(doc))
        report = tmp_path / "r.json"
        assert main(["verify", str(tmp_path / "m.json"), "--against", str(tmp_path / "h.json"),
                     "--report", str(report)]) == EXIT_MISMATCH
        rep = json.loads(report.read_text())
        model = ModelFile.load(str(tmp_path / "m.json")).to_model()
        posterior, _ = brute_crf_posterior(model, (0, 0, 1))
        marginals = marginals_of(posterior, 3, 3)
        assert rep["max_discrepancy"] == 1.0
        assert rep["worst_y"] == ["o0", "o0", "o1"]
        assert rep["worst_position"] == int(np.argmax(marginals.max(axis=1)))

    def test_corrupted_against_fails_with_exit_5(self, tmp_path, capsys):
        main(["random", "--n", "3", "--hidden", "2", "--obs", "2", "--seed", "2",
              "-o", str(tmp_path / "m.json")])
        main(["convert", str(tmp_path / "m.json"), "-o", str(tmp_path / "h.json")])
        doc = json.loads((tmp_path / "h.json").read_text())
        doc["trans"][0] = [[0.9, 0.1], [0.1, 0.9]]
        write(tmp_path / "bad.json", json.dumps(doc))
        assert main(["verify", str(tmp_path / "m.json"),
                     "--against", str(tmp_path / "bad.json")]) == EXIT_MISMATCH
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_budget_exceeded_without_samples(self, tmp_path):
        main(["random", "--n", "6", "--hidden", "4", "--obs", "3", "--seed", "0",
              "-o", str(tmp_path / "m.json")])
        assert main(["verify", str(tmp_path / "m.json"), "--budget", "100000"]) == EXIT_BUDGET

    def test_samples_escape_budget(self, tmp_path):
        main(["random", "--n", "6", "--hidden", "4", "--obs", "3", "--seed", "0",
              "-o", str(tmp_path / "m.json")])
        assert main(["verify", str(tmp_path / "m.json"), "--budget", "100000",
                     "--samples", "20", "--seed", "1"]) == EXIT_OK

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_rejected(self, tmp_path, capsys, samples):
        # 2^4 labelings fit the budget, 3^4 * 2^4 enumerations do not: sampling is needed
        main(["random", "--n", "4", "--hidden", "2", "--obs", "3", "--seed", "0",
              "-o", str(tmp_path / "m.json")])
        assert main(["verify", str(tmp_path / "m.json"), "--budget", "100",
                     "--samples", samples]) == EXIT_PARSE
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["100", "1000000"], ids=["sampled", "exhaustive"])
    @pytest.mark.parametrize("extra, message", [
        (["--samples", "0"], "--samples must be at least 1, got 0"),
        (["--samples", "-3"], "--samples must be at least 1, got -3"),
        (["--samples", "3", "--seed", "-1"], "--seed must be at least 0, got -1"),
        (["--seed", "-1"], "--seed must be at least 0, got -1"),
    ])
    def test_bad_samples_or_seed_exit_2_with_one_error_line(self, tmp_path, capsys, budget, extra,
                                                             message):
        # 2^4 labelings fit either budget; 3^4 * 2^4 enumerations fit only the larger one
        main(["random", "--n", "4", "--hidden", "2", "--obs", "3", "--seed", "0",
              "-o", str(tmp_path / "m.json")])
        report = tmp_path / "r.json"
        assert main(["verify", str(tmp_path / "m.json"), "--budget", budget, "--report", str(report)]
                    + extra) == EXIT_PARSE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert not report.exists()

    @pytest.mark.parametrize("tolerance", ["nan", "-1e-9", "inf", "-inf"])
    def test_non_finite_or_negative_tolerance_rejected(self, tmp_path, capsys, tolerance):
        # a correct HMC, so any verdict here would come from the tolerance alone
        main(["random", "--n", "3", "--hidden", "2", "--obs", "2", "--seed", "2",
              "-o", str(tmp_path / "m.json")])
        main(["convert", str(tmp_path / "m.json"), "-o", str(tmp_path / "h.json")])
        report = tmp_path / "r.json"
        assert main(["verify", str(tmp_path / "m.json"), "--against", str(tmp_path / "h.json"),
                     f"--tolerance={tolerance}", "--report", str(report)]) == EXIT_PARSE
        assert "--tolerance" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_rejected(self, tmp_path, capsys, budget):
        path = write(tmp_path / "m.json", symmetric_crf_json())
        assert main(["verify", path, "--budget", budget]) == EXIT_PARSE
        assert "--budget" in capsys.readouterr().err

    def test_zero_tolerance_accepted(self, tmp_path):
        path = write(tmp_path / "m.json", symmetric_crf_json())
        assert main(["verify", path, "--tolerance", "0"]) == EXIT_OK

    def test_generalized_skips_zero_evidence(self, tmp_path, capsys):
        doc = json.loads(symmetric_crf_json())
        doc["mode"] = "generalized"
        doc["obs_symbols"] = ["x", "y"]
        # symbol y is unobservable at both positions
        doc["U"] = [[[0.0, "-inf"], [0.0, "-inf"]]] * 2
        path = write(tmp_path / "m.json", json.dumps(doc))
        assert main(["verify", path]) == EXIT_OK
        assert "skipped 3" in capsys.readouterr().out

    def test_against_with_zero_evidence_reports_full_discrepancy(self, tmp_path, capsys):
        # the strict CRF gives every y positive evidence, so an HMC that
        # forbids a symbol outright must fail verification
        main(["random", "--n", "2", "--hidden", "2", "--obs", "2", "--seed", "4",
              "-o", str(tmp_path / "m.json")])
        main(["convert", str(tmp_path / "m.json"), "-o", str(tmp_path / "h.json")])
        doc = json.loads((tmp_path / "h.json").read_text())
        doc["emit"] = [[[1.0, 0.0], [1.0, 0.0]]] * 2
        write(tmp_path / "h.json", json.dumps(doc))
        assert main(["verify", str(tmp_path / "m.json"),
                     "--against", str(tmp_path / "h.json")]) == EXIT_MISMATCH
        assert "1.000e+00" in capsys.readouterr().out

    def test_mismatched_against_alphabets(self, tmp_path):
        main(["random", "--n", "3", "--hidden", "2", "--obs", "2", "--seed", "2",
              "-o", str(tmp_path / "m.json")])
        path = write(tmp_path / "h.json", pinning_hmc_json())
        assert main(["verify", str(tmp_path / "m.json"),
                     "--against", str(tmp_path / "h.json")]) == EXIT_PARSE


@pytest.mark.parametrize("argv, code, message", [
    (["convert", "h.json"], EXIT_PARSE, 'kind: convert expects a "crf" model file'),
    (["verify", "h.json"], EXIT_PARSE, 'kind: verify expects a "crf" model file'),
    (["verify", "m.json", "--against", "m.json"], EXIT_PARSE, 'kind: --against expects an "hmc" model file'),
    (["verify", "m.json", "--against", "h3.json"], EXIT_PARSE,
     "--against model does not match the CRF's alphabets and length"),
    (["verify", "m.json", "--budget", "10"], EXIT_BUDGET,
     "exhaustive check needs 2^2 * 2^2 = 16 enumerations, over the budget of 10; pass --samples"),
    (["verify", "zero.json", "--against", "h.json", "--samples", "3", "--budget", "10"], EXIT_DEGENERATE,
     "every checked observation sequence has zero evidence"),
    (["verify", "-", "--against", "-"], EXIT_PARSE, "the model and --against cannot both come from stdin"),
], ids=["convert-kind", "verify-kind", "against-kind", "against-shape", "pass-samples", "zero-evidence",
        "against-stdin"])
def test_error_is_one_line_and_its_exit_code(tmp_path, monkeypatch, capsys, argv, code, message):
    monkeypatch.chdir(tmp_path)
    for n, crf, hmc in ((2, "m.json", "h.json"), (3, "m3.json", "h3.json")):
        assert main(["random", "--n", str(n), "--hidden", "2", "--obs", "2", "--seed", "1", "-o", crf]) == 0
        assert main(["convert", crf, "-o", hmc]) == 0
    doc = json.loads((tmp_path / "m.json").read_text())
    doc.update(mode="generalized", V=[[["-inf"] * 2] * 2])  # no labeling has weight
    write(tmp_path / "zero.json", json.dumps(doc))
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


class TestOneStdinStream:
    """Two inputs that stat as one pipe, FIFO or terminal are one stream: refused before any read, exit 2.

    Such a stream gives its bytes to one read only, so the second input
    would be read empty, or its open would wait for a writer.  A regular
    file is not one stream with its path, nor with itself named twice:
    each open of a path reads the file from its start.
    """

    @pytest.fixture
    def files(self, tmp_path):
        crf, hmc = tmp_path / "m.json", tmp_path / "h.json"
        assert main(["random", "--n", "2", "--hidden", "2", "--obs", "2", "--seed", "1", "-o", str(crf)]) == 0
        assert main(["convert", str(crf), "-o", str(hmc)]) == 0
        return {"decode": hmc, "verify": crf}

    @staticmethod
    def cli(argv, **stdin):
        return subprocess.run([sys.executable, "-m", "chainequiv", *argv], capture_output=True, timeout=120,
                              env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}, **stdin)

    @pytest.mark.parametrize("argv, message", [
        (["decode", "/dev/stdin", "-"], "the model and the sequences cannot both come from stdin"),
        (["decode", "-", "/dev/stdin"], "the model and the sequences cannot both come from stdin"),
        (["verify", "/dev/stdin", "--against", "-"], "the model and --against cannot both come from stdin"),
        (["verify", "-", "--against", "/dev/stdin"], "the model and --against cannot both come from stdin"),
        (["decode", "/dev/stdin", "/dev/stdin"], "the model and the sequences cannot both come from stdin"),
        (["verify", "/dev/stdin", "--against", "/dev/stdin"], "the model and --against cannot both come from stdin"),
    ], ids=["decode-model", "decode-sequences", "verify-model", "verify-against", "decode-both", "verify-both"])
    def test_a_pipe_is_refused(self, files, argv, message):
        done = self.cli(argv, input=files[argv[0]].read_bytes())
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_PARSE, b"", f"error: {message}\n".encode())

    @pytest.mark.skipif(sys.platform != "linux", reason="opens a FIFO read-write, which only Linux defines")
    @pytest.mark.parametrize("argv, on_stdin, message", [
        (["decode", "FIFO", "-"], True, "the model and the sequences cannot both come from stdin"),
        (["decode", "FIFO", "FIFO"], True, "the model and the sequences cannot both come from stdin"),
        (["decode", "FIFO", "FIFO"], False, "the model and the sequences cannot both come from one pipe"),
        (["verify", "FIFO", "--against", "FIFO"], True, "the model and --against cannot both come from stdin"),
        (["verify", "FIFO", "--against", "FIFO"], False, "the model and --against cannot both come from one pipe"),
    ], ids=["decode-stdin", "decode-twice-stdin", "decode-twice", "verify-twice-stdin", "verify-twice"])
    def test_a_fifo_named_by_its_path_is_refused(self, tmp_path, argv, on_stdin, message):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        end = os.open(fifo, os.O_RDWR)  # holds a writer, so a read would wait: the refusal comes first
        try:
            done = self.cli([str(fifo) if arg == "FIFO" else arg for arg in argv],
                            stdin=end if on_stdin else subprocess.DEVNULL)
        finally:
            os.close(end)
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_PARSE, b"", f"error: {message}\n".encode())

    def test_a_regular_file_named_twice_is_read_twice(self, files):
        # stdin's own regular file through /dev/stdin, and one path named twice
        with open(files["verify"], "rb") as stdin:
            done = self.cli(["verify", "/dev/stdin", "--against", "/dev/stdin"], stdin=stdin)
        assert (done.returncode, done.stderr) == (
            EXIT_PARSE, b'error: kind: --against expects an "hmc" model file\n')
        done = self.cli(["decode", str(files["decode"]), str(files["decode"])], stdin=subprocess.DEVNULL)
        assert (done.returncode, done.stdout) == (EXIT_PARSE, b"")
        assert done.stderr.startswith(b"line 1: symbol '{' is not in the alphabet\n")

    @pytest.mark.parametrize("piped", ["model", "sequences"])
    def test_bytes_that_are_not_utf8_are_refused_from_stdin(self, files, tmp_path, piped):
        """A model or sequence file that is not UTF-8 exits 2 from stdin as from its path.

        stdin's own text would read the bad byte as a surrogate escape.
        """
        bad = tmp_path / "bad"
        if piped == "model":
            bad.write_bytes(files["decode"].read_bytes().replace(b'"o0"', b'"o\xff"', 1))
            argv = ["decode", "-", write(tmp_path / "s.txt", "o0 o1\n")]
        else:
            bad.write_bytes(b"o0 o1\n\xff o0\n")
            argv = ["decode", str(files["decode"]), "-"]
        for name, args in (("-", argv), (str(bad), [str(bad) if a == "-" else a for a in argv])):
            done = self.cli(args, input=bad.read_bytes() if name == "-" else b"")
            assert (done.returncode, done.stdout) == (EXIT_PARSE, b"")
            assert done.stderr.startswith(f"error: cannot read {name}: 'utf-8' codec can't decode byte 0xff".encode())

    def test_a_regular_file_is_read_from_its_start_twice(self, files):
        with open(files["decode"], "rb") as stdin:
            done = self.cli(["decode", "/dev/stdin", "-"], stdin=stdin)
        # the model comes through the path; the sequences are the same file, read from stdin
        assert (done.returncode, done.stdout) == (EXIT_PARSE, b"")
        assert done.stderr.startswith(b"line 1: symbol '{' is not in the alphabet\n")


def test_module_entry_point(tmp_path):
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
    out = subprocess.run(
        [sys.executable, "-m", "chainequiv", "random", "--n", "2", "--hidden", "2",
         "--obs", "2", "--seed", "0"],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert json.loads(out.stdout)["kind"] == "crf"


def test_shared_parser_carries_no_state_between_calls(tmp_path, monkeypatch, capsys):
    # Every call, made in one process after the calls before it, gives the
    # bytes and exit code of the same call in a fresh process.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    main(["random", "--n", "3", "--hidden", "2", "--obs", "2", "--seed", "5", "-o", "m.json"])
    write(tmp_path / "s.txt", "o0 o1 o0\no1 o1 o0 o1\n")
    capsys.readouterr()
    calls = [
        # 2^3 labelings fit a budget of 40, 2^3 * 2^3 do not: --samples applies
        ["verify", "m.json", "--samples", "3", "--seed", "5", "--tolerance", "0.5",
         "--budget", "40", "--report", "-"],
        ["verify", "m.json"],
        ["decode", "m.json", "s.txt", "--tile", "--marginals"],
        ["decode", "m.json", "s.txt"],
        ["frobnicate"],
        ["verify", "m.json"],
        ["--help"],
        ["decode", "m.json", "s.txt"],
        ["verify", "--help"],
        ["convert", "m.json"],
    ]
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", "COLUMNS": "80"}
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "chainequiv", *argv],
                               capture_output=True, text=True, env=env, cwd=tmp_path)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv

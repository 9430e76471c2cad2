"""The CLI's JSON writer against the standard library's ``indent=2`` layout and orjson's number text.

The writer prints each array a block of its leading axis at a time with
orjson.  The reference here is ``json.dumps(..., indent=2)`` of the document
with every array cell replaced by a placeholder, then each placeholder
replaced by ``orjson.dumps(float(cell))``, or by the ``"-inf"`` token for a
``-inf`` cell.  Every written text is also read back, by ``json.loads`` and,
for model files, by ``ModelFile.from_json``: each array must come back bit
for bit, so that ``-0.0`` and ``5e-324`` count.
"""

import json
import math

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chainequiv import modelfile
from chainequiv.modelfile import ModelFile

SPECIAL = (1e-300, 1e300, -0.0, -math.inf, -1e-300, -1e300, 2.0, 0.1)
# Both signs of the cells where orjson's text and ``repr`` differ in layout, and
# of their neighbours: every decade from 5e-324 to 1e308, the 1e-5 band
# (orjson's ``0.00002`` against ``repr``'s ``2e-05``) and its edges, the
# exponents from 1e16 on, and tokens with ``0.0000`` inside.
LAYOUTS = np.array([sign * v for sign in (1.0, -1.0) for v in (
    5e-324, *(10.0**e for e in range(-323, 309)),
    1e-05, 2e-05, 1.5e-05, 9.99e-05, 1e-4, 9.999999999999999e15, 1e16, 1e22,
    np.nextafter(1e-5, 0), np.nextafter(1e-4, 0), np.nextafter(1e16, 0), 2.005762503325462e-05,
    10.00001, 100.00005, 0.0)])


PLACEHOLDER = "<cell>"


def reference(doc: dict) -> str:
    """``json.dumps(doc, indent=2)``, each array cell spelled as ``orjson.dumps`` spells the float alone."""
    cells = []

    def placeholders(value):
        if isinstance(value, list):
            return [placeholders(v) for v in value]
        cells.append(value)
        return PLACEHOLDER

    plain = {key: placeholders(v.tolist()) if isinstance(v, np.ndarray) else v for key, v in doc.items()}
    pieces = json.dumps(plain, indent=2, allow_nan=False).split(json.dumps(PLACEHOLDER))
    texts = ['"-inf"' if c == -math.inf else orjson.dumps(float(c)).decode() for c in cells]
    assert len(pieces) == len(texts) + 1
    return "".join(piece + text for piece, text in zip(pieces, [*texts, ""])) + "\n"


def assert_same_bits(got: np.ndarray, want: np.ndarray, key: str):
    want = np.ascontiguousarray(want, dtype=float)
    got = np.ascontiguousarray(got, dtype=float)
    assert got.shape == want.shape, key
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), key


def read_back(value):
    """A nested list of floats and ``"-inf"`` tokens, as ``json.loads`` gives it, with the tokens as ``-inf``."""
    if isinstance(value, list):
        return [read_back(v) for v in value]
    if value == "-inf":
        return -math.inf
    assert type(value) is float, value
    return value


def assert_writes(doc: dict) -> str:
    """Write ``doc``; its text must equal the reference and read back to ``doc``, arrays bit for bit."""
    text = written(doc)
    assert text == reference(doc)
    loaded = json.loads(text)
    assert list(loaded) == list(doc)
    for key, value in doc.items():
        if isinstance(value, np.ndarray):
            got = np.array(read_back(loaded[key]), dtype=float)
            assert_same_bits(got.reshape(value.shape) if value.size == 0 else got, value, key)
        else:
            assert loaded[key] == value, key
    return text


def cells(shape, seed: int) -> np.ndarray:
    """Signed magnitudes from 1e-300 to 1e300, -inf and -0.0 cells, and the SPECIAL values."""
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300, 300, shape)
    a[rng.random(shape) < 0.2] = -math.inf
    a[rng.random(shape) < 0.1] = -0.0
    a.flat[:len(SPECIAL)] = SPECIAL[:a.size]
    return a


def written(doc: dict) -> str:
    return "".join(modelfile._json_pieces(doc))


SHAPES = [(9,), (1,), (4, 3), (1, 1), (6, 2, 3), (5, 1, 4), (0, 2, 2), (0, 3)]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("tables_per_block", [1, 2, 3, None])
def test_arrays_match_the_indenting_encoder(monkeypatch, shape, tables_per_block):
    if tables_per_block is not None:
        monkeypatch.setattr(modelfile, "JSON_BLOCK_CELLS", tables_per_block * math.prod(shape[1:]))
    a = cells(shape, seed=len(shape) * 10 + shape[0])
    doc = {"kind": "x", "symbols": ["a", "b"], "none": [], "n": 3, "a": a,
           "nested": [[], [1, 2]], "first": a[:1]}
    assert_writes(doc)


@pytest.mark.parametrize("block_cells", [1, 5, 7, 64])
def test_block_sizes_that_are_not_whole_items(monkeypatch, block_cells):
    monkeypatch.setattr(modelfile, "JSON_BLOCK_CELLS", block_cells)
    doc = {"psi": cells((7, 4), 1), "phi": cells((6, 4, 4), 2), "beta": cells((7, 4), 3)}
    assert_writes(doc)


@pytest.mark.parametrize("shape", [(-1,), (-1, 2), (-1, 2, 3)])
@pytest.mark.parametrize("block_cells", [1, 7, 64, None])
def test_layouts_where_orjson_and_repr_differ(monkeypatch, shape, block_cells):
    if block_cells is not None:
        monkeypatch.setattr(modelfile, "JSON_BLOCK_CELLS", block_cells)
    a = LAYOUTS[:len(LAYOUTS) // 6 * 6].reshape(shape)
    doc = {"a": a, "with_inf": np.where(np.arange(a.size).reshape(a.shape) % 5 == 1, -math.inf, a)}
    assert_writes(doc)


def test_cells_are_spelled_in_orjson_number_text():
    a = np.array([1e16, 2.19e-6, 2.005762503325462e-05, 1e-4, -0.0, 5e-324, -math.inf, 2.0, 1e15])
    assert assert_writes({"a": a}) == (
        '{\n  "a": [\n    1e16,\n    2.19e-6,\n    0.00002005762503325462,\n    0.0001,\n    -0.0,\n'
        '    5e-324,\n    "-inf",\n    2.0,\n    1000000000000000.0\n  ]\n}\n')


@pytest.mark.parametrize("shape", [(5,), (2, 3), (2, 2, 3)])
def test_block_text_of_a_document_array(shape):
    # the reference moves orjson's top-level text one indent in, where a document's arrays sit
    a = np.where(np.arange(math.prod(shape)) % 4 == 1, -math.inf, np.linspace(-2, 3e-5, math.prod(shape)))
    a = a.reshape(shape)
    text = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_INDENT_2).replace(b"null", b'"-inf"')
    want = text[1:-2].replace(b"\n", b"\n  ").decode()
    assert modelfile._block_text(a) == want
    assert modelfile._block_text(np.asfortranarray(a)) == want  # copied to C order before orjson reads it


@pytest.mark.parametrize("where", [[0], [-1], [0, -1], [0, 1, 2, 5, 6, -2, -1], "all"],
                         ids=["first", "last", "both-ends", "runs", "all"])
@pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 2, 3)])
def test_block_text_tokens_at_the_ends_and_in_runs(shape, where):
    """``-inf`` as a block's first or last cell, or in runs, gives the bytes of ``bytes.replace``."""
    a = np.linspace(-2, 3e-5, math.prod(shape))
    a[slice(None) if where == "all" else where] = -math.inf
    a = a.reshape(shape)
    text = orjson.dumps([a], option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_INDENT_2)
    assert modelfile._block_text(a) == text.replace(b"null", b'"-inf"')[5:-6].decode()


CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-1e-4, 1e-4),
                  st.just(-math.inf))


@settings(max_examples=300)
@given(st.data())
def test_any_finite_cells_and_block_seams(data):
    shape = tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    a = data.draw(arrays(np.float64, shape, elements=CELLS))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modelfile, "JSON_BLOCK_CELLS", data.draw(st.integers(1, a.size + 1)))
        doc = {"a": a, "n": 1}
        assert_writes(doc)


@pytest.mark.parametrize("tables_per_block", [1, 2, 3])
def test_model_files_match_the_indenting_encoder(monkeypatch, tmp_path, tables_per_block):
    k, l = 3, 2
    monkeypatch.setattr(modelfile, "JSON_BLOCK_CELLS", tables_per_block * k * l)
    hidden, obs = ("h0", "h1", "h2"), ("o0", "o1")
    crf1 = ModelFile("crf", hidden, obs, 1, "generalized", V=np.empty((0, k, k)), U=cells((1, k, l), 4))
    crf = ModelFile("crf", hidden, obs, 7, "generalized", V=cells((6, k, k), 5), U=cells((7, k, l), 6))
    hmc = ModelFile("hmc", hidden, obs, 7, "strict", init=np.full(k, 1 / 3),
                    trans=np.full((6, k, k), 1 / 3), emit=np.full((7, k, l), 0.5))
    tiled = ModelFile("crf", hidden, obs, 7, "generalized",  # stride-0 views, as homogeneous models hold
                      V=np.broadcast_to(np.linspace(-2, 2, k * k).reshape(1, k, k), (6, k, k)),
                      U=np.broadcast_to(np.linspace(-3, 1, k * l).reshape(1, k, l), (7, k, l)))
    for mf in (crf1, crf, hmc, tiled):
        keys = ("V", "U") if mf.kind == "crf" else ("init", "trans", "emit")
        doc = {"kind": mf.kind, "hidden_symbols": list(hidden), "obs_symbols": list(obs),
               "n": mf.n, "mode": mf.mode} | {key: getattr(mf, key) for key in keys}
        assert mf.to_json() == assert_writes(doc)
        mf.dump(str(tmp_path / "m.json"))
        assert (tmp_path / "m.json").read_text() == reference(doc)
        back = ModelFile.from_json((tmp_path / "m.json").read_text())
        for key in keys:
            assert_same_bits(getattr(back, key), getattr(mf, key), key)
    assert '"V": []' in crf1.to_json()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", [0, -1])
def test_nan_or_inf_cell_raises_and_writes_nothing(tmp_path, capsys, bad, where):
    U = cells((4, 2, 3), 7)
    U.flat[where] = bad
    mf = ModelFile("crf", ("a", "b"), ("x", "y", "z"), 4, "generalized", V=cells((3, 2, 2), 8), U=U)
    path = tmp_path / "m.json"
    with pytest.raises(ValueError, match="U"):
        mf.dump(str(path))
    assert not path.exists()
    with pytest.raises(ValueError):
        mf.dump("-")
    assert capsys.readouterr().out == ""
    with pytest.raises(ValueError):
        modelfile._write_json(str(path), {"first": cells((2, 2), 9), "last": [1.0, bad]})
    assert not path.exists()

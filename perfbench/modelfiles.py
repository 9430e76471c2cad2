"""The chainequiv file formats, written and read without importing chainequiv.

The benchmark writes its generated CRFs and observation files here, and the
reference reads the program's output files here, so that no check depends
on the program's own parser or serializer.

Model files are JSON objects with ``kind``, ``hidden_symbols``,
``obs_symbols``, ``n`` and ``mode``.  A CRF carries ``V`` (n-1 tables,
labels x labels) and ``U`` (n tables, labels x symbols) of natural-log
potentials, with the string ``"-inf"`` for log of zero.  An HMC carries
``init``, ``trans`` and ``emit`` as probability-domain rows.
"""

import json
import math
from pathlib import Path

import numpy as np

NEG_INF_TOKEN = '"-inf"'


def symbols(prefix: str, size: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(size)]


def _row_text(row) -> str:
    # repr of a Python float is the shortest decimal that reads back exactly.
    return "[" + ", ".join(NEG_INF_TOKEN if v == -math.inf else repr(v)
                           for v in row.tolist()) + "]"


def _write_tables(out, key: str, tables: np.ndarray):
    out.write(f',\n  "{key}": [')
    for i, table in enumerate(tables):
        out.write(",\n    [" if i else "\n    [")
        out.write(",\n     ".join(_row_text(r) for r in table))
        out.write("]")
    out.write("\n  ]" if len(tables) else "]")


def write_crf(path: Path, V: np.ndarray, U: np.ndarray, mode: str):
    """Write a CRF model file row by row, so no whole-document copy is held."""
    n, k, l = U.shape
    with open(path, "w") as out:
        out.write("{\n")
        out.write('  "kind": "crf",\n')
        out.write(f'  "hidden_symbols": {json.dumps(symbols("h", k))},\n')
        out.write(f'  "obs_symbols": {json.dumps(symbols("o", l))},\n')
        out.write(f'  "n": {n},\n')
        out.write(f'  "mode": "{mode}"')
        _write_tables(out, "V", V)
        _write_tables(out, "U", U)
        out.write("\n}\n")


def write_sequences(path: Path, ys):
    """One whitespace-separated symbol line per sequence."""
    with open(path, "w") as out:
        for y in ys:
            out.write(" ".join(f"o{v}" for v in y) + "\n")


def _array(value, shape) -> np.ndarray:
    a = np.array(value, dtype=float).reshape(shape)
    if np.isnan(a).any():
        raise ValueError("model file holds NaN")
    return a


def read_model(path: Path) -> dict:
    """A model file as plain arrays.

    CRF: ``V`` (n-1, k, k) and ``U`` (n, k, l) log potentials.  HMC:
    ``init`` (k,), ``trans`` (n-1, k, k) and ``emit`` (n, k, l)
    probabilities.  Also ``kind``, ``mode``, ``n``, ``hidden`` and ``obs``.
    """
    text = Path(path).read_text().replace(NEG_INF_TOKEN, "-Infinity")
    doc = json.loads(text)
    hidden, obs, n = doc["hidden_symbols"], doc["obs_symbols"], doc["n"]
    k, l = len(hidden), len(obs)
    out = {"kind": doc["kind"], "mode": doc["mode"], "n": n, "hidden": hidden, "obs": obs}
    if doc["kind"] == "crf":
        out["V"] = _array(doc["V"], (n - 1, k, k))
        out["U"] = _array(doc["U"], (n, k, l))
    else:
        out["init"] = _array(doc["init"], (k,))
        out["trans"] = _array(doc["trans"], (n - 1, k, k))
        out["emit"] = _array(doc["emit"], (n, k, l))
    return out


def read_trace_psi(path: Path) -> np.ndarray:
    """The ``psi`` rows of a ``convert --trace`` file, as an (n, k) log array."""
    doc = json.loads(Path(path).read_text().replace(NEG_INF_TOKEN, "-Infinity"))
    return np.array(doc["psi"], dtype=float)

"""``decode --marginals`` columns: the fixed-width digits equal ``"%.6f"`` text.

The CLI writes marginal columns as fixed-width digits, a chunk of cells at a
time (``decode._marginal_columns``).  These tests compare that text with
Python's ``"%.6f"`` cell by cell, near rounding ties and across chunk seams;
``tests/test_cli.py`` compares whole ``decode`` runs with a per-line decode.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chainequiv import decode


def reference_columns(probs, k: int) -> list[str]:
    """Per row, ``"\\t" + ",".join("%.6f" % p ...)`` for each run of ``k`` cells."""
    return ["".join("\t" + ",".join("%.6f" % p for p in row[j:j + k]) for j in range(0, len(row), k))
            for row in np.asarray(probs, dtype=float).tolist()]


def check_columns(probs, k: int):
    probs = np.asarray(probs, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert decode._marginal_columns(probs, k) == reference_columns(probs, k)


def near_ties(count: int, seed: int) -> np.ndarray:
    """``(m + 0.5) / 1e6`` for random m, and the doubles on either side of each."""
    m = np.random.default_rng(seed).integers(0, 10**6, count)
    ties = (m + 0.5) / 1e6
    return np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, 2.0)])


SPECIAL = [0.0, 1.0, 5e-324, 1.0 + 2.0**-52, 0.9999995, np.nextafter(0.9999995, 0.0),
           np.nextafter(0.9999995, 2.0), 2.0**-7, 2.0**-8, 0.5, 1e-7, 4.9999999e-7, 5e-7,
           5.000001e-7]
# Cells no probability takes; their "%.6f" text is not 8 characters wide or
# is not plain digits, and must still be exact.
ODD = [np.nan, -0.0, -1e-300, -0.4, np.inf, -np.inf, 9.4999994, 9.4999995, 9.5, 9.9999996,
       10.0, 123456.789, 1e300]


class TestMarginalColumns:
    @given(st.data())
    def test_probabilities(self, data):
        k = data.draw(st.integers(1, 9))
        shape = (data.draw(st.integers(1, 6)), k * data.draw(st.integers(1, 5)))
        check_columns(data.draw(arrays(np.float64, shape, elements=st.floats(0.0, 1.0))), k)

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_special_values(self, k):
        cells = np.array(SPECIAL * k)
        check_columns(cells.reshape(len(SPECIAL), k), k)
        check_columns(cells.reshape(1, -1), k)

    def test_values_outside_the_probabilities(self):
        cells = np.array(ODD + [0.25, 0.75, 2.0**-7])
        check_columns(cells.reshape(1, -1), 4)
        check_columns(cells.reshape(-1, 4), 2)

    def test_near_ties(self):
        cells = near_ties(100_000, seed=1)  # 300,000 cells
        check_columns(cells.reshape(-1, 24), 8)

    def test_exact_binary_ties(self):
        # Every multiple of 2**-7 below 1 whose millionths end in .5 exactly.
        cells = np.arange(1, 128, 2) / 128.0
        assert ((cells * 1e6) % 1 == 0.5).all()
        check_columns(cells.reshape(-1, 4), 2)

    def test_no_lines(self):
        assert decode._marginal_columns(np.empty((0, 6)), 3) == []

    @pytest.mark.parametrize("chunk", ["1", "2", "k-1", "k+1"])
    def test_chunk_seams_inside_lines_and_positions(self, monkeypatch, chunk):
        k = 5
        monkeypatch.setattr(decode, "MARGINAL_CHUNK_CELLS", {"1": 1, "2": 2, "k-1": k - 1, "k+1": k + 1}[chunk])
        rng = np.random.default_rng(3)
        cells = rng.random((9, 3 * k))
        ties = near_ties(4, seed=4)
        cells.flat[rng.choice(cells.size, len(ties) + 3, replace=False)] = [*ties, np.nan, 2.0**-7, 10.0]
        check_columns(cells, k)

    @pytest.mark.parametrize("chunk_cells, lines_per_chunk", [(11, 1), (36, 3)])
    def test_fallback_cells_at_the_ends_of_chunks(self, monkeypatch, chunk_cells, lines_per_chunk):
        # A chunk holds whole lines, one when a line has more than its cells;
        # "%.6f" cells in the first line of the second chunk and in the last
        # line of the last chunk are patched within their own chunk.
        k, width = 4, 12
        monkeypatch.setattr(decode, "MARGINAL_CHUNK_CELLS", chunk_cells)
        cells = np.random.default_rng(5).random((8, width))
        cells[lines_per_chunk, [0, 5, -1]] = [2.0**-7, 9.5, 2.0**-7]
        cells[-1, [0, 6, -1]] = [10.0, 2.0**-7, 9.75]
        check_columns(cells, k)

"""Shared test oracles: plain-Python enumeration, independent of the fast paths.

Everything here works with scalar math and ``itertools.product`` so that the
package's vectorized recursions are checked against a second, structurally
different computation.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import settings

from chainequiv import CrfModel, HmcModel

settings.register_profile("chainequiv", deadline=None)
settings.load_profile("chainequiv")


def label_space(size: int, length: int):
    return itertools.product(range(size), repeat=length)


def naive_crf_score(model: CrfModel, x, y) -> float:
    """Re-sum the potential lookups with plain loops."""
    total = 0.0
    for n in range(model.length - 1):
        total += model.pair_potentials[n][x[n], x[n + 1]]
    for n in range(model.length):
        total += model.emit_potentials[n][x[n], y[n]]
    return total


def naive_hmc_log_joint(model: HmcModel, x, y) -> float:
    total = model.init[x[0]] + model.emissions[0][x[0], y[0]]
    for n in range(1, model.length):
        total += model.transitions[n - 1][x[n - 1], x[n]]
        total += model.emissions[n][x[n], y[n]]
    return total


def _normalize(scores: dict) -> tuple[dict, float]:
    m = max(scores.values())
    if m == float("-inf"):
        raise ZeroDivisionError("zero total mass")
    weights = {x: math.exp(s - m) for x, s in scores.items()}
    total = math.fsum(weights.values())
    return {x: w / total for x, w in weights.items()}, m + math.log(total)


def brute_crf_posterior(model: CrfModel, y) -> tuple[dict, float]:
    """Exact posterior over labelings and log normalizer, by direct summation."""
    scores = {x: naive_crf_score(model, x, y) for x in label_space(model.hidden.size, model.length)}
    return _normalize(scores)


def brute_hmc_posterior(model: HmcModel, y) -> tuple[dict, float]:
    scores = {x: naive_hmc_log_joint(model, x, y) for x in label_space(model.hidden.size, model.length)}
    return _normalize(scores)


def log_ratio_bound(crf: CrfModel, hmc: HmcModel) -> float:
    """The largest ``D(x, y) - D(x', y)`` over every y and label pair, ``D`` = HMC log joint - CRF score.

    Strict models of one shape only.  For every x and y, ``|log p_hmc(x | y)
    - log p_crf(x | y)|`` is at most this bound, and for some it is at least
    half of it.  Exact over all labelings and observation sequences without
    enumerating them: a max-plus pass over label pairs, in plain numpy.
    """
    pairs = hmc.transitions.log_values - crf.pair_potentials.log_values
    emits = hmc.emissions.log_values - crf.emit_potentials.log_values
    emits[0] += hmc.init.log_values[:, None]

    def unary(t):  # as (x, x'): max over y of emits[t, x, y] - emits[t, x', y]
        return (emits[t][:, None, :] - emits[t][None, :, :]).max(axis=-1)

    best = unary(0)
    for t, step in enumerate(pairs):
        half = (best[:, :, None] + step[:, None, :]).max(axis=0)  # as (x', z)
        best = (half[:, :, None] - step[:, None, :]).max(axis=0) + unary(t + 1)  # as (z, z')
    return float(best.max())


def marginals_of(posterior: dict, size: int, length: int) -> np.ndarray:
    out = np.zeros((length, size))
    for x, p in posterior.items():
        for n, v in enumerate(x):
            out[n, v] += p
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

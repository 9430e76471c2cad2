"""Independent reference for the benchmark's output checks.

It imports nothing from chainequiv.  A chain is given as per-position unary
log weights ``unary`` (n, k) and pairwise log weights ``pair`` (n-1, k, k);
a labeling ``x`` has log weight ``sum_t unary[t, x_t] + sum_t pair[t, x_t, x_t+1]``.
Two independent computations are offered on that chain:

* :func:`forward_backward`, a plain log-domain forward-backward over one
  observation sequence at a time, with ``np.logaddexp.reduce`` per step;
* :func:`brute_force`, which scores every labeling from ``itertools.product``.

:func:`self_check` makes the two agree on tiny chains before any program
output is judged by them.
"""

import itertools
import math

import numpy as np


def log_prob(p: np.ndarray) -> np.ndarray:
    """Natural log of probabilities, with log(0) = -inf."""
    with np.errstate(divide="ignore"):
        return np.log(p)


def crf_chain(V: np.ndarray, U: np.ndarray, y) -> tuple[np.ndarray, np.ndarray]:
    """Chain of a CRF conditioned on observations ``y`` (one index per position)."""
    y = np.asarray(y)
    return U[np.arange(len(y)), :, y], V


def tiled_crf_chain(V0: np.ndarray, U0: np.ndarray, y) -> tuple[np.ndarray, np.ndarray]:
    """Chain of a time-homogeneous CRF (one V and one U table) over ``y``."""
    y = np.asarray(y)
    return U0[:, y].T, np.broadcast_to(V0, (len(y) - 1,) + V0.shape)


def hmc_chain(log_init: np.ndarray, log_trans: np.ndarray, log_emit: np.ndarray,
              y) -> tuple[np.ndarray, np.ndarray]:
    """Chain of an HMC, given as log-probability tables, conditioned on ``y``."""
    y = np.asarray(y)
    unary = log_emit[np.arange(len(y)), :, y]
    unary[0] = unary[0] + log_init
    return unary, log_trans


def forward_backward(unary: np.ndarray, pair: np.ndarray) -> tuple[float, np.ndarray | None]:
    """``(log_total, marginals)`` with marginals an (n, k) probability array.

    Messages are kept log-normalized at every step and the dropped constants
    are summed with ``math.fsum``, so chains whose weights span thousands in
    the log domain lose no precision.  A chain whose every labeling has zero
    weight returns ``(-inf, None)``.
    """
    n, k = unary.shape
    alpha = np.empty((n, k))
    scales = []
    a = unary[0]
    for t in range(n):
        if t:
            a = np.logaddexp.reduce(alpha[t - 1][:, None] + pair[t - 1], axis=0) + unary[t]
        c = np.logaddexp.reduce(a)
        if c == -math.inf:
            return -math.inf, None
        alpha[t] = a - c
        scales.append(c)
    log_total = math.fsum(scales)

    beta = np.zeros(k)
    log_marg = np.empty((n, k))
    log_marg[n - 1] = alpha[n - 1]
    for t in range(n - 2, -1, -1):
        b = np.logaddexp.reduce(pair[t] + (beta + unary[t + 1])[None, :], axis=1)
        beta = b - np.logaddexp.reduce(b)
        log_marg[t] = alpha[t] + beta
    log_marg -= np.logaddexp.reduce(log_marg, axis=1)[:, None]
    return log_total, np.exp(log_marg)


def brute_force(unary: np.ndarray, pair: np.ndarray) -> tuple[float, np.ndarray | None]:
    """``(log_total, posterior)`` over all k**n labelings, lexicographic order.

    ``posterior`` is None when every labeling has zero weight.
    """
    n, k = unary.shape
    x = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.intp)
    scores = unary[np.arange(n), x].sum(axis=1)
    for t in range(n - 1):
        scores = scores + pair[t, x[:, t], x[:, t + 1]]
    log_total = float(np.logaddexp.reduce(scores))
    if log_total == -math.inf:
        return log_total, None
    return log_total, np.exp(scores - log_total)


def posterior_marginals(posterior: np.ndarray, n: int, k: int) -> np.ndarray:
    """(n, k) per-position marginals of a lexicographic labeling posterior."""
    cube = posterior.reshape((k,) * n)
    return np.stack([cube.sum(axis=tuple(a for a in range(n) if a != t)) for t in range(n)])


def crf_total_log_weight(V: np.ndarray, U: np.ndarray) -> float:
    """Log of the weight summed over every labeling and every observation sequence.

    ``-inf`` means the CRF is degenerate: no labeling of any ``y`` has
    positive weight.
    """
    psi = np.logaddexp.reduce(U, axis=2)
    return forward_backward(psi, V)[0]


def close_log(a: float, b: float, rel: float) -> bool:
    """Log values equal, or within ``rel`` relative to max(1, |b|)."""
    if a == b:
        return True
    return abs(a - b) <= rel * max(1.0, abs(b))


def self_check(seed: int = 0):
    """Forward-backward must match brute force on tiny chains; raises otherwise.

    Covers lengths 1-4, 1-3 labels, potentials in [-5, 5] and [-800, 800],
    and chains with zero-weight (``-inf``) cells, including all-zero ones.
    """
    rng = np.random.default_rng(seed)
    for trial in range(60):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        scale = 800.0 if trial % 3 == 1 else 5.0
        unary = rng.uniform(-scale, scale, (n, k))
        pair = rng.uniform(-scale, scale, (n - 1, k, k))
        if trial % 3 == 2:
            unary[rng.random(unary.shape) < 0.3] = -math.inf
            pair[rng.random(pair.shape) < 0.3] = -math.inf
        fb_total, fb_marg = forward_backward(unary, pair)
        bf_total, bf_post = brute_force(unary, pair)
        if (fb_marg is None) != (bf_post is None):
            raise AssertionError(f"reference self-check {trial}: zero-weight verdicts differ")
        if bf_post is None:
            continue
        if not close_log(fb_total, bf_total, 1e-12):
            raise AssertionError(f"reference self-check {trial}: log totals {fb_total} vs {bf_total}")
        gap = float(np.abs(fb_marg - posterior_marginals(bf_post, n, k)).max())
        if gap > 1e-12:
            raise AssertionError(f"reference self-check {trial}: marginals differ by {gap:.3e}")
    zero = np.full((3, 2), -math.inf)
    if forward_backward(zero, np.zeros((2, 2, 2)))[1] is not None:
        raise AssertionError("reference self-check: an all-zero chain must have no marginals")

"""Exact conversion of a linear-chain CRF into an HMC with the same posterior.

The construction works on the CRF's y-marginalized factor chain.  Writing
``U_n`` for the emission potentials and ``V_n`` for the pairwise potentials
(log domain), it proceeds in three steps:

1. psi: per-state emission weight totals,
       ``psi_n(x) = log sum_y exp(U_n(x, y))``.
2. phi: pairwise chain factors absorbing the psi weights,
       ``phi_1(x, x') = V_1(x, x') + psi_1(x) + psi_2(x')`` and
       ``phi_n(x, x') = V_n(x, x') + psi_{n+1}(x')`` for n >= 2,
   so that a path's phi product carries each position's psi exactly once.
3. beta: backward suffix sums, ``beta_N = 0`` (log of one) and
       ``beta_n(x) = log sum_{x'} exp(phi_n(x, x') + beta_{n+1}(x'))``.

The output chain is then read off directly:

    init(x)        proportional to beta_1(x)
    trans_n(x->x') = phi_n(x, x') + beta_{n+1}(x') - beta_n(x)
    emit_n(x, y)   = U_n(x, y) - psi_n(x)

Rows of trans_n sum to one by the beta recursion itself.  For every y with
positive evidence, the resulting HMC's posterior over label sequences equals
the CRF's posterior exactly.

In generalized mode (potentials may be ``-inf``, i.e. weight zero) a state
whose beta or psi value is ``-inf`` can never carry posterior mass; its
transition or emission row is undefined (zero over zero) and is replaced by
a uniform placebo row, recorded in the trace as unreachable.
"""

import math
from dataclasses import dataclass

import numpy as np

from .crf import GENERALIZED, STRICT, CrfModel, DegenerateModel
from .hmc import HmcModel
from .hmc import _factors as _hmc_factors
from .tables import LOG_ZERO, Table2, Table3, ValidationError, log_sum_exp, normalize_log


@dataclass(frozen=True, eq=False)
class ConstructionTrace:
    """The intermediates of a CRF-to-HMC conversion, kept for auditing.

    ``psi`` and ``beta`` are (length, num_states) tables, one row per
    position (the last beta row is identically zero in log domain); ``phi``
    is the stack of length - 1 pairwise factors.  ``unreachable[n]`` lists
    the states whose transition or emission row at position ``n`` was
    replaced by a uniform placebo; such states never carry posterior mass.
    """

    psi: Table2
    phi: Table3
    beta: Table2
    unreachable: tuple[frozenset[int], ...]


def build_psi(model: CrfModel) -> Table2:
    """Per-state emission weight totals, one row per position.

    ``psi[n][x] = log sum_y exp(emit_potentials[n][x, y])``.
    """
    return Table2(log_sum_exp(model.emit_potentials.log_values, axis=2))


def build_phi(model: CrfModel, psi: Table2) -> Table3:
    """Pairwise chain factors with the psi weights folded in.

    The first factor absorbs both endpoint psi rows; later factors absorb
    only the right endpoint's, so each position's psi appears exactly once
    along any path.  Empty for length-1 models.
    """
    psi = psi.log_values
    phi = model.pair_potentials.log_values + psi[1:, None, :]
    phi[:1] += psi[0][:, None]
    return Table3(phi)


def build_beta(phi, num_states: int | None = None) -> Table2:
    """Backward suffix sums of the phi chain, one row per position.

    The last row is identically zero (log of one); each earlier row is
    ``beta[n][x] = log sum_{x'} exp(phi[n][x, x'] + beta[n+1][x'])``.
    ``phi`` is a Table3 or an array-like of its tables; for an empty phi
    chain (length-1 model) ``num_states`` sizes the single row.
    """
    phi = np.asarray(phi, dtype=float)
    if len(phi) == 0:
        if num_states is None:
            raise ValidationError("num_states is required when phi is empty (length-1 model)")
        return Table2(np.zeros((1, num_states)))
    beta = np.zeros((len(phi) + 1, phi.shape[1]))
    for n in range(len(phi) - 1, -1, -1):
        beta[n] = log_sum_exp(phi[n] + beta[n + 1][None, :], axis=1)
    return Table2(beta)


def crf_to_hmc(model: CrfModel) -> tuple[HmcModel, ConstructionTrace]:
    """Construct the HMC whose posterior equals the CRF's, with its trace.

    For strict-mode models only (all potentials finite); use
    :func:`crf_to_hmc_generalized` when zero weights are allowed.  For every
    observation sequence the returned chain's posterior over labelings
    equals the CRF posterior.  Raises ValidationError when the built rows
    fail the HMC checks, which happens when the construction loses precision
    at very large potentials.
    """
    if model.mode != STRICT:
        raise ValidationError(
            "crf_to_hmc expects a strict-mode model; use crf_to_hmc_generalized"
        )
    return _construct(model)


def crf_to_hmc_generalized(model: CrfModel) -> tuple[HmcModel, ConstructionTrace]:
    """CRF-to-HMC conversion for nonnegative-weight (generalized) models.

    Identical formulas; zero weights flow through as ``-inf``, and rows with
    zero total mass are replaced by uniform placebo rows flagged unreachable
    in the trace rather than normalized.  Raises :class:`DegenerateModel`
    when every labeling of every observation sequence has zero weight.
    """
    return _construct(model)


def hmc_to_crf(model: HmcModel) -> CrfModel:
    """The CRF with the same posterior as the HMC, the direct half of the equivalence.

    Its pairwise potentials are the log transitions and its emission
    potentials the log emissions, with ``log init`` folded into position 0.
    The CRF is strict when every potential is finite and generalized
    otherwise.
    """
    pairs, emits = _hmc_factors(model)
    finite = np.isfinite(pairs).all() and np.isfinite(emits).all()
    return CrfModel(model.hidden, model.obs, pairs, emits, mode=STRICT if finite else GENERALIZED)


def _rows(weights: np.ndarray, totals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``weights`` divided by their row ``totals``, and the rows with zero total.

    A zero-total row is undefined and becomes a uniform placebo row.
    """
    with np.errstate(invalid="ignore"):
        out = weights - totals[..., None]
    dead = np.isneginf(totals)
    out[dead] = -math.log(out.shape[-1])
    return out, dead


def _construct(model: CrfModel) -> tuple[HmcModel, ConstructionTrace]:
    psi = build_psi(model)
    phi = build_phi(model, psi)
    beta = build_beta(phi, num_states=model.hidden.size)

    if model.length == 1:
        start, why = psi[0], "every state has zero emission weight"
    else:
        start, why = beta[0], "no labeling carries positive weight"
    if log_sum_exp(start.log_values) == LOG_ZERO:
        raise DegenerateModel(why)
    init = normalize_log(start)

    b = beta.log_values
    transitions, dead_trans = _rows(phi.log_values + b[1:, None, :], b[:-1])
    emissions, unreachable = _rows(model.emit_potentials.log_values, psi.log_values)
    unreachable[:-1] |= dead_trans

    hmc = HmcModel(model.hidden, model.obs, init, transitions, emissions)
    trace = ConstructionTrace(psi, phi, beta,
                              tuple(frozenset(np.flatnonzero(u).tolist()) for u in unreachable))
    return hmc, trace

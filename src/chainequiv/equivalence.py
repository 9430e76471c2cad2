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

from .crf import STRICT, CrfModel, DegenerateModel
from .hmc import HmcModel
from .tables import LOG_ZERO, Table1, Table2, ValidationError, log_sum_exp, normalize_log


@dataclass(frozen=True, eq=False)
class ConstructionTrace:
    """The intermediates of a CRF-to-HMC conversion, kept for auditing.

    ``psi`` and ``beta`` hold one Table1 per position (the last beta is
    identically zero in log domain); ``phi`` holds one Table2 per adjacent
    position pair.  ``unreachable[n]`` lists the states whose transition or
    emission row at position ``n`` was replaced by a uniform placebo; such
    states never carry posterior mass.
    """

    psi: tuple[Table1, ...]
    phi: tuple[Table2, ...]
    beta: tuple[Table1, ...]
    unreachable: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "psi", tuple(self.psi))
        object.__setattr__(self, "phi", tuple(self.phi))
        object.__setattr__(self, "beta", tuple(self.beta))
        object.__setattr__(self, "unreachable", tuple(frozenset(u) for u in self.unreachable))


def build_psi(model: CrfModel) -> tuple[Table1, ...]:
    """Per-state emission weight totals, one row per position.

    ``psi[n][x] = log sum_y exp(emit_potentials[n][x, y])``.
    """
    return tuple(
        Table1(log_sum_exp(t.log_values, axis=1)) for t in model.emit_potentials
    )


def build_phi(model: CrfModel, psi) -> tuple[Table2, ...]:
    """Pairwise chain factors with the psi weights folded in.

    The first factor absorbs both endpoint psi rows; later factors absorb
    only the right endpoint's, so each position's psi appears exactly once
    along any path.  Empty for length-1 models.
    """
    psi = [p.log_values for p in psi]
    out = []
    for k, pair in enumerate(model.pair_potentials):
        f = pair.log_values + psi[k + 1][None, :]
        if k == 0:
            f = f + psi[0][:, None]
        out.append(Table2(f))
    return tuple(out)


def build_beta(phi, num_states: int | None = None) -> tuple[Table1, ...]:
    """Backward suffix sums of the phi chain.

    The last row is identically zero (log of one); each earlier row is
    ``beta[n][x] = log sum_{x'} exp(phi[n][x, x'] + beta[n+1][x'])``.  For an
    empty phi chain (length-1 model) ``num_states`` sizes the single row.
    """
    phi = tuple(phi)
    if not phi:
        if num_states is None:
            raise ValidationError("num_states is required when phi is empty (length-1 model)")
        return (Table1(np.zeros(num_states)),)
    k = phi[0].shape[0]
    rows = [np.zeros(k)]
    for t in reversed(phi):
        rows.append(log_sum_exp(t.log_values + rows[-1][None, :], axis=1))
    return tuple(Table1(r) for r in reversed(rows))


def crf_to_hmc(model: CrfModel) -> tuple[HmcModel, ConstructionTrace]:
    """Construct the HMC whose posterior equals the CRF's, with its trace.

    For strict-mode models only (all potentials finite); use
    :func:`crf_to_hmc_generalized` when zero weights are allowed.  For every
    observation sequence the returned chain's posterior over labelings
    equals the CRF posterior.
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


def _construct(model: CrfModel) -> tuple[HmcModel, ConstructionTrace]:
    n, k = model.length, model.hidden.size
    psi = build_psi(model)
    phi = build_phi(model, psi)
    beta = build_beta(phi, num_states=k)

    unreachable = [set() for _ in range(n)]

    if n == 1:
        if log_sum_exp(psi[0].log_values) == LOG_ZERO:
            raise DegenerateModel("every state has zero emission weight")
        init = normalize_log(psi[0])
    else:
        if log_sum_exp(beta[0].log_values) == LOG_ZERO:
            raise DegenerateModel("no labeling carries positive weight")
        init = normalize_log(beta[0])

    def rows(weights: np.ndarray, totals: np.ndarray, pos: int) -> Table2:
        """``weights`` divided by their row ``totals``; zero-total rows become uniform placebos."""
        with np.errstate(invalid="ignore"):
            out = weights - totals[:, None]
        dead = np.isneginf(totals)
        if dead.any():
            out[dead, :] = -math.log(out.shape[1])
            unreachable[pos].update(int(i) for i in np.flatnonzero(dead))
        return Table2(out)

    transitions = [
        rows(phi[s].log_values + beta[s + 1].log_values[None, :], beta[s].log_values, s)
        for s in range(n - 1)
    ]
    emissions = [
        rows(model.emit_potentials[s].log_values, psi[s].log_values, s) for s in range(n)
    ]

    hmc = HmcModel(model.hidden, model.obs, init, tuple(transitions), tuple(emissions))
    trace = ConstructionTrace(psi, phi, beta, tuple(frozenset(u) for u in unreachable))
    return hmc, trace

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

Subtracting suffix sums, about n times the potentials, would cost each cell
eps times that.  A reparameterization needs beta only up to a constant per
position (Wainwright, Jaakkola & Willsky, IEEE Trans. Inf. Theory 49(5), 2003):
beta rows are kept at a maximum of 0, and each output row is normalized alone.

:func:`crf_to_hmc` runs these steps on strict and generalized models alike.
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
from .tables import Table2, Table3, ValidationError, _normalized_rows, log_sum_exp


@dataclass(frozen=True, eq=False)
class ConstructionTrace:
    """The intermediates of a CRF-to-HMC conversion, kept for auditing.

    ``psi`` and ``beta`` are (length, num_states) tables, one row per
    position; ``beta`` is the unshifted one rebuilt from :func:`build_beta`,
    its last row zero in log domain.  ``phi`` is the stack of length - 1
    pairwise factors.  ``unreachable[n]`` lists the states whose transition
    or emission row at position ``n`` was replaced by a uniform placebo;
    such states never carry posterior mass.
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
    along any path.  Empty for length-1 models.  A psi of any shape but
    (length, num_states) raises :class:`ValidationError`.
    """
    psi = psi.log_values
    if psi.shape != (model.length, model.hidden.size):
        raise ValidationError(f"psi has shape {psi.shape}, expected {(model.length, model.hidden.size)}")
    phi = model.pair_potentials.log_values + psi[1:, None, :]
    phi[:1] += psi[0][:, None]
    return Table3(phi)


def build_beta(phi) -> tuple[np.ndarray, np.ndarray]:
    """Backward suffix sums of the phi chain as ``(rows, shifts)``, one row and shift per position.

    ``beta[n] = rows[n] + sum(shifts[n:])``, each row at a maximum of 0: the
    last beta row is zero (log of one), each earlier one is ``beta[n][x] =
    log sum_{x'} exp(phi[n][x, x'] + beta[n+1][x'])``.  ``phi`` is a Table3
    or a (length - 1, k, k) array-like of its tables; a length-1 model's is
    empty, of shape (0, k, k), and gives the single zero row.  Any other
    shape, or an array-like holding NaN or ``+inf``, raises
    :class:`ValidationError`.  Each step runs the arithmetic
    of ``log_sum_exp(a, axis=1)`` inline, bit for bit, with one ``errstate``
    for the whole loop, in four step buffers allocated once.
    """
    checked = isinstance(phi, Table3)  # a Table3 holds no NaN or +inf
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 3 or phi.shape[1] != phi.shape[2]:
        raise ValidationError(f"phi must be a (length - 1, k, k) stack of tables, got shape {phi.shape}")
    if not checked and not (phi < math.inf).all():
        raise ValidationError("phi rejects NaN and +inf entries (only finite values and -inf are valid)")
    k = phi.shape[1]
    rows = np.zeros((len(phi) + 1, k))
    shifts = np.zeros(len(phi) + 1)
    a, m_column, finite, row = np.empty((k, k)), np.empty((k, 1)), np.empty(k, dtype=bool), np.empty(k)
    m = m_column[:, 0]
    with np.errstate(divide="ignore"):
        for n in range(len(phi) - 1, -1, -1):
            np.add(phi[n], rows[n + 1], out=a)  # log_sum_exp(a, axis=1), its steps inline
            a.max(axis=1, out=m)
            if not np.isfinite(m, out=finite).all():
                m[~finite] = 0
            np.subtract(a, m_column, out=a)
            np.exp(a, out=a)
            np.log(a.sum(axis=1, out=row), out=row)
            row += m
            shift = float(row.max())
            shifts[n] = shift = shift if math.isfinite(shift) else 0.0
            np.subtract(row, shift, out=rows[n])
    return rows, shifts


def crf_to_hmc(model: CrfModel) -> tuple[HmcModel, ConstructionTrace]:
    """Construct the HMC whose posterior equals the CRF's, with its trace.

    For every observation sequence the returned chain's posterior over
    labelings equals the CRF posterior, at every length and at any
    potentials below the CRF's score limit: no row is normalized by a suffix
    sum.  Strict and generalized models take the same formulas; in a
    generalized one zero weights flow through as ``-inf``, and rows with zero
    total mass are replaced by uniform placebo rows flagged unreachable in
    the trace.  Raises :class:`DegenerateModel` when every labeling of every
    observation sequence has zero weight.
    """
    psi = build_psi(model)
    phi = build_phi(model, psi)
    rows, shifts = build_beta(phi)

    if model.length == 1:
        start, why = psi.log_values[0], "every state has zero emission weight"
    else:
        start, why = rows[0], "no labeling carries positive weight"
    init, degenerate, _ = _normalized_rows(start)
    if degenerate:
        raise DegenerateModel(why)

    transitions, dead_trans, _ = _normalized_rows(phi.log_values + rows[1:, None, :])
    emissions, unreachable, _ = _normalized_rows(model.emit_potentials.log_values)
    unreachable[:-1] |= dead_trans

    hmc = HmcModel._from_normalized(model.hidden, model.obs, init, transitions, emissions)
    beta = Table2(rows + np.cumsum(shifts[::-1])[::-1, None])
    return hmc, ConstructionTrace(psi, phi, beta, _row_sets(unreachable))


def _row_sets(mask: np.ndarray) -> tuple[frozenset[int], ...]:
    """The columns set in each row of the boolean (rows, cols) ``mask``, one frozenset a row."""
    rows, cols = np.nonzero(mask)
    cols = cols.tolist()
    ends = np.cumsum(np.bincount(rows, minlength=len(mask))).tolist()
    return tuple(frozenset(cols[start:end]) for start, end in zip([0, *ends], ends))


# The name of the generalized-mode entry point before the two were one
# function; perfbench still calls it and traces calls under it.
crf_to_hmc_generalized = crf_to_hmc


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

#!/usr/bin/env python3
"""Probe numerical behavior of the fast paths on long chains with large potentials.

Enumeration is far out of reach here; instead we check the invariants that
remain observable: marginal rows stay normalized and NaN-free, the
constructed chain still validates, and the CRF and constructed-HMC forward-
backward marginals agree with each other.  Exits 1 when a row-sum error or a
CRF/HMC marginal gap exceeds TOLERANCE (1e-9), or on a NaN.

    python scripts/long_chain_stress.py --length 500 --scale 50
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chainequiv.crf import crf_posterior_marginals, random_crf_model
from chainequiv.equivalence import crf_to_hmc
from chainequiv.hmc import hmc_posterior_marginals

# Largest row-sum error and CRF/HMC marginal gap that pass.
TOLERANCE = 1e-9


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--length", type=int, default=100)
    ap.add_argument("--hidden", type=int, default=4)
    ap.add_argument("--obs", type=int, default=3)
    ap.add_argument("--scale", type=float, default=50.0, help="potentials drawn from [-scale, scale]")
    ap.add_argument("--trials", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    worst_row_sum = worst_gap = 0.0
    for trial in range(args.trials):
        model = random_crf_model(args.length, args.hidden, args.obs,
                                 seed=args.seed + trial, low=-args.scale, high=args.scale)
        hmc, _ = crf_to_hmc(model)
        y = tuple(int(v) for v in rng.integers(0, args.obs, args.length))
        a = crf_posterior_marginals(model, y).probabilities()
        b = hmc_posterior_marginals(hmc, y).probabilities()
        if np.isnan(a).any() or np.isnan(b).any():
            print(f"trial {trial}: NaN in marginals")
            return 1
        row_sum = max(float(np.abs(a.sum(axis=1) - 1).max()),
                      float(np.abs(b.sum(axis=1) - 1).max()))
        gap = float(np.abs(a - b).max())
        worst_row_sum = max(worst_row_sum, row_sum)
        worst_gap = max(worst_gap, gap)
        print(f"trial {trial}: row-sum error {row_sum:.3e}, crf/hmc marginal gap {gap:.3e}")

    print(f"\nlength {args.length}, potentials in [-{args.scale}, {args.scale}], "
          f"{args.trials} trials")
    print(f"worst row-sum error: {worst_row_sum:.3e}")
    print(f"worst crf/hmc marginal gap: {worst_gap:.3e}")
    if max(worst_row_sum, worst_gap) > TOLERANCE:
        print(f"FAIL: above the tolerance {TOLERANCE:.1e}")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())

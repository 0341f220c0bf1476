"""Second-order oracles: the affine matrices at one parameter point and the
internal energy of a Galerkin state.

The package never evaluates a parametric system at a single point (it
projects the affine terms instead) and reads the energy off the quadratic
output, so these helpers exist only to check it.
"""

from __future__ import annotations

import numpy as np

from sgmor.galerkin import GalerkinSystem


def affine_at(terms, mu) -> np.ndarray:
    """terms[0] + sum_k mu_k terms[k], e.g. M(mu) from ``M_terms``."""
    mu = np.asarray(mu, dtype=float)
    out = terms[0].copy()
    for k in range(1, len(terms)):
        out += mu[k - 1] * terms[k]
    return out


def energy(g: GalerkinSystem, p: np.ndarray, pdot: np.ndarray) -> float:
    """Internal energy (kinetic + potential) of a Galerkin state."""
    p = np.asarray(p, dtype=float).ravel()
    pdot = np.asarray(pdot, dtype=float).ravel()
    if p.size != g.dimension or pdot.size != g.dimension:
        raise ValueError(f"state vectors must have length {g.dimension}")
    return 0.5 * (float(pdot @ (g.M @ pdot)) + float(p @ (g.K @ p)))

"""Second-order oracles: the affine matrices at one parameter point, the
definiteness of an affine system over its parameter box, the internal
energy of a Galerkin state, and the dense first-order form.

The package never evaluates a parametric system at a single point (it
projects the affine terms and checks definiteness on the projection),
reads the energy off the quadratic output and keeps the first-order form
of a Galerkin triple sparse, so these helpers exist only to check it.
"""

from __future__ import annotations

import itertools

import numpy as np

from sgmor.galerkin import GalerkinSystem, ParametricSecondOrderSystem, QuadraticOutputSystem


def affine_at(terms, mu) -> np.ndarray:
    """terms[0] + sum_k mu_k terms[k], e.g. M(mu) from ``M_terms``."""
    mu = np.asarray(mu, dtype=float)
    out = terms[0].copy()
    for k in range(1, len(terms)):
        out += mu[k - 1] * terms[k]
    return out


def corner_definiteness_check(
    sys: ParametricSecondOrderSystem,
    max_exhaustive_q: int = 20,
    samples: int = 4096,
    seed: int = 0,
) -> bool:
    """Check definiteness of M, D, K at the corners of the parameter box.

    The smallest eigenvalue of an affine symmetric matrix is concave in mu,
    so its minimum over the box is attained at a corner.  All 2^q corners are
    visited for q <= max_exhaustive_q; beyond that a seeded random sample of
    corners is used.  Returns True iff M and K stay positive definite and D
    stays above -1e-12.
    """
    q = sys.q
    if q <= max_exhaustive_q:
        corners = np.array(list(itertools.product((-1.0, 1.0), repeat=q)))
    else:
        rng = np.random.default_rng(seed)
        corners = rng.choice((-1.0, 1.0), size=(samples, q))

    def min_eig(terms):
        stack = np.stack(terms[1:])  # (q, n, n)
        mats = terms[0][None, :, :] + np.tensordot(corners, stack, axes=(1, 0))
        return np.linalg.eigvalsh(mats)[:, 0].min()

    return (
        min_eig(sys.M_terms) > 0.0
        and min_eig(sys.K_terms) > 0.0
        and min_eig(sys.D_terms) >= -1e-12
    )


def energy(g: GalerkinSystem, p: np.ndarray, pdot: np.ndarray) -> float:
    """Internal energy (kinetic + potential) of a Galerkin state."""
    p = np.asarray(p, dtype=float).ravel()
    pdot = np.asarray(pdot, dtype=float).ravel()
    if p.size != g.dimension or pdot.size != g.dimension:
        raise ValueError(f"state vectors must have length {g.dimension}")
    return 0.5 * (float(pdot @ (g.M @ pdot)) + float(p @ (g.K @ p)))


def dense_first_order(fom: QuadraticOutputSystem) -> QuadraticOutputSystem:
    """The first-order form of a Galerkin triple with dense A and N and no
    triple attached, so every consumer takes its dense path."""
    return QuadraticOutputSystem(A=fom.A.toarray(), B=fom.B, N=fom.N.toarray(), label=fom.label)

"""Tensorized Gauss-Legendre oracles for the polynomial chaos basis.

The package computes the Galerkin weights E[kappa phi_i phi_j] analytically;
these helpers evaluate the same expectations by brute-force quadrature so the
tests have an independent reference.  The tensor grid has (2 (d + 1))^q
nodes, which integrates products phi_i phi_j (affine weight) exactly and is
meant for q <= 4.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from sgmor.polychaos import PcBasis


def legendre_table(k_max: int, x: np.ndarray) -> np.ndarray:
    """Evaluate the orthonormal Legendre polynomials of degree 0..k_max.

    Uses the three-term recurrence of the classical polynomials followed by
    the normalization sqrt(2k + 1), which makes them orthonormal against the
    uniform density 1/2 on [-1, 1].

    Returns an array of shape (len(x), k_max + 1).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    table = np.zeros((x.size, k_max + 1))
    table[:, 0] = 1.0
    if k_max >= 1:
        table[:, 1] = x
    for k in range(1, k_max):
        table[:, k + 1] = ((2 * k + 1) * x * table[:, k] - k * table[:, k - 1]) / (k + 1)
    table *= np.sqrt(2.0 * np.arange(k_max + 1) + 1.0)
    return table


def legendre_orthonormal(k: int, x):
    """Degree-k Legendre polynomial, orthonormal w.r.t. the density 1/2 on [-1, 1]."""
    scalar = np.isscalar(x)
    vals = legendre_table(k, np.atleast_1d(x))[:, k]
    return float(vals[0]) if scalar else vals


def tensor_rule(basis: PcBasis) -> tuple[np.ndarray, np.ndarray]:
    """Full tensor grid: nodes (n, q) and probability weights (n,)."""
    nodes_1d, weights_1d = np.polynomial.legendre.leggauss(2 * (basis.d + 1))
    grids = np.meshgrid(*([nodes_1d] * basis.q), indexing="ij")
    nodes = np.column_stack([g.ravel() for g in grids])
    # normalize to the probability measure of the uniform density 1/2
    wgrids = np.meshgrid(*([weights_1d / 2.0] * basis.q), indexing="ij")
    weights = np.ones(nodes.shape[0])
    for w in wgrids:
        weights *= w.ravel()
    return nodes, weights


def evaluate(basis: PcBasis, points: np.ndarray) -> np.ndarray:
    """Evaluate all s basis polynomials at points of shape (n, q); returns (n, s)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    uni = [legendre_table(basis.d, pts[:, j]) for j in range(basis.q)]
    vals = np.ones((pts.shape[0], basis.size))
    for i, alpha in enumerate(basis.indices):
        for j, k in enumerate(alpha):
            if k:
                vals[:, i] *= uni[j][:, k]
    return vals


def expectation_weighted(
    basis: PcBasis, i: int, j: int, w: Callable[[np.ndarray], float]
) -> float:
    """E[w(mu) phi_i(mu) phi_j(mu)] by the tensor rule; ``w`` maps R^q to a scalar."""
    nodes, weights = tensor_rule(basis)
    wvals = np.array([w(mu) for mu in nodes], dtype=float)
    vals = evaluate(basis, nodes)
    return float(np.sum(weights * wvals * vals[:, i] * vals[:, j]))


def gram_matrix(basis: PcBasis) -> np.ndarray:
    """Gram matrix E[phi_i phi_j] of the full basis via the tensor rule."""
    nodes, weights = tensor_rule(basis)
    vals = evaluate(basis, nodes)
    return vals.T @ (weights[:, None] * vals)

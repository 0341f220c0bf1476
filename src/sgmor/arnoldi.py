"""One-sided block Arnoldi reduction at a single real expansion point.

The projection basis spans the shifted-inverse Krylov space
span{S^{-1}B, S^{-2}B, ...} with S = omega*I - A, grown column by column so
any exact reduced dimension r is reachable.  S is factored once by
``QuadraticOutputSystem.shift_inverse``: a sparse LU of omega^2 M + omega D + K
for the first-order form of a Galerkin triple, a dense LU otherwise.  Both
projection matrices equal the orthonormal basis (V = W), so reduced systems
are Galerkin projections and carry no stability guarantee.
"""

from __future__ import annotations

import numpy as np

from .bt_quadratic import ReducedModel, project
from .errors import ConvergenceError
from .galerkin import QuadraticOutputSystem

__all__ = ["arnoldi_basis", "reduce_arnoldi"]

DEFLATION_RTOL = 1e-12
REORTH_PASSES = 2


def arnoldi_basis(fom: QuadraticOutputSystem, r: int, omega: float = 1.0) -> tuple[np.ndarray, dict]:
    """Orthonormal basis (m, r) of the shifted-inverse block Krylov space.

    Candidates are S^{-1} applied to the previous block's surviving columns
    and orthogonalized in REORTH_PASSES classical Gram-Schmidt passes
    against the whole basis so far (one block product each); a
    candidate whose norm drops below 1e-12 of its pre-orthogonalization
    norm is deflated and its lineage ends.  Deflations are reported in the
    metadata; exhausting the space before r columns raises.
    """
    m = fom.m
    if not 1 <= r <= m:
        raise ValueError(f"reduced dimension {r} outside 1..{m}")
    if not np.isfinite(omega):
        raise ValueError("expansion point must be finite")
    shift_inverse = fom.shift_inverse(omega)

    V = np.empty((m, r))
    k = 0
    deflated = 0
    frontier = [fom.B[:, j].copy() for j in range(fom.B.shape[1])]
    while k < r:
        survivors = []
        for w in frontier:
            if k == r:
                break
            w = shift_inverse(w)
            norm_before = np.linalg.norm(w)
            if norm_before == 0.0:
                deflated += 1
                continue
            for _ in range(REORTH_PASSES):
                w -= V[:, :k] @ (V[:, :k].T @ w)
            norm_after = np.linalg.norm(w)
            if norm_after <= DEFLATION_RTOL * norm_before:
                deflated += 1
                continue
            V[:, k] = w / norm_after
            survivors.append(V[:, k])
            k += 1
        if k < r:
            if not survivors:
                raise ConvergenceError(
                    f"Krylov space exhausted at dimension {k} before reaching {r}"
                )
            frontier = survivors
    meta = {"omega": omega, "deflated": deflated}
    return V, meta


def reduce_arnoldi(fom: QuadraticOutputSystem, r: int, omega: float = 1.0) -> ReducedModel:
    """Galerkin projection of the system onto the r-column Krylov basis (V = W)."""
    V, _ = arnoldi_basis(fom, r, omega=omega)
    return ReducedModel(r=r, system=project(fom, V, V), V=V, W=V)

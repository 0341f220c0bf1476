"""One-sided block Arnoldi reduction at a single real expansion point.

The projection basis spans the shifted-inverse Krylov space
span{S^{-1}B, S^{-2}B, ...} with S = omega*I - A, grown column by column from
one first-in first-out queue (the columns of B, then each accepted basis
column in turn), so any exact reduced dimension r is reachable.  S is
factored once by ``QuadraticOutputSystem.shift_inverse``: a sparse LU of
omega^2 M + omega D + K for the first-order form of a Galerkin triple, a
dense LU otherwise.  Both
projection matrices equal the orthonormal basis (V = W), so reduced systems
are Galerkin projections and carry no stability guarantee.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .bt_quadratic import ReducedModel, project
from .errors import ConvergenceError
from .galerkin import QuadraticOutputSystem
from .lyapsylv import gemm

__all__ = ["arnoldi_basis", "reduce_arnoldi"]

DEFLATION_RTOL = 1e-12
REORTH_PASSES = 2


def arnoldi_basis(fom: QuadraticOutputSystem, r: int, omega: float = 1.0) -> tuple[np.ndarray, dict]:
    """Orthonormal basis (m, r) of the shifted-inverse block Krylov space.

    A candidate is S^{-1} applied to the column at the head of the queue,
    held as an m x 1 matrix for ``gemm``, and orthogonalized in
    REORTH_PASSES classical Gram-Schmidt passes against the whole basis so
    far (one block product each).  A candidate whose norm drops to 1e-12 of
    its pre-orthogonalization norm or below (a zero candidate included) is
    deflated and its lineage ends; an accepted one joins the basis and the
    back of the queue.  Deflations are reported in the metadata; emptying
    the queue before r columns raises.
    """
    m = fom.m
    if not 1 <= r <= m:
        raise ValueError(f"reduced dimension {r} outside 1..{m}")
    if not np.isfinite(omega):
        raise ValueError("expansion point must be finite")
    shift_inverse = fom.shift_inverse(omega)

    # Fortran order keeps V[:, :k] contiguous, so dgemm takes it without a copy
    V = np.empty((m, r), order="F")
    k = 0
    deflated = 0
    queue = deque(fom.B.T.copy())
    while k < r:
        if not queue:
            raise ConvergenceError(f"Krylov space exhausted at dimension {k} before reaching {r}")
        w = shift_inverse(queue.popleft())[:, None]
        norm_before = np.linalg.norm(w)
        for _ in range(REORTH_PASSES):
            w -= gemm(V[:, :k], gemm(V[:, :k].T, w))
        norm_after = np.linalg.norm(w)
        if norm_after <= DEFLATION_RTOL * norm_before:
            deflated += 1
            continue
        V[:, k] = w[:, 0] / norm_after
        queue.append(V[:, k])
        k += 1
    return V, {"deflated": deflated}


def reduce_arnoldi(fom: QuadraticOutputSystem, r: int, omega: float = 1.0) -> ReducedModel:
    """Galerkin projection of the system onto the r-column Krylov basis (V = W)."""
    V, _ = arnoldi_basis(fom, r, omega=omega)
    return ReducedModel(r=r, system=project(fom, V, V), V=V, W=V)

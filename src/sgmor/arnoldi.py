"""One-sided block Arnoldi reduction at a single real expansion point.

The projection basis spans the shifted-inverse Krylov space
span{S^{-1}B, S^{-2}B, ...} with S = omega*I - A, grown column by column so
any exact reduced dimension r is reachable.  Both projection matrices equal
the orthonormal basis (V = W), so reduced systems are Galerkin projections
and carry no stability guarantee.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .bt_quadratic import ReducedModel, project
from .errors import ConvergenceError, NumericalError
from .galerkin import QuadraticOutputSystem

__all__ = ["KrylovConfig", "arnoldi_basis", "reduce_arnoldi"]

DEFLATION_RTOL = 1e-12
REORTH_PASSES = 2


@dataclass(frozen=True)
class KrylovConfig:
    """Expansion point and target dimension."""

    r: int
    omega: float = 1.0

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"reduced dimension must be >= 1, got {self.r}")
        if not np.isfinite(self.omega):
            raise ValueError("expansion point must be finite")


def arnoldi_basis(fom: QuadraticOutputSystem, r: int, omega: float = 1.0) -> tuple[np.ndarray, dict]:
    """Orthonormal basis (m, r) of the shifted-inverse block Krylov space.

    Candidates are S^{-1} applied to the previous block's surviving columns
    and orthogonalized in REORTH_PASSES Gram-Schmidt passes; a
    candidate whose norm drops below 1e-12 of its pre-orthogonalization
    norm is deflated and its lineage ends.  Deflations are reported in the
    metadata; exhausting the space before r columns raises.
    """
    m = fom.A.shape[0]
    if not 1 <= r <= m:
        raise ValueError(f"reduced dimension {r} outside 1..{m}")
    if not np.isfinite(omega):
        raise ValueError("expansion point must be finite")
    shifted = omega * np.eye(m) - fom.A
    with warnings.catch_warnings():
        # singularity is detected and reported through the diagonal check
        warnings.simplefilter("ignore", la.LinAlgWarning)
        lu, piv = la.lu_factor(shifted)
    if np.abs(np.diag(lu)).min() == 0.0:
        raise NumericalError(f"shift {omega} makes omega*I - A singular")

    V = np.empty((m, r))
    k = 0
    deflated = 0
    frontier = [fom.B[:, j].copy() for j in range(fom.B.shape[1])]
    while k < r:
        survivors = []
        for w in frontier:
            if k == r:
                break
            w = la.lu_solve((lu, piv), w)
            norm_before = np.linalg.norm(w)
            if norm_before == 0.0:
                deflated += 1
                continue
            for _ in range(REORTH_PASSES):
                for j in range(k):
                    w -= (V[:, j] @ w) * V[:, j]
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


def reduce_arnoldi(fom: QuadraticOutputSystem, cfg: KrylovConfig) -> ReducedModel:
    """Galerkin projection of the system onto the Krylov basis (V = W)."""
    V, meta = arnoldi_basis(fom, cfg.r, omega=cfg.omega)
    return ReducedModel(r=cfg.r, system=project(fom, V, V), V=V, W=V, meta=meta)

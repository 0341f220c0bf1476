"""Dissipation and passivity checks for quadratic-output systems.

For the energy N the matrix T = A^T N + N A governs the internal dissipation:
d/dt (x^T N x) = x^T T x + input terms.  A system is passive with respect to
the energy supply when T is negative semidefinite.  The reduced systems lose
that property in general; lambda_max(T) measures by how much, and shifting the
dissipation inequality by lambda_max(T) I restores a certificate.  Only the
spectrum of T is computed: a dense T is formed from the one product S = N A
as S + S^T, which is exactly symmetric, and the first-order form of a
Galerkin triple has T = blkdiag(0, -2 D) by construction, so its spectrum
is read off D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .galerkin import QuadraticOutputSystem
from .lyapsylv import gemm

__all__ = [
    "DissipationReport",
    "DissipationCertificate",
    "check_passivity",
    "shifted_dissipation_certificate",
]

PASSIVITY_RTOL = 1e-10


def _dissipation_eigenvalues(sys: QuadraticOutputSystem) -> np.ndarray:
    """Ascending eigenvalues of T = A^T N + N A.

    A dense A forms T as S + S^T with S = N A: N is exactly symmetric
    (``QuadraticOutputSystem`` symmetrizes it), so A^T N = (N A)^T, one
    matrix product instead of two, and the sum is exactly symmetric, as
    ``eigvalsh`` assumes.  For a Galerkin triple T = blkdiag(0, -2 D), so
    the eigenvalues are ns zeros and -2 eig(D), one ns x ns eigensolve
    instead of an m x m one.
    """
    g = sys.galerkin
    if g is None:
        S = gemm(sys.N, sys.A)
        return la.eigvalsh(S + S.T, driver="evd")
    damping = -2.0 * la.eigvalsh(g.D.toarray(), driver="evd")
    return np.sort(np.concatenate([np.zeros(g.dimension), damping]))


@dataclass(frozen=True)
class DissipationReport:
    lambda_max: float
    passive: bool


def check_passivity(sys: QuadraticOutputSystem) -> DissipationReport:
    """Largest eigenvalue of the dissipation matrix and the sign verdict.

    The verdict uses a relative zero threshold: lambda_max <= 1e-10 * ||T||_2
    still counts as passive, so roundoff at the semidefinite boundary does not
    flip the answer.
    """
    eigs = _dissipation_eigenvalues(sys)
    lam = float(eigs[-1])
    spectral_norm = float(max(abs(eigs[0]), abs(eigs[-1])))
    tol = PASSIVITY_RTOL * spectral_norm
    return DissipationReport(lambda_max=lam, passive=lam <= tol)


@dataclass(frozen=True)
class DissipationCertificate:
    """Shift of the dissipation inequality that makes it hold, with its residual.

    ``lambda_max`` and ``passive`` are those of ``check_passivity``;
    ``residual`` is the largest eigenvalue of the composite LMI matrix at the
    shifted supply-rate triple, which is 0 by construction.
    """

    lambda_max: float
    passive: bool
    residual: float


def shifted_dissipation_certificate(sys: QuadraticOutputSystem) -> DissipationCertificate:
    """Certificate for the supply-rate triple (R = 0, S = B^T N, L = lambda_max(T) I).

    The dissipation inequality for storage x^T N x and supply (R, S, L) asks
    the composite matrix

        [[T - L,        N B - S^T],
         [B^T N - S,    -R       ]]

    to be negative semidefinite.  With S = B^T N the off-diagonal blocks are
    N B - N^T B = 0 (N is symmetric), and with R = 0 the composite matrix is
    blkdiag(T - lambda_max(T) I, 0).  Its eigenvalues are lambda_i(T) -
    lambda_max(T) <= 0 and the zeros of the input block, so its largest
    eigenvalue, the certificate residual, is exactly 0.  The only eigensolve
    is the one of T inside ``check_passivity``.
    """
    report = check_passivity(sys)
    return DissipationCertificate(report.lambda_max, report.passive, residual=0.0)

"""Kronecker-product oracles for Lyapunov and Sylvester equations.

Each equation is vectorized and solved as one dense linear system of
m^2 (or m r) unknowns, independent of any Schur form, so these helpers
serve small test systems only.
"""

from __future__ import annotations

import numpy as np
import numpy.linalg as la


def kron_lyapunov(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """X with A X + X A^T + C = 0."""
    m = A.shape[0]
    lhs = np.kron(np.eye(m), A) + np.kron(A, np.eye(m))
    return la.solve(lhs, -C.reshape(-1)).reshape(m, m)


def kron_sylvester(A: np.ndarray, F: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Y with A Y + Y F^T + C = 0."""
    m, r = A.shape[0], F.shape[0]
    lhs = np.kron(np.eye(r), A) + np.kron(F.T, np.eye(m))
    return la.solve(lhs, -C.reshape(-1, order="F")).reshape(m, r, order="F")

"""Dense reference states of the trapezoidal rule.

``sgmor.simulate.integrate`` keeps only the output y_k = x_k^T N x_k of each
step.  The states it steps through are checked against this stepper, which
solves (I - h/2 A) x+ = (I + h/2 A) x + h/2 B (u + u+) with one dense LU of
I - h/2 A and stores every state, so it serves small test systems only.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as la

from sgmor.galerkin import QuadraticOutputSystem


def trapezoid_states(sys: QuadraticOutputSystem, u, x0: np.ndarray, h: float, T: float) -> np.ndarray:
    """(steps + 1, m) states on the grid 0, h, ..., round(T/h) h; ``u`` is a
    callable of time or None for zero input."""
    steps = int(round(T / h))
    A = sys.A.toarray() if hasattr(sys.A, "toarray") else sys.A
    eye = np.eye(sys.m)
    lu = la.lu_factor(eye - 0.5 * h * A)
    explicit = eye + 0.5 * h * A
    ugrid = np.zeros((steps + 1, sys.n_in))
    if u is not None:
        for k in range(steps + 1):
            ugrid[k] = np.atleast_1d(u(h * k))
    x = np.empty((steps + 1, sys.m))
    x[0] = x0
    for k in range(steps):
        x[k + 1] = la.lu_solve(lu, explicit @ x[k] + 0.5 * h * (sys.B @ (ugrid[k] + ugrid[k + 1])))
    return x


def quadratic_outputs(N, states: np.ndarray) -> np.ndarray:
    """x_k^T N x_k for each row x_k of ``states``; N is dense or sparse."""
    return np.einsum("ki,ki->k", states, np.asarray(N @ states.T).T)

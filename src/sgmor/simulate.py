"""Time-domain integration of quadratic-output systems.

The integrator is the trapezoidal rule, which is A-stable and second order,
and reproduces the continuous energy balance up to O(h^2): for zero input the
discrete energy x_k^T N x_k of a dissipative system is non-increasing up to
roundoff, which is what the dissipation checks rely on.  Every system steps
through its own shifted solve ``shift_inverse(2/h)``, so this module does not
know whether A is dense or applied through a second-order triple.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .bt_quadratic import h2_error
from .galerkin import QuadraticOutputSystem

__all__ = [
    "Trajectory",
    "default_input",
    "integrate",
    "BoundCheck",
    "verify_error_bound",
]


def default_input(t):
    """Square-integrable excitation exp(-t/10) sin(2 t)."""
    return np.exp(-t / 10.0) * np.sin(2.0 * t)


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid states and quadratic outputs y_k = x_k^T N x_k, with the
    input samples u_k (steps, n_in) they were integrated with."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray

    @property
    def energy(self) -> np.ndarray:
        """Output with the 1/2 factor of the internal-energy reading."""
        return 0.5 * self.y


def _input_samples(u, t: np.ndarray, n_in: int) -> np.ndarray:
    if u is None:
        return np.zeros((t.size, n_in))
    samples = np.empty((t.size, n_in))
    for k, tk in enumerate(t):
        samples[k] = np.atleast_1d(u(tk))
    return samples


def integrate(
    sys: QuadraticOutputSystem,
    u=None,
    x0: np.ndarray | None = None,
    h: float = 0.01,
    T: float = 100.0,
) -> Trajectory:
    """Trapezoidal one-step integration of x' = A x + B u from x(0) = x0.

    ``u`` is a callable of time returning a scalar (single input) or a vector
    of length n_in; None means zero input.  With omega = 2/h the step
    (I - h/2 A) x+ = (I + h/2 A) x + h/2 B (u + u+) reads
    x+ = (omega I - A)^{-1} (2 omega x + B (u + u+)) - x, since
    omega I + A = 2 omega I - (omega I - A): one ``sys.shift_inverse(2/h)``
    factorization per call and one shifted solve per step, for every system.
    A singular step matrix raises NumericalError.
    """
    if h <= 0 or T <= 0:
        raise ValueError("step size and horizon must be positive")
    t = h * np.arange(int(round(T / h)) + 1)
    m = sys.m
    if x0 is None:
        x0 = np.zeros(m)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (m,):
        raise ValueError(f"initial state must have shape ({m},)")

    ugrid = _input_samples(u, t, sys.n_in)
    omega = 2.0 / h
    solve = sys.shift_inverse(omega)
    x = np.empty((t.size, m))
    x[0] = x0
    for k in range(t.size - 1):
        # B is applied per step, so no (steps, m) forcing array is made
        x[k + 1] = solve(2.0 * omega * x[k] + sys.B @ (ugrid[k] + ugrid[k + 1])) - x[k]
    return Trajectory(t=t, x=x, y=sys.quadratic_output(x), u=ugrid)


@dataclass(frozen=True)
class BoundCheck:
    """Observed sup output error against the H2-type a priori bound."""

    observed: float
    bound: float
    holds: bool


def verify_error_bound(
    fom: QuadraticOutputSystem,
    reduced: Iterable[QuadraticOutputSystem],
    u=default_input,
    h: float = 0.01,
    T: float = 100.0,
) -> list[BoundCheck]:
    """Check sup_t |y - y_r| <= ||H - H_r||_H2 * (integral of ||u||^4)^(1/2)
    for each reduced system in ``reduced``, one BoundCheck per system in order.

    The FOM is integrated once; only its t, y and u samples are kept, so its
    states are freed before the first H2 error is solved.  All systems start
    from zero states (the bound covers the zero-state response).  The right
    side uses trapezoidal quadrature of ||u(t)||^4 on the integration grid.
    ``holds`` allows a relative 1e-6 margin plus an O(h^2) integration slack,
    since the trajectories themselves are second-order accurate.
    """
    fom_run = integrate(fom, u=u, h=h, T=T)
    t, y = fom_run.t, fom_run.y
    f = np.linalg.norm(fom_run.u, axis=1) ** 4
    del fom_run  # the FOM states; nothing below reads them
    # scipy.integrate.trapezoid's operation order, without importing scipy.integrate
    u_l4 = float(np.sqrt(np.sum((t[1:] - t[:-1]) * (f[1:] + f[:-1]) / 2.0)))
    y_max = float(np.max(np.abs(y)))

    checks = []
    for rsys in reduced:
        y_r = integrate(rsys, u=u, h=h, T=T).y
        observed = float(np.max(np.abs(y - y_r)))
        bound = h2_error(fom, rsys) * u_l4
        slack = h * h * max(bound, y_max, float(np.max(np.abs(y_r))))
        holds = observed <= bound * (1.0 + 1e-6) + slack
        checks.append(BoundCheck(observed=observed, bound=bound, holds=holds))
    return checks

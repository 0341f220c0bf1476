"""Time-domain integration of quadratic-output systems.

The integrator is the trapezoidal rule, which is A-stable and second order,
and reproduces the continuous energy balance up to O(h^2): for zero input the
discrete energy x_k^T N x_k of a dissipative system is non-increasing up to
roundoff, which is what the dissipation checks rely on.  Every system steps
through its own shifted solve ``shift_inverse(2/h)``, so this module does not
know whether A is dense or applied through a second-order triple.
``integrate`` is the one trapezoid loop.  It returns y, the output
y = x^T N x of each step, and keeps no state, so no run holds a (steps, m)
array; the grid is h * arange(steps + 1) and the internal energy is y / 2.
``verify_error_bound`` runs the FOM and every reduced model through it,
given as the FOM's ``GramianRecord``, which ``h2_error`` reads.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .bt_quadratic import GramianRecord, h2_error
from .galerkin import QuadraticOutputSystem

__all__ = [
    "default_input",
    "integrate",
    "BoundCheck",
    "verify_error_bound",
]


def default_input(t):
    """Square-integrable excitation exp(-t/10) sin(2 t)."""
    return np.exp(-t / 10.0) * np.sin(2.0 * t)


def _input_samples(u, t: np.ndarray, n_in: int) -> np.ndarray:
    """u on the grid t as a (t.size, n_in) array: zeros for None, u itself for
    an array of samples, one call of u per grid point for a callable.

    A callable's value must have shape (n_in,), or be a scalar for a single
    input: a scalar is not spread over several inputs."""
    if u is None:
        return np.zeros((t.size, n_in))
    if isinstance(u, np.ndarray):
        if u.shape != (t.size, n_in):
            raise ValueError(f"input samples have shape {u.shape}, expected {(t.size, n_in)} on the grid")
        return u
    samples = np.empty((t.size, n_in))
    for k, tk in enumerate(t):
        value = u(tk)
        if np.atleast_1d(value).shape != (n_in,):
            raise ValueError(f"input value at t = {tk} has shape {np.shape(value)}, expected {(n_in,)}")
        samples[k] = value
    return samples


def _time_grid(h: float, T: float) -> np.ndarray:
    """Uniform grid 0, h, ..., round(T/h) h; it must hold at least one step.

    A step size or horizon that is not finite and positive raises ValueError
    naming both (a NaN fails every comparison)."""
    if not (0 < h < np.inf and 0 < T < np.inf):
        raise ValueError(f"step size h = {h} and horizon T = {T} must be finite and positive")
    steps = int(round(T / h))
    if steps < 1:
        raise ValueError(f"horizon T = {T} is shorter than half a step h = {h}: no step to take")
    return h * np.arange(steps + 1)


def integrate(
    sys: QuadraticOutputSystem,
    u=None,
    x0: np.ndarray | None = None,
    h: float = 0.01,
    T: float = 100.0,
) -> np.ndarray:
    """Trapezoidal one-step integration of x' = A x + B u from x(0) = x0:
    the outputs y_k = x_k^T N x_k at t_k = k h, k = 0..steps, and no state.

    ``u`` is a callable of time returning a scalar (single input) or a vector
    of length n_in, or its samples at the grid points 0, h, ..., as a
    (steps + 1, n_in) array; None means zero input.  A value of any other
    shape raises ValueError.
    With omega = 2/h the step (I - h/2 A) x+ = (I + h/2 A) x + h/2 B (u + u+)
    reads x+ = (omega I - A)^{-1} (2 omega x + B (u + u+)) - x, since
    omega I + A = 2 omega I - (omega I - A): one ``sys.shift_inverse(2/h)``
    factorization per run and one shifted solve per step, for every system.
    B is applied per step, so no (steps, m) forcing array is made.
    A step size or horizon that is not finite and positive, or a horizon
    shorter than half a step, raises ValueError, a singular step matrix
    NumericalError.
    """
    t = _time_grid(h, T)
    m = sys.m
    x = np.zeros(m) if x0 is None else np.asarray(x0, dtype=float)
    if x.shape != (m,):
        raise ValueError(f"initial state must have shape ({m},)")

    ugrid = _input_samples(u, t, sys.n_in)
    omega = 2.0 / h
    solve = sys.shift_inverse(omega)
    y = np.empty(t.size)
    y[0] = x @ (sys.N @ x)
    for k in range(t.size - 1):
        x = solve(2.0 * omega * x + sys.B @ (ugrid[k] + ugrid[k + 1])) - x
        y[k + 1] = x @ (sys.N @ x)
    return y


@dataclass(frozen=True)
class BoundCheck:
    """Observed sup output error against the H2-type a priori bound."""

    observed: float
    bound: float
    holds: bool


def verify_error_bound(
    ref: GramianRecord,
    reduced: Iterable[QuadraticOutputSystem],
    u=default_input,
    h: float = 0.01,
    T: float = 100.0,
) -> list[BoundCheck]:
    """Check sup_t |y - y_r| <= ||H - H_r||_H2 * (integral of ||u||^4)^(1/2)
    for each reduced system in ``reduced`` against the recorded full system
    ``ref``, one BoundCheck per system in order.

    ``u`` is sampled on the grid once, and the FOM run and every reduced run
    are handed those samples; the FOM is integrated once.  All systems start
    from zero states (the bound covers the zero-state response).  The right
    side uses trapezoidal quadrature of ||u(t)||^4 on the integration grid.
    ``holds`` allows a relative 1e-6 margin plus an O(h^2) integration
    slack, since the trajectories themselves are second-order accurate.
    """
    fom = ref.system
    t = _time_grid(h, T)
    ugrid = _input_samples(u, t, fom.n_in)
    y = integrate(fom, u=ugrid, h=h, T=T)
    f = np.linalg.norm(ugrid, axis=1) ** 4
    # scipy.integrate.trapezoid's operation order, without importing scipy.integrate
    u_l4 = float(np.sqrt(np.sum((t[1:] - t[:-1]) * (f[1:] + f[:-1]) / 2.0)))
    y_max = float(np.max(np.abs(y)))

    checks = []
    for rsys in reduced:
        y_r = integrate(rsys, u=ugrid, h=h, T=T)
        observed = float(np.max(np.abs(y - y_r)))
        bound = h2_error(ref, rsys) * u_l4
        slack = h * h * max(bound, y_max, float(np.max(np.abs(y_r))))
        holds = observed <= bound * (1.0 + 1e-6) + slack
        checks.append(BoundCheck(observed=observed, bound=bound, holds=holds))
    return checks

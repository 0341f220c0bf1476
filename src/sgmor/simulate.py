"""Time-domain integration of quadratic-output systems.

The integrator is the trapezoidal rule, which is A-stable and second order,
and reproduces the continuous energy balance up to O(h^2): for zero input the
discrete energy x_k^T N x_k of a dissipative system is non-increasing up to
roundoff, which is what the dissipation checks rely on.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import trapezoid

from .bt_quadratic import GramianCache, ReducedModel, h2_error
from .errors import NumericalError
from .galerkin import GalerkinSystem, QuadraticOutputSystem

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
    """Uniform-grid states and quadratic outputs y_k = x_k^T N x_k."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray

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
    of length n_in; None means zero input.  A system converted from a
    Galerkin triple (``sys.galerkin`` set) is stepped on the sparse
    second-order form; any other system on the dense propagator
    (I - h/2 A)^{-1} (I + h/2 A), factored once per call.  Both are the same
    trapezoidal rule.
    """
    if h <= 0 or T <= 0:
        raise ValueError("step size and horizon must be positive")
    m = sys.A.shape[0]
    if x0 is None:
        x0 = np.zeros(m)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (m,):
        raise ValueError(f"initial state must have shape ({m},)")

    steps = int(round(T / h))
    t = h * np.arange(steps + 1)
    ugrid = _input_samples(u, t, sys.n_in)
    if sys.galerkin is not None:
        x, y = _step_second_order(sys.galerkin, ugrid, x0, h)
        return Trajectory(t=t, x=x, y=y)

    eye = np.eye(m)
    lhs = eye - 0.5 * h * sys.A
    try:
        with warnings.catch_warnings():
            # singularity is detected and reported through the diagonal check
            warnings.simplefilter("ignore", la.LinAlgWarning)
            lu, piv = la.lu_factor(lhs)
    except la.LinAlgError as exc:
        raise NumericalError(f"cannot factor I - h/2 A at h={h}") from exc
    if np.abs(np.diag(lu)).min() == 0.0:
        raise NumericalError(f"I - h/2 A is singular at h={h}")
    propagator = la.lu_solve((lu, piv), eye + 0.5 * h * sys.A)
    forcing = la.lu_solve((lu, piv), 0.5 * h * sys.B)

    x = np.empty((steps + 1, m))
    x[0] = x0
    for k in range(steps):
        x[k + 1] = propagator @ x[k] + forcing @ (ugrid[k] + ugrid[k + 1])
    y = sys.quadratic_output(x)
    return Trajectory(t=t, x=x, y=y)


def _step_second_order(g: GalerkinSystem, ugrid: np.ndarray, x0: np.ndarray, h: float):
    """The trapezoidal rule on x = [p; v] for M p'' + D p' + K p = B u.

    Eliminating p+ = p + h/2 (v + v+) from the first-order step leaves
    (M + h/2 D + h^2/4 K) v+ = (M - h/2 D - h^2/4 K) v - h K p + h/2 B (u + u+),
    one sparse solve per step; y = p^T K p + v^T M v.
    """
    ns = g.dimension
    shift = 0.5 * h * g.D + 0.25 * h * h * g.K
    try:
        lu = spla.splu((g.M + shift).tocsc())
    except RuntimeError as exc:  # splu reports an exactly singular factor this way
        raise NumericalError(f"M + h/2 D + h^2/4 K is singular at h={h}") from exc
    explicit = sp.hstack([-h * g.K, g.M - shift], format="csr")
    forcing = (0.5 * h) * (ugrid[:-1] + ugrid[1:]) @ g.B.T

    x = np.empty((ugrid.shape[0], 2 * ns))
    x[0] = x0
    for k in range(ugrid.shape[0] - 1):
        p, v = x[k, :ns], x[k, ns:]
        v_next = lu.solve(explicit @ x[k] + forcing[k])
        x[k + 1, :ns] = p + 0.5 * h * (v + v_next)
        x[k + 1, ns:] = v_next
    p, v = x[:, :ns], x[:, ns:]
    y = np.einsum("ki,ki->k", p @ g.K, p) + np.einsum("ki,ki->k", v @ g.M, v)
    return x, y


@dataclass(frozen=True)
class BoundCheck:
    """Observed sup output error against the H2-type a priori bound."""

    observed: float
    bound: float
    holds: bool


def verify_error_bound(
    fom: QuadraticOutputSystem,
    rom: ReducedModel | QuadraticOutputSystem,
    u=default_input,
    h: float = 0.01,
    T: float = 100.0,
    cache: GramianCache | None = None,
    fom_trajectory: Trajectory | None = None,
    error_norm: float | None = None,
) -> BoundCheck:
    """Check sup_t |y - y_r| <= ||H - H_r||_H2 * (integral of ||u||^4)^(1/2).

    Both systems start from zero states (the bound covers the zero-state
    response).  The right side uses trapezoidal quadrature of ||u(t)||^4 on
    the integration grid.  ``holds`` allows a relative 1e-6 margin plus an
    O(h^2) integration slack, since the trajectories themselves are second-
    order accurate.  Precomputed pieces (FOM Gramian cache, FOM trajectory,
    error norm) can be passed in when checking several reduced models.
    """
    rsys = rom.system if isinstance(rom, ReducedModel) else rom
    if fom_trajectory is None:
        fom_trajectory = integrate(fom, u=u, h=h, T=T)
    rom_trajectory = integrate(rsys, u=u, h=h, T=T)
    observed = float(np.max(np.abs(fom_trajectory.y - rom_trajectory.y)))

    if error_norm is None:
        error_norm = h2_error(fom, rsys, cache=cache)
    unorm = np.linalg.norm(_input_samples(u, fom_trajectory.t, fom.n_in), axis=1)
    u_l4 = float(np.sqrt(trapezoid(unorm**4, fom_trajectory.t)))
    bound = error_norm * u_l4

    scale = max(bound, float(np.max(np.abs(fom_trajectory.y))), float(np.max(np.abs(rom_trajectory.y))))
    slack = h * h * scale
    holds = observed <= bound * (1.0 + 1e-6) + slack
    return BoundCheck(observed=observed, bound=bound, holds=holds)


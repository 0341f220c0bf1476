"""Balanced truncation for linear systems with a quadratic output.

Each system is reduced to real Schur form at most once
(``QuadraticOutputSystem.schur``), and the Lyapunov solves for P and Q and
both coefficients of the H2 Sylvester solve read that form.  The stability
verdict of a reduced model needs only its eigenvalues, so an unstable sweep
row takes no Schur form and a stable row one r x r form.

Each system likewise solves its controllability Gramian P once
(``QuadraticOutputSystem.gramian``, a ``GramianCache`` with the H2 norm), so
no caller passes a Gramian beside its system.  ``balance`` reads the cache's
factor P = Z_P Z_P^T, whose first read releases the dense P, solves the
output-weighted observability Gramian Q, whose right-hand side N P N is
replaced by N Z_P Z_P^T N and passed as its factor N Z_P, factors Q, and
the SVD of Z_P^T Z_Q delivers the projection bases.  Every right-hand side
is passed as a factor (B for P, (B, B_r) for the H2 Sylvester equation), so
no m x m right-hand side is formed.
Every H2 quantity needs P alone:
with B B^T = -(A P + P A^T), the norm sqrt(trace(B^T Q B)) equals
sqrt(trace(N P N P)), and the squared reduction error is
trace(N_e P_e N_e P_e) for P_e = [[P, X], [X^T, P_r]] and
N_e = blkdiag(N, -N_r), where X solves the one Sylvester equation
A X + X A_r^T + B B_r^T = 0.  P enters through the norms, which are
taken when P is solved, so no H2 quantity reads P afterwards.  Q is solved
only to balance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import ConvergenceError, RankError
# GramianCache and gramian_cache are defined beside
# QuadraticOutputSystem.gramian (galerkin cannot import this module) and
# re-exported with the H2 functions
from .galerkin import GramianCache, QuadraticOutputSystem, gramian_cache
from .lyapsylv import gemm, solve_lyapunov, solve_sylvester, symmetric_factor
from .passivity import check_passivity

__all__ = [
    "GramianCache",
    "gramian_cache",
    "BalancedFactorization",
    "ReducedModel",
    "balance",
    "project",
    "truncate",
    "h2_error",
    "ReductionRow",
    "sweep",
    "write_csv",
    "write_report_csv",
]

RANK_RTOL = 1e-13


@dataclass(frozen=True)
class BalancedFactorization:
    """Gramian factors and the SVD data of Z_P^T Z_Q (descending singular values)."""

    Zp: np.ndarray
    Zq: np.ndarray
    sigma: np.ndarray
    left: np.ndarray
    right_t: np.ndarray

    @property
    def numerical_rank(self) -> int:
        """Number of singular values above sigma_1 * 1e-13."""
        if self.sigma.size == 0 or self.sigma[0] <= 0.0:
            return 0
        return int(np.count_nonzero(self.sigma > RANK_RTOL * self.sigma[0]))


@dataclass(frozen=True)
class ReducedModel:
    """Reduced system with its oblique projection matrices (W^T V = I_r)."""

    r: int
    system: QuadraticOutputSystem
    V: np.ndarray
    W: np.ndarray

    @property
    def is_stable(self) -> bool:
        """Spectral abscissa of A_r below -1e-12 (the sweep omission rule).

        The verdict reads the eigenvalues alone, so an unstable model takes
        no Schur form; a stable one gets its form from ``h2_error``.
        """
        return float(la.eigvals(self.system.A).real.max()) < -1e-12

    def leading(self, r: int) -> ReducedModel:
        """The model on the first r basis columns: leading blocks of A, B, N, V, W."""
        if not 1 <= r <= self.r:
            raise RankError(f"leading dimension {r} outside 1..{self.r}")
        s = self.system
        rom = QuadraticOutputSystem(A=s.A[:r, :r], B=s.B[:r], N=s.N[:r, :r], label=s.label)
        return ReducedModel(r=r, system=rom, V=self.V[:, :r], W=self.W[:, :r])


def balance(fom: QuadraticOutputSystem) -> BalancedFactorization:
    """Gramians, symmetric factors, and the balancing SVD of a stable system.

    Z_P is the system's cached Gramian factor; taking it releases the dense P.
    """
    Zp = fom.gramian.factor
    # Q's right-hand side N Z_P Z_P^T N is passed as its factor N Z_P; Q goes
    # straight to symmetric_factor, which consumes it
    Zq = symmetric_factor(solve_lyapunov(fom.A, gemm(fom.N, Zp), factors=fom.schur, transposed=True))
    left, sigma, right_t = la.svd(gemm(Zp.T, Zq), full_matrices=False)
    return BalancedFactorization(Zp=Zp, Zq=Zq, sigma=sigma, left=left, right_t=right_t)


def project(fom: QuadraticOutputSystem, V: np.ndarray, W: np.ndarray) -> QuadraticOutputSystem:
    """Reduced system A_r = W^T (A V), B_r = W^T B, N_r = sym(V^T (N V)).

    A and N are applied to the basis only, so a ``FirstOrderOperator`` and
    a sparse N are never densified.
    """
    N_r = gemm(V.T, gemm(fom.N, V))
    return QuadraticOutputSystem(
        A=gemm(W.T, gemm(fom.A, V)), B=gemm(W.T, fom.B), N=0.5 * (N_r + N_r.T), label="rom"
    )


def truncate(bal: BalancedFactorization, fom: QuadraticOutputSystem, r: int) -> ReducedModel:
    """Project the full system onto the r dominant balanced directions.

    V = Z_P U_1 S_1^{-1/2}, W = Z_Q V_1 S_1^{-1/2}; see ``project`` for the
    reduced matrices.  ``r`` may not exceed the numerical rank of the
    factorization (inverse square roots of vanishing singular values would
    blow up).
    """
    rank = bal.numerical_rank
    if not 1 <= r <= rank:
        raise RankError(f"reduced dimension {r} outside 1..{rank} (numerical rank)")
    scale = 1.0 / np.sqrt(bal.sigma[:r])
    V = gemm(bal.Zp, bal.left[:, :r]) * scale
    W = gemm(bal.Zq, bal.right_t[:r, :].T) * scale
    return ReducedModel(r=r, system=project(fom, V, W), V=V, W=W)


def h2_error(fom: QuadraticOutputSystem, rsys: QuadraticOutputSystem) -> float:
    """H2 norm of the error system between a full and a reduced model.

    Evaluates sqrt(||H||^2 + ||H_r||^2 - 2 trace(N X N_r X^T)), where the
    norms come from each system's own ``gramian`` and X solves
    A X + X A_r^T + B B_r^T = 0.  The trace argument is a difference
    of like-sized terms, so its magnitude below 1e-10 of the term scale is
    pure cancellation noise; that dead zone maps to 0.  Anything more
    negative signals inaccurate Gramians and raises.
    """
    fom_norm_sq = fom.gramian.norm_squared
    rom_norm_sq = rsys.gramian.norm_squared

    X = solve_sylvester(fom.A, rsys.A, fom.B, rsys.B, factors_a=fom.schur, factors_f=rsys.schur)
    cross = float(np.sum(gemm(fom.N, X) * gemm(X, rsys.N)))
    value = fom_norm_sq + rom_norm_sq - 2.0 * cross
    scale = abs(fom_norm_sq) + abs(rom_norm_sq)
    if value < -1e-10 * scale:
        raise ConvergenceError(
            f"error-norm trace argument {value:.3e} is negative beyond tolerance"
        )
    if value <= 1e-10 * scale:
        return 0.0
    return float(np.sqrt(value))


@dataclass(frozen=True)
class ReductionRow:
    """One reduced dimension of a sweep; missing entries stay None."""

    r: int
    sigma: float | None
    h2_abs: float | None
    h2_rel: float | None
    lambda_max: float | None
    stable: bool


def sweep(
    fom: QuadraticOutputSystem,
    rom: ReducedModel,
    r_values,
    sigma: np.ndarray | None = None,
) -> list[ReductionRow]:
    """One row per r from the leading r x r block of ``rom``.

    Both reducers build nested bases (the balanced V = Z_P U_1 S_1^{-1/2} and
    the Krylov columns keep their leading columns as r grows), so the
    r-dimensional model is the leading block of the one at the largest r.
    ``sigma`` holds the balancing singular values, if the reducer has them.
    Unstable rows carry no error.
    """
    norm = fom.gramian.norm
    rows = []
    for r in r_values:
        sub = rom.leading(r)
        stable = sub.is_stable
        err = rel = None
        if stable:
            err = h2_error(fom, sub.system)
            rel = err / norm if norm > 0 else None
        rows.append(
            ReductionRow(
                r=r, sigma=None if sigma is None else float(sigma[r - 1]), h2_abs=err, h2_rel=rel,
                lambda_max=check_passivity(sub.system).lambda_max, stable=stable,
            )
        )
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.17g}"


def write_csv(path, header, rows) -> None:
    """Write rows of fields as CSV; numbers carry 17 significant digits, None is empty,
    strings are written as they are."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for fields in rows:
            fh.write(",".join(_fmt(value) for value in fields) + "\n")


def write_report_csv(rows, path) -> None:
    """Write sweep rows, one CSV line per reduced dimension."""
    write_csv(
        path,
        ("r", "sigma_r", "h2_abs", "h2_rel", "lambda_max", "stable"),
        ([row.r, row.sigma, row.h2_abs, row.h2_rel, row.lambda_max, row.stable] for row in rows),
    )

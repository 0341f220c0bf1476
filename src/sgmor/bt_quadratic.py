"""Balanced truncation for linear systems with a quadratic output.

Every quantity the reduction needs from a system comes from one real Schur
form and one controllability Gramian P.  ``gramian_cache`` takes both once
and returns the frozen ``GramianRecord`` (the system, its Schur form and
||H||^2 = trace(N P N P)) together with P, which the caller owns: ``balance``
factors P = Z_P Z_P^T, which consumes it, before it solves the
output-weighted observability Gramian Q, and every other caller drops P at
once.  The Schur form holds T as the blocks the Bartels-Stewart recursion
reads, about half an m x m array, so ``balance`` keeps the record as it
is through both factorizations.  The Lyapunov solves for P and Q and both
coefficients of the H2 Sylvester solve read the Schur forms on the
records, and the H2 functions read the full system off its record, so no
system caches anything.  The stability verdict of a reduced model needs
only its eigenvalues, so an unstable sweep row takes no Schur form and a
stable row one r x r form.

Q's right-hand side N P N is replaced by N Z_P Z_P^T N and passed as its
factor N Z_P; Q is factored, and the SVD of Z_P^T Z_Q delivers the
projection bases.  Every right-hand side is passed as a factor (B for P,
(B, B_r) for the H2 Sylvester equation), so no m x m right-hand side is
formed.  Every H2 quantity needs P alone:
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
from .galerkin import QuadraticOutputSystem
from .lyapsylv import STRIP, SchurFactors, gemm, is_stable, real_schur, solve_lyapunov, solve_sylvester
from .lyapsylv import symmetric_factor
from .passivity import check_passivity

__all__ = [
    "GramianRecord",
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
class GramianRecord:
    """A stable system with its real Schur form and squared H2 norm trace(N P N P)."""

    system: QuadraticOutputSystem
    schur: SchurFactors
    norm_squared: float

    @property
    def norm(self) -> float:
        return float(np.sqrt(max(self.norm_squared, 0.0)))


def gramian_cache(sys: QuadraticOutputSystem) -> tuple[GramianRecord, np.ndarray]:
    """The record of a stable system and its controllability Gramian P.

    The Schur form of A is taken here, the one place the package takes a
    Schur form (an operator A builds a dense A, which gees overwrites); P is
    solved on it, and the H2 norm is summed over strips of P, so no m x m
    N P is formed.  The caller owns P; one that does not factor it drops it
    at once.  A system whose eigenvalues ``lyapsylv.is_stable`` does not
    pass raises StabilityError from the solve of P.
    """
    fac = real_schur(sys.A)
    P = solve_lyapunov(sys.A, sys.B, fac)
    # trace(N P N P) = sum_J <N P[:, J], (N[J, :] P)^T>, one strip of STRIP
    # columns of N P and the matching rows at a time
    norm_sq = 0.0
    for j in range(0, sys.m, STRIP):
        J = slice(j, j + STRIP)
        norm_sq += float(np.einsum("ij,ji->", gemm(sys.N, P[:, J]), gemm(sys.N[J], P)))
    return GramianRecord(system=sys, schur=fac, norm_squared=norm_sq), P


@dataclass(frozen=True)
class BalancedFactorization:
    """The record of the balanced system, its Gramian factors and the SVD data
    of Z_P^T Z_Q (descending singular values)."""

    ref: GramianRecord
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
        """``lyapsylv.is_stable`` of A_r (the sweep omission rule).

        The verdict reads the eigenvalues alone, so an unstable model takes
        no Schur form; a stable one gets its form from the ``gramian_cache``
        call of ``h2_error``.
        """
        return is_stable(la.eigvals(self.system.A))

    def leading(self, r: int) -> ReducedModel:
        """The model on the first r basis columns: leading blocks of A, B, N, V, W."""
        if not 1 <= r <= self.r:
            raise RankError(f"leading dimension {r} outside 1..{self.r}")
        s = self.system
        rom = QuadraticOutputSystem(A=s.A[:r, :r], B=s.B[:r], N=s.N[:r, :r], label=s.label)
        return ReducedModel(r=r, system=rom, V=self.V[:, :r], W=self.W[:, :r])


def balance(fom: QuadraticOutputSystem) -> BalancedFactorization:
    """Record, Gramians, symmetric factors, and the balancing SVD of a stable system.

    P is factored as soon as it is solved; the factor consumes it, and no
    name holds P while Q is solved on the record's Schur form.  The peak, at
    the factor of Q, is the Schur form (T in its blocks, about half an
    array, and U), Q and its eigenvectors, inside which Z_Q is built.
    """
    ref, P = gramian_cache(fom)
    Zp = symmetric_factor(P)
    del P
    # Q's right-hand side N Z_P Z_P^T N is passed as its factor N Z_P; Q goes
    # straight to symmetric_factor, which consumes it
    Q = solve_lyapunov(fom.A, gemm(fom.N, Zp), ref.schur, transposed=True)
    Zq = symmetric_factor(Q)
    del Q
    left, sigma, right_t = la.svd(gemm(Zp.T, Zq), full_matrices=False)
    return BalancedFactorization(ref=ref, Zp=Zp, Zq=Zq, sigma=sigma, left=left, right_t=right_t)


def project(fom: QuadraticOutputSystem, V: np.ndarray, W: np.ndarray) -> QuadraticOutputSystem:
    """Reduced system A_r = W^T (A V), B_r = W^T B, N_r = sym(V^T (N V)).

    A and N are applied to the basis only, so a ``FirstOrderOperator`` and
    a sparse N are never densified.
    """
    N_r = gemm(V.T, gemm(fom.N, V))
    return QuadraticOutputSystem(
        A=gemm(W.T, gemm(fom.A, V)), B=gemm(W.T, fom.B), N=0.5 * (N_r + N_r.T), label="rom"
    )


def truncate(bal: BalancedFactorization, r: int) -> ReducedModel:
    """Project the balanced system onto its r dominant balanced directions.

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
    return ReducedModel(r=r, system=project(bal.ref.system, V, W), V=V, W=W)


def h2_error(ref: GramianRecord, rsys: QuadraticOutputSystem) -> float:
    """H2 norm of the error system between a recorded full and a reduced model.

    Evaluates sqrt(||H||^2 + ||H_r||^2 - 2 trace(N X N_r X^T)), where the
    reduced model's Schur form and norm come from one ``gramian_cache`` call
    and X solves A X + X A_r^T + B B_r^T = 0 on both Schur forms.  The trace
    argument is a difference of like-sized terms, so its magnitude below
    1e-10 of the term scale is pure cancellation noise; that dead zone maps
    to 0.  Anything more negative signals inaccurate Gramians and raises.
    """
    fom = ref.system
    reduced = gramian_cache(rsys)[0]

    X = solve_sylvester(fom.A, rsys.A, fom.B, rsys.B, ref.schur, reduced.schur)
    cross = float(np.einsum("ij,ij->", gemm(fom.N, X), gemm(X, rsys.N)))
    value = ref.norm_squared + reduced.norm_squared - 2.0 * cross
    scale = abs(ref.norm_squared) + abs(reduced.norm_squared)
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
    ref: GramianRecord,
    rom: ReducedModel,
    r_values,
    sigma: np.ndarray | None = None,
) -> list[ReductionRow]:
    """One row per r from the leading r x r block of ``rom``, with its H2
    error against the recorded full system ``ref``.

    Both reducers build nested bases (the balanced V = Z_P U_1 S_1^{-1/2} and
    the Krylov columns keep their leading columns as r grows), so the
    r-dimensional model is the leading block of the one at the largest r.
    ``sigma`` holds the balancing singular values, if the reducer has them.
    Unstable rows carry no error.
    """
    norm = ref.norm
    rows = []
    for r in r_values:
        sub = rom.leading(r)
        stable = sub.is_stable
        err = rel = None
        if stable:
            err = h2_error(ref, sub.system)
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

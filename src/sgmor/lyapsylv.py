"""Dense direct solvers for Lyapunov and Sylvester equations.

Bartels-Stewart (1972): reduce the coefficients to real Schur form and
solve the quasi-triangular equation by recursive blocking (Jonsson &
Kagstrom, RECSY, ACM TOMS 2002).  Each split falls on a 2x2-block
boundary, the parts are solved in the order op(T) requires, and each
off-diagonal coupling is one GEMM into a workspace allocated once per
solve; LAPACK's level-2 trsyl runs only on leaf blocks of at most LEAF rows
and columns.  The Sylvester recursion halves the larger dimension of
op(T_a) Z + Z op(T_f) = R.  The Lyapunov recursion splits op(T) Z +
Z op(T)^T = R symmetrically and solves only the blocks on and above the
diagonal: two half-size Lyapunov equations and one Sylvester equation for
the off-diagonal block, which is mirrored (136 instead of 256 leaves at
m = 960).  Both share the transform, scale and back-transform of
``_bartels_stewart``.  Schur factorizations computed up front can be
passed to every solve; each solution is verified against its residual
before it is returned.

Right-hand sides are passed as factors, as in low-rank ADI (Penzl 2000; Li &
White 2002): B B^T for a Lyapunov equation and L R^T for a Sylvester
equation.  The transform to Schur coordinates is then (U_a^T L)(U_f^T R)^T,
O(m n k) flops for k columns in place of two m x m products, and no m x m
right-hand side is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as la
from scipy.linalg.lapack import dgees, dtrsyl

from .errors import ConvergenceError, DefinitenessError, SpectralOverlapError, StabilityError

__all__ = [
    "SchurFactors",
    "is_symmetric",
    "real_schur",
    "solve_lyapunov",
    "solve_sylvester",
    "symmetric_factor",
]

RESIDUAL_RTOL = 1e-10
# largest block handed to trsyl; above it the flops go to GEMM couplings
LEAF = 64
# columns of X one operator application of the Lyapunov residual takes
RESIDUAL_COLS = 2 * LEAF


def is_symmetric(X: np.ndarray, atol: float) -> bool:
    """True when X is square and max |X - X^T| <= atol; NaN anywhere gives False."""
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        return False
    d = X - X.T
    return bool(np.abs(d, out=d).max(initial=0.0) <= atol)


@dataclass(frozen=True)
class SchurFactors:
    """Real Schur decomposition A = U T U^T with the spectrum of A attached."""

    T: np.ndarray
    U: np.ndarray
    eigenvalues: np.ndarray

    @cached_property
    def abscissa(self) -> float:
        """Largest real part of the spectrum."""
        return float(self.eigenvalues.real.max())


def _no_sort(wr, wi):
    """The eigenvalue selector gees takes; never called, as no ordering is asked for."""
    return 0


def real_schur(A: np.ndarray) -> SchurFactors:
    """Compute the real Schur form of a square matrix.

    LAPACK gees runs on one Fortran-ordered copy of A, which it overwrites
    with T, so the caller's array is never changed.  The workspace query
    passes the same copy and reads only its dimension, so it copies nothing
    (scipy's ``schur`` copies A for the query and keeps that copy alive
    through the real call).  A QR iteration that does not converge raises
    ConvergenceError.
    """
    T = np.array(A, dtype=float, order="F")
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {T.shape}")
    if not np.isfinite(T).all():
        raise ValueError("array must not contain infs or NaNs")
    lwork = int(dgees(_no_sort, T, lwork=-1, overwrite_a=True)[-2][0])
    T, _, wr, wi, U, _, info = dgees(_no_sort, T, lwork=lwork, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal argument {-info} passed to gees")
    if info > 0:
        raise ConvergenceError("Schur form not found: the QR algorithm did not converge")
    return SchurFactors(T=T, U=U, eigenvalues=wr + 1j * wi)


def _symmetrize(X: np.ndarray) -> np.ndarray:
    """X <- (X + X^T) / 2 in place, one strip of LEAF rows at a time.

    Each strip pairs rows i:j with columns i:j from the diagonal on, so the
    only temporary is LEAF x m; the result equals 0.5 * (X + X.T) bitwise.
    """
    m = X.shape[0]
    for i in range(0, m, LEAF):
        j = min(i + LEAF, m)
        strip = X[i:j, i:] + X[i:, i:j].T
        strip *= 0.5
        X[i:j, i:] = strip
        X[i:, i:j] = strip.T
    return X


def _split(T: np.ndarray) -> int:
    """Midpoint of a quasi-triangular T, moved down past a 2x2 block it would cut."""
    k = T.shape[0] // 2
    return k + 1 if T[k, k - 1] != 0.0 else k


_FLIP = {"N": "T", "T": "N"}


def _leaf(Ta, Tf, R, trana: str, tranb: str) -> tuple[np.ndarray, float, int]:
    """One trsyl call on a leaf block: Z, scale and info of op(Ta) Z + Z op(Tf) = scale * R."""
    z, scale, info = dtrsyl(Ta, Tf, R, trana=trana, tranb=tranb, isgn=1)
    if info < 0:
        raise ValueError(f"illegal argument {-info} passed to trsyl")
    return z, scale, info


def _blocked_trsyl(Ta, Tf, R, trana: str, tranb: str, work: np.ndarray) -> tuple[float, int]:
    """Overwrite R with Z solving op(Ta) Z + Z op(Tf) = scale * R.

    The rows of R are split at a block boundary of Ta; a wider R is solved
    as its transpose, op(Tf)^T Z^T + Z^T op(Ta)^T = R^T.  op(Ta) is block
    upper triangular for "N" and block lower triangular for "T", so the half
    that does not couple into the other is solved first.  Returns the
    product of the leaf scales and the largest leaf info, as trsyl would.
    ``work`` holds each coupling product.
    """
    m, n = R.shape
    if max(m, n) <= LEAF:
        R[...], scale, info = _leaf(Ta, Tf, R, trana, tranb)
        return scale, info
    if n > m:
        return _blocked_trsyl(Tf, Ta, R.T, _FLIP[tranb], _FLIP[trana], work)

    k = _split(Ta)
    if trana == "N":
        first, second, coupling = slice(k, m), slice(0, k), Ta[:k, k:]
    else:
        first, second, coupling = slice(0, k), slice(k, m), Ta[:k, k:].T
    Z1, R2 = R[first], R[second]
    scale1, info1 = _blocked_trsyl(Ta[first, first], Tf, Z1, trana, tranb, work)
    if scale1 != 1.0:
        R2 *= scale1
    R2 -= np.matmul(coupling, Z1, out=work[: R2.size].reshape(R2.shape))
    scale2, info2 = _blocked_trsyl(Ta[second, second], Tf, R2, trana, tranb, work)
    if scale2 != 1.0:
        Z1 *= scale2
    return scale1 * scale2, max(info1, info2)


def _blocked_lyapunov(T, R, trana: str, work: np.ndarray) -> tuple[float, int]:
    """Overwrite the symmetric R with Z solving op(T) Z + Z op(T)^T = scale * R.

    Only the blocks on and above the diagonal are solved.  For op = N, with
    T split at a block boundary k, in this order:

        T22 Z22 + Z22 T22^T = R22                   (recursion)
        T11 Z12 + Z12 T22^T = R12 - T12 Z22         (``_blocked_trsyl``)
        T11 Z11 + Z11 T11^T = R11 - G - G^T,  G = T12 Z12^T   (recursion)

    and Z21 = Z12^T is mirrored.  op = T is the mirror image: block 11
    first, coupling Z11 T12, and G = T12^T Z12 into block 22.  A diagonal
    leaf's right-hand side is symmetric only to roundoff, so each leaf
    solution is symmetrized; without that the rounding of the leaves adds
    up to an indefinite part of the Gramian.  Returns the product of the
    leaf scales and the largest leaf info; ``work`` holds each coupling
    product.
    """
    m = R.shape[0]
    if m <= LEAF:
        z, scale, info = _leaf(T, T, R, trana, _FLIP[trana])
        R[...] = 0.5 * (z + z.T)
        return scale, info

    k = _split(T)
    first, second = (slice(k, m), slice(0, k)) if trana == "N" else (slice(0, k), slice(k, m))
    Z1, R2, R12, T12 = R[first, first], R[second, second], R[:k, k:], T[:k, k:]
    scale1, info1 = _blocked_lyapunov(T[first, first], Z1, trana, work)
    if scale1 != 1.0:
        R12 *= scale1
        R2 *= scale1
    out = work[: R12.size].reshape(R12.shape)
    R12 -= np.matmul(T12, Z1, out=out) if trana == "N" else np.matmul(Z1, T12, out=out)
    scale2, info2 = _blocked_trsyl(T[:k, :k], T[k:, k:], R12, trana, _FLIP[trana], work)
    if scale2 != 1.0:
        Z1 *= scale2
        R2 *= scale2
    out = work[: R2.size].reshape(R2.shape)
    G = np.matmul(T12, R12.T, out=out) if trana == "N" else np.matmul(T12.T, R12, out=out)
    R2 -= G
    R2 -= G.T
    scale3, info3 = _blocked_lyapunov(T[second, second], R2, trana, work)
    if scale3 != 1.0:
        Z1 *= scale3
        R12 *= scale3
    R[k:, :k] = R12.T
    return scale1 * scale2 * scale3, max(info1, info2, info3)


def _bartels_stewart(fac_a: SchurFactors, fac_f: SchurFactors, L: np.ndarray, R: np.ndarray, solve):
    """Transform, solve on the Schur forms, scale and back-transform: Y = U_a Z U_f^T.

    The right-hand side L R^T is transformed as (U_a^T L)(U_f^T R)^T, one
    product with U_a^T L when R is L and the factorizations are one.
    ``solve(R, work)`` is ``_blocked_trsyl`` or ``_blocked_lyapunov`` on
    T_a and T_f: it overwrites R with the Z of the quasi-triangular
    equation for right-hand side scale * R and returns (scale, info).  Z is
    divided by -scale, so Y solves the equation with right-hand side
    -L R^T.  Returns Y and the largest trsyl info (1: the spectra were
    perturbed to keep the equation solvable).
    """
    m, n = fac_a.T.shape[0], fac_f.T.shape[0]
    # Z and the coupling workspace behind it share one allocation that
    # lives through the back-transform: splitting it, or freeing it before
    # the back-transform, fragments the malloc heap and raised the peak
    # memory of a d = 2 verify run.  A coupling updates at most half the
    # rows (plus a 2x2 block) of Z or Z^T; the workspace also holds at
    # least one row of Z for the back-transform.
    buf = np.empty(m * n + max((max(m, n) // 2 + 1) * min(m, n), n))
    Z, work = buf[: m * n].reshape(m, n), buf[m * n :]
    UL = fac_a.U.T @ L
    UR = UL if R is L and fac_f is fac_a else fac_f.U.T @ R
    np.matmul(UL, UR.T, out=Z)
    scale, info = solve(Z, work)
    Z /= -scale
    # Z <- Z U_f^T in strips of rows through the workspace, so that the
    # only new m x n array is Y = U_a Z
    rows = work.size // n
    for i in range(0, m, rows):
        strip = Z[i : i + rows]
        out = work[: strip.size].reshape(strip.shape)
        strip[...] = np.matmul(strip, fac_f.U.T, out=out)
    return fac_a.U @ Z, info


def _factor(name: str, X, rows: int) -> np.ndarray:
    """X as a float array of ``rows`` rows: the factor of a right-hand side."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != rows:
        raise ValueError(f"right-hand side factor {name} has shape {X.shape}, expected {rows} rows")
    return X


def solve_lyapunov(
    A: np.ndarray,
    B: np.ndarray,
    factors: SchurFactors | None = None,
    transposed: bool = False,
) -> np.ndarray:
    """Solve A X + X A^T + B B^T = 0 for an m x k factor B and asymptotically stable A.

    The symmetric recursion ``_blocked_lyapunov`` on one Schur
    factorization solves only the blocks of X on and above the diagonal;
    stability of A keeps the spectra of A and -A apart, so no gap check is
    needed.  With ``transposed`` the adjoint equation A^T X + X A + B B^T = 0
    is solved instead, reusing the same factorization.  The result is
    symmetrized; a StabilityError is raised for unstable A and a
    ConvergenceError if the residual, relative to ||B B^T||_F, exceeds
    RESIDUAL_RTOL.

    A is a dense array or, when ``factors`` are given, any operator with
    ``shape``, ``T`` and ``@`` (the residual only applies it).
    """
    if factors is None:
        A = np.asarray(A, dtype=float)
    m = A.shape[0]
    B = _factor("B", B, m)
    # ||B B^T||_F = ||B^T B||_F, a k x k product
    cnorm = la.norm(B.T @ B, "fro")

    fac = factors if factors is not None else real_schur(A)
    if fac.abscissa >= 0.0:
        raise StabilityError(f"coefficient matrix has spectral abscissa {fac.abscissa:.3e} >= 0")

    trana = "T" if transposed else "N"
    X, info = _bartels_stewart(fac, fac, B, B, lambda Z, work: _blocked_lyapunov(fac.T, Z, trana, work))
    if info == 1:
        raise ConvergenceError("trsyl perturbed nearly singular Lyapunov spectrum")
    _symmetrize(X)

    # X is exactly symmetric, so A X + X A^T = (A X) + (A X)^T = 2 sym(A X),
    # formed in place (the doubling is exact).  A X is applied to a block
    # of columns at a time, so an operator A solves with few right-hand
    # sides at once, and B B^T is added one strip of rows at a time.
    op = A.T if transposed else A
    R = np.empty((m, m))
    for j in range(0, m, RESIDUAL_COLS):
        R[:, j : j + RESIDUAL_COLS] = op @ X[:, j : j + RESIDUAL_COLS]
    _symmetrize(R)
    R *= 2.0
    for i in range(0, m, LEAF):
        R[i : i + LEAF] += B[i : i + LEAF] @ B.T
    residual = la.norm(R, "fro")
    if cnorm > 0.0 and residual / cnorm > RESIDUAL_RTOL:
        raise ConvergenceError(
            f"Lyapunov residual {residual / cnorm:.3e} exceeds tolerance {RESIDUAL_RTOL:.1e}"
        )
    return X


def solve_sylvester(
    A: np.ndarray,
    F: np.ndarray,
    L: np.ndarray,
    R: np.ndarray,
    factors_a: SchurFactors | None = None,
    factors_f: SchurFactors | None = None,
) -> np.ndarray:
    """Solve A Y + Y F^T + L R^T = 0 (the spectra of A and -F must be disjoint).

    L (m x k) and R (n x k) factor the right-hand side; a general m x n C
    is passed as (C, I).  Schur factorizations of A and F can be passed in
    ``factors_a`` and ``factors_f`` when the caller already holds them; with
    ``factors_a``, A may be any operator with ``shape`` and ``@`` (the
    residual only applies it).
    """
    if factors_a is None:
        A = np.asarray(A, dtype=float)
    F = np.asarray(F, dtype=float)
    L = _factor("L", L, A.shape[0])
    R = _factor("R", R, F.shape[0])
    if L.shape[1] != R.shape[1]:
        raise ValueError(f"right-hand side factors have shapes {L.shape} and {R.shape}, column counts differ")

    fac_a = factors_a if factors_a is not None else real_schur(A)
    fac_f = factors_f if factors_f is not None else real_schur(F)
    gaps = np.abs(fac_a.eigenvalues[:, None] + fac_f.eigenvalues[None, :])
    scale = max(np.abs(fac_a.eigenvalues).max(), np.abs(fac_f.eigenvalues).max(), 1.0)
    if gaps.min() <= 1e-13 * scale:
        raise SpectralOverlapError(
            f"spectra of A and -F nearly intersect (gap {gaps.min():.3e})"
        )

    Y, info = _bartels_stewart(
        fac_a, fac_f, L, R, lambda Z, work: _blocked_trsyl(fac_a.T, fac_f.T, Z, "N", "T", work)
    )
    if info == 1:
        raise SpectralOverlapError("trsyl perturbed nearly common eigenvalues")

    C = L @ R.T
    denom = max(la.norm(C, "fro"), 1.0)
    C += A @ Y
    C += Y @ F.T
    residual = la.norm(C, "fro")
    if residual / denom > RESIDUAL_RTOL:
        raise ConvergenceError(
            f"Sylvester residual {residual / denom:.3e} exceeds tolerance {RESIDUAL_RTOL:.1e}"
        )
    return Y


def symmetric_factor(X: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Low-rank symmetric factor Z with Z Z^T ~= X for numerically PSD X.

    Eigendecomposition with truncation: columns are kept for eigenvalues
    above tol * lambda_max(X), so rank-deficient Gramians yield thin factors.
    Raises DefinitenessError when X is indefinite beyond tol * ||X||_2.
    """
    X = np.asarray(X, dtype=float)
    if not is_symmetric(X, 1e-12 * max(np.abs(X).max(initial=0.0), 1.0)):
        raise ValueError("matrix must be symmetric")
    # eigh overwrites its input, a symmetrized copy of X; an exactly
    # symmetric C-ordered matrix is passed as its Fortran-ordered transpose
    w, V = la.eigh(_symmetrize(X.copy()).T, overwrite_a=True)
    norm2 = np.abs(w).max(initial=0.0)
    if w[0] < -tol * norm2:
        raise DefinitenessError(
            f"matrix has eigenvalue {w[0]:.3e} below the PSD tolerance {-tol * norm2:.3e}"
        )
    cutoff = tol * max(w[-1], 0.0)
    keep = w > cutoff
    Z = V[:, keep] * np.sqrt(w[keep])
    del V  # freed before the m x m defect product, which would otherwise set the peak memory
    # descending eigenvalue order keeps the dominant directions first
    Z = Z[:, ::-1]
    defect = Z @ Z.T
    defect -= X
    err = la.norm(defect, "fro")
    xnorm = la.norm(X, "fro")
    if xnorm > 0.0 and err > 10.0 * tol * xnorm:
        raise ConvergenceError(
            f"factorization defect {err / xnorm:.3e} exceeds 10*tol={10 * tol:.1e}"
        )
    return Z

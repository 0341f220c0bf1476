"""Dense direct solvers for Lyapunov and Sylvester equations.

Bartels-Stewart (1972): reduce the coefficients to real Schur form and
solve the quasi-triangular equation by recursive blocking (Jonsson &
Kagstrom, RECSY, ACM TOMS 2002).  Each split falls on a 2x2-block
boundary, the parts are solved in the order op(T) requires, and each
off-diagonal coupling is a GEMM taken one strip at a time through a thin
workspace of max(m, n) x LEAF doubles, allocated once per solve; LAPACK's
level-2 trsyl runs only on leaf blocks of at most LEAF rows and columns.
Both recursions solve one equation form, op(T_a) Z + Z op(T_f)^T = R, op
the identity, or the transpose for the adjoint Lyapunov equation, so trsyl
sees only the operator pairs (N, T) and (T, N).  The Sylvester recursion
halves the larger dimension of R.  The Lyapunov recursion (T_a = T_f = T)
splits R symmetrically and solves only the blocks on and above the
diagonal: two half-size Lyapunov equations and one Sylvester equation for
the off-diagonal block, which is mirrored (136 instead of 256 leaves at
m = 960).  A Schur form holds T as the blocks these recursions read,
``QuasiTriangular``: each split's coupling T12 one contiguous array and each
leaf one full array, about half of T in all.  Both recursions share the
transform and back-transform of ``_bartels_stewart``, which writes the
solution in place, so a solve holds the Schur pair (T, U), its one m x n
result and the workspace.  Each leaf
divides out the scale trsyl solves for and raises SpectralOverlapError when
trsyl had to perturb nearly common eigenvalues (info = 1), so a recursion
returns the solution or raises.  The Lyapunov recursion subtracts its
update G + G^T into the second diagonal block one strip of columns of G at
a time, read off T12 and the solved Z12 in place, so it copies nothing of
Z12 but strips.  The Schur factorizations are computed up front
and passed to every solve; each solution is verified against its residual
before it is returned, a NaN residual failing the check.  The Lyapunov
residual is summed over strips of STRIP / 2 columns, one strip of operator
products held at a time, so no m x m residual is formed, and the Sylvester
residual adds Y F^T and L R^T into the one m x n product A Y.
``symmetric_factor`` consumes its input the same way:
scipy's ``eigh`` (driver evr, LAPACK syevr) overwrites it, the factor is
built inside the eigenvector array syevr returns and handed back
Fortran-ordered in that buffer, shrunk to m x k, and the factor defect is
taken in column strips.

Right-hand sides are passed as factors, as in low-rank ADI (Penzl 2000; Li &
White 2002): B B^T for a Lyapunov equation and L R^T for a Sylvester
equation.  The transform to Schur coordinates is then (U_a^T L)(U_f^T R)^T,
O(m n k) flops for k columns in place of two m x m products, and no m x m
right-hand side is ever formed.

One BLAS: every dense matrix product of the package goes through ``gemm``,
which runs on scipy's BLAS (``scipy.linalg.blas.dgemm``), the library that
also carries the LAPACK calls (gees, trsyl, syevr, svd).  numpy links its own
OpenBLAS build, and ``@`` on two dense arrays runs there; mixing the two
wakes two pools of BLAS worker threads, which on a machine with few cores
compete for the same cores, and makes both allocate their packing buffers.
``@`` is left for sparse and operator operands, whose kernels call no BLAS,
for vector dot products, and for the matrix-vector products of each
trapezoid step (``simulate``) on a reduced model: OpenBLAS runs those on the
calling thread below 9,216 matrix entries (r < 96), and through f2py each
would cost 2-5 us more, three times per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dgees, dtrsyl

from .errors import ConvergenceError, DefinitenessError, SpectralOverlapError, StabilityError

__all__ = [
    "QuasiTriangular",
    "SchurFactors",
    "is_stable",
    "is_symmetric",
    "real_schur",
    "solve_lyapunov",
    "solve_sylvester",
    "symmetric_factor",
]

RESIDUAL_RTOL = 1e-10
# a matrix is stable when its spectral abscissa lies below -STABILITY_RTOL
# times max(1, spectral radius)
STABILITY_RTOL = 1e-12
# symmetric_factor keeps the eigenvalues above FACTOR_RTOL * lambda_max and
# allows a factor defect of 10 * FACTOR_RTOL relative to ||X||_F
FACTOR_RTOL = 1e-12
# largest block handed to trsyl; above it the flops go to GEMM couplings
LEAF = 64
# rows or columns of the strips in which an m x m product is reduced to a
# norm or a trace, so that no m x m temporary is formed
STRIP = LEAF


def gemm(a, b, out: np.ndarray | None = None, accumulate: bool = False):
    """a @ b, with a product of two dense arrays on scipy's BLAS (``dgemm``).

    An operand with unit stride along its rows (C-ordered, or a strip of a
    C-ordered array) is passed as its transpose, so f2py copies no contiguous
    operand and copies a strided one along its unit stride.  A 1-D operand
    is a row on the left and a column on the right, as for ``@``.  ``out``,
    a C- or Fortran-contiguous float array of the 2-D result's shape, is
    written in place and returned; a C-ordered ``out`` is filled as
    out^T = b^T a^T.  With ``accumulate`` the product is added to ``out``
    (dgemm's beta = 1), so out += a @ b forms no temporary.  A sparse
    matrix or an operator such as ``FirstOrderOperator`` is applied with its
    own ``@``, which calls no BLAS.
    """
    if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
        return a @ b
    if a.ndim == 1 or b.ndim == 1:
        c = gemm(a[None, :] if a.ndim == 1 else a, b[:, None] if b.ndim == 1 else b)
        # [()] turns the 0-d result of two vectors into a scalar, as ``@`` does
        return c.reshape(a.shape[:-1] + b.shape[1:])[()]
    if out is not None and not out.flags.f_contiguous:
        if not out.flags.c_contiguous:
            raise ValueError("out must be C- or Fortran-contiguous")
        gemm(b.T, a.T, out.T, accumulate)
        return out
    trans_a, a = _fortran_like(a)
    trans_b, b = _fortran_like(b)
    if out is None:
        return dgemm(1.0, a, b, trans_a=trans_a, trans_b=trans_b)
    beta = 1.0 if accumulate else 0.0
    return dgemm(1.0, a, b, beta=beta, c=out, trans_a=trans_a, trans_b=trans_b, overwrite_c=1)


def _fortran_like(a: np.ndarray) -> tuple[int, np.ndarray]:
    """(trans, a or a^T), whichever has unit stride down its columns, as
    dgemm's Fortran interface wants; f2py copies a strided one column by
    column, which is fast only along that unit stride."""
    if not a.flags.f_contiguous and a.strides[1] == a.itemsize:
        return 1, a.T
    return 0, a


def is_symmetric(X: np.ndarray, atol: float) -> bool:
    """True when X is square and max |X - X^T| <= atol; NaN anywhere gives False.

    Rows i:j are compared with columns i:j from the diagonal on, one strip of
    STRIP rows at a time, so the only temporary is STRIP x m.
    """
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        return False
    for i in range(0, X.shape[0], STRIP):
        d = X[i : i + STRIP, i:] - X[i:, i : i + STRIP].T
        if not np.abs(d, out=d).max(initial=0.0) <= atol:
            return False
    return True


def stability_margin(eigenvalues: np.ndarray) -> float:
    """-STABILITY_RTOL * max(1, spectral radius): the abscissa a stable spectrum lies below."""
    return -STABILITY_RTOL * max(1.0, float(np.abs(eigenvalues).max()))


def is_stable(eigenvalues: np.ndarray) -> bool:
    """The one stability rule: spectral abscissa below ``stability_margin``.

    The real part of an undamped mode is rounding noise of either sign, of
    the order of the spectral radius times the unit roundoff, so a zero
    threshold would pass or refuse it by chance; a NaN eigenvalue fails.
    """
    return bool(eigenvalues.real.max() < stability_margin(eigenvalues))


@dataclass(frozen=True, eq=False)
class QuasiTriangular:
    """An upper quasi-triangular m x m T held as the blocks the recursion reads.

    T of at most LEAF rows is one Fortran-ordered array, ``leaf``.  A larger
    T is split at k = ``_split(T)``, which never cuts a 2x2 block, into
    T11 = T[:k, :k] and T22 = T[k:, k:], held the same way, and the coupling
    T12 = T[:k, k:], one Fortran-ordered array; the zero block T[k:, :k] is
    not stored.  The blocks hold at most m (m + 1) / 2 + m LEAF doubles
    (0.53 m^2 at m = 960).  A coupling reaches dgemm, and a leaf trsyl, as a
    contiguous array, which f2py passes without the copy it makes of a
    strided view of a full T.
    """

    m: int
    leaf: np.ndarray | None = None
    k: int = 0
    T11: QuasiTriangular | None = None
    T12: np.ndarray | None = None
    T22: QuasiTriangular | None = None

    @classmethod
    def of(cls, T: np.ndarray) -> QuasiTriangular:
        """The blocks of an upper quasi-triangular array T, each copied out of it."""
        m = T.shape[0]
        if m <= LEAF:
            return cls(m, leaf=np.array(T, order="F"))
        k = _split(T)
        T11, T22 = cls.of(T[:k, :k]), cls.of(T[k:, k:])
        return cls(m, k=k, T11=T11, T12=np.array(T[:k, k:], order="F"), T22=T22)


@dataclass(frozen=True)
class SchurFactors:
    """Real Schur decomposition A = U T U^T with the spectrum of A attached;
    T is held as its ``QuasiTriangular`` blocks."""

    T: QuasiTriangular
    U: np.ndarray
    eigenvalues: np.ndarray


def _no_sort(wr, wi):
    """The eigenvalue selector gees takes; never called, as no ordering is asked for."""
    return 0


def real_schur(A) -> SchurFactors:
    """Compute the real Schur form of a square matrix or operator.

    LAPACK gees overwrites a Fortran-ordered dense A with T.  An array is
    copied first, so the caller's array is never changed.  Whatever has
    ``toarray`` is made dense with it: the FOM's ``FirstOrderOperator``
    builds a fresh Fortran-ordered A, which gees overwrites without a copy
    (a sparse matrix gives a C-ordered one, copied once more).  The
    workspace query passes the same array and reads only its dimension, so
    it copies nothing (scipy's ``schur`` copies A for the query and keeps
    that copy alive through the real call).  T is returned as its
    ``QuasiTriangular`` blocks, about half an m x m array, and the dense T
    is dropped.  A QR iteration that does not converge raises
    ConvergenceError.
    """
    if hasattr(A, "toarray"):
        T = np.asarray(A.toarray(), dtype=float, order="F")
    else:
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
    return SchurFactors(T=QuasiTriangular.of(T), U=U, eigenvalues=wr + 1j * wi)


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


def _strips(rows: int, cols: int, work: np.ndarray):
    """(J, out) for consecutive strips J of the columns of a rows x cols array,
    each as wide as ``work`` holds, with ``out`` the rows x |J| workspace view.

    ``out`` is Fortran-ordered, so ``gemm`` writes it as the long side of
    dgemm's result (rows x |J|); as its transpose, |J| x rows, the same
    product takes up to twice as long on two threads.
    """
    width = work.size // rows
    for j in range(0, cols, width):
        J = slice(j, min(j + width, cols))
        yield J, work[: rows * (J.stop - j)].reshape((rows, J.stop - j), order="F")


def _split(T: np.ndarray) -> int:
    """Midpoint of a quasi-triangular T, moved down past a 2x2 block it would cut."""
    k = T.shape[0] // 2
    return k + 1 if T[k, k - 1] != 0.0 else k


def _leaf(Ta, Tf, R, transposed: bool) -> None:
    """Overwrite a leaf block R with Z solving op(Ta) Z + Z op(Tf)^T = R: one trsyl call.

    trsyl solves for scale * R with scale <= 1 to avoid overflow; Z is divided
    by it here, so no caller sees a scale.  info = 1 (trsyl perturbed nearly
    common eigenvalues of op(Ta) and -op(Tf)) raises SpectralOverlapError.
    """
    trana, tranb = ("T", "N") if transposed else ("N", "T")
    z, scale, info = dtrsyl(Ta, Tf, R, trana=trana, tranb=tranb, isgn=1)
    if info < 0:
        raise ValueError(f"illegal argument {-info} passed to trsyl")
    if info == 1:
        raise SpectralOverlapError("trsyl perturbed nearly common eigenvalues")
    np.divide(z, scale, out=R)


def _blocked_trsyl(Ta: QuasiTriangular, Tf: QuasiTriangular, R, transposed: bool, work: np.ndarray) -> None:
    """Overwrite R with Z solving op(Ta) Z + Z op(Tf)^T = R.

    The rows of R are split at Ta's split k; a wider R is solved as its
    transpose, op(Tf) Z^T + Z^T op(Ta)^T = R^T, of the same form.  op(Ta) is
    block upper triangular, or lower when ``transposed``, so the half that
    does not couple into the other is solved first.  The coupling T12 goes
    through ``work`` one strip of columns at a time.
    """
    m, n = R.shape
    if max(m, n) <= LEAF:
        _leaf(Ta.leaf, Tf.leaf, R, transposed)
        return
    if n > m:
        _blocked_trsyl(Tf, Ta, R.T, transposed, work)
        return

    k = Ta.k
    if transposed:
        first, second, coupling, T1, T2 = slice(0, k), slice(k, m), Ta.T12.T, Ta.T11, Ta.T22
    else:
        first, second, coupling, T1, T2 = slice(k, m), slice(0, k), Ta.T12, Ta.T22, Ta.T11
    Z1, R2 = R[first], R[second]
    _blocked_trsyl(T1, Tf, Z1, transposed, work)
    for J, out in _strips(*R2.shape, work):
        R2[:, J] -= gemm(coupling, Z1[:, J], out)
    _blocked_trsyl(T2, Tf, R2, transposed, work)


def _blocked_lyapunov(T: QuasiTriangular, R, transposed: bool, work: np.ndarray) -> None:
    """Overwrite the symmetric R with Z solving op(T) Z + Z op(T)^T = R.

    Only the blocks on and above the diagonal are solved.  For op = N, with
    T split at its block boundary k, in this order:

        T22 Z22 + Z22 T22^T = R22                   (recursion)
        T11 Z12 + Z12 T22^T = R12 - T12 Z22         (``_blocked_trsyl``)
        T11 Z11 + Z11 T11^T = R11 - G - G^T,  G = T12 Z12^T   (recursion)

    and Z21 = Z12^T is mirrored.  op = T is the mirror image: block 11
    first, coupling Z11 T12, and G = T12^T Z12 into block 22.  G is formed
    one strip of columns I at a time, G[:, I] = T12 Z12[I, :]^T (op = N) or
    T12^T Z12[:, I] (op = T), and the strip comes off columns I and its
    transpose off rows I, so no copy of Z12^T is made.  A diagonal
    leaf's right-hand side is symmetric only to roundoff, so each leaf
    solution is symmetrized; without that the rounding of the leaves adds
    up to an indefinite part of the Gramian.  ``work`` holds each coupling
    product.
    """
    m = R.shape[0]
    if m <= LEAF:
        _leaf(T.leaf, T.leaf, R, transposed)
        R[...] = 0.5 * (R + R.T)
        return

    k, T12 = T.k, T.T12
    if transposed:
        first, second, T1, T2 = slice(0, k), slice(k, m), T.T11, T.T22
    else:
        first, second, T1, T2 = slice(k, m), slice(0, k), T.T22, T.T11
    Z1, R2, R12 = R[first, first], R[second, second], R[:k, k:]
    _blocked_lyapunov(T1, Z1, transposed, work)
    for J, out in _strips(*R12.shape, work):
        R12[:, J] -= gemm(Z1, T12[:, J], out) if transposed else gemm(T12, Z1[:, J], out)
    _blocked_trsyl(T.T11, T.T22, R12, transposed, work)
    # R2 -= G + G^T one strip of columns I of G at a time, formed in the
    # workspace: G[:, I] comes off columns I and its transpose off rows I.
    # dgemm reads T12 in place and a strip of Z12, which f2py copies.
    for I, out in _strips(*R2.shape, work):
        g = gemm(T12.T, R12[:, I], out) if transposed else gemm(T12, R12[I].T, out)
        R2[:, I] -= g
        R2[I] -= g.T
    _blocked_lyapunov(T2, R2, transposed, work)
    R[k:, :k] = R12.T


def _bartels_stewart(fac_a: SchurFactors, fac_f: SchurFactors, L: np.ndarray, R: np.ndarray, solve):
    """Transform, solve on the Schur forms and back-transform: Y = U_a Z U_f^T.

    The right-hand side L R^T is transformed as (U_a^T L)(U_f^T R)^T, one
    product with U_a^T L when R is L and the factorizations are one.
    ``solve(R, work)`` is ``_blocked_trsyl`` or ``_blocked_lyapunov`` on
    T_a and T_f: it overwrites R with the Z of the quasi-triangular
    equation, or raises.  Z is negated in place, so the returned Y solves
    the equation with right-hand side -L R^T.
    """
    m, n = fac_a.T.m, fac_f.T.m
    # Every coupling and both back-transform passes go through one thin
    # workspace of max(m, n) x LEAF doubles, so every strip is at least LEAF
    # wide and the only m x n array is Z, which is returned.  At d = 2
    # (m = 960) the Gramian of the FOM then peaks at 2.68 m x m arrays
    # traced, its Schur form and residual check included: the blocks of T,
    # U and Z, 2.53, and one step's strips.
    Z = np.empty((m, n))
    work = np.empty(max(m, n) * LEAF)
    UL = gemm(fac_a.U.T, L)
    UR = UL if R is L and fac_f is fac_a else gemm(fac_f.U.T, R)
    gemm(UL, UR.T, Z)
    del UL, UR
    solve(Z, work)
    np.negative(Z, out=Z)
    # Z <- Z U_f^T by strips of rows I, each formed transposed in the
    # workspace as U_f Z[I]^T, then Z <- U_a Z by strips of columns
    for I, out in _strips(n, m, work):
        Z[I] = gemm(fac_f.U, Z[I].T, out).T
    for J, out in _strips(m, n, work):
        Z[:, J] = gemm(fac_a.U, Z[:, J], out)
    return Z


def _factor(name: str, X, rows: int) -> np.ndarray:
    """X as a float array of ``rows`` rows: the factor of a right-hand side."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != rows:
        raise ValueError(f"right-hand side factor {name} has shape {X.shape}, expected {rows} rows")
    return X


def solve_lyapunov(A, B: np.ndarray, factors: SchurFactors, transposed: bool = False) -> np.ndarray:
    """Solve A X + X A^T + B B^T = 0 for an m x k factor B and asymptotically stable A.

    ``factors`` is the real Schur form of A; A itself is the operator the
    residual applies, a dense array or a ``FirstOrderOperator`` (anything
    with ``shape``, ``T`` and ``@``).  The symmetric recursion
    ``_blocked_lyapunov`` solves only the blocks of X on and above the
    diagonal; stability of A keeps the spectra of A and -A apart, so no gap
    check is needed.  With ``transposed`` the adjoint equation
    A^T X + X A + B B^T = 0 is solved instead, on the same factorization.
    The result is symmetrized; a StabilityError is raised when the
    eigenvalues of A do not pass ``is_stable``, a SpectralOverlapError if
    trsyl perturbed the nearly common eigenvalues of A and -A^T on a leaf
    (info = 1), and a ConvergenceError if the residual, relative to
    ||B B^T||_F, exceeds RESIDUAL_RTOL or is NaN.
    """
    eigenvalues = factors.eigenvalues
    if not is_stable(eigenvalues):
        raise StabilityError(
            f"coefficient matrix has spectral abscissa {eigenvalues.real.max():.3e}, "
            f"not below the stability margin {stability_margin(eigenvalues):.3e}"
        )
    B = _factor("B", B, A.shape[0])
    # ||B B^T||_F = ||B^T B||_F, a k x k product
    cnorm = np.sqrt(_sum_squares(gemm(B.T, B)))

    X = _bartels_stewart(
        factors, factors, B, B, lambda Z, work: _blocked_lyapunov(factors.T, Z, transposed, work)
    )
    _symmetrize(X)

    op = A.T if transposed else A
    residual = _lyapunov_residual(op, X, B)
    if not residual <= RESIDUAL_RTOL * cnorm:
        raise ConvergenceError(
            f"Lyapunov residual {residual / cnorm:.3e} exceeds tolerance {RESIDUAL_RTOL:.1e}"
        )
    return X


def _lyapunov_residual(op, X: np.ndarray, B: np.ndarray) -> float:
    """||op X + X op^T + B B^T||_F for a symmetric X, with no m x m temporary.

    The residual R is symmetric, so only its blocks on and below the diagonal
    are formed, one strip of columns J at a time from row J.start down:
    R[:, J] = op X[:, J] + X (op^T E_J) + B B[J]^T, with E_J the identity
    columns J.  Off-diagonal blocks count twice.  op X[:, J] and op^T E_J are
    two operator applications to STRIP / 2 columns, one after the other,
    each temporary dropped once it is summed in: applying the FOM's
    operator to a strip holds about 2.5 strips of its own, so a strip of
    half the width keeps the residual at about 0.12 m x m arrays at m = 960,
    against 0.30 for full-width strips held together.
    """
    m = X.shape[0]
    total = 0.0
    width = STRIP // 2
    for j in range(0, m, width):
        J = slice(j, min(j + width, m))
        w = J.stop - j
        E = np.zeros((m, w))
        E[J] = np.eye(w)
        opTE = gemm(op.T, E)
        del E
        R = gemm(X[j:], opTE)
        del opTE
        R += gemm(op, X[:, J])[j:]
        gemm(B[j:], B[J].T, R, accumulate=True)
        total += _sum_squares(R[:w]) + 2.0 * _sum_squares(R[w:])
        del R
    return float(np.sqrt(total))


def _sum_squares(a: np.ndarray) -> float:
    """Squared Frobenius norm of a 2-D array, with no temporary.

    It calls no BLAS: a norm of ``np.linalg`` (which ``scipy.linalg.norm``
    hands a 2-D array) is a dot product on numpy's BLAS, threaded above
    10,000 entries.
    """
    return float(np.einsum("ij,ij->", a, a))


def solve_sylvester(
    A, F: np.ndarray, L: np.ndarray, R: np.ndarray, factors_a: SchurFactors, factors_f: SchurFactors
) -> np.ndarray:
    """Solve A Y + Y F^T + L R^T = 0 (the spectra of A and -F must be disjoint).

    ``factors_a`` and ``factors_f`` are the real Schur forms of A and F; A
    and F themselves are the operators the residual applies, dense arrays
    or, for A, a ``FirstOrderOperator`` (anything with ``shape`` and ``@``).
    L (m x k) and R (n x k) factor the right-hand side; a general m x n C
    is passed as (C, I).  Nearly common eigenvalues of A and -F raise
    SpectralOverlapError, whether the gap check up front or trsyl on a leaf
    (info = 1) finds them; a residual relative to max(||L R^T||_F, 1) above
    RESIDUAL_RTOL, or NaN, raises ConvergenceError.
    """
    L = _factor("L", L, A.shape[0])
    R = _factor("R", R, F.shape[0])
    if L.shape[1] != R.shape[1]:
        raise ValueError(f"right-hand side factors have shapes {L.shape} and {R.shape}, column counts differ")

    gaps = np.abs(factors_a.eigenvalues[:, None] + factors_f.eigenvalues[None, :])
    scale = max(np.abs(factors_a.eigenvalues).max(), np.abs(factors_f.eigenvalues).max(), 1.0)
    if gaps.min() <= 1e-13 * scale:
        raise SpectralOverlapError(
            f"spectra of A and -F nearly intersect (gap {gaps.min():.3e})"
        )

    Y = _bartels_stewart(
        factors_a, factors_f, L, R,
        lambda Z, work: _blocked_trsyl(factors_a.T, factors_f.T, Z, False, work),
    )

    # max(||L R^T||_F, 1) from ||L R^T||_F^2 = trace((L^T L)(R^T R)), two
    # k x k products; the residual is A Y with Y F^T and L R^T added into it
    denom = np.sqrt(max(np.einsum("ij,ji->", gemm(L.T, L), gemm(R.T, R)), 1.0))
    C = gemm(A, Y)
    gemm(Y, F.T, C, accumulate=True)
    gemm(L, R.T, C, accumulate=True)
    residual = np.sqrt(_sum_squares(C))
    if not residual <= RESIDUAL_RTOL * denom:
        raise ConvergenceError(
            f"Sylvester residual {residual / denom:.3e} exceeds tolerance {RESIDUAL_RTOL:.1e}"
        )
    return Y


def symmetric_factor(X: np.ndarray) -> np.ndarray:
    """Low-rank symmetric factor Z with Z Z^T ~= X for numerically PSD X.

    Eigendecomposition with truncation: columns are kept for eigenvalues
    above FACTOR_RTOL * lambda_max(X), so rank-deficient Gramians yield thin
    factors.  Raises DefinitenessError when an eigenvalue lies below
    -10 * FACTOR_RTOL * ||X||_F, the defect budget below, since every
    dropped eigenvalue, a negative one too, counts in that defect; and
    ConvergenceError when ||Z Z^T - X||_F exceeds 10 * FACTOR_RTOL * ||X||_F
    or is NaN; an eigensolver failure raises scipy's LinAlgError.

    X is consumed: the eigensolver, scipy's ``eigh`` with LAPACK syevr, runs
    in place on it and overwrites its upper triangle and diagonal.  A caller
    that reads X afterwards passes a copy.  Z is Fortran-ordered and built
    inside the eigenvector array syevr returns, which is then shrunk to the
    m x k of Z, so the factor costs no m x k copy beside the eigenvectors.
    """
    X = np.asarray(X, dtype=float)
    if not is_symmetric(X, 1e-12 * max(X.max(initial=0.0), -X.min(initial=0.0), 1.0)):
        raise ValueError("matrix must be symmetric")
    m = X.shape[0]
    diag = X.diagonal().copy()
    # X^T is Fortran-ordered, so syevr overwrites X itself; it reads the lower
    # triangle of X^T, the upper one of X, and leaves the strict lower
    # triangle of X untouched, which with ``diag`` still defines X
    w, V = eigh(X.T, lower=True, overwrite_a=True, check_finite=False, driver="evr")
    budget = 10.0 * FACTOR_RTOL * np.sqrt(np.einsum("i,i->", w, w))  # ||X||_F from the eigenvalues
    if w[0] < -budget:
        raise DefinitenessError(
            f"matrix has eigenvalue {w[0]:.3e} below the PSD tolerance {-budget:.3e}"
        )
    # w ascends, so the k eigenvalues kept are the last ones; Z takes them in
    # descending order, which keeps the dominant directions first
    k = np.count_nonzero(w > FACTOR_RTOL * max(w[-1], 0.0))
    Z = _descending_factor(V, w, k)
    del V

    # ||Z Z^T - X||_F and ||X||_F from the blocks on and below the diagonal,
    # one strip of STRIP columns J at a time: D = Z Z[J]^T over the full
    # height, since rows j: of the Fortran-ordered Z would reach dgemm as a
    # copy, and from row j down D is compared with X's strict lower triangle
    # and ``diag``; blocks below the diagonal count twice
    err_sq = x_sq = 0.0
    for j in range(0, m, STRIP):
        J = slice(j, min(j + STRIP, m))
        Xd = np.tril(X[J, J], -1)
        Xd += Xd.T
        Xd[np.diag_indices(J.stop - j)] = diag[J]
        D = gemm(Z, Z[J].T)
        D[J] -= Xd
        D[J.stop :] -= X[J.stop :, J]
        err_sq += _sum_squares(D[J]) + 2.0 * _sum_squares(D[J.stop :])
        x_sq += _sum_squares(Xd) + 2.0 * _sum_squares(X[J.stop :, J])
    err, xnorm = np.sqrt(err_sq), np.sqrt(x_sq)
    if not err <= 10.0 * FACTOR_RTOL * xnorm:
        raise ConvergenceError(
            f"factorization defect {err / xnorm:.3e} exceeds tolerance {10 * FACTOR_RTOL:.1e}"
        )
    return Z


def _descending_factor(V: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """V[:, m-k:][:, ::-1] * sqrt(w[m-k:][::-1]), bitwise, built inside V.

    Column m-1-j moves to column j for each j < k; where both lie in the
    kept block the two are swapped.  The k columns are scaled in place, and
    V, which must own its Fortran-ordered buffer, is shrunk to its first
    m k doubles, which releases the rest.  V is the result: no view of it
    may survive the shrink.
    """
    if not (V.flags.owndata and V.flags.f_contiguous):
        raise ValueError("the eigenvector array must own a Fortran-ordered buffer")
    m = V.shape[0]
    for j in range(k):
        s = m - 1 - j
        if s >= k:
            V[:, j] = V[:, s]
        elif j < s:
            V[:, [j, s]] = V[:, [s, j]]
    kept = V[:, :k]
    np.multiply(kept, np.sqrt(w[m - k :][::-1]), out=kept)
    del kept
    V.resize((m, k), refcheck=False)
    return V

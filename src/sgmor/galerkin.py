"""Galerkin projection of parametric second-order systems onto a PC basis.

Assembles the deterministic block system for the polynomial-coefficient
states, its internal-energy matrix, and the equivalent explicit first-order
system whose quadratic output realizes the internal energy.  A first-order
system computes its real Schur form and its controllability Gramian once, on
first use, and every consumer reads them off the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DefinitenessError, StabilityError
from .lyapsylv import SchurFactors, is_symmetric, real_schur, solve_lyapunov
from .polychaos import PcBasis

__all__ = [
    "ParametricSecondOrderSystem",
    "GalerkinSystem",
    "QuadraticOutputSystem",
    "GramianCache",
    "gramian_cache",
    "assemble",
    "to_first_order",
    "write_matrix_market",
]


def _check_symmetric(name: str, mats) -> None:
    for k, m in enumerate(mats):
        if not np.array_equal(m, m.T):
            raise ValueError(f"{name} term {k} is not symmetric")


@dataclass(frozen=True)
class ParametricSecondOrderSystem:
    """Second-order system  M(mu) p'' + D(mu) p' + K(mu) p = B u  with affine
    parameter dependence M(mu) = M_terms[0] + sum_k mu_k * M_terms[k] (same
    for D and K) over the box mu in [-1, 1]^q.

    ``*_terms`` are tuples of q+1 symmetric n x n arrays; ``B`` is the
    parameter-independent n x n_in input matrix.
    """

    M_terms: tuple[np.ndarray, ...]
    D_terms: tuple[np.ndarray, ...]
    K_terms: tuple[np.ndarray, ...]
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "M_terms", tuple(np.asarray(m, dtype=float) for m in self.M_terms))
        object.__setattr__(self, "D_terms", tuple(np.asarray(m, dtype=float) for m in self.D_terms))
        object.__setattr__(self, "K_terms", tuple(np.asarray(m, dtype=float) for m in self.K_terms))
        object.__setattr__(self, "B", np.atleast_2d(np.asarray(self.B, dtype=float)))
        n = self.M_terms[0].shape[0]
        if not (len(self.M_terms) == len(self.D_terms) == len(self.K_terms)):
            raise ValueError("M, D, K must have the same number of affine terms")
        for name, mats in (("M", self.M_terms), ("D", self.D_terms), ("K", self.K_terms)):
            for k, m in enumerate(mats):
                if m.shape != (n, n):
                    raise ValueError(f"{name} term {k} has shape {m.shape}, expected {(n, n)}")
            _check_symmetric(name, mats)
        if self.B.shape[0] != n:
            raise ValueError(f"B has {self.B.shape[0]} rows, expected {n}")

    @property
    def n(self) -> int:
        return self.M_terms[0].shape[0]

    @property
    def n_in(self) -> int:
        return self.B.shape[1]

    @property
    def q(self) -> int:
        return len(self.M_terms) - 1


@dataclass(frozen=True)
class GalerkinSystem:
    """Deterministic block system of the PC coefficients.

    ``M``, ``D``, ``K`` are symmetric ns x ns sparse matrices in basis-major
    block layout (block (i, j) couples basis polynomials i and j); ``B`` is
    the ns x n_in input matrix.
    """

    M: sp.csr_matrix
    D: sp.csr_matrix
    K: sp.csr_matrix
    B: np.ndarray
    basis: PcBasis
    n: int

    @property
    def dimension(self) -> int:
        """State dimension ns."""
        return self.M.shape[0]

    def nnz_percentages(self) -> dict[str, float]:
        """Percentage of non-zero entries per system matrix."""
        total = float(self.dimension) ** 2
        return {
            "M": 100.0 * self.M.nnz / total,
            "D": 100.0 * self.D.nnz / total,
            "K": 100.0 * self.K.nnz / total,
        }


@dataclass(frozen=True)
class QuadraticOutputSystem:
    """First-order system x' = A x + B u with quadratic output y = x^T N x.

    ``N`` is symmetric.  The internal energy of a Galerkin realization is
    y / 2; the factor 1/2 is applied only at reporting time.

    ``galerkin`` is the second-order triple this system was converted from
    (set by ``to_first_order``, None otherwise); the state is then
    x = [p; p'] and time integration runs on the sparse triple.
    """

    A: np.ndarray
    B: np.ndarray
    N: np.ndarray
    label: str = "fom"
    galerkin: GalerkinSystem | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "B", np.atleast_2d(np.asarray(self.B, dtype=float)))
        object.__setattr__(self, "N", np.asarray(self.N, dtype=float))
        m = self.A.shape[0]
        if self.A.shape != (m, m) or self.N.shape != (m, m) or self.B.shape[0] != m:
            raise ValueError("inconsistent system dimensions")
        if not is_symmetric(self.N, 1e-12 * max(1.0, np.abs(self.N).max())):
            raise ValueError("output matrix N must be symmetric")
        object.__setattr__(self, "N", 0.5 * (self.N + self.N.T))
        g = self.galerkin
        if g is not None and (2 * g.dimension != m or g.B.shape[1] != self.B.shape[1]):
            raise ValueError("second-order triple does not match the first-order dimensions")

    @property
    def m(self) -> int:
        """State dimension."""
        return self.A.shape[0]

    @property
    def n_in(self) -> int:
        return self.B.shape[1]

    @cached_property
    def schur(self) -> SchurFactors:
        """Real Schur form of A, computed once; every spectral question reads it."""
        return real_schur(self.A)

    @cached_property
    def gramian(self) -> GramianCache:
        """Controllability Gramian and H2 norm, solved once on the Schur form."""
        return gramian_cache(self)

    def quadratic_output(self, x: np.ndarray) -> np.ndarray:
        """y = x^T N x for a single state (m,) or a batch (steps, m)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(x @ self.N @ x)
        return np.einsum("ki,ki->k", x @ self.N, x)


@dataclass(frozen=True)
class GramianCache:
    """Reusable per-system controllability Gramian and H2 norm."""

    controllability: np.ndarray
    norm_squared: float

    @property
    def norm(self) -> float:
        return float(np.sqrt(max(self.norm_squared, 0.0)))


def gramian_cache(sys: QuadraticOutputSystem) -> GramianCache:
    """Controllability Gramian and H2 norm of a stable system, on its Schur form."""
    fac = sys.schur
    if fac.abscissa >= 0.0:
        raise StabilityError(
            f"{sys.label}: spectral abscissa {fac.abscissa:.3e} >= 0, Gramians undefined"
        )
    P = solve_lyapunov(sys.A, sys.B @ sys.B.T, factors=fac)
    NP = sys.N @ P
    # trace(N P N P) without forming the product
    norm_sq = float(np.sum(NP * NP.T))
    return GramianCache(controllability=P, norm_squared=norm_sq)


def _is_positive_definite(mat: sp.spmatrix) -> bool:
    """True if the symmetric sparse ``mat`` is positive definite.

    A symmetric-mode SuperLU factorization that takes only diagonal pivots
    (perm_r == perm_c) is an LDL^T factorization of P mat P^T, and by
    Sylvester's law of inertia mat is positive definite iff every pivot is
    positive.  With a zero pivot threshold SuperLU keeps to the diagonal
    unless the diagonal pivot is exactly zero, and raises when a column has
    no nonzero pivot at all.
    """
    try:
        lu = spla.splu(
            mat.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # exactly singular
        return False
    return np.array_equal(lu.perm_r, lu.perm_c) and bool(np.all(lu.U.diagonal() > 0.0))


def assemble(sys: ParametricSecondOrderSystem, basis: PcBasis) -> GalerkinSystem:
    """Project an affine-parametric second-order system onto a PC basis.

    Block (i, j) of each assembled matrix is sum_k E[kappa_k phi_i phi_j] A_k
    with kappa_0 = 1 and kappa_k = mu_k, evaluated through the analytic
    triple-product matrices of the basis.  The input block is e_1 (x) B since
    B is parameter independent and the first basis polynomial is constant.

    The definiteness the energy output rests on is checked on the sparse
    assembled matrices (M, K positive definite, D positive semi-definite);
    a violation raises DefinitenessError.
    """
    if sys.q != basis.q:
        raise ValueError(f"system has q={sys.q} parameters, basis was built for q={basis.q}")
    s = basis.size

    def project(terms):
        out = None
        for k, term in enumerate(terms):
            if not term.any():
                continue
            g = basis.linear_weight_matrix(k)
            piece = sp.kron(g, sp.csr_matrix(term), format="csr")
            out = piece if out is None else out + piece
        if out is None:
            out = sp.csr_matrix((s * sys.n, s * sys.n))
        out.eliminate_zeros()
        return out

    M = project(sys.M_terms)
    D = project(sys.D_terms)
    K = project(sys.K_terms)
    B = np.zeros((s * sys.n, sys.n_in))
    B[: sys.n, :] = sys.B

    for name, mat in (("M", M), ("K", K)):
        if not _is_positive_definite(mat):
            raise DefinitenessError(f"assembled {name} block matrix is not positive definite")
    if D.nnz:
        shifted = D + 1e-12 * np.abs(D.data).max() * sp.identity(D.shape[0])
        if not _is_positive_definite(shifted):
            raise DefinitenessError("assembled damping block matrix is not positive semi-definite")

    return GalerkinSystem(M=M, D=D, K=K, B=B, basis=basis, n=sys.n)


def to_first_order(g: GalerkinSystem) -> QuadraticOutputSystem:
    """Equivalent explicit first-order realization with energy as quadratic output.

    A = [[0, I], [-M^{-1}K, -M^{-1}D]], B = [0; M^{-1}B], N = blkdiag(K, M).
    The reported internal energy is y/2 = x^T N x / 2.
    """
    ns = g.dimension
    M = np.asarray(g.M.todense())
    D = np.asarray(g.D.todense())
    K = np.asarray(g.K.todense())
    try:
        cho = la.cho_factor(M, lower=True)
    except la.LinAlgError as exc:
        raise DefinitenessError("mass block matrix is not positive definite") from exc
    A = np.zeros((2 * ns, 2 * ns))
    A[:ns, ns:] = np.eye(ns)
    A[ns:, :ns] = -la.cho_solve(cho, K)
    A[ns:, ns:] = -la.cho_solve(cho, D)
    B = np.zeros((2 * ns, g.B.shape[1]))
    B[ns:, :] = la.cho_solve(cho, g.B)
    N = np.zeros((2 * ns, 2 * ns))
    N[:ns, :ns] = K
    N[ns:, ns:] = M
    return QuadraticOutputSystem(A=A, B=B, N=N, galerkin=g)


def write_matrix_market(path, mat, symmetry: str = "general") -> None:
    """Write a matrix in Matrix Market coordinate format (1-based, 17 digits).

    ``symmetry='symmetric'`` stores the lower triangle only and emits the
    header ``%%MatrixMarket matrix coordinate real symmetric``.
    """
    if symmetry not in ("general", "symmetric"):
        raise ValueError(f"unsupported symmetry {symmetry!r}")
    coo = sp.coo_matrix(mat)
    coo.eliminate_zeros()
    rows, cols, vals = coo.row, coo.col, coo.data
    if symmetry == "symmetric":
        keep = rows >= cols
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    order = np.lexsort((rows, cols))  # column-major, the customary layout
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate real {symmetry}\n")
        fh.write(f"{coo.shape[0]} {coo.shape[1]} {len(vals)}\n")
        for k in order:
            fh.write(f"{rows[k] + 1} {cols[k] + 1} {vals[k]:.17g}\n")

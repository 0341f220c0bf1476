"""Galerkin projection of parametric second-order systems onto a PC basis.

Assembles the deterministic block system for the polynomial-coefficient
states, its internal-energy matrix, and the equivalent explicit first-order
system whose quadratic output realizes the internal energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .errors import DefinitenessError
from .polychaos import PcBasis

__all__ = [
    "ParametricSecondOrderSystem",
    "GalerkinSystem",
    "QuadraticOutputSystem",
    "assemble",
    "to_first_order",
    "energy",
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

    def _at(self, terms, mu):
        mu = np.asarray(mu, dtype=float)
        out = terms[0].copy()
        for k in range(1, len(terms)):
            out += mu[k - 1] * terms[k]
        return out

    def mass_at(self, mu) -> np.ndarray:
        return self._at(self.M_terms, mu)

    def damping_at(self, mu) -> np.ndarray:
        return self._at(self.D_terms, mu)

    def stiffness_at(self, mu) -> np.ndarray:
        return self._at(self.K_terms, mu)


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
        if not np.allclose(self.N, self.N.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(self.N).max())):
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

    def quadratic_output(self, x: np.ndarray) -> np.ndarray:
        """y = x^T N x for a single state (m,) or a batch (steps, m)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(x @ self.N @ x)
        return np.einsum("ki,ki->k", x @ self.N, x)


def _smallest_eigenvalue_floor(mat: sp.spmatrix, shift: float) -> bool:
    """True if mat + shift*I admits a Cholesky factorization (is PD)."""
    dense = np.asarray(mat.todense())
    if shift:
        dense = dense + shift * np.eye(dense.shape[0])
    try:
        la.cholesky(dense, lower=True)
        return True
    except la.LinAlgError:
        return False


def assemble(sys: ParametricSecondOrderSystem, basis: PcBasis, validate: bool = True) -> GalerkinSystem:
    """Project an affine-parametric second-order system onto a PC basis.

    Block (i, j) of each assembled matrix is sum_k E[kappa_k phi_i phi_j] A_k
    with kappa_0 = 1 and kappa_k = mu_k, evaluated through the analytic
    triple-product matrices of the basis.  The input block is e_1 (x) B since
    B is parameter independent and the first basis polynomial is constant.

    With ``validate`` the definiteness inherited from the input model is
    verified (M, K positive definite, D positive semi-definite) and a
    DefinitenessError is raised on violation.
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

    if validate:
        for name, mat in (("M", M), ("K", K)):
            if not _smallest_eigenvalue_floor(mat, 0.0):
                raise DefinitenessError(f"assembled {name} block matrix is not positive definite")
        dnorm = np.abs(D.data).max() if D.nnz else 0.0
        if D.nnz and not _smallest_eigenvalue_floor(D, 1e-12 * dnorm):
            raise DefinitenessError("assembled damping block matrix is not positive semi-definite")

    return GalerkinSystem(M=M, D=D, K=K, B=B, basis=basis, n=sys.n)


def to_first_order(g: GalerkinSystem, label: str = "fom") -> QuadraticOutputSystem:
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
    return QuadraticOutputSystem(A=A, B=B, N=N, label=label, galerkin=g)


def energy(g: GalerkinSystem, p: np.ndarray, pdot: np.ndarray) -> float:
    """Internal energy (kinetic + potential) of a Galerkin state."""
    p = np.asarray(p, dtype=float).ravel()
    pdot = np.asarray(pdot, dtype=float).ravel()
    if p.size != g.dimension or pdot.size != g.dimension:
        raise ValueError(f"state vectors must have length {g.dimension}")
    return 0.5 * (float(pdot @ (g.M @ pdot)) + float(p @ (g.K @ p)))


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

"""Galerkin projection of parametric second-order systems onto a PC basis.

Assembles the deterministic block system for the polynomial-coefficient
states, its internal-energy matrix, and the equivalent explicit first-order
system whose quadratic output realizes the internal energy.  The first-order
form of a Galerkin system keeps its sparse structure: A is applied through
the (M, D, K) triple and one sparse LU of M, and N = blkdiag(K, M) stays
sparse.  A first-order system computes its real Schur form and its
controllability Gramian once, on first use, and every consumer reads them off
the system; the dense A exists only as the input of the Schur form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DefinitenessError, NumericalError, StabilityError
from .lyapsylv import SchurFactors, is_symmetric, real_schur, solve_lyapunov
from .polychaos import PcBasis

__all__ = [
    "ParametricSecondOrderSystem",
    "GalerkinSystem",
    "FirstOrderOperator",
    "QuadraticOutputSystem",
    "GramianCache",
    "gramian_cache",
    "assemble",
    "to_first_order",
    "write_matrix_market",
]

# states per block of a batched quadratic output evaluation
OUTPUT_ROWS = 256


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


class FirstOrderOperator:
    """A = [[0, I], [-M^{-1} K, -M^{-1} D]] of a Galerkin triple, never stored.

    A is applied through the sparse (M, D, K) and one sparse LU of M:
    A X = [X_2; -M^{-1}(K X_1 + D X_2)] and, as M, D and K are symmetric,
    A^T X = [-K M^{-1} X_2; X_1 - D M^{-1} X_2].  ``shape``, ``T`` and ``@``
    are what the solvers use; ``toarray`` builds the dense matrix, the input
    of the Schur form and of test oracles.
    """

    def __init__(self, galerkin: GalerkinSystem, mass_lu: spla.SuperLU, transposed: bool = False):
        self.galerkin = galerkin
        self._mass_lu = mass_lu
        self._transposed = transposed

    @property
    def shape(self) -> tuple[int, int]:
        m = 2 * self.galerkin.dimension
        return (m, m)

    @property
    def T(self) -> FirstOrderOperator:
        return FirstOrderOperator(self.galerkin, self._mass_lu, not self._transposed)

    def __matmul__(self, X) -> np.ndarray:
        g, ns = self.galerkin, self.galerkin.dimension
        X = np.asarray(X, dtype=float)
        if X.shape[0] != 2 * ns:
            raise ValueError(f"operand has {X.shape[0]} rows, expected {2 * ns}")
        X1, X2 = X[:ns], X[ns:]
        out = np.empty(X.shape)
        top, bottom = out[:ns], out[ns:]
        if self._transposed:
            Y = self._mass_lu.solve(X2)
            np.negative(g.K @ Y, out=top)
            np.subtract(X1, g.D @ Y, out=bottom)
        else:
            top[...] = X2
            KD = g.K @ X1
            KD += g.D @ X2
            np.negative(self._mass_lu.solve(KD), out=bottom)
        return out

    def toarray(self) -> np.ndarray:
        """The dense A (A^T for a transposed operator)."""
        g, ns = self.galerkin, self.galerkin.dimension
        A = np.zeros((2 * ns, 2 * ns))
        idx = np.arange(ns)
        A[idx, ns + idx] = 1.0
        A[ns:, :ns] = self._mass_lu.solve(g.K.toarray())
        A[ns:, ns:] = self._mass_lu.solve(g.D.toarray())
        np.negative(A[ns:], out=A[ns:])
        return A.T if self._transposed else A


@dataclass(frozen=True)
class QuadraticOutputSystem:
    """First-order system x' = A x + B u with quadratic output y = x^T N x.

    ``N`` is symmetric.  The internal energy of a Galerkin realization is
    y / 2; the factor 1/2 is applied only at reporting time.

    ``A`` is a dense array or, for the first-order form of a Galerkin triple
    (built by ``to_first_order``), a ``FirstOrderOperator`` on that triple;
    ``N`` is a dense array or a sparse matrix.  Whether A is dense is
    decided in one place, ``galerkin``: ``dense_A``, ``shift_inverse`` and
    the dissipation matrix branch on it.  Time integration steps through
    ``shift_inverse`` and reads no triple.
    """

    A: np.ndarray | FirstOrderOperator
    B: np.ndarray
    N: np.ndarray | sp.spmatrix
    label: str = "fom"

    def __post_init__(self):
        if not isinstance(self.A, FirstOrderOperator):
            object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "B", np.atleast_2d(np.asarray(self.B, dtype=float)))
        sparse = sp.issparse(self.N)
        N = sp.csr_matrix(self.N, dtype=float) if sparse else np.asarray(self.N, dtype=float)
        m = self.A.shape[0]
        if self.A.shape != (m, m) or N.shape != (m, m) or self.B.shape[0] != m:
            raise ValueError("inconsistent system dimensions")
        if sparse:
            symmetric = abs(N - N.T).max() <= 1e-12 * max(1.0, abs(N).max())
        else:
            symmetric = is_symmetric(N, 1e-12 * max(1.0, np.abs(N).max()))
        if not symmetric:
            raise ValueError("output matrix N must be symmetric")
        object.__setattr__(self, "N", 0.5 * (N + N.T))
        if isinstance(self.A, FirstOrderOperator) and self.A._transposed:
            raise ValueError("A^T of a second-order triple is not the A of a system")
        g = self.galerkin
        if g is not None and g.B.shape[1] != self.B.shape[1]:
            raise ValueError("second-order triple does not match the first-order inputs")

    @property
    def galerkin(self) -> GalerkinSystem | None:
        """The second-order triple A is applied through, or None for a dense A.

        With a triple the state is x = [p; p'], and ``shift_inverse`` and
        the dissipation matrix read the triple instead of A.
        """
        return self.A.galerkin if isinstance(self.A, FirstOrderOperator) else None

    @property
    def m(self) -> int:
        """State dimension."""
        return self.A.shape[0]

    @property
    def n_in(self) -> int:
        return self.B.shape[1]

    def dense_A(self) -> np.ndarray:
        """A as a dense array; built anew for the first-order form of a triple."""
        return self.A if self.galerkin is None else self.A.toarray()

    @cached_property
    def schur(self) -> SchurFactors:
        """Real Schur form of A, computed once; every spectral question reads it.

        The dense A of a triple is built here and dropped after the call.
        """
        return real_schur(self.dense_A())

    def shift_inverse(self, omega: float):
        """b -> (omega I - A)^{-1} b for a state vector b, factored once; a
        singular shift raises NumericalError.

        A dense A takes a dense LU of omega I - A and forms the inverse from
        it once.  For a triple, (omega I - A) x = b reads
        omega x_1 - x_2 = b_1 and omega M x_2 + K x_1 + D x_2 = M b_2, so with
        S = omega^2 M + omega D + K both blocks solve with the same matrix:
        S x_1 = (omega M + D) b_1 + M b_2 and S x_2 = omega M b_2 - K b_1.
        One sparse LU of S serves both as one two-column solve.  Neither
        block is recovered from the other through omega, so the solve keeps
        its digits as omega grows and holds at omega = 0.
        """
        g = self.galerkin
        if g is None:
            with warnings.catch_warnings():
                # singularity is detected and reported through the diagonal check
                warnings.simplefilter("ignore", la.LinAlgWarning)
                lu, piv = la.lu_factor(omega * np.eye(self.m) - self.A)
            if np.abs(np.diag(lu)).min() == 0.0:
                raise NumericalError(f"shift {omega} makes omega*I - A singular")
            inverse = la.lu_solve((lu, piv), np.eye(self.m))
            return lambda b: inverse @ b

        ns = g.dimension
        try:
            lu = spla.splu((omega * omega * g.M + omega * g.D + g.K).tocsc())
        except RuntimeError as exc:  # splu reports an exactly singular factor this way
            raise NumericalError(f"shift {omega} makes omega*I - A singular") from exc
        rhs = sp.bmat([[omega * g.M + g.D, g.M], [-g.K, omega * g.M]], format="csr")

        def solve(b: np.ndarray) -> np.ndarray:
            # the two right-hand sides as the columns of an (ns, 2) Fortran-ordered view
            return lu.solve((rhs @ b).reshape(2, ns).T).ravel(order="F")

        return solve

    @cached_property
    def gramian(self) -> GramianCache:
        """Controllability Gramian and H2 norm, solved once on the Schur form."""
        return gramian_cache(self)

    def quadratic_output(self, x: np.ndarray) -> np.ndarray:
        """y = x^T N x for a single state (m,) or a batch (steps, m).

        A batch is evaluated OUTPUT_ROWS states at a time, so that no
        (steps, m) temporary is made.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(x @ self.N @ x)
        y = np.empty(x.shape[0])
        for k in range(0, y.size, OUTPUT_ROWS):
            rows = x[k : k + OUTPUT_ROWS]
            y[k : k + OUTPUT_ROWS] = np.einsum("ki,ki->k", rows @ self.N, rows)
        return y


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
    P = solve_lyapunov(sys.A, sys.B, factors=fac)
    NP = sys.N @ P
    # trace(N P N P) = sum_ij (NP)_ij (NP)_ji, with no temporary
    norm_sq = float(np.einsum("ij,ji->", NP, NP))
    return GramianCache(controllability=P, norm_squared=norm_sq)


def _definite_lu(mat: sp.spmatrix) -> spla.SuperLU | None:
    """An LU factorization of the symmetric sparse ``mat`` if it is positive
    definite, None otherwise.

    A symmetric-mode SuperLU factorization that takes only diagonal pivots
    (perm_r == perm_c) is an LDL^T factorization of P mat P^T, and by
    Sylvester's law of inertia mat is positive definite iff every pivot is
    positive.  With a zero pivot threshold SuperLU keeps to the diagonal
    unless the diagonal pivot is exactly zero, and raises when a column has
    no nonzero pivot at all.  Diagonal pivoting is stable on a positive
    definite matrix, so the factorization also serves for solves.
    """
    try:
        lu = spla.splu(
            mat.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # exactly singular
        return None
    if np.array_equal(lu.perm_r, lu.perm_c) and bool(np.all(lu.U.diagonal() > 0.0)):
        return lu
    return None


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
        if _definite_lu(mat) is None:
            raise DefinitenessError(f"assembled {name} block matrix is not positive definite")
    if D.nnz:
        shifted = D + 1e-12 * np.abs(D.data).max() * sp.identity(D.shape[0])
        if _definite_lu(shifted) is None:
            raise DefinitenessError("assembled damping block matrix is not positive semi-definite")

    return GalerkinSystem(M=M, D=D, K=K, B=B, basis=basis)


def to_first_order(g: GalerkinSystem) -> QuadraticOutputSystem:
    """Equivalent explicit first-order realization with energy as quadratic output.

    A = [[0, I], [-M^{-1}K, -M^{-1}D]] (a ``FirstOrderOperator`` on the sparse
    triple and one sparse LU of M), B = [0; M^{-1}B] and the sparse
    N = blkdiag(K, M).  The reported internal energy is y/2 = x^T N x / 2.
    A mass matrix that is not positive definite raises DefinitenessError.
    """
    ns = g.dimension
    lu = _definite_lu(g.M)
    if lu is None:
        raise DefinitenessError("mass block matrix is not positive definite")
    B = np.zeros((2 * ns, g.B.shape[1]))
    B[ns:, :] = lu.solve(g.B)
    N = sp.block_diag((g.K, g.M), format="csr")
    return QuadraticOutputSystem(A=FirstOrderOperator(g, lu), B=B, N=N)


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

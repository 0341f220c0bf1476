"""Multivariate orthonormal Legendre bases for independent uniform variables.

The basis polynomials are orthonormal with respect to the product probability
density (1/2)^q on the box [-1, 1]^q.  The expectations E[kappa phi_i phi_j]
of affine weight functions kappa follow analytically from the three-term
recurrence of the univariate polynomials and the product structure of the
density, so no q-dimensional quadrature is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

__all__ = [
    "basis_size",
    "multi_indices",
    "PcBasis",
    "linear_triple_coefficient",
]


def basis_size(q: int, d: int) -> int:
    """Number of multivariate polynomials of total degree <= d in q variables.

    Equals binomial(d + q, q), evaluated exactly in integer arithmetic.
    """
    if q < 1:
        raise ValueError(f"parameter count must be >= 1, got {q}")
    if d < 0:
        raise ValueError(f"total degree must be >= 0, got {d}")
    return math.comb(d + q, q)


def multi_indices(q: int, d: int) -> np.ndarray:
    """Enumerate all multi-indices in N^q with total degree <= d.

    Returns an integer array of shape (s, q) in graded lexicographic order:
    sorted by total degree first, lexicographically within each degree.  The
    zero multi-index comes first.
    """
    size = basis_size(q, d)

    def emit(dims: int, budget: int):
        if dims == 1:
            for k in range(budget + 1):
                yield (k,)
        else:
            for k in range(budget + 1):
                for rest in emit(dims - 1, budget - k):
                    yield (k,) + rest

    indices = sorted(emit(q, d), key=lambda a: (sum(a), a))
    out = np.array(indices, dtype=np.int64)
    assert out.shape == (size, q)
    return out


def linear_triple_coefficient(a: int, b: int) -> float:
    """Analytic value of E[x phi_a(x) phi_b(x)] for orthonormal Legendre phi.

    Nonzero only for |a - b| = 1; follows from x P_a = ((a+1) P_{a+1}
    + a P_{a-1}) / (2a + 1).
    """
    lo = min(a, b)
    if abs(a - b) != 1:
        return 0.0
    return (lo + 1) / math.sqrt((2 * lo + 1) * (2 * lo + 3))


@dataclass(frozen=True)
class PcBasis:
    """Orthonormal multivariate Legendre basis in graded lexicographic order.

    Immutable after construction.

    Parameters
    ----------
    q : int
        Number of independent uniform parameters on [-1, 1].
    d : int
        Maximal total polynomial degree.
    """

    q: int
    d: int
    indices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "indices", multi_indices(self.q, self.d))

    @property
    def size(self) -> int:
        """Number s of basis polynomials."""
        return self.indices.shape[0]

    @cached_property
    def _index_pos(self) -> dict:
        return {tuple(alpha): i for i, alpha in enumerate(self.indices)}

    def linear_weight_matrix(self, k: int) -> sp.csr_matrix:
        """Sparse s x s matrix of E[kappa_k phi_i phi_j].

        kappa_0 is the constant function 1 (giving the identity); kappa_k for
        k >= 1 is the coordinate function mu_k.  Computed analytically from
        the product structure of the independent variables, so no q-dimensional
        quadrature is involved.
        """
        s = self.size
        if not 0 <= k <= self.q:
            raise ValueError(f"weight index must be in 0..{self.q}, got {k}")
        if k == 0:
            return sp.identity(s, format="csr")
        dim = k - 1
        rows, cols, vals = [], [], []
        for i, alpha in enumerate(self.indices):
            # nonzero entries pair alpha with alpha + e_dim (and transpose)
            beta = alpha.copy()
            beta[dim] += 1
            j = self._index_pos.get(tuple(beta))
            if j is None:
                continue
            c = linear_triple_coefficient(int(alpha[dim]), int(alpha[dim]) + 1)
            rows += [i, j]
            cols += [j, i]
            vals += [c, c]
        return sp.csr_matrix((vals, (rows, cols)), shape=(s, s))


"""Shifted-inverse Arnoldi baseline tests.

The Krylov space has a brute-force oracle: apply (omega I - A)^{-1}
repeatedly to B with a generic dense solve and compare spans.
"""

from __future__ import annotations

import numpy as np
import numpy.linalg as la
import pytest
from numpy.testing import assert_allclose

from conftest import make_stable_system
from sgmor.arnoldi import KrylovConfig, arnoldi_basis, reduce_arnoldi
from sgmor.bt_quadratic import h2_error, h2_norm
from sgmor.errors import ConvergenceError, NumericalError
from sgmor.galerkin import QuadraticOutputSystem


def krylov_span(A: np.ndarray, B: np.ndarray, depth: int, omega: float) -> np.ndarray:
    """Columns S^{-1}B, S^{-2}B, ... computed by dense solves."""
    S = omega * np.eye(A.shape[0]) - A
    cols = []
    W = B.copy()
    for _ in range(depth):
        W = la.solve(S, W)
        cols.append(W.copy())
    return np.hstack(cols)


class TestBasis:
    def test_orthonormal_columns(self, rng):
        sys = make_stable_system(rng, 12, n_in=2)
        V, meta = arnoldi_basis(sys, 8)
        assert V.shape == (12, 8)
        assert np.abs(V.T @ V - np.eye(8)).max() < 1e-10
        assert meta["omega"] == 1.0

    def test_spans_krylov_space(self, rng):
        sys = make_stable_system(rng, 10, n_in=1)
        r = 5
        V, _ = arnoldi_basis(sys, r, omega=1.0)
        K = krylov_span(sys.A, sys.B, r, omega=1.0)
        # every Krylov direction must lie in span(V)
        residual = K - V @ (V.T @ K)
        rel = la.norm(residual) / la.norm(K)
        assert rel < 1e-9, f"Krylov span not reproduced: residual {rel:.2e}"

    def test_first_vector_single_input(self, rng):
        sys = make_stable_system(rng, 7, n_in=1)
        omega = 2.0
        V, _ = arnoldi_basis(sys, 1, omega=omega)
        direction = la.solve(omega * np.eye(7) - sys.A, sys.B).ravel()
        direction /= la.norm(direction)
        assert_allclose(np.abs(V[:, 0] @ direction), 1.0, atol=1e-12)

    def test_full_space(self, rng):
        sys = make_stable_system(rng, 6, n_in=2)
        V, _ = arnoldi_basis(sys, 6)
        # V is square orthogonal, so the projection is a similarity transform
        assert_allclose(np.abs(la.det(V)), 1.0, rtol=1e-10)

    def test_exhaustion_raises(self):
        # B spans an A-invariant 1-dimensional subspace: the Krylov space
        # never grows beyond it
        A = np.diag([-1.0, -2.0, -3.0])
        B = np.array([[1.0], [0.0], [0.0]])
        sys = QuadraticOutputSystem(A=A, B=B, N=np.eye(3))
        with pytest.raises(ConvergenceError, match="exhausted"):
            arnoldi_basis(sys, 2)

    def test_deflation_reported(self, rng):
        # duplicated input column deflates immediately without failing
        sys0 = make_stable_system(rng, 8, n_in=1)
        B = np.hstack([sys0.B, sys0.B])
        sys = QuadraticOutputSystem(A=sys0.A, B=B, N=sys0.N)
        V, meta = arnoldi_basis(sys, 4)
        assert meta["deflated"] >= 1
        assert np.abs(V.T @ V - np.eye(4)).max() < 1e-10

    def test_singular_shift_rejected(self):
        A = np.diag([1.0, -2.0])  # omega = 1 hits an eigenvalue of A
        sys = QuadraticOutputSystem(A=A, B=np.ones((2, 1)), N=np.eye(2))
        with pytest.raises(NumericalError):
            arnoldi_basis(sys, 1, omega=1.0)

    @pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_shift_rejected(self, rng, omega):
        sys = make_stable_system(rng, 3)
        with pytest.raises(ValueError, match="expansion point must be finite"):
            arnoldi_basis(sys, 2, omega=omega)

    def test_dimension_bounds(self, rng):
        sys = make_stable_system(rng, 5)
        with pytest.raises(ValueError):
            arnoldi_basis(sys, 0)
        with pytest.raises(ValueError):
            arnoldi_basis(sys, 6)


class TestReduce:
    def test_galerkin_projection(self, rng):
        sys = make_stable_system(rng, 9, n_in=1)
        rom = reduce_arnoldi(sys, KrylovConfig(r=4))
        V = rom.V
        assert rom.W is rom.V
        assert_allclose(rom.system.A, V.T @ sys.A @ V, atol=1e-12)
        assert_allclose(rom.system.B, V.T @ sys.B, atol=1e-12)

    def test_full_space_reduction_exact(self, rng):
        sys = make_stable_system(rng, 6, n_in=2)
        rom = reduce_arnoldi(sys, KrylovConfig(r=6))
        rel = h2_error(sys, rom) / h2_norm(sys)
        assert rel <= 1e-8, f"orthogonal change of basis must be exact, got {rel:.2e}"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            KrylovConfig(r=0)
        with pytest.raises(ValueError):
            KrylovConfig(r=3, omega=float("nan"))

"""Dense Lyapunov/Sylvester solver tests against Kronecker-system oracles.

Every solve is cross-checked by building the full Kronecker linear system and
solving it with a general-purpose dense solver, which is slow but independent
of the Schur-based implementation under test.
"""

from __future__ import annotations

import numpy as np
import numpy.linalg as la
import pytest
from numpy.testing import assert_allclose

from sgmor.errors import DefinitenessError, SpectralOverlapError, StabilityError
from sgmor.lyapsylv import (
    SchurFactors,
    real_schur,
    solve_lyapunov,
    solve_sylvester,
    symmetric_factor,
)
from conftest import make_stable_system


def kron_lyapunov(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    m = A.shape[0]
    lhs = np.kron(np.eye(m), A) + np.kron(A, np.eye(m))
    return la.solve(lhs, -C.reshape(-1)).reshape(m, m)


def kron_sylvester(A: np.ndarray, F: np.ndarray, C: np.ndarray) -> np.ndarray:
    m, r = A.shape[0], F.shape[0]
    lhs = np.kron(np.eye(r), A) + np.kron(F.T, np.eye(m))
    return la.solve(lhs, -C.reshape(-1, order="F")).reshape(m, r, order="F")


class TestLyapunov:
    def test_identity_coefficients(self):
        X = solve_lyapunov(-np.eye(3), 2.0 * np.eye(3))
        assert_allclose(X, np.eye(3), atol=1e-14)

    def test_diagonal_closed_form(self):
        A = np.diag([-1.0, -2.0])
        C = np.array([[2.0, 3.0], [3.0, 4.0]])
        X = solve_lyapunov(A, C)
        assert_allclose(X, np.ones((2, 2)), atol=1e-14)

    def test_random_against_kronecker(self, rng):
        for _ in range(6):
            m = int(rng.integers(2, 7))
            sys = make_stable_system(rng, m)
            C = sys.B @ sys.B.T
            X = solve_lyapunov(sys.A, C)
            oracle = kron_lyapunov(sys.A, C)
            rel = la.norm(X - oracle) / la.norm(oracle)
            assert rel < 1e-10, f"Lyapunov deviation {rel:.2e} at m={m}"

    def test_transposed_equation(self, rng):
        sys = make_stable_system(rng, 5)
        C = sys.N @ sys.N.T
        X = solve_lyapunov(sys.A, C, transposed=True)
        oracle = kron_lyapunov(sys.A.T, C)
        assert_allclose(X, oracle, rtol=1e-10)

    def test_cached_factors_reused(self, rng):
        sys = make_stable_system(rng, 6)
        fac = real_schur(sys.A)
        C1 = sys.B @ sys.B.T
        C2 = np.eye(6)
        X1 = solve_lyapunov(sys.A, C1, factors=fac)
        X2 = solve_lyapunov(sys.A, C2, factors=fac)
        assert_allclose(X1, kron_lyapunov(sys.A, C1), rtol=1e-10)
        assert_allclose(X2, kron_lyapunov(sys.A, C2), rtol=1e-10)

    def test_solution_symmetric_and_psd(self, rng):
        sys = make_stable_system(rng, 7)
        X = solve_lyapunov(sys.A, sys.B @ sys.B.T)
        assert_allclose(X, X.T, atol=1e-13 * la.norm(X))
        eigs = la.eigvalsh(0.5 * (X + X.T))
        assert eigs.min() >= -1e-10 * la.norm(X, 2)

    def test_unstable_coefficient_rejected(self):
        with pytest.raises(StabilityError):
            solve_lyapunov(np.eye(2), np.eye(2))

    def test_asymmetric_rhs_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            solve_lyapunov(-np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSylvester:
    def test_double_identity(self, rng):
        C = rng.standard_normal((4, 3))
        Y = solve_sylvester(-np.eye(4), -np.eye(3), C)
        assert_allclose(Y, C / 2.0, atol=1e-14)

    def test_diagonal_closed_form(self):
        A = np.diag([-1.0, -3.0])
        F = np.diag([-2.0, -5.0, -7.0])
        C = np.arange(6, dtype=float).reshape(2, 3) + 1.0
        Y = solve_sylvester(A, F, C)
        expected = -C / (np.diag(A)[:, None] + np.diag(F)[None, :])
        assert_allclose(Y, expected, atol=1e-14)

    def test_random_against_kronecker(self, rng):
        for _ in range(6):
            m = int(rng.integers(2, 6))
            r = int(rng.integers(2, 6))
            A = make_stable_system(rng, m).A
            F = make_stable_system(rng, r).A
            C = rng.standard_normal((m, r))
            Y = solve_sylvester(A, F.T, C)
            oracle = kron_sylvester(A, F, C)
            rel = la.norm(Y - oracle) / la.norm(oracle)
            assert rel < 1e-10, f"Sylvester deviation {rel:.2e} at ({m}, {r})"

    def test_overlapping_spectra_raise(self):
        A = np.diag([-1.0, -2.0])
        with pytest.raises(SpectralOverlapError):
            solve_sylvester(A, -A, np.ones((2, 2)))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="shape"):
            solve_sylvester(-np.eye(3), -np.eye(2), np.ones((2, 2)))


class TestSchurHelpers:
    def test_abscissa_matches_eigensolve(self, rng):
        A = make_stable_system(rng, 8).A
        assert_allclose(real_schur(A).abscissa, np.max(la.eigvals(A).real), atol=1e-11)

    def test_factors_reconstruct(self, rng):
        A = rng.standard_normal((6, 6))
        fac = real_schur(A)
        assert isinstance(fac, SchurFactors)
        assert_allclose(fac.U @ fac.T @ fac.U.T, A, atol=1e-12 * la.norm(A))
        assert_allclose(np.sort(fac.eigenvalues), np.sort(la.eigvals(A)), atol=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            real_schur(np.ones((2, 3)))


class TestSymmetricFactor:
    def test_identity(self):
        Z = symmetric_factor(np.eye(4))
        assert Z.shape == (4, 4)
        assert_allclose(Z @ Z.T, np.eye(4), atol=1e-14)

    def test_rank_deficient_diagonal(self):
        X = np.diag([4.0, 1.0, 0.0])
        Z = symmetric_factor(X)
        assert Z.shape == (3, 2), "zero eigenvalue must be truncated"
        assert_allclose(Z @ Z.T, X, atol=1e-14)

    def test_construct_then_recover(self, rng):
        R = rng.standard_normal((8, 3))
        X = R @ R.T
        Z = symmetric_factor(X)
        assert Z.shape[1] == 3
        assert_allclose(Z @ Z.T, X, atol=1e-12 * la.norm(X))

    def test_tolerance_controls_rank(self):
        X = np.diag([1.0, 1e-6, 1e-14])
        assert symmetric_factor(X, tol=1e-12).shape[1] == 2
        assert symmetric_factor(X, tol=1e-8).shape[1] == 2
        assert symmetric_factor(X, tol=1e-3).shape[1] == 1

    def test_indefinite_rejected(self):
        with pytest.raises(DefinitenessError):
            symmetric_factor(np.diag([1.0, -0.5]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_factor(np.array([[1.0, 0.2], [0.0, 1.0]]))

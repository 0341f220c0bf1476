"""Dense Lyapunov/Sylvester solver tests against Kronecker-system oracles.

Small solves are cross-checked by building the full Kronecker linear system
and solving it with a general-purpose dense solver, which is slow but
independent of the Schur-based implementation under test.  Solves above the
leaf size of the blocked kernel are checked against scipy's
``solve_sylvester``, one unblocked trsyl call on the whole system.  The
solvers take factored right-hand sides: a Lyapunov C = B B^T is passed as B,
and a general Sylvester C as (C, I); each call passes the Schur forms of its
coefficients, taken by ``real_schur``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.linalg as la
import pytest
import scipy.linalg
import scipy.sparse as sp
from numpy.testing import assert_allclose

from sgmor import lyapsylv
from sgmor.errors import ConvergenceError, DefinitenessError, SpectralOverlapError, StabilityError
from sgmor.galerkin import assemble, to_first_order
from sgmor.lyapsylv import (
    FACTOR_RTOL,
    LEAF,
    RESIDUAL_RTOL,
    SchurFactors,
    is_symmetric,
    real_schur,
    solve_lyapunov,
    solve_sylvester,
    symmetric_factor,
)
from sgmor.msd import build_msd, default_config
from sgmor.polychaos import PcBasis
from conftest import make_stable_system, quasi_triangular_array
from kronecker import kron_lyapunov, kron_sylvester


def unblocked_sylvester(A: np.ndarray, F: np.ndarray, C: np.ndarray) -> np.ndarray:
    """A Y + Y F^T + C = 0 by scipy: one trsyl call on the full Schur forms."""
    return scipy.linalg.solve_sylvester(A, F.T, -C)


def complex_pair_matrix(rng: np.random.Generator, m: int) -> np.ndarray:
    """Stable m x m matrix (m even) whose eigenvalues are all complex pairs.

    Its real Schur form is all 2x2 blocks, so a midpoint split at an odd
    index falls inside a block.
    """
    T = np.triu(rng.standard_normal((m, m)), 1) / np.sqrt(m)
    for i in range(0, m, 2):
        re, b, c = -rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        T[i : i + 2, i : i + 2] = [[re, b], [-c, re]]
    Q, _ = la.qr(rng.standard_normal((m, m)))
    return Q @ T @ Q.T


def relative_error(value: np.ndarray, oracle: np.ndarray) -> float:
    return float(la.norm(value - oracle) / la.norm(oracle))


def diagonal_leaves(T: np.ndarray) -> list[int]:
    """Sizes of the diagonal leaf blocks the symmetric recursion cuts T into.

    The split rule of the kernel: the midpoint, moved down past a 2x2 block
    it would cut, until a block has at most LEAF rows.
    """
    m = T.shape[0]
    if m <= LEAF:
        return [m]
    k = m // 2 + (T[m // 2, m // 2 - 1] != 0.0)
    return diagonal_leaves(T[:k, :k]) + diagonal_leaves(T[k:, k:])


class TestLyapunov:
    def test_identity_coefficients(self):
        A = -np.eye(3)
        X = solve_lyapunov(A, np.sqrt(2.0) * np.eye(3), real_schur(A))
        assert_allclose(X, np.eye(3), atol=1e-14)

    def test_diagonal_closed_form(self):
        """Diagonal A: X_ij = -(B B^T)_ij / (a_i + a_j) for a PSD B B^T."""
        a = np.array([-1.0, -2.0, -4.0])
        B = np.array([[1.0, 2.0], [-1.0, 0.5], [3.0, 1.0]])
        A = np.diag(a)
        X = solve_lyapunov(A, B, real_schur(A))
        assert_allclose(X, -(B @ B.T) / (a[:, None] + a[None, :]), atol=1e-14)

    def test_random_against_kronecker(self, rng):
        for _ in range(6):
            m = int(rng.integers(2, 7))
            sys = make_stable_system(rng, m)
            X = solve_lyapunov(sys.A, sys.B, real_schur(sys.A))
            oracle = kron_lyapunov(sys.A, sys.B @ sys.B.T)
            rel = la.norm(X - oracle) / la.norm(oracle)
            assert rel < 1e-10, f"Lyapunov deviation {rel:.2e} at m={m}"

    def test_transposed_equation(self, rng):
        sys = make_stable_system(rng, 5)
        X = solve_lyapunov(sys.A, sys.N, real_schur(sys.A), transposed=True)
        oracle = kron_lyapunov(sys.A.T, sys.N @ sys.N.T)
        assert_allclose(X, oracle, rtol=1e-10)

    def test_cached_factors_reused(self, rng):
        sys = make_stable_system(rng, 6)
        fac = real_schur(sys.A)
        X1 = solve_lyapunov(sys.A, sys.B, factors=fac)
        X2 = solve_lyapunov(sys.A, np.eye(6), factors=fac)
        assert_allclose(X1, kron_lyapunov(sys.A, sys.B @ sys.B.T), rtol=1e-10)
        assert_allclose(X2, kron_lyapunov(sys.A, np.eye(6)), rtol=1e-10)

    def test_solution_symmetric_and_psd(self, rng):
        sys = make_stable_system(rng, 7)
        X = solve_lyapunov(sys.A, sys.B, real_schur(sys.A))
        assert_allclose(X, X.T, atol=1e-13 * la.norm(X))
        eigs = la.eigvalsh(0.5 * (X + X.T))
        assert eigs.min() >= -1e-10 * la.norm(X, 2)

    def test_unstable_coefficient_rejected(self):
        with pytest.raises(StabilityError):
            solve_lyapunov(np.eye(2), np.eye(2), real_schur(np.eye(2)))

    def test_factor_shape_mismatch_rejected(self):
        """B B^T must be m x m: a factor with another row count, or a vector, is refused."""
        A = -np.eye(2)
        for B in (np.ones((3, 1)), np.ones(2)):
            with pytest.raises(ValueError, match="shape"):
                solve_lyapunov(A, B, real_schur(A))


def dense_residual(A: np.ndarray, X: np.ndarray, B: np.ndarray) -> float:
    """||A X + X A^T + B B^T||_F with every product formed in full."""
    return float(la.norm(A @ X + X @ A.T + B @ B.T))


def random_symmetric(rng: np.random.Generator, m: int) -> np.ndarray:
    G = rng.standard_normal((m, m))
    return G + G.T


class TestLyapunovResidual:
    """The residual ``solve_lyapunov`` checks, formed in strips, against the
    dense oracle, and the check itself on either side of RESIDUAL_RTOL."""

    def test_strips_match_dense_oracle(self, rng):
        m = 3 * LEAF + 5
        sys = make_stable_system(rng, m)
        X = random_symmetric(rng, m)
        for op in (sys.A, sys.A.T):
            got, want = lyapsylv._lyapunov_residual(op, X, sys.B), dense_residual(op, X, sys.B)
            assert abs(got - want) <= 1e-12 * want, f"strip residual {got!r} against dense {want!r}"

    def test_strips_match_dense_oracle_on_first_order_operator(self, rng):
        parametric = build_msd(default_config())
        fom = to_first_order(assemble(parametric, PcBasis(q=parametric.q, d=1)))
        A, X = fom.A.toarray(), random_symmetric(rng, fom.m)
        for op, dense in ((fom.A, A), (fom.A.T, A.T)):
            got, want = lyapsylv._lyapunov_residual(op, X, fom.B), dense_residual(dense, X, fom.B)
            assert abs(got - want) <= 1e-12 * want, f"strip residual {got!r} against dense {want!r}"

    @pytest.mark.parametrize("ratio", [0.5, 2.0, np.nan])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_check_fires_above_the_tolerance(self, rng, monkeypatch, ratio, transposed):
        """A solution perturbed to ``ratio`` * RESIDUAL_RTOL relative residual
        passes below the tolerance and raises above it or at NaN."""
        m = 2 * LEAF + 3
        sys = make_stable_system(rng, m)
        op = sys.A.T if transposed else sys.A
        E = random_symmetric(rng, m)
        delta = ratio * RESIDUAL_RTOL * la.norm(sys.B.T @ sys.B) / la.norm(op @ E + E @ op.T)
        fac = real_schur(sys.A)
        X0 = solve_lyapunov(sys.A, sys.B, fac, transposed=transposed)
        kernel = lyapsylv._bartels_stewart

        def perturbed(*args):
            return kernel(*args) + delta * E

        monkeypatch.setattr(lyapsylv, "_bartels_stewart", perturbed)
        if ratio < 1.0:
            X = solve_lyapunov(sys.A, sys.B, fac, transposed=transposed)
            assert_allclose(X, X0 + delta * E, rtol=0.0, atol=1e-14 * np.abs(X0).max())
        else:
            with pytest.raises(ConvergenceError, match="Lyapunov residual"):
                solve_lyapunov(sys.A, sys.B, fac, transposed=transposed)

    def test_nan_in_the_factor_raises(self, rng):
        """One NaN entry of B makes X all NaN; the residual check must refuse it."""
        sys = make_stable_system(rng, 2 * LEAF + 3)
        B = sys.B.copy()
        B[1, 0] = np.nan
        with pytest.raises(ConvergenceError, match="Lyapunov residual"):
            solve_lyapunov(sys.A, B, real_schur(sys.A))


class TestSylvester:
    def test_double_identity(self, rng):
        C = rng.standard_normal((4, 3))
        A, F = -np.eye(4), -np.eye(3)
        Y = solve_sylvester(A, F, C, np.eye(3), real_schur(A), real_schur(F))
        assert_allclose(Y, C / 2.0, atol=1e-14)

    def test_diagonal_closed_form(self):
        A = np.diag([-1.0, -3.0])
        F = np.diag([-2.0, -5.0, -7.0])
        C = np.arange(6, dtype=float).reshape(2, 3) + 1.0
        Y = solve_sylvester(A, F, C, np.eye(3), real_schur(A), real_schur(F))
        expected = -C / (np.diag(A)[:, None] + np.diag(F)[None, :])
        assert_allclose(Y, expected, atol=1e-14)

    def test_random_against_kronecker(self, rng):
        for _ in range(6):
            m = int(rng.integers(2, 6))
            r = int(rng.integers(2, 6))
            A = make_stable_system(rng, m).A
            F = make_stable_system(rng, r).A
            C = rng.standard_normal((m, r))
            Y = solve_sylvester(A, F.T, C, np.eye(r), real_schur(A), real_schur(F.T))
            oracle = kron_sylvester(A, F, C)
            rel = la.norm(Y - oracle) / la.norm(oracle)
            assert rel < 1e-10, f"Sylvester deviation {rel:.2e} at ({m}, {r})"

    def test_overlapping_spectra_raise(self):
        A = np.diag([-1.0, -2.0])
        with pytest.raises(SpectralOverlapError):
            solve_sylvester(A, -A, np.ones((2, 1)), np.ones((2, 1)), real_schur(A), real_schur(-A))

    def test_nan_in_the_factor_raises(self, rng):
        """One NaN entry of L makes Y all NaN; the residual check must refuse it."""
        A, F = make_stable_system(rng, 2 * LEAF + 3).A, make_stable_system(rng, 7).A
        L, R = rng.standard_normal((A.shape[0], 2)), rng.standard_normal((7, 2))
        L[2, 1] = np.nan
        with pytest.raises(ConvergenceError, match="Sylvester residual"):
            solve_sylvester(A, F, L, R, real_schur(A), real_schur(F))

    @pytest.mark.parametrize("ratio", [0.5, 2.0, np.nan])
    def test_check_fires_above_the_tolerance(self, rng, monkeypatch, ratio):
        """An m x r solution perturbed to ``ratio`` * RESIDUAL_RTOL relative
        residual passes below the tolerance and raises above it or at NaN."""
        m, r = 2 * LEAF + 3, 7
        A, F = make_stable_system(rng, m).A, make_stable_system(rng, r).A
        L, R = rng.standard_normal((m, 2)), rng.standard_normal((r, 2))
        E = rng.standard_normal((m, r))
        denom = max(la.norm(L @ R.T), 1.0)
        delta = ratio * RESIDUAL_RTOL * denom / la.norm(A @ E + E @ F.T)
        fac_a, fac_f = real_schur(A), real_schur(F)
        Y0 = solve_sylvester(A, F, L, R, fac_a, fac_f)
        kernel = lyapsylv._bartels_stewart

        def perturbed(*args):
            return kernel(*args) + delta * E

        monkeypatch.setattr(lyapsylv, "_bartels_stewart", perturbed)
        if ratio < 1.0:
            Y = solve_sylvester(A, F, L, R, fac_a, fac_f)
            assert_allclose(Y, Y0 + delta * E, rtol=0.0, atol=1e-14 * np.abs(Y0).max())
        else:
            with pytest.raises(ConvergenceError, match="Sylvester residual"):
                solve_sylvester(A, F, L, R, fac_a, fac_f)

    def test_shape_mismatch(self):
        """L must have m rows, R n rows, and both the same number of columns."""
        A, F = -np.eye(3), -np.eye(2)
        for L, R in ((np.ones((2, 2)), np.eye(2)), (np.ones((3, 1)), np.ones((3, 1))),
                     (np.ones((3, 2)), np.ones((2, 1)))):
            with pytest.raises(ValueError, match="shape"):
                solve_sylvester(A, F, L, R, real_schur(A), real_schur(F))


class TestBlockedKernel:
    """Solves above LEAF, where the kernel recurses and trsyl sees only leaves."""

    @pytest.fixture
    def trsyl_calls(self, monkeypatch):
        """Record the shape of every right-hand side trsyl receives."""
        shapes = []

        def recorded(a, b, c, **kwargs):
            shapes.append(c.shape)
            return scipy.linalg.lapack.dtrsyl(a, b, c, **kwargs)

        monkeypatch.setattr(lyapsylv, "dtrsyl", recorded)
        return shapes

    def test_all_2x2_blocks_straddle_the_midpoint(self, rng):
        T = quasi_triangular_array(real_schur(complex_pair_matrix(rng, 150)).T)
        assert np.all(np.diag(T, -1)[::2] != 0.0) and np.all(np.diag(T, -1)[1::2] == 0.0)
        assert T[75, 74] != 0.0, "the midpoint 75 must cut a 2x2 block"

    @pytest.mark.parametrize("m", [150, 258])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_lyapunov_against_unblocked(self, rng, trsyl_calls, m, transposed):
        A = complex_pair_matrix(rng, m)
        G = rng.standard_normal((m, 3))
        C = G @ G.T
        X = solve_lyapunov(A, G, real_schur(A), transposed=transposed)
        oracle = unblocked_sylvester(A.T, A.T, C) if transposed else unblocked_sylvester(A, A, C)
        assert relative_error(X, oracle) < 1e-10
        assert np.array_equal(X, X.T)
        assert len(trsyl_calls) > 1 and max(max(shape) for shape in trsyl_calls) <= LEAF

    @pytest.mark.parametrize("m", [150, 258])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_lyapunov_solves_the_upper_block_triangle(self, rng, trsyl_calls, m, transposed):
        """One leaf per block on and above the diagonal: d(d+1)/2 calls, not d^2."""
        A = complex_pair_matrix(rng, m)
        fac = real_schur(A)
        sizes = diagonal_leaves(quasi_triangular_array(fac.T))
        solve_lyapunov(A, np.eye(m), fac, transposed=transposed)
        d = len(sizes)
        assert d > 2 and len(trsyl_calls) == d * (d + 1) // 2
        upper = sum(s * sum(sizes[i:]) for i, s in enumerate(sizes))
        assert sum(rows * cols for rows, cols in trsyl_calls) == upper < m * m

    @pytest.mark.parametrize("m, r", [(150, 30), (150, 70), (30, 150)])
    def test_rectangular_sylvester_against_unblocked(self, rng, trsyl_calls, m, r):
        A, F = complex_pair_matrix(rng, m), complex_pair_matrix(rng, r)
        C = rng.standard_normal((m, r))
        Y = solve_sylvester(A, F, C, np.eye(r), real_schur(A), real_schur(F))
        assert relative_error(Y, unblocked_sylvester(A, F, C)) < 1e-10
        assert len(trsyl_calls) > 1 and max(max(shape) for shape in trsyl_calls) <= LEAF

    # ids are the letter of op: N for op(T) = T, T for op(T) = T^T
    @pytest.mark.parametrize("transposed", [False, True], ids=["N", "T"])
    def test_quasi_triangular_solution_exactly_symmetric(self, rng, transposed):
        """Leaf right-hand sides are symmetric only to roundoff; each leaf is symmetrized."""
        T = real_schur(complex_pair_matrix(rng, 150)).T
        S = rng.standard_normal((150, 150))
        R = S + S.T
        assert lyapsylv._blocked_lyapunov(T, R, transposed, np.empty(76 * 150)) is None
        assert np.array_equal(R, R.T)

    @staticmethod
    def scale_leaf(monkeypatch, leaf: int) -> list:
        """Make the given trsyl call solve for 0.25 * R; returns the call record."""
        calls = []

        def scaled(a, b, c, **kwargs):
            z, scale, info = scipy.linalg.lapack.dtrsyl(a, b, c, **kwargs)
            calls.append(c.shape)
            if len(calls) - 1 == leaf:
                return 0.25 * z, 0.25 * scale, info
            return z, scale, info

        monkeypatch.setattr(lyapsylv, "dtrsyl", scaled)
        return calls

    @pytest.mark.parametrize("leaf", [0, 3, 7])
    def test_leaf_scale_below_one(self, rng, monkeypatch, leaf):
        """A leaf that solves for scale * R must still give the unscaled solution."""
        calls = self.scale_leaf(monkeypatch, leaf)
        A, F = complex_pair_matrix(rng, 150), complex_pair_matrix(rng, 70)
        C = rng.standard_normal((150, 70))
        Y = solve_sylvester(A, F, C, np.eye(70), real_schur(A), real_schur(F))
        assert len(calls) > leaf
        assert relative_error(Y, unblocked_sylvester(A, F, C)) < 1e-10

    @pytest.mark.parametrize("leaf", [0, 1, 2, 5, 9])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_lyapunov_leaf_scale_below_one(self, rng, monkeypatch, leaf, transposed):
        """Scaled diagonal (0, 2, 9) and off-diagonal (1, 5) leaves of the symmetric recursion."""
        calls = self.scale_leaf(monkeypatch, leaf)
        A = complex_pair_matrix(rng, 150)
        G = rng.standard_normal((150, 3))
        C = G @ G.T
        X = solve_lyapunov(A, G, real_schur(A), transposed=transposed)
        assert len(calls) == 10
        oracle = unblocked_sylvester(A.T, A.T, C) if transposed else unblocked_sylvester(A, A, C)
        assert relative_error(X, oracle) < 1e-10
        assert np.array_equal(X, X.T)

    def test_leaf_info_raises(self, rng, monkeypatch):
        """info = 1 from one leaf raises at once, from either solver."""
        calls = []

        def perturbed(a, b, c, **kwargs):
            z, scale, info = scipy.linalg.lapack.dtrsyl(a, b, c, **kwargs)
            calls.append(c.shape)
            return z, scale, 1 if len(calls) == 2 else info

        monkeypatch.setattr(lyapsylv, "dtrsyl", perturbed)
        A = complex_pair_matrix(rng, 150)
        fac = real_schur(A)
        with pytest.raises(SpectralOverlapError, match="trsyl"):
            solve_sylvester(A, A, rng.standard_normal((150, 150)), np.eye(150), fac, fac)
        assert len(calls) == 2
        calls.clear()
        with pytest.raises(SpectralOverlapError, match="trsyl"):
            solve_lyapunov(A, np.eye(150), fac)
        assert len(calls) == 2

    @pytest.mark.parametrize("leaf", [0, 1, 9])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_lyapunov_leaf_info_raises(self, rng, monkeypatch, leaf, transposed):
        """info = 1 from a diagonal (0, 9) or off-diagonal (1) leaf of the symmetric recursion."""
        calls = []

        def perturbed(a, b, c, **kwargs):
            z, scale, info = scipy.linalg.lapack.dtrsyl(a, b, c, **kwargs)
            calls.append(c.shape)
            return z, scale, 1 if len(calls) - 1 == leaf else info

        monkeypatch.setattr(lyapsylv, "dtrsyl", perturbed)
        A = complex_pair_matrix(rng, 150)
        with pytest.raises(SpectralOverlapError, match="trsyl"):
            solve_lyapunov(A, np.eye(150), real_schur(A), transposed=transposed)
        assert len(calls) == leaf + 1

    def test_near_overlap_raises(self, rng):
        A = complex_pair_matrix(rng, 150)
        F = -A + 1e-15 * np.eye(150)
        with pytest.raises(SpectralOverlapError):
            solve_sylvester(A, F, rng.standard_normal((150, 150)), np.eye(150), real_schur(A), real_schur(F))


class TestSchurHelpers:
    def test_abscissa_matches_eigensolve(self, rng):
        A = make_stable_system(rng, 8).A
        assert_allclose(real_schur(A).eigenvalues.real.max(), np.max(la.eigvals(A).real), atol=1e-11)

    def test_factors_reconstruct(self, rng):
        A = rng.standard_normal((6, 6))
        fac = real_schur(A)
        assert isinstance(fac, SchurFactors)
        assert_allclose(fac.U @ quasi_triangular_array(fac.T) @ fac.U.T, A, atol=1e-12 * la.norm(A))
        assert_allclose(np.sort(fac.eigenvalues), np.sort(la.eigvals(A)), atol=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            real_schur(np.ones((2, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, value):
        A = -np.eye(3)
        A[1, 2] = value
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            real_schur(A)


@pytest.mark.parametrize("m", [1, LEAF - 1, LEAF, LEAF + 1, 3 * LEAF + 5])
def test_in_place_symmetrization_is_exact(rng, m):
    """The strip-wise symmetrization equals the out-of-place 0.5 (X + X^T) bitwise."""
    X = rng.standard_normal((m, m))
    Y = lyapsylv._symmetrize(X.copy())
    assert np.array_equal(Y, 0.5 * (X + X.T))


class TestSymmetricFactor:
    def test_identity(self):
        Z = symmetric_factor(np.eye(4))
        assert Z.shape == (4, 4)
        assert_allclose(Z @ Z.T, np.eye(4), atol=1e-14)

    def test_rank_deficient_diagonal(self):
        X = np.diag([4.0, 1.0, 0.0])
        Z = symmetric_factor(X.copy())
        assert Z.shape == (3, 2), "zero eigenvalue must be truncated"
        assert_allclose(Z @ Z.T, X, atol=1e-14)

    def test_construct_then_recover(self, rng):
        R = rng.standard_normal((8, 3))
        X = R @ R.T
        Z = symmetric_factor(X.copy())
        assert Z.shape[1] == 3
        assert_allclose(Z @ Z.T, X, atol=1e-12 * la.norm(X))

    def test_tolerance_controls_rank(self):
        """Eigenvalues above FACTOR_RTOL * lambda_max are kept, those below dropped."""
        for diagonal, rank in (([1.0, 1e-6, 2.0 * FACTOR_RTOL], 3), ([1.0, 1e-6, 0.5 * FACTOR_RTOL], 2),
                               ([1.0, 0.5 * FACTOR_RTOL, 0.0], 1)):
            assert symmetric_factor(np.diag(diagonal)).shape[1] == rank, diagonal

    @pytest.mark.parametrize("dropped", [99, 399])
    def test_defect_beyond_ten_tol_raises(self, rng, dropped):
        """Q diag(1, 0.9e-12, ...) Q^T: the dropped eigenvalues leave a defect
        of 0.9e-12 sqrt(dropped), below 10 tol = 1e-11 for 99 of them and above
        it for 399."""
        Q, _ = la.qr(rng.standard_normal((dropped + 1, dropped + 1)))
        X = (Q * np.r_[1.0, np.full(dropped, 0.9e-12)]) @ Q.T
        X = 0.5 * (X + X.T)
        if dropped == 399:
            with pytest.raises(ConvergenceError, match="factorization defect"):
                symmetric_factor(X)
        else:
            assert symmetric_factor(X).shape == (dropped + 1, 1)

    def test_indefinite_rejected(self):
        with pytest.raises(DefinitenessError):
            symmetric_factor(np.diag([1.0, -0.5]))

    def test_negative_eigenvalue_within_defect_budget_factors(self, rng):
        """An eigenvalue of -5e-12 lies below -tol * ||X||_2 = -1e-12 but within
        the defect budget 10 * tol * ||X||_F = 1.1e-11 that dropping it costs."""
        Q, _ = la.qr(rng.standard_normal((3, 3)))
        X = (Q * [1.0, 0.5, -5e-12]) @ Q.T
        X = 0.5 * (X + X.T)
        Z = symmetric_factor(X.copy())
        assert Z.shape == (3, 2)
        assert la.norm(Z @ Z.T - X) <= 1e-10 * la.norm(X)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_factor(np.array([[1.0, 0.2], [0.0, 1.0]]))

    def test_nan_on_the_diagonal_rejected(self):
        """I_3 with X[0, 0] = NaN raises ValueError from the symmetry pre-scan,
        which is the NaN guard: handed a NaN, syevr may never return, so the
        call runs in a subprocess with a timeout."""
        code = (
            "import numpy as np\n"
            "from sgmor.lyapsylv import symmetric_factor\n"
            "X = np.eye(3)\n"
            "X[0, 0] = np.nan\n"
            "try:\n"
            "    symmetric_factor(X)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(lyapsylv.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
        )
        assert "symmetric" in result.stdout


class TestIsSymmetric:
    def test_within_and_beyond_atol(self):
        X = np.array([[1.0, 2.0], [2.0 + 2.0**-20, 1.0]])
        assert is_symmetric(X, atol=2.0**-20)
        assert not is_symmetric(X, atol=2.0**-21)
        assert is_symmetric(np.eye(3), atol=0.0)

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_nan_rejected(self, where):
        X = np.eye(2)
        X[where] = np.nan
        assert not is_symmetric(X, atol=np.inf)

    def test_non_square_rejected(self):
        assert not is_symmetric(np.zeros((2, 3)), atol=1.0)

    def test_input_untouched(self, rng):
        X = rng.standard_normal((5, 5))
        before = X.copy()
        is_symmetric(X, atol=1.0)
        assert np.array_equal(X, before)


def gemm_relative_error(value, a, b) -> float:
    """max |value - a @ b| relative to max |a @ b|."""
    expected = a @ b
    scale = max(np.max(np.abs(expected), initial=0.0), 1e-300)
    return float(np.max(np.abs(value - expected), initial=0.0) / scale)


class TestGemm:
    """``gemm`` is ``@`` on scipy's BLAS, for every operand layout the package passes."""

    @staticmethod
    def layouts(rng, rows, cols):
        """The same kind of rows x cols operand as a C-ordered, a Fortran-ordered,
        a column strip of a wider C-ordered and a row strip of a taller
        Fortran-ordered array."""
        c = rng.standard_normal((rows, cols))
        wide = rng.standard_normal((rows, cols + 7))
        tall = np.asfortranarray(rng.standard_normal((rows + 5, cols)))
        return {"C": c, "F": np.asfortranarray(c), "column strip": wide[:, 3 : 3 + cols],
                "row strip": tall[2 : 2 + rows]}

    def test_every_layout_pair_matches_matmul(self, rng):
        left = self.layouts(rng, 9, 70)
        right = self.layouts(rng, 70, 11)
        for (name_a, a), (name_b, b) in ((p, q) for p in left.items() for q in right.items()):
            assert gemm_relative_error(lyapsylv.gemm(a, b), a, b) <= 1e-13, (name_a, name_b)

    def test_zero_width_operand(self, rng):
        """The first reorthogonalization of an Arnoldi basis projects its
        candidate, an m x 1 column, on no columns."""
        V = np.empty((12, 4), order="F")
        w = rng.standard_normal(12)[:, None]
        coefficients = lyapsylv.gemm(V[:, :0].T, w)
        assert coefficients.shape == (0, 1)
        assert np.array_equal(lyapsylv.gemm(V[:, :0], coefficients), np.zeros((12, 1)))
        assert lyapsylv.gemm(np.empty((3, 0)), np.empty((0, 5))).shape == (3, 5)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_out_is_written_in_place(self, rng, order):
        a, b = rng.standard_normal((7, 65)), rng.standard_normal((13, 65))[:, ::-1].T
        work = np.full(7 * 13 + 5, np.nan)
        out = work[: 7 * 13].reshape((7, 13), order=order)
        result = lyapsylv.gemm(a, b, out)
        assert result is out
        assert np.shares_memory(out, work)
        assert gemm_relative_error(work[: 7 * 13].reshape((7, 13), order=order), a, b) <= 1e-13
        assert np.isnan(work[7 * 13 :]).all(), "nothing past out was written"

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_accumulate_adds_into_out(self, rng, order):
        a, b = rng.standard_normal((7, 65)), rng.standard_normal((13, 65))[:, ::-1].T
        c = rng.standard_normal((7, 13))
        out = np.array(c, order=order)
        assert lyapsylv.gemm(a, b, out, accumulate=True) is out
        assert gemm_relative_error(out - c, a, b) <= 1e-12

    def test_strided_out_is_refused(self, rng):
        with pytest.raises(ValueError, match="contiguous"):
            lyapsylv.gemm(np.ones((3, 2)), np.ones((2, 4)), np.empty((3, 8))[:, ::2])

    @pytest.mark.parametrize("left, right", [("A", "x"), ("y", "A"), ("x", "x")])
    def test_a_vector_operand_is_refused(self, rng, left, right):
        """A 1-D operand is neither read as a column nor left to f2py's
        dimension check: each pair names both shapes."""
        operands = {"A": rng.standard_normal((8, 6)), "x": rng.standard_normal(6),
                    "y": rng.standard_normal(8)}
        a, b = operands[left], operands[right]
        with pytest.raises(ValueError, match=re.escape(f"operands of shapes {a.shape} and {b.shape}")):
            lyapsylv.gemm(a, b)

    def test_sparse_and_operator_operands_keep_their_own_product(self, rng):
        N = sp.random(20, 20, density=0.2, random_state=1, format="csr")
        X = rng.standard_normal((20, 3))
        assert np.array_equal(lyapsylv.gemm(N, X), N @ X)
        assert np.array_equal(lyapsylv.gemm(X.T, N), X.T @ N)


def test_no_numpy_blas_or_lapack_in_the_package():
    """Dense products and eigensolves run on scipy's BLAS and LAPACK: the package
    calls neither ``np.matmul`` nor numpy's eigen or singular value solvers."""
    package = Path(lyapsylv.__file__).parent
    pattern = re.compile(r"np\.matmul|np\.dot\b|np\.linalg\.(eig\w*|svd)")
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert not found, found

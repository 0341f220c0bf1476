"""Dissipation matrix, passivity verdicts, and shifted certificates."""

from __future__ import annotations

import numpy as np
import numpy.linalg as la
import pytest
from numpy.testing import assert_allclose

from conftest import make_stable_system
from second_order import dense_first_order
from sgmor import passivity
from sgmor.bt_quadratic import balance, truncate
from sgmor.galerkin import QuadraticOutputSystem, assemble, to_first_order
from sgmor.msd import build_msd, default_config
from sgmor.passivity import _dissipation_eigenvalues, check_passivity, shifted_dissipation_certificate
from sgmor.polychaos import PcBasis
from sgmor.simulate import integrate
from trapezoid import trapezoid_states


def dissipation_matrix(sys: QuadraticOutputSystem) -> np.ndarray:
    """T = A^T N + N A of a system with dense A and N, formed as S + S^T with
    S = N A, so it is exactly symmetric; the oracle of the spectrum
    ``check_passivity`` reads."""
    S = sys.N @ sys.A
    return S + S.T


class TestDissipationMatrix:
    """The spectrum of T that ``check_passivity`` reads, against dense oracles."""

    def test_simple_values(self):
        sys = QuadraticOutputSystem(A=-np.eye(3), B=np.ones((3, 1)), N=np.eye(3))
        assert_allclose(_dissipation_eigenvalues(sys), [-2.0, -2.0, -2.0], atol=0.0)

    def test_skew_dynamics_conserve_energy(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        sys = QuadraticOutputSystem(A=A, B=np.ones((2, 1)), N=np.eye(2))
        assert_allclose(_dissipation_eigenvalues(sys), np.zeros(2), atol=1e-15)

    def test_output_is_symmetric(self, rng, monkeypatch):
        """The eigensolver is handed an exactly symmetric T."""
        sys = make_stable_system(rng, 6)
        seen, eigvalsh = [], passivity.la.eigvalsh

        def spy(a, *args, **kwargs):
            seen.append(np.array(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(passivity.la, "eigvalsh", spy)
        _dissipation_eigenvalues(sys)
        [T] = seen
        assert np.array_equal(T, T.T)

    def test_matches_both_products(self, rng):
        for m in (3, 8, 40):
            sys = make_stable_system(rng, m)
            reference = sys.A.T @ sys.N + sys.N @ sys.A
            oracle = la.eigvalsh(reference)
            assert_allclose(_dissipation_eigenvalues(sys), oracle, rtol=0.0, atol=1e-12 * la.norm(reference))


class TestCheckPassivity:
    def test_dissipative_system(self):
        sys = QuadraticOutputSystem(A=-np.eye(4), B=np.ones((4, 1)), N=np.eye(4))
        report = check_passivity(sys)
        assert report.passive
        assert_allclose(report.lambda_max, -2.0, rtol=1e-13)

    def test_non_normal_system_loses_passivity(self):
        A = np.array([[-0.1, 5.0], [0.0, -0.1]])
        sys = QuadraticOutputSystem(A=A, B=np.ones((2, 1)), N=np.eye(2))
        report = check_passivity(sys)
        assert not report.passive
        assert report.lambda_max > 1.0

    def test_lambda_matches_eigensolve(self, rng):
        sys = make_stable_system(rng, 7)
        report = check_passivity(sys)
        oracle = la.eigvalsh(dissipation_matrix(sys)).max()
        assert_allclose(report.lambda_max, oracle, rtol=1e-13)

    def test_galerkin_form_matches_dense_oracle(self):
        # the spectrum of T = blkdiag(0, -2 D) is read off the triple; the
        # dense oracle forms T from the dense first-order matrices
        parametric = build_msd(default_config())
        fom = to_first_order(assemble(parametric, PcBasis(q=parametric.q, d=1)))
        dense = dense_first_order(fom)
        oracle = dissipation_matrix(dense)
        scale = np.abs(oracle).max()
        assert_allclose(_dissipation_eigenvalues(fom), la.eigvalsh(oracle), rtol=0.0, atol=1e-10 * scale)
        report, dense_report = check_passivity(fom), check_passivity(dense)
        assert report.passive and dense_report.passive
        assert abs(report.lambda_max - dense_report.lambda_max) <= 1e-10 * scale

    def test_boundary_case_counts_as_passive(self):
        # lambda_max is exactly 0 for conservative dynamics
        A = np.array([[0.0, 2.0], [-2.0, 0.0]])
        sys = QuadraticOutputSystem(A=A, B=np.ones((2, 1)), N=np.eye(2))
        assert check_passivity(sys).passive


class TestOneDimensionalTruncation:
    def test_lambda_max_is_2an_and_negative_exactly_when_stable(self, rng):
        # for r = 1 the dissipation matrix is the scalar 2 a n with
        # a = w^T A v and n = v^T N v > 0 (N is positive definite), so its
        # sign is the sign of a: a stable one-dimensional model is dissipative
        for _ in range(50):
            sys = make_stable_system(rng, int(rng.integers(2, 9)))
            rom = truncate(balance(sys), 1)
            a, n = rom.system.A[0, 0], rom.system.N[0, 0]
            lam = check_passivity(rom.system).lambda_max
            assert n > 0.0
            assert_allclose(lam, 2.0 * a * n, rtol=1e-12, atol=0.0)
            assert (lam < 0.0) == rom.is_stable


def composite_lmi(sys: QuadraticOutputSystem, shift: float) -> np.ndarray:
    """Composite dissipation-inequality matrix at R = 0, S = B^T N, L = shift I.

    [[A^T N + N A - L,  N B - S^T],
     [B^T N - S,        -R       ]]
    """
    m, p = sys.m, sys.n_in
    S = sys.B.T @ sys.N
    top_right = sys.N @ sys.B - S.T
    top_left = dissipation_matrix(sys) - shift * np.eye(m)
    return np.block([[top_left, top_right], [top_right.T, np.zeros((p, p))]])


class TestSupplyLmi:
    def test_default_triple_reduces_to_dissipation_block(self, rng):
        sys = make_stable_system(rng, 5)
        block = composite_lmi(sys, 0.0)
        m, p = 5, sys.n_in
        assert block.shape == (m + p, m + p)
        assert_allclose(block[:m, :m], dissipation_matrix(sys), atol=1e-13)
        # S = B^T N kills the off-diagonal blocks
        assert np.abs(block[:m, m:]).max() < 1e-13
        assert np.abs(block[m:, m:]).max() == 0.0

    def test_equivalence_with_eigencheck(self, rng):
        # with S = B^T N the composite matrix is blkdiag(T, 0), so it is
        # negative semidefinite exactly when lambda_max(T) <= 0
        for _ in range(20):
            sys = make_stable_system(rng, int(rng.integers(2, 7)))
            lam = check_passivity(sys).lambda_max
            composite_lam = la.eigvalsh(composite_lmi(sys, 0.0)).max()
            scale = max(abs(lam), 1.0)
            assert_allclose(composite_lam, max(lam, 0.0), atol=1e-10 * scale)

    def test_shifted_triple_holds_by_construction(self, rng):
        # shifting by L = lambda_max(T) I leaves blkdiag(T - lambda_max I, 0),
        # whose largest eigenvalue is 0: the certificate reports that 0
        systems = [make_stable_system(rng, int(rng.integers(2, 9))) for _ in range(20)]
        fom = make_stable_system(rng, 8)
        systems.append(truncate(balance(fom), 3).system)
        for sys in systems:
            cert = shifted_dissipation_certificate(sys)
            composite = composite_lmi(sys, cert.lambda_max)
            m = sys.m
            assert np.all(composite[:m, m:] == 0.0), "N B - (B^T N)^T must vanish exactly"
            scale = max(1.0, la.norm(dissipation_matrix(sys), 2))
            assert abs(la.eigvalsh(composite).max()) <= 1e-12 * scale
            assert cert.residual == 0.0


class TestCertificate:
    def test_composite_residual_small(self, rng):
        sys = make_stable_system(rng, 8)
        bal = balance(sys)
        rom = truncate(bal, 3)
        cert = shifted_dissipation_certificate(rom.system)
        report = check_passivity(rom.system)
        assert cert.residual == 0.0
        assert cert.lambda_max == report.lambda_max
        assert cert.passive == report.passive

    def test_passive_system_needs_no_shift(self):
        sys = QuadraticOutputSystem(A=-np.eye(3), B=np.ones((3, 1)), N=np.eye(3))
        cert = shifted_dissipation_certificate(sys)
        assert cert.lambda_max <= 0.0

    def test_shifted_inequality_along_trajectory(self, rng):
        # the trapezoidal step satisfies the discrete dissipation identity at
        # midpoints z = (x_k + x_{k+1})/2: (y_{k+1} - y_k)/h = z^T T z, which
        # the certificate bounds by lambda_max ||z||^2
        sys = make_stable_system(rng, 6)
        bal = balance(sys)
        rom = truncate(bal, 3).system
        lam = shifted_dissipation_certificate(rom).lambda_max
        x0 = rng.standard_normal(3)
        y = integrate(rom, u=None, x0=x0, h=0.01, T=20.0)
        states = trapezoid_states(rom, None, x0, h=0.01, T=20.0)
        mid = 0.5 * (states[:-1] + states[1:])
        rate = np.diff(y) / 0.01
        bound = lam * np.einsum("ki,ki->k", mid, mid)
        scale = max(np.abs(y).max(), 1.0)
        assert np.all(rate <= bound + 1e-8 * scale), (
            f"max violation {(rate - bound).max():.2e}"
        )

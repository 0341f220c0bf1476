"""Balanced truncation with the quadratic output, against brute-force oracles.

The H2 quantities have an independent oracle: augment the full and reduced
systems into one block system and evaluate trace(B_e^T Q_e B_e) through the
Kronecker linear solve, with no shared code path.
"""

from __future__ import annotations

import numpy as np
import numpy.linalg as la
import pytest
from numpy.testing import assert_allclose

from conftest import make_stable_system, traced_peak
from sgmor import bt_quadratic, galerkin, lyapsylv
from sgmor.bt_quadratic import (
    BalancedFactorization,
    GramianCache,
    ReducedModel,
    ReductionRow,
    balance,
    h2_error,
    sweep,
    truncate,
    write_report_csv,
)
from sgmor.errors import RankError, StabilityError
from sgmor.galerkin import QuadraticOutputSystem, assemble, to_first_order
from sgmor.lyapsylv import solve_lyapunov, symmetric_factor
from sgmor.msd import build_msd, default_config
from sgmor.polychaos import PcBasis


def kron_lyapunov(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    m = A.shape[0]
    lhs = np.kron(np.eye(m), A) + np.kron(A, np.eye(m))
    return la.solve(lhs, -C.reshape(-1)).reshape(m, m)


def h2_norm_oracle(sys: QuadraticOutputSystem) -> float:
    """trace(B^T Q B) with both Gramians from Kronecker solves."""
    P = kron_lyapunov(sys.A, sys.B @ sys.B.T)
    Q = kron_lyapunov(sys.A.T, sys.N @ P @ sys.N)
    return float(np.sqrt(np.trace(sys.B.T @ Q @ sys.B)))


def h2_error_oracle(fom: QuadraticOutputSystem, rsys: QuadraticOutputSystem) -> float:
    """H2 norm of the block-diagonal error system, fully brute force."""
    m, r = fom.m, rsys.m
    A_e = np.block([
        [fom.A, np.zeros((m, r))],
        [np.zeros((r, m)), rsys.A],
    ])
    B_e = np.vstack([fom.B, rsys.B])
    N_e = np.block([
        [fom.N, np.zeros((m, r))],
        [np.zeros((r, m)), -rsys.N],
    ])
    P = kron_lyapunov(A_e, B_e @ B_e.T)
    Q = kron_lyapunov(A_e.T, N_e @ P @ N_e)
    value = float(np.trace(B_e.T @ Q @ B_e))
    return float(np.sqrt(max(value, 0.0)))


def observability(sys: QuadraticOutputSystem) -> np.ndarray:
    """Q from A^T Q + Q A + N Z_P Z_P^T N = 0, the solve ``balance`` makes on the
    system's Schur form with the factor N Z_P of its right-hand side."""
    return solve_lyapunov(sys.A, sys.N @ sys.gramian.factor, factors=sys.schur, transposed=True)


class TestGramianCache:
    def test_gramians_match_kronecker(self, rng):
        sys = make_stable_system(rng, 6)
        P_oracle = kron_lyapunov(sys.A, sys.B @ sys.B.T)
        Q_oracle = kron_lyapunov(sys.A.T, sys.N @ P_oracle @ sys.N)
        P = solve_lyapunov(sys.A, sys.B, factors=sys.schur)
        assert_allclose(P, P_oracle, rtol=1e-9)
        assert_allclose(observability(sys), Q_oracle, rtol=1e-9)

    def test_gramian_is_memoized(self, rng):
        sys = make_stable_system(rng, 4)
        assert isinstance(sys.gramian, GramianCache)
        assert sys.gramian is sys.gramian

    def test_factor_releases_the_gramian(self, rng):
        """The factor is symmetric_factor(P) bitwise, taken once;
        taking it releases P, and a later read of P raises."""
        sys = make_stable_system(rng, 7)
        P = sys.gramian.controllability.copy()
        Zp = sys.gramian.factor
        assert np.array_equal(Zp, symmetric_factor(P))
        assert sys.gramian.factor is Zp
        with pytest.raises(RuntimeError, match="released"):
            sys.gramian.controllability
        assert sys.gramian.norm_squared > 0.0

    def test_second_balance_is_bitwise_identical(self, rng):
        sys = make_stable_system(rng, 9)
        first, second = balance(sys), balance(sys)
        for name in ("sigma", "Zp", "Zq"):
            assert np.array_equal(getattr(first, name), getattr(second, name)), name

    def test_unstable_system_rejected(self):
        sys = QuadraticOutputSystem(A=np.eye(2), B=np.ones((2, 1)), N=np.eye(2))
        with pytest.raises(StabilityError):
            sys.gramian

    def test_solve_counts(self, rng, monkeypatch):
        sys = make_stable_system(rng, 8)
        rom = truncate(balance(sys), sys, 3)
        # the same system without the Schur form and Gramian balancing attached to it
        fom = QuadraticOutputSystem(A=sys.A, B=sys.B, N=sys.N)
        calls = {"schur": 0, "lyapunov": 0, "sylvester": 0, "factor": 0}

        def counted(kind, solve):
            def wrapper(*args, **kwargs):
                calls[kind] += 1
                return solve(*args, **kwargs)
            return wrapper

        # every binding of real_schur: the Schur form of a system and the solvers' fallback
        for module in (galerkin, lyapsylv):
            monkeypatch.setattr(module, "real_schur", counted("schur", lyapsylv.real_schur))
        # P is solved beside the system's Schur form, Q in balance
        for module in (galerkin, bt_quadratic):
            monkeypatch.setattr(module, "solve_lyapunov", counted("lyapunov", lyapsylv.solve_lyapunov))
        monkeypatch.setattr(bt_quadratic, "solve_sylvester", counted("sylvester", bt_quadratic.solve_sylvester))
        # P is factored by the system's Gramian cache, Q in balance
        for module in (galerkin, bt_quadratic):
            monkeypatch.setattr(module, "symmetric_factor", counted("factor", lyapsylv.symmetric_factor))
        fom.gramian
        assert calls == {"schur": 1, "lyapunov": 1, "sylvester": 0, "factor": 0}
        calls.update(schur=0, lyapunov=0)
        balance(fom)
        assert calls == {"schur": 0, "lyapunov": 1, "sylvester": 0, "factor": 2}

        # the first call solves the reduced model's P on its Schur form, the second reuses both
        calls.update(lyapunov=0, factor=0)
        h2_error(fom, rom.system)
        assert calls == {"schur": 1, "lyapunov": 1, "sylvester": 1, "factor": 0}
        h2_error(fom, rom.system)
        assert calls == {"schur": 1, "lyapunov": 1, "sylvester": 2, "factor": 0}

        # the stability verdict reads eigenvalues alone, so only a stable row takes
        # a Schur form, for its H2 error; one Lyapunov solve per stable row, for its
        # own P, and none for the FOM's; no Gramian is factored
        calls.update(schur=0, lyapunov=0, sylvester=0)
        stable = sum(row.stable for row in sweep(fom, rom, range(1, 4)))
        assert calls == {"schur": stable, "lyapunov": stable, "sylvester": stable, "factor": 0}

    def test_fom_equation_solved_once(self, rng, monkeypatch):
        """Two H2 errors and a sweep against one full system solve its P equation once."""
        sys = make_stable_system(rng, 8)
        rom = truncate(balance(sys), sys, 3)
        fom = QuadraticOutputSystem(A=sys.A, B=sys.B, N=sys.N)
        sizes = []

        def counted(A, *args, **kwargs):
            sizes.append(A.shape[0])
            return lyapsylv.solve_lyapunov(A, *args, **kwargs)

        monkeypatch.setattr(galerkin, "solve_lyapunov", counted)
        h2_error(fom, rom.system)
        h2_error(fom, rom.system)
        sweep(fom, rom, range(1, 4))
        assert sizes.count(fom.m) == 1, f"Lyapunov solves by dimension: {sizes}"


class TestHandExample:
    """A = -I/2, B = e1, N = I: P = Q = diag(1, 0), one Hankel value sigma = 1."""

    @pytest.fixture
    def system(self):
        return QuadraticOutputSystem(
            A=-0.5 * np.eye(2), B=np.array([[1.0], [0.0]]), N=np.eye(2)
        )

    def test_gramians(self, system):
        Zp = system.gramian.factor
        assert Zp.shape == (2, 1)
        assert_allclose(Zp @ Zp.T, np.diag([1.0, 0.0]), atol=1e-14)
        assert_allclose(observability(system), np.diag([1.0, 0.0]), atol=1e-14)

    def test_hankel_values(self, system):
        bal = balance(system)
        assert bal.numerical_rank == 1
        assert_allclose(bal.sigma[0], 1.0, rtol=1e-12)

    def test_rank_one_truncation(self, system):
        bal = balance(system)
        rom = truncate(bal, system, 1)
        assert_allclose(rom.system.A, [[-0.5]], atol=1e-13)
        assert_allclose(np.abs(rom.system.B), [[1.0]], atol=1e-13)
        assert_allclose(rom.system.N, [[1.0]], atol=1e-13)

    def test_rank_guard(self, system):
        bal = balance(system)
        with pytest.raises(RankError):
            truncate(bal, system, 2)
        with pytest.raises(RankError):
            truncate(bal, system, 0)


def test_balance_releases_the_dense_gramian():
    """On the default d = 2 model (m = 960) balance of a fresh FOM, its Schur
    form and Gramian included, peaks at 4.8 dense m x m arrays (T, U, Q and
    its eigenvectors, with the factors Z_P and Z_Q), and leaves no m x m
    array on the system's Gramian cache: the dense P goes once its factor is
    taken, before Q is solved."""
    parametric = build_msd(default_config())
    fom = to_first_order(assemble(parametric, PcBasis(q=parametric.q, d=2)))
    _, peak = traced_peak(lambda: balance(fom), (fom.m, fom.m))
    assert peak <= 4.8, f"balance peaked at {peak:.2f} dense matrices"
    held = [name for name, value in vars(fom.gramian).items() if np.shape(value) == (fom.m, fom.m)]
    assert held == [], f"the Gramian cache still holds m x m arrays in {held}"


class TestBalance:
    def test_biorthogonality(self, rng):
        sys = make_stable_system(rng, 10)
        bal = balance(sys)
        for r in (1, 3, bal.numerical_rank):
            rom = truncate(bal, sys, r)
            dev = np.abs(rom.W.T @ rom.V - np.eye(r)).max()
            assert dev < 1e-8, f"biorthogonality defect {dev:.2e} at r={r}"

    def test_sigma_non_increasing(self, rng):
        sys = make_stable_system(rng, 9)
        bal = balance(sys)
        assert isinstance(bal, BalancedFactorization)
        assert np.all(np.diff(bal.sigma) <= 1e-14 * bal.sigma[0])

    def test_zero_output_matrix(self):
        sys = QuadraticOutputSystem(A=-np.eye(3), B=np.ones((3, 1)), N=np.zeros((3, 3)))
        bal = balance(sys)
        assert bal.numerical_rank == 0
        assert sys.gramian.norm == 0.0


class TestH2Norm:
    def test_scalar_chain(self):
        # A = -a, B = b, N = c: P = b^2/(2a), Q = c P c / (2a)
        a, b, c = 0.7, 1.3, 2.1
        sys = QuadraticOutputSystem(A=[[-a]], B=[[b]], N=[[c]])
        expected = np.sqrt(b**2 * (c * b**2 / (2 * a) * c) / (2 * a))
        assert_allclose(sys.gramian.norm, expected, rtol=1e-12)

    def test_zero_cases(self, rng):
        m = 4
        A = make_stable_system(rng, m).A
        assert QuadraticOutputSystem(A=A, B=np.zeros((m, 1)), N=np.eye(m)).gramian.norm == 0.0
        assert QuadraticOutputSystem(A=A, B=np.ones((m, 1)), N=np.zeros((m, m))).gramian.norm == 0.0

    def test_random_against_oracle(self, rng):
        # trace(N P N P) against the Q-form trace(B^T Q B), with one to three inputs
        for _ in range(6):
            sys = make_stable_system(rng, int(rng.integers(2, 8)), n_in=int(rng.integers(1, 4)))
            assert_allclose(sys.gramian.norm, h2_norm_oracle(sys), rtol=1e-9)


class TestH2Error:
    def test_identity_projection_is_exact(self, rng):
        sys = make_stable_system(rng, 7)
        assert h2_error(sys, sys) <= 1e-8 * sys.gramian.norm

    def test_zero_input(self, rng):
        m = 5
        A = make_stable_system(rng, m).A
        sys = QuadraticOutputSystem(A=A, B=np.zeros((m, 1)), N=np.eye(m))
        assert h2_error(sys, sys) == 0.0

    def test_full_rank_truncation_exact(self, rng):
        for _ in range(8):
            sys = make_stable_system(rng, int(rng.integers(4, 21)))
            bal = balance(sys)
            rom = truncate(bal, sys, bal.numerical_rank)
            rel = h2_error(sys, rom.system) / sys.gramian.norm
            assert rel <= 1e-8, f"full-rank relative error {rel:.2e}"

    def test_against_block_oracle(self, rng):
        for _ in range(4):
            sys = make_stable_system(rng, 8)
            bal = balance(sys)
            r = min(3, bal.numerical_rank)
            rom = truncate(bal, sys, r)
            value = h2_error(sys, rom.system)
            oracle = h2_error_oracle(sys, rom.system)
            assert_allclose(value, oracle, rtol=1e-7, atol=1e-10 * sys.gramian.norm)

    def test_error_decreases_with_rank(self, rng):
        sys = make_stable_system(rng, 12)
        bal = balance(sys)
        errs = [h2_error(sys, truncate(bal, sys, r).system) for r in (2, 6, 10)]
        assert errs[0] >= errs[1] >= errs[2]


class TestReducedModel:
    def test_stability_flags(self, rng):
        sys = make_stable_system(rng, 8)
        bal = balance(sys)
        rom = truncate(bal, sys, 4)
        assert rom.system.schur.abscissa < 0
        assert rom.is_stable
        assert rom.r == 4
        assert rom.system.N.shape == (4, 4)

    def test_unstable_verdict_takes_no_schur_form(self):
        """A model with an eigenvalue at or above -1e-12 is unstable, read off its
        eigenvalues alone; only a stable model goes on to its Schur form."""
        for shift, stable in ((1.0, False), (-1e-13, False), (-1e-6, True)):
            A = np.array([[-2.0, 5.0], [0.0, shift]])
            system = QuadraticOutputSystem(A=A, B=np.ones((2, 1)), N=np.eye(2))
            rom = ReducedModel(r=2, system=system, V=np.eye(2), W=np.eye(2))
            assert rom.is_stable is stable, shift
            assert "schur" not in vars(system), "the verdict computed a Schur form"

    def test_projected_matrices(self, rng):
        sys = make_stable_system(rng, 8)
        bal = balance(sys)
        rom = truncate(bal, sys, 3)
        assert_allclose(rom.system.A, rom.W.T @ sys.A @ rom.V, atol=1e-12)
        assert_allclose(rom.system.B, rom.W.T @ sys.B, atol=1e-12)
        sym = rom.V.T @ sys.N @ rom.V
        assert_allclose(rom.system.N, 0.5 * (sym + sym.T), atol=1e-12)


class TestReportCsv:
    def test_golden_rows(self, tmp_path):
        rows = [
            ReductionRow(r=1, sigma=0.5, h2_abs=0.25, h2_rel=0.5, lambda_max=-0.125, stable=True),
            ReductionRow(r=2, sigma=0.25, h2_abs=None, h2_rel=None, lambda_max=1.0, stable=False),
            ReductionRow(r=3, sigma=None, h2_abs=0.0, h2_rel=0.0, lambda_max=0.1, stable=True),
        ]
        path = tmp_path / "rows.csv"
        write_report_csv(rows, path)
        text = path.read_text().splitlines()
        assert text[0] == "r,sigma_r,h2_abs,h2_rel,lambda_max,stable"
        assert text[1] == "1,0.5,0.25,0.5,-0.125,true"
        assert text[2] == "2,0.25,,,1,false"
        assert text[3] == "3,,0,0,0.10000000000000001,true"

    def test_stable_column_optional(self, tmp_path):
        # The stable column is always written now; the name is kept from
        # when it was opt-in.
        rows = [ReductionRow(r=1, sigma=1.0, h2_abs=0.0, h2_rel=0.0, lambda_max=0.0, stable=True)]
        path = tmp_path / "rows.csv"
        write_report_csv(rows, path)
        text = path.read_text().splitlines()
        assert text[0] == "r,sigma_r,h2_abs,h2_rel,lambda_max,stable"
        assert text[1].endswith(",true")

    def test_empty_sweep_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_report_csv([], path)
        assert path.read_text() == "r,sigma_r,h2_abs,h2_rel,lambda_max,stable\n"

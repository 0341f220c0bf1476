"""Balanced truncation with the quadratic output, against brute-force oracles.

The H2 quantities have an independent oracle: augment the full and reduced
systems into one block system and evaluate trace(B_e^T Q_e B_e) through the
Kronecker linear solve, with no shared code path.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_stable_system, quasi_triangular_array, stored_doubles, traced_peak
from kronecker import kron_lyapunov
from sgmor import bt_quadratic, galerkin, lyapsylv, simulate
from sgmor.bt_quadratic import (
    BalancedFactorization,
    GramianRecord,
    ReducedModel,
    ReductionRow,
    balance,
    gramian_cache,
    h2_error,
    sweep,
    truncate,
    write_report_csv,
)
from sgmor.errors import RankError, StabilityError
from sgmor.galerkin import QuadraticOutputSystem, assemble, to_first_order
from sgmor.lyapsylv import solve_lyapunov, symmetric_factor
from sgmor.msd import build_msd, config_from_dict, default_config
from sgmor.polychaos import PcBasis
from sgmor.simulate import verify_error_bound


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


def record(sys: QuadraticOutputSystem) -> GramianRecord:
    """The system's record; its Gramian is dropped."""
    return gramian_cache(sys)[0]


def observability(sys: QuadraticOutputSystem) -> np.ndarray:
    """Q from A^T Q + Q A + N Z_P Z_P^T N = 0, the solve ``balance`` makes on the
    system's Schur form with the factor N Z_P of its right-hand side."""
    ref, P = gramian_cache(sys)
    return solve_lyapunov(sys.A, sys.N @ symmetric_factor(P), factors=ref.schur, transposed=True)


class TestGramianCache:
    def test_gramians_match_kronecker(self, rng):
        sys = make_stable_system(rng, 6)
        P_oracle = kron_lyapunov(sys.A, sys.B @ sys.B.T)
        Q_oracle = kron_lyapunov(sys.A.T, sys.N @ P_oracle @ sys.N)
        ref, P = gramian_cache(sys)
        assert ref.system is sys
        assert_allclose(P, P_oracle, rtol=1e-9)
        assert_allclose(observability(sys), Q_oracle, rtol=1e-9)

    def test_second_balance_is_bitwise_identical(self, rng):
        """Two balances agree bitwise, and Z_P is symmetric_factor(P) of the
        Gramian that gramian_cache returns."""
        sys = make_stable_system(rng, 9)
        first, second = balance(sys), balance(sys)
        for name in ("sigma", "Zp", "Zq"):
            assert np.array_equal(getattr(first, name), getattr(second, name)), name
        assert first.ref.norm_squared == second.ref.norm_squared
        assert np.array_equal(first.Zp, symmetric_factor(gramian_cache(sys)[1]))

    def test_unstable_system_rejected(self):
        sys = QuadraticOutputSystem(A=np.eye(2), B=np.ones((2, 1)), N=np.eye(2))
        with pytest.raises(StabilityError):
            gramian_cache(sys)

    def test_system_holds_no_hidden_state(self, rng):
        """After balance, a sweep and a bound check every system holds its
        dataclass fields and nothing else: no Schur form, Gramian or norm."""
        fom = make_stable_system(rng, 8, n_in=1)
        bal = balance(fom)
        rom = truncate(bal, 4)
        sweep(bal.ref, rom, range(1, 5), sigma=bal.sigma)
        verify_error_bound(bal.ref, [rom.system], h=0.05, T=2.0)
        fields = {field.name for field in dataclasses.fields(QuadraticOutputSystem)}
        assert fields == {"A", "B", "N", "label"}
        for sys in (fom, rom.system):
            assert set(vars(sys)) == fields, f"{sys.label} holds {sorted(set(vars(sys)) - fields)}"

    def test_galerkin_imports_no_solver(self):
        """A system is a plain container: galerkin.py imports nothing from the
        solvers, names no Schur, Lyapunov, Sylvester or factor routine and
        caches nothing."""
        path = Path(galerkin.__file__)
        pattern = re.compile(
            r"\.lyapsylv\b"
            r"|\b(real_schur|SchurFactors|solve_lyapunov|solve_sylvester|symmetric_factor|cached_property)\b"
        )
        found = [
            f"{path.name}:{number}: {line.strip()}"
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if pattern.search(line)
        ]
        assert not found, found

    def test_only_gramian_cache_takes_a_schur_form(self):
        """The Schur form of a system is taken once, by gramian_cache: no other
        function under src/sgmor/ calls real_schur, and the solvers take the
        form as an argument."""
        callers = []
        for path in sorted(Path(bt_quadratic.__file__).parent.glob("*.py")):
            function = None
            for line in path.read_text(encoding="utf-8").splitlines():
                if match := re.match(r"def (\w+)", line):
                    function = match.group(1)
                elif re.search(r"\breal_schur\(", line):
                    callers.append((path.name, function, line.strip()))
        assert [caller[:2] for caller in callers] == [("bt_quadratic.py", "gramian_cache")], callers

    def test_solvers_and_records_cache_nothing(self):
        """No solver, reduction record or integrator keeps a hidden cache:
        lyapsylv.py, bt_quadratic.py and simulate.py name no cached_property."""
        found = [
            f"{path.name}:{number}: {line.strip()}"
            for path in (Path(module.__file__) for module in (lyapsylv, bt_quadratic, simulate))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(r"\bcached_property\b", line)
        ]
        assert not found, found

    def test_solve_counts(self, rng, monkeypatch):
        fom = make_stable_system(rng, 8)
        calls = {"schur": 0, "lyapunov": 0, "sylvester": 0, "factor": 0}

        def counted(kind, solve):
            def wrapper(*args, **kwargs):
                calls[kind] += 1
                return solve(*args, **kwargs)
            return wrapper

        def reset():
            calls.update(schur=0, lyapunov=0, sylvester=0, factor=0)

        # the one binding of real_schur the package calls, gramian_cache's
        monkeypatch.setattr(bt_quadratic, "real_schur", counted("schur", lyapsylv.real_schur))
        for name, kind in (("solve_lyapunov", "lyapunov"), ("solve_sylvester", "sylvester"),
                           ("symmetric_factor", "factor")):
            monkeypatch.setattr(bt_quadratic, name, counted(kind, getattr(lyapsylv, name)))

        # a record takes one Schur form and solves P on it; P is not factored
        ref = gramian_cache(fom)[0]
        assert calls == {"schur": 1, "lyapunov": 1, "sylvester": 0, "factor": 0}
        # balance takes its record, solves Q on the same Schur form and factors P and Q
        reset()
        bal = balance(fom)
        assert calls == {"schur": 1, "lyapunov": 2, "sylvester": 0, "factor": 2}

        # an H2 error solves the reduced model's P on its Schur form and one
        # Sylvester equation on both forms; the full system is not solved again
        rom = truncate(bal, 3)
        reset()
        h2_error(ref, rom.system)
        assert calls == {"schur": 1, "lyapunov": 1, "sylvester": 1, "factor": 0}

        # the stability verdict reads eigenvalues alone, so only a stable row takes
        # a Schur form, for its H2 error; one Lyapunov solve per stable row, for its
        # own P, and none for the FOM's; no Gramian is factored
        reset()
        stable = sum(row.stable for row in sweep(ref, rom, range(1, 4)))
        assert calls == {"schur": stable, "lyapunov": stable, "sylvester": stable, "factor": 0}

    def test_fom_equation_solved_once(self, rng, monkeypatch):
        """Two H2 errors and a sweep against one record solve no equation of
        the full system's size: its P was solved when the record was taken."""
        fom = make_stable_system(rng, 8)
        bal = balance(fom)
        rom = truncate(bal, 3)
        sizes = []

        def counted(A, *args, **kwargs):
            sizes.append(A.shape[0])
            return lyapsylv.solve_lyapunov(A, *args, **kwargs)

        monkeypatch.setattr(bt_quadratic, "solve_lyapunov", counted)
        h2_error(bal.ref, rom.system)
        h2_error(bal.ref, rom.system)
        sweep(bal.ref, rom, range(1, 4))
        assert fom.m not in sizes, f"Lyapunov solves by dimension: {sizes}"


class TestHandExample:
    """A = -I/2, B = e1, N = I: P = Q = diag(1, 0), one Hankel value sigma = 1."""

    @pytest.fixture
    def system(self):
        return QuadraticOutputSystem(
            A=-0.5 * np.eye(2), B=np.array([[1.0], [0.0]]), N=np.eye(2)
        )

    def test_gramians(self, system):
        Zp = balance(system).Zp
        assert Zp.shape == (2, 1)
        assert_allclose(Zp @ Zp.T, np.diag([1.0, 0.0]), atol=1e-14)
        assert_allclose(observability(system), np.diag([1.0, 0.0]), atol=1e-14)

    def test_hankel_values(self, system):
        bal = balance(system)
        assert bal.numerical_rank == 1
        assert_allclose(bal.sigma[0], 1.0, rtol=1e-12)

    def test_rank_one_truncation(self, system):
        bal = balance(system)
        rom = truncate(bal, 1)
        assert_allclose(rom.system.A, [[-0.5]], atol=1e-13)
        assert_allclose(np.abs(rom.system.B), [[1.0]], atol=1e-13)
        assert_allclose(rom.system.N, [[1.0]], atol=1e-13)

    def test_rank_guard(self, system):
        bal = balance(system)
        with pytest.raises(RankError):
            truncate(bal, 2)
        with pytest.raises(RankError):
            truncate(bal, 0)


def test_balance_releases_the_dense_gramian():
    """On the default d = 2 model (m = 960) balance of a fresh FOM, its Schur
    form and Gramian included, peaks below 3.8 dense m x m arrays (3.69
    measured), at the factor of Q: the Schur form's T, held as its blocks
    (about half an array), U, Q and its eigenvectors, inside which Z_Q is
    built, with the factor Z_P.  The dense P goes once its factor is taken,
    before Q is solved.  The only m x m array the factorization keeps is U
    on its record; the blocks of T hold at most 0.55 m^2 doubles and equal
    the Schur form of the dense A bitwise."""
    parametric = build_msd(default_config())
    fom = to_first_order(assemble(parametric, PcBasis(q=parametric.q, d=2)))
    bal, peak = traced_peak(lambda: balance(fom), (fom.m, fom.m))
    assert peak <= 3.8, f"balance peaked at {peak:.2f} dense matrices"
    T = bal.ref.schur.T
    held_by_T = stored_doubles(T) / fom.m**2
    assert held_by_T <= 0.55, f"the blocks of T hold {held_by_T:.3f} m^2 doubles"
    dense_T = lyapsylv.real_schur(fom.A.toarray()).T
    assert np.array_equal(quasi_triangular_array(T), quasi_triangular_array(dense_T))
    held = [
        f"{prefix}.{key}"
        for prefix, owner in (("bal", bal), ("ref", bal.ref), ("schur", bal.ref.schur))
        for key, value in vars(owner).items()
        if np.shape(value) == (fom.m, fom.m)
    ]
    assert held == ["schur.U"], f"m x m arrays kept: {held}"


class TestBalance:
    def test_biorthogonality(self, rng):
        sys = make_stable_system(rng, 10)
        bal = balance(sys)
        for r in (1, 3, bal.numerical_rank):
            rom = truncate(bal, r)
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
        assert bal.ref.norm == 0.0

    def test_undamped_mode_is_unstable(self):
        """Mass 2 has no damper, so the abscissa is rounding noise (-8.2e-32
        at degree 0): it is refused as unstable, not solved into a failure."""
        model = config_from_dict({
            "masses": [1.8228524390729564, 0.3333333333333333],
            "springs": [
                {"ends": [0, 2], "stiffness": 6.544483014223415},
                {"ends": [0, 2], "stiffness": 5.315492747759582},
                {"ends": [0, 1], "stiffness": 4.926220699579985},
                {"ends": [0, 1], "stiffness": 7.031072162757902},
            ],
            "dampers": [{"ends": [0, 1], "coefficient": 4.478440043643203}],
            "input_spring": 1,
            "delta": 0.3664646687558597,
        })
        fom = to_first_order(assemble(build_msd(model), PcBasis(q=model.q, d=0)))
        with pytest.raises(StabilityError, match="stability margin"):
            balance(fom)


class TestH2Norm:
    def test_scalar_chain(self):
        # A = -a, B = b, N = c: P = b^2/(2a), Q = c P c / (2a)
        a, b, c = 0.7, 1.3, 2.1
        sys = QuadraticOutputSystem(A=[[-a]], B=[[b]], N=[[c]])
        expected = np.sqrt(b**2 * (c * b**2 / (2 * a) * c) / (2 * a))
        assert_allclose(record(sys).norm, expected, rtol=1e-12)

    def test_zero_cases(self, rng):
        m = 4
        A = make_stable_system(rng, m).A
        assert record(QuadraticOutputSystem(A=A, B=np.zeros((m, 1)), N=np.eye(m))).norm == 0.0
        assert record(QuadraticOutputSystem(A=A, B=np.ones((m, 1)), N=np.zeros((m, m)))).norm == 0.0

    def test_random_against_oracle(self, rng):
        # trace(N P N P) against the Q-form trace(B^T Q B), with one to three inputs
        for _ in range(6):
            sys = make_stable_system(rng, int(rng.integers(2, 8)), n_in=int(rng.integers(1, 4)))
            assert_allclose(record(sys).norm, h2_norm_oracle(sys), rtol=1e-9)


class TestH2Error:
    def test_identity_projection_is_exact(self, rng):
        ref = record(make_stable_system(rng, 7))
        assert h2_error(ref, ref.system) <= 1e-8 * ref.norm

    def test_zero_input(self, rng):
        m = 5
        A = make_stable_system(rng, m).A
        sys = QuadraticOutputSystem(A=A, B=np.zeros((m, 1)), N=np.eye(m))
        assert h2_error(record(sys), sys) == 0.0

    def test_full_rank_truncation_exact(self, rng):
        for _ in range(8):
            sys = make_stable_system(rng, int(rng.integers(4, 21)))
            bal = balance(sys)
            rom = truncate(bal, bal.numerical_rank)
            rel = h2_error(bal.ref, rom.system) / bal.ref.norm
            assert rel <= 1e-8, f"full-rank relative error {rel:.2e}"

    def test_against_block_oracle(self, rng):
        for _ in range(4):
            sys = make_stable_system(rng, 8)
            bal = balance(sys)
            r = min(3, bal.numerical_rank)
            rom = truncate(bal, r)
            value = h2_error(bal.ref, rom.system)
            oracle = h2_error_oracle(sys, rom.system)
            assert_allclose(value, oracle, rtol=1e-7, atol=1e-10 * bal.ref.norm)

    def test_error_decreases_with_rank(self, rng):
        sys = make_stable_system(rng, 12)
        bal = balance(sys)
        errs = [h2_error(bal.ref, truncate(bal, r).system) for r in (2, 6, 10)]
        assert errs[0] >= errs[1] >= errs[2]


class TestReducedModel:
    def test_stability_flags(self, rng):
        sys = make_stable_system(rng, 8)
        bal = balance(sys)
        rom = truncate(bal, 4)
        assert record(rom.system).schur.eigenvalues.real.max() < 0
        assert rom.is_stable
        assert rom.r == 4
        assert rom.system.N.shape == (4, 4)

    def test_unstable_verdict_takes_no_schur_form(self, monkeypatch):
        """A model whose abscissa is not below -1e-12 * max(1, spectral radius)
        (-2e-12 here) is unstable, read off its eigenvalues alone; only a
        stable model goes on to its Schur form."""
        def refuse(A):
            raise AssertionError("the verdict computed a Schur form")

        monkeypatch.setattr(bt_quadratic, "real_schur", refuse)
        for shift, stable in ((1.0, False), (-1e-13, False), (-1.5e-12, False), (-1e-6, True)):
            A = np.array([[-2.0, 5.0], [0.0, shift]])
            system = QuadraticOutputSystem(A=A, B=np.ones((2, 1)), N=np.eye(2))
            rom = ReducedModel(r=2, system=system, V=np.eye(2), W=np.eye(2))
            assert rom.is_stable is stable, shift

    def test_projected_matrices(self, rng):
        sys = make_stable_system(rng, 8)
        bal = balance(sys)
        rom = truncate(bal, 3)
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

"""Acceptance battery for the benchmark study.

Each test checks one acceptance criterion end to end on the default
mass-spring-damper configuration, so ``pytest -v tests/test_acceptance.py``
reads as a twelve-line pass/fail checklist.  The expensive artifacts (the
degree-2 Galerkin system, its balanced factorization, the r = 1..100
truncation sweep, and the driven full-order trajectory) are built once per
module and shared.
"""

import time

import numpy as np
import numpy.linalg as npla
import pytest

from conftest import make_stable_system
from kronecker import kron_lyapunov, kron_sylvester
from second_order import dense_first_order
from sgmor.arnoldi import reduce_arnoldi
from sgmor.bt_quadratic import balance, h2_error, sweep, truncate
from sgmor.galerkin import assemble, to_first_order
from sgmor.lyapsylv import real_schur, solve_lyapunov, solve_sylvester
from sgmor.msd import build_msd, default_config
from sgmor.polychaos import PcBasis
from sgmor.simulate import integrate, verify_error_bound

Q = 14  # parameters of the default benchmark: 4 masses, 6 springs, 4 dampers


@pytest.fixture(scope="module")
def parametric():
    return build_msd(default_config())


@pytest.fixture(scope="module")
def galerkin_d2(parametric):
    return assemble(parametric, PcBasis(q=Q, d=2))


@pytest.fixture(scope="module")
def fom(galerkin_d2):
    return to_first_order(galerkin_d2)


@pytest.fixture(scope="module")
def balanced(fom):
    start = time.perf_counter()
    bal = balance(fom)
    return bal, time.perf_counter() - start


@pytest.fixture(scope="module")
def bt_sweep(fom, balanced):
    bal, bal_elapsed = balanced
    start = time.perf_counter()
    rows = sweep(bal.ref, truncate(bal, 100), range(1, 101), sigma=bal.sigma)
    return rows, bal_elapsed + (time.perf_counter() - start)


@pytest.fixture(scope="module")
def arnoldi_rows(fom, balanced):
    bal, _ = balanced
    rom = reduce_arnoldi(fom, 50, omega=1.0)
    # the FOM's record, the one balancing took
    return sweep(bal.ref, rom, (10, 20, 30, 40, 50))


def test_criterion_01_basis_sizes_and_dimensions(parametric):
    start = time.perf_counter()
    got = {}
    for d in (2, 3):
        basis = PcBasis(q=Q, d=d)
        system = assemble(parametric, basis)
        got[d] = (basis.size, system.dimension)
    elapsed = time.perf_counter() - start
    assert got[2] == (120, 480), f"degree 2 gave (s, dim) = {got[2]}, want (120, 480)"
    assert got[3] == (680, 2720), f"degree 3 gave (s, dim) = {got[3]}, want (680, 2720)"
    assert elapsed < 1.0, f"basis/dimension check took {elapsed:.2f} s, limit 1 s"


def test_criterion_02_sparsity_percentages(parametric):
    expected = {2: {"M": 0.26, "D": 0.69, "K": 0.86}, 3: {"M": 0.05, "D": 0.13, "K": 0.17}}
    cfg = default_config()
    incidence = (
        f"springs {tuple(e[:2] for e in cfg.springs)}, "
        f"dampers {tuple(e[:2] for e in cfg.dampers)}"
    )
    start = time.perf_counter()
    measured = {
        d: assemble(parametric, PcBasis(q=Q, d=d)).nnz_percentages()
        for d in expected
    }
    elapsed = time.perf_counter() - start
    for d, want in expected.items():
        for name, pct in want.items():
            got = measured[d][name]
            assert abs(got - pct) <= 0.01 + 1e-12, (
                f"d={d} {name}: measured nnz {got:.4f}% vs expected {pct:.2f}% "
                f"(tolerance 0.01 points); incidence used: {incidence}"
            )
    assert elapsed < 10.0, f"sparsity check took {elapsed:.2f} s, limit 10 s"


def test_criterion_03_first_order_structure_identity(galerkin_d2, fom):
    start = time.perf_counter()
    Dhat = galerkin_d2.D.toarray()
    ns = Dhat.shape[0]
    dense = dense_first_order(fom)
    T = dense.A.T @ dense.N + dense.N @ dense.A
    expected = np.zeros_like(T)
    expected[ns:, ns:] = -2.0 * Dhat
    deviation = float(np.max(np.abs(T - expected)))
    limit = 1e-10 * float(np.max(np.abs(Dhat)))
    elapsed = time.perf_counter() - start
    assert deviation <= limit, (
        f"structure identity deviation {deviation:.3e} exceeds {limit:.3e}"
    )
    assert elapsed < 30.0, f"identity check took {elapsed:.2f} s, limit 30 s"


def test_criterion_04_matrix_equation_oracles():
    rng = np.random.default_rng(814)
    start = time.perf_counter()
    worst_lyap = worst_sylv = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 11))
        sys = make_stable_system(rng, m)
        fac = real_schur(sys.A)
        X = solve_lyapunov(sys.A, sys.B, fac)
        oracle = kron_lyapunov(sys.A, sys.B @ sys.B.T)
        worst_lyap = max(worst_lyap, npla.norm(X - oracle) / npla.norm(oracle))
        r = int(rng.integers(2, 11))
        F = make_stable_system(rng, r).A
        G = rng.standard_normal((m, r))
        Y = solve_sylvester(sys.A, F.T, G, np.eye(r), fac, real_schur(F.T))
        oracle = kron_sylvester(sys.A, F, G)
        worst_sylv = max(worst_sylv, npla.norm(Y - oracle) / npla.norm(oracle))
    elapsed = time.perf_counter() - start
    assert worst_lyap <= 1e-8, f"worst Lyapunov deviation {worst_lyap:.3e} > 1e-8"
    assert worst_sylv <= 1e-8, f"worst Sylvester deviation {worst_sylv:.3e} > 1e-8"
    assert elapsed < 5.0, f"oracle check took {elapsed:.2f} s, limit 5 s"


def test_criterion_05_full_rank_exactness(fom, balanced):
    rng = np.random.default_rng(905)
    worst = 0.0
    for m in (6, 12, 20):
        sys = make_stable_system(rng, m)
        b = balance(sys)
        rom = truncate(b, b.numerical_rank)
        worst = max(worst, h2_error(b.ref, rom.system) / b.ref.norm)
    assert worst <= 1e-8, f"random-system full-rank relative error {worst:.3e} > 1e-8"
    bal, _ = balanced
    rom = truncate(bal, bal.numerical_rank)
    rel = h2_error(bal.ref, rom.system) / bal.ref.norm
    assert rel <= 1e-8, (
        f"benchmark full-rank (r={bal.numerical_rank}) relative error {rel:.3e} > 1e-8"
    )


def test_criterion_06_stability_preservation(bt_sweep):
    rows, _ = bt_sweep
    unstable = [row.r for row in rows if not row.stable]
    assert not unstable, f"reduced models with spectral abscissa >= 0 at r = {unstable}"


def test_criterion_07_singular_value_decay(balanced):
    bal, _ = balanced
    sigma = bal.sigma
    assert np.all(np.diff(sigma) <= 0.0), "singular values are not non-increasing"
    ratio = float(sigma[99] / sigma[0])
    assert ratio <= 1e-8, f"sigma_100/sigma_1 = {ratio:.3e} > 1e-8"


def test_criterion_08_error_decay_and_runtime(bt_sweep):
    rows, elapsed = bt_sweep
    rel = {row.r: row.h2_rel for row in rows}
    early = min(rel[r] for r in range(1, 6))
    late = min(rel[r] for r in range(40, 51))
    assert late <= 1e-3 * early, (
        f"min relative error {late:.3e} on r in [40,50] is not 1e-3 below "
        f"{early:.3e} on r in [1,5]"
    )
    assert elapsed < 600.0, f"full r-sweep took {elapsed:.1f} s, limit 600 s"


def passivity_loss_clauses(rows, two_a_n):
    """Criterion 9's clauses on sweep rows as (clause, holds, values) triples.

    ``two_a_n`` is 2 A_r[0,0] N_r[0,0] of the r = 1 truncation.  For r = 1 the
    dissipation matrix is the scalar 2 a n, and a stable model (a < 0, see
    criterion 6) with energy weight n = v^T N v > 0 is dissipative, so the
    loss cannot be positive for every r; it is required at r = 10 and must
    shrink from r = 10 to r = 100.
    """
    lam = {row.r: row.lambda_max for row in rows}
    return [
        (
            "r = 1 identity: lambda_max(1) = 2 a n < 0",
            abs(lam[1] - two_a_n) <= 1e-12 * abs(two_a_n) and lam[1] < 0.0,
            f"lambda_max(1) = {lam[1]:.16e}, 2 a n = {two_a_n:.16e}",
        ),
        (
            "loss present: lambda_max(10) > 0",
            lam[10] > 0.0,
            f"lambda_max(10) = {lam[10]:.3e}",
        ),
        (
            "trend: lambda_max(100) < lambda_max(10)",
            lam[100] < lam[10],
            f"lambda_max(100) = {lam[100]:.3e}, lambda_max(10) = {lam[10]:.3e}",
        ),
    ]


def test_criterion_09_passivity_loss_trend(fom, balanced, bt_sweep):
    rows, _ = bt_sweep
    bal, _ = balanced
    rom1 = truncate(bal, 1).system
    clauses = passivity_loss_clauses(rows, 2.0 * rom1.A[0, 0] * rom1.N[0, 0])
    assert all(holds for _, holds, _ in clauses), "\n".join(
        f"{'ok' if holds else 'FAILED'}  {clause}: {values}"
        for clause, holds, values in clauses
    )


def test_criterion_10_arnoldi_comparison(bt_sweep, arnoldi_rows):
    rows, _ = bt_sweep
    bt_rel = {row.r: row.h2_rel for row in rows}
    bt_lam_60 = next(row.lambda_max for row in rows if row.r == 60)
    stable = [row for row in arnoldi_rows if row.stable]
    assert stable, "no stable Arnoldi model at r in {10,20,30,40,50} to compare"
    for row in stable:
        assert row.h2_rel >= bt_rel[row.r], (
            f"Arnoldi rel error {row.h2_rel:.3e} < BT {bt_rel[row.r]:.3e} at r={row.r}"
        )
    floor = min(row.lambda_max for row in arnoldi_rows)
    assert floor >= bt_lam_60, (
        f"Arnoldi lambda_max floor {floor:.3e} decays below BT "
        f"lambda_max(60) = {bt_lam_60:.3e}"
    )


def test_criterion_11_error_bound_validity(fom, balanced):
    bal, _ = balanced
    dims = (10, 30, 50)
    checks = verify_error_bound(bal.ref, [truncate(bal, r).system for r in dims], h=0.01, T=100.0)
    for r, check in zip(dims, checks):
        assert check.holds and check.observed <= check.bound, (
            f"r={r}: sup output error {check.observed:.3e} "
            f"exceeds bound {check.bound:.3e}"
        )


def test_criterion_12_zero_input_energy_decay(fom):
    rng = np.random.default_rng(1206)
    x0 = rng.standard_normal(fom.m)
    energy = 0.5 * integrate(fom, u=None, x0=x0, h=0.01, T=100.0)
    worst_rise = float(np.diff(energy).max())
    limit = 1e-8 * float(energy.max())
    assert worst_rise <= limit, (
        f"zero-input energy rises by {worst_rise:.3e}, allowed {limit:.3e}"
    )

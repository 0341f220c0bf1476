"""Tests for the trapezoidal integrator and the output error bound."""

from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.integrate import trapezoid

from conftest import make_stable_system
from second_order import dense_first_order
from sgmor import simulate
from sgmor.bt_quadratic import balance, h2_error, truncate
from sgmor.errors import NumericalError
from sgmor.galerkin import GalerkinSystem, QuadraticOutputSystem, assemble, to_first_order
from sgmor.msd import build_msd, default_config
from sgmor.polychaos import PcBasis
from sgmor.simulate import (
    BoundCheck,
    Trajectory,
    default_input,
    integrate,
    verify_error_bound,
)


def scalar_decay():
    """x' = -x with output y = x^2; the solution is exp(-t)."""
    return QuadraticOutputSystem(
        A=np.array([[-1.0]]), B=np.array([[1.0]]), N=np.array([[1.0]])
    )


class TestIntegrate:
    def test_zero_input_zero_state_stays_zero(self, rng):
        sys = make_stable_system(rng, 6)
        traj = integrate(sys, h=0.05, T=2.0)
        assert not np.any(traj.x), "zero input from the origin must stay there"
        assert not np.any(traj.y)

    def test_grid_and_shapes(self, rng):
        sys = make_stable_system(rng, 5)
        traj = integrate(sys, u=default_input, h=0.25, T=2.0)
        assert traj.t.shape == (9,)
        assert_allclose(traj.t, 0.25 * np.arange(9))
        assert traj.x.shape == (9, 5)
        assert traj.y.shape == (9,)

    def test_scalar_exponential_decay(self):
        traj = integrate(scalar_decay(), x0=np.array([1.0]), h=0.01, T=1.0)
        err = abs(traj.x[-1, 0] - np.exp(-1.0))
        assert err < 1e-4, f"x(1) error {err:.2e} exceeds 1e-4"
        assert abs(traj.y[-1] - np.exp(-2.0)) < 1e-4

    def test_second_order_convergence(self):
        errs = []
        for h in (0.02, 0.01, 0.005):
            traj = integrate(scalar_decay(), x0=np.array([1.0]), h=h, T=1.0)
            errs.append(abs(traj.x[-1, 0] - np.exp(-1.0)))
        for coarse, fine in zip(errs, errs[1:]):
            ratio = coarse / fine
            assert 3.5 < ratio < 4.5, f"halving h gave error ratio {ratio:.2f}, want ~4"

    def test_constant_input_step_response(self):
        # x' = -x + 1 from 0 tends to 1 - exp(-t)
        traj = integrate(scalar_decay(), u=lambda t: 1.0, h=0.005, T=1.0)
        err = abs(traj.x[-1, 0] - (1.0 - np.exp(-1.0)))
        assert err < 1e-5, f"step response error {err:.2e}"

    def test_vector_input_superposition(self):
        sys = QuadraticOutputSystem(A=-np.eye(2), B=np.eye(2), N=np.eye(2))
        traj = integrate(sys, u=lambda t: np.array([1.0, 2.0]), h=0.005, T=1.0)
        expected = np.array([1.0, 2.0]) * (1.0 - np.exp(-1.0))
        assert_allclose(traj.x[-1], expected, atol=1e-5)

    def test_energy_is_half_output(self, rng):
        sys = make_stable_system(rng, 4)
        x0 = rng.standard_normal(4)
        traj = integrate(sys, x0=x0, h=0.1, T=1.0)
        assert_allclose(traj.energy, 0.5 * traj.y, atol=0.0)

    def test_dissipative_energy_non_increasing(self, rng):
        # A^T + A = -I <= 0 with N = I, so x^T x must decay along the flow
        S = rng.standard_normal((6, 6))
        A = 0.5 * (S - S.T) - 0.5 * np.eye(6)
        sys = QuadraticOutputSystem(A=A, B=np.eye(6)[:, :1], N=np.eye(6))
        traj = integrate(sys, x0=rng.standard_normal(6), h=0.01, T=10.0)
        jumps = np.diff(traj.y)
        assert np.all(jumps <= 1e-12 * traj.y[0]), (
            f"energy increased by {jumps.max():.2e}"
        )

    def test_rejects_bad_step_and_horizon(self):
        with pytest.raises(ValueError, match="positive"):
            integrate(scalar_decay(), h=0.0)
        with pytest.raises(ValueError, match="positive"):
            integrate(scalar_decay(), T=-1.0)

    def test_rejects_bad_initial_state(self):
        with pytest.raises(ValueError, match="initial state"):
            integrate(scalar_decay(), x0=np.zeros(2))

    def test_singular_propagator_reported(self):
        # h * 200 / 2 = 1 makes I - h/2 A exactly singular
        sys = QuadraticOutputSystem(
            A=np.array([[200.0]]), B=np.array([[1.0]]), N=np.array([[1.0]])
        )
        with pytest.raises(NumericalError, match="singular"):
            integrate(sys, h=0.01, T=0.1)


def random_triple(rng, ns, n_in, M=None, D=None, K=None) -> GalerkinSystem:
    """Random SPD M and K and PSD D of size ns, stored sparse, unless given."""

    def spd(shift):
        G = rng.standard_normal((ns, ns))
        return G @ G.T + shift * np.eye(ns)

    M = spd(1.0) if M is None else M
    D = spd(0.0) if D is None else D
    K = spd(1.0) if K is None else K
    return GalerkinSystem(
        M=sp.csr_matrix(M), D=sp.csr_matrix(D), K=sp.csr_matrix(K),
        B=rng.standard_normal((ns, n_in)), basis=PcBasis(q=1, d=0),
    )


@pytest.fixture(scope="module")
def fom_d1():
    parametric = build_msd(default_config())
    return to_first_order(assemble(parametric, PcBasis(q=parametric.q, d=1)))


def assert_same_trajectory(sparse_run, dense_run):
    """States and outputs agree within 1e-12 of their largest magnitude."""
    assert_allclose(sparse_run.t, dense_run.t, rtol=0.0, atol=0.0)
    for name in ("x", "y"):
        got, want = getattr(sparse_run, name), getattr(dense_run, name)
        scale = np.abs(want).max()
        assert scale > 0.0
        dev = np.abs(got - want).max() / scale
        assert dev <= 1e-12, f"{name} differs from the dense-A run by {dev:.2e} relative"


class TestSecondOrderPath:
    """Galerkin-derived systems step through the shifted solve on the sparse
    triple; the same stepper on the dense first-order matrices is the
    reference."""

    def test_default_model_default_input(self, fom_d1):
        dense = dense_first_order(fom_d1)
        assert_same_trajectory(
            integrate(fom_d1, u=default_input, h=0.01, T=20.0),
            integrate(dense, u=default_input, h=0.01, T=20.0),
        )

    def test_default_model_zero_input_random_state(self, fom_d1, rng):
        x0 = rng.standard_normal(fom_d1.m)
        dense = dense_first_order(fom_d1)
        sparse_run = integrate(fom_d1, x0=x0, h=0.01, T=20.0)
        assert_same_trajectory(sparse_run, integrate(dense, x0=x0, h=0.01, T=20.0))
        assert_allclose(sparse_run.x[0], x0, rtol=0.0, atol=0.0)

    def test_two_inputs(self, rng):
        fom = to_first_order(random_triple(rng, 6, 2))
        dense = dense_first_order(fom)

        def u(t):
            return np.array([np.sin(3.0 * t), np.exp(-t)])

        x0 = rng.standard_normal(fom.m)
        assert_same_trajectory(
            integrate(fom, u=u, x0=x0, h=0.02, T=5.0),
            integrate(dense, u=u, x0=x0, h=0.02, T=5.0),
        )

    def test_singular_step_matrix_reported(self, rng):
        # K = 0 and D = -(2/h) M make M + h/2 D + h^2/4 K exactly zero
        h, ns = 0.5, 4
        G = rng.standard_normal((ns, ns))
        M = G @ G.T + np.eye(ns)
        fom = to_first_order(random_triple(rng, ns, 1, M=M, D=-(2.0 / h) * M, K=np.zeros((ns, ns))))
        with pytest.raises(NumericalError, match="singular"):
            integrate(fom, u=default_input, h=h, T=2.0)


class TestErrorBound:
    def test_identical_models_hold(self, rng):
        fom = make_stable_system(rng, 6)
        [check] = verify_error_bound(fom, [fom], h=0.02, T=5.0)
        assert isinstance(check, BoundCheck)
        assert check.observed == 0.0, f"self-comparison observed {check.observed}"
        assert check.holds

    def test_zero_input_degenerate(self, rng):
        fom = make_stable_system(rng, 5)
        [check] = verify_error_bound(fom, [fom], u=None, h=0.05, T=2.0)
        assert check.observed == 0.0 and check.bound == 0.0 and check.holds

    def test_bound_value_is_error_norm_times_input_norm(self, rng):
        fom = make_stable_system(rng, 8, n_in=1)
        rom = truncate(balance(fom), fom, 3).system
        h, T = 0.02, 10.0
        [check] = verify_error_bound(fom, [rom], h=h, T=T)
        t = h * np.arange(int(round(T / h)) + 1)
        u4 = default_input(t) ** 4
        expected = h2_error(fom, rom) * np.sqrt(trapezoid(u4, t))
        assert_allclose(check.bound, expected, rtol=1e-12)

    def test_bound_holds_for_truncated_model(self, rng):
        fom = make_stable_system(rng, 8, n_in=1)
        bal = balance(fom)
        checks = verify_error_bound(fom, [truncate(bal, fom, r).system for r in (2, 4)], h=0.02, T=20.0)
        for r, check in zip((2, 4), checks):
            assert check.holds, (
                f"r={r}: observed {check.observed:.3e} > bound {check.bound:.3e}"
            )

    def test_bound_holds_over_random_smooth_inputs(self, rng):
        # the H2-type bound must dominate sup|y - ybar| for any L4 input
        fom = make_stable_system(rng, 8, n_in=1)
        bal = balance(fom)
        rom = truncate(bal, fom, 3).system
        for trial in range(10):
            c = rng.standard_normal(3)
            tau = rng.uniform(2.0, 10.0, size=3)
            omega = rng.uniform(0.5, 4.0, size=3)

            def u(t):
                return float(np.sum(c * np.exp(-t / tau) * np.sin(omega * t)))

            [check] = verify_error_bound(fom, [rom], u=u, h=0.02, T=20.0)
            assert check.holds, (
                f"trial {trial}: observed {check.observed:.3e} "
                f"> bound {check.bound:.3e}"
            )

    def test_batch_matches_single_checks_with_one_fom_run(self, rng, monkeypatch):
        fom = make_stable_system(rng, 7, n_in=1)
        bal = balance(fom)
        roms = [truncate(bal, fom, r).system for r in (2, 3)]
        alone = [verify_error_bound(fom, [rom], h=0.05, T=5.0)[0] for rom in roms]

        runs = []

        def counted(sys, *args, **kwargs):
            runs.append(sys.label)
            return integrate(sys, *args, **kwargs)

        monkeypatch.setattr(simulate, "integrate", counted)
        batch = verify_error_bound(fom, roms, h=0.05, T=5.0)
        assert runs == ["fom", "rom", "rom"], f"integrations by label: {runs}"
        assert len(batch) == len(alone)
        for got, want in zip(batch, alone):
            for field in fields(BoundCheck):
                # repr round-trips a float exactly, so equal reprs are equal bits
                a, b = repr(getattr(got, field.name)), repr(getattr(want, field.name))
                assert a == b, f"{field.name}: batch {a} != alone {b}"

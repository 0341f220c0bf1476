"""Tests for the trapezoidal integrator and the output error bound."""

import re
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.integrate import trapezoid

from conftest import make_stable_system, traced_peak
from second_order import dense_first_order
from sgmor import simulate
from sgmor.bt_quadratic import balance, gramian_cache, h2_error, truncate
from sgmor.errors import NumericalError
from sgmor.galerkin import GalerkinSystem, QuadraticOutputSystem, assemble, to_first_order
from sgmor.msd import build_msd, default_config
from sgmor.polychaos import PcBasis
from sgmor.simulate import (
    BoundCheck,
    default_input,
    integrate,
    verify_error_bound,
)
from trapezoid import quadratic_outputs, trapezoid_states


def scalar_decay():
    """x' = -x with output y = x^2; the solution is exp(-t)."""
    return QuadraticOutputSystem(
        A=np.array([[-1.0]]), B=np.array([[1.0]]), N=np.array([[1.0]])
    )


class TestIntegrate:
    def test_zero_input_zero_state_stays_zero(self, rng):
        sys = make_stable_system(rng, 6)
        y = integrate(sys, h=0.05, T=2.0)
        # N is positive definite, so y = 0 only at the origin
        assert not np.any(y), "zero input from the origin must stay there"

    def test_grid_and_shapes(self, rng):
        """One output per grid point 0, h, ..., T and no state."""
        sys = make_stable_system(rng, 5, n_in=1)
        y = integrate(sys, u=default_input, h=0.25, T=2.0)
        assert y.shape == (9,)

    def test_scalar_exponential_decay(self):
        # x stays positive, so x = sqrt(y)
        y = integrate(scalar_decay(), x0=np.array([1.0]), h=0.01, T=1.0)
        err = abs(np.sqrt(y[-1]) - np.exp(-1.0))
        assert err < 1e-4, f"x(1) error {err:.2e} exceeds 1e-4"
        assert abs(y[-1] - np.exp(-2.0)) < 1e-4

    def test_second_order_convergence(self):
        errs = []
        for h in (0.02, 0.01, 0.005):
            y = integrate(scalar_decay(), x0=np.array([1.0]), h=h, T=1.0)
            errs.append(abs(np.sqrt(y[-1]) - np.exp(-1.0)))
        for coarse, fine in zip(errs, errs[1:]):
            ratio = coarse / fine
            assert 3.5 < ratio < 4.5, f"halving h gave error ratio {ratio:.2f}, want ~4"

    def test_constant_input_step_response(self):
        # x' = -x + 1 from 0 tends to 1 - exp(-t)
        y = integrate(scalar_decay(), u=lambda t: 1.0, h=0.005, T=1.0)
        err = abs(np.sqrt(y[-1]) - (1.0 - np.exp(-1.0)))
        assert err < 1e-5, f"step response error {err:.2e}"

    def test_vector_input_superposition(self):
        # N = e_i e_i^T reads y = x_i^2, and each x_i stays positive
        expected = np.array([1.0, 2.0]) * (1.0 - np.exp(-1.0))
        for i in range(2):
            sys = QuadraticOutputSystem(A=-np.eye(2), B=np.eye(2), N=np.diag(np.eye(2)[i]))
            y = integrate(sys, u=lambda t: np.array([1.0, 2.0]), h=0.005, T=1.0)
            assert_allclose(np.sqrt(y[-1]), expected[i], atol=1e-5)

    def test_dissipative_energy_non_increasing(self, rng):
        # A^T + A = -I <= 0 with N = I, so x^T x must decay along the flow
        S = rng.standard_normal((6, 6))
        A = 0.5 * (S - S.T) - 0.5 * np.eye(6)
        sys = QuadraticOutputSystem(A=A, B=np.eye(6)[:, :1], N=np.eye(6))
        y = integrate(sys, x0=rng.standard_normal(6), h=0.01, T=10.0)
        jumps = np.diff(y)
        assert np.all(jumps <= 1e-12 * y[0]), (
            f"energy increased by {jumps.max():.2e}"
        )

    def test_rejects_bad_step_and_horizon(self):
        with pytest.raises(ValueError, match="positive"):
            integrate(scalar_decay(), h=0.0)
        with pytest.raises(ValueError, match="positive"):
            integrate(scalar_decay(), T=-1.0)

    @pytest.mark.parametrize("h, T", [(0.01, float("inf")), (float("nan"), 1.0), (0.01, float("nan"))])
    def test_rejects_a_non_finite_step_or_horizon(self, h, T):
        """One ValueError naming both values, not an OverflowError or a
        message about converting NaN to an integer."""
        message = f"step size h = {h} and horizon T = {T} must be finite and positive"
        with pytest.raises(ValueError, match=re.escape(message)):
            integrate(scalar_decay(), h=h, T=T)

    @pytest.mark.parametrize("T", [0.4, 0.5])
    def test_rejects_a_horizon_without_a_step(self, T):
        """round(T / h) = 0 leaves a one-point grid, on which nothing is integrated."""
        with pytest.raises(ValueError, match="no step to take"):
            integrate(scalar_decay(), h=1.0, T=T)

    def test_input_samples_equal_the_callable(self, rng):
        sys = make_stable_system(rng, 5, n_in=2)
        h, T = 0.05, 2.0
        t = h * np.arange(int(round(T / h)) + 1)

        def u(tk):
            return np.array([np.sin(tk), np.cos(3.0 * tk)])

        sampled = integrate(sys, u=np.array([u(tk) for tk in t]), h=h, T=T)
        called = integrate(sys, u=u, h=h, T=T)
        assert np.array_equal(sampled, called)
        with pytest.raises(ValueError, match="input samples have shape"):
            integrate(sys, u=np.zeros((t.size - 1, 2)), h=h, T=T)

    @pytest.mark.parametrize("u", [np.sin, lambda t: np.full(3, np.sin(t))], ids=["scalar", "three"])
    def test_callable_value_must_match_the_inputs(self, rng, u):
        """A scalar or a 3-vector does not drive a 2-input system: it is not
        broadcast over the inputs."""
        sys = make_stable_system(rng, 5, n_in=2)
        with pytest.raises(ValueError, match=r"input value at t = 0.0 has shape \(\d?,?\), expected \(2,\)"):
            integrate(sys, u=u, h=0.05, T=1.0)

    def test_rejects_bad_initial_state(self):
        with pytest.raises(ValueError, match="initial state"):
            integrate(scalar_decay(), x0=np.zeros(2))

    def test_output_is_the_quadratic_form_of_each_state(self, rng):
        """On indefinite N, where x^T N x cancels, each y_k is x_k^T N x_k of
        the dense reference states (see ``assert_same_outputs``)."""
        m = 6
        N = rng.standard_normal((m, m))
        sys = QuadraticOutputSystem(A=make_stable_system(rng, m).A, B=np.ones((m, 1)), N=N + N.T)
        assert np.linalg.eigvalsh(sys.N).min() < 0.0 < np.linalg.eigvalsh(sys.N).max()
        x0 = rng.standard_normal(m)
        y = integrate(sys, u=default_input, x0=x0, h=0.05, T=5.0)
        assert_same_outputs(y, sys, trapezoid_states(sys, default_input, x0, h=0.05, T=5.0))

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
    """Outputs on the same grid agree within 1e-12 of their largest magnitude."""
    assert sparse_run.shape == dense_run.shape
    scale = np.abs(dense_run).max()
    assert scale > 0.0
    dev = np.abs(sparse_run - dense_run).max() / scale
    assert dev <= 1e-12, f"y differs from the dense-A run by {dev:.2e} relative"


def assert_same_outputs(y, sys, states):
    """y_k equals x_k^T N x_k of the reference states within 1e-12 of
    max_k |x_k|^T |N| |x_k|, the size of a cancelling quadratic form."""
    scale = quadratic_outputs(abs(sys.N), np.abs(states)).max()
    assert scale > 0.0
    dev = np.abs(y - quadratic_outputs(sys.N, states)).max() / scale
    assert dev <= 1e-12, f"y differs from the reference states' output by {dev:.2e} relative"


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
        assert sparse_run[0] == x0 @ (fom_d1.N @ x0), "the run starts at x0"

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

    def test_output_is_the_quadratic_form_of_each_state(self, fom_d1):
        """On the sparse N of the d = 1 triple each y_k is x_k^T N x_k of the
        dense reference states."""
        y = integrate(fom_d1, u=default_input, h=0.05, T=5.0)
        states = trapezoid_states(dense_first_order(fom_d1), default_input, np.zeros(fom_d1.m), h=0.05, T=5.0)
        assert_same_outputs(y, fom_d1, states)

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
        fom = make_stable_system(rng, 6, n_in=1)
        [check] = verify_error_bound(gramian_cache(fom)[0], [fom], h=0.02, T=5.0)
        assert isinstance(check, BoundCheck)
        assert check.observed == 0.0, f"self-comparison observed {check.observed}"
        assert check.holds

    def test_zero_input_degenerate(self, rng):
        fom = make_stable_system(rng, 5)
        [check] = verify_error_bound(gramian_cache(fom)[0], [fom], u=None, h=0.05, T=2.0)
        assert check.observed == 0.0 and check.bound == 0.0 and check.holds

    def test_bound_value_is_error_norm_times_input_norm(self, rng):
        fom = make_stable_system(rng, 8, n_in=1)
        bal = balance(fom)
        rom = truncate(bal, 3).system
        h, T = 0.02, 10.0
        [check] = verify_error_bound(bal.ref, [rom], h=h, T=T)
        t = h * np.arange(int(round(T / h)) + 1)
        u4 = default_input(t) ** 4
        expected = h2_error(bal.ref, rom) * np.sqrt(trapezoid(u4, t))
        assert_allclose(check.bound, expected, rtol=1e-12)

    def test_bound_holds_for_truncated_model(self, rng):
        fom = make_stable_system(rng, 8, n_in=1)
        bal = balance(fom)
        checks = verify_error_bound(bal.ref, [truncate(bal, r).system for r in (2, 4)], h=0.02, T=20.0)
        for r, check in zip((2, 4), checks):
            assert check.holds, (
                f"r={r}: observed {check.observed:.3e} > bound {check.bound:.3e}"
            )

    def test_bound_holds_over_random_smooth_inputs(self, rng):
        # the H2-type bound must dominate sup|y - ybar| for any L4 input
        fom = make_stable_system(rng, 8, n_in=1)
        bal = balance(fom)
        rom = truncate(bal, 3).system
        for trial in range(10):
            c = rng.standard_normal(3)
            tau = rng.uniform(2.0, 10.0, size=3)
            omega = rng.uniform(0.5, 4.0, size=3)

            def u(t):
                return float(np.sum(c * np.exp(-t / tau) * np.sin(omega * t)))

            [check] = verify_error_bound(bal.ref, [rom], u=u, h=0.02, T=20.0)
            assert check.holds, (
                f"trial {trial}: observed {check.observed:.3e} "
                f"> bound {check.bound:.3e}"
            )

    def test_input_is_sampled_once_for_every_run(self, rng):
        """The FOM run and every reduced run share one set of input samples."""
        fom = make_stable_system(rng, 7, n_in=1)
        bal = balance(fom)
        roms = [truncate(bal, r).system for r in (2, 3)]
        times = []

        def u(t):
            times.append(t)
            return default_input(t)

        h, T = 0.05, 5.0
        checks = verify_error_bound(bal.ref, roms, u=u, h=h, T=T)
        assert len(times) == int(round(T / h)) + 1
        assert checks == verify_error_bound(bal.ref, roms, h=h, T=T)

    def test_batch_matches_single_checks_with_one_fom_run(self, rng, monkeypatch):
        fom = make_stable_system(rng, 7, n_in=1)
        bal = balance(fom)
        roms = [truncate(bal, r).system for r in (2, 3)]
        alone = [verify_error_bound(bal.ref, [rom], h=0.05, T=5.0)[0] for rom in roms]

        runs = []

        def counted(sys, *args, **kwargs):
            runs.append(sys.label)
            return integrate(sys, *args, **kwargs)

        monkeypatch.setattr(simulate, "integrate", counted)
        batch = verify_error_bound(bal.ref, roms, h=0.05, T=5.0)
        assert runs == ["fom", "rom", "rom"], f"integrations by label: {runs}"
        assert len(batch) == len(alone)
        for got, want in zip(batch, alone):
            for field in fields(BoundCheck):
                # repr round-trips a float exactly, so equal reprs are equal bits
                a, b = repr(getattr(got, field.name)), repr(getattr(want, field.name))
                assert a == b, f"{field.name}: batch {a} != alone {b}"

    def test_fom_states_are_not_stored(self, fom_d1):
        """On the d = 1 model at the CLI default T = 100 (10,001 steps) the check
        peaks below a quarter of one (steps, m) array of FOM states: ``integrate``
        stores none."""
        bal = balance(fom_d1)
        rom = truncate(bal, 10).system
        h, T = 0.01, 100.0
        [check], peak = traced_peak(
            lambda: verify_error_bound(bal.ref, [rom], h=h, T=T), (int(round(T / h)) + 1, fom_d1.m)
        )
        assert peak < 0.25, f"verify_error_bound peaked at {peak:.2f} FOM state arrays"
        assert check.holds

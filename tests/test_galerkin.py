"""Stochastic Galerkin projection and first-order realization tests.

The assembly oracle is the tensorized quadrature of E[kappa phi_i phi_j]
applied entry by entry, which is exact for the affine weights involved.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from conftest import traced_peak
from quadrature import expectation_weighted
from second_order import dense_first_order, energy
from sgmor.bt_quadratic import gramian_cache
from sgmor.errors import DefinitenessError
from sgmor.galerkin import (
    GalerkinSystem,
    ParametricSecondOrderSystem,
    QuadraticOutputSystem,
    assemble,
    to_first_order,
)
from sgmor.lyapsylv import real_schur
from sgmor.msd import build_msd, default_config
from sgmor.passivity import check_passivity
from sgmor.polychaos import PcBasis


def two_mass_example(q: int = 2, eta: float = 0.3) -> ParametricSecondOrderSystem:
    """n=2 oscillator pair whose first q coefficients vary affinely."""
    M0 = np.diag([1.0, 2.0])
    D0 = np.array([[0.3, -0.1], [-0.1, 0.2]])
    K0 = np.array([[3.0, -1.0], [-1.0, 2.0]])
    zero = np.zeros((2, 2))
    M_terms = [M0] + [zero] * q
    D_terms = [D0] + [zero] * q
    K_terms = [K0] + [zero] * q
    M_terms[1] = eta * np.diag([1.0, 0.0])
    if q >= 2:
        K_terms[2] = eta * np.array([[1.0, -1.0], [-1.0, 1.0]])
    B = np.array([[0.0], [1.0]])
    return ParametricSecondOrderSystem(
        M_terms=tuple(M_terms), D_terms=tuple(D_terms), K_terms=tuple(K_terms), B=B
    )


class TestAssembly:
    def test_blocks_match_quadrature_oracle(self):
        sys = two_mass_example()
        basis = PcBasis(q=2, d=2)
        g = assemble(sys, basis)
        s, n = basis.size, sys.n

        def oracle(terms):
            full = np.zeros((s * n, s * n))
            for i in range(s):
                for j in range(s):
                    block = terms[0] * (1.0 if i == j else 0.0)
                    for k in range(1, len(terms)):
                        w = expectation_weighted(basis, i, j, lambda mu, k=k: mu[k - 1])
                        block = block + w * terms[k]
                    full[i * n : (i + 1) * n, j * n : (j + 1) * n] = block
            return full

        assert_allclose(g.M.toarray(), oracle(sys.M_terms), atol=1e-13)
        assert_allclose(g.D.toarray(), oracle(sys.D_terms), atol=1e-13)
        assert_allclose(g.K.toarray(), oracle(sys.K_terms), atol=1e-13)

    def test_single_parameter_hand_value(self):
        # n=1, q=1, d=1: K(mu) = k0 (1 + eta mu) projects onto
        # k0 [[1, eta/sqrt(3)], [eta/sqrt(3), 1]]
        k0, eta = 2.0, 0.4
        one = np.array([[1.0]])
        sys = ParametricSecondOrderSystem(
            M_terms=(one, np.zeros((1, 1))),
            D_terms=(0.1 * one, np.zeros((1, 1))),
            K_terms=(k0 * one, k0 * eta * one),
            B=one,
        )
        g = assemble(sys, PcBasis(q=1, d=1))
        expected = k0 * np.array([[1.0, eta / np.sqrt(3.0)], [eta / np.sqrt(3.0), 1.0]])
        assert_allclose(g.K.toarray(), expected, atol=1e-14)

    def test_parameter_independent_terms_block_diagonalize(self):
        sys = two_mass_example()
        basis = PcBasis(q=2, d=2)
        g = assemble(sys, basis)
        # D has no parametric term, so D-hat = I_s (x) D0
        expected = sp.kron(sp.identity(basis.size), sys.D_terms[0]).toarray()
        assert_allclose(g.D.toarray(), expected, atol=0.0)

    def test_input_enters_first_block_only(self):
        sys = two_mass_example()
        g = assemble(sys, PcBasis(q=2, d=2))
        assert_allclose(g.B[: sys.n], sys.B)
        assert np.all(g.B[sys.n :] == 0.0)

    def test_symmetry_exact(self):
        g = assemble(two_mass_example(), PcBasis(q=2, d=2))
        for mat in (g.M, g.D, g.K):
            assert (mat != mat.T).nnz == 0

    def test_parameter_count_mismatch(self):
        with pytest.raises(ValueError, match="q="):
            assemble(two_mass_example(q=2), PcBasis(q=3, d=1))

    def test_indefinite_assembly_rejected(self):
        one = np.array([[1.0]])
        sys = ParametricSecondOrderSystem(
            M_terms=(one, np.zeros((1, 1))),
            D_terms=(0.0 * one, np.zeros((1, 1))),
            K_terms=(one, 2.0 * one),  # K(mu) = 1 + 2 mu loses definiteness
            B=one,
        )
        with pytest.raises(DefinitenessError):
            assemble(sys, PcBasis(q=1, d=1))

    @pytest.mark.parametrize("name, bad", [
        ("M", np.array([[0.0, 1.0], [1.0, 0.0]])),  # indefinite, zero diagonal: off-diagonal pivots
        ("K", np.array([[1.0, 0.0], [0.0, 0.0]])),  # a zero column
        ("K", np.array([[1.0, 1.0], [1.0, 1.0]])),  # an exactly zero pivot
    ])
    def test_zero_pivot_cases_rejected(self, name, bad):
        eye, zero = np.eye(2), np.zeros((2, 2))
        terms = {"M": (eye, zero), "K": (eye, zero), name: (bad, zero)}
        sys = ParametricSecondOrderSystem(
            M_terms=terms["M"], D_terms=(zero, zero), K_terms=terms["K"], B=np.ones((2, 1))
        )
        with pytest.raises(DefinitenessError, match=f"assembled {name} block"):
            assemble(sys, PcBasis(q=1, d=1))


class TestFirstOrder:
    def test_scalar_no_uncertainty(self):
        one = np.array([[1.0]])
        zero = np.zeros((1, 1))
        sys = ParametricSecondOrderSystem(
            M_terms=(one, zero), D_terms=(one, zero), K_terms=(one, zero), B=one
        )
        fom = to_first_order(assemble(sys, PcBasis(q=1, d=0)))
        dense = dense_first_order(fom)
        assert_allclose(dense.A, np.array([[0.0, 1.0], [-1.0, -1.0]]))
        assert_allclose(dense.N, np.eye(2))

    def test_dissipation_structure_identity(self):
        g = assemble(two_mass_example(), PcBasis(q=2, d=2))
        fom = to_first_order(g)
        ns = g.dimension
        dense = dense_first_order(fom)
        T = dense.A.T @ dense.N + dense.N @ dense.A
        expected = np.zeros_like(T)
        expected[ns:, ns:] = -2.0 * g.D.toarray()
        dev = np.abs(T - expected).max()
        assert dev <= 1e-12 * np.abs(g.D.toarray()).max(), f"structure defect {dev:.2e}"

    def test_triple_attached(self):
        g = assemble(two_mass_example(), PcBasis(q=2, d=1))
        fom = to_first_order(g)
        assert fom.galerkin is g
        assert dense_first_order(fom).galerkin is None
        # the triple is stepped with its own B, so the input counts must agree
        with pytest.raises(ValueError, match="second-order triple"):
            dataclasses.replace(fom, B=np.hstack([fom.B, fom.B]))
        with pytest.raises(ValueError, match="second-order triple"):
            dataclasses.replace(fom, A=fom.A.T)

    def test_transposed_operator_has_no_dense_array(self):
        """toarray builds A alone, so the Schur form of A^T is refused, not
        taken of A."""
        fom = to_first_order(assemble(two_mass_example(), PcBasis(q=2, d=1)))
        for call in (fom.A.T.toarray, lambda: real_schur(fom.A.T)):
            with pytest.raises(ValueError, match=r"not A\^T"):
                call()

    def test_indefinite_mass_rejected(self, rng):
        eye = sp.identity(2, format="csr")
        g = GalerkinSystem(
            M=sp.csr_matrix(np.diag([1.0, -1.0])), D=0.0 * eye, K=eye,
            B=np.ones((2, 1)), basis=PcBasis(q=1, d=0),
        )
        with pytest.raises(DefinitenessError, match="mass block"):
            to_first_order(g)

    def test_energy_consistency(self, rng):
        g = assemble(two_mass_example(), PcBasis(q=2, d=1))
        fom = to_first_order(g)
        ns = g.dimension
        for _ in range(100):
            p = rng.standard_normal(ns)
            pdot = rng.standard_normal(ns)
            x = np.concatenate([p, pdot])
            assert_allclose(energy(g, p, pdot), 0.5 * x @ (fom.N @ x), rtol=1e-12)

    def test_energy_simple_values(self):
        g = assemble(two_mass_example(), PcBasis(q=2, d=1))
        ns = g.dimension
        assert energy(g, np.zeros(ns), np.zeros(ns)) == 0.0
        with pytest.raises(ValueError, match="length"):
            energy(g, np.zeros(3), np.zeros(ns))


def test_first_order_form_allocates_no_dense_matrix():
    """On the default d = 2 model (m = 960) neither the first-order form nor
    its passivity check allocates as much as one dense m x m matrix."""
    parametric = build_msd(default_config())
    g = assemble(parametric, PcBasis(q=parametric.q, d=2))
    dense = (2 * g.dimension,) * 2
    fom, peak = traced_peak(lambda: to_first_order(g), dense)
    assert peak < 1.0, f"to_first_order peaked at {peak:.2f} dense matrices"
    report, peak = traced_peak(lambda: check_passivity(fom), dense)
    assert peak < 1.0, f"check_passivity peaked at {peak:.2f} dense matrices"
    assert report.passive


def test_schur_form_and_gramian_peak_memory():
    """On the default d = 2 model (m = 960) the Schur form of the FOM's
    operator peaks at 2.7 dense m x m arrays (2.58 measured: the dense A that
    gees overwrites with T, U, and the blocks of T, about half an array, as
    they are copied out of it) and the controllability Gramian, its Schur
    form included, at 2.75 (2.68 measured): the blocks of T, U and P, which
    the solve writes in place, 2.53 arrays, plus the strips of one step at a
    time, at most about 0.15: the solve's workspace of m x STRIP with a strip
    f2py copies (0.13), the residual's operator products on STRIP / 2 columns
    (0.12) or the H2 trace's two strips of STRIP (0.13).  The 2.92 before
    held a copy of Z12^T in the solve (0.25) and the residual's full-width
    strips together (0.30)."""
    parametric = build_msd(default_config())
    fom = to_first_order(assemble(parametric, PcBasis(q=parametric.q, d=2)))
    dense = (fom.m, fom.m)
    _, peak = traced_peak(lambda: real_schur(fom.A), dense)
    assert peak <= 2.7, f"real_schur peaked at {peak:.2f} dense matrices"
    _, peak = traced_peak(lambda: gramian_cache(fom), dense)
    assert peak <= 2.75, f"the Gramian peaked at {peak:.2f} dense matrices"


class TestQuadraticOutputSystem:
    def test_asymmetric_output_matrix_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticOutputSystem(
                A=-np.eye(2), B=np.ones((2, 1)), N=np.array([[0.0, 1.0], [0.0, 0.0]])
            )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimensions"):
            QuadraticOutputSystem(A=-np.eye(3), B=np.ones((2, 1)), N=np.eye(3))

    @pytest.mark.parametrize("form", [np.asarray, sp.csr_matrix])
    def test_nan_output_matrix_rejected(self, form):
        N = np.eye(2)
        N[0, 1] = np.nan
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticOutputSystem(A=-np.eye(2), B=np.ones((2, 1)), N=form(N))


def test_asymmetric_term_rejected():
    sys = two_mass_example()
    bad = sys.K_terms[0].copy()
    bad[0, 1] += 1e-3
    with pytest.raises(ValueError, match="K term 0 is not symmetric"):
        dataclasses.replace(sys, K_terms=(bad, *sys.K_terms[1:]))


"""Multivariate Legendre basis tests.

The quadrature-based Gram matrices act as the independent oracle for the
analytic triple-product coefficients used during Galerkin assembly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quadrature import expectation_weighted, gram_matrix, legendre_orthonormal, legendre_table
from sgmor.polychaos import PcBasis, basis_size, linear_triple_coefficient, multi_indices


def index_of(basis: PcBasis, alpha) -> int:
    """Position of a multi-index within the graded-lexicographic ordering."""
    return [tuple(row) for row in basis.indices].index(tuple(alpha))


class TestBasisSize:
    def test_benchmark_counts(self):
        assert basis_size(14, 2) == 120
        assert basis_size(14, 3) == 680

    def test_degree_zero(self):
        for q in (1, 3, 14):
            assert basis_size(q, 0) == 1

    def test_matches_enumeration(self):
        for q in (1, 2, 3):
            for d in (0, 1, 2, 4):
                assert multi_indices(q, d).shape == (basis_size(q, d), q)

    def test_rejects_bad_arguments(self):
        for func in (basis_size, multi_indices):
            with pytest.raises(ValueError, match="parameter count"):
                func(0, 2)
            with pytest.raises(ValueError, match="total degree"):
                func(3, -1)


class TestMultiIndices:
    def test_graded_lexicographic_order(self):
        idx = multi_indices(3, 3)
        degrees = idx.sum(axis=1)
        assert np.all(np.diff(degrees) >= 0), "total degree must be non-decreasing"
        # within a degree class the rows are lexicographically sorted
        for deg in range(4):
            block = idx[degrees == deg]
            as_tuples = [tuple(row) for row in block]
            assert as_tuples == sorted(as_tuples)

    def test_zero_index_first(self):
        idx = multi_indices(5, 2)
        assert np.all(idx[0] == 0)

    def test_degree_bound_respected(self):
        idx = multi_indices(4, 3)
        assert idx.sum(axis=1).max() == 3
        assert idx.min() >= 0


class TestUnivariate:
    def test_constant(self):
        assert legendre_orthonormal(0, 0.3) == 1.0
        assert legendre_orthonormal(0, -1.0) == 1.0

    def test_degree_one_at_one(self):
        assert_allclose(legendre_orthonormal(1, 1.0), math.sqrt(3.0), rtol=1e-14)

    def test_degree_two_at_zero(self):
        # normalized P2(x) = sqrt(5) (3x^2 - 1)/2
        assert_allclose(legendre_orthonormal(2, 0.0), -math.sqrt(5.0) / 2.0, rtol=1e-14)

    def test_orthonormal_against_quadrature(self):
        # Gauss-Legendre with the probability weight 1/2 on [-1, 1]
        nodes, weights = np.polynomial.legendre.leggauss(20)
        table = legendre_table(8, nodes)
        gram = table.T @ ((weights / 2.0)[:, None] * table)
        assert_allclose(gram, np.eye(9), atol=1e-13)


class TestTripleCoefficient:
    def test_band_structure(self):
        for a in range(6):
            for b in range(6):
                c = linear_triple_coefficient(a, b)
                if abs(a - b) != 1:
                    assert c == 0.0
                else:
                    assert c > 0.0

    def test_against_quadrature(self):
        nodes, weights = np.polynomial.legendre.leggauss(30)
        table = legendre_table(7, nodes)
        for a in range(7):
            for b in range(7):
                oracle = float(np.sum((weights / 2.0) * nodes * table[:, a] * table[:, b]))
                assert_allclose(
                    linear_triple_coefficient(a, b), oracle, atol=1e-13,
                    err_msg=f"triple coefficient mismatch at ({a}, {b})",
                )


class TestPcBasis:
    def test_orthonormality_small_bases(self):
        for q, d in ((1, 4), (2, 3), (3, 4)):
            basis = PcBasis(q=q, d=d)
            gram = gram_matrix(basis)
            dev = np.abs(gram - np.eye(basis.size)).max()
            assert dev < 1e-12, f"orthonormality defect {dev:.2e} at q={q}, d={d}"

    def test_expectation_weighted_constant(self):
        basis = PcBasis(q=2, d=2)
        assert_allclose(expectation_weighted(basis, 2, 2, lambda mu: 1.0), 1.0, atol=1e-13)
        assert_allclose(expectation_weighted(basis, 0, 3, lambda mu: 1.0), 0.0, atol=1e-13)

    def test_expectation_weighted_linear(self):
        basis = PcBasis(q=1, d=2)
        j = index_of(basis, (1,))
        value = expectation_weighted(basis, 0, j, lambda mu: mu[0])
        assert_allclose(value, 1.0 / math.sqrt(3.0), rtol=1e-13)

    def test_expectation_weighted_bilinear(self):
        basis = PcBasis(q=2, d=2)
        i = index_of(basis, (1, 0))
        j = index_of(basis, (0, 1))
        value = expectation_weighted(basis, i, j, lambda mu: mu[0] * mu[1])
        assert_allclose(value, 1.0 / 3.0, rtol=1e-12)

    def test_linear_weight_matrix_identity(self):
        basis = PcBasis(q=3, d=2)
        g0 = basis.linear_weight_matrix(0).toarray()
        assert_allclose(g0, np.eye(basis.size), atol=0.0)

    def test_linear_weight_matrix_against_quadrature(self):
        basis = PcBasis(q=2, d=3)
        for k in (1, 2):
            analytic = basis.linear_weight_matrix(k).toarray()
            oracle = np.empty_like(analytic)
            for i in range(basis.size):
                for j in range(basis.size):
                    oracle[i, j] = expectation_weighted(
                        basis, i, j, lambda mu, k=k: mu[k - 1]
                    )
            assert_allclose(analytic, oracle, atol=1e-13)

    def test_linear_weight_matrix_symmetry_large_q(self):
        # the benchmark size: analytic route only, no tensor grid involved
        basis = PcBasis(q=14, d=2)
        g = basis.linear_weight_matrix(5)
        assert (g != g.T).nnz == 0
        assert g.shape == (120, 120)

    def test_weight_index_range(self):
        basis = PcBasis(q=2, d=1)
        with pytest.raises(ValueError):
            basis.linear_weight_matrix(3)

    def test_equality_and_hash_read_q_and_d(self):
        """(q, d) determine the basis, so equal arguments give equal bases and
        a basis can key a dict; its index array takes no part."""
        assert PcBasis(q=2, d=1) == PcBasis(q=2, d=1)
        assert PcBasis(q=2, d=1) != PcBasis(q=2, d=2)
        assert {PcBasis(q=2, d=1): "linear"}[PcBasis(q=2, d=1)] == "linear"

"""Shared helpers: small random systems with a known-good construction, the
arrays held by the blocks of a Schur form's T and the full T they hold, and
the traced memory peak of a call."""

from __future__ import annotations

import tracemalloc

import numpy as np
import numpy.linalg as la
import pytest

from sgmor import QuadraticOutputSystem


def make_stable_system(
    rng: np.random.Generator, m: int, n_in: int = 2, margin: float = 0.5
) -> QuadraticOutputSystem:
    """Random asymptotically stable system with a symmetric PSD output matrix.

    The spectral abscissa is pushed below -margin by a diagonal shift, so the
    Lyapunov solves stay well conditioned across seeds.
    """
    A = rng.standard_normal((m, m))
    A -= (np.max(la.eigvals(A).real) + margin + rng.uniform(0.5, 2.0)) * np.eye(m)
    B = rng.standard_normal((m, n_in))
    G = rng.standard_normal((m, m))
    N = G @ G.T + 0.1 * np.eye(m)
    return QuadraticOutputSystem(A=A, B=B, N=N)


def stored_blocks(T):
    """The arrays held by a ``lyapsylv.QuasiTriangular``: every leaf and T12."""
    if T.leaf is not None:
        yield T.leaf
        return
    yield from stored_blocks(T.T11)
    yield T.T12
    yield from stored_blocks(T.T22)


def quasi_triangular_array(T) -> np.ndarray:
    """The m x m array held by the blocks of a ``lyapsylv.QuasiTriangular``,
    Fortran-ordered and zero below them."""
    if T.leaf is not None:
        return T.leaf.copy(order="F")
    k = T.k
    full = np.zeros((T.m, T.m), order="F")
    full[:k, :k] = quasi_triangular_array(T.T11)
    full[:k, k:] = T.T12
    full[k:, k:] = quasi_triangular_array(T.T22)
    return full


def stored_doubles(T) -> int:
    """Number of doubles held by the blocks of a ``lyapsylv.QuasiTriangular``."""
    return sum(block.size for block in stored_blocks(T))


def traced_peak(fn, shape: tuple[int, ...]):
    """fn() and the peak of the memory allocated during the call, counted in
    float64 arrays of ``shape`` (an m x m matrix, a (steps, m) trajectory)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / (np.prod(shape) * np.dtype(float).itemsize)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240517)

"""Seeded property tests: random stable systems against the Kronecker oracles.

Hypothesis draws the system shape, the seed of ``make_stable_system`` and the
reduced dimension; ``derandomize`` fixes the examples, so every run checks
the same cases.  Systems above the leaf size of the blocked Bartels-Stewart
kernel are checked against scipy's unblocked solver instead, since their
Kronecker systems are too large.
"""

from __future__ import annotations

import numpy as np
import numpy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_stable_system
from test_bt_quadratic import h2_error_oracle
from test_lyapsylv import kron_sylvester, relative_error, unblocked_sylvester
from sgmor.bt_quadratic import ReducedModel, balance, gramian_cache, h2_error, truncate
from sgmor.galerkin import QuadraticOutputSystem
from sgmor.lyapsylv import LEAF, real_schur, solve_lyapunov, solve_sylvester

SEEDED = settings(derandomize=True, database=None, max_examples=40, deadline=None)

# h2_error forms the squared error as a difference of terms of size
# ||H||^2 + ||H_r||^2 and maps anything below 1e-10 of that scale to 0.  An
# error of at least 1e-3 ||H|| keeps 1e-6 of the scale, about ten digits.
RESOLVED = 1e-3
DEAD_ZONE = 1e-10


def random_system(seed: int, m: int, n_in: int) -> QuadraticOutputSystem:
    return make_stable_system(np.random.default_rng(seed), m, n_in=n_in)


systems = st.builds(
    random_system,
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 8),
    n_in=st.integers(1, 3),
)


large_systems = st.builds(
    random_system,
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(LEAF + 1, 3 * LEAF),
    n_in=st.integers(1, 3),
)


def eigvals_verdict(sys: QuadraticOutputSystem) -> bool:
    """Stability by a general eigensolve, with the threshold of ``is_stable``."""
    return bool(la.eigvals(sys.A).real.max() < -1e-12)


@SEEDED
@given(sys=systems, data=st.data())
def test_h2_error_matches_block_oracle(sys, data):
    bal = balance(sys)
    r = data.draw(st.integers(1, bal.numerical_rank), label="r")
    rom = truncate(bal, sys, r)
    value = h2_error(sys, rom, cache=bal.cache)
    oracle = h2_error_oracle(sys, rom.system)
    if value >= RESOLVED * bal.cache.norm:
        assert abs(value - oracle) <= 1e-8 * oracle, f"r={r}: {value!r} vs oracle {oracle!r}"
    else:
        # the squares agree within the dead zone plus an equal share of noise
        scale = bal.cache.norm_squared + gramian_cache(rom.system).norm_squared
        assert abs(value**2 - oracle**2) <= 2 * DEAD_ZONE * scale, f"r={r}: {value!r} vs oracle {oracle!r}"


@SEEDED
@given(sys=systems, data=st.data())
def test_stability_verdict_matches_eigensolve(sys, data):
    bal = balance(sys)
    rom = truncate(bal, sys, data.draw(st.integers(1, bal.numerical_rank), label="r"))
    assert rom.is_stable == eigvals_verdict(rom.system)
    # a shift of up to 4 moves the spectrum (abscissa in [-2.5, -1]) across the axis
    shift = data.draw(st.floats(0.0, 4.0), label="shift")
    shifted = QuadraticOutputSystem(A=sys.A + shift * np.eye(sys.m), B=sys.B, N=sys.N)
    model = ReducedModel(r=sys.m, system=shifted, V=np.eye(sys.m), W=np.eye(sys.m))
    assert model.is_stable == eigvals_verdict(shifted)


@SEEDED
@given(a=systems, f=systems, seed=st.integers(0, 2**32 - 1))
def test_sylvester_matches_kronecker(a, f, seed):
    A, F = a.A, f.A
    C = np.random.default_rng(seed).standard_normal((A.shape[0], F.shape[0]))
    oracle = kron_sylvester(A, F, C)
    for factors in ({}, {"factors_a": real_schur(A), "factors_f": real_schur(F.T)}):
        Y = solve_sylvester(A, F.T, C, **factors)
        rel = la.norm(Y - oracle) / la.norm(oracle)
        assert rel < 1e-10, f"Sylvester deviation {rel:.2e} ({'with' if factors else 'without'} factors)"


@settings(derandomize=True, database=None, max_examples=6, deadline=None)
@given(a=large_systems, r=st.integers(1, 3 * LEAF), seed=st.integers(0, 2**32 - 1))
def test_blocked_solves_match_unblocked(a, r, seed):
    rng = np.random.default_rng(seed)
    F = make_stable_system(rng, r).A
    C = rng.standard_normal((a.m, r))
    rel = relative_error(solve_sylvester(a.A, F, C), unblocked_sylvester(a.A, F, C))
    assert rel < 1e-10, f"Sylvester deviation {rel:.2e} at ({a.m}, {r})"
    # the controllability equation A X + X A^T + B B^T = 0
    C = a.B @ a.B.T
    rel = relative_error(solve_lyapunov(a.A, C), unblocked_sylvester(a.A, a.A, C))
    assert rel < 1e-10, f"Lyapunov deviation {rel:.2e} at m={a.m}"
    # the observability equation A^T X + X A + N = 0
    rel = relative_error(solve_lyapunov(a.A, a.N, transposed=True), unblocked_sylvester(a.A.T, a.A.T, a.N))
    assert rel < 1e-10, f"adjoint Lyapunov deviation {rel:.2e} at m={a.m}"

"""Seeded property tests: random stable systems against the Kronecker oracles,
the factored Lyapunov and Sylvester solves against the Kronecker and
unblocked oracles (factors of one, few, many and rank-deficient columns), the
input of ``real_schur`` left unchanged, the ground check of ``MsdConfig``
against a graph search, the definiteness check of ``assemble`` against dense
Cholesky, and the sparse first-order operator of grounded networks against
its dense matrix.

Hypothesis draws the system shape, the seed of ``make_stable_system`` and the
reduced dimension; ``derandomize`` fixes the examples, so every run checks
the same cases.  Systems above the leaf size of the blocked Bartels-Stewart
kernel are checked against scipy's unblocked solver instead, since their
Kronecker systems are too large.
"""

from __future__ import annotations

import numpy as np
import numpy.linalg as la
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from conftest import make_stable_system
from second_order import corner_definiteness_check
from test_bt_quadratic import h2_error_oracle
from test_lyapsylv import kron_lyapunov, kron_sylvester, relative_error, unblocked_sylvester
from sgmor.bt_quadratic import ReducedModel, balance, h2_error, truncate
from sgmor.errors import DefinitenessError
from sgmor.galerkin import ParametricSecondOrderSystem, QuadraticOutputSystem, assemble, to_first_order
from sgmor.lyapsylv import LEAF, real_schur, solve_lyapunov, solve_sylvester
from sgmor.msd import MsdConfig, build_msd
from sgmor.polychaos import PcBasis

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
    value = h2_error(sys, rom.system)
    oracle = h2_error_oracle(sys, rom.system)
    if value >= RESOLVED * sys.gramian.norm:
        assert abs(value - oracle) <= 1e-8 * oracle, f"r={r}: {value!r} vs oracle {oracle!r}"
    else:
        # the squares agree within the dead zone plus an equal share of noise
        scale = sys.gramian.norm_squared + rom.system.gramian.norm_squared
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
        Y = solve_sylvester(A, F.T, C, np.eye(F.shape[0]), **factors)
        rel = la.norm(Y - oracle) / la.norm(oracle)
        assert rel < 1e-10, f"Sylvester deviation {rel:.2e} ({'with' if factors else 'without'} factors)"


@settings(derandomize=True, database=None, max_examples=6, deadline=None)
@given(a=large_systems, r=st.integers(1, 3 * LEAF), seed=st.integers(0, 2**32 - 1))
def test_blocked_solves_match_unblocked(a, r, seed):
    rng = np.random.default_rng(seed)
    F = make_stable_system(rng, r).A
    C = rng.standard_normal((a.m, r))
    rel = relative_error(solve_sylvester(a.A, F, C, np.eye(r)), unblocked_sylvester(a.A, F, C))
    assert rel < 1e-10, f"Sylvester deviation {rel:.2e} at ({a.m}, {r})"
    # the controllability equation A X + X A^T + B B^T = 0
    rel = relative_error(solve_lyapunov(a.A, a.B), unblocked_sylvester(a.A, a.A, a.B @ a.B.T))
    assert rel < 1e-10, f"Lyapunov deviation {rel:.2e} at m={a.m}"
    # the observability equation A^T X + X A + N = 0, N passed as its Cholesky factor
    G = la.cholesky(a.N)
    rel = relative_error(solve_lyapunov(a.A, G, transposed=True), unblocked_sylvester(a.A.T, a.A.T, a.N))
    assert rel < 1e-10, f"adjoint Lyapunov deviation {rel:.2e} at m={a.m}"


@st.composite
def factors(draw, m: int) -> np.ndarray:
    """An m x k right-hand-side factor: k = 1, 1 < k < m, k > m, or of rank
    below min(m, k), drawn as a product G H of seeded Gaussian factors."""
    kind = draw(st.sampled_from(["k = 1", "1 < k < m", "k > m", "rank-deficient"]), label="factor")
    if kind == "k = 1":
        k = rank = 1
    elif kind == "1 < k < m":
        k = rank = draw(st.integers(2, m - 1), label="k")
    elif kind == "k > m":
        k = draw(st.integers(m + 1, 2 * m), label="k")
        rank = m
    else:
        k = draw(st.integers(2, 2 * m), label="k")
        rank = draw(st.integers(1, min(m, k) - 1), label="rank")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, k))


@SEEDED
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 8), transposed=st.booleans(), data=st.data())
def test_factored_lyapunov_matches_kronecker(seed, m, transposed, data):
    A = random_system(seed, m, 1).A
    B = data.draw(factors(m), label="B")
    X = solve_lyapunov(A, B, transposed=transposed)
    oracle = kron_lyapunov(A.T if transposed else A, B @ B.T)
    assert relative_error(X, oracle) < 1e-10, f"factor of shape {B.shape}"


@SEEDED
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 8), f=systems, data=st.data())
def test_factored_sylvester_matches_kronecker(seed, m, f, data):
    A = random_system(seed, m, 1).A
    L = data.draw(factors(m), label="L")
    R = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")).standard_normal((f.m, L.shape[1]))
    Y = solve_sylvester(A, f.A, L, R)
    oracle = kron_sylvester(A, f.A.T, L @ R.T)
    assert relative_error(Y, oracle) < 1e-10, f"factors of shapes {L.shape}, {R.shape}"


@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@given(a=large_systems, r=st.integers(1, 3 * LEAF), transposed=st.booleans(), data=st.data())
def test_blocked_factored_solves_match_unblocked(a, r, transposed, data):
    B = data.draw(factors(a.m), label="B")
    X = solve_lyapunov(a.A, B, transposed=transposed)
    A = a.A.T if transposed else a.A
    rel = relative_error(X, unblocked_sylvester(A, A, B @ B.T))
    assert rel < 1e-10, f"Lyapunov deviation {rel:.2e} at m={a.m}, factor of shape {B.shape}"
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    F = make_stable_system(rng, r).A
    R = rng.standard_normal((r, B.shape[1]))
    rel = relative_error(solve_sylvester(a.A, F, B, R), unblocked_sylvester(a.A, F, B @ R.T))
    assert rel < 1e-10, f"Sylvester deviation {rel:.2e} at ({a.m}, {r}), factors of shapes {B.shape}, {R.shape}"


@SEEDED
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 2 * LEAF), fortran=st.booleans())
def test_real_schur_leaves_its_input_unchanged(seed, m, fortran):
    A = np.random.default_rng(seed).standard_normal((m, m))
    if fortran:
        A = np.asfortranarray(A)
    before = A.copy()
    fac = real_schur(A)
    # a Fortran-ordered float array is what LAPACK could overwrite in place
    assert np.array_equal(A, before)
    assert not np.shares_memory(fac.T, A)
    assert relative_error(fac.U @ fac.T @ fac.U.T, A) < 1e-12


@st.composite
def msd_networks(draw) -> dict:
    """MsdConfig arguments of 1 to 5 masses: a grounded input spring, up to
    n + 1 more springs between any two endpoints, and up to three dampers
    anywhere, so K may be singular and D singular or zero.
    """
    n = draw(st.integers(1, 5), label="masses")
    value = st.floats(0.1, 10.0)
    ends = st.sampled_from([(a, b) for a in range(n + 1) for b in range(a + 1, n + 1)])
    springs = [(0, draw(st.integers(1, n)), draw(value))]
    springs += [(*draw(ends), draw(value)) for _ in range(draw(st.integers(0, n + 1)))]
    dampers = [(*draw(ends), draw(value)) for _ in range(draw(st.integers(0, 3)))]
    return dict(
        masses=tuple(draw(value) for _ in range(n)),
        springs=tuple(springs),
        dampers=tuple(dampers),
        input_spring=1,
        delta=draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True), label="delta"),
    )


def grounded(network: dict) -> bool:
    """True if every mass is in the ground's connected component of the spring graph."""
    n = len(network["masses"])
    a, b = np.array([spring[:2] for spring in network["springs"]]).T
    graph = coo_matrix((np.ones(a.size), (a, b)), shape=(n + 1, n + 1))
    _, component = connected_components(graph, directed=False)
    return bool(np.all(component == component[0]))


@SEEDED
@given(network=msd_networks())
def test_config_rejects_exactly_the_ungrounded_networks(network):
    if grounded(network):
        MsdConfig(**network)
    else:
        with pytest.raises(ValueError, match="no spring path to the ground"):
            MsdConfig(**network)


grounded_msd_systems = msd_networks().filter(grounded).map(lambda network: build_msd(MsdConfig(**network)))


def random_affine_system(seed: int, n: int, q: int, spread: float) -> ParametricSecondOrderSystem:
    """Affine system with random symmetric terms whose q variations add up to
    at most ``spread`` times the norm of the nominal term (at least 1), so
    definiteness is lost for some draws and kept for others.

    The nominal M and K are positive definite (a Gram matrix plus I); the
    nominal D is a Gram matrix of random rank, zero included.
    """
    rng = np.random.default_rng(seed)

    def family(rank):
        x = rng.standard_normal((n, rank))
        nominal = x @ x.T + (rank == n) * np.eye(n)
        scale = spread * max(la.norm(nominal, 2), 1.0) / q
        terms = [nominal]
        for _ in range(q):
            s = rng.standard_normal((n, n))
            terms.append(scale * (s + s.T) / la.norm(s + s.T, 2))
        return tuple(0.5 * (t + t.T) for t in terms)

    return ParametricSecondOrderSystem(
        M_terms=family(n), D_terms=family(int(rng.integers(0, n + 1))), K_terms=family(n),
        B=rng.standard_normal((n, 1)),
    )


affine_systems = st.builds(
    random_affine_system,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    q=st.integers(1, 3),
    spread=st.floats(0.0, 2.0),
)


def dense_galerkin(terms, basis: PcBasis) -> np.ndarray:
    """sum_k G_k (x) A_k with the dense weight matrices G_k of the basis."""
    return sum(np.kron(basis.linear_weight_matrix(k).toarray(), term) for k, term in enumerate(terms))


def cholesky_succeeds(a: np.ndarray) -> bool:
    try:
        la.cholesky(a)
        return True
    except la.LinAlgError:
        return False


@SEEDED
@given(sys=st.one_of(grounded_msd_systems, affine_systems), d=st.integers(0, 2))
def test_definiteness_check_matches_dense_cholesky(sys, d):
    basis = PcBasis(q=sys.q, d=d)
    M, D, K = (dense_galerkin(terms, basis) for terms in (sys.M_terms, sys.D_terms, sys.K_terms))
    shift = 1e-12 * np.abs(D).max()
    verdicts = {
        "M": cholesky_succeeds(M),
        "K": cholesky_succeeds(K),
        "damping": not shift or cholesky_succeeds(D + shift * np.eye(len(D))),
    }
    # assemble checks M, then K, then D and raises on the first failure
    expected = next((name for name, ok in verdicts.items() if not ok), None)
    try:
        assemble(sys, basis)
        rejected = None
    except DefinitenessError as exc:
        rejected = str(exc).split()[1]
    assert rejected == expected, f"assemble rejected {rejected}, dense Cholesky fails on {expected}"
    # the corner check's D clause has an absolute floor, so only M and K compare
    if corner_definiteness_check(sys):
        assert rejected not in ("M", "K"), f"corner check accepts, assemble rejects {rejected}"


@SEEDED
@given(
    sys=grounded_msd_systems, d=st.integers(0, 2), omega=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_first_order_operator_matches_dense(sys, d, omega, seed):
    g = assemble(sys, PcBasis(q=sys.q, d=d))
    fom = to_first_order(g)
    A = fom.A.toarray()
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((fom.m, 3))
    assert relative_error(fom.A @ X, A @ X) < 1e-12
    assert relative_error(fom.A.T @ X, A.T @ X) < 1e-12
    b = rng.standard_normal(fom.m)
    # 200 is 2/h of the benchmark's trapezoid step; 0 is a finite Arnoldi shift
    for shift in (omega, 0.0, 200.0):
        oracle = la.solve(shift * np.eye(fom.m) - A, b)
        err = relative_error(fom.shift_inverse(shift)(b), oracle)
        assert err < 1e-10, f"shifted solve at omega={shift}: relative error {err:.2e}"
    # A^T N + N A = blkdiag(0, -2 D), with A^T N = (N A)^T applied by the operator
    S = fom.A.T @ fom.N.toarray()
    expected = np.zeros_like(S)
    expected[g.dimension:, g.dimension:] = -2.0 * g.D.toarray()
    scale = max(abs(g.K).max(), abs(g.D).max())
    assert np.abs(S + S.T - expected).max() <= 1e-12 * scale

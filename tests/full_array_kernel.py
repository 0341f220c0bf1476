"""The Bartels-Stewart recursion on a full quasi-triangular array.

``sgmor.lyapsylv`` holds T as its ``QuasiTriangular`` blocks and its
kernels read (k, T11, T12, T22) from them.  These are the same recursions
reading the same blocks as slices of one full T, with the same leaf, split,
strips and products, so a solve on the blocks must equal a solve here
bitwise.
"""

from __future__ import annotations

from sgmor.lyapsylv import LEAF, _leaf, _split, _strips, gemm


def blocked_trsyl(Ta, Tf, R, transposed: bool, work) -> None:
    """Overwrite R with Z solving op(Ta) Z + Z op(Tf)^T = R, Ta and Tf full arrays."""
    m, n = R.shape
    if max(m, n) <= LEAF:
        _leaf(Ta, Tf, R, transposed)
        return
    if n > m:
        blocked_trsyl(Tf, Ta, R.T, transposed, work)
        return
    k = _split(Ta)
    if transposed:
        first, second, coupling = slice(0, k), slice(k, m), Ta[:k, k:].T
    else:
        first, second, coupling = slice(k, m), slice(0, k), Ta[:k, k:]
    Z1, R2 = R[first], R[second]
    blocked_trsyl(Ta[first, first], Tf, Z1, transposed, work)
    for J, out in _strips(*R2.shape, work):
        R2[:, J] -= gemm(coupling, Z1[:, J], out)
    blocked_trsyl(Ta[second, second], Tf, R2, transposed, work)


def blocked_lyapunov(T, R, transposed: bool, work) -> None:
    """Overwrite the symmetric R with Z solving op(T) Z + Z op(T)^T = R, T a full array."""
    m = R.shape[0]
    if m <= LEAF:
        _leaf(T, T, R, transposed)
        R[...] = 0.5 * (R + R.T)
        return
    k = _split(T)
    first, second = (slice(0, k), slice(k, m)) if transposed else (slice(k, m), slice(0, k))
    Z1, R2, R12, T12 = R[first, first], R[second, second], R[:k, k:], T[:k, k:]
    blocked_lyapunov(T[first, first], Z1, transposed, work)
    for J, out in _strips(*R12.shape, work):
        R12[:, J] -= gemm(Z1, T12[:, J], out) if transposed else gemm(T12, Z1[:, J], out)
    blocked_trsyl(T[:k, :k], T[k:, k:], R12, transposed, work)
    for I, out in _strips(*R2.shape, work):
        g = gemm(T12.T, R12[:, I], out) if transposed else gemm(T12, R12[I].T, out)
        R2[:, I] -= g
        R2[I] -= g.T
    blocked_lyapunov(T[second, second], R2, transposed, work)
    R[k:, :k] = R12.T

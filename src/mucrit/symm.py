"""Power sums, complete homogeneous symmetric values, the minimal
nonvanishing power-sum indices of a set, and the shift that recenters it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .fp import FpSet, inverse_mod
from .poly import _series_inverse, from_roots


def power_sums_int(A: FpSet, K: int) -> List[int]:
    """[p_0, ..., p_K] with p_k = sum of k-th powers; p_0 = |A| mod p."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    p = A.p
    out = [len(A) % p] + [0] * K
    for a in A:
        cur = 1
        for k in range(1, K + 1):
            cur = cur * a % p
            out[k] = (out[k] + cur) % p
    return out


def complete_homogeneous(A: FpSet, m: int) -> int:
    """h_m(A), the u^m coefficient of 1 / prod_a (1 - a u); that product is
    the monic polynomial with root set A, its coefficients reversed."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    denom = from_roots(A).coeffs[::-1] if len(A) else [1]
    return _series_inverse(denom, m + 1, A.p)[m]


def minimal_indices(A: FpSet) -> Tuple[int, Optional[int]]:
    """(n, m): n = least k > 0 with p_k != 0; m = least k <= |A| with
    p_k != 0 and n not dividing k, or None when no such k exists."""
    alpha = len(A)
    if alpha < 1 or alpha >= A.p:
        raise ValueError("minimal_indices requires 1 <= |A| < p")
    ps = power_sums_int(A, alpha)
    n = None
    for k in range(1, alpha + 1):
        if ps[k] != 0:
            n = k
            break
    if n is None:
        # possible only for A = {0}; every elementary symmetric value vanishes
        raise ValueError("all power sums vanish; the set has no minimal index")
    m = None
    for k in range(n + 1, alpha + 1):
        if ps[k] != 0 and k % n != 0:
            m = k
            break
    return n, m


def recentering_shift(A: FpSet) -> int:
    """The shift t = -p_1(A)/|A| after which A + t has vanishing first power sum."""
    p = A.p
    alpha = len(A) % p
    if alpha == 0:
        raise ZeroDivisionError("cannot recenter: |A| = 0 mod p")
    return (-sum(A) * inverse_mod(alpha, p)) % p


def recenter(A: FpSet) -> FpSet:
    """Translate A so its first power sum vanishes."""
    return A.translate(recentering_shift(A))

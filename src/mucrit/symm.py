"""Power sums, elementary/complete homogeneous symmetric values, Newton
conversions, and the minimal nonvanishing indices of a set.

Sign convention, asserted in the test suite: for a set A, from_roots(A, 1)
has coefficient (-1)^k e_k(A) at degree |A| - k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .fp import FieldElem, FpSet, inverse_mod
from .poly import TruncatedSeries, from_roots

P_TO_E = "p->e"
P_TO_H = "p->h"
E_TO_P = "e->p"


def power_sums(A: FpSet, K: int) -> List[FieldElem]:
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
    return [FieldElem(v, p) for v in out]


def power_sums_int(A: FpSet, K: int) -> List[int]:
    return [e.v for e in power_sums(A, K)]


def complete_homogeneous(A: FpSet, m: int) -> FieldElem:
    """h_m(A), read off the truncated series of 1 / prod_a (1 - a x)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    p = A.p
    denom = [1]
    for a in A:
        nxt = [0] * min(len(denom) + 1, m + 1)
        for i, c in enumerate(denom):
            if i < len(nxt):
                nxt[i] = (nxt[i] + c) % p
            if i + 1 < len(nxt):
                nxt[i + 1] = (nxt[i + 1] - c * a) % p
        denom = nxt
    series = TruncatedSeries(p, 0, 0, denom, m + 1).inverse()
    return series.coefficient(m)


def newton_convert(values: Sequence, direction: str) -> List[FieldElem]:
    """Convert between power sums and elementary/complete homogeneous values.

    Input and output lists are indexed from 0; index 0 is |A| mod p on the
    power-sum side and 1 on the e/h side.  Directions: "p->e", "p->h", "e->p".
    Raises when a required division by k hits a multiple of p.
    """
    if not values:
        return []
    first = values[0]
    if not isinstance(first, FieldElem):
        raise TypeError("newton_convert expects FieldElem values")
    p = first.p
    vals = [v.v if isinstance(v, FieldElem) else int(v) % p for v in values]
    K = len(vals) - 1
    out = [0] * (K + 1)
    if direction == P_TO_E:
        out[0] = 1
        for k in range(1, K + 1):
            if k % p == 0:
                raise ZeroDivisionError(f"Newton conversion divides by {k} = 0 mod {p}")
            acc = 0
            for i in range(1, k + 1):
                term = out[k - i] * vals[i] % p
                acc = (acc - term if i % 2 == 0 else acc + term) % p
            out[k] = acc * inverse_mod(k, p) % p
    elif direction == P_TO_H:
        out[0] = 1
        for k in range(1, K + 1):
            if k % p == 0:
                raise ZeroDivisionError(f"Newton conversion divides by {k} = 0 mod {p}")
            acc = 0
            for i in range(1, k + 1):
                acc = (acc + out[k - i] * vals[i]) % p
            out[k] = acc * inverse_mod(k, p) % p
    elif direction == E_TO_P:
        # p_k = (-1)^(k-1) k e_k + sum_{i=1}^{k-1} (-1)^(k-1-i) e_{k-i} p_i
        out[0] = vals[0]  # conventionally |A|; caller supplies e_0 = 1 slot
        pk = [0] * (K + 1)
        for k in range(1, K + 1):
            acc = k * vals[k] % p
            if k % 2 == 0:
                acc = (-acc) % p
            for i in range(1, k):
                term = vals[k - i] * pk[i] % p
                if (k - i) % 2 == 0:
                    term = (-term) % p
                acc = (acc + term) % p
            pk[k] = acc
            out[k] = acc
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return [FieldElem(v, p) for v in out]


def elementary_from_set(A: FpSet) -> List[FieldElem]:
    """[e_0, ..., e_alpha] read off the coefficients of from_roots(A, 1)."""
    p = A.p
    alpha = len(A)
    f = from_roots(A, 1)
    out = []
    for k in range(alpha + 1):
        c = f[alpha - k]
        if k % 2 == 1:
            c = (-c) % p
        out.append(FieldElem(c, p))
    return out


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


@dataclass(frozen=True)
class SymProfile:
    """Bundle of symmetric data for one set."""

    set: FpSet
    p_k: Tuple[FieldElem, ...]
    e_k: Tuple[FieldElem, ...]
    h_k: Tuple[FieldElem, ...]
    n: int
    m: Optional[int]


def profile(A: FpSet, K: Optional[int] = None) -> SymProfile:
    """Full symmetric profile of A; K defaults to |A|."""
    if K is None:
        K = len(A)
    pk = power_sums(A, K)
    ek = elementary_from_set(A)
    hk = [complete_homogeneous(A, m) for m in range(K + 1)]
    n, m = minimal_indices(A)
    return SymProfile(A, tuple(pk), tuple(ek), tuple(hk), n, m)


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

"""Prime-field arithmetic: elements, sets, primality, roots of unity and
their exponent index, binomials.

Everything downstream (polynomials, symmetric functions, searches) sits on the
two value types defined here:

* ``FieldElem`` -- a canonical residue mod a prime p, a value carrier for
  results at the API edge (arithmetic runs on plain ints).
* ``FpSet``     -- a sorted, duplicate-free set of residues sharing one modulus.

Values are immutable after construction and safe to share across workers.
Moduli are capped at 63 bits; a zero denominator anywhere raises, it is never
a sentinel.
"""

from __future__ import annotations

import functools
import operator
from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

MAX_MODULUS_BITS = 63

# Deterministic Miller-Rabin witness set, valid for every n < 3.3 * 10^24,
# which covers all 64-bit inputs.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The witnesses are every prime up to 37, so trial division by them alone
# decides primality below 41^2, the square of the next prime.
_TRIAL_BOUND = 41 * 41


def is_prime(n: int) -> bool:
    """Deterministic primality test for 64-bit integers."""
    if n < 0:
        raise ValueError("is_prime expects a nonnegative integer")
    if n >= 1 << 64:
        raise ValueError("is_prime supports inputs below 2**64")
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    if n < _TRIAL_BOUND:
        return True  # no prime factor up to 37, so none below sqrt(n) < 41
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _require_prime(p: int) -> int:
    if p.bit_length() > MAX_MODULUS_BITS:
        raise ValueError(f"modulus {p} exceeds {MAX_MODULUS_BITS} bits")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


def inverse_mod(x: int, p: int) -> int:
    """Inverse of x mod p (builtin modular ``pow``); raises on zero."""
    x %= p
    if x == 0:
        raise ZeroDivisionError(f"zero is not invertible mod {p}")
    return pow(x, -1, p)


class FieldElem:
    """A residue mod a prime p, kept canonical in [0, p).

    It carries no arithmetic: callers compute on ``.v`` and wrap the result.
    It compares equal to a ``FieldElem`` of the same modulus or to a plain int
    congruent to it.
    """

    __slots__ = ("p", "v")

    def __init__(self, value: int, p: int):
        _require_prime(p)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "v", value % p)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElem is immutable")

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __int__(self):
        return self.v

    def __repr__(self):
        return f"FieldElem({self.v} mod {self.p})"

    def is_zero(self) -> bool:
        return self.v == 0


class FpSet:
    """Sorted duplicate-free subset of F_p, shared modulus: the modulus and
    the sorted tuple ``elems``, nothing else, so its size never grows with p.

    Input values are reduced mod p and deduplicated (set semantics).
    Membership bisects ``elems``.
    """

    __slots__ = ("p", "elems")

    def __init__(self, p: int, values: Iterable[int] = ()):
        _require_prime(p)
        vals = sorted({int(v) % p for v in values})
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "elems", tuple(vals))

    @classmethod
    def _make(cls, p: int, elems: Tuple[int, ...]) -> "FpSet":
        """Trusted constructor for sets computed inside the package: ``p`` is a
        modulus already checked prime and ``elems`` a sorted tuple of
        distinct ints already in [0, p).  Nothing is re-checked."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "p", p)
        object.__setattr__(obj, "elems", elems)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("FpSet is immutable")

    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elems)

    def __contains__(self, v) -> bool:
        if isinstance(v, FieldElem):
            if v.p != self.p:
                raise ValueError(f"mixed moduli {self.p} and {v.p}")
            v = v.v
        v = int(v) % self.p
        elems = self.elems
        i = bisect_left(elems, v)
        return i < len(elems) and elems[i] == v

    def __eq__(self, other):
        return (
            isinstance(other, FpSet) and self.p == other.p and self.elems == other.elems
        )

    def __hash__(self):
        return hash((self.p, self.elems))

    def __repr__(self):
        return f"FpSet(p={self.p}, {{{', '.join(map(str, self.elems))}}})"

    def translate(self, t: int) -> "FpSet":
        p = self.p
        t = int(t) % p
        return FpSet._make(p, tuple(sorted([(v + t) % p for v in self.elems])))

    def __neg__(self) -> "FpSet":
        p = self.p
        return FpSet._make(p, tuple(sorted([-v % p for v in self.elems])))

    def _same_field(self, other: "FpSet") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")

    def diffset(self, other: "FpSet") -> "FpSet":
        """The set {a - b : a in self, b in other}."""
        self._same_field(other)
        p = self.p
        return FpSet(p, ((a - b) % p for a in self.elems for b in other.elems))


@functools.lru_cache(maxsize=None)
def _factorize(n: int) -> tuple:
    fs = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            fs.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        fs.append(n)
    return tuple(fs)


@functools.lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    """Smallest generator of the cyclic group F_p*."""
    _require_prime(p)
    if p == 2:
        return 1
    n = p - 1
    factors = _factorize(n)
    g = 2
    while True:
        if all(pow(g, n // q, p) != 1 for q in factors):
            return g
        g += 1


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p (Tonelli-Shanks); raises if
    a is not a square."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # c generates the 2-Sylow subgroup; t = a^q lies in it, and r^2 = a t
    c = pow(primitive_root(p), q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        r, c = r * b % p, b * b % p
        t, s = t * c % p, i
    return r


def subgroup_index(p: int, d: int) -> Tuple[int, Tuple[int, ...], Dict[int, int]]:
    """The exponent index of mu_d, the subgroup of d-th roots of unity in
    F_p*; requires d | p-1.

    Returns (eta, powers, log): the generator eta = g^((p-1)/d) of mu_d, with
    g the least primitive root, so the index is the same on every call; the
    tuple powers[k] = eta^k for 0 <= k < d; and the map log[eta^k] = k.
    Scaling by eta^j is then the rotation k -> k + j (mod d) of exponents."""
    _require_prime(p)
    if d <= 0:
        raise ValueError("d must be positive")
    if (p - 1) % d != 0:
        raise ValueError(f"d={d} does not divide p-1={p - 1}")
    eta = pow(primitive_root(p), (p - 1) // d, p)
    powers = [1] * d
    for k in range(1, d):
        powers[k] = powers[k - 1] * eta % p
    log = {x: k for k, x in enumerate(powers)}
    if len(log) != d:
        raise AssertionError(f"eta = {eta} has order below d = {d} mod {p}")
    return eta, tuple(powers), log


@functools.lru_cache(maxsize=None)
def roots_of_unity(p: int, d: int) -> FpSet:
    """The subgroup mu_d of d-th roots of unity in F_p*; requires d | p-1.
    Cached: an ``FpSet`` is immutable, so callers share one per (p, d)."""
    return FpSet(p, subgroup_index(p, d)[1])


def _binom_small(n: int, k: int, p: int) -> int:
    # n < p guaranteed: no factor below is divisible by p
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    num = den = 1
    for j in range(1, k + 1):
        num = num * (n - k + j) % p
        den = den * j % p
    return num * pow(den, -1, p) % p


def binom_mod(n: int, k: int, p: int) -> FieldElem:
    """Binomial coefficient C(n, k) mod p.

    For n < p this is a product of min(k, n-k) factors over one inversion;
    for n >= p the base-p digit product rule (Lucas) applies.
    """
    _require_prime(p)
    if k < 0 or k > n:
        raise ValueError(f"binom_mod requires 0 <= k <= n, got n={n}, k={k}")
    result = 1
    while n or k:
        nd, n = n % p, n // p
        kd, k = k % p, k // p
        if kd > nd:
            return FieldElem(0, p)
        result = result * _binom_small(nd, kd, p) % p
    return FieldElem(result, p)


def batch_inverse_ints(values: Sequence[int], p: int) -> List[int]:
    """Inverses of a list of nonzero residues, one field inversion total."""
    n = len(values)
    if n == 0:
        return []
    prefix = [0] * n
    acc = 1
    for i, v in enumerate(values):
        v %= p
        if v == 0:
            raise ZeroDivisionError("batch inversion of zero")
        acc = acc * v % p
        prefix[i] = acc
    inv = pow(acc, -1, p)
    out = [0] * n
    for i in range(n - 1, 0, -1):
        out[i] = inv * prefix[i - 1] % p
        inv = inv * (values[i] % p) % p
    out[0] = inv
    return out


def inverse_power_sums(values: Sequence[int], p: int, J: int) -> List[int]:
    """[sum v^-1, ..., sum v^-J] mod p (J >= 1) over nonzero residues, from one
    batched inversion; all zeros for an empty list, ``ZeroDivisionError`` on a
    zero."""
    inv = batch_inverse_ints(values, p)
    out = [sum(inv) % p]
    cur = inv
    for _ in range(1, J):
        # exact powers of the reduced inverses: only each sum is reduced
        cur = list(map(operator.mul, cur, inv))
        out.append(sum(cur) % p)
    return out


def inverse_table(p: int, n: int) -> List[int]:
    """Inverses of 1..n mod p via the standard linear recurrence.

    Index i holds the inverse of i; index 0 is unused.  Requires n < p.
    """
    _require_prime(p)
    if n >= p:
        raise ValueError("inverse_table needs n < p")
    inv = [0] * (n + 1)
    if n >= 1:
        inv[1] = 1
    for i in range(2, n + 1):
        inv[i] = -(p // i) * inv[p % i] % p
    return inv

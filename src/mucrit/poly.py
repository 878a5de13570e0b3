"""Dense univariate polynomials over F_p, power series on coefficient lists,
and truncated Laurent series.

``FpPoly`` stores coefficients low-degree first as plain ints in [0, p), with
no trailing zeros; the zero polynomial is the empty tuple.  Degrees in this
project stay below p, so the dense representation is all that is needed.

``taylor_at`` returns the coefficients of f in powers of (x - a) as a list.
``_series_inverse`` expands 1/f on such a list and ``_series_ratio`` num/den;
every 1/f expansion in the package goes through ``_series_inverse``.

``TruncatedSeries`` represents sum_j c_j (x - center)^(start+j) + O((x-center)^order),
with ``center`` either a residue or the AT_INFINITY sentinel (in which case the
local parameter is 1/x and exponent j means x^(-j)).  It backs only
``residue_at_infinity`` and the result of ``log_derivative_series``.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

from .fp import FpSet, _index, _require_prime, inverse_mod


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "AT_INFINITY"


AT_INFINITY = _Infinity()

Center = Union[int, _Infinity]

_new = object.__new__
_set = object.__setattr__


class FpPoly:
    """Dense polynomial over F_p, coefficients low-degree first."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[int] = ()):
        _require_prime(p)
        _fill_poly(self, p, [_index(c) % p for c in coeffs])

    @classmethod
    def _make(cls, p: int, cs: List[int]) -> "FpPoly":
        """Trusted constructor for results computed inside this module: ``p``
        is the modulus of an existing polynomial and ``cs`` is a fresh list of
        ints already in [0, p).  Only trailing zeros are dropped."""
        obj = _new(cls)
        _fill_poly(obj, p, cs)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("FpPoly is immutable")

    @classmethod
    def zero(cls, p: int) -> "FpPoly":
        return cls(p, ())

    @classmethod
    def one(cls, p: int) -> "FpPoly":
        return cls(p, (1,))

    @classmethod
    def x(cls, p: int) -> "FpPoly":
        return cls(p, (0, 1))

    @classmethod
    def monomial(cls, p: int, coeff: int, degree: int) -> "FpPoly":
        return cls(p, [0] * degree + [coeff])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, j: int) -> int:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _same_field(self, other: "FpPoly") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")

    def __eq__(self, other):
        return (
            isinstance(other, FpPoly) and self.p == other.p and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return f"FpPoly(p={self.p}, 0)"
        terms = []
        for j, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{j}" if j else str(c))
        return f"FpPoly(p={self.p}, {' + '.join(terms)})"

    def __add__(self, other: "FpPoly") -> "FpPoly":
        self._same_field(other)
        p = self.p
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [(x + y) % p for x, y in zip(a, b)]
        out += a[len(b):]
        return FpPoly._make(p, out)

    def __sub__(self, other: "FpPoly") -> "FpPoly":
        return self + (-other)

    def __neg__(self) -> "FpPoly":
        p = self.p
        return FpPoly._make(p, [(-c) % p for c in self.coeffs])

    def __mul__(self, other) -> "FpPoly":
        p = self.p
        if isinstance(other, int):
            return FpPoly._make(p, [c * other % p for c in self.coeffs])
        self._same_field(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FpPoly._make(p, [])
        # accumulate exact products and reduce once per coefficient
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    out[j] += ai * bj
        return FpPoly._make(p, [c % p for c in out])

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "FpPoly":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = FpPoly.one(self.p)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def eval_int(self, x: int) -> int:
        p = self.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def derivative(self) -> "FpPoly":
        p = self.p
        return FpPoly._make(p, [j * c % p for j, c in enumerate(self.coeffs) if j > 0])

    def monic(self) -> "FpPoly":
        if not self.coeffs or self.coeffs[-1] == 1:
            return self
        inv = inverse_mod(self.coeffs[-1], self.p)
        return self * inv

    def divmod(self, other: "FpPoly") -> Tuple["FpPoly", "FpPoly"]:
        self._same_field(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        b = other.coeffs
        db = len(b) - 1
        if len(self.coeffs) <= db:
            return FpPoly._make(p, []), self
        rem = list(self.coeffs)
        if b[-1] == 1:
            q = _divide_in_place(rem, b, p)
        else:
            # f = (b / lead) q' + r, so the quotient by b is q' / lead
            inv = pow(b[-1], -1, p)
            q = _divide_in_place(rem, [c * inv % p for c in b], p)
            q = [c * inv % p for c in q]
        return FpPoly._make(p, q), FpPoly._make(p, [c % p for c in rem[:db]])

    def __floordiv__(self, other: "FpPoly") -> "FpPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "FpPoly") -> "FpPoly":
        return self.divmod(other)[1]

    def synth_div(self, a: int) -> Tuple["FpPoly", int]:
        """Divide by (x - a): returns (quotient, remainder), remainder = f(a)."""
        p = self.p
        a %= p
        out = []
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * a + c) % p
            out.append(acc)
        if not out:
            return FpPoly._make(p, []), 0
        r = out.pop()
        out.reverse()
        return FpPoly._make(p, out), r


def _fill_poly(obj: FpPoly, p: int, cs: List[int]) -> None:
    while cs and cs[-1] == 0:
        cs.pop()
    _set(obj, "p", p)
    _set(obj, "coeffs", tuple(cs))


def _divide_in_place(rem: List[int], b: Sequence[int], p: int) -> List[int]:
    """Divide ``rem`` by the monic ``b`` in place and return the quotient;
    rem[:deg b] is left holding the remainder as exact integers.  A
    coefficient of ``rem`` is reduced only when it becomes the leading one,
    and is then the quotient coefficient: no inverse is needed."""
    db = len(b) - 1
    low = b[:-1]
    q = [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % p
        if c == 0:
            continue
        q[i - db] = c
        for j, bj in enumerate(low, i - db):
            rem[j] -= c * bj
    return q


def _monic(cs: List[int], p: int) -> List[int]:
    """``cs`` (exact ints) reduced mod p, with its trailing zeros dropped and
    scaled to leading coefficient 1; [] for the zero polynomial.  ``cs`` is
    consumed."""
    while cs and cs[-1] % p == 0:
        cs.pop()
    if not cs:
        return cs
    inv = pow(cs[-1], -1, p)
    return [c * inv % p for c in cs]


def _gcd_list(a: List[int], b: List[int], p: int) -> List[int]:
    """Monic gcd of two coefficient lists by Euclid; both are consumed.

    Each remainder is reduced and made monic, by one inverse, as it becomes
    the divisor, so the elimination has no inversion inside it: a quotient
    coefficient is the reduced leading coefficient itself.  The loop writes
    out ``_divide_in_place`` and ``_monic`` rather than calling them: the two
    calls a step would make take about a fifth of a gcd's time."""
    b = _monic(b, p)
    while b:
        db = len(b) - 1
        if len(a) > db:
            low = b[:-1]
            for i in range(len(a) - 1, db - 1, -1):
                c = a[i] % p
                if c:
                    for j, bj in enumerate(low, i - db):
                        a[j] -= c * bj
            del a[db:]
        while a and a[-1] % p == 0:
            a.pop()
        if a:
            inv = pow(a[-1], -1, p)
            a = [c * inv % p for c in a]
        a, b = b, a
    return _monic(a, p)


def poly_gcd(a: FpPoly, b: FpPoly) -> FpPoly:
    """Monic gcd via Euclid on coefficient lists (``_gcd_list``); one
    ``FpPoly`` is built, for the result."""
    a._same_field(b)
    return FpPoly._make(a.p, _gcd_list(list(a.coeffs), list(b.coeffs), a.p))


def from_roots(roots: FpSet, multiplicity: int = 1) -> FpPoly:
    """Monic polynomial with the given root set, each root repeated
    ``multiplicity`` times."""
    if len(roots) == 0:
        raise ValueError("from_roots requires a nonempty root set")
    if multiplicity < 1:
        raise ValueError("multiplicity must be positive")
    p = roots.p
    out = [1]
    for r in roots:
        neg = (-r) % p
        for _ in range(multiplicity):
            nxt = [0] * (len(out) + 1)
            for i, c in enumerate(out):
                nxt[i + 1] = (nxt[i + 1] + c) % p
                nxt[i] = (nxt[i] + c * neg) % p
            out = nxt
    return FpPoly._make(p, out)


class TruncatedSeries:
    """Truncated Laurent series at a finite center or at infinity.

    Represents sum_{j} coeffs[j] * u^(start+j) + O(u^order) where u is
    (x - center) for a finite center and 1/x at infinity.  ``order`` is
    exclusive: exponents >= order are unknown.
    """

    __slots__ = ("p", "center", "start", "coeffs", "order")

    def __init__(self, p: int, center: Center, start: int, coeffs: Sequence[int], order: int):
        _require_prime(p)
        if not isinstance(center, _Infinity):
            center = _index(center) % p
        _fill_series(self, p, center, start, [_index(c) % p for c in coeffs], order)

    @classmethod
    def _make(
        cls, p: int, center: Center, start: int, cs: List[int], order: int
    ) -> "TruncatedSeries":
        """Trusted constructor for results computed inside this module: ``p``
        and ``center`` come from an existing series or polynomial and ``cs``
        is a fresh list of ints already in [0, p)."""
        obj = _new(cls)
        _fill_series(obj, p, center, start, cs, order)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def _compat(self, other: "TruncatedSeries") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")
        if self.center != other.center:
            raise ValueError("series have different centers")

    def coefficient(self, j: int) -> int:
        """Coefficient of u^j; raises if j is beyond the truncation order."""
        if j >= self.order:
            raise ValueError(f"exponent {j} at or beyond truncation order {self.order}")
        if j < self.start or j >= self.start + len(self.coeffs):
            return 0
        return self.coeffs[j - self.start]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.p == other.p
            and self.center == other.center
            and self.start == other.start
            and self.coeffs == other.coeffs
            and self.order == other.order
        )

    def __repr__(self):
        at = "inf" if isinstance(self.center, _Infinity) else self.center
        return (
            f"TruncatedSeries(p={self.p}, center={at}, start={self.start}, "
            f"coeffs={list(self.coeffs)}, O(u^{self.order}))"
        )

    def __mul__(self, other) -> "TruncatedSeries":
        p = self.p
        if isinstance(other, int):
            return TruncatedSeries._make(
                p, self.center, self.start, [c * other % p for c in self.coeffs], self.order
            )
        self._compat(other)
        # f known mod u^o1 with valuation v1, g mod u^o2 with valuation v2:
        # f*g is known mod u^min(o1+v2, o2+v1)
        v1 = self.start if self.coeffs else self.order
        v2 = other.start if other.coeffs else other.order
        order = min(self.order + v2, other.order + v1)
        if not self.coeffs or not other.coeffs:
            return TruncatedSeries._make(p, self.center, order, [], order)
        start = self.start + other.start
        n = min(len(self.coeffs) + len(other.coeffs) - 1, order - start)
        out = [0] * n
        b = other.coeffs
        for i, a in enumerate(self.coeffs[:n]):
            if a:
                for j, bj in enumerate(b[: n - i], i):
                    out[j] += a * bj
        return TruncatedSeries._make(p, self.center, start, [c % p for c in out], order)

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; the lowest known coefficient must be nonzero."""
        if not self.coeffs:
            raise ZeroDivisionError("cannot invert a series with no known terms")
        v = self.start
        # 1/f has valuation -v; its unit part is known to order - v terms, so
        # 1/f is known mod u^(order - 2v)
        out = _series_inverse(self.coeffs, self.order - v, self.p)
        return TruncatedSeries._make(self.p, self.center, -v, out, self.order - 2 * v)


def _fill_series(
    obj: TruncatedSeries, p: int, center: Center, start: int, cs: List[int], order: int
) -> None:
    # normalize: drop leading zeros (raising start), clip at order
    lead = 0
    while lead < len(cs) and cs[lead] == 0:
        lead += 1
    if lead:
        del cs[:lead]
        start += lead
    if start + len(cs) > order:
        del cs[max(order - start, 0):]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        start = order
    _set(obj, "p", p)
    _set(obj, "center", center)
    _set(obj, "start", start)
    _set(obj, "coeffs", tuple(cs))
    _set(obj, "order", order)


def taylor_at(f: FpPoly, a: int, order: int) -> List[int]:
    """The coefficients of f in powers of (x - a) below the given exclusive
    order, padded with zeros to ``order`` entries.

    Computed by repeated synthetic division, in place on the coefficient
    list, so no factorial ever needs to be inverted mod p.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    cs = list(islice(_taylor_coefficients(f, _index(a) % f.p), order))
    cs += [0] * (order - len(cs))
    return cs


def _taylor_coefficients(f: FpPoly, a: int) -> Iterator[int]:
    """The coefficients of f in powers of (x - a), lowest first, for a in
    [0, p).  Each one costs a synthetic-division pass, so a caller can stop
    at any order; the passes end after deg f, where every later coefficient
    is 0."""
    p = f.p
    c = list(f.coeffs)
    n = len(c)
    # pass i divides c[i:] by (x - a): c[i] becomes the remainder, the i-th
    # Taylor coefficient, and c[i+1:] the quotient
    for i in range(n):
        acc = c[-1]
        for j in range(n - 2, i - 1, -1):
            acc = (c[j] + a * acc) % p
            c[j] = acc
        yield c[i]


def _series_inverse(cs: Sequence[int], n: int, p: int) -> List[int]:
    """The first n >= 1 coefficients of 1/f for f = sum_j cs[j] u^j, where
    cs[0] is a unit mod p and cs reads as 0 past its end:
    w_0 = 1/cs[0] and w_j = -w_0 (cs[1] w_(j-1) + ... + cs[j] w_0)."""
    w0 = pow(cs[0], -1, p)
    w = [w0]
    top = len(cs) - 1
    for j in range(1, n):
        w.append(-w0 * sum(cs[i] * w[j - i] for i in range(1, min(j, top) + 1)) % p)
    return w


def _series_ratio(num: Sequence[int], den: Sequence[int], n: int, p: int) -> List[int]:
    """The first n coefficients of num/den on coefficient lists, den[0] a
    unit mod p."""
    w = _series_inverse(den, n, p)
    return [sum(c * w[j - i] for i, c in enumerate(num[: j + 1])) % p for j in range(n)]


def log_derivative_series(g: FpPoly, center, order: int) -> TruncatedSeries:
    """Truncated expansion of g'/g at a finite center or at infinity.

    At infinity the coefficient of x^(-l-1) is the l-th power sum of the root
    multiset of g.  At a finite center g = (x-b)^m u with m the number of
    leading zeros of g's Taylor list and u its rest; the series is u'/u, plus
    1/(x-b) at a simple root.  A multiple root is rejected.
    """
    if g.is_zero():
        raise ZeroDivisionError("log derivative of the zero polynomial")
    if order < 1:
        raise ValueError("order must be >= 1")
    p = g.p
    if isinstance(center, _Infinity):
        # in t = 1/x, g'/g = t^dg g'(1/t) / (t^dg g(1/t)) with dg = deg g: the
        # t^e coefficients are those of x^(dg-e) in g' and in g
        dg = g.degree
        gp = g.derivative()
        num = [gp[dg - e] for e in range(order)]
        den = g.coeffs[::-1]
        return TruncatedSeries._make(p, AT_INFINITY, 0, _series_ratio(num, den, order, p), order)
    cv = _index(center) % p
    # every non-zero Taylor coefficient, so m is exact, and order + 1 past m <= 1
    t = taylor_at(g, cv, g.degree + order + 2)
    mult = next(j for j, c in enumerate(t) if c)
    if mult > 1:
        raise ValueError(f"{cv} is a root of multiplicity {mult} > 1")
    u = t[mult:]
    du = [j * c % p for j, c in enumerate(u[: order + 1]) if j]
    regular = _series_ratio(du, u, order, p)
    if mult:
        return TruncatedSeries._make(p, cv, -1, [1] + regular, order)
    return TruncatedSeries._make(p, cv, 0, regular, order)

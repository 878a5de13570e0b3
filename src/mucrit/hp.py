"""Moment-normalized coefficient systems, the associated polynomials, pair
criticality, the factorization identity, set transforms, and Relations X/Y.

The central objects: for a set A of size alpha, coefficients c_a(A) are
determined by sum_a c_a a^m = 0 for m < alpha-1 and = 1 for m = alpha-1;
the associated polynomial is sum_a c_a (x+a)^(d+alpha-1) - 1, which for a
d-critical pair (A, B) factors as C * prod_b (x-b)^(alpha-eps(b)).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .fp import (
    FieldElem,
    FpSet,
    batch_inverse_ints,
    binom_mod,
    inverse_mod,
    inverse_power_sums,
    inverse_table,
    roots_of_unity,
)
from .poly import FpPoly, from_roots
from .symm import power_sums_int


class HPCoeffs:
    """Coefficients c_a(A), keyed by the set element."""

    __slots__ = ("set", "c")

    def __init__(self, set: FpSet, c: Dict[int, FieldElem]):
        object.__setattr__(self, "set", set)
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError("HPCoeffs is immutable")

    def __getitem__(self, a: int) -> FieldElem:
        return self.c[int(a) % self.set.p]

    def moment(self, m: int) -> FieldElem:
        p = self.set.p
        acc = 0
        for a in self.set:
            acc = (acc + self.c[a].v * pow(a, m, p)) % p
        return FieldElem(acc, p)


def hp_coeffs(A: FpSet) -> HPCoeffs:
    """c_a(A) = 1 / prod_{a' != a} (a - a'), via one batched inversion."""
    p = A.p
    alpha = len(A)
    if alpha < 2:
        raise ValueError("need |A| >= 2")
    if alpha >= p:
        raise ValueError("need |A| < p")
    elems = A.elems
    prods = []
    for a in elems:
        acc = 1
        for b in elems:
            if b != a:
                acc = acc * (a - b) % p
        prods.append(acc)
    invs = batch_inverse_ints(prods, p)
    return HPCoeffs(A, {a: FieldElem(v, p) for a, v in zip(elems, invs)})


def vandermonde_solve(A: FpSet) -> Dict[int, FieldElem]:
    """Independent route to the same coefficients: Gaussian elimination on the
    moment system.  Kept as a cross-check; the product formula is the fast path."""
    p = A.p
    alpha = len(A)
    rows = [[pow(a, m, p) for a in A] + [1 if m == alpha - 1 else 0] for m in range(alpha)]
    # forward elimination
    for col in range(alpha):
        piv = next(r for r in range(col, alpha) if rows[r][col] % p != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = inverse_mod(rows[col][col], p)
        rows[col] = [x * inv % p for x in rows[col]]
        for r in range(alpha):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[col])]
    return {a: FieldElem(rows[i][alpha], p) for i, a in enumerate(A.elems)}


def _shifted_power_sum(terms: Iterable[Tuple[int, int]], n: int, p: int) -> List[int]:
    """Coefficients of sum_i w_i (x + z_i)^n over the pairs (w_i, z_i)."""
    row = [binom_mod(n, j, p).v for j in range(n + 1)]
    out = [0] * (n + 1)
    for w, z in terms:
        zpow = 1
        for j in range(n, -1, -1):
            out[j] += w * row[j] * zpow
            zpow = zpow * z % p
    return [c % p for c in out]


def hp_polynomial(A: FpSet, d: int) -> FpPoly:
    """sum_a c_a(A) (x+a)^(d+alpha-1) - 1; always of degree exactly d."""
    p = A.p
    alpha = len(A)
    if alpha <= 1:
        raise ValueError("need |A| > 1")
    if alpha + d - 1 >= p:
        raise ValueError(f"need alpha + d - 1 < p, got {alpha + d - 1} >= {p}")
    n = d + alpha - 1
    cs = hp_coeffs(A)
    out = _shifted_power_sum(((cs.c[a].v, a) for a in A.elems), n, p)
    out[0] = (out[0] - 1) % p
    f = FpPoly(p, out)
    if f.degree != d:
        raise AssertionError(f"degree of the polynomial is {f.degree}, expected {d}")
    return f


class CriticalityReport(NamedTuple):
    A: FpSet
    B: FpSet
    d: int
    sumset_ok: bool
    overlap: int
    critical: bool
    epsilon: Dict[int, int]
    exact: Optional[str]  # "mu_d" | "mu_d_plus_zero" | None


def criticality(A: FpSet, B: FpSet, d: int) -> CriticalityReport:
    """Check A+B inside mu_d u {0} and the size identity |A||B| = d + |(-A) cap B|.

    ``exact`` records whether A+B equals mu_d or mu_d u {0} on the nose,
    either of which forces criticality.  The sumset, -A and the overlap are
    sets of elements: the cost is O(|A||B|) besides mu_d itself, whatever p.
    """
    if A.p != B.p:
        raise ValueError("A and B live in different fields")
    p = A.p
    if len(A) <= 1 or len(B) <= 1:
        raise ValueError("need |A|, |B| > 1")
    mu = roots_of_unity(p, d).elems
    sums = {(a + b) % p for a in A.elems for b in B.elems}
    with_zero = 0 in sums
    sums.discard(0)
    sumset_ok = sums.issubset(mu)
    negA = {-a % p for a in A.elems}
    overlap = len(negA.intersection(B.elems))
    critical = sumset_ok and len(A) * len(B) == d + overlap
    eps = {b: 1 if b in negA else 0 for b in B.elems}
    exact = None
    if sumset_ok and len(sums) == d:  # then A+B minus 0 is all of mu_d
        exact = "mu_d_plus_zero" if with_zero else "mu_d"
    return CriticalityReport(A, B, d, sumset_ok, overlap, critical, eps, exact)


def power_sum_vanishing(A: FpSet, B: FpSet, d: int) -> bool:
    """True iff sum_{a,b} (a+b)^k = 0 for all 1 <= k < d.

    Requires A+B to equal mu_d or mu_d u {0} exactly; rejected otherwise.
    The double sum collapses to a binomial convolution of power sums.
    """
    rep = criticality(A, B, d)
    if rep.exact is None:
        raise ValueError("A+B is not exactly mu_d or mu_d u {0}")
    p = A.p
    pa = power_sums_int(A, d)
    pb = power_sums_int(B, d)
    inv = inverse_table(p, d)  # d | p - 1, so d < p
    for k in range(1, d):
        acc = 0
        row = 1  # C(k, j) built incrementally
        for j in range(k + 1):
            acc = (acc + row * pa[j] % p * pb[k - j]) % p
            row = row * (k - j) % p * inv[j + 1] % p
        if acc != 0:
            return False
    return True


class FactorizationResult(NamedTuple):
    C: FieldElem
    ok: bool
    hp: FpPoly
    product: FpPoly


def factorization_check(A: FpSet, B: FpSet, d: int) -> FactorizationResult:
    """Compare the degree-d polynomial of A against
    C * prod_b (x - b)^(alpha - eps(b)), C read off the leading coefficient."""
    rep = criticality(A, B, d)
    if not rep.critical:
        raise ValueError("pair is not d-critical")
    p = A.p
    alpha = len(A)
    f = hp_polynomial(A, d)
    C = f.leading()
    prod = FpPoly.one(p)
    for b in B.elems:
        prod = prod * from_roots(FpSet(p, [b]), alpha - rep.epsilon[b])
    prod = prod * C
    return FactorizationResult(FieldElem(C, p), prod == f, f, prod)


def fractional_transform(A: FpSet, a: int) -> FpSet:
    """A^a = {0} u {1/(a - a') : a' in A, a' != a}; preserves d-criticality
    of (A, -A) with d = alpha(alpha-1), which is re-checked here."""
    p = A.p
    a = int(a) % p
    if a not in A:
        raise ValueError(f"{a} is not in the set")
    alpha = len(A)
    d = alpha * (alpha - 1)
    pre = criticality(A, -A, d)
    if not pre.critical:
        raise ValueError("(A, -A) is not d-critical")
    others = [x for x in A.elems if x != a]
    inv = batch_inverse_ints([(a - x) % p for x in others], p)
    out = FpSet(p, [0] + inv)
    if len(out) != alpha:
        raise AssertionError("transform collapsed the set")
    post = criticality(out, -out, d)
    if not post.critical:
        raise AssertionError("transform broke criticality")
    return out


def reciprocal_set(A: FpSet, b: int) -> FpSet:
    """A_b = {1/(a+b) : a in A}; rejects any vanishing a + b."""
    p = A.p
    b = int(b) % p
    vals = [(a + b) % p for a in A.elems]
    if any(v == 0 for v in vals):
        raise ValueError("a + b = 0 for some a in A")
    return FpSet(p, batch_inverse_ints(vals, p))


class Lemma9Report(NamedTuple):
    """Outcome of the reciprocal-set polynomial identity at one b in B.

    ``sign`` is (-1)^(alpha-1): the identity reads

        sum_a c_{1/(a+b)}(A_b) (a+b) (x + 1/(a+b))^(alpha+d-1)
          = sign * C_inf * x^(alpha+d-1) + C0 * x^(alpha-1) *
            prod_{b' != b} (x + 1/(b-b'))^alpha

    with C0 = C(alpha+d-1, alpha) and C_inf = prod_a (a+b).  The sign factor
    is forced by c_{1/(a+b)}(A_b) = sign * C_inf * c_a(A) (a+b)^(alpha-2);
    for odd alpha it is +1.
    """

    b: int
    sign: int
    identity_ok: bool
    coeff_relation_ok: bool
    c0: FieldElem
    c0_binomial_ok: bool
    c0_product_ok: bool
    c_inf: FieldElem


def lemma9_check(A: FpSet, B: FpSet, b: int) -> Lemma9Report:
    """Verify the reciprocal-set identity at b for a critical pair with
    A + B = mu_d (so d = |A||B| and B is disjoint from -A)."""
    p = A.p
    alpha, beta = len(A), len(B)
    d = alpha * beta
    rep = criticality(A, B, d)
    if not (rep.critical and rep.overlap == 0 and rep.exact == "mu_d"):
        raise ValueError("need a critical pair with A + B = mu_d")
    b = int(b) % p
    if b not in B:
        raise ValueError(f"{b} not in B")
    n = alpha + d - 1
    sign = 1 if (alpha - 1) % 2 == 0 else p - 1

    cA = hp_coeffs(A)
    Ab = reciprocal_set(A, b)
    cAb = hp_coeffs(Ab)
    c_inf = 1
    for a in A.elems:
        c_inf = c_inf * (a + b) % p

    z = {a: inverse_mod((a + b) % p, p) for a in A.elems}
    coeff_ok = True
    for a in A.elems:
        want = sign * c_inf % p * cA.c[a].v % p * pow((a + b) % p, alpha - 2, p) % p
        if cAb.c[z[a]].v != want:
            coeff_ok = False

    # left side of the identity
    lhs = FpPoly(
        p,
        _shifted_power_sum(
            ((cAb.c[z[a]].v * ((a + b) % p) % p, z[a]) for a in A.elems), n, p
        ),
    )

    c0 = binom_mod(n, alpha, p)
    rhs = FpPoly.monomial(p, sign * c_inf % p, n)
    prod = FpPoly.one(p)
    for bp in B.elems:
        if bp == b:
            continue
        w = inverse_mod((b - bp) % p, p)
        prod = prod * from_roots(FpSet(p, [(-w) % p]), alpha)
    rhs = rhs + FpPoly.monomial(p, c0.v, alpha - 1) * prod

    # C0 must also match sign * C * prod_{b' != b} (b - b')^alpha * C_inf
    cc = binom_mod(n, d, p).v
    c1 = cc
    for bp in B.elems:
        if bp != b:
            c1 = c1 * pow((b - bp) % p, alpha, p) % p
    c0_prod_ok = c0.v == sign * c1 % p * c_inf % p

    return Lemma9Report(
        b=b,
        sign=1 if sign == 1 else -1,
        identity_ok=lhs == rhs,
        coeff_relation_ok=coeff_ok,
        c0=c0,
        c0_binomial_ok=c0.v == math.comb(n, alpha) % p,
        c0_product_ok=c0_prod_ok,
        c_inf=FieldElem(c_inf, p),
    )


def _relation_guards(A: FpSet, B: FpSet, b: int) -> int:
    # the relations are theorems only for a critical pair with A + B = mu_d
    # (so d = |A||B|); evaluation is still meaningful on perturbed input,
    # where a False verdict is the expected negative control
    p = A.p
    if A.p != B.p:
        raise ValueError("A and B live in different fields")
    d = len(A) * len(B)
    if (d - 1) % p == 0 or (d - 2) % p == 0:
        raise ZeroDivisionError("d - 1 and d - 2 must be invertible mod p")
    if b not in B:
        raise ValueError(f"{b} not in B")
    return d


def relation_x(A: FpSet, B: FpSet, b: int) -> Tuple[FieldElem, FieldElem, bool]:
    """sum_a 1/(a+b) versus alpha(alpha+1)/(d-1) * sum_{b' != b} 1/(b-b'),
    with d = |A||B|; an identity when (A, B) is critical with A + B = mu_d."""
    p = A.p
    b = int(b) % p
    d = _relation_guards(A, B, b)
    alpha = len(A)
    lhs = inverse_power_sums([a + b for a in A.elems], p, 1)[0]
    factor = alpha * (alpha + 1) % p * inverse_mod(d - 1, p) % p
    rhs = factor * inverse_power_sums([b - bp for bp in B.elems if bp != b], p, 1)[0] % p
    return FieldElem(lhs, p), FieldElem(rhs, p), lhs == rhs


def relation_y(A: FpSet, B: FpSet, b: int) -> Tuple[FieldElem, FieldElem, bool]:
    """(sum_a 1/(a+b))^2 + sum_a 1/(a+b)^2 versus
    alpha(alpha+1)(alpha+2)/((d-1)(d-2)) * (alpha S1^2 - S2) over B-differences."""
    p = A.p
    b = int(b) % p
    d = _relation_guards(A, B, b)
    alpha = len(A)
    t1, t2 = inverse_power_sums([a + b for a in A.elems], p, 2)
    lhs = (t1 * t1 + t2) % p
    s1, s2 = inverse_power_sums([b - bp for bp in B.elems if bp != b], p, 2)
    factor = (
        alpha * (alpha + 1) % p * (alpha + 2) % p
        * inverse_mod((d - 1) * (d - 2) % p, p) % p
    )
    rhs = factor * ((alpha * s1 % p * s1 - s2) % p) % p
    return FieldElem(lhs, p), FieldElem(rhs, p), lhs == rhs

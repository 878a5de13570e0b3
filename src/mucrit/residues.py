"""Residue calculus for rational differential forms num/den dx on the
projective line over F_p, plus the five named forms built from two sets.

Residue conventions: at a finite b, the coefficient of 1/(x-b) in the Laurent
expansion; at infinity, minus the coefficient of x^(-1).  For a form whose
denominator splits completely over F_p the residues over P^1 sum to zero,
and ``sum_residues_check`` verifies exactly that; denominators with
irrational roots are reported as inconclusive rather than extended.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .fp import FpSet, _index, batch_inverse_ints, inverse_mod, sqrt_mod
from .poly import (
    AT_INFINITY,
    FpPoly,
    TruncatedSeries,
    _divide_in_place,
    _gcd_list,
    _monic,
    _series_ratio,
    _taylor_coefficients,
    from_roots,
    poly_gcd,
    taylor_at,
)
from .hp import criticality
from .stepanov import _gamma2, _gamma3, gamma_numeric
from .symm import power_sums_int


class RationalForm:
    """A differential form (num/den) dx, stored gcd-reduced."""

    __slots__ = ("p", "num", "den")

    def __init__(self, num: FpPoly, den: FpPoly):
        if num.p != den.p:
            raise ValueError("numerator and denominator over different fields")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num // g
            den = den // g
        _fill_form(self, num, den)

    @classmethod
    def _make(cls, num: FpPoly, den: FpPoly) -> "RationalForm":
        """Trusted constructor for forms built inside this module: ``num``
        and ``den`` are over the same field, ``den`` is non-zero, and both
        are already divided by their monic gcd."""
        obj = object.__new__(cls)
        _fill_form(obj, num, den)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("RationalForm is immutable")

    def __repr__(self):
        return f"RationalForm(({self.num!r}) / ({self.den!r}) dx)"

    def __eq__(self, other):
        if not isinstance(other, RationalForm):
            return NotImplemented
        # equality as rational functions: cross-multiply
        return self.p == other.p and self.num * other.den == other.num * self.den


def _fill_form(obj: RationalForm, num: FpPoly, den: FpPoly) -> None:
    object.__setattr__(obj, "p", num.p)
    object.__setattr__(obj, "num", num)
    object.__setattr__(obj, "den", den)


def residue_at(form: RationalForm, b: int, multiplicity: Optional[int] = None) -> int:
    """Coefficient of 1/(x-b); zero at a non-pole.

    The order v to which the denominator vanishes at b is read off its Taylor
    passes at b: the first non-zero coefficient is the v-th.  It and the
    v - 1 after it are u_0..u_(v-1), the start of U with den = (x-b)^v U, and
    the residue is the (x-b)^(v-1) coefficient of num/U, read off the first
    v Taylor coefficients of num at b and of U (``_series_ratio``).  A
    ``multiplicity`` given by the caller (``sum_residues_check`` knows it)
    must equal v.
    """
    p = form.p
    bv = _index(b) % p
    passes = _taylor_coefficients(form.den, bv)
    v = 0
    for lead in passes:  # breaks: the denominator is not 0
        if lead:
            break
        v += 1
    if multiplicity is not None and multiplicity != v:
        raise ValueError(f"denominator vanishes to order {v} at {bv}, not {multiplicity}")
    if v == 0:
        return 0
    u = [lead, *islice(passes, v - 1)]  # short if the passes end after deg den
    return _series_ratio(taylor_at(form.num, bv, v), u, v, p)[-1]


def residue_at_infinity(form: RationalForm) -> int:
    """Minus the x^(-1) coefficient of the expansion at infinity."""
    p = form.p
    if form.num.is_zero():
        return 0
    dn, dd = form.num.degree, form.den.degree
    m = 1 - dd + dn  # exponent of t = 1/x carrying x^(-1) in num_rev/den_rev
    if m < 0:
        return 0
    length = m + 1
    nrev = list(reversed(form.num.coeffs)) + [0] * length
    drev = list(reversed(form.den.coeffs)) + [0] * length
    ns = TruncatedSeries(p, AT_INFINITY, 0, nrev[:length], length)
    ds = TruncatedSeries(p, AT_INFINITY, 0, drev[:length], length)
    return -(ns * ds.inverse()).coefficient(m) % p


def _power_rows(m: Sequence[int], count: int, p: int) -> List[List[int]]:
    """x^(n+i) mod m for 0 <= i < max(count, 1), as coefficient lists, where
    m is monic of degree n >= 1."""
    row = [(-c) % p for c in m[:-1]]
    rows = [row]
    for _ in range(count - 1):
        # x * row, with its x^n term replaced by x^n mod m
        top = row[-1]
        row = [(-top * m[0]) % p] + [(r - top * c) % p for r, c in zip(row, m[1:-1])]
        rows.append(row)
    return rows


def _pack(cs: Sequence[int], w: int) -> int:
    """The coefficient list cs as one int, w bits per coefficient."""
    v = 0
    for c in reversed(cs):
        v = (v << w) | c
    return v


def _pow_mod_list(b: List[int], e: int, m: List[int], p: int) -> List[int]:
    """b^e mod m on coefficient lists, squaring left to right, for m monic of
    degree n >= 1 and b reduced mod m; for e >= 1 and b non-zero the result
    has n coefficients and may end in zeros.

    The running power is packed into one int, w bits per coefficient
    (Kronecker substitution), so a step squares it, and on a set bit of e
    multiplies it by b, with one big-int product each.  The high part of the
    product, one coefficient at a time, then adds its multiple of the packed
    row x^(n+i) mod m from a table built once per call.  Every coefficient
    stays below (2n)^2 p^3 < 2^w, so no slot spills into the next: no
    division, no inverse and no polynomial object inside the loop.
    """
    if e == 0:
        return [1]
    if not b:
        return []
    n = len(m) - 1
    w = 3 * p.bit_length() + 2 * (2 * n).bit_length()
    mask = (1 << w) - 1
    low = (1 << (n * w)) - 1
    rows = [_pack(row, w) for row in _power_rows(m, n + len(b) - 2, p)]
    base = _pack(b, w)
    r = base
    for bit in bin(e)[3:]:
        s = r * r
        if bit == "1":
            s *= base
        acc = s & low
        s >>= n * w
        for row in rows:
            acc += (s & mask) % p * row
            s >>= w
        r = 0
        for j in range((n - 1) * w, -1, -w):
            r = (r << w) | ((acc >> j) & mask) % p
    return [(r >> (w * j)) & mask for j in range(n)]


def _shifted_gcd(y: List[int], s: int, g: List[int], p: int) -> List[int]:
    """gcd(y - s, g) for a residue list y mod the monic g; y is consumed."""
    h = y
    h[0] = (h[0] - s) % p
    while h and h[-1] == 0:
        h.pop()
    return _gcd_list(h, list(g), p)


def _leaf_roots(g: List[int], p: int) -> List[int]:
    """Distinct roots of a monic g of degree at most 2, p odd, in closed
    form: -g_0 at degree 1; at degree 2, (-b +- s)/2 with s^2 the
    discriminant b^2 - 4c, one root when it is 0 and none when it is a
    non-square."""
    if len(g) == 2:
        return [(-g[0]) % p]
    if len(g) < 2:
        return []
    c, b = g[0], g[1]
    half = (p + 1) // 2  # 1/2 mod p
    disc = (b * b - 4 * c) % p
    if disc == 0:
        return [(-b) * half % p]
    if pow(disc, (p - 1) // 2, p) != 1:
        return []
    s = sqrt_mod(disc, p)
    return [(s - b) * half % p, (-s - b) * half % p]


def _roots_of_split_squarefree(u: List[int], p: int) -> List[int]:
    """Roots of a monic squarefree product of distinct linear factors, p odd.

    Equal-degree splitting: for c = 1, 2, ... gcd(g, (x + c)^((p-1)/2) - 1)
    separates the roots r of g with r + c a nonzero square from the rest,
    until every factor has degree at most 2 and ``_leaf_roots`` solves it.
    """
    e = (p - 1) // 2
    stack = [u]
    roots: List[int] = []
    c = 0
    while stack:
        g = stack.pop()
        if len(g) <= 3:
            roots += _leaf_roots(g, p)
            continue
        c += 1
        w = _shifted_gcd(_pow_mod_list([c, 1], e, g, p), 1, g, p)
        if 1 < len(w) < len(g):
            stack += [w, _divide_in_place(list(g), w, p)]
        else:
            stack.append(g)
    return roots


def _squarefree_kernel(f: List[int], p: int) -> List[int]:
    """f / gcd(f, f') when deg f < p, otherwise f itself.

    Below degree p no multiplicity reaches p, so f' is non-zero and the
    quotient has exactly the distinct roots of f, each once.  At degree p or
    more, f may be g(x^p) (f' = 0) or carry a root of multiplicity p, which
    the quotient would lose."""
    if len(f) > p:
        return f
    d = [j * c % p for j, c in enumerate(f) if j]
    return _divide_in_place(list(f), _gcd_list(list(f), d, p), p)


def _distinct_roots(g: List[int], p: int) -> List[int]:
    """Distinct roots in F_p of a non-constant coefficient list g, p odd.

    The roots are those of gcd(x^p - x, g), and x^p - x =
    x (x^e - 1) (x^e + 1) with e = (p-1)/2.  A factor x^v comes off first;
    what is left is solved in closed form at degree at most 2, and otherwise
    one power x^e mod g sorts its roots into the nonzero squares and the
    non-squares before ``_roots_of_split_squarefree`` splits each part.
    """
    v = 0
    while g[v] == 0:
        v += 1
    roots = [0] if v else []
    g = _monic(g[v:], p)
    if len(g) <= 3:
        return roots + _leaf_roots(g, p)
    y = _pow_mod_list([0, 1], (p - 1) // 2, g, p)
    for s in (1, p - 1):
        roots += _roots_of_split_squarefree(_shifted_gcd(list(y), s, g, p), p)
    return roots


def rational_root_part(f: FpPoly) -> Tuple[Dict[int, int], FpPoly]:
    """({root: multiplicity}, cofactor); the cofactor has no roots in F_p.

    For odd p the distinct roots are found from the squarefree kernel
    f / gcd(f, f') when deg f < p (``_squarefree_kernel``), and from f
    itself otherwise; a kernel of degree at most 2 is solved in closed form,
    and only one of degree 3 or more is powered and split
    (``_distinct_roots``), all on coefficient lists.  For p = 2 the roots can
    only be 0 and 1.  Synthetic division on f then counts each multiplicity
    and strips the root from the cofactor.
    """
    p = f.p
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree == 0:
        return {}, f
    if p == 2:
        distinct = [r for r in (0, 1) if f.eval_int(r) == 0]
    else:
        distinct = _distinct_roots(_squarefree_kernel(list(f.coeffs), p), p)
    roots: Dict[int, int] = {}
    g = f
    for r in sorted(distinct):
        m = 0
        while True:
            q, rem = g.synth_div(r)
            if rem != 0:
                break
            g = q
            m += 1
        roots[r] = m
    return roots, g


class ResidueTable(NamedTuple):
    form: RationalForm
    finite: Dict[int, int]
    at_infinity: int
    total: int


class ResidueCheck(NamedTuple):
    status: str  # "zero" | "nonzero" | "inconclusive"
    table: Optional[ResidueTable]

    @property
    def ok(self) -> bool:
        return self.status == "zero"


def sum_residues_check(form: RationalForm) -> ResidueCheck:
    """Check that residues over P^1 sum to zero: the table holds the residue
    at every rational pole plus infinity, and their total.

    Inconclusive when the reduced denominator keeps a factor with no rational
    root, in which case the total omits those poles.
    """
    p = form.p
    roots, cofactor = rational_root_part(form.den)
    finite = {r: residue_at(form, r, m) for r, m in sorted(roots.items())}
    inf = residue_at_infinity(form)
    total = (sum(finite.values()) + inf) % p
    table = ResidueTable(form, finite, inf, total)
    if cofactor.degree != 0:
        return ResidueCheck("inconclusive", table)
    return ResidueCheck("nonzero" if total else "zero", table)


# ---------------------------------------------------------------------------
# The five named forms: built from g(x) = prod_{b in B} (x - b) and
# h(x) = prod_{a in A} (x + a).

FORM_NAMES = ("omega20", "omega11", "omega30", "psi", "omega21")
# the forms with a factor h'/h, and so a set A
MIXED_FORMS = ("omega11", "psi", "omega21")


def _times_x(f: FpPoly, e: int) -> FpPoly:
    """x^e f."""
    return FpPoly._make(f.p, [0] * e + list(f.coeffs))


def _x_power(B: FpSet, e: int) -> FpPoly:
    """gcd(x^e, g^e) for g = prod_{b in B} (x - b): x^e when 0 is in B, and
    1 otherwise."""
    return FpPoly._make(B.p, [0] * (e if 0 in B else 0) + [1])


def _reduced(num: FpPoly, den: FpPoly, common: FpPoly) -> RationalForm:
    """The form num/den dx, given their monic gcd ``common``."""
    if common.degree > 0:
        num, den = num // common, den // common
    return RationalForm._make(num, den)


def named_form(which: str, A: Optional[FpSet], B: FpSet, k: int) -> RationalForm:
    """Construct the named differential form for the supplied sets.

    omega20 = x^(k+1) (g'/g)^2 dx          omega30 = x^(k+2) (g'/g)^3 dx
    omega11 = x^(k+1) (g'/g)(h'/h) dx      psi     = x^(k+2) (g'/g)' (h'/h) dx
    omega21 = x^(k+2) (g'/g)^2 (h'/h) dx

    The gcd of numerator and denominator is read off the factors rather than
    taken of the whole form.  g and h are squarefree, so g' is a unit at
    every root of g and h' at every root of h; so is G = g'' g - g'^2, which
    is -g'(b)^2 at a root b of g.  With -A and B disjoint, g and h are
    coprime, and the gcd is

        omega20: x^min(k+1, 2) if 0 is in B, else 1;
        omega30: x^min(k+2, 3) if 0 is in B, else 1;
        omega11: gcd(g, x h') gcd(h, x g');
        psi:     gcd(g^2, x^2 h') gcd(h, x G);
        omega21: gcd(g^2, x^2 h') gcd(h, x g').

    A mixed form whose poles -A meet B is rejected.
    """
    p = B.p
    if which not in FORM_NAMES:
        raise ValueError(f"unknown form {which!r}")
    g = from_roots(B, 1)
    gp = g.derivative()
    if which == "omega20":
        return _reduced(_times_x(gp * gp, k + 1), g * g, _x_power(B, min(k + 1, 2)))
    if which == "omega30":
        return _reduced(
            _times_x(gp * gp * gp, k + 2), g * g * g, _x_power(B, min(k + 2, 3))
        )
    if A is None:
        raise ValueError(f"form {which!r} needs the set A")
    if A.p != p:
        raise ValueError("A and B over different fields")
    if set((-a) % p for a in A.elems) & set(B.elems):
        raise ValueError("poles collide: (-A) meets B")
    h = from_roots(-A, 1)  # prod (x + a)
    hp_ = h.derivative()
    if which == "omega11":
        common = poly_gcd(_times_x(hp_, 1), g) * poly_gcd(_times_x(gp, 1), h)
        return _reduced(_times_x(gp * hp_, k + 1), g * h, common)
    g2 = g * g
    if which == "psi":
        gg = gp.derivative() * g - gp * gp  # (g'/g)' numerator
        common = poly_gcd(_times_x(hp_, 2), g2) * poly_gcd(_times_x(gg, 1), h)
        return _reduced(_times_x(gg * hp_, k + 2), g2 * h, common)
    # omega21
    common = poly_gcd(_times_x(hp_, 2), g2) * poly_gcd(_times_x(gp, 1), h)
    return _reduced(_times_x(gp * gp * hp_, k + 2), g2 * h, common)


class FormIdentityReport(NamedTuple):
    which: str
    k: int
    mode: str
    ok: bool
    residues_match_series: bool
    total_zero: bool
    lhs: int
    rhs: int
    hypothesis_failures: Tuple[str, ...] = ()


def _pole_sums(A: Optional[FpSet], B: FpSet):
    """Inverse power sums [sum 1/x, sum 1/x^2] per pole, over the pole
    differences: sB[b] over b - b' (b' in B, b' != b), and, when A is given,
    tB[b] over a + b (a in A) and uA[a] over a + b (b in B).  The poles -A and
    B must then be disjoint, as ``named_form`` has checked.

    One batched inversion of the differences b - b' with b before b' serves
    sB (b' - b has the opposite inverse and the same inverse square), and
    one of the sums a + b serves both uA (row sums) and tB (column sums)."""
    p = B.p
    bs = B.elems
    beta = len(bs)
    pairs = [(i, j) for i in range(beta) for j in range(i + 1, beta)]
    s1 = [0] * beta
    s2 = [0] * beta
    for (i, j), w in zip(pairs, batch_inverse_ints([bs[i] - bs[j] for i, j in pairs], p)):
        w2 = w * w
        s1[i] += w
        s1[j] -= w
        s2[i] += w2
        s2[j] += w2
    sB = {b: [s1[i] % p, s2[i] % p] for i, b in enumerate(bs)}
    if A is None:
        return sB, {}, {}
    inv = batch_inverse_ints([a + b for a in A.elems for b in bs], p)
    sq = [w * w for w in inv]
    uA = {
        a: [sum(inv[i : i + beta]) % p, sum(sq[i : i + beta]) % p]
        for a, i in zip(A.elems, range(0, len(inv), beta))
    }
    tB = {b: [sum(inv[j::beta]) % p, sum(sq[j::beta]) % p] for j, b in enumerate(bs)}
    return sB, tB, uA


def _convolution(k: int, p: int, a, b, c=None) -> int:
    """sum a[r] b[k-r] over 0 <= r <= k, or, given c, sum a[r] b[s] c[k-r-s]
    over r + s <= k; mod p."""
    if c is None:
        return sum(a[r] * b[k - r] for r in range(k + 1)) % p
    return sum(
        a[r] * b[s] % p * c[k - r - s] for r in range(k + 1) for s in range(k + 1 - r)
    ) % p


def _closed_residues(which: str, A: Optional[FpSet], B: FpSet, k: int, sums, pB, pA):
    """Closed-form residues: ({finite pole: value}, value at infinity).
    ``pB`` and ``pA`` are the power sums p_0..p_k of B and A (pA None for a
    form without A).  Each residue at infinity is a convolution of them."""
    p = B.p
    sB, tB, uA = sums
    if which == "omega20":
        fin = {
            b: ((k + 1) * pow(b, k, p) + 2 * pow(b, k + 1, p) * sB[b][0]) % p
            for b in B.elems
        }
        return fin, -_convolution(k, p, pB, pB) % p
    if which == "omega30":
        fin = {}
        for b in B.elems:
            s1, s2 = sB[b]
            fin[b] = (
                (k + 2) * (k + 1) // 2 % p * pow(b, k, p)
                + 3 * (k + 2) % p * pow(b, k + 1, p) % p * s1
                + 3 * pow(b, k + 2, p) % p * ((s1 * s1 - s2) % p)
            ) % p
        return fin, -_convolution(k, p, pB, pB, pB) % p
    if A is None:
        raise AssertionError(f"{which} needs the set A")
    # (-1)^r p_r(A), the power sums of -A
    sA = [x if r % 2 == 0 else -x for r, x in enumerate(pA)]
    sgnk = 1 if k % 2 == 0 else p - 1
    fin = {}
    if which == "omega11":
        for b in B.elems:
            fin[b] = pow(b, k + 1, p) * tB[b][0] % p
        for a in A.elems:
            fin[(-a) % p] = sgnk * pow(a, k + 1, p) % p * uA[a][0] % p
        return fin, -_convolution(k, p, sA, pB) % p
    if which == "psi":
        for b in B.elems:
            t1, t2 = tB[b]
            fin[b] = (-(k + 2) * pow(b, k + 1, p) % p * t1 + pow(b, k + 2, p) * t2) % p
        for a in A.elems:
            fin[(-a) % p] = (-sgnk * pow(a, k + 2, p) % p * uA[a][1]) % p
        wB = [(j + 1) * x % p for j, x in enumerate(pB)]
        return fin, _convolution(k, p, sA, wB)
    # omega21
    for b in B.elems:
        t1, t2 = tB[b]
        fin[b] = (
            2 * pow(b, k + 2, p) * sB[b][0] % p * t1
            + (k + 2) * pow(b, k + 1, p) % p * t1
            - pow(b, k + 2, p) * t2
        ) % p
    for a in A.elems:
        fin[(-a) % p] = sgnk * pow(a, k + 2, p) % p * uA[a][0] % p * uA[a][0] % p
    return fin, -_convolution(k, p, pB, pB, sA) % p


def _surviving_term_failures(k: int, *factors) -> List[str]:
    """Index-k collapse hypotheses, checked termwise: every product of power
    sums at positive indices summing to k must vanish.  ``factors`` are
    (label, power-sum list) pairs; two entries check the pair terms, three
    the triple terms.  Covers both the least-index case (everything below k
    zero) and the secondary-index case (survivors are multiples of the least
    index, which cannot sum to k)."""
    failures = []
    if len(factors) == 2:
        (la, pa), (lb, pb) = factors
        for r in range(1, k):
            if pa[r] and pb[k - r]:
                failures.append(f"surviving term p_{r}({la})*p_{k - r}({lb})")
    else:
        (la, pa), (lb, pb), (lc, pc) = factors
        for r in range(1, k - 1):
            if not pa[r]:
                continue
            for s in range(1, k - r):
                t = k - r - s
                if t >= 1 and pb[s] and pc[t]:
                    failures.append(
                        f"surviving term p_{r}({la})*p_{s}({lb})*p_{t}({lc})"
                    )
    return failures


def _specialized_check(which, A, B, k, sums, pB, pA):
    """The final displayed identities under the vanishing-power-sum and
    critical-pair hypotheses; returns (failures, lhs, rhs).  ``pB`` and
    ``pA`` are as for ``_closed_residues``.

    The hypothesis set depends on which products appear in the residue at
    infinity: B-pair terms for omega20/omega30/omega21, B-triples for
    omega30, A-B cross pairs for the mixed forms, and (B,B,A) triples for
    omega21."""
    p = B.p
    sB, tB, uA = sums
    beta = len(B)
    failures = []
    if pB[k] == 0:
        failures.append(f"p_{k}(B) = 0")
    if which in ("omega20", "omega30", "omega21"):
        failures += _surviving_term_failures(k, ("B", pB), ("B", pB))
    if which == "omega30":
        failures += _surviving_term_failures(k, ("B", pB), ("B", pB), ("B", pB))
    pkB = pB[k]
    # omega20 and omega30 have no admissible d: their constants are gamma3
    # and gamma2 at alpha = beta
    if which == "omega20":
        if p == 2:
            failures.append("2 is not invertible mod p")
            return failures, 0, 0
        lhs = sum(pow(b, k + 1, p) * sB[b][0] for b in B.elems) % p
        return failures, lhs, pkB * _gamma3(p, beta, k) % p
    if which == "omega30":
        if p == 3:
            failures.append("3 is not invertible mod p")
            return failures, 0, 0
        lhs = sum(
            pow(b, k + 2, p) * ((sB[b][0] * sB[b][0] - sB[b][1]) % p) for b in B.elems
        ) % p
        return failures, lhs, _gamma2(p, beta, k) * pkB % p
    alpha = len(A)
    failures += _surviving_term_failures(k, ("A", pA), ("B", pB))
    if which == "omega21":
        failures += _surviving_term_failures(k, ("B", pB), ("B", pB), ("A", pA))
    if which == "omega11":
        sgnk = 1 if k % 2 == 0 else p - 1
        lhs = (
            sum(pow(b, k + 1, p) * tB[b][0] for b in B.elems)
            + sgnk * sum(pow(a, k + 1, p) * uA[a][0] for a in A.elems)
        ) % p
        rhs = (alpha * pkB + sgnk * beta % p * pA[k]) % p
        return failures, lhs, rhs
    # psi and omega21 additionally need the critical-pair setting
    d = alpha * beta
    if alpha != beta:
        failures.append("alpha != beta")
    if k % 2 != 0:
        failures.append("k is odd")
    if (pA[k] + pkB) % p != 0:
        failures.append("p_k(A) != -p_k(B)")
    if min(alpha, beta) < 2:
        # a critical pair needs |A|, |B| > 1; criticality rejects anything less
        failures.append("|A| or |B| is 1")
    else:
        # mu_d exists only when d | p - 1; otherwise A + B cannot equal it
        rep = criticality(A, B, d) if (p - 1) % d == 0 else None
        if rep is None or not (rep.critical and rep.exact == "mu_d"):
            failures.append("A + B != mu_d")
    # gamma_numeric raises ZeroDivisionError when d - 1 or d - 2 vanishes mod
    # p.  It also inverts 2 and 3, but gets no further at p = 2 or 3: there
    # d - 1 or d - 2 vanishes unless p = 3 divides d = |A||B|, which needs A
    # or B to be all of F_3, and then -A meets B
    try:
        gamma = gamma_numeric(p, alpha, k, d)
    except ZeroDivisionError:
        failures.append("d-1 or d-2 vanishes mod p")
        return failures, 0, 0
    cross = sum(pow(b, k + 2, p) * tB[b][1] for b in B.elems) % p
    if which == "psi":
        lhs = (cross - sum(pow(a, k + 2, p) * uA[a][1] for a in A.elems)) % p
        return failures, lhs, gamma["gamma4"] * pkB % p
    # omega21
    lhs = (
        sum(pow(a, k + 2, p) * uA[a][0] % p * uA[a][0] for a in A.elems)
        + 2 * inverse_mod(gamma["gamma0"], p) % p
        * sum(pow(b, k + 2, p) * tB[b][0] % p * tB[b][0] for b in B.elems)
        - cross
    ) % p
    return failures, lhs, gamma["gamma5"] * pkB % p


def lemma_form_identity(
    which: str,
    A: Optional[FpSet],
    B: FpSet,
    k: int,
    mode: str = "general",
) -> FormIdentityReport:
    """Verify the residue identity attached to a named form.

    General mode checks the unconditional consequence of the vanishing total
    residue: every closed-form residue matches the series computation, and the
    finite residues sum to minus the residue at infinity.  Specialized mode
    additionally requires the vanishing-power-sum / critical-pair hypotheses
    (checked, with precise failures reported) and verifies the final displayed
    identity with its gamma constant.
    """
    if mode not in ("general", "specialized"):
        raise ValueError(f"unknown mode {mode!r}")
    p = B.p
    if k < 0:
        raise ValueError("k must be nonnegative")
    form = named_form(which, A, B, k)
    if which not in MIXED_FORMS:
        A = None
    sums = _pole_sums(A, B)
    pB = power_sums_int(B, k)
    pA = None if A is None else power_sums_int(A, k)
    fin, inf = _closed_residues(which, A, B, k, sums, pB, pA)
    match = True
    for pole, val in fin.items():
        if residue_at(form, pole) != val:
            match = False
    if residue_at_infinity(form) != inf:
        match = False
    total = (sum(fin.values()) + inf) % p
    lhs = sum(fin.values()) % p
    rhs = (-inf) % p
    if mode == "general":
        ok = match and total == 0 and lhs == rhs
        return FormIdentityReport(which, k, mode, ok, match, total == 0, lhs, rhs)
    failures, sl, sr = _specialized_check(which, A, B, k, sums, pB, pA)
    ok = match and total == 0 and not failures and sl == sr
    return FormIdentityReport(which, k, mode, ok, match, total == 0, sl, sr, tuple(failures))

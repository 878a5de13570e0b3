"""Differential tests of the root finder and its kernels: rational_root_part
against sympy's factorization mod p (including the edges of the squarefree
kernel and of the closed-form leaves), the tabulated powering against plain
powering, and the pole order read off the Taylor passes against repeated
synthetic division (``conftest.root_multiplicity``)."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mucrit import residues
from mucrit.fp import FpSet
from mucrit.poly import FpPoly, from_roots, poly_gcd
from mucrit.residues import (
    RationalForm,
    _leaf_roots,
    _pow_mod_list,
    rational_root_part,
    residue_at,
)

from conftest import root_multiplicity

sympy = pytest.importorskip("sympy")
X = sympy.symbols("x")

PRIMES = [2, 3, 5, 41, 97, 1031, 10007]


def sympy_root_part(f: FpPoly):
    """({root: multiplicity}, cofactor) read off sympy's factor_list mod p."""
    p = f.p
    lc, factors = sympy.Poly(list(reversed(f.coeffs)), X, modulus=p).factor_list()
    roots = {}
    cofactor = FpPoly(p, [int(lc)])
    for g, m in factors:
        cs = [int(c) % p for c in reversed(g.all_coeffs())]
        if len(cs) == 2:
            roots[(-cs[0]) * pow(cs[1], p - 2, p) % p] = m
        else:
            cofactor = cofactor * FpPoly(p, cs) ** m
    return roots, cofactor


def assert_matches_sympy(f: FpPoly, got) -> None:
    roots, cofactor = got
    want_roots, want_cofactor = sympy_root_part(f)
    assert roots == want_roots
    assert cofactor == want_cofactor


def irreducible_quadratic(p: int, b: int, c: int) -> bool:
    if p == 2:
        return (b, c) == (1, 1)
    return pow((b * b - 4 * c) % p, (p - 1) // 2, p) == p - 1


@st.composite
def split_times_quadratic(draw):
    """lead * prod (x - r)^m, optionally times an irreducible quadratic."""
    p = draw(st.sampled_from(PRIMES))
    roots = draw(
        st.dictionaries(st.integers(0, p - 1), st.integers(1, 3), max_size=min(p, 5))
    )
    f = FpPoly(p, [draw(st.integers(1, p - 1))])
    for r, m in roots.items():
        f = f * from_roots(FpSet(p, [r]), m)
    if draw(st.booleans()):
        b, c = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
        assume(irreducible_quadratic(p, b, c))
        f = f * FpPoly(p, [c, b, 1])
    return roots, f


@given(split_times_quadratic())
@settings(max_examples=150, deadline=None)
def test_root_part_matches_sympy(case):
    roots, f = case
    got = rational_root_part(f)
    assert_matches_sympy(f, got)
    assert got[0] == roots


@pytest.mark.parametrize("p", PRIMES)
def test_every_element_a_root(p):
    # x^p - x at small p, and at large p a dense run of consecutive roots
    if p <= 97:
        f = FpPoly.monomial(p, 1, p) - FpPoly.x(p)
    else:
        f = from_roots(FpSet(p, range(p - 12, p)), 2) * FpPoly(p, [5, 0, 1])
    assert_matches_sympy(f, rational_root_part(f))


def test_negative_control_dropped_root():
    p = 41
    f = from_roots(FpSet(p, [3]), 2) * from_roots(FpSet(p, [5, 17]), 1)
    f = f * FpPoly(p, [3, 0, 1])  # -3 is not a square mod 41
    roots, cofactor = rational_root_part(f)
    assert_matches_sympy(f, (roots, cofactor))
    dropped = dict(roots)
    del dropped[17]
    with pytest.raises(AssertionError):
        assert_matches_sympy(f, (dropped, cofactor * from_roots(FpSet(p, [17]), 1)))


def linear_power(p: int, r: int, m: int) -> FpPoly:
    return from_roots(FpSet(p, [r]), m)


def kernel_edge_cases():
    """(label, f) at the edges of the squarefree kernel and the leaves."""
    cases = []
    for p in (3, 5, 7):
        # a multiplicity p with deg f >= p: the kernel would lose the root 1
        cases.append((f"(x-1)^p(x-2) mod {p}", linear_power(p, 1, p) * linear_power(p, 2, 1)))
        # f' = 0: g(x^p) = g(x)^p, with a rational root and an irreducible part
        g = from_roots(FpSet(p, [1]), 1) * FpPoly(p, [1, 0, 1] if p != 5 else [2, 0, 1])
        xp = [0] * (p * g.degree + 1)
        for j, c in enumerate(g.coeffs):
            xp[j * p] = c
        cases.append((f"g(x^p) mod {p}", FpPoly(p, xp)))
    # a double root left of degree 2 once x^3 comes off, deg f >= p
    cases.append(("x^3(x-1)^2 mod 3", linear_power(3, 0, 3) * linear_power(3, 1, 2)))
    p = 41
    # kernels of degree 1 and 2: discriminant a nonzero square, and a
    # non-square (-3 is not a square mod 41)
    cases.append(("(x-5)^3 mod 41", 7 * linear_power(p, 5, 3)))
    cases.append(("(x-5)^2(x-17)^3 mod 41", linear_power(p, 5, 2) * linear_power(p, 17, 3)))
    cases.append(("(x^2+3)^2 mod 41", FpPoly(p, [3, 0, 1]) ** 2))
    cases.append(("(x-5)(x^2+3)^2 mod 41", linear_power(p, 5, 1) * FpPoly(p, [3, 0, 1]) ** 2))
    # kernels of degree 3 and more still split: 0 comes off first
    cases.append(
        ("x^2(x-1)(x-2)^2(x-40)(x-9) mod 41",
         linear_power(p, 0, 2) * from_roots(FpSet(p, [1, 40, 9]), 1) * linear_power(p, 2, 2)),
    )
    return cases


KERNEL_EDGES = kernel_edge_cases()


@pytest.mark.parametrize("label, f", KERNEL_EDGES, ids=[c[0] for c in KERNEL_EDGES])
def test_kernel_edges_match_sympy(label, f):
    assert_matches_sympy(f, rational_root_part(f))


@pytest.mark.parametrize("p", [3, 5, 41, 10007])
def test_leaf_roots_discriminants(p):
    # monic (x - a)(x - b): one root when a = b (discriminant 0), two when
    # they differ (a nonzero square); x^2 - n for a non-square n has none
    rng = random.Random(p)
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    assert _leaf_roots([(-n) % p, 0, 1], p) == []
    for _ in range(20):
        a, b = rng.randrange(p), rng.randrange(p)
        for r, s in ((a, a), (a, b)):
            assert sorted(_leaf_roots([r * s % p, (-r - s) % p, 1], p)) == sorted({r, s})
        assert _leaf_roots([(-a) % p, 1], p) == [a]


def unguarded_kernel(f, p):
    # f / gcd(f, f') at every degree
    fp = FpPoly(p, f)
    return list((fp // poly_gcd(fp, fp.derivative())).coeffs)


def flipped_leaf(g, p):
    # the degree-2 leaf with the sign of -b flipped: (b +- s)/2
    if len(g) == 3:
        g = [g[0], (-g[1]) % p, 1]
    return _leaf_roots(g, p)


@pytest.mark.parametrize(
    "name, mutant, must_fail",
    [
        ("_squarefree_kernel", unguarded_kernel,
         {f"{g} mod {p}" for g in ("(x-1)^p(x-2)", "g(x^p)") for p in (3, 5, 7)}),
        ("_leaf_roots", flipped_leaf, {"x^3(x-1)^2 mod 3", "(x-5)^2(x-17)^3 mod 41"}),
    ],
)
def test_kernel_edges_negative_controls(monkeypatch, name, mutant, must_fail):
    monkeypatch.setattr(residues, name, mutant)
    wrong = set()
    for label, f in KERNEL_EDGES:
        try:
            assert_matches_sympy(f, rational_root_part(f))
        except AssertionError:
            wrong.add(label)
    assert must_fail <= wrong


def pow_mod_cases(p, rng):
    """(base, e, mod) with a non-monic mod of degree 1 to 8 (p > 2), bases of
    degree up to deg mod + 3 besides the callers' x and x + c, and e in
    {0, 1, random}."""
    cases = []
    for _ in range(40):
        n = rng.randint(1, 8)
        mod = FpPoly(p, [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)])
        bases = [
            FpPoly.x(p),
            FpPoly(p, [rng.randrange(p), 1]),
            FpPoly(p, [rng.randrange(p) for _ in range(rng.randint(1, n + 4))]),
        ]
        for base in bases:
            for e in (0, 1, rng.randrange(2, 40)):
                cases.append((base, e, mod))
    return cases


def pow_mod(base: FpPoly, e: int, mod: FpPoly) -> FpPoly:
    """_pow_mod_list on the reduced base and the monic modulus."""
    p = mod.p
    r = _pow_mod_list(list((base % mod).coeffs), e, list(mod.monic().coeffs), p)
    return FpPoly(p, r)


def assert_pow_mod_matches(cases) -> None:
    # (base ** e) % mod expands the full power: exact, and unoptimised
    for base, e, mod in cases:
        assert pow_mod(base, e, mod) == (base**e) % mod, (base, e, mod)


@pytest.mark.parametrize("p", [2, 3, 5, 41, 97, 10007])
def test_pow_mod_matches_plain_power(p):
    assert_pow_mod_matches(pow_mod_cases(p, random.Random(p)))


def test_pow_mod_negative_control_dropped_row(monkeypatch):
    cases = pow_mod_cases(97, random.Random(97))
    rows = residues._power_rows
    monkeypatch.setattr(residues, "_power_rows", lambda m, count, p: rows(m, count, p)[:-1])
    with pytest.raises(AssertionError):
        assert_pow_mod_matches(cases)


@st.composite
def form_and_point(draw):
    """A form num/den with den from split_times_quadratic, and either one of
    den's roots (gcd reduction may have lowered its order) or any residue."""
    roots, den = draw(split_times_quadratic())
    p = den.p
    num = FpPoly(p, draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=8)))
    assume(not num.is_zero())
    pick_root = roots and draw(st.booleans())
    b = draw(st.sampled_from(sorted(roots)) if pick_root else st.integers(0, p - 1))
    return RationalForm(num, den), b


@given(form_and_point())
@settings(max_examples=150, deadline=None)
def test_pole_order_matches_root_multiplicity(case):
    # residue_at raises unless the given multiplicity is the order it reads
    # off the Taylor passes; an order off by one either way must raise
    form, b = case
    v = root_multiplicity(form.den, b)
    assert residue_at(form, b, v) == residue_at(form, b)
    for wrong in (v - 1, v + 1):
        if wrong >= 0:
            with pytest.raises(ValueError):
                residue_at(form, b, wrong)

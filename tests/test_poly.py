import random

import pytest

from mucrit import poly
from mucrit.fp import FpSet, batch_inverse_ints, inverse_mod
from mucrit.poly import (
    AT_INFINITY,
    FpPoly,
    TruncatedSeries,
    from_roots,
    log_derivative_series,
    poly_gcd,
    taylor_at,
)
from mucrit.symm import power_sums_int

from conftest import random_subset


class TestFpPoly:
    def test_normalization(self):
        f = FpPoly(7, [1, 2, 0, 0])
        assert f.coeffs == (1, 2)
        assert FpPoly(7, [0, 0]).is_zero()
        assert FpPoly.zero(7).degree == -1

    def test_arithmetic(self):
        p = 13
        f = FpPoly(p, [1, 1])  # 1 + x
        g = FpPoly(p, [12, 1])  # x - 1
        assert (f * g).coeffs == (12, 0, 1)  # x^2 - 1
        assert (f + g).coeffs == (0, 2)
        assert (f - f).is_zero()
        assert (f**3).coeffs == (1, 3, 3, 1)

    def test_eval_and_derivative(self):
        f = FpPoly(13, [5, 0, 1])  # x^2 + 5
        assert f.evaluate(3) == 14 % 13
        assert f.derivative().coeffs == (0, 2)

    def test_divmod(self):
        p = 13
        f = FpPoly(p, [2, 0, 0, 1])  # x^3 + 2
        g = FpPoly(p, [1, 1])  # x + 1
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.degree < g.degree

    @pytest.mark.parametrize("p", [2, 3, 41, 10007])
    def test_divmod_by_non_monic(self, p):
        # the quotient by a divisor with leading coefficient c is the quotient
        # by the monic divisor, divided by c
        rng = random.Random(p)
        for _ in range(50):
            f = FpPoly(p, [rng.randrange(p) for _ in range(rng.randint(0, 10))])
            g = FpPoly(p, [rng.randrange(p) for _ in range(rng.randint(0, 5))] + [rng.randrange(1, p)])
            q, r = f.divmod(g)
            assert q * g + r == f
            assert r.degree < g.degree

    def test_synth_div(self):
        f = FpPoly(13, [3, 1, 1])
        q, rem = f.synth_div(2)
        assert rem == f.eval_int(2)
        assert q * FpPoly(13, [-2, 1]) + FpPoly(13, [rem]) == f

    def test_shift_arg(self):
        p = 97
        f = FpPoly(p, [3, 1, 4, 1])
        g = f.shift_arg(5)
        for x in range(10):
            assert g.eval_int(x) == f.eval_int(x + 5)

    def test_gcd(self):
        p = 13
        f = from_roots(FpSet(p, [1, 2]), 1) * from_roots(FpSet(p, [5]), 2)
        g = from_roots(FpSet(p, [2, 5]), 1)
        got = poly_gcd(f, g)
        assert got == from_roots(FpSet(p, [2, 5]), 1)


def sympy_gcd(a: FpPoly, b: FpPoly) -> FpPoly:
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    pa, pb = (
        sympy.Poly(list(reversed(f.coeffs)) or [0], x, modulus=f.p) for f in (a, b)
    )
    return FpPoly(a.p, [int(c) for c in reversed(pa.gcd(pb).all_coeffs())])


def gcd_cases(p, rng):
    """Pairs c * a, c * b with a random common factor c, either side possibly
    zero or constant."""
    def rand(lo, hi):
        return FpPoly(p, [rng.randrange(p) for _ in range(rng.randint(lo, hi))])

    cases = []
    for _ in range(60):
        c = rand(1, 5)
        cases.append((c * rand(0, 8), c * rand(0, 8)))
    return cases


class TestPolyGcdDifferential:
    @pytest.mark.parametrize("p", [2, 3, 5, 41, 97, 10007])
    def test_matches_sympy(self, p):
        for a, b in gcd_cases(p, random.Random(p)):
            assert poly_gcd(a, b) == sympy_gcd(a, b), (a, b)

    def test_negative_control_leading_coefficient_ignored(self, monkeypatch):
        # dividing as if every leading coefficient were 1 leaves wrong
        # remainders and a non-monic result, which the comparison catches;
        # _monic scales Euclid's first divisor and its result
        def unscaled(cs, p):
            while cs and cs[-1] % p == 0:
                cs.pop()
            return [c % p for c in cs]

        monkeypatch.setattr(poly, "_monic", unscaled)
        with pytest.raises(AssertionError):
            for a, b in gcd_cases(97, random.Random(97)):
                assert poly_gcd(a, b) == sympy_gcd(a, b), (a, b)


class TestFromRoots:
    def test_two_roots_f5(self):
        f = from_roots(FpSet(5, [0, 1]), 1)
        assert f.coeffs == (0, 4, 1)  # x^2 + 4x

    def test_three_roots_f13_hand_expanded(self):
        # (x)(x-1)(x-10) = x^3 - 11x^2 + 10x
        f = from_roots(FpSet(13, [0, 1, 10]), 1)
        assert f.coeffs == (0, 10, (-11) % 13, 1)

    def test_single_root_binomial(self):
        import math

        p, b, alpha = 97, 7, 5
        f = from_roots(FpSet(p, [b]), alpha)
        for j in range(alpha + 1):
            want = math.comb(alpha, j) * pow(-b, alpha - j) % p
            assert f[j] == want

    def test_derivative_at_root_is_product(self, rng):
        p = 97
        for _ in range(20):
            S = random_subset(rng, p, rng.randint(2, 8))
            f = from_roots(S, 1)
            fp = f.derivative()
            for s in S:
                prod = 1
                for t in S:
                    if t != s:
                        prod = prod * (s - t) % p
                assert fp.eval_int(s) == prod


class TestTaylor:
    def test_square_at_one(self):
        f = FpPoly(13, [0, 0, 1])
        s = taylor_at(f, 1, 4)
        assert [s.coefficient(j).v for j in range(3)] == [1, 2, 1]

    def test_multiplicity_prefix(self):
        p = 97
        f = from_roots(FpSet(p, [5]), 3) * from_roots(FpSet(p, [2]), 1)
        s = taylor_at(f, 5, 5)
        assert [s.coefficient(j).v for j in range(3)] == [0, 0, 0]
        assert s.coefficient(3).v != 0

    def test_reexpansion_roundtrip(self, rng):
        p = 997
        for _ in range(10):
            deg = rng.randint(1, 50)
            f = FpPoly(p, [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)])
            a = rng.randrange(p)
            s = taylor_at(f, a, deg + 2)
            g = FpPoly(p, [s.coefficient(j).v for j in range(deg + 1)])
            assert g.shift_arg((-a) % p) == f

    def test_linear_coefficient_is_derivative(self, rng):
        p = 131
        f = FpPoly(p, [0, 1] + [0] * 4 + [11] + [0] * 4 + [1])  # x^11 + 11x^6 + x
        for xi in range(p):
            if f.eval_int(xi) == 0:
                s = taylor_at(f, xi, 3)
                assert s.coefficient(0) == 0
                assert s.coefficient(1).v == f.derivative().eval_int(xi)


class TestSeriesArithmetic:
    def test_add_align(self):
        s = TruncatedSeries(13, 0, 0, [1, 2], 5)
        t = TruncatedSeries(13, 0, 1, [3], 4)
        u = s + t
        assert [u.coefficient(j).v for j in range(2)] == [1, 5]
        assert u.order == 4

    def test_mul_orders_track_valuation(self):
        # (1/u + ...) squared loses an order
        s = TruncatedSeries(13, 0, -1, [1, 0, 1], 2)
        sq = s * s
        assert sq.start == -2
        assert sq.order == 1

    def test_inverse(self):
        p = 13
        s = TruncatedSeries(p, 0, 0, [1, 1], 6)  # 1 + u
        inv = s.inverse()
        for j in range(6):
            assert inv.coefficient(j).v == (p - 1 if j % 2 else 1)

    def test_center_mismatch_rejected(self):
        s = TruncatedSeries(13, 0, 0, [1], 3)
        t = TruncatedSeries(13, 1, 0, [1], 3)
        with pytest.raises(ValueError):
            s + t

    def test_coefficient_beyond_order(self):
        s = TruncatedSeries(13, 0, 0, [1], 3)
        with pytest.raises(ValueError):
            s.coefficient(3)


class TestLogDerivative:
    def test_geometric_series_at_infinity(self):
        p, c = 13, 4
        g = FpPoly(p, [(-c) % p, 1])
        s = log_derivative_series(g, AT_INFINITY, 8)
        for l in range(7):
            assert s.coefficient(l + 1).v == pow(c, l, p)

    def test_power_sums_at_infinity(self):
        p = 7
        g = from_roots(FpSet(p, [1, 3]), 1)
        s = log_derivative_series(g, AT_INFINITY, 6)
        assert s.coefficient(1).v == 2  # p_0
        assert s.coefficient(2).v == 4  # p_1
        assert s.coefficient(3).v == 10 % 7  # p_2

    def test_matches_power_sums_random(self, rng):
        for p in [41, 97]:
            for _ in range(10):
                S = random_subset(rng, p, rng.randint(2, 7))
                g = from_roots(S, 1)
                s = log_derivative_series(g, AT_INFINITY, 22)
                ps = power_sums_int(S, 20)
                for l in range(21):
                    assert s.coefficient(l + 1).v == ps[l]

    def test_at_simple_root(self, rng):
        p = 97
        for _ in range(10):
            B = random_subset(rng, p, rng.randint(2, 6))
            g = from_roots(B, 1)
            for b in B:
                s = log_derivative_series(g, b, 3)
                assert s.coefficient(-1) == 1
                others = [(b - x) % p for x in B if x != b]
                inv = batch_inverse_ints(others, p)
                assert s.coefficient(0).v == sum(inv) % p
                assert s.coefficient(1).v == (-sum(x * x % p for x in inv)) % p
                assert s.coefficient(2).v == sum(pow(x, 3, p) for x in inv) % p

    def test_at_nonroot_matches_ratio(self):
        p = 13
        g = from_roots(FpSet(p, [1, 3]), 1)
        s = log_derivative_series(g, 5, 4)
        gp = g.derivative()
        assert s.coefficient(0).v == gp.eval_int(5) * inverse_mod(g.eval_int(5), p) % p

    def test_multiple_root_rejected(self):
        p = 13
        g = from_roots(FpSet(p, [2]), 2)
        with pytest.raises(ValueError):
            log_derivative_series(g, 2, 3)

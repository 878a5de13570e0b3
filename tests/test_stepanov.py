from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucrit import stepanov
from mucrit.fp import FpSet
from mucrit.hp import relation_x, relation_y
from mucrit.poly import FpPoly
from mucrit.qalg import QPoly
from mucrit.stepanov import (
    _solve_xi5,
    _w_inverse,
    _w_reduce,
    _xi,
    alpha11_obstruction,
    annihilated_poly,
    d_alpha_l,
    d_operator,
    gamma_cross_check,
    gamma_numeric,
    gamma_symbolic,
    identity_catalog_run_all,
    lemma5_lemma6_numeric,
    lemma13_symbolic,
    quadratic_integer_solutions,
    rat2_check,
    rat3_check,
    verify_G_zero,
)

F41 = FpSet(41, [0, 1, 9, 32, 40])


class TestRatRelations:
    def test_f41_everywhere(self):
        for a in F41:
            assert rat2_check(F41, a)
            assert rat3_check(F41, a)

    def test_two_element_always_fails(self):
        # the relation would force 1 = 1/2
        for p in [13, 41, 97]:
            A = FpSet(p, [0, 1])
            assert not rat2_check(A, 0)

    def test_cross_shape_f13(self):
        # {0, +-1, +-i} with i^2 = -1: i = 5 mod 13
        A = FpSet(13, [0, 1, 12, 5, 8])
        for a in A:
            assert rat2_check(A, a)
            assert rat3_check(A, a)

    def test_scaled_translated_cross(self, rng):
        p = 13
        base = [0, 1, 12, 5, 8]
        for _ in range(5):
            u = rng.randrange(1, p)
            t = rng.randrange(p)
            A = FpSet(p, [(u * x + t) % p for x in base])
            assert all(rat2_check(A, a) and rat3_check(A, a) for a in A)

    def test_fractional_transforms_inherit_relations(self):
        # images of the d-critical difference set under the reciprocal map
        # must satisfy both relations at every element (d = 20 not in {2, 6})
        from mucrit.hp import fractional_transform

        for a in F41:
            image = fractional_transform(F41, a)
            for x in image:
                assert rat2_check(image, x)
                assert rat3_check(image, x)


class TestDOperator:
    def test_annihilates_approximant_fp(self, rng):
        for p in [10007, 1000003]:
            for _ in range(100):
                a = rng.randrange(p)
                s = rng.randrange(1, p)
                alpha = rng.randint(3, 12)
                g = annihilated_poly(p, a, s, alpha)
                assert d_operator(g, alpha).is_zero()

    def test_quintic_symbolic(self):
        x = QPoly.var("x", ("x", "b"))
        b = QPoly.var("b", ("x", "b"))
        f = x**5 - x + b
        assert d_operator(f, 5) == -3600 * b * x

    def test_quintic_numeric(self):
        p = 10007
        for bb in (0, 1, 17):
            f = FpPoly(p, [bb, p - 1, 0, 0, 0, 1])
            got = d_operator(f, 5)
            assert got == FpPoly(p, [0, (-3600 * bb) % p])

    def test_degree_bound(self, rng):
        p = 97
        for _ in range(10):
            deg = rng.randint(4, 9)
            g = FpPoly(p, [rng.randrange(p) for _ in range(deg)] + [1])
            alpha = rng.randint(3, 8)
            out = d_operator(g, alpha)
            assert out.is_zero() or out.degree <= 2 * deg - 4

    def test_degree11_kernel_needs_negative_linear_term(self):
        # the x-coefficient sign decides annihilation: +x leaves -1306800 x^8
        x = QPoly.var("x")
        plus = d_operator(x**11 + 11 * x**6 + x, 11)
        minus = d_operator(x**11 + 11 * x**6 - x, 11)
        assert minus.is_zero()
        assert plus == -1306800 * x**8


class TestGZero:
    def test_symbolic(self):
        assert verify_G_zero()

    def test_spot_values(self):
        # numeric instances of the same bracket expression
        def G(a, T):
            def ff(x, m):
                r = 1
                for i in range(m):
                    r *= x - i
                return r

            return (
                4 * a * (a - 2) * (a * T + T + 1) * (ff(a, 3) * T + 3 * ff(a, 2) * (T + 1))
                - 3 * (a - 1) * (a - 2) * (ff(a, 2) * T + 2 * a * (T + 1)) ** 2
                - a * (a + 1) * T * (ff(a, 4) * T + 4 * ff(a, 3) * (T + 1))
            )

        assert G(7, 3) == 0
        assert G(2, 1) == 0


class TestDAlphaL:
    def test_factorization(self):
        expanded, factored, ok = d_alpha_l()
        assert ok and expanded == factored

    def test_integer_solutions(self):
        assert quadratic_integer_solutions() == [(0, 2), (0, 3), (1, 5), (6, 11)]

    def test_l_equals_alpha_minus_one_kills(self):
        expanded, _, _ = d_alpha_l()
        for alpha in range(2, 12):
            assert expanded.eval_scalar(a=alpha, l=alpha - 1) == 0


class TestAlpha11:
    def test_wrong_xi_relation_fails(self, monkeypatch):
        # negative control: reducing by xi^10 + 10 xi^5 + 1 must break the chain
        monkeypatch.setattr(stepanov, "_XI_TAIL", -1 - _xi(5, 10))
        assert not alpha11_obstruction().final_reduction_ok

    def test_report(self):
        rep = alpha11_obstruction()
        assert not rep.printed_poly_annihilated
        assert rep.kernel_poly_annihilated
        assert rep.coefficient_display_ok
        assert rep.coefficient_factorizations_ok
        assert rep.fpp_square_identity_ok
        assert rep.fpf3_identity_ok
        assert rep.square_reduction_ok
        assert rep.linear_reduction_ok
        assert rep.product_reduction_ok
        assert rep.final_reduction_ok
        assert rep.xi5_value == Fraction(15, 338)

    def test_xi5_solved_from_relation(self):
        # 1690 xi^5 = 75 gives 15/338; a different relation gives a different
        # value, and a relation not of the form c0 + c5 xi^5 is rejected
        assert _solve_xi5(75 - _xi(5, 1690)) == Fraction(15, 338)
        assert _solve_xi5(76 - _xi(5, 1690)) == Fraction(38, 845)
        assert _solve_xi5(_xi(15)) == Fraction(-11, 120)  # reduced mod xi^10+11xi^5+1
        for bad in (_xi(3) + 1, _xi(0, 75), _xi(5) + _xi(8)):
            with pytest.raises(ValueError):
                _solve_xi5(bad)

    def test_printed_d_value(self):
        rep = alpha11_obstruction()
        x = QPoly.var("x")
        assert rep.printed_d_value == -1306800 * x**8

    def test_derived_residual(self):
        # the from-scratch criterion leaves 72600 xi^8, nonzero in any
        # characteristic > 121
        rep = alpha11_obstruction()
        xi = QPoly.var("xi")
        assert rep.derived_criterion_residual == 72600 * xi**8

    def test_numeric_path(self):
        rep = alpha11_obstruction(p=127)
        assert rep.numeric_checks_ok
        with pytest.raises(ValueError):
            alpha11_obstruction(p=113)  # below 121


class TestGammas:
    def test_symbolic_gamma0_inverse(self):
        g = gamma_symbolic()
        w = QPoly.var("w", ("k", "w"))
        assert _w_inverse(g["gamma0"]) == 2 * w + 1
        assert _w_inverse(2 * _w_inverse(g["gamma0"]) - 1) == w * Fraction(-4, 9) + Fraction(1, 9)

    def test_numeric_cross_check_p19(self):
        assert gamma_cross_check(19, 3, 3, 9)

    def test_numeric_cross_check_requires_root(self):
        # 2 * 4^2 + 1 = 33 is not 0 mod 19, so 4 is no value of w
        with pytest.raises(ValueError):
            gamma_cross_check(19, 4, 3, 9)

    def test_numeric_cross_check_requires_half_group(self):
        with pytest.raises(ValueError):
            gamma_cross_check(13, 3, 2, 4)

    def test_numeric_guards(self):
        with pytest.raises(ZeroDivisionError):
            gamma_numeric(13, 2, 2, 1)

    def test_gamma_numeric_matches_definition(self):
        # every constant against its closed form, evaluated over Q and then
        # reduced mod p
        cases = [(13, 2, 2, 4), (19, 3, 3, 9), (41, 5, 0, 20), (97, 7, 6, 42), (101, 40, 11, 1000)]
        for p, alpha, k, d in cases:
            g0 = Fraction(alpha * (alpha + 1), d - 1)
            g1 = Fraction(alpha * (alpha + 1) * (alpha + 2), (d - 1) * (d - 2))
            g2 = alpha * alpha - (k + 2) * alpha + Fraction((k + 1) * (k + 2), 3)
            g3 = alpha - Fraction(k + 1, 2)
            g4 = (k + 2) * g0 * g3 - k * alpha
            g5 = alpha * alpha - (k + 2) * g0 * g3
            want = [x.numerator * pow(x.denominator, -1, p) % p for x in (g0, g1, g2, g3, g4, g5)]
            g = gamma_numeric(p, alpha, k, d)
            assert [g[f"gamma{i}"] for i in range(6)] == want, (p, alpha, k, d)

    @pytest.mark.parametrize(
        "A, B",
        [((3, 10), (2, 11)), ((2, 11), (3, 10)), ((1, 4, 6), (0, 2, 3, 5))],
    )
    def test_relation_factors_are_gamma0_and_gamma1(self, A, B):
        # Relations X and Y scale their B-difference sums by gamma0 and
        # gamma1 at d = |A||B|; the last pair is not critical
        A, B = FpSet(13, A), FpSet(13, B)
        p, alpha, d = 13, len(A), len(A) * len(B)
        g = gamma_numeric(p, alpha, 0, d)
        for b in B:
            s1 = sum(pow(b - x, -1, p) for x in B if x != b) % p
            s2 = sum(pow(b - x, -2, p) for x in B if x != b) % p
            assert relation_x(A, B, b)[1] == g["gamma0"] * s1 % p
            assert relation_y(A, B, b)[1] == g["gamma1"] * (alpha * s1 * s1 - s2) % p


class TestLemma13:
    def test_full_report(self):
        rep = lemma13_symbolic()
        assert rep.ok
        assert rep.display1_ok and rep.display2_ok
        assert rep.final_ok
        assert rep.alpha7_expansion_ok and rep.alpha7_collapse_ok
        assert rep.inv_gamma0_ok and rep.inv_two_over_gamma0_minus_one_ok

    def test_ok_counts_every_field(self):
        # negative controls: any one failed step fails the report
        rep = lemma13_symbolic()
        assert rep.ok and len(rep._fields) == 7
        for field in rep._fields:
            assert not rep._replace(**{field: False}).ok, field

    def test_wrong_w_relation_fails(self, monkeypatch):
        # negative control: in Q[k][w]/(2w^2 - 1) the chain must break; only
        # the expansion in plain Q[a] does not use the relation
        monkeypatch.setattr(stepanov, "_W_TAIL", Fraction(1, 2))
        rep = lemma13_symbolic()
        assert not rep.ok
        assert [f for f in rep._fields if getattr(rep, f)] == ["alpha7_expansion_ok"]


W = QPoly.var("w", ("k", "w"))
K = QPoly.var("k", ("k", "w"))
small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _conjugate(x):
    """v - u w for x = u w + v over (k, w): w goes to -w."""
    return QPoly(x.vars, {(a, b): c * (-1) ** b for (a, b), c in x.terms.items()})


class TestWRing:
    """The ring Q[k][w]/(2w^2 + 1) of the quadratic congruence: ``QPoly``s
    over (k, w) reduced by ``_w_reduce``, and ``_w_inverse`` for elements
    without k."""

    def test_generator_square(self):
        r = _w_reduce(W * W)
        assert r == Fraction(-1, 2)
        assert r.vars == ("k", "w") and r.terms == {(0, 0): Fraction(-1, 2)}

    def test_inverse_of_constant_norm(self):
        x = 4 * W + 1
        assert _w_reduce(x * _conjugate(x)) == 9
        assert _w_inverse(x) == W * Fraction(-4, 9) + Fraction(1, 9)
        assert _w_reduce(x * _w_inverse(x)) == 1

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            _w_inverse(QPoly.const(0, ("k", "w")))

    def test_k_input_rejected(self):
        # w + k has norm k^2 + 1/2, which is no rational
        for x in (W + K, K, W * K):
            with pytest.raises(ValueError):
                _w_inverse(x)

    def test_element_over_another_list_rejected(self):
        # 4w + 1 over (w,) or (w, k) is no element of the ring
        for vs in (("w",), ("w", "k")):
            with pytest.raises(ValueError):
                _w_inverse(4 * QPoly.var("w", vs) + 1)
        # negative control: the same element over (k, w) inverts
        assert _w_inverse(4 * W + 1) == W * Fraction(-4, 9) + Fraction(1, 9)

    @pytest.mark.parametrize("c", [0, 3, Fraction(1, 2)])
    def test_inverse_coefficients_are_fractions(self, c):
        # u or v missing from the terms must not turn the norm into a float
        for x in (c * W + 1, W + c):
            inv = _w_inverse(x)
            assert inv.vars == ("k", "w")
            assert all(type(t) is Fraction for t in inv.terms.values())
            assert _w_reduce(x * inv) == 1

    @given(small_fracs, small_fracs, small_fracs, small_fracs)
    @settings(max_examples=60, deadline=None)
    def test_conjugate_product_is_norm(self, u1, v1, u2, v2):
        x = u1 * W + v1
        y = u2 * W + v2
        norm_x = _w_reduce(x * _conjugate(x))
        assert norm_x == v1 * v1 + u1 * u1 / 2
        xy = _w_reduce(x * y)
        assert _w_reduce(xy * _conjugate(xy)) == norm_x * _w_reduce(y * _conjugate(y))

    @given(small_fracs, small_fracs)
    @settings(max_examples=40, deadline=None)
    def test_inverse_roundtrip_rational(self, u, v):
        x = u * W + v
        if x:
            assert _w_reduce(x * _w_inverse(x)) == 1


class TestIdentityCatalog:
    def test_all_entries_pass(self):
        results = identity_catalog_run_all()
        assert all(results.values()), {k: v for k, v in results.items() if not v}

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            from mucrit.stepanov import identity_catalog_check

            identity_catalog_check("nope")

    def test_resultant_oracle(self):
        sympy = pytest.importorskip("sympy")
        z = sympy.symbols("z")
        r = sympy.resultant(3 * (1 + z**2) - (1 + z) ** 2, 9 * (1 + z**3) - (1 + z) ** 3, z)
        assert r == 216

    def test_g_zero_oracle(self):
        sympy = pytest.importorskip("sympy")
        a, T = sympy.symbols("a T")

        def ff(x, m):
            r = sympy.Integer(1)
            for i in range(m):
                r *= x - i
            return r

        G = (
            4 * a * (a - 2) * (a * T + T + 1) * (ff(a, 3) * T + 3 * ff(a, 2) * (T + 1))
            - 3 * (a - 1) * (a - 2) * (ff(a, 2) * T + 2 * a * (T + 1)) ** 2
            - a * (a + 1) * T * (ff(a, 4) * T + 4 * ff(a, 3) * (T + 1))
        )
        assert sympy.expand(G) == 0


class TestLemma56:
    def test_f41_direct(self):
        rep = lemma5_lemma6_numeric(F41, 20)
        assert rep.critical and not rep.exempt
        assert rep.p2_identity_ok and rep.p3_identity_ok
        assert rep.recentered_vanishing_ok

    def test_f13_exempt(self):
        rep = lemma5_lemma6_numeric(FpSet(13, [0, 1, 10]), 6)
        assert rep.exempt

    def test_shifted_f41(self):
        for t in (7, 19):
            rep = lemma5_lemma6_numeric(F41.translate(t), 20)
            assert rep.p2_identity_ok and rep.p3_identity_ok

    def test_non_critical_rejected(self):
        with pytest.raises(ValueError):
            lemma5_lemma6_numeric(FpSet(41, [0, 1, 2, 3, 4]), 20)

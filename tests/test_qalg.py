from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from mucrit.qalg import QPoly, falling

small_fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


class TestQPoly:
    def test_basic_arithmetic(self):
        x = QPoly.var("x")
        f = (x + 1) * (x - 1)
        assert f == x**2 - 1
        assert (x + Fraction(1, 2)) * 2 == 2 * x + 1

    def test_variable_alignment(self):
        x = QPoly.var("x")
        y = QPoly.var("y")
        f = x + y
        assert f.vars == ("x", "y")
        assert f.coefficient("y", 1) == QPoly.const(1, ("x",))

    def test_degree_and_coefficient(self):
        x = QPoly.var("x", ("x", "y"))
        y = QPoly.var("y", ("x", "y"))
        f = x**2 * y + 3 * y**2
        assert f.degree("x") == 2
        assert f.coefficient("x", 2) == QPoly.var("y")
        assert f.coefficient("x", 0) == 3 * QPoly.var("y") ** 2

    def test_derivative(self):
        x = QPoly.var("x")
        assert (x**3).derivative("x") == 3 * x**2

    def test_eval_mod(self):
        x = QPoly.var("x")
        f = x * Fraction(1, 2) + Fraction(1, 3)
        p = 13
        want = (7 * 5 + 9) % p  # 1/2 = 7, 1/3 = 9 mod 13
        assert f.eval_mod(p, x=5) == want

    def test_eval_mod_rejects_denominator_divisible_by_p(self):
        # x/3 + 1 has no value mod 3; the term x/3 must not read as 0
        x = QPoly.var("x")
        with pytest.raises(ZeroDivisionError):
            (x / 3 + 1).eval_mod(3, x=1)
        assert (x / 3 + 1).eval_mod(5, x=1) == (2 + 1) % 5  # 1/3 = 2 mod 5

    def test_falling_factorial(self):
        a = QPoly.var("a")
        assert falling(a, 0) == QPoly.const(1, ("a",))
        assert falling(a, 3) == a * (a - 1) * (a - 2)
        assert falling(a, 2).eval_scalar(a=7) == 42


VAR_SETS = [(), ("x",), ("y",), ("x", "y")]


@st.composite
def qpolys(draw):
    """A QPoly through the validating constructor, zero coefficients included."""
    vs = draw(st.sampled_from(VAR_SETS))
    exps = st.tuples(*[st.integers(0, 3)] * len(vs))
    return QPoly(vs, draw(st.dictionaries(exps, small_fracs, max_size=5)))


def _terms_over(f, vs):
    return {
        tuple(e[f.vars.index(v)] if v in f.vars else 0 for v in vs): c
        for e, c in f.terms.items()
    }


def _joint_vars(f, g):
    # binary operations keep equal variable lists and sort the union otherwise
    return f.vars if f.vars == g.vars else tuple(sorted(set(f.vars) | set(g.vars)))


def _sum_oracle(f, g):
    vs = _joint_vars(f, g)
    out = _terms_over(f, vs)
    for e, c in _terms_over(g, vs).items():
        out[e] = out.get(e, 0) + c
    return QPoly(vs, out)


def _product_oracle(f, g):
    vs = _joint_vars(f, g)
    out = {}
    for e1, c1 in _terms_over(f, vs).items():
        for e2, c2 in _terms_over(g, vs).items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return QPoly(vs, out)


def _assert_same(got, want):
    # field by field: ``==`` would align variables and hide a difference
    assert got.vars == want.vars
    assert got.terms == want.terms
    assert all(type(c) is Fraction and c != 0 for c in got.terms.values())


class TestQPolyTrustedArithmetic:
    """Results built inside ``qalg`` without validation equal what the
    validating constructor builds from an independent computation."""

    @given(qpolys(), qpolys())
    @settings(max_examples=150, deadline=None)
    def test_ring_operations(self, f, g):
        _assert_same(f + g, _sum_oracle(f, g))
        _assert_same(f - g, _sum_oracle(f, QPoly(g.vars, {e: -c for e, c in g.terms.items()})))
        _assert_same(f * g, _product_oracle(f, g))
        _assert_same(-f, QPoly(f.vars, {e: -c for e, c in f.terms.items()}))
        for r in (f + g, f - g, f * g, -f):
            _assert_same(r, QPoly(r.vars, r.terms))

    @given(qpolys(), small_fracs)
    @settings(max_examples=80, deadline=None)
    def test_with_vars_scalar_division_and_calculus(self, f, c):
        vs = ("x", "y", "z")
        _assert_same(f.with_vars(vs), QPoly(vs, _terms_over(f, vs)))
        assert f.with_vars(f.vars) is f
        if c != 0:
            _assert_same(f / c, QPoly(f.vars, {e: v / c for e, v in f.terms.items()}))
        g = f.with_vars(("x", "y"))
        _assert_same(
            g.derivative("x"),
            QPoly(g.vars, {(a - 1, b): v * a for (a, b), v in g.terms.items() if a}),
        )
        _assert_same(
            g.coefficient("x", 1),
            QPoly(("y",), {(b,): v for (a, b), v in g.terms.items() if a == 1}),
        )

    @given(qpolys(), st.one_of(st.integers(-5, 5), small_fracs))
    @settings(max_examples=150, deadline=None)
    def test_scalar_operands_match_coerced_path(self, f, c):
        # int and Fraction operands skip QPoly.const; the result must be the
        # one the polynomial path gives, term order included (a reflected
        # operation runs with f on the left)
        k = QPoly.const(c, f.vars)
        for got, want in (
            (f + c, f + k), (c + f, f + k), (f - c, f - k), (c - f, -f + k),
            (f * c, f * k), (c * f, f * k),
        ):
            _assert_same(got, want)
            assert list(got.terms) == list(want.terms)

    def test_cancellation_leaves_no_terms(self):
        x = QPoly.var("x")
        assert ((x + 1) * (x - 1) - x**2 + 1).terms == {}
        y = QPoly.var("y")
        r = (x + y) * (x - y) - x * x + y * y
        assert r.vars == ("x", "y") and r.terms == {}
        assert (x / 3 * 3 - x).terms == {}
        assert (x.derivative("x") - 1).terms == {}


def _to_sympy(f):
    syms = sympy.symbols(f.vars)
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[v**x for v, x in zip(syms, e)])
         for e, c in f.terms.items()),
        sympy.Integer(0),
    )


@st.composite
def polys_over(draw, vs, max_exp):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(vs))
    return QPoly(vs, draw(st.dictionaries(exps, small_fracs, max_size=6)))


class TestRewrite:
    """``rewrite`` is the remainder of polynomial division, checked against
    ``sympy.rem`` for both quotient rings of the symbolic chains."""

    @given(polys_over(("k", "w"), 6))
    @settings(max_examples=80, deadline=None)
    def test_w_ring_matches_sympy_rem(self, f):
        w = sympy.Symbol("w")
        got = f.rewrite("w", 2, Fraction(-1, 2))
        assert got.vars == ("k", "w") and got.degree("w") < 2
        assert all(type(c) is Fraction for c in got.terms.values())
        want = sympy.rem(_to_sympy(f), 2 * w**2 + 1, w)
        assert sympy.expand(_to_sympy(got) - want) == 0

    @given(polys_over(("xi",), 35))
    @settings(max_examples=80, deadline=None)
    def test_xi_ring_matches_sympy_rem(self, f):
        xi = sympy.Symbol("xi")
        tail = -1 - 11 * QPoly.var("xi") ** 5
        got = f.rewrite("xi", 10, tail)
        assert got.degree("xi") < 10
        want = sympy.rem(_to_sympy(f), xi**10 + 11 * xi**5 + 1, xi)
        assert sympy.expand(_to_sympy(got) - want) == 0

    def test_tail_must_lower_the_degree(self):
        # a tail of degree >= n, or n < 1, would rewrite forever
        x = QPoly.var("x")
        for n, tail in ((0, 1), (-1, 1), (2, x**2), (2, x**3 + 1), (1, x)):
            with pytest.raises(ValueError):
                (x**5).rewrite("x", n, tail)


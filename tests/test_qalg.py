from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucrit.qalg import QPoly, QQuadElem, falling

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
        w = QQuadElem(QPoly.const(Fraction(1, 3), ("k",)), 1)
        with pytest.raises(ZeroDivisionError):
            w.eval_mod(3, 1)  # 2*1 + 1 = 0 mod 3

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


class TestQQuadElem:
    def test_generator_square(self):
        w = QQuadElem.generator()
        assert w * w == QQuadElem(0, Fraction(-1, 2))

    def test_inverse_of_constant_norm(self):
        w = QQuadElem.generator()
        x = 4 * w + 1
        assert x.norm() == QPoly.const(9, ("k",))
        assert x.inverse() == w * Fraction(-4, 9) + Fraction(1, 9)
        assert x * x.inverse() == QQuadElem(0, 1)

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            QQuadElem(0, 0).inverse()

    def test_inexact_division_rejected(self):
        # norm of w + k is k^2 + 1/2, which does not divide the conjugate parts
        x = QQuadElem.generator() + QQuadElem.k()
        with pytest.raises(ValueError):
            x.inverse()

    def test_eval_mod(self):
        # w = 3 satisfies 2*9 + 1 = 19 == 0 mod 19
        x = QQuadElem(2, 5)
        assert x.eval_mod(19, 3) == (2 * 3 + 5) % 19
        with pytest.raises(ValueError):
            x.eval_mod(19, 4)

    @given(small_fracs, small_fracs, small_fracs, small_fracs)
    @settings(max_examples=60, deadline=None)
    def test_conjugate_product_is_norm(self, u1, v1, u2, v2):
        x = QQuadElem(QPoly.const(u1, ("k",)), QPoly.const(v1, ("k",)))
        prod = x * QQuadElem(-x.u, x.v)
        assert prod.u.is_zero()
        assert prod.v == x.norm() == QPoly.const(v1 * v1 + u1 * u1 / 2, ("k",))
        y = QQuadElem(QPoly.const(u2, ("k",)), QPoly.const(v2, ("k",)))
        assert (x * y).norm() == x.norm() * y.norm()

    @given(small_fracs, small_fracs)
    @settings(max_examples=40, deadline=None)
    def test_inverse_roundtrip_rational(self, u, v):
        x = QQuadElem(QPoly.const(u, ("k",)), QPoly.const(v, ("k",)))
        if not x.is_zero():
            assert x * x.inverse() == QQuadElem(0, 1)

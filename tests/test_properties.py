"""Cross-module property tests driven by hypothesis."""

from hypothesis import given, settings
from hypothesis import strategies as st

from mucrit.fp import FpSet, batch_inverse_ints, binom_mod, inverse_mod
from mucrit.hp import hp_coeffs, hp_polynomial, vandermonde_solve
from mucrit.poly import (
    AT_INFINITY,
    FpPoly,
    TruncatedSeries,
    from_roots,
    log_derivative_series,
    taylor_at,
)
from mucrit.residues import RationalForm, residue_at, residue_at_infinity
from mucrit.symm import power_sums_int

PRIMES = st.sampled_from([13, 41, 97, 131])


@st.composite
def poly_over(draw, p, max_deg=8):
    deg = draw(st.integers(min_value=0, max_value=max_deg))
    coeffs = draw(
        st.lists(st.integers(0, p - 1), min_size=deg + 1, max_size=deg + 1)
    )
    return FpPoly(p, coeffs)


@st.composite
def subset_of(draw, p, min_size=2, max_size=7):
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    elems = draw(
        st.lists(st.integers(0, p - 1), min_size=size, max_size=size, unique=True)
    )
    return FpSet(p, elems)


@given(PRIMES, st.data())
@settings(max_examples=60, deadline=None)
def test_poly_ring_axioms(p, data):
    f = data.draw(poly_over(p))
    g = data.draw(poly_over(p))
    h = data.draw(poly_over(p))
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    x = data.draw(st.integers(0, p - 1))
    assert (f * g).eval_int(x) == f.eval_int(x) * g.eval_int(x) % p


@given(st.sampled_from([2, 3, 13, 41, 97, 131]), st.data())
@settings(max_examples=80, deadline=None)
def test_results_are_canonical(p, data):
    # every result built by the trusted constructor equals the same
    # coefficients run through the checking constructor
    f = data.draw(poly_over(p))
    g = data.draw(poly_over(p))
    a = data.draw(st.integers(-p, 2 * p))
    results = [f * g, f * a, f + g, f - g, g - f, f - f, -f, f.derivative(), f.monic()]
    results.append(f.synth_div(a)[0])
    if not g.is_zero():
        results += f.divmod(g)
    for r in results:
        assert FpPoly(p, r.coeffs) == r
    lists = [taylor_at(h, a, data.draw(st.integers(1, 10))) for h in (f, g)]
    assert all(0 <= c < p for cs in lists for c in cs)
    s, t = (TruncatedSeries(p, a, 0, cs, len(cs)) for cs in lists)
    series = [s * t, s * a]
    if not t.is_zero():
        series.append(t.inverse())
    if not g.is_zero():
        series.append(log_derivative_series(g, AT_INFINITY, 4))
        if g.eval_int(a):
            series.append(log_derivative_series(g, a, 4))
    for r in series:
        assert TruncatedSeries(p, r.center, r.start, r.coeffs, r.order) == r


@given(PRIMES, st.data())
@settings(max_examples=40, deadline=None)
def test_divmod_contract(p, data):
    f = data.draw(poly_over(p))
    g = data.draw(poly_over(p))
    if g.is_zero():
        return
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.is_zero() or r.degree < g.degree


@given(PRIMES, st.data())
@settings(max_examples=40, deadline=None)
def test_taylor_shift_consistency(p, data):
    f = data.draw(poly_over(p))
    a = data.draw(st.integers(0, p - 1))
    s = taylor_at(f, a, len(f.coeffs) + 2)
    assert len(s) == len(f.coeffs) + 2 and s[-1] == 0
    # evaluating the expansion at a point recovers f
    x = data.draw(st.integers(0, p - 1))
    acc = 0
    for j, c in enumerate(s):
        acc = (acc + c * pow((x - a) % p, j, p)) % p
    assert acc == f.eval_int(x)


@given(PRIMES, st.data())
@settings(max_examples=30, deadline=None)
def test_coefficients_agree_and_shift(p, data):
    A = data.draw(subset_of(p, max_size=min(6, p - 1)))
    cs = hp_coeffs(A)
    vs = vandermonde_solve(A)
    assert all(cs[a] == vs[a] for a in A)
    t = data.draw(st.integers(0, p - 1))
    shifted = hp_coeffs(A.translate(t))
    assert all(shifted[(a + t) % p] == cs[a] for a in A)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_polynomial_degree_always_d(data):
    p = data.draw(st.sampled_from([97, 131]))
    A = data.draw(subset_of(p, max_size=6))
    alpha = len(A)
    d = data.draw(st.integers(min_value=2, max_value=(p - alpha) // 2))
    f = hp_polynomial(A, d)
    assert f.degree == d
    assert f.leading() == binom_mod(alpha + d - 1, d, p)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_log_derivative_matches_power_sums(data):
    p = data.draw(st.sampled_from([41, 97]))
    A = data.draw(subset_of(p, max_size=6))
    g = from_roots(A, 1)
    s = log_derivative_series(g, AT_INFINITY, 12)
    ps = power_sums_int(A, 10)
    for l in range(11):
        assert s.coefficient(l + 1) == ps[l]


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_residue_sum_zero_on_split_dens(data):
    p = data.draw(st.sampled_from([41, 97]))
    roots = data.draw(subset_of(p, min_size=1, max_size=4))
    mults = data.draw(
        st.lists(st.integers(1, 2), min_size=len(roots), max_size=len(roots))
    )
    den = FpPoly.one(p)
    for r, m in zip(roots, mults):
        den = den * from_roots(FpSet(p, [r]), m)
    num = data.draw(poly_over(p, max_deg=den.degree))
    if num.is_zero():
        return
    form = RationalForm(num, den)
    total = sum(residue_at(form, r) for r in roots) + residue_at_infinity(form)
    assert total % p == 0


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_batch_inverse_matches_fermat(data):
    p = data.draw(st.sampled_from([13, 97, 10007]))
    vals = data.draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=40))
    assert batch_inverse_ints(vals, p) == [inverse_mod(v, p) for v in vals]

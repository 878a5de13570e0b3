import random
import sys

import pytest

from mucrit import checks, poly, residues
from mucrit.fp import FpSet, batch_inverse_ints, inverse_mod
from mucrit.poly import FpPoly, TruncatedSeries, from_roots, taylor_at
from mucrit.residues import (
    FORM_NAMES,
    RationalForm,
    lemma_form_identity,
    named_form,
    rational_root_part,
    residue_at,
    residue_at_infinity,
    sum_residues_check,
)

from conftest import random_subset, root_multiplicity


def random_split_form(rng, p, max_roots=4, max_mult=2):
    roots = rng.sample(range(p), rng.randint(1, max_roots))
    den = FpPoly.one(p)
    for r in roots:
        den = den * from_roots(FpSet(p, [r]), rng.randint(1, max_mult))
    num = FpPoly(p, [rng.randrange(p) for _ in range(rng.randint(1, den.degree + 2))])
    if num.is_zero():
        num = FpPoly.one(p)
    return RationalForm(num, den)


class TestResidueAt:
    def test_dx_over_x(self):
        p = 13
        form = RationalForm(FpPoly.one(p), FpPoly.x(p))
        assert residue_at(form, 0) == 1
        assert residue_at_infinity(form) == p - 1

    def test_double_pole_no_simple_part(self):
        p = 13
        b = 5
        form = RationalForm(FpPoly.one(p), from_roots(FpSet(p, [b]), 2))
        assert residue_at(form, b) == 0

    def test_non_pole_is_zero(self):
        p = 13
        form = RationalForm(FpPoly.one(p), FpPoly.x(p))
        assert residue_at(form, 3) == 0

    def test_given_multiplicity_is_checked(self):
        p = 13
        den = from_roots(FpSet(p, [5]), 3) * FpPoly.x(p)
        form = RationalForm(FpPoly(p, [1, 2, 7]), den)
        assert residue_at(form, 5, 3) == residue_at(form, 5)
        assert residue_at(form, 0, 1) == residue_at(form, 0)
        assert residue_at(form, 3, 0) == 0
        for b, wrong in ((5, 2), (5, 4), (0, 0), (3, 1)):
            with pytest.raises(ValueError):
                residue_at(form, b, wrong)

    def test_omega20_residue_formula(self, rng):
        # x^(k+1) (g'/g)^2 dx at b: (k+1) b^k + 2 b^(k+1) sum' 1/(b-b')
        p = 97
        for _ in range(10):
            B = random_subset(rng, p, rng.randint(2, 5))
            k = rng.randint(0, 5)
            form = named_form("omega20", None, B, k)
            for b in B:
                inv = batch_inverse_ints([(b - x) % p for x in B if x != b], p)
                want = ((k + 1) * pow(b, k, p) + 2 * pow(b, k + 1, p) * sum(inv)) % p
                assert residue_at(form, b) == want

    def test_partial_fraction_oracle(self, rng):
        # residue at a simple root r of den equals num(r)/den'(r)
        p = 97
        for _ in range(20):
            roots = random_subset(rng, p, rng.randint(2, 6))
            den = from_roots(roots, 1)
            num = FpPoly(p, [rng.randrange(p) for _ in range(len(roots))])
            if num.is_zero():
                continue
            form = RationalForm(num, den)
            dp = den.derivative()
            for r in roots:
                if form.den.eval_int(r) != 0:
                    continue  # cancelled by gcd reduction
                want = num.eval_int(r) * inverse_mod(dp.eval_int(r), p) % p
                assert residue_at(form, r) == want

    def test_invariance_under_common_factor(self, rng):
        p = 97
        form = random_split_form(rng, p)
        b = 3
        extra = from_roots(FpSet(p, [7, 11]), 1)
        scaled = RationalForm(form.num * extra, form.den * extra)
        assert residue_at(form, b) == residue_at(scaled, b)
        assert residue_at_infinity(form) == residue_at_infinity(scaled)


def _residue_by_series(form, b):
    """Residue at b as a product of truncated series, with no series inverse:
    den = (x-b)^v U, 1/U is found by Newton's iteration w <- w (2 - U w) on
    ``TruncatedSeries`` products, and the residue is the (x-b)^(v-1)
    coefficient of num * (1/U)."""
    p = form.p
    v = root_multiplicity(form.den, b)
    if v == 0:
        return 0
    unit = TruncatedSeries(p, b, 0, taylor_at(form.den, b, 2 * v)[v:], v)
    w = TruncatedSeries(p, b, 0, [inverse_mod(unit.coeffs[0], p)], v)
    for _ in range(v.bit_length()):  # each step doubles the correct terms
        uw = unit * w
        two_minus = [(2 * (j == 0) - uw.coefficient(j)) % p for j in range(v)]
        w = w * TruncatedSeries(p, b, 0, two_minus, v)
    num = TruncatedSeries(p, b, 0, taylor_at(form.num, b, v), v)
    return (num * w).coefficient(v - 1)


def _unreduced_form(num, den):
    """num/den dx without the gcd reduction of ``RationalForm``, so the
    numerator may vanish at a pole."""
    form = object.__new__(RationalForm)
    for name, value in (("p", num.p), ("num", num), ("den", den)):
        object.__setattr__(form, name, value)
    return form


class TestResidueCoefficientOracle:
    """``residue_at`` reads the residue off the first v coefficients of 1/U,
    den = (x-b)^v U; the series product is the oracle."""

    @pytest.mark.parametrize("p", [5, 13, 97])
    @pytest.mark.parametrize("v", [1, 2, 3, 4])
    def test_matches_series_product(self, rng, p, v):
        for _ in range(15):
            b = rng.randrange(p)
            unit = FpPoly(p, [rng.randrange(p) for _ in range(rng.randint(1, 5))])
            if unit.is_zero() or unit.eval_int(b) == 0:
                continue
            den = from_roots(FpSet(p, [b]), v) * unit
            num = FpPoly(p, [rng.randrange(p) for _ in range(rng.randint(1, 7))])
            if num.is_zero():
                continue
            form = RationalForm(num, den)
            assert residue_at(form, b) == _residue_by_series(form, b)

    def test_negative_control_off_by_one_inverse(self, rng, monkeypatch):
        # with the series inverse's last coefficient off by one, residue_at
        # disagrees with the oracle at every pole
        inverse = poly._series_inverse

        def off_by_one(cs, n, p):
            w = inverse(cs, n, p)
            w[-1] = (w[-1] + 1) % p
            return w

        monkeypatch.setattr(poly, "_series_inverse", off_by_one)
        p = 97
        for v in (1, 2, 3):
            for _ in range(5):
                b = rng.randrange(p)
                den = from_roots(FpSet(p, [b]), v) * FpPoly(p, [rng.randrange(1, p), 1])
                if root_multiplicity(den, b) != v:
                    continue
                form = RationalForm(FpPoly(p, [1]), den)
                assert residue_at(form, b) != _residue_by_series(form, b)

    @pytest.mark.parametrize("v", [1, 2, 3, 4])
    def test_numerator_vanishing_at_the_pole(self, v):
        # num = (x-b)^k N with 0 < k <= v: reduced, the pole order drops to
        # v - k; unreduced, the numerator's Taylor series starts at (x-b)^k
        p, b = 13, 4
        den = from_roots(FpSet(p, [b]), v) * FpPoly(p, [3, 1, 5])
        for k in range(1, v + 1):
            num = from_roots(FpSet(p, [b]), k) * FpPoly(p, [2, 7, 1])
            reduced, unreduced = RationalForm(num, den), _unreduced_form(num, den)
            assert root_multiplicity(reduced.den, b) == v - k
            want = _residue_by_series(unreduced, b)
            assert want == _residue_by_series(reduced, b)
            assert residue_at(unreduced, b) == residue_at(reduced, b) == want


class TestResidueAtInfinity:
    def test_polynomial_with_slack(self):
        p = 13
        # x^2 dx / (x^5 + 1): expansion has no x^-1 term
        form = RationalForm(FpPoly.monomial(p, 1, 2), FpPoly(p, [1, 0, 0, 0, 0, 1]))
        assert residue_at_infinity(form) == 0

    def test_omega20_infinity_power_sums(self, rng):
        from mucrit.symm import power_sums_int

        p = 97
        for _ in range(10):
            B = random_subset(rng, p, rng.randint(2, 5))
            k = rng.randint(0, 5)
            form = named_form("omega20", None, B, k)
            ps = power_sums_int(B, k)
            want = (-sum(ps[r] * ps[k - r] % p for r in range(k + 1))) % p
            assert residue_at_infinity(form) == want


class TestSumResidues:
    def test_two_simple_poles(self):
        p = 13
        form = RationalForm(FpPoly.one(p), FpPoly.x(p) * FpPoly(p, [-1, 1]))
        res = sum_residues_check(form)
        assert res.ok
        assert res.table.finite[0] == p - 1
        assert res.table.finite[1] == 1

    @pytest.mark.parametrize("p", [41, 97, 10007])
    def test_randomized_split_forms(self, p, rng):
        for _ in range(200):
            form = random_split_form(rng, p)
            assert sum_residues_check(form).status == "zero"

    def test_irreducible_factor_inconclusive(self):
        p = 13
        # x^2 + 1 is irreducible mod 13? 5^2 = 25 = 12 = -1, so it splits; use
        # x^2 - 2 instead: 2 is a non-residue mod 13
        assert all(x * x % 13 != 2 for x in range(13))
        den = FpPoly(p, [(-2) % p, 0, 1])
        form = RationalForm(FpPoly.one(p), den * FpPoly.x(p))
        assert sum_residues_check(form).status == "inconclusive"

    def test_root_part_large_prime(self, rng):
        p = 10007
        roots = {3: 2, 5000: 1, 9999: 3}
        den = FpPoly.one(p)
        for r, m in roots.items():
            den = den * from_roots(FpSet(p, [r]), m)
        got, cofactor = rational_root_part(den)
        assert got == roots and cofactor.degree == 0

    def test_root_part_p2(self):
        # equal-degree splitting cannot split over F_2; the roots are 0 and 1
        p = 2
        x, x1, quad = FpPoly.x(p), FpPoly(p, [1, 1]), FpPoly(p, [1, 1, 1])
        for a in range(4):
            for b in range(4):
                for cof in (FpPoly.one(p), quad, quad * quad):
                    got = rational_root_part(x**a * x1**b * cof)
                    want = {r: m for r, m in ((0, a), (1, b)) if m}
                    assert got == (want, cof)


class TestNamedFormIdentities:
    @pytest.mark.parametrize("which", FORM_NAMES)
    def test_general_mode_random(self, which, rng):
        for p in [41, 97, 10007]:
            for _ in range(15):
                k = rng.randint(0, 6)
                B = random_subset(rng, p, rng.randint(2, 6))
                A = None
                if which in ("omega11", "psi", "omega21"):
                    avoid = {(-b) % p for b in B}
                    A = random_subset(rng, p, rng.randint(2, 6), avoid=avoid)
                rep = lemma_form_identity(which, A, B, k, mode="general")
                assert rep.ok, (which, p, k, B.elems, None if A is None else A.elems)
                assert rep.residues_match_series
                assert rep.total_zero

    def test_specialized_omega20(self):
        # B = c * mu_k has p_1 = ... = p_(k-1) = 0
        from mucrit.fp import roots_of_unity

        p = 97
        for k, c in ((2, 5), (3, 7), (4, 11)):
            B = FpSet(p, [c * u % p for u in roots_of_unity(p, k)])
            rep = lemma_form_identity("omega20", None, B, k, mode="specialized")
            assert rep.ok and not rep.hypothesis_failures

    def test_specialized_omega20_with_zero_adjoined(self):
        from mucrit.fp import roots_of_unity

        p = 97
        k, c = 3, 5
        B = FpSet(p, [0] + [c * u % p for u in roots_of_unity(p, k)])
        rep = lemma_form_identity("omega20", None, B, k, mode="specialized")
        assert rep.ok

    def test_specialized_reports_precise_failure(self):
        p = 97
        B = FpSet(p, [1, 5, 7])  # p_1, p_2 both nonzero
        rep = lemma_form_identity("omega20", None, B, 3, mode="specialized")
        assert not rep.ok
        assert "surviving term p_1(B)*p_2(B)" in rep.hypothesis_failures

    def test_specialized_omega20_secondary_index(self, rng):
        # p_1 = 0, p_2 != 0, p_3 != 0: k = 3 is the least index not divisible
        # by the least nonvanishing index 2, and the display still holds
        p = 97
        for _ in range(20):
            a, b = rng.randrange(1, p), rng.randrange(1, p)
            c = (-(a + b)) % p
            B = FpSet(p, [a, b, c])
            if len(B) < 3:
                continue
            from mucrit.symm import power_sums_int

            ps = power_sums_int(B, 3)
            if ps[1] != 0 or ps[2] == 0 or ps[3] == 0:
                continue
            rep = lemma_form_identity("omega20", None, B, 3, mode="specialized")
            assert rep.ok, rep.hypothesis_failures
            rep30 = lemma_form_identity("omega30", None, B, 3, mode="specialized")
            assert rep30.ok, rep30.hypothesis_failures

    @pytest.mark.parametrize(
        "which, p, A, B, failure",
        [
            ("omega20", 2, None, [0, 1], "2 is not invertible mod p"),
            ("omega30", 3, None, [1, 2], "3 is not invertible mod p"),
        ],
    )
    def test_specialized_at_p_2_and_3_reports_failure(self, which, p, A, B, failure):
        # the omega20 display divides by 2 and the omega30 display by 3; at
        # p = 2 or 3 that is a failed hypothesis, not a crash
        rep = lemma_form_identity(which, A, FpSet(p, B), 1, mode="specialized")
        assert not rep.ok
        assert failure in rep.hypothesis_failures
        assert rep.residues_match_series and rep.total_zero

    def test_specialized_psi_omega21_on_critical_pair(self):
        A = FpSet(13, [3, 10])
        B = FpSet(13, [2, 11])
        for which in ("psi", "omega21"):
            rep = lemma_form_identity(which, A, B, 2, mode="specialized")
            assert rep.ok, rep.hypothesis_failures

    @pytest.mark.parametrize("which", ["psi", "omega21"])
    def test_specialized_without_mu_d_reports_failure(self, which):
        # d = |A||B| = 4 does not divide 10006, so mu_d does not exist in F_10007
        A = FpSet(10007, [3, 10])
        B = FpSet(10007, [2, 11])
        rep = lemma_form_identity(which, A, B, 2, mode="specialized")
        assert not rep.ok
        assert "A + B != mu_d" in rep.hypothesis_failures

    @pytest.mark.parametrize("which", ["psi", "omega21"])
    @pytest.mark.parametrize(
        "p, A, B",
        [
            (97, [1], [2, 3]),
            (97, [1], [2, 3, 4]),
            (97, [1, 2], [5]),
            (13, [1], [0, 4, 7, 11]),  # A + B = mu_4 exactly, yet not a critical pair
        ],
    )
    def test_specialized_singleton_reports_failure(self, which, p, A, B):
        # a critical pair needs |A|, |B| > 1; a singleton is a failed
        # hypothesis, not a crash, and the display is still evaluated
        A, B = FpSet(p, A), FpSet(p, B)
        rep = lemma_form_identity(which, A, B, 2, mode="specialized")
        assert not rep.ok
        assert "|A| or |B| is 1" in rep.hypothesis_failures
        assert rep.residues_match_series and rep.total_zero
        d = len(A) * len(B)
        if (d - 1) % p and (d - 2) % p:
            assert (rep.lhs, rep.rhs) == _specialized_oracle(which, A, B, 2)

    def test_poles_must_not_collide(self):
        p = 13
        B = FpSet(p, [1, 5])
        A = FpSet(p, [12, 3])  # -12 = 1 in B
        with pytest.raises(ValueError):
            lemma_form_identity("omega11", A, B, 2, mode="general")


def _whole_form(which, A, B, k):
    """The named form from its defining formula, reduced by ``RationalForm``
    through the gcd of the whole numerator and denominator."""
    p = B.p
    g = from_roots(B, 1)
    gp = g.derivative()
    x1, x2 = FpPoly.monomial(p, 1, k + 1), FpPoly.monomial(p, 1, k + 2)
    if which == "omega20":
        return RationalForm(x1 * gp * gp, g * g)
    if which == "omega30":
        return RationalForm(x2 * gp * gp * gp, g * g * g)
    h = from_roots(-A, 1)
    hp_ = h.derivative()
    if which == "omega11":
        return RationalForm(x1 * gp * hp_, g * h)
    if which == "psi":
        return RationalForm(x2 * (gp.derivative() * g - gp * gp) * hp_, g * g * h)
    return RationalForm(x2 * gp * gp * hp_, g * g * h)


# the unreduced denominator degree of each form, from |A| and |B|
_DEN_DEGREE = {
    "omega20": lambda a, b: 2 * b,
    "omega30": lambda a, b: 3 * b,
    "omega11": lambda a, b: a + b,
    "psi": lambda a, b: a + 2 * b,
    "omega21": lambda a, b: a + 2 * b,
}


def _reduction_cases(seed, count):
    """(which, A, B, k) over small and large p, with 0 forced into A or B in
    about 30 % of cases; A is None for omega20 and omega30."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice([2, 3, 5, 7, 11, 13, 41, 97, 10007])
        which = rng.choice(FORM_NAMES)
        B = set(rng.sample(range(p), rng.randint(1, min(6, p))))
        A = set(rng.sample(range(p), rng.randint(1, min(6, p))))
        if rng.random() < 0.3:
            (B if rng.random() < 0.5 else A).add(0)
        yield (
            which,
            None if which in ("omega20", "omega30") else FpSet(p, A),
            FpSet(p, B),
            rng.randint(0, 6),
        )


def _reduction_mismatches(cases):
    """Compare ``named_form`` with the whole-form gcd reduction; returns the
    mismatching cases and, per form, how many cases had a non-trivial gcd.
    A mixed form whose poles -A meet B must be rejected."""
    bad, reduced = [], {which: 0 for which in FORM_NAMES}
    for which, A, B, k in cases:
        p = B.p
        if A is not None and {(-a) % p for a in A} & set(B):
            with pytest.raises(ValueError, match=r"poles collide: \(-A\) meets B"):
                named_form(which, A, B, k)
            continue
        got, want = named_form(which, A, B, k), _whole_form(which, A, B, k)
        if (got.p, got.num, got.den) != (want.p, want.num, want.den):
            bad.append((which, A, B, k))
        if want.den.degree < _DEN_DEGREE[which](len(A or ()), len(B)):
            reduced[which] += 1
    return bad, reduced


class TestNamedFormReduction:
    """``named_form`` divides by a gcd read off the factors; the gcd of the
    whole numerator and denominator is the oracle."""

    def test_matches_whole_form_gcd(self):
        bad, reduced = _reduction_mismatches(_reduction_cases(0x5EED, 10_000))
        assert bad == []
        # every form met cases where the reduction is not trivial
        assert min(reduced.values()) >= 100, reduced

    def test_negative_control_dropped_x_power(self, monkeypatch):
        # without the x-power, omega20 with 0 in B keeps a common factor x
        cases = [
            ("omega20", None, FpSet(p, [0, *rest]), k)
            for p, rest in ((5, [2]), (13, [3, 5]), (97, [1, 40, 96]))
            for k in range(4)
        ]
        assert _reduction_mismatches(cases)[0] == []
        monkeypatch.setattr(residues, "_x_power", lambda B, e: FpPoly.one(B.p))
        assert _reduction_mismatches(cases)[0] == cases

    @pytest.mark.parametrize("which", ["omega11", "psi", "omega21"])
    def test_colliding_poles_rejected(self, which):
        # -1 = 12 lies in B; the identity check reaches the same error
        A, B = FpSet(13, [1, 4]), FpSet(13, [2, 12])
        for mode in ("general", "specialized"):
            with pytest.raises(ValueError, match=r"poles collide"):
                lemma_form_identity(which, A, B, 2, mode=mode)
        with pytest.raises(ValueError, match=r"poles collide"):
            named_form(which, A, B, 2)


def _specialized_oracle(which, A, B, k):
    """(lhs, rhs) of the specialized display, by pairwise inversion."""
    p = B.p

    def inv(x):
        return pow(x % p, -1, p)

    def pk(S):
        return sum(pow(x, k, p) for x in S) % p

    beta = len(B)
    if which == "omega20":
        lhs = sum(pow(b, k + 1, p) * inv(b - c) for b in B for c in B if c != b)
        return lhs % p, pk(B) * (beta - (k + 1) * inv(2)) % p
    if which == "omega30":
        # (sum 1/(b-c))^2 - sum 1/(b-c)^2 is the sum over ordered pairs c != e
        lhs = sum(
            pow(b, k + 2, p) * inv((b - c) * (b - e))
            for b in B for c in B for e in B
            if b != c and b != e and c != e
        )
        gamma2 = beta * beta - (k + 2) * beta + (k + 1) * (k + 2) * inv(3)
        return lhs % p, gamma2 * pk(B) % p
    alpha = len(A)
    sgn = (-1) ** k
    if which == "omega11":
        lhs = sum((pow(b, k + 1, p) + sgn * pow(a, k + 1, p)) * inv(a + b) for a in A for b in B)
        return lhs % p, (alpha * pk(B) + sgn * beta * pk(A)) % p
    gamma0 = alpha * (alpha + 1) * inv(alpha * beta - 1)
    gamma3 = alpha - (k + 1) * inv(2)
    if which == "psi":
        lhs = sum(
            (pow(b, k + 2, p) - pow(a, k + 2, p)) * inv((a + b) ** 2) for a in A for b in B
        )
        gamma4 = (k + 2) * gamma0 * gamma3 - k * alpha
        return lhs % p, gamma4 * pk(B) % p
    lhs = (
        sum(pow(a, k + 2, p) * inv((a + b) * (a + c)) for a in A for b in B for c in B)
        + 2 * inv(gamma0) * sum(
            pow(b, k + 2, p) * inv((a + b) * (e + b)) for b in B for a in A for e in A
        )
        - sum(pow(b, k + 2, p) * inv((a + b) ** 2) for a in A for b in B)
    )
    gamma5 = alpha * alpha - (k + 2) * gamma0 * gamma3
    return lhs % p, gamma5 * pk(B) % p


class TestSpecializedDisplays:
    @pytest.mark.parametrize("which", FORM_NAMES)
    def test_against_pairwise_oracle(self, which, rng):
        for p in (41, 97, 10007):
            sizes = [
                (alpha, beta)
                for alpha in range(2, 6)
                for beta in range(3, 6)  # for |B| = 2 the omega30 pair sum is empty
            ]
            for _ in range(8):
                # k >= 1: at k = 0 the omega20 and omega30 displays depend on |B| alone
                k = rng.randint(1, 5)
                alpha, beta = rng.choice(sizes)
                B = random_subset(rng, p, beta)
                avoid = {(-b) % p for b in B}
                A = random_subset(rng, p, alpha, avoid=avoid)
                rep = lemma_form_identity(which, A, B, k, mode="specialized")
                got = (rep.lhs, rep.rhs)
                case = (which, p, k, A.elems, B.elems)
                assert got == _specialized_oracle(which, A, B, k), case
                # negative control: one element of B moved to a free point
                free = next(x for x in range(1, p) if x not in B and (-x) % p not in A)
                B2 = FpSet(p, B.elems[1:] + (free,))
                assert got != _specialized_oracle(which, A, B2, k), case


class TestRationalForm:
    def test_gcd_reduction(self):
        p = 13
        common = from_roots(FpSet(p, [2, 5]), 1)
        form = RationalForm(common * FpPoly.one(p), common * FpPoly.x(p))
        assert form.den == FpPoly.x(p).monic()
        assert form.num.degree == 0

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalForm(FpPoly.one(13), FpPoly.zero(13))

    def test_equality_as_rational_functions(self):
        p = 13
        a = RationalForm(FpPoly(p, [1]), FpPoly.x(p))
        b = RationalForm(FpPoly(p, [2]), FpPoly(p, [0, 2]))
        assert a == b


class TestVerifyResiduesInput:
    """``checks.run_verify_residues`` refuses what ``mucrit verify-residues``
    refuses, with the same message, before it draws an instance."""

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def no_sampling(*_, **__):
            raise AssertionError("instances were drawn for a rejected configuration")

        monkeypatch.setattr(checks, "_residue_draws", no_sampling)
        monkeypatch.setattr(checks, "_fan_out", no_sampling)

    @pytest.mark.parametrize(
        "primes, instances, form_instances, message",
        [
            ([], 1, 1, "--primes names no prime"),
            ([41], -3, 0, "--instances and --form-instances must be >= 0"),
            ([41], 1, -1, "--instances and --form-instances must be >= 0"),
            ([15], 0, 0, "15 is not prime"),
            ([41], 0, 0, "--instances and --form-instances check no instance"),
            ([7, -5], 1, 1, "-5 is not prime"),
            (
                [9223372036854775837], 1, 1,
                "modulus 9223372036854775837 exceeds 63 bits",
            ),
            (
                [2], sys.maxsize + 1, 0,
                f"--instances and --form-instances make over {sys.maxsize} instances",
            ),
        ],
        ids=[
            "no-prime", "negative-instances", "negative-form-instances", "composite",
            "no-instance", "negative-prime", "past-modulus-cap", "past-maxsize",
        ],
    )
    def test_rejected_before_any_draw(self, no_draws, primes, instances, form_instances, message):
        with pytest.raises(ValueError) as exc:
            checks.run_verify_residues(0, primes, instances, form_instances)
        assert str(exc.value) == message

    def test_one_instance_of_a_prime_passes(self):
        # negative control: one slot is enough; omega20 and omega30 are never
        # skipped, so a positive slot count checks at least one instance
        ok, report = checks.run_verify_residues(0, [41], 1, 0)
        assert ok and report["random_forms_checked"] == 1
        assert report["named_form_instances"] == 0

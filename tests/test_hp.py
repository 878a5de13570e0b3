import pytest

from mucrit.fp import FpSet, binom_mod, inverse_mod
from mucrit.hp import (
    criticality,
    factorization_check,
    fractional_transform,
    hp_coeffs,
    hp_polynomial,
    lemma9_check,
    power_sum_vanishing,
    reciprocal_set,
    relation_x,
    relation_y,
    vandermonde_solve,
)
from mucrit.search import sumset_search
from mucrit.symm import complete_homogeneous

from conftest import random_subset, root_multiplicity

F41 = FpSet(41, [0, 1, 9, 32, 40])
F13 = FpSet(13, [0, 1, 10])
# the recentered decomposition of mu_4 over F_13: A + B = {1, 5, 8, 12}
PAIR_A = FpSet(13, [3, 10])
PAIR_B = FpSet(13, [2, 11])


def moment(cs, m, p):
    """sum_a c_a a^m mod p over the coefficients c_a of ``hp_coeffs``."""
    return sum(c * pow(a, m, p) for a, c in cs.items()) % p


class TestCoeffs:
    def test_two_element_set(self):
        cs = hp_coeffs(FpSet(13, [0, 1]))
        assert cs == {0: 13 - 1, 1: 1}
        assert moment(cs, 0, 13) == 0 and moment(cs, 1, 13) == 1

    def test_moment_conditions_f41(self):
        cs = hp_coeffs(F41)
        for m in range(5):
            assert moment(cs, m, 41) == (1 if m == 4 else 0)

    def test_matches_vandermonde_f41(self):
        cs = hp_coeffs(F41)
        vs = vandermonde_solve(F41)
        assert all(cs[a] == vs[a] for a in F41)

    def test_shift_invariance(self, rng):
        p = 97
        for _ in range(10):
            A = random_subset(rng, p, rng.randint(2, 6))
            t = rng.randrange(p)
            cs = hp_coeffs(A)
            cs_t = hp_coeffs(A.translate(t))
            assert all(cs_t[(a + t) % p] == cs[a] for a in A)

    def test_explicit_vs_vandermonde_500_sets(self, rng):
        # the acceptance-scale dual-route check
        for p in [41, 97, 10007]:
            for _ in range(167):
                A = random_subset(rng, p, rng.randint(2, 8))
                cs = hp_coeffs(A)
                vs = vandermonde_solve(A)
                assert all(cs[a] == vs[a] for a in A)

    def test_lemma2_cross_check(self, rng):
        # sum_a c_a a^(m+alpha-1) = h_m
        for p in [41, 97]:
            for _ in range(100):
                A = random_subset(rng, p, rng.randint(2, 7))
                cs = hp_coeffs(A)
                alpha = len(A)
                for m in range(11):
                    lhs = sum(cs[a] * pow(a, m + alpha - 1, p) for a in A) % p
                    assert lhs == complete_homogeneous(A, m)

    def test_size_guards(self):
        with pytest.raises(ValueError):
            hp_coeffs(FpSet(13, [5]))


class TestPolynomial:
    def test_degree_and_leading(self, rng):
        p = 97
        for _ in range(10):
            A = random_subset(rng, p, rng.randint(2, 6))
            alpha = len(A)
            d_max = (p - alpha) // 2
            d = rng.randint(2, min(40, d_max))
            f = hp_polynomial(A, d)
            assert f.degree == d
            assert f.leading() == binom_mod(alpha + d - 1, d, p)

    def test_f41_vanishing_orders(self):
        # every b in B = -A has eps(b) = 1, so the order is exactly alpha - 1
        f = hp_polynomial(F41, 20)
        for a in F41:
            assert root_multiplicity(f, (-a) % 41) == 4

    def test_mu4_pair_vanishing_orders(self):
        # B disjoint from -A: eps = 0, order exactly alpha
        f = hp_polynomial(PAIR_A, 4)
        for b in PAIR_B:
            assert root_multiplicity(f, b) == 2

    def test_precondition(self):
        with pytest.raises(ValueError):
            hp_polynomial(FpSet(13, [0, 1, 10]), 11)  # alpha + d - 1 >= p


class TestCriticality:
    def test_f41_pair(self):
        rep = criticality(F41, -F41, 20)
        assert rep.critical and rep.sumset_ok
        assert rep.overlap == 5
        assert 5 * 5 == 20 + rep.overlap
        assert rep.exact is None  # strict inclusion
        assert all(rep.epsilon[b] == 1 for b in (-F41).elems)

    def test_f13_difference_set_exact(self):
        rep = criticality(F13, -F13, 6)
        assert rep.critical and rep.exact == "mu_d_plus_zero"

    def test_two_element_pair(self):
        A = FpSet(13, [0, 1])
        rep = criticality(A, -A, 2)
        assert rep.critical and rep.exact == "mu_d_plus_zero"

    def test_mu4_pair_exact(self):
        rep = criticality(PAIR_A, PAIR_B, 4)
        assert rep.critical and rep.overlap == 0 and rep.exact == "mu_d"

    def test_non_critical(self):
        rep = criticality(FpSet(13, [0, 2]), FpSet(13, [1, 3]), 4)
        assert not rep.critical

    @staticmethod
    def _oracle(A, B, d):
        """Every report field from Python sets: the sumset as a set of sums,
        -A as a set of negatives and mu_d as the x with x^d = 1."""
        p = A.p
        mu = {x for x in range(1, p) if pow(x, d, p) == 1}
        sums = {(a + b) % p for a in A for b in B}
        neg_a = {-a % p for a in A}
        overlap = len(neg_a & set(B))
        sumset_ok = sums <= mu | {0}
        exact = "mu_d" if sums == mu else "mu_d_plus_zero" if sums == mu | {0} else None
        return (
            A, B, d, sumset_ok, overlap, sumset_ok and len(A) * len(B) == d + overlap,
            {b: int(b in neg_a) for b in B}, exact,
        )

    def test_matches_set_oracle_on_random_pairs(self, rng):
        for p in (2, 3, 13, 41, 97):
            ds = [d for d in range(1, p) if (p - 1) % d == 0]
            for _ in range(40):
                A = random_subset(rng, p, rng.randrange(2, p + 1))
                B = random_subset(rng, p, rng.randrange(2, p + 1))
                d = rng.choice(ds)
                assert tuple(criticality(A, B, d)) == self._oracle(A, B, d), (A, B, d)

    def test_matches_set_oracle_on_exact_pairs(self):
        # A + B = mu_d: the mu_4 pair's opposite shifts and the sumset
        # witnesses at d = 4; A + B = mu_d u {0}: difference sets against
        # their negatives.  F41 - F41 is a strict inclusion.
        pairs = [(PAIR_A.translate(t), PAIR_B.translate(-t), 4) for t in range(13)]
        for p in (17, 29, 41):
            pairs += [(FpSet(p, A), FpSet(p, B), 4) for A, B in sumset_search(p, 4).witnesses]
        pairs += [(F41, -F41, 20), (F13, -F13, 6), (FpSet(13, [0, 1]), FpSet(13, [0, 12]), 2)]
        exacts = []
        for A, B, d in pairs:
            rep = criticality(A, B, d)
            assert tuple(rep) == self._oracle(A, B, d), (A, B, d)
            exacts.append(rep.exact)
        assert exacts.count("mu_d") == len(pairs) - 3
        assert exacts[-3:] == [None, "mu_d_plus_zero", "mu_d_plus_zero"]

    def test_negative_control_moved_element(self):
        # the mu_4 pair with one element of B moved off it: one sum leaves
        # mu_4 u {0}, and the report must say so
        moved = FpSet(13, [2, 12])
        rep = criticality(PAIR_A, moved, 4)
        assert not rep.sumset_ok and not rep.critical and rep.exact is None
        assert tuple(rep) == self._oracle(PAIR_A, moved, 4)


class TestPowerSumVanishing:
    def test_f13_difference_pair(self):
        assert power_sum_vanishing(F13, -F13, 6)

    def test_f41_exact_precondition_rejected(self):
        # the F41 inclusion is strict, so the unique-representation hypothesis
        # fails; the conclusion genuinely fails too (k = 4 below)
        with pytest.raises(ValueError):
            power_sum_vanishing(F41, -F41, 20)
        p = 41
        s4 = sum(pow((a + b) % p, 4, p) for a in F41 for b in -F41) % p
        assert s4 == 40  # nonzero: the vanishing really does need exactness

    def test_mu4_pair_all_vanish(self):
        assert power_sum_vanishing(PAIR_A, PAIR_B, 4)

    @pytest.mark.parametrize("A, B, d", [(F13, -F13, 6), (PAIR_A, PAIR_B, 4)])
    def test_matches_brute_force(self, A, B, d):
        # every sum_{a,b} (a+b)^k with 1 <= k < d, one term at a time
        p = A.p
        sums = [sum(pow((a + b) % p, k, p) for a in A for b in B) % p for k in range(1, d)]
        assert sums == [0] * (d - 1)
        assert power_sum_vanishing(A, B, d) == all(s == 0 for s in sums)

    def test_boundary_k_equals_d(self):
        # at k = d the double sum is |A||B| != 0; the checked range ends at d-1
        p = 13
        total = sum(
            pow((a + b) % p, 4, p) for a in PAIR_A for b in PAIR_B
        ) % p
        assert total == (len(PAIR_A) * len(PAIR_B)) % p != 0

    def test_direct_double_sum_oracle(self):
        p = 13
        for k in range(1, 6):
            s = sum(pow((a + b) % p, k, p) for a in F13 for b in -F13) % p
            assert s == 0


class TestFactorization:
    def test_f41(self):
        res = factorization_check(F41, -F41, 20)
        assert res.ok
        assert res.C == binom_mod(24, 20, 41) == 7

    def test_f13(self):
        res = factorization_check(F13, -F13, 6)
        assert res.ok
        assert res.C == binom_mod(8, 6, 13)

    def test_mu4_pair(self):
        res = factorization_check(PAIR_A, PAIR_B, 4)
        assert res.ok

    def test_non_critical_rejected(self):
        with pytest.raises(ValueError):
            factorization_check(FpSet(13, [0, 2]), FpSet(13, [1, 3]), 4)


class TestTransforms:
    def test_fractional_transform_f41(self):
        for a in F41:
            out = fractional_transform(F41, a)
            assert len(out) == 5
            assert 0 in out
            assert criticality(out, -out, 20).critical

    def test_fractional_transform_f13(self):
        out = fractional_transform(F13, 1)
        assert len(out) == 3
        # {0, 1/(1-0), 1/(1-10)} = {0, 1, 1/4} = {0, 1, 10}
        assert out.elems == (0, 1, 10)

    def test_rejects_non_member(self):
        with pytest.raises(ValueError):
            fractional_transform(F41, 2)

    def test_reciprocal_set(self):
        out = reciprocal_set(PAIR_A, 2)
        p = 13
        want = sorted(inverse_mod((a + 2) % p, p) for a in PAIR_A)
        assert list(out) == want
        assert len(out) == len(PAIR_A)

    def test_reciprocal_set_zero_rejected(self):
        with pytest.raises(ValueError):
            reciprocal_set(FpSet(13, [3, 10]), 10)  # 3 + 10 = 0


class TestLemma9:
    def test_identity_both_anchors(self):
        for b in PAIR_B:
            rep = lemma9_check(PAIR_A, PAIR_B, b)
            assert rep.identity_ok
            assert rep.coeff_relation_ok
            assert rep.c0_product_ok
            assert rep.c0_binomial_ok
            assert rep.c0 == binom_mod(5, 2, 13)
            assert rep.sign == -1  # alpha = 2 is even

    def test_c0_binomial_negative_control(self, monkeypatch, tmp_path):
        import mucrit.checks as checks
        import mucrit.cli as cli
        import mucrit.hp as hp

        # a wrong binomial is caught by the exact math.comb oracle
        with monkeypatch.context() as m:
            m.setattr(
                hp, "binom_mod", lambda n, k, p: (binom_mod(n, k, p) + 1) % p
            )
            assert not hp.lemma9_check(PAIR_A, PAIR_B, PAIR_B.elems[0]).c0_binomial_ok
        # and a failed flag alone fails the CLI check
        real = hp.lemma9_check
        monkeypatch.setattr(
            checks,
            "lemma9_check",
            lambda A, B, b: real(A, B, b)._replace(c0_binomial_ok=False),
        )
        assert cli.run(["check", "lemma9", "--out", str(tmp_path / "r.txt")]) == 1

    def test_requires_exact_pair(self):
        with pytest.raises(ValueError):
            lemma9_check(F41, -F41, (-0) % 41)


class TestRelations:
    def test_relation_x_everywhere(self):
        for b in PAIR_B:
            lhs, rhs, ok = relation_x(PAIR_A, PAIR_B, b)
            assert ok and lhs == rhs
        for a in PAIR_A:
            assert relation_x(PAIR_B, PAIR_A, a)[2]

    def test_relation_y_everywhere(self):
        for b in PAIR_B:
            assert relation_y(PAIR_A, PAIR_B, b)[2]
        for a in PAIR_A:
            assert relation_y(PAIR_B, PAIR_A, a)[2]

    def test_perturbed_pair_fails(self):
        # swap one element of B: no longer a critical decomposition
        B_bad = FpSet(13, [2, 7])
        assert relation_x(PAIR_A, B_bad, 2)[2] is False
        assert relation_y(PAIR_A, B_bad, 2)[2] is False

    def test_membership_guard(self):
        with pytest.raises(ValueError):
            relation_x(PAIR_A, PAIR_B, 5)

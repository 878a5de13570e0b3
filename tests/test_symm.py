from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucrit.fp import FpSet
from mucrit.poly import from_roots
from mucrit.symm import (
    complete_homogeneous,
    minimal_indices,
    power_sums_int,
    recenter,
)

from conftest import random_subset


def sum_of_products(combos, p):
    total = 0
    for combo in combos:
        term = 1
        for x in combo:
            term = term * x % p
        total = (total + term) % p
    return total


def h_by_enumeration(A, m):
    """Oracle: sum over all degree-m monomials in the elements of A."""
    return sum_of_products(combinations_with_replacement(A.elems, m), A.p)


def e_by_enumeration(A, k):
    """Oracle: e_k as the sum over all k-subsets of A of their products."""
    return sum_of_products(combinations(A.elems, k), A.p)


def sign_mismatches(A, signs):
    """The k at which from_roots(A, 1) has a coefficient at degree |A| - k
    other than signs[k] * e_k(A)."""
    alpha = len(A)
    f = from_roots(A, 1)
    return [
        k for k in range(alpha + 1) if f[alpha - k] != signs[k] * e_by_enumeration(A, k) % A.p
    ]


class TestPowerSums:
    def test_f41_set_first_three_vanish(self):
        A = FpSet(41, [0, 1, 9, 32, 40])
        ps = power_sums_int(A, 4)
        assert ps[0] == 5
        assert ps[1] == ps[2] == ps[3] == 0
        assert ps[4] == 4
        # the raw integer sums behind those residues
        raw = [sum(a**k for a in A.elems) for k in range(4)]
        assert raw[1:] == [82, 2706, 97498]
        assert all(v % 41 == 0 for v in raw[1:])

    def test_direct_sums(self, rng):
        p = 97
        A = random_subset(rng, p, 6)
        ps = power_sums_int(A, 8)
        for k in range(9):
            assert ps[k] == sum(pow(a, k, p) for a in A) % p

    def test_singleton(self):
        A = FpSet(13, [4])
        ps = power_sums_int(A, 5)
        for k in range(6):
            assert ps[k] == pow(4, k, 13) if k else 1

    def test_plus_minus_one(self):
        A = FpSet(13, [1, 12])
        ps = power_sums_int(A, 6)
        for k in range(1, 7):
            assert ps[k] == (0 if k % 2 else 2)


class TestCompleteHomogeneous:
    def test_h0_and_h1(self, rng):
        p = 41
        A = random_subset(rng, p, 5)
        assert complete_homogeneous(A, 0) == 1
        assert complete_homogeneous(A, 1) == power_sums_int(A, 1)[1]

    def test_f7_example(self):
        A = FpSet(7, [1, 2])
        assert complete_homogeneous(A, 2) == (1 + 2 + 4) % 7 == 0
        # (p1^2 + p2)/2 = (9 + 5)/2 = 14/2 = 7 = 0
        assert (3 * 3 + 5) % 7 * pow(2, 5, 7) % 7 == 0

    def test_against_enumeration(self, rng):
        for p in [13, 97]:
            for _ in range(5):
                A = random_subset(rng, p, rng.randint(2, 5))
                for m in range(5):
                    assert complete_homogeneous(A, m) == h_by_enumeration(A, m)


class TestMinimalIndices:
    def test_f41_set(self):
        n, m = minimal_indices(FpSet(41, [0, 1, 9, 32, 40]))
        assert n == 4 and m is None

    def test_nonzero_first_sum(self, rng):
        p = 97
        while True:
            A = random_subset(rng, p, 4)
            if sum(A) % p:
                break
        assert minimal_indices(A)[0] == 1

    def test_plus_minus_one(self):
        n, m = minimal_indices(FpSet(13, [1, 12]))
        assert n == 2 and m is None

    def test_zero_singleton_rejected(self):
        with pytest.raises(ValueError):
            minimal_indices(FpSet(13, [0]))


class TestInvariants:
    def test_generating_identity(self, rng):
        # prod(1 - a x) * sum h_m x^m = 1 + O(x^(K+1))
        for p in [13, 97]:
            for _ in range(5):
                A = random_subset(rng, p, rng.randint(2, 6))
                K = 20
                prod = [1]
                for a in A:
                    nxt = [0] * (len(prod) + 1)
                    for i, c in enumerate(prod):
                        nxt[i] = (nxt[i] + c) % p
                        nxt[i + 1] = (nxt[i + 1] - c * a) % p
                    prod = nxt
                hs = [complete_homogeneous(A, m) for m in range(K + 1)]
                for j in range(K + 1):
                    conv = sum(
                        prod[i] * hs[j - i] for i in range(min(j, len(prod) - 1) + 1)
                    ) % p
                    assert conv == (1 if j == 0 else 0)

    def test_top_elementary_vanishes_iff_zero_in_set(self, rng):
        p = 41
        for _ in range(20):
            A = random_subset(rng, p, rng.randint(2, 6))
            alpha = len(A)
            e_top = e_by_enumeration(A, alpha)
            assert from_roots(A, 1)[0] == pow(-1, alpha, p) * e_top % p
            assert (e_top == 0) == (0 in A)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_recenter_kills_p1(self, data):
        p = data.draw(st.sampled_from([13, 41, 97]))
        size = data.draw(st.integers(min_value=2, max_value=min(8, p - 1)))
        elems = data.draw(
            st.lists(st.integers(0, p - 1), min_size=size, max_size=size, unique=True)
        )
        A = FpSet(p, elems)
        if len(A) % p:
            assert power_sums_int(recenter(A), 1)[1] == 0

    def test_sign_convention(self, rng):
        # from_roots coefficient at degree alpha-k is (-1)^k e_k, with e_k
        # from the k-subset oracle
        p = 97
        signs = [(-1) ** k for k in range(6)]
        flipped = 0
        for _ in range(5):
            A = random_subset(rng, p, 5)
            assert sign_mismatches(A, signs) == []
            # negative control: the expected sign flipped at one odd k with
            # e_k != 0 is caught at exactly that k
            for j in (1, 3, 5):
                if e_by_enumeration(A, j):
                    wrong = list(signs)
                    wrong[j] = -wrong[j]
                    assert sign_mismatches(A, wrong) == [j]
                    flipped += 1
        assert flipped


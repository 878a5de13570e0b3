import math
import random

import pytest

from mucrit.fp import (
    FieldElem,
    FpSet,
    batch_inverse_ints,
    binom_mod,
    inverse_power_sums,
    inverse_table,
    is_prime,
    primitive_root,
    roots_of_unity,
    sqrt_mod,
    subgroup_index,
)

SMALL_PRIMES = [p for p in range(2, 200) if all(p % q for q in range(2, p))]


def trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestIsPrime:
    def test_small_values(self):
        for n in range(2000):
            assert is_prime(n) == trial_division_prime(n), n

    def test_spec_values(self):
        assert is_prime(41)
        assert not is_prime(1025)  # 25 * 41
        assert is_prime(2 * 3000 * 2999 + 1) == trial_division_prime(17994001)

    def test_mersenne_and_carmichael(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(561)
        assert not is_prime(3215031751)  # strong pseudoprime to 2,3,5,7

    def test_rejects_negative_and_huge(self):
        with pytest.raises(ValueError):
            is_prime(-1)
        with pytest.raises(ValueError):
            is_prime(1 << 64)


class TestFieldElem:
    def test_mixed_moduli_rejected(self):
        with pytest.raises(ValueError):
            FieldElem(1, 11) in FpSet(7, [1])

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(ValueError):
            FieldElem(1, 10)


class TestFpSet:
    def test_dedup_and_sort(self):
        S = FpSet(13, [5, 18, 1, 5])
        assert S.elems == (1, 5)

    def test_ops(self):
        A = FpSet(13, [0, 1, 10])
        assert (-A).elems == (0, 3, 12)
        assert A.translate(3).elems == (0, 3, 4)
        assert A.diffset(A).elems == (0, 1, 3, 4, 9, 10, 12)
        assert 10 in A and 2 not in A

    def test_mixed_moduli(self):
        with pytest.raises(ValueError):
            FpSet(13, [1]).diffset(FpSet(11, [1]))


class TestRootsOfUnity:
    def test_f13_order_6(self):
        got = roots_of_unity(13, 6)
        brute = sorted(x for x in range(1, 13) if pow(x, 6, 13) == 1)
        assert list(got) == brute == [1, 3, 4, 9, 10, 12]

    def test_trivial_subgroup(self):
        assert list(roots_of_unity(97, 1)) == [1]

    def test_quadratic_residues_f41(self):
        squares = sorted({x * x % 41 for x in range(1, 41)})
        assert list(roots_of_unity(41, 20)) == squares

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            roots_of_unity(13, 5)

    @pytest.mark.parametrize("p", [13, 41, 97, 601, 997])
    def test_subgroup_closure(self, p):
        for d in range(1, p):
            if (p - 1) % d:
                continue
            mu = roots_of_unity(p, d)
            assert len(mu) == d
            elems = set(mu)
            for x in list(elems)[:10]:
                assert pow(x, p - 2, p) in elems
                for y in list(elems)[:10]:
                    assert x * y % p in elems


class TestSubgroupIndex:
    @pytest.mark.parametrize("p", [13, 41, 97, 601])
    def test_generator_and_tables(self, p):
        for d in range(1, p):
            if (p - 1) % d:
                continue
            eta, powers, log = subgroup_index(p, d)
            # eta has order exactly d, so its powers list mu_d once each
            assert pow(eta, d, p) == 1
            assert all(pow(eta, d // q, p) != 1 for q in range(2, d + 1) if d % q == 0)
            assert powers == tuple(pow(eta, k, p) for k in range(d))
            assert sorted(powers) == list(roots_of_unity(p, d))
            assert all(log[x] == k for k, x in enumerate(powers)) and len(log) == d

    def test_scaling_is_rotation(self):
        p, d = 61, 30
        _, powers, log = subgroup_index(p, d)
        for j in range(d):
            for k in range(d):
                assert log[powers[j] * powers[k] % p] == (j + k) % d

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            subgroup_index(13, 5)
        with pytest.raises(ValueError):
            subgroup_index(13, 0)


class TestSqrtMod:
    @pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 41, 97, 257, 1031, 65537])
    def test_every_square_against_brute_force(self, p):
        # 257 and 65537 have a 2-adic part of p - 1 of 2^8 and 2^16
        squares = {x * x % p for x in range(min(p, 2000))}
        for a in squares:
            r = sqrt_mod(a, p)
            assert 0 <= r < p and r * r % p == a
        nonsquares = [a for a in range(1, min(p, 200)) if pow(a, (p - 1) // 2, p) != 1]
        assert nonsquares
        for a in nonsquares:
            with pytest.raises(ValueError):
                sqrt_mod(a, p)


class TestBinomMod:
    def test_spec_values(self):
        assert binom_mod(24, 20, 41) == math.comb(24, 20) % 41 == 7
        assert binom_mod(100, 0, 13) == 1
        assert binom_mod(8, 3, 3) == 56 % 3 == 2

    def test_agrees_with_exact(self):
        # full sweep 0 <= k <= n <= 60 over every prime p <= 97
        for p in SMALL_PRIMES:
            if p > 97:
                continue
            for n in range(61):
                for k in range(n + 1):
                    assert binom_mod(n, k, p) == math.comb(n, k) % p

    def test_lucas_large(self):
        rnd = random.Random(7)
        for _ in range(50):
            n = rnd.randrange(10**4)
            k = rnd.randrange(n + 1)
            assert binom_mod(n, k, 13) == math.comb(n, k) % 13

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            binom_mod(3, 5, 7)
        with pytest.raises(ValueError):
            binom_mod(3, -1, 7)


class TestBatchInverse:
    def test_singleton(self):
        # one value: the backward pass has no step
        assert batch_inverse_ints([1], 7) == [1]
        assert batch_inverse_ints([10], 7) == [5]

    def test_f7_pair(self):
        assert batch_inverse_ints([2, 3], 7) == [4, 5]

    def test_against_fermat_oracle(self, rng):
        p = 10007
        vals = [rng.randrange(1, p) for _ in range(1000)]
        got = batch_inverse_ints(vals, p)
        assert got == [pow(v, p - 2, p) for v in vals]

    def test_rejects_zero(self):
        with pytest.raises(ZeroDivisionError):
            batch_inverse_ints([3, 0, 5], 7)

    def test_inverse_table(self):
        p = 997
        inv = inverse_table(p, 500)
        for i in range(1, 501):
            assert inv[i] * i % p == 1


class TestInversePowerSums:
    def test_against_pow_oracle(self, rng):
        for p in (2, 13, 41, 10007):
            for n in (1, 2, 7):
                vals = [rng.randrange(1, p) + p * rng.randrange(-2, 3) for _ in range(n)]
                for J in (1, 2, 3, 5):
                    want = [sum(pow(v, -j, p) for v in vals) % p for j in range(1, J + 1)]
                    assert inverse_power_sums(vals, p, J) == want, (p, vals, J)

    def test_empty_list_gives_zeros(self):
        assert inverse_power_sums([], 13, 3) == [0, 0, 0]

    @pytest.mark.parametrize("vals", [[3, 0, 5], [7], [2, -14]])
    def test_zero_raises(self, vals):
        with pytest.raises(ZeroDivisionError):
            inverse_power_sums(vals, 7, 2)


def test_primitive_root_generates():
    for p in [13, 41, 97]:
        g = primitive_root(p)
        assert len({pow(g, e, p) for e in range(p - 1)}) == p - 1

#!/usr/bin/env python3
"""Walk through the F_41 worked example: the set {0,1,9,32,40} whose pairwise
differences all land in the order-20 subgroup, its pair criticality, the
polynomial factorization, and the reciprocal relations."""

from mucrit.fp import FpSet, binom_mod, roots_of_unity
from mucrit.hp import criticality, factorization_check, fractional_transform
from mucrit.stepanov import lemma5_lemma6_numeric, rat2_check, rat3_check
from mucrit.symm import minimal_indices, power_sums_int

p, d = 41, 20
A = FpSet(p, [0, 1, 9, 32, 40])
mu = roots_of_unity(p, d)

print(f"A = {list(A)} in F_{p}, mu_{d} has {len(mu)} elements")
diffs = A.diffset(A)
print(f"A - A = {list(diffs)}  ({len(diffs) - 1} nonzero values, strictly inside mu_20)")

rep = criticality(A, -A, d)
print(f"critical: {rep.critical}; overlap |(-A) cap B| = {rep.overlap}; "
      f"5*5 = {d} + {rep.overlap}")

fact = factorization_check(A, -A, d)
print(f"factorization exact: {fact.ok}; C = {fact.C} = C(24,20) mod 41 "
      f"= {binom_mod(24, 20, p)}")

ps = power_sums_int(A, 4)
print(f"power sums p_1..p_4 = {ps[1:]};  minimal indices (n, m) = {minimal_indices(A)}")

print("rat2/rat3 at every element:",
      all(rat2_check(A, a) and rat3_check(A, a) for a in A))

print("reciprocal transforms of A (all remain critical):")
for a in A:
    print(f"  a = {a:2d} -> {list(fractional_transform(A, a))}")

l56 = lemma5_lemma6_numeric(A, d)
print(f"recentered power sums vanish: {l56.recentered_vanishing_ok}")

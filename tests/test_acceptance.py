"""Acceptance suite: one criterion per test (split where a criterion bundles
independent claims), each printing a PASS line with its elapsed time.

Two upstream reference values pinned by the criteria are errata.  The tests
assert the corrected value, prove it with an oracle that does not go through
mucrit, and keep the pinned value as a negative control that must fail:

* criterion 2 pinned the scan hits as (13,3,3) and (41,5,5).  The scanned
  congruence C(a^2-1, n-1+a) = (-1)^(n-1) C(a^2-1, a) mod p holds at
  (41,5,4): C(24,8) = 735471 = 13 = -C(24,5) mod 41.  It fails at the pinned
  n = 5: C(24,9) = 14 while C(24,5) = 28 mod 41.  Oracle: a brute-force
  ``math.comb`` scan.
* criterion 4 pinned the operator kernel element as x^11 + 11x^6 + x, which
  the operator sends to -1306800 x^8.  For x^11 + A6 x^6 + A1 x the x^8
  coefficient is -5400 (A6^2 + 121 A1), so A6 = 11 forces A1 = -1 and the
  kernel element is x^11 + 11x^6 - x.  Oracle: sympy expansion of the
  operator as ``d_operator`` documents it.
"""

import json
import math
import random
import time

import pytest

from mucrit import cli
from mucrit.fp import is_prime
from mucrit.hp import hp_coeffs, vandermonde_solve
from mucrit.qalg import QPoly
from mucrit.search import diffset_search, levson_scan, sumset_search, threefold_check
from mucrit.stepanov import alpha11_obstruction, annihilated_poly, d_operator
from mucrit.symm import complete_homogeneous

from conftest import random_subset


def _report(name, t0):
    print(f"\nACCEPTANCE {name}: PASS ({time.time() - t0:.2f}s)")


# -- criterion 1 -------------------------------------------------------------

def test_criterion1_f41_bundle():
    t0 = time.time()
    ok, report = cli.run_verify_f41()
    assert ok, report
    checks = report["checks"]
    assert checks["critical_with_overlap_5"]
    assert checks["size_identity_5x5_eq_20_plus_5"]
    assert checks["factorization_exact"]
    assert checks["leading_constant_is_binom_24_20"]
    assert report["C"] == {"value": "7", "mod": "41"}
    assert checks["power_sums_1_2_3_vanish"]
    assert checks["rat2_rat3_everywhere"]
    assert checks["product_condition_everywhere"]
    assert checks["difference_set_strictly_inside"]
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("criterion 1 (F41 bundle)", t0)


# -- criterion 2 -------------------------------------------------------------

def test_criterion2_levson_scan_counts():
    t0 = time.time()
    res = levson_scan(3000)
    assert res.counts["primes_scanned"] == 586
    assert len(res.witnesses) == 2
    assert res.witnesses[0] == (13, 3, 3)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("criterion 2 (scan size: 586 primes, two hits, runtime)", t0)


LEVSON_HITS = [(13, 3, 3), (41, 5, 4)]


def _levson_congruence(p, alpha, n):
    N = alpha * alpha - 1
    return (math.comb(N, n - 1 + alpha) - (-1) ** (n - 1) * math.comb(N, alpha)) % p == 0


def _levson_hits_by_comb(alpha_max):
    """Every (p, alpha, n) with p = 2 alpha(alpha-1) + 1 prime (by trial
    division) and 1 < n <= alpha meeting the congruence, from exact
    big-integer binomials."""
    hits = []
    for alpha in range(2, alpha_max + 1):
        p = 2 * alpha * (alpha - 1) + 1
        if any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            continue
        hits.extend((p, alpha, n) for n in range(2, alpha + 1) if _levson_congruence(p, alpha, n))
    return hits


def test_criterion2_levson_hits_as_pinned():
    """The scan's hit tuples.  Upstream pinned the second hit as (41, 5, 5);
    the congruence holds at (41, 5, 4) and fails at (41, 5, 5), so the
    corrected pair is asserted and checked against a math.comb scan."""
    t0 = time.time()
    res = levson_scan(3000)
    assert res.witnesses == LEVSON_HITS, f"scan produced {res.witnesses}"
    oracle = _levson_hits_by_comb(200)
    assert oracle == LEVSON_HITS, f"math.comb scan to alpha 200 found {oracle}"
    # negative control: the upstream pinned tuple fails the congruence
    assert math.comb(24, 9) % 41 == 14 and math.comb(24, 5) % 41 == 28
    assert not _levson_congruence(41, 5, 5)
    _report("criterion 2 (hits (13,3,3), (41,5,4); pinned (41,5,5) refuted)", t0)


# -- criterion 3 -------------------------------------------------------------

def test_criterion3_symbolic_suite():
    t0 = time.time()
    ok, report = cli.run_verify_identities()
    failing = [k for k, v in report["checks"].items() if not v]
    assert ok, failing
    assert report["checks"]["g_operator_zero"]
    assert report["checks"]["d_alpha_l_factorization"]
    assert report["checks"]["d_alpha_l_integer_solutions"]
    assert report["checks"]["lemma13_display1"]
    assert report["checks"]["lemma13_display2"]
    assert report["checks"]["lemma13_final_congruence_poly"]
    assert report["checks"]["lemma13_alpha7_collapse"]
    assert report["checks"]["lemma5_sextic_factorization"]
    assert report["checks"]["theorem2_even_coefficient"]
    assert report["checks"]["theorem2_odd_coefficient"]
    assert report["checks"]["resultant_216"]
    assert report["checks"]["gauss_unit_power"]
    assert report["checks"]["s5_discriminant_values"]
    assert report["checks"]["s5_no_roots_mod_73"]
    assert report["checks"]["s5_least_root_61_mod_163"]
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report("criterion 3 (symbolic suite)", t0)


# -- criterion 4 -------------------------------------------------------------

def test_criterion4_operator_annihilates_approximants():
    t0 = time.time()
    rng = random.Random(4)
    for p in (10007, 1000003):
        for _ in range(100):
            a = rng.randrange(p)
            s = rng.randrange(1, p)
            alpha = rng.randint(3, 12)
            assert d_operator(annihilated_poly(p, a, s, alpha), alpha).is_zero()
    _report("criterion 4 (200 random annihilations)", t0)


def test_criterion4_quintic_value():
    t0 = time.time()
    x = QPoly.var("x", ("x", "b"))
    b = QPoly.var("b", ("x", "b"))
    assert d_operator(x**5 - x + b, 5) == -3600 * b * x
    _report("criterion 4 (quintic: -3600 b x)", t0)


def _sympy_d_operator(sympy, g, x, a):
    """4a(a-2) g'g''' - 3(a-1)(a-2) g''^2 - a(a+1) g g'''', expanded by sympy."""
    g0, g1, g2, g3, g4 = (sympy.diff(g, x, k) for k in range(5))
    return sympy.expand(
        4 * a * (a - 2) * g1 * g3 - 3 * (a - 1) * (a - 2) * g2**2 - a * (a + 1) * g0 * g4
    )


def test_criterion4_degree11_kernel_as_pinned():
    """The degree-11 kernel element.  Upstream pinned x^11 + 11x^6 + x, which
    the operator sends to -1306800 x^8; the kernel element is x^11 + 11x^6 - x.
    Sympy confirms both values and the x^8 coefficient that fixes the sign of
    the linear term."""
    t0 = time.time()
    x = QPoly.var("x")
    kernel = d_operator(x**11 + 11 * x**6 - x, 11)
    assert kernel.is_zero(), f"operator leaves {kernel!r}"
    # negative control: the upstream pinned polynomial is not annihilated
    pinned = d_operator(x**11 + 11 * x**6 + x, 11)
    assert pinned == -1306800 * x**8, f"operator leaves {pinned!r}"

    sympy = pytest.importorskip("sympy")
    X, A6, A1 = sympy.symbols("x A6 A1")
    assert _sympy_d_operator(sympy, X**11 + 11 * X**6 - X, X, 11) == 0
    assert _sympy_d_operator(sympy, X**11 + 11 * X**6 + X, X, 11) == -1306800 * X**8
    generic = _sympy_d_operator(sympy, X**11 + A6 * X**6 + A1 * X, X, 11)
    c8 = sympy.Poly(generic, X).coeff_monomial(X**8)
    assert sympy.expand(c8 + 5400 * (A6**2 + 121 * A1)) == 0
    assert sympy.solve(c8, A1) == [-(A6**2) / 121]
    assert c8.subs({A6: 11, A1: 1}) == -1306800
    _report("criterion 4 (kernel x^11 + 11x^6 - x; pinned +x leaves -1306800 x^8)", t0)


def test_criterion4_obstruction_terminates():
    t0 = time.time()
    rep = alpha11_obstruction()
    assert rep.final_reduction_ok
    assert rep.xi5_value.numerator == 15 and rep.xi5_value.denominator == 338
    _report("criterion 4 (obstruction terminates at xi^5 = 15/338)", t0)


# -- criterion 5 -------------------------------------------------------------

def test_criterion5_residue_suite():
    t0 = time.time()
    ok, report = cli.run_verify_residues(
        seed=0, primes=[41, 97, 10007], instances=1000, form_instances=100
    )
    assert ok, report["failures"][:5]
    assert report["random_forms_checked"] == 3000
    assert report["named_form_instances"] == 1500
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report("criterion 5 (residue suite)", t0)


# -- criterion 6 -------------------------------------------------------------

PRIMES_TO_127 = [p for p in range(7, 128) if is_prime(p)]


def test_criterion6_half_group_never_decomposes():
    t0 = time.time()
    for p in PRIMES_TO_127:
        d = (p - 1) // 2
        if d <= 1 or d >= p - 1:
            continue
        res = sumset_search(p, d)
        assert res.witnesses == [], (p, d, res.witnesses)
    _report("criterion 6 (no decomposition of the half group, 7..127)", t0)


def test_criterion6_all_decompositions_balanced():
    t0 = time.time()
    for p in PRIMES_TO_127:
        for d in range(2, p - 1):
            if (p - 1) % d:
                continue
            res = sumset_search(p, d)
            assert res.violations == (), (p, d, res.violations)
            for A, B in res.witnesses:
                root = int(d**0.5)
                assert root * root == d
                assert len(A) == len(B) == root, (p, d, A, B)
    _report("criterion 6 (every witness balanced at sqrt(d), p <= 127)", t0)


def test_criterion6_exact_difference_sets_only_2_and_6():
    t0 = time.time()
    exact_ds = set()
    for p in range(3, 201):
        if not is_prime(p):
            continue
        for d in range(2, p - 1):
            if (p - 1) % d:
                continue
            res = diffset_search(p, d)
            for elems, exact in res.witnesses:
                if exact:
                    exact_ds.add(d)
                else:
                    assert (p, d) == (41, 20), (p, d, elems)
    assert exact_ds == {2, 6}
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report("criterion 6 (exact difference sets only at d in {2, 6}, p <= 200)", t0)


def test_criterion6_no_threefold():
    t0 = time.time()
    for p in PRIMES_TO_127:
        for d in range(2, p - 1):
            if (p - 1) % d:
                continue
            res = threefold_check(p, d)
            assert res.witnesses == [], (p, d, res.witnesses)
    _report("criterion 6 (no three-summand decomposition, p <= 127)", t0)


# -- criterion 7 -------------------------------------------------------------

def test_criterion7_coefficient_dual_route():
    t0 = time.time()
    rng = random.Random(7)
    for p, n_sets in ((41, 167), (97, 167), (10007, 166)):
        for _ in range(n_sets):
            A = random_subset(rng, p, rng.randint(2, 8))
            cs = hp_coeffs(A)
            vs = vandermonde_solve(A)
            assert all(cs[a] == vs[a] for a in A), A.elems
    _report("criterion 7 (explicit formula vs moment system, 500 sets)", t0)


def test_criterion7_h_m_dual_route():
    t0 = time.time()
    rng = random.Random(77)
    for _ in range(200):
        p = rng.choice((41, 97))
        A = random_subset(rng, p, rng.randint(2, 7))
        cs = hp_coeffs(A)
        alpha = len(A)
        for m in range(6):
            lhs = sum(cs[a].v * pow(a, m + alpha - 1, p) for a in A) % p
            assert lhs == complete_homogeneous(A, m).v
    _report("criterion 7 (series h_m vs coefficient sums, 200 sets)", t0)


# -- criterion 8 -------------------------------------------------------------

CRITERION8_COMMANDS = [
    ("verify-f41",),
    ("verify-identities",),
    ("verify-residues",),
    ("search", "levson", "--alpha-max", "3000"),
    ("search", "sumset", "--p", "61", "--d", "30"),
    ("search", "diffset", "--p", "181", "--d", "90"),
    ("search", "threefold", "--p", "41", "--d", "4"),
    ("search", "problem1", "--p", "13", "--alpha-max", "5"),
    ("search", "problem2", "--p", "41", "--d", "20"),
    ("check", "lemma13"),
]


def test_criterion8_thread_count_invariance(capsys):
    t0 = time.time()
    for args in CRITERION8_COMMANDS:
        outputs = []
        for threads in ("1", "4", "16"):
            code = cli.run(
                [*args, "--format", "json", "--threads", threads, "--seed", "0"]
            )
            out = capsys.readouterr().out
            assert json.loads(out)["schema"] == "mucrit/1"
            outputs.append((code, out))
        assert outputs[0] == outputs[1] == outputs[2], args
    _report("criterion 8 (byte-identical JSON at threads 1/4/16)", t0)

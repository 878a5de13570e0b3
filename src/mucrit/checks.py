"""The verification bundles and lemma-level checks, callable without the CLI.

Each bundle and check returns ``(ok, report)``, where ``report`` is the
JSON-ready dict that ``mucrit verify-*`` and ``mucrit check lemma<N>`` print:
``run_verify_f41`` (the F_41 worked example), ``run_verify_identities`` (the
exact symbolic identities and gamma constants), ``run_verify_residues`` (the
residue theorem and the named-form identities on seeded random instances)
and ``LEMMA_CHECKS[n](rng)`` for lemmas 1 to 17, which draws only from
``rng``.  Nothing here reads the command line or imports ``cli``.
"""

from __future__ import annotations

import functools
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .fp import FpSet, binom_mod, roots_of_unity
from .hp import (
    criticality, factorization_check, fractional_transform, hp_coeffs, lemma9_check,
    power_sum_vanishing, relation_x, relation_y, vandermonde_solve,
)
from .poly import FpPoly, from_roots
from .residues import FORM_NAMES, RationalForm, lemma_form_identity, sum_residues_check
from .search import _fan_out, product_condition
from .stepanov import (
    alpha11_obstruction, gamma_cross_check, identity_catalog_check, identity_catalog_run_all,
    lemma5_lemma6_numeric, lemma13_symbolic, rat2_check, rat3_check,
)
from .symm import complete_homogeneous, minimal_indices, power_sums_int

F41_SET = (0, 1, 9, 32, 40)


# ---------------------------------------------------------------------------
# report helpers

def _fe(v: int, p: int) -> Dict[str, str]:
    return {"value": str(v % p), "mod": str(p)}


def _set(S) -> Dict[str, object]:
    return {"mod": str(S.p), "elems": [str(v) for v in S.elems]}


# ---------------------------------------------------------------------------
# verification bundles

def run_verify_f41() -> Tuple[bool, Dict[str, object]]:
    p, d = 41, 20
    A = FpSet(p, F41_SET)
    rep = criticality(A, -A, d)
    fact = factorization_check(A, -A, d)
    c_expected = binom_mod(24, 20, p)
    ps = power_sums_int(A, 5)
    rat_ok = all(rat2_check(A, a) and rat3_check(A, a) for a in A)
    diffs = A.diffset(A)
    mu = roots_of_unity(p, d)
    strict = set(diffs) < set(mu) | {0}
    n, m = minimal_indices(A)
    l56 = lemma5_lemma6_numeric(A, d)
    checks = {
        "critical_with_overlap_5": rep.critical and rep.overlap == 5,
        "size_identity_5x5_eq_20_plus_5": len(A) * len(A) == d + rep.overlap,
        "factorization_exact": fact.ok,
        "leading_constant_is_binom_24_20": fact.C == c_expected,
        "power_sums_1_2_3_vanish": ps[1] == ps[2] == ps[3] == 0,
        "rat2_rat3_everywhere": rat_ok,
        "product_condition_everywhere": product_condition(A, p),
        "difference_set_strictly_inside": strict,
        "minimal_index_n_4_m_absent": n == 4 and m is None,
        "recentered_vanishing": bool(l56.recentered_vanishing_ok),
    }
    report = {
        "set": _set(A),
        "d": d,
        "C": _fe(fact.C.v, p),
        "checks": checks,
    }
    return all(checks.values()), report


def run_verify_identities() -> Tuple[bool, Dict[str, object]]:
    catalog = identity_catalog_run_all()
    l13 = lemma13_symbolic()
    a11 = alpha11_obstruction()
    checks = dict(catalog)
    checks.update(
        {
            "lemma13_display1": l13.display1_ok,
            "lemma13_display2": l13.display2_ok,
            "lemma13_final_congruence_poly": l13.final_ok,
            "lemma13_alpha7_collapse": l13.alpha7_collapse_ok,
            "alpha11_reduction_chain": (
                a11.fpp_square_identity_ok
                and a11.fpf3_identity_ok
                and a11.final_reduction_ok
            ),
            "gamma_cross_check_p19": gamma_cross_check(19, 3, 3, 9),
        }
    )
    report = {
        "checks": checks,
        "xi5_value": f"{a11.xi5_value.numerator}/{a11.xi5_value.denominator}",
    }
    return all(checks.values()), report


def _random_picks(rng: random.Random, p: int, size: int, avoid=()) -> List[int]:
    """``size`` distinct elements of F_p outside ``avoid``, drawn exactly as
    ``rng.sample`` draws from the increasing list of those elements.

    ``rng.sample`` picks positions from the population's length alone, so
    sampling positions in ``range`` and mapping each one to the element at
    that position gives the same elements and the same RNG state without
    building the list.
    """
    skip = sorted({x for x in avoid if 0 <= x < p})
    picks = []
    for x in rng.sample(range(p - len(skip)), size):
        for s in skip:
            if s > x:
                break
            x += 1
        picks.append(x)
    return picks


def _draw_split_form(rng: random.Random, p: int) -> Tuple[List[int], List[int], List[int]]:
    """The RNG calls of one random split form, in order: its distinct roots,
    the roots among them that are double, and the numerator's coefficients
    (up to the denominator's degree plus one)."""
    roots = rng.sample(range(p), min(rng.randint(1, 4), p))
    doubled = [r for r in roots if rng.randint(1, 2) == 2]
    coeffs = [rng.randrange(p) for _ in range(rng.randint(1, len(roots) + len(doubled) + 2))]
    return roots, doubled, coeffs


def _build_split_form(p: int, roots: List[int], doubled: List[int], coeffs: List[int]) -> RationalForm:
    den = from_roots(FpSet(p, roots))
    if doubled:
        den = den * from_roots(FpSet(p, doubled))
    num = FpPoly(p, coeffs)
    if num.is_zero():
        num = FpPoly.one(p)
    return RationalForm(num, den)


def _residue_draws(
    seed: int, primes: List[int], instances: int, form_instances: int
) -> Iterator[Optional[tuple]]:
    """The draws of every ``verify-residues`` instance, in RNG order, with
    every set a list of ints: ``instances`` (p, roots, doubled, coeffs) per
    prime for the random split forms, then ``form_instances`` (which, p, k,
    A, B) per prime and named form, with A None for a form that has none.
    An instance whose A finds no room in F_p is None."""
    rng = random.Random(seed)
    for p in primes:
        for _ in range(instances):
            yield (p, *_draw_split_form(rng, p))
    for p in primes:
        for which in FORM_NAMES:
            for _ in range(form_instances):
                k = rng.randint(0, 6)
                B = _random_picks(rng, p, min(rng.randint(2, 6), p))
                A = None
                if which in ("omega11", "psi", "omega21"):
                    # the poles -A of h'/h must miss B; F_p may have no room left
                    room = p - len(B)
                    if room == 0:
                        yield None
                        continue
                    avoid = [-b % p for b in B]
                    A = _random_picks(rng, p, min(rng.randint(2, 6), room), avoid)
                yield which, p, k, A, B


def _check_residue_share(
    share: Sequence[int], seed: int, primes: List[int], instances: int, form_instances: int
) -> list:
    """[random forms checked, named-form instances checked, failures] over
    the instances whose index in ``_residue_draws`` is in ``share``, each
    failure an (index, message) pair.  Every instance is drawn, so the RNG
    runs as in one pass over all of them, but only those in ``share`` are
    built and checked."""
    n_random = len(primes) * instances
    checked = form_checked = 0
    failures = []
    for i, draw in enumerate(_residue_draws(seed, primes, instances, form_instances)):
        if draw is None or i not in share:
            continue
        if i < n_random:
            form = _build_split_form(*draw)
            res = sum_residues_check(form)
            checked += 1
            if res.status != "zero":
                failures.append((i, f"total residue {res.status} for {form!r}"))
            continue
        which, p, k, A, B = draw
        A = None if A is None else FpSet(p, A)
        B = FpSet(p, B)
        rep = lemma_form_identity(which, A, B, k, mode="general")
        form_checked += 1
        if not rep.ok:
            message = (
                f"{which} general identity failed at p={p}, k={k}, "
                f"A={None if A is None else A.elems}, B={B.elems}"
            )
            failures.append((i, message))
    return [checked, form_checked, failures]


def run_verify_residues(
    seed: int, primes: List[int], instances: int, form_instances: int, workers: int = 1
) -> Tuple[bool, Dict[str, object]]:
    """The residue theorem on ``instances`` random split forms per prime and
    the general identity of every named form on ``form_instances`` random
    instances per prime, checked in up to ``workers`` processes: the
    instance indices are dealt round-robin to them (``_fan_out``), and the
    failures merged in index order, so the report is the same for every
    ``workers``."""
    slots = len(primes) * (instances + len(FORM_NAMES) * form_instances)
    parts = _fan_out(
        functools.partial(
            _check_residue_share, seed=seed, primes=primes, instances=instances,
            form_instances=form_instances,
        ),
        range(slots),
        workers,
    )
    failures = sorted(failure for part in parts for failure in part[2])
    report = {
        "random_forms_checked": sum(part[0] for part in parts),
        "named_form_instances": sum(part[1] for part in parts),
        "failures": [message for _, message in failures],
    }
    return not failures, report


# ---------------------------------------------------------------------------
# lemma-level checks

def _pair_f13() -> Tuple[FpSet, FpSet]:
    # the canonical recentered decomposition of mu_4 over F_13
    return FpSet(13, (3, 10)), FpSet(13, (2, 11))


def _vanishing_power_sum_set(p: int, k: int, c: int, with_zero: bool) -> FpSet:
    """c * mu_k (optionally with 0 adjoined): p_l = 0 for 0 < l < k."""
    mu = roots_of_unity(p, k)
    vals = [c * u % p for u in mu]
    if with_zero:
        vals.append(0)
    return FpSet(p, vals)


def _check_lemma1(rng: random.Random) -> Tuple[bool, Dict[str, object]]:
    p = 97
    ok = True
    for _ in range(25):
        A = FpSet(p, _random_picks(rng, p, rng.randint(2, 7)))
        cs = hp_coeffs(A)
        alpha = len(A)
        moments = all(
            cs.moment(m) == (1 if m == alpha - 1 else 0) for m in range(alpha)
        )
        vander = vandermonde_solve(A)
        explicit_eq = all(cs.c[a] == vander[a] for a in A)
        t = rng.randrange(p)
        shifted = hp_coeffs(A.translate(t))
        shift_ok = all(shifted.c[(a + t) % p] == cs.c[a] for a in A)
        ok = ok and moments and explicit_eq and shift_ok
    return ok, {"sets": 25, "p": p}


def _check_lemma2(rng: random.Random) -> Tuple[bool, Dict[str, object]]:
    p = 97
    ok = True
    for _ in range(25):
        A = FpSet(p, _random_picks(rng, p, rng.randint(2, 6)))
        cs = hp_coeffs(A)
        alpha = len(A)
        for m in range(0, 6):
            if cs.moment(m + alpha - 1) != complete_homogeneous(A, m):
                ok = False
    return ok, {"sets": 25, "p": p}


def _check_lemma3(rng) -> Tuple[bool, Dict[str, object]]:
    ok1 = power_sum_vanishing(FpSet(13, (0, 1, 10)), -FpSet(13, (0, 1, 10)), 6)
    A, B = _pair_f13()
    ok2 = power_sum_vanishing(A, B, 4)
    return ok1 and ok2, {"cases": ["F13 difference set", "F13 mu_4 pair"]}


def _check_lemma4(rng) -> Tuple[bool, Dict[str, object]]:
    A41 = FpSet(41, F41_SET)
    ok1 = factorization_check(A41, -A41, 20).ok
    A13 = FpSet(13, (0, 1, 10))
    ok2 = factorization_check(A13, -A13, 6).ok
    A, B = _pair_f13()
    ok3 = factorization_check(A, B, 4).ok
    return ok1 and ok2 and ok3, {"cases": 3}


def _check_lemma5(rng) -> Tuple[bool, Dict[str, object]]:
    rep = lemma5_lemma6_numeric(FpSet(41, F41_SET), 20)
    exempt = lemma5_lemma6_numeric(FpSet(13, (0, 1, 10)), 6)
    ok = bool(rep.recentered_vanishing_ok) and exempt.exempt
    return ok, {"f41_recentered_ok": rep.recentered_vanishing_ok, "f13_exempt": exempt.exempt}


def _check_lemma6(rng: random.Random) -> Tuple[bool, Dict[str, object]]:
    ok = True
    for t in (7, 15, 33):
        rep = lemma5_lemma6_numeric(FpSet(41, F41_SET).translate(t), 20)
        ok = ok and bool(rep.p2_identity_ok) and bool(rep.p3_identity_ok)
    return ok, {"shifts": [7, 15, 33]}


def _check_lemma7(rng) -> Tuple[bool, Dict[str, object]]:
    A = FpSet(41, F41_SET)
    ok = True
    for a in A:
        out = fractional_transform(A, a)
        ok = ok and len(out) == len(A)
    return ok, {"transforms": len(A)}


def _check_lemma8(rng) -> Tuple[bool, Dict[str, object]]:
    A, B = _pair_f13()
    p = A.p
    nA, _ = minimal_indices(A)
    nB, _ = minimal_indices(B)
    pa = power_sums_int(A, nA)[nA]
    pb = power_sums_int(B, nB)[nB]
    ok = nA == nB and (len(A) * pb + len(B) * pa) % p == 0
    return ok, {"n": nA}


def _check_lemma9(rng) -> Tuple[bool, Dict[str, object]]:
    A, B = _pair_f13()
    reports = [lemma9_check(A, B, b) for b in B]
    ok = all(
        r.identity_ok and r.coeff_relation_ok and r.c0_binomial_ok and r.c0_product_ok
        for r in reports
    )
    return ok, {"signs": [r.sign for r in reports]}


def _check_lemma10(rng) -> Tuple[bool, Dict[str, object]]:
    A, B = _pair_f13()
    ok = True
    for b in B:
        ok = ok and relation_x(A, B, b)[2] and relation_y(A, B, b)[2]
    for a in A:
        ok = ok and relation_x(B, A, a)[2] and relation_y(B, A, a)[2]
    return ok, {"pair": [list(A.elems), list(B.elems)]}


def _check_lemma11(rng: random.Random) -> Tuple[bool, Dict[str, object]]:
    ok = True
    for p in (41, 97):
        for _ in range(50):
            res = sum_residues_check(_build_split_form(p, *_draw_split_form(rng, p)))
            ok = ok and res.status == "zero"
    return ok, {"instances": 100}


def _check_lemma12(rng: random.Random) -> Tuple[bool, Dict[str, object]]:
    p = 97
    ok = True
    for _ in range(10):
        k = rng.randint(0, 5)
        B = FpSet(p, _random_picks(rng, p, rng.randint(2, 6)))
        ok = ok and lemma_form_identity("omega20", None, B, k, "general").ok
        avoid = {(-b) % p for b in B}
        A = FpSet(p, _random_picks(rng, p, rng.randint(2, 6), avoid))
        ok = ok and lemma_form_identity("omega11", A, B, k, "general").ok
    # specialized instances on vanishing-power-sum sets
    for k, with_zero in ((2, True), (3, False), (4, True)):
        B = _vanishing_power_sum_set(p, k, 5, with_zero)
        rep = lemma_form_identity("omega20", None, B, k, "specialized")
        ok = ok and rep.ok
    # -A = A = {3, 94} misses B = {5, 92}, as A avoids -B in the loop above
    A = _vanishing_power_sum_set(p, 2, 3, False)
    B = _vanishing_power_sum_set(p, 2, 5, False)
    ok = ok and lemma_form_identity("omega11", A, B, 2, "specialized").ok
    return ok, {"p": p}


def _check_lemma13(rng) -> Tuple[bool, Dict[str, object]]:
    rep = lemma13_symbolic()
    return rep.ok, {
        "display1": rep.display1_ok,
        "display2": rep.display2_ok,
        "final": rep.final_ok,
        "alpha7": rep.alpha7_collapse_ok,
    }


def _check_lemma14(rng: random.Random) -> Tuple[bool, Dict[str, object]]:
    p = 97
    ok = True
    for k, c in ((2, 5), (4, 7)):
        B = _vanishing_power_sum_set(p, k, c, False)
        ok = ok and lemma_form_identity("omega30", None, B, k, "specialized").ok
    for _ in range(10):
        B = FpSet(p, _random_picks(rng, p, rng.randint(2, 6)))
        ok = ok and lemma_form_identity("omega30", None, B, rng.randint(0, 5), "general").ok
    return ok, {"p": p}


def _check_pair_form(which: str, rng) -> Tuple[bool, Dict[str, object]]:
    """The specialized identity of ``which`` on the F_13 pair (lemmas 15, 16)."""
    A, B = _pair_f13()
    rep = lemma_form_identity(which, A, B, 2, "specialized")
    return rep.ok, {"failures": list(rep.hypothesis_failures)}


def _check_lemma17(rng) -> Tuple[bool, Dict[str, object]]:
    keys = ("lemma17_two_congruence_difference", "lemma17_nm_sum_formula")
    cat = {k: identity_catalog_check(k) for k in keys}
    return all(cat.values()), cat


LEMMA_CHECKS = {
    1: _check_lemma1,
    2: _check_lemma2,
    3: _check_lemma3,
    4: _check_lemma4,
    5: _check_lemma5,
    6: _check_lemma6,
    7: _check_lemma7,
    8: _check_lemma8,
    9: _check_lemma9,
    10: _check_lemma10,
    11: _check_lemma11,
    12: _check_lemma12,
    13: _check_lemma13,
    14: _check_lemma14,
    15: functools.partial(_check_pair_form, "psi"),
    16: functools.partial(_check_pair_form, "omega21"),
    17: _check_lemma17,
}

"""Command-line frontend: verification bundles, lemma-level checks, and the
search subcommands, with text/json/csv reports.

Exit codes: 0 all checks passed or search completed clean; 1 a verification
failed or an unexpected witness appeared (the counterexample is serialized in
the report); 2 usage or configuration errors.

JSON reports are versioned ("schema": "mucrit/1"), key-sorted, and carry no
timing or thread-count data, so a fixed configuration and seed produce
byte-identical output at any ``--threads`` value.  ``--threads N`` (at least
1) is the number of processes ``search levson`` may scan in, capped by the
CPUs this process may use and the number of primes; every other command runs
in one process and only checks the value.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import random
import sys
from typing import Dict, List, Optional, Tuple

from .fp import FpSet, binom_mod, is_prime, roots_of_unity
from .hp import (
    criticality,
    factorization_check,
    fractional_transform,
    hp_coeffs,
    lemma9_check,
    power_sum_vanishing,
    relation_x,
    relation_y,
    vandermonde_solve,
)
from .poly import FpPoly, from_roots
from .residues import (
    FORM_NAMES,
    RationalForm,
    lemma_form_identity,
    sum_residues_check,
)
from .search import SearchBudgetExceeded, SearchJob, product_condition, run_job
from .stepanov import (
    alpha11_obstruction,
    gamma_cross_check,
    identity_catalog_check,
    identity_catalog_run_all,
    lemma5_lemma6_numeric,
    lemma13_symbolic,
    rat2_check,
    rat3_check,
)
from .symm import complete_homogeneous, minimal_indices, power_sums_int

SCHEMA = "mucrit/1"

F41_SET = (0, 1, 9, 32, 40)

# the search options a subparser may define; each one set becomes a job field
_JOB_FIELDS = tuple(f for f in SearchJob._fields if f != "kind")


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
    strict = diffs.mask & ~(mu.mask | 1) == 0 and diffs.mask != (mu.mask | 1)
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


def _random_subset(rng: random.Random, p: int, size: int, avoid=()) -> FpSet:
    """``size`` distinct elements of F_p outside ``avoid``, drawn exactly as
    ``rng.sample`` draws from the increasing list of those elements.

    ``rng.sample`` picks positions from the population's length alone, so
    sampling positions in ``range`` and mapping each one to the element at
    that position gives the same set and the same RNG state without
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
    return FpSet(p, picks)


def _random_split_form(rng: random.Random, p: int) -> RationalForm:
    roots = rng.sample(range(p), min(rng.randint(1, 4), p))
    doubled = [r for r in roots if rng.randint(1, 2) == 2]
    den = from_roots(FpSet(p, roots))
    if doubled:
        den = den * from_roots(FpSet(p, doubled))
    num = FpPoly(p, [rng.randrange(p) for _ in range(rng.randint(1, den.degree + 2))])
    if num.is_zero():
        num = FpPoly.one(p)
    return RationalForm(num, den)


def run_verify_residues(
    seed: int, primes: List[int], instances: int, form_instances: int
) -> Tuple[bool, Dict[str, object]]:
    rng = random.Random(seed)
    failures: List[str] = []
    checked = 0
    for p in primes:
        for _ in range(instances):
            form = _random_split_form(rng, p)
            res = sum_residues_check(form)
            checked += 1
            if res.status != "zero":
                failures.append(f"total residue {res.status} for {form!r}")
    form_checked = 0
    for p in primes:
        for which in FORM_NAMES:
            for _ in range(form_instances):
                k = rng.randint(0, 6)
                B = _random_subset(rng, p, min(rng.randint(2, 6), p))
                A = None
                if which in ("omega11", "psi", "omega21"):
                    # the poles -A of h'/h must miss B; F_p may have no room left
                    room = p - len(B)
                    if room == 0:
                        continue
                    A = _random_subset(rng, p, min(rng.randint(2, 6), room), avoid=-B)
                rep = lemma_form_identity(which, A, B, k, mode="general")
                form_checked += 1
                if not rep.ok:
                    failures.append(
                        f"{which} general identity failed at p={p}, k={k}, "
                        f"A={None if A is None else A.elems}, B={B.elems}"
                    )
    report = {
        "random_forms_checked": checked,
        "named_form_instances": form_checked,
        "failures": failures,
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
        A = _random_subset(rng, p, rng.randint(2, 7))
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
        A = _random_subset(rng, p, rng.randint(2, 6))
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
            res = sum_residues_check(_random_split_form(rng, p))
            ok = ok and res.status == "zero"
    return ok, {"instances": 100}


def _check_lemma12(rng: random.Random) -> Tuple[bool, Dict[str, object]]:
    p = 97
    ok = True
    for _ in range(10):
        k = rng.randint(0, 5)
        B = _random_subset(rng, p, rng.randint(2, 6))
        ok = ok and lemma_form_identity("omega20", None, B, k, "general").ok
        avoid = {(-b) % p for b in B}
        A = _random_subset(rng, p, rng.randint(2, 6), avoid=avoid)
        ok = ok and lemma_form_identity("omega11", A, B, k, "general").ok
    # specialized instances on vanishing-power-sum sets
    for k, with_zero in ((2, True), (3, False), (4, True)):
        B = _vanishing_power_sum_set(p, k, 5, with_zero)
        rep = lemma_form_identity("omega20", None, B, k, "specialized")
        ok = ok and rep.ok
    A = _vanishing_power_sum_set(p, 2, 3, False)
    B = _vanishing_power_sum_set(p, 2, 5, False)
    if not set((-a) % p for a in A) & set(B.elems):
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
        B = _random_subset(rng, p, rng.randint(2, 6))
        ok = ok and lemma_form_identity("omega30", None, B, rng.randint(0, 5), "general").ok
    return ok, {"p": p}


def _check_lemma15(rng) -> Tuple[bool, Dict[str, object]]:
    A, B = _pair_f13()
    rep = lemma_form_identity("psi", A, B, 2, "specialized")
    return rep.ok, {"failures": list(rep.hypothesis_failures)}


def _check_lemma16(rng) -> Tuple[bool, Dict[str, object]]:
    A, B = _pair_f13()
    rep = lemma_form_identity("omega21", A, B, 2, "specialized")
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
    15: _check_lemma15,
    16: _check_lemma16,
    17: _check_lemma17,
}


# ---------------------------------------------------------------------------
# formatting and dispatch

def _emit(
    ns: argparse.Namespace, command: str, params: Dict[str, object], ok: bool,
    report: Dict[str, object],
) -> int:
    """Write the report in ``ns.format`` to ``ns.out`` or stdout and return
    the exit code: 0 if ``ok``, else 1.  An unwritable ``ns.out`` raises
    ``ValueError``, which ``run`` turns into exit code 2; ``_check_out`` has
    already ruled out the failures that can be seen before any work."""
    doc = {
        "schema": SCHEMA,
        "command": command,
        "params": params,
        "seed": ns.seed,
        "ok": ok,
        "report": report,
    }
    if ns.format == "json":
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    elif ns.format == "csv":
        rows = ["key,value"]
        for key, val in sorted(_flatten(doc).items()):
            sval = json.dumps(val) if not isinstance(val, str) else val
            sval = sval.replace('"', '""')
            rows.append(f'{key},"{sval}"')
        text = "\n".join(rows) + "\n"
    else:
        lines = [f"[{command}] {'PASS' if ok else 'FAIL'}"]
        for key, val in sorted(_flatten(report).items()):
            lines.append(f"  {key} = {val}")
        text = "\n".join(lines) + "\n"
    if ns.out:
        try:
            with open(ns.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out: {exc}") from None
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def _check_out(path: str) -> None:
    """Raise ``ValueError``, as ``_emit`` would, if ``path`` is a directory
    or its parent is not one.  Nothing is created."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        err = errno.EISDIR
    elif not os.path.isdir(parent):
        err = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise ValueError(f"cannot write --out: {OSError(err, os.strerror(err), path)}")


def _flatten(obj, prefix: str = "") -> Dict[str, object]:
    out: Dict[str, object] = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(_flatten(v, f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(obj, (list, tuple)):
        out[prefix.rstrip(".")] = json.dumps(obj)
    else:
        out[prefix.rstrip(".")] = obj
    return out


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared by every run."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--out", default=None, help="write the report to a file")
    common.add_argument("--threads", type=int, default=1)
    common.add_argument("--seed", type=int, default=0)

    ap = argparse.ArgumentParser(
        prog="mucrit",
        description="verification bundles and exhaustive searches for "
        "multiplicative-subgroup additive structure",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("verify-f41", parents=[common])
    sub.add_parser("verify-identities", parents=[common])
    vr = sub.add_parser("verify-residues", parents=[common])
    vr.add_argument("--primes", default="41,97,10007")
    vr.add_argument("--instances", type=int, default=1000)
    vr.add_argument("--form-instances", type=int, default=100)

    se = sub.add_parser("search")
    ssub = se.add_subparsers(dest="kind", required=True)
    for kind in ("diffset", "sumset", "threefold"):
        sp = ssub.add_parser(kind, parents=[common])
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--d", type=int, required=True)
        if kind in ("sumset", "threefold"):
            sp.add_argument("--max-p", type=int, default=128)
        if kind == "sumset":
            sp.add_argument("--node-budget", type=int, default=50_000_000)
    lv = ssub.add_parser("levson", parents=[common])
    lv.add_argument("--alpha-max", type=int, default=3000)
    p1 = ssub.add_parser("problem1", parents=[common])
    p1.add_argument("--p", type=int, required=True)
    p1.add_argument("--alpha-max", type=int, default=5)
    p1.add_argument("--max-p", type=int, default=64)
    p2 = ssub.add_parser("problem2", parents=[common])
    p2.add_argument("--p", type=int, required=True)
    p2.add_argument("--d", type=int, required=True)
    p2.add_argument("--max-p", type=int, default=64)

    ck = sub.add_parser("check", parents=[common])
    ck.add_argument("target", help="lemma<N> for N in 1..17")
    return ap


def run(argv: Optional[List[str]] = None) -> int:
    ap = _build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(ns)
    except (ValueError, ZeroDivisionError, SearchBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(ns: argparse.Namespace) -> int:
    if ns.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {ns.threads}")
    if ns.out:
        _check_out(ns.out)
    if ns.command == "verify-f41":
        return _emit(ns, "verify-f41", {}, *run_verify_f41())
    if ns.command == "verify-identities":
        return _emit(ns, "verify-identities", {}, *run_verify_identities())
    if ns.command == "verify-residues":
        primes = [int(x) for x in ns.primes.split(",") if x]
        if not primes:
            raise ValueError("--primes names no prime")
        if ns.instances < 0 or ns.form_instances < 0:
            raise ValueError("--instances and --form-instances must be >= 0")
        for p in primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        params = {
            "primes": primes,
            "instances": ns.instances,
            "form_instances": ns.form_instances,
        }
        ok, report = run_verify_residues(ns.seed, primes, ns.instances, ns.form_instances)
        return _emit(ns, "verify-residues", params, ok, report)
    if ns.command == "search":
        if getattr(ns, "node_budget", 1) < 1:
            raise ValueError(f"--node-budget must be at least 1, got {ns.node_budget}")
        params = {k: v for k, v in vars(ns).items() if k in _JOB_FIELDS}
        res = run_job(SearchJob(ns.kind, **params), workers=ns.threads)
        # the report is the result's fields as they are: _asdict() is a shallow
        # dict of them, and json.dumps renders each tuple in it as a list
        return _emit(ns, f"search-{ns.kind}", params, not res.violations, res._asdict())
    if ns.command == "check":
        if not ns.target.startswith("lemma"):
            raise ValueError(f"unknown check target {ns.target!r}")
        try:
            num = int(ns.target[5:])
        except ValueError:
            raise ValueError(f"unknown check target {ns.target!r}")
        if num not in LEMMA_CHECKS:
            raise ValueError(f"no check registered for lemma {num}")
        ok, detail = LEMMA_CHECKS[num](random.Random(ns.seed))
        return _emit(ns, f"check-lemma{num}", {}, ok, detail)
    raise ValueError(f"unknown command {ns.command!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

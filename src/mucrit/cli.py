"""Command-line frontend: verification bundles, lemma-level checks, and the
search subcommands, with text/json/csv reports.

Exit codes: 0 all checks passed or search completed clean; 1 a verification
failed or an unexpected witness appeared (the counterexample is serialized in
the report); 2 usage or configuration errors.

JSON reports are versioned ("schema": "mucrit/1"), key-sorted, and carry no
timing or thread-count data, so a fixed configuration and seed produce
byte-identical output at any ``--threads`` value.  ``--threads N`` (at least
1) is the number of processes ``verify-residues`` checks its instances in
and ``search levson`` scans its primes in, capped by the CPUs this process
may use and the amount of work (``search._fan_out``); every other command
runs in one process and only checks the value.  Without ``--threads``, N is
the number of CPUs this process may use, read when the command runs.

Every option is declared once, as data: ``_COMMON`` holds the options of
every command and ``_LEAVES`` those of each command, under its words.  Each
command line is parsed by ``_parse``.  A plain line, exact ``--option
value`` pairs and positionals after the command words, is read straight from
the table (``_parse_plain``) without importing argparse.  Argparse, built
from the same table by ``_build_parser``, parses the rest: help, usage
errors, and unusual but valid lines (an abbreviation, ``--p=13``, a repeated
option, a value that starts with ``-``, ``--``), so every message is
argparse's own.
"""

from __future__ import annotations

import errno
import functools
import json
import os
import random
import sys
from types import SimpleNamespace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
from .search import (
    SearchBudgetExceeded,
    SearchJob,
    _fan_out,
    _usable_cpus,
    product_condition,
    run_job,
)
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


def _random_subset(rng: random.Random, p: int, size: int, avoid=()) -> FpSet:
    """The set of ``_random_picks``."""
    return FpSet(p, _random_picks(rng, p, size, avoid))


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


def _random_split_form(rng: random.Random, p: int) -> RationalForm:
    return _build_split_form(p, *_draw_split_form(rng, p))


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
    ns: SimpleNamespace, command: str, params: Dict[str, object], ok: bool,
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


# (flag, add_argument keywords) of every option: the common ones come first in
# every command, then the command's own, in the order of help and namespace
_COMMON: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("--format", {"choices": ("text", "json", "csv"), "default": "text"}),
    ("--out", {"default": None, "help": "write the report to a file"}),
    ("--threads", {
        "type": int, "default": None,
        "help": "processes for verify-residues and search levson "
        "(default: the CPUs this process may use)",
    }),
    ("--seed", {"type": int, "default": 0}),
)

_P = ("--p", {"type": int, "required": True})
_D = ("--d", {"type": int, "required": True})

_LEAVES: Dict[Tuple[str, ...], Tuple[Tuple[str, Dict[str, object]], ...]] = {
    ("verify-f41",): (),
    ("verify-identities",): (),
    ("verify-residues",): (
        ("--primes", {"default": "41,97,10007"}),
        ("--instances", {"type": int, "default": 1000}),
        ("--form-instances", {"type": int, "default": 100}),
    ),
    ("search", "diffset"): (_P, _D),
    ("search", "sumset"): (
        _P, _D, ("--max-p", {"type": int, "default": 128}),
        ("--node-budget", {"type": int, "default": 50_000_000}),
    ),
    ("search", "threefold"): (_P, _D, ("--max-p", {"type": int, "default": 128})),
    ("search", "levson"): (("--alpha-max", {"type": int, "default": 3000}),),
    ("search", "problem1"): (
        _P, ("--alpha-max", {"type": int, "default": 5}),
        ("--max-p", {"type": int, "default": 64}),
    ),
    ("search", "problem2"): (_P, _D, ("--max-p", {"type": int, "default": 64})),
    ("check",): (("target", {"help": "lemma<N> for N in 1..17"}),),
}


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argparse tree of ``_COMMON`` and ``_LEAVES``, built on first use
    and then shared by every run: a subparser per command word, and under
    the last word of each command its options."""
    import argparse

    common = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in _COMMON:
        common.add_argument(flag, **kwargs)
    ap = argparse.ArgumentParser(
        prog="mucrit",
        description="verification bundles and exhaustive searches for "
        "multiplicative-subgroup additive structure",
    )
    subparsers = {(): ap.add_subparsers(dest="command", required=True)}
    for words, options in _LEAVES.items():
        if words[:-1] not in subparsers:
            group = subparsers[()].add_parser(words[0])
            subparsers[words[:-1]] = group.add_subparsers(dest="kind", required=True)
        leaf = subparsers[words[:-1]].add_parser(words[-1], parents=[common])
        for flag, kwargs in options:
            leaf.add_argument(flag, **kwargs)
    return ap


def _parse_plain(argv: List[str]) -> Optional[SimpleNamespace]:
    """``argv`` parsed as argparse parses it, read straight from the table,
    or None if the line is not plain.

    A plain line is the words of a command in ``_LEAVES`` followed by exact
    ``--option value`` pairs and positionals, each given once, with every
    value converted by its ``type`` and in its ``choices``, and every
    required argument given.  For anything else (help, an abbreviation,
    ``--p=13``, a repeated option, a value that starts with ``-``, ``--``, a
    missing or leftover argument, a value argparse would reject) this
    returns None and argparse takes the line."""
    words = tuple(argv[:1])
    if words not in _LEAVES:
        words = tuple(argv[:2])
        if words not in _LEAVES:
            return None
    table = _COMMON + _LEAVES[words]
    options = {flag: kwargs for flag, kwargs in table if flag[0] == "-"}
    positionals = [spec for spec in table if spec[0][0] != "-"]
    given: Dict[str, object] = {}
    tokens = iter(argv[len(words):])
    for token in tokens:
        if token[:1] == "-":
            flag, token = token, next(tokens, "-")  # "-": no value follows
            if flag not in options or token[:1] == "-":
                return None
            kwargs = options[flag]
        elif positionals:
            flag, kwargs = positionals.pop(0)
        else:
            return None
        if flag in given:
            return None
        try:
            value = kwargs["type"](token) if "type" in kwargs else token
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[flag] = value
    # the names and order argparse gives: command, kind, then each option
    ns = dict(zip(("command", "kind"), words))
    for flag, kwargs in table:
        if flag not in given and (kwargs.get("required") or flag[0] != "-"):
            return None
        ns[flag.lstrip("-").replace("-", "_")] = given.get(flag, kwargs.get("default"))
    return SimpleNamespace(**ns)


def _parse(argv: List[str]) -> SimpleNamespace:
    """``argv`` parsed by ``_parse_plain`` when it is plain, and by argparse
    otherwise, so argparse parses only help, usage errors and unusual but
    valid lines such as ``--opt=value``, and it prints every message."""
    ns = _parse_plain(argv)
    if ns is None:
        ns = SimpleNamespace(**vars(_build_parser().parse_args(argv)))
    return ns


def run(argv: Optional[List[str]] = None) -> int:
    try:
        ns = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(ns)
    except (ValueError, ZeroDivisionError, SearchBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(ns: SimpleNamespace) -> int:
    if ns.threads is None:
        # read per run, not in the cached parser, so it follows the CPUs allowed now
        ns.threads = _usable_cpus()
    elif ns.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {ns.threads}")
    if ns.out:
        _check_out(ns.out)
    if ns.command == "verify-f41":
        return _emit(ns, "verify-f41", {}, *run_verify_f41())
    if ns.command == "verify-identities":
        return _emit(ns, "verify-identities", {}, *run_verify_identities())
    if ns.command == "verify-residues":
        primes = []
        for x in filter(None, ns.primes.split(",")):
            try:
                primes.append(int(x))
            except ValueError:
                raise ValueError(f"--primes entry {x!r} is not an integer") from None
        if not primes:
            raise ValueError("--primes names no prime")
        if ns.instances < 0 or ns.form_instances < 0:
            raise ValueError("--instances and --form-instances must be >= 0")
        for p in primes:
            if p < 2 or not is_prime(p):
                raise ValueError(f"{p} is not prime")
        params = {
            "primes": primes,
            "instances": ns.instances,
            "form_instances": ns.form_instances,
        }
        ok, report = run_verify_residues(
            ns.seed, primes, ns.instances, ns.form_instances, workers=ns.threads
        )
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
        # a plain decimal numeral; int() alone also reads "1_7", "+3", "05", non-ASCII digits
        digits = ns.target[5:]
        if ns.target[:5] != "lemma" or not digits.isdecimal() or str(int(digits)) != digits:
            raise ValueError(f"unknown check target {ns.target!r}")
        num = int(digits)
        if num not in LEMMA_CHECKS:
            raise ValueError(f"no check registered for lemma {num}")
        ok, detail = LEMMA_CHECKS[num](random.Random(ns.seed))
        return _emit(ns, f"check-lemma{num}", {}, ok, detail)
    raise ValueError(f"unknown command {ns.command!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

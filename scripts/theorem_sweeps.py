#!/usr/bin/env python3
"""Desk-scale sweeps: difference-set classes for p <= 200, sumset
decompositions and three-summand checks for p <= 127.  Prints every witness
class found and flags anything a theorem says should not exist."""

import argparse
import time

from mucrit.fp import is_prime
from mucrit.search import diffset_search, sumset_search, threefold_check


def subgroup_orders(max_p):
    """Every (p, d) with p <= max_p prime and d | p - 1, 1 < d < p - 1."""
    for p in range(3, max_p + 1):
        if is_prime(p):
            for d in range(2, p - 1):
                if (p - 1) % d == 0:
                    yield p, d


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--diffset-max-p", type=int, default=200)
    ap.add_argument("--sumset-max-p", type=int, default=127)
    ns = ap.parse_args()

    t0 = time.time()
    print("== difference sets ==")
    for p, d in subgroup_orders(ns.diffset_max_p):
        res = diffset_search(p, d)
        for elems, exact in res.witnesses:
            tag = "exact" if exact else "strict"
            print(f"  p={p:3d} d={d:3d}  {tag:6s}  {elems}")
        for v in res.violations:
            print(f"  !! p={p} d={d}: {v}")

    print("== sumset decompositions ==")
    for p, d in subgroup_orders(ns.sumset_max_p):
        res = sumset_search(p, d, max_p=ns.sumset_max_p)
        for A, B in res.witnesses:
            print(f"  p={p:3d} d={d:3d}  A={A} B={B}")
        for v in res.violations:
            print(f"  !! p={p} d={d}: {v}")

    print("== three-summand checks ==")
    found = 0
    for p, d in subgroup_orders(ns.sumset_max_p):
        res = threefold_check(p, d, max_p=ns.sumset_max_p)
        found += len(res.witnesses)
        for w in res.witnesses:
            print(f"  !! p={p} d={d}: {w}")
    print(f"  three-summand decompositions found: {found}")
    print(f"total elapsed: {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()

import functools
import inspect
import json
import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from mucrit import cli, search
from mucrit.fp import FpSet, is_prime, roots_of_unity, subgroup_index
from mucrit.hp import criticality
from mucrit.search import (
    SearchResult,
    _recentered_index_violation,
    canonical_diffset,
    canonical_pair,
    decompose_two_summands,
    diffset_search,
    levson_scan,
    problem1_scan,
    problem2_scan,
    sumset_search,
    threefold_check,
)
from mucrit.stepanov import rat2_check

from conftest import allow_cpus, count_forks

ROOT = Path(__file__).resolve().parents[1]


class TestCanonicalForms:
    def test_diffset_orbit_invariance(self, rng):
        p, d = 41, 20
        mu = roots_of_unity(p, d)
        A = (0, 1, 9, 32, 40)
        base = canonical_diffset(A, p, mu)
        for _ in range(20):
            c = rng.choice(mu.elems)
            t = rng.randrange(p)
            image = tuple((c * a + t) % p for a in A)
            assert canonical_diffset(image, p, mu) == base

    def test_pair_orbit_invariance(self, rng):
        p, d = 13, 4
        mu = roots_of_unity(p, d)
        A, B = (3, 10), (2, 11)
        base = canonical_pair(A, B, p, mu)
        assert canonical_pair(B, A, p, mu) == base
        for c in mu:
            cA = tuple(a * c % p for a in A)
            cB = tuple(b * c % p for b in B)
            assert canonical_pair(cA, cB, p, mu) == base


class TestDiffsetSearch:
    def test_f13_exact_class(self):
        res = diffset_search(13, 6)
        assert len(res.witnesses) == 1
        elems, exact = res.witnesses[0]
        assert exact
        mu = roots_of_unity(13, 6)
        assert elems == canonical_diffset((0, 1, 10), 13, mu)

    def test_f41_strict_class(self):
        res = diffset_search(41, 20)
        assert len(res.witnesses) == 1
        elems, exact = res.witnesses[0]
        assert not exact
        mu = roots_of_unity(41, 20)
        assert elems == canonical_diffset((0, 1, 9, 32, 40), 41, mu)
        assert res.violations == ()  # (41, 20) is the known exception

    def test_mu_taken_from_the_cache(self, monkeypatch):
        # past the alpha check the search uses the cached mu_d and builds no
        # FpSet of its own for it
        mu = roots_of_unity(13, 6)
        built = []
        real = FpSet.__init__

        def recording(self, p, values=()):
            values = tuple(values)
            built.append(tuple(sorted({v % p for v in values})))
            real(self, p, values)

        monkeypatch.setattr(FpSet, "__init__", recording)
        assert diffset_search(13, 6).witnesses
        assert built
        assert mu.elems not in built

    def test_f41_witness_is_the_cross(self):
        # {0, 1, 9, 32, 40} = {0, +-1, +-i} with i = 9, since 9^2 = -1 mod 41
        p = 41
        assert 9 * 9 % p == p - 1
        cross = sorted({0, 1, p - 1, 9, p - 9})
        assert cross == [0, 1, 9, 32, 40]

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            diffset_search(31, 20)  # 20 does not divide 30
        with pytest.raises(ValueError):
            diffset_search(13, 12)  # d = p - 1 excluded

    def test_d_not_product_form(self):
        res = diffset_search(13, 4)  # 4 != alpha(alpha-1)
        assert res.witnesses == []
        assert any("no witness possible" in v for v in res.verdicts)

    def test_brute_force_oracle_f13(self):
        # exhaustive over all 3-subsets of F_13
        p, d = 13, 6
        mu = roots_of_unity(p, d)
        allowed = set(mu) | {0}
        classes = set()
        for A in combinations(range(p), 3):
            S = FpSet(p, A)
            if set(S.diffset(S)) <= allowed:
                classes.add(canonical_diffset(A, p, mu))
        res = diffset_search(p, d)
        assert sorted(classes) == sorted(w[0] for w in res.witnesses)

    def test_planted_instance(self, rng):
        # random affine images of the known witness must land in its class
        p, d = 41, 20
        mu = roots_of_unity(p, d)
        base = (0, 1, 9, 32, 40)
        c = rng.choice(mu.elems)
        t = rng.randrange(p)
        planted = tuple((c * a + t) % p for a in base)
        res = diffset_search(p, d)
        assert canonical_diffset(planted, p, mu) in {w[0] for w in res.witnesses}

    def test_witnesses_reverify(self):
        from mucrit.hp import factorization_check

        for p, d in [(13, 6), (41, 20), (61, 6)]:
            res = diffset_search(p, d)
            for elems, _ in res.witnesses:
                S = FpSet(p, elems)
                assert criticality(S, -S, d).critical
                assert factorization_check(S, -S, d).ok


class TestRecenteredIndexViolation:
    def test_critical_pair_passes(self):
        assert _recentered_index_violation(FpSet(13, [3, 10]), FpSet(13, [2, 11])) is None

    def test_b_takes_the_opposite_of_a_shift(self):
        # A = {0, 1} recenters by t = -1/2 = 6; B - t = {7, 8} keeps p_1 = 2,
        # which recentering B on its own would hide
        A = B = FpSet(13, [0, 1])
        assert _recentered_index_violation(A, B) == (
            "recentering failed to kill p_1 for ((0, 1), (0, 1))"
        )

    def test_shift_patched_to_zero_leaves_p1(self, monkeypatch):
        # with no recentering, a witness whose A has p_1 != 0 keeps it, and
        # both the check and the search must report that
        p, d = 13, 4
        res = sumset_search(p, d)
        assert res.violations == ()
        monkeypatch.setattr(search, "recentering_shift", lambda A: 0)
        uncentered = [(A, B) for A, B in res.witnesses if sum(A) % p]
        assert uncentered
        for A, B in uncentered:
            assert _recentered_index_violation(FpSet(p, A), FpSet(p, B)) == (
                f"recentering failed to kill p_1 for {(A, B)}"
            )
        assert set(sumset_search(p, d).violations) == {
            f"recentering failed to kill p_1 for {pair}" for pair in uncentered
        }


class TestSumsetSearch:
    def test_brute_force_oracle_f13_d4(self):
        p, d = 13, 4
        mu = roots_of_unity(p, d)
        target = sorted(mu)
        classes = set()
        for A in combinations(range(p), 2):
            for B in combinations(range(p), 2):
                if sorted((a + b) % p for a in A for b in B) == target:
                    classes.add(canonical_pair(A, B, p, mu))
        res = sumset_search(p, d)
        assert sorted(classes) == sorted((tuple(a), tuple(b)) for a, b in res.witnesses)

    def test_no_decomposition_p19_d9(self):
        res = sumset_search(19, 9)
        assert res.witnesses == []
        assert "no decomposition exists" in res.verdicts

    def test_all_witnesses_balanced(self):
        for p in [13, 17, 29, 37]:
            for d in range(2, p - 1):
                if (p - 1) % d:
                    continue
                res = sumset_search(p, d)
                for A, B in res.witnesses:
                    assert len(A) == len(B)
                    assert len(A) * len(B) == d
                assert res.violations == ()

    def test_planted_instance(self, rng):
        # scale a known witness and confirm its class is still reported
        p, d = 17, 4
        mu = roots_of_unity(p, d)
        res = sumset_search(p, d)
        assert res.witnesses, "expected decompositions of mu_4 over F_17"
        A, B = res.witnesses[0]
        c = rng.choice(mu.elems)
        cA = tuple(a * c % p for a in A)
        cB = tuple(b * c % p for b in B)
        assert canonical_pair(cA, cB, p, mu) in {
            (tuple(a), tuple(b)) for a, b in res.witnesses
        }

    def test_feasibility_bound(self):
        with pytest.raises(ValueError):
            sumset_search(131, 13, max_p=128)

    def test_oracle_small_summands(self):
        # every alpha-subset A of F_p, nothing pinned, with its largest
        # partner B = {b : A + b inside mu_d}; covers every d whose splits
        # d = alpha * beta, 2 <= alpha <= beta, all have alpha <= 3
        seen_empty = seen_found = 0
        for p in range(7, 42):
            if not is_prime(p):
                continue
            for d in range(2, p - 1):
                if (p - 1) % d:
                    continue
                alphas = [a for a in range(2, math.isqrt(d) + 1) if d % a == 0]
                if not alphas or max(alphas) > 3:
                    continue
                mu = roots_of_unity(p, d)
                target = set(mu.elems)
                partners = {a: {(z - a) % p for z in target} for a in range(p)}
                classes = set()
                for alpha in alphas:
                    for A in combinations(range(p), alpha):
                        B = set.intersection(*(partners[a] for a in A))
                        if len(B) > 1 and {(a + b) % p for a in A for b in B} == target:
                            classes.add(canonical_pair(A, sorted(B), p, mu))
                res = sumset_search(p, d)
                assert sorted(classes) == res.witnesses, (p, d)
                if classes:
                    seen_found += 1
                else:
                    seen_empty += 1
                    assert "no decomposition exists" in res.verdicts
        assert seen_found and seen_empty

    def test_d4_witnesses_closed_under_shift_and_scaling(self):
        for p in (13, 17, 29, 37, 41):
            mu = roots_of_unity(p, 4)
            res = sumset_search(p, 4)
            listed = set(res.witnesses)
            assert listed, p
            for A, B in res.witnesses:
                for t in range(p):
                    shifted = canonical_pair(
                        [(a + t) % p for a in A], [(b - t) % p for b in B], p, mu
                    )
                    assert shifted in listed, (p, A, B, t)
                for c in mu:
                    scaled = canonical_pair(
                        [a * c % p for a in A], [b * c % p for b in B], p, mu
                    )
                    assert scaled in listed, (p, A, B, c)

    def test_budget_is_one_global_count(self):
        for p, d in [(29, 4), (61, 30), (97, 48)]:
            full = sumset_search(p, d)
            assert not any("budget" in v for v in full.verdicts)
            nodes = full.counts["nodes"]
            exact = sumset_search(p, d, node_budget=nodes)
            assert (exact.witnesses, exact.verdicts) == (full.witnesses, full.verdicts)
            short = sumset_search(p, d, node_budget=nodes - 1)
            assert any("budget" in v for v in short.verdicts), (p, d)
            assert "no decomposition exists" not in short.verdicts

    def test_budget_exhaustion_distinct_from_none(self):
        res = sumset_search(61, 30, node_budget=1)
        assert any("budget" in v for v in res.verdicts)
        assert "no decomposition exists" not in res.verdicts

    @pytest.mark.parametrize("check", [sumset_search, threefold_check])
    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, check, budget):
        # a budget that admits no node would return a vacuous pass
        with pytest.raises(ValueError, match=f"node_budget must be at least 1, got {budget}$"):
            check(13, 4, node_budget=budget)

    def test_negative_control_non_witness_fails_reverification(self, monkeypatch):
        # a listed class whose sumset misses mu_d stops the search: a real
        # witness with B shifted by 1 has A + B = mu_d + 1
        p, d = 13, 4
        A, B = sumset_search(p, d).witnesses[0]
        shifted = tuple(sorted((b + 1) % p for b in B))
        monkeypatch.setattr(search, "_shift_classes", lambda found, p, mu: {(A, shifted)})
        with pytest.raises(AssertionError, match="failed re-verification"):
            sumset_search(p, d)
        monkeypatch.setattr(search, "_shift_classes", lambda found, p, mu: {(A, B)})
        assert sumset_search(p, d).witnesses == [(A, B)]

    def test_witnesses_satisfy_factorization(self):
        from mucrit.hp import factorization_check

        for p in [13, 17, 29]:
            res = sumset_search(p, 4)
            for A, B in res.witnesses:
                assert factorization_check(FpSet(p, A), FpSet(p, B), 4).ok


# every (p, d, split) with p < 110 that sumset_search enumerates: d | p - 1,
# 1 < d < p - 1, and d = alpha * beta with 2 <= alpha <= beta
SUMSET_SPLITS = [
    (p, d, alpha, d // alpha)
    for p in range(3, 110)
    if is_prime(p)
    for d in range(2, p - 1)
    if (p - 1) % d == 0
    for alpha in range(2, math.isqrt(d) + 1)
    if d % alpha == 0
]


def _rotation_class(K, d):
    """The least rotation of an exponent set mod d: its class under scaling
    by mu_d."""
    return min(tuple(sorted((k - r) % d for k in K)) for r in K)


def _summands(summands, p, d, alpha, beta):
    """What ``summands`` yields for (p, d) and the split (alpha, beta)."""
    _, powers, _ = subgroup_index(p, d)
    diff = search._difference_masks(powers, p)
    return list(summands(diff, powers, p, alpha, beta, lambda: None))


def _summand_classes(summands, p, d, alpha, beta):
    """The rotation classes of the exponent tuples that ``summands`` yields
    for (p, d) and the split (alpha, beta), after checking that each comes
    with the mask of every b such that A + b lies inside mu_d and b is not
    a nonzero difference of A."""
    _, powers, _ = subgroup_index(p, d)
    mu = set(powers)
    classes = set()
    for K, cand in _summands(summands, p, d, alpha, beta):
        assert len(K) == alpha and K[0] == 0 and list(K) == sorted(set(K)), K
        A = [powers[k] for k in K]
        diffs = {(a - x) % p for a in A for x in A if a != x}
        want = [b for b in range(p) if all((a + b) % p in mu for a in A) and b not in diffs]
        assert cand == sum(1 << b for b in want) and len(want) >= beta, K
        classes.add(_rotation_class(K, d))
    return classes


def _unpruned_summands(p, d, alpha, beta, unique=True):
    """The unpruned enumeration, in value order and with no gap rule or
    forward checking: every A of size alpha in mu_d with 1 in A, grown in
    increasing value, cut only when fewer than beta b remain that have
    A + b inside mu_d and, with ``unique``, are no nonzero difference of A.
    Returns the exponent sets of the A reached, up to rotation, each mapped
    to one A of its class."""
    _, powers, log = subgroup_index(p, d)
    base = sorted(powers)
    mu = set(base)
    partners = {a: {b for b in range(p) if (a + b) % p in mu} for a in base}
    reached = {}

    def extend(A, cand):
        if len(A) == alpha:
            reached[_rotation_class([log[a] for a in A], d)] = A
            return
        for a in base[base.index(A[-1]) + 1 :]:
            nc = cand & partners[a]
            if unique:
                nc -= {(a - x) % p for x in A} | {(x - a) % p for x in A}
            if len(nc) >= beta:
                extend(A + [a], nc)

    extend([1], partners[1])
    return reached


def _unpruned_summand_classes(p, d, alpha, beta):
    return set(_unpruned_summands(p, d, alpha, beta))


class TestGapAnchoredSummands:
    def test_cases_cover_the_range(self):
        assert len(SUMSET_SPLITS) == 109
        assert (61, 30, 2, 15) in SUMSET_SPLITS and (109, 54, 6, 9) in SUMSET_SPLITS

    def test_matches_unpruned_enumeration_up_to_rotation(self):
        # the minimal-gap anchor and forward checking cut branches, never a
        # class: the summands reached are the same up to scaling by mu_d as
        # those of the value-order enumeration under the same
        # unique-representation rule
        total = 0
        for p, d, alpha, beta in SUMSET_SPLITS:
            want = _unpruned_summand_classes(p, d, alpha, beta)
            got = _summand_classes(search._gap_anchored_summands, p, d, alpha, beta)
            assert got == want, (p, d, alpha, beta)
            total += len(want)
        assert total == 35

    def test_unique_representation_cuts_only_summands_without_cover(self):
        # brute force over every beta-set B with 0 in B of the b with A + b
        # inside mu_d: no A that the rule cuts has A + B = mu_d.  Every A
        # the search yields comes with exactly beta candidates, as the
        # Hanson-Petridis bound says, and the brute force finds B = cand
        # for it or no B at all: the covers found are exactly those cand
        cut = 0
        covered, forced = set(), set()
        for p, d, alpha, beta in SUMSET_SPLITS:
            mu = sorted(roots_of_unity(p, d))

            def covers(A):
                partners = [b for b in range(1, p) if all((a + b) % p in mu for a in A)]
                return [
                    (0,) + rest
                    for rest in combinations(partners, beta - 1)
                    if sorted((a + b) % p for a in A for b in (0,) + rest) == mu
                ]

            every = _unpruned_summands(p, d, alpha, beta, unique=False)
            kept = _unpruned_summands(p, d, alpha, beta)
            assert kept.keys() <= every.keys()
            for cls, A in every.items():
                has_cover = bool(covers(A))
                if cls not in kept:
                    assert not has_cover, (p, d, A)
                    cut += 1
                if has_cover:
                    covered.add((p, d, cls))
            _, powers, _ = subgroup_index(p, d)
            for K, cand in _summands(search._gap_anchored_summands, p, d, alpha, beta):
                assert cand.bit_count() == beta, (p, d, K)
                found = covers([powers[k] for k in K])
                assert found in ([], [tuple(search._bits(cand))]), (p, d, K)
                if found:
                    forced.add((p, d, _rotation_class(K, d)))
        assert cut == 70 and len(covered) == 12 and forced == covered

    def test_negative_control_extra_candidate_is_a_violation(self, monkeypatch, capsys):
        # one more candidate than the bound allows is reported as a
        # Hanson-Petridis violation, never as "no decomposition exists"
        summands = search._gap_anchored_summands

        def widened(diff, powers, p, alpha, beta, spend):
            for K, cand in summands(diff, powers, p, alpha, beta, spend):
                yield K, cand | ~cand & cand + 1  # and the least b not in cand

        assert sumset_search(29, 14).verdicts == ("no decomposition exists",)
        monkeypatch.setattr(search, "_gap_anchored_summands", widened)
        res = sumset_search(29, 14)
        assert res.witnesses == [] and res.verdicts == ()
        assert len(res.violations) == 2
        assert all("Hanson-Petridis bound fails" in v for v in res.violations)
        assert cli.run(["search", "sumset", "--p", "29", "--d", "14"]) == 1
        assert "Hanson-Petridis" in capsys.readouterr().out

    def test_negative_control_zero_also_forbidden(self):
        # forbidding 0 as well, as if it were a difference of A, drops
        # every A whose only candidates are its partner B and 0
        src = inspect.getsource(search._gap_anchored_summands)
        init = "dm = 0  # the new differences of A"
        assert src.count(init) == 1
        namespace = dict(vars(search))
        exec(src.replace(init, "dm = 1"), namespace)
        mutant = namespace["_gap_anchored_summands"]
        lost = []
        for case in SUMSET_SPLITS:
            got = {_rotation_class(K, case[1]) for K, _ in _summands(mutant, *case)}
            want = _unpruned_summand_classes(*case)
            assert got <= want, case
            if got != want:
                lost.append(case)
        assert len(lost) == 22 and (13, 4, 2, 2) in lost, lost

    def test_negative_control_tightened_gap_bound(self):
        # rebuild the generator from its source with the gap bound tightened
        # to k + need * g0 < d: it drops every A whose gaps from some element
        # on are all the least gap g0, such as A = {1, -1} at (29, 14)
        src = inspect.getsource(search._gap_anchored_summands)
        bound = "if k + need * g > d:"
        assert src.count(bound) == 1
        namespace = dict(vars(search))
        exec(src.replace(bound, "if k + need * g >= d:"), namespace)
        mutant = namespace["_gap_anchored_summands"]
        lost = [
            case
            for case in SUMSET_SPLITS
            if _summand_classes(mutant, *case) != _unpruned_summand_classes(*case)
        ]
        assert len(lost) == 3 and (29, 14, 2, 7) in lost, lost
        assert _summand_classes(mutant, 29, 14, 2, 7) < _unpruned_summand_classes(29, 14, 2, 7)

    def test_difference_masks_match_the_definition(self, rng):
        for p in (2, 13, 97):
            for _ in range(20):
                T = sorted(rng.sample(range(p), rng.randrange(1, p + 1)))
                got = search._difference_masks(T, p)
                assert got == [sum(1 << ((z - a) % p) for z in set(T)) for a in T]

    def test_frontier_half_group_p241(self):
        # the Sarkozy column at p = 241 within a small budget; without the
        # gap rule and forward checking it takes over 500,000 nodes
        res = sumset_search(241, 120, max_p=241, node_budget=20_000)
        assert res.witnesses == []
        assert res.verdicts == ("no decomposition exists",)


# every (p, d) with p <= 127 that sumset_search accepts
SUMSET_ORDERS = [
    (p, d)
    for p in range(3, 128)
    if is_prime(p)
    for d in range(2, p - 1)
    if (p - 1) % d == 0
]


def _per_shift_classes(found, p, mu):
    """The shift expansion with one ``canonical_pair`` per shift: the class
    of every opposite shift (A + t, B - t) of every found pair."""
    return {
        search.canonical_pair([(a + t) % p for a in A], [(b - t) % p for b in B], p, mu)
        for A, B in found
        for t in range(p)
    }


class TestShiftClasses:
    def test_matches_per_shift_oracle(self, monkeypatch):
        # the orbit-marked walk lists the same classes, so every result,
        # the three-summand check's included, is the same
        got = {pq: (sumset_search(*pq), threefold_check(*pq)) for pq in SUMSET_ORDERS}
        monkeypatch.setattr(search, "_shift_classes", _per_shift_classes)
        for pq in SUMSET_ORDERS:
            assert got[pq] == (sumset_search(*pq), threefold_check(*pq)), pq
        assert len(SUMSET_ORDERS) == 154
        assert sum(bool(pair.witnesses) for pair, _ in got.values()) == 13

    def test_negative_control_class_keyed_by_own_pair(self, monkeypatch):
        # keying a shift's class by its own pair instead of its least image
        # leaves the listed pairs off the canonical form
        src = inspect.getsource(search._shift_classes)
        key = "classes.add(min(orbit))"
        assert src.count(key) == 1
        namespace = dict(vars(search))
        exec(src.replace(key, "classes.add(pair)"), namespace)
        want = sumset_search(13, 4)
        monkeypatch.setattr(search, "_shift_classes", namespace["_shift_classes"])
        assert sumset_search(13, 4).witnesses != want.witnesses

    def test_one_canonicalization_per_class(self, monkeypatch):
        # canonical_pair runs at most once per found pair, and the walk
        # builds one orbit per class listed
        calls, orbits, found_counts = [], [], []
        canonical, orbit, expand = search.canonical_pair, search._pair_orbit, search._shift_classes

        def counting(*args):
            calls.append(args)
            return canonical(*args)

        def counting_orbits(*args):
            orbits.append(args)
            return orbit(*args)

        def recording(found, p, mu):
            found_counts.append(len(found))
            return expand(found, p, mu)

        monkeypatch.setattr(search, "canonical_pair", counting)
        monkeypatch.setattr(search, "_pair_orbit", counting_orbits)
        monkeypatch.setattr(search, "_shift_classes", recording)
        res = sumset_search(89, 4)
        assert len(res.witnesses) == 23
        assert found_counts and 1 <= len(calls) <= found_counts[0]
        assert len(orbits) == len(calls) + len(res.witnesses)
        # the counters see the per-shift expansion's p calls per found pair
        calls.clear()
        orbits.clear()
        expand = _per_shift_classes
        assert sumset_search(89, 4) == res
        assert len(calls) == len(orbits) == 89 * found_counts[1]


def _random_split_targets(rng):
    """300 targets T (p in {13, 29, 53}, 2-6 elements) as (p, sorted T);
    about half are a random 2-set plus a random 2- or 3-set."""
    targets = []
    while len(targets) < 300:
        p = rng.choice((13, 29, 53))
        if rng.random() < 0.5:
            Y, Z = rng.sample(range(p), 2), rng.sample(range(p), rng.choice((2, 3)))
            T = sorted({(y + z) % p for y in Y for z in Z})
        else:
            T = sorted(rng.sample(range(p), rng.randrange(2, 7)))
        if 2 <= len(T) <= 6:
            targets.append((p, T))
    return targets


def _splits_by_brute_force(p, T):
    """Whether some Y, Z with |Y|, |Z| >= 2 have Y + Z = T, by trying all
    subsets: a split (Y, Z) shifts to (Y - y, Z + y) for any y in Y, with
    Z + y inside T and Y - y inside T - z for the least z of Z + y."""
    want = set(T)
    return any(
        {(y + z) % p for y in Y for z in Z} == want
        for k in range(2, len(T) + 1)
        for Z in combinations(T, k)
        for j in range(2, len(T) + 1)
        for Y in combinations(sorted((t - Z[0]) % p for t in T), j)
    )


# a pair witness of mu_4 at p = 13 whose second summand splits as {0, 1} + {0, 2}
_PLANTED = SearchResult("sumset", 13, 4, [((0, 5), (0, 1, 2, 3))], {"nodes": 1}, (), ())


class TestThreefold:
    def test_budget_exhaustion_is_a_verdict(self):
        pair_nodes = sumset_search(13, 4).counts["nodes"]
        for budget, level in ((1, "results"), (pair_nodes, "second-level")):
            res = threefold_check(13, 4, node_budget=budget)
            assert any("budget" in v and level in v for v in res.verdicts), budget
            assert "no three-summand decomposition exists" not in res.verdicts
        clean = threefold_check(13, 4, node_budget=10 * pair_nodes)
        assert "no three-summand decomposition exists" in clean.verdicts

    def test_none_at_small_primes(self):
        for p, d in [(13, 4), (29, 4), (19, 6)]:
            res = threefold_check(p, d)
            assert res.witnesses == []
            assert "no three-summand decomposition exists" in res.verdicts

    def test_planted_negative_control(self, monkeypatch):
        # a planted pair witness whose second summand splits as {0, 1} + {0, 2}:
        # the three-summand check must list the triple and flag it
        p, d = 13, 4
        monkeypatch.setattr(search, "sumset_search", lambda *args, **kwargs: _PLANTED)
        res = threefold_check(p, d)
        assert len(res.witnesses) == 1
        first, B, C = res.witnesses[0]
        assert first == (0, 5)
        assert min(len(B), len(C)) > 1
        assert sorted({(b + c) % p for b in B for c in C}) == [0, 1, 2, 3]
        assert any("three-summand decomposition" in v for v in res.violations)
        assert "no three-summand decomposition exists" not in res.verdicts

    @pytest.mark.parametrize("budget", range(3, 16))
    def test_found_split_survives_the_budget(self, monkeypatch, budget):
        # the planted summand {0, 1, 2, 3} splits at the second node of its
        # search; a budget that runs out later must not lose that split
        p, d = 13, 4
        monkeypatch.setattr(search, "sumset_search", lambda *args, **kwargs: _PLANTED)
        res = threefold_check(p, d, node_budget=budget)
        assert res.witnesses == [((0, 5), (0, 1), (0, 1, 2))]
        assert res.violations == ("three-summand decomposition ((0, 5), (0, 1), (0, 1, 2)) of mu_4",)
        assert res.verdicts == ()

    def test_two_summand_decomposition_finds_plant(self, rng):
        p = 53
        A = sorted(rng.sample(range(p), 3))
        B = sorted(rng.sample(range(p), 3))
        target = FpSet(p, [(a + b) % p for a in A for b in B])
        found = decompose_two_summands(target)
        assert found
        FA, FB = found
        got = sorted({(x + y) % p for x in FA for y in FB})
        assert got == list(target.elems)

    def test_two_summand_split_matches_brute_force(self, rng):
        targets = _random_split_targets(rng)
        wants = [_splits_by_brute_force(p, T) for p, T in targets]
        assert 100 <= sum(wants) <= 200
        for (p, T), want in zip(targets, wants):
            found = decompose_two_summands(FpSet(p, T))
            assert (found is not None) == want, (p, T)
            if found:
                Y, Z = found
                assert min(len(Y), len(Z)) >= 2
                assert sorted({(y + z) % p for y in Y for z in Z}) == T

    def test_negative_control_partner_minus_largest(self):
        # completing A with its partners short of the largest misses the
        # split {0, 1} + {0, 10} = {0, 1, 10, 11} at p = 13
        src = inspect.getsource(search.decompose_two_summands)
        test = "for b in cand}"
        assert src.count(test) == 1
        namespace = dict(vars(search))
        exec(src.replace(test, "for b in sorted(cand)[:-1]}"), namespace)
        mutant = namespace["decompose_two_summands"]
        assert _splits_by_brute_force(13, [0, 1, 10, 11])
        assert mutant(FpSet(13, [0, 1, 10, 11])) is None
        assert decompose_two_summands(FpSet(13, [0, 1, 10, 11])) == ((0, 1), (0, 10))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestLevson:
    def test_small_scan(self):
        res = levson_scan(100)
        assert res.witnesses == [(13, 3, 3), (41, 5, 4)]
        assert res.counts["primes_scanned"] == 35

    def test_alpha3_hand_check(self):
        # C(8,5) = C(8,3) = 56 exactly, sign +1 at n = 3
        import math

        assert math.comb(8, 5) == math.comb(8, 3)
        res = levson_scan(3)
        assert (13, 3, 3) in res.witnesses

    def test_composite_p_skipped(self):
        # alpha = 4 gives p = 25, not prime
        assert not is_prime(2 * 4 * 3 + 1)
        res = levson_scan(4)
        assert res.counts["primes_scanned"] == 2  # alpha = 2 (p=5), 3 (p=13)

    @pytest.mark.parametrize("alpha_max", [*range(2, 13), 5000])
    def test_sieve_matches_trial_division(self, alpha_max):
        want = [
            a
            for a in range(2, alpha_max + 1)
            if all((2 * a * (a - 1) + 1) % q for q in range(2, math.isqrt(2 * a * (a - 1) + 1) + 1))
        ]
        assert search._levson_alphas(alpha_max) == want

    def test_sieve_negative_control_without_prime_exception(self, monkeypatch):
        # rebuild the sieve from its source with the p = q exception cut out:
        # at alpha_max = 30 the sieve runs to q = 41, so alpha = 2, 3, 5
        # (p = 5, 13, 41) are crossed out by their own p, and the scan loses
        # both hits
        src = inspect.getsource(search._levson_alphas)
        guard = "if 2 * r * (r - 1) + 1 == q:"
        assert src.count(guard) == 1
        namespace = dict(vars(search))
        exec(src.replace(guard, "if False:"), namespace)
        mutant = namespace["_levson_alphas"]
        assert set(search._levson_alphas(30)) - set(mutant(30)) == {2, 3, 5}
        monkeypatch.setattr(search, "_levson_alphas", mutant)
        assert levson_scan(30).witnesses == []
        monkeypatch.undo()
        assert levson_scan(30).witnesses == [(13, 3, 3), (41, 5, 4)]

    def test_exact_binomial_oracle(self):
        import math

        for p, alpha, n in [(13, 3, 3), (41, 5, 4)]:
            N = alpha * alpha - 1
            lhs = math.comb(N, n - 1 + alpha) % p
            rhs = (-1) ** (n - 1) * math.comb(N, alpha) % p
            assert lhs == rhs

    def test_sign_free_predicate_matches_comb_everywhere(self):
        # at every (alpha, n) with alpha <= 60 and p prime: the scan reports
        # (p, alpha, n) exactly when prod (2j+1) == prod 2(alpha+j) over
        # 0 < j < n, exactly when the math.comb congruence holds; and the
        # binomial ratio is (-1)^(n-1) times the product ratio at every step
        alpha_max = 60
        res = levson_scan(alpha_max)
        scanned = 0
        for alpha in range(2, alpha_max + 1):
            p = 2 * alpha * (alpha - 1) + 1
            if any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
                continue
            scanned += 1
            N = alpha * alpha - 1
            base = math.comb(N, alpha)
            for n in range(2, alpha + 1):
                odd = math.prod(2 * j + 1 for j in range(1, n))
                twice = math.prod(2 * (alpha + j) for j in range(1, n))
                comb = math.comb(N, n - 1 + alpha)
                assert (comb * twice - (-1) ** (n - 1) * base * odd) % p == 0
                congruent = (comb - (-1) ** (n - 1) * base) % p == 0
                assert ((odd - twice) % p == 0) == congruent
                assert ((p, alpha, n) in res.witnesses) == congruent, (p, alpha, n)
        assert res.counts["primes_scanned"] == scanned

    def test_cross_certificate_with_diffset_search(self):
        # the levson primes p = 2 alpha(alpha-1) + 1 are the diffset cases
        # d = (p-1)/2 = alpha(alpha-1); the clique search and the congruence
        # scan share no code, so each guards the other
        alpha_max = 20
        primes = [
            2 * a * (a - 1) + 1 for a in range(2, alpha_max + 1) if is_prime(2 * a * (a - 1) + 1)
        ]
        with_witness = {p for p in primes if diffset_search(p, (p - 1) // 2).witnesses}
        scan_hits = {p for p, _, _ in levson_scan(alpha_max).witnesses}
        assert with_witness == {5, 13, 41}
        assert scan_hits == {13, 41}
        # the one exception: p = 5 has d = 2, which the theorem allows
        assert with_witness - scan_hits == {5}

    @pytest.mark.parametrize("alpha_max", [2, 3, 30, 400])
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_workers_do_not_change_the_result(self, monkeypatch, alpha_max, workers):
        # alpha_max = 2 and 3 have one and two primes, fewer than most worker
        # counts here: the share count is capped by the number of primes
        allow_cpus(monkeypatch, 8)
        want = levson_scan(alpha_max)
        forks = count_forks(monkeypatch)
        assert levson_scan(alpha_max, workers=workers) == want
        assert len(forks) == min(workers, want.counts["primes_scanned"]) - 1
        _assert_no_child_left()

    def test_full_range_on_two_workers(self, monkeypatch):
        allow_cpus(monkeypatch, 2)
        res = levson_scan(3000, workers=2)
        assert res == levson_scan(3000)
        assert res.witnesses == [(13, 3, 3), (41, 5, 4)]
        assert res.counts["primes_scanned"] == 586

    def test_negative_control_children_parts_dropped(self, monkeypatch):
        # alpha = 2, 3, 5 are the first primes' alpha, dealt into shares
        # [2, 5, ...] and [3, ...]: a merge that keeps only this process's
        # share loses the alpha = 3 hit
        allow_cpus(monkeypatch, 2)
        fan_out = search._fan_out
        monkeypatch.setattr(
            search, "_fan_out", lambda fn, items, workers: fan_out(fn, items, workers)[:1]
        )
        assert levson_scan(30, workers=1).witnesses == [(13, 3, 3), (41, 5, 4)]
        assert levson_scan(30, workers=2).witnesses == [(41, 5, 4)]

    def _fail_share(self, monkeypatch, exc, in_child):
        # the share of this process is the one that starts with alpha = 2
        hits = search._levson_hits

        def failing(alphas):
            if (alphas[0] != 2) == in_child:
                raise exc
            return hits(alphas)

        monkeypatch.setattr(search, "_levson_hits", failing)

    def test_failing_child_raises(self, monkeypatch):
        allow_cpus(monkeypatch, 3)
        self._fail_share(monkeypatch, ValueError("share failed"), in_child=True)
        with pytest.raises(RuntimeError, match="exited with status 1"):
            levson_scan(400, workers=3)
        _assert_no_child_left()

    @pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
    def test_failing_own_share_raises_and_reaps(self, monkeypatch, exc):
        # the children are still scanning alpha <= 3000 when this process's
        # share fails at once, so they are killed, not just reaped
        allow_cpus(monkeypatch, 3)
        self._fail_share(monkeypatch, exc("own share failed"), in_child=False)
        with pytest.raises(exc, match="own share failed"):
            levson_scan(3000, workers=3)
        _assert_no_child_left()

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            levson_scan(30, workers=0)

    def test_fan_out_parts_larger_than_a_pipe_buffer(self, monkeypatch):
        # each child's part is several pipe buffers of marshal bytes, and the
        # parts come back in share order
        allow_cpus(monkeypatch, 3)
        items = list(range(30))

        def fn(share):
            return [(x, "y" * 1000) for x in share for _ in range(100)]

        assert search._fan_out(fn, items, 3) == [fn(items[i::3]) for i in range(3)]
        _assert_no_child_left()


# every (p, d) with p <= 61 that problem2_scan accepts with d = alpha(alpha-1)
PROBLEM2_CASES = [
    (p, d)
    for p in range(3, 62)
    if is_prime(p)
    for d in range(2, p - 1)
    if (p - 1) % d == 0 and search._alpha_for(d) is not None
]


def _product_condition_by_factors(A, p):
    """prod_{a' != a} (a - a')^|A| = -1 at every a in A, one power per factor."""
    alpha = len(A)
    return all(math.prod(pow(a - x, alpha, p) for x in A if x != a) % p == p - 1 for a in A)


@functools.lru_cache(maxsize=None)
def _problem2_classes_unquotiented(p, d):
    """The classes of every (alpha-1)-subset beside 0 with the product
    condition.  At 0 the condition reads (prod rest)^alpha = -1, because
    (-1)^(alpha(alpha-1)) = 1, so that cheaper test runs first."""
    alpha = search._alpha_for(d)
    mu = roots_of_unity(p, d)
    roots_of_minus_one = {y for y in range(1, p) if pow(y, alpha, p) == p - 1}
    return sorted(
        {
            canonical_diffset((0,) + rest, p, mu)
            for rest in combinations(range(1, p), alpha - 1)
            if math.prod(rest) % p in roots_of_minus_one
            and _product_condition_by_factors((0,) + rest, p)
        }
    )


def _affine_canonical(A, p):
    """Least sorted image of A under the affine maps that send an ordered
    pair of its elements to (0, 1); every affine orbit's least member
    starts (0, 1), so this is the orbit's least member."""
    return min(
        tuple(sorted((x - a) * pow(b - a, -1, p) % p for x in A))
        for a in A
        for b in A
        if a != b
    )


def _rat2_at_every_element(A, p):
    S = FpSet(p, A)
    return all(rat2_check(S, a) for a in S)


@functools.lru_cache(maxsize=None)
def _problem1_classes_unquotiented(p, alpha_max):
    """The affine classes of every subset of F_p of size 2..alpha_max with
    the rat2 relation at each element."""
    return sorted(
        {
            _affine_canonical(A, p)
            for size in range(2, alpha_max + 1)
            for A in combinations(range(p), size)
            if _rat2_at_every_element(A, p)
        }
    )


PROBLEM1_PRIMES = [3, 5, 7, 11, 13, 17]


class TestProblemScans:
    def test_problem2_f41(self):
        p = 41
        res = problem2_scan(p, 20)
        mu = roots_of_unity(p, 20)
        assert (canonical_diffset((0, 1, 9, 32, 40), p, mu),) in res.witnesses
        # {0, r} u rest with rest a 3-subset above r, for the two coset
        # leaders r = 1 and 3 of mu_20, the squares and the non-squares.
        # At r = 1 every x > 1 may join rest.  At r = 3 an x joins only when
        # x, -x, x - 3 and 3 - x are all non-squares; -1 is a square mod 41,
        # so by Euler's criterion that is x^20 = (x - 3)^20 = -1.
        nonsquare = [pow(x, 20, p) == p - 1 for x in range(p)]
        assert not nonsquare[1] and nonsquare[3] and not nonsquare[p - 1]
        above_3 = sum(nonsquare[x] and nonsquare[x - 3] for x in range(4, p))
        assert above_3 == 9
        assert res.counts["sets_checked"] == math.comb(39, 3) + math.comb(above_3, 3) == 9223

    @pytest.mark.parametrize("p, d", PROBLEM2_CASES)
    def test_problem2_matches_unquotiented_enumeration(self, p, d):
        res = problem2_scan(p, d)
        assert [A for (A,) in res.witnesses] == _problem2_classes_unquotiented(p, d)

    def test_problem2_cases_cover_the_range(self):
        assert len(PROBLEM2_CASES) == 27
        assert (61, 30) in PROBLEM2_CASES
        assert sum(bool(_problem2_classes_unquotiented(p, d)) for p, d in PROBLEM2_CASES) > 10

    @pytest.mark.parametrize("p, d", [(13, 2), (61, 20)])
    def test_problem2_negative_control_one_coset(self, p, d):
        # a class need not meet the coset of 1 once 0 is in it, so keeping
        # only that coset's leader must lose classes
        src = inspect.getsource(search._pinned_classes)
        leaders = "sorted(set(lead[1:]))"
        assert src.count(leaders) == 1
        namespace = dict(vars(search))
        exec(src.replace(leaders, "[1]"), namespace)
        got, _ = namespace["_pinned_classes"](
            p, roots_of_unity(p, d), (search._alpha_for(d),), search.product_condition
        )
        got = [A for (A,) in got]
        want = _problem2_classes_unquotiented(p, d)
        assert set(got) < set(want)

    def test_problem2_negative_control_strict_leader_cut(self):
        # rebuild the enumerator with the leader cut made strict: a rest
        # element may then not share the pinned difference's coset, and the
        # scan must lose the classes that need one
        src = inspect.getsource(search._pinned_classes)
        cut = "lead[p - x + r]) >= r"
        assert src.count(cut) == 1
        namespace = dict(vars(search))
        exec(src.replace(cut, "lead[p - x + r]) > r"), namespace)
        mutant = namespace["_pinned_classes"]
        lost = []
        for p, d in PROBLEM2_CASES:
            alpha = search._alpha_for(d)
            got, _ = mutant(p, roots_of_unity(p, d), (alpha,), search.product_condition)
            want = _problem2_classes_unquotiented(p, d)
            assert {A for (A,) in got} <= set(want), (p, d)
            if len(got) < len(want):
                lost.append((p, d))
        assert len(lost) == 8 and (41, 20) in lost, lost

    def test_problem1_contains_cross(self):
        res = problem1_scan(13, 5)
        cross = canonical_diffset((0, 1, 12, 5, 8), 13, roots_of_unity(13, 12))
        assert (cross,) in res.witnesses

    @pytest.mark.parametrize("p", PROBLEM1_PRIMES)
    def test_problem1_matches_unquotiented_enumeration(self, p):
        res = problem1_scan(p, min(5, p - 1))
        assert [A for (A,) in res.witnesses] == _problem1_classes_unquotiented(p, min(5, p - 1))

    def test_problem1_cases_have_witnesses(self):
        with_classes = [
            p for p in PROBLEM1_PRIMES if _problem1_classes_unquotiented(p, min(5, p - 1))
        ]
        assert with_classes == [5, 7, 13, 17]

    @pytest.mark.parametrize("p", [13, 17])
    def test_problem1_negative_control_half_group(self, p):
        # scalings by mu_((p-1)/2) alone leave affine classes split, so the
        # shared enumeration over that smaller group must list more classes
        half = roots_of_unity(p, (p - 1) // 2)
        got, _ = search._pinned_classes(p, half, range(2, 6), search._rat2_everywhere)
        want = _problem1_classes_unquotiented(p, 5)
        assert len(got) > len(want)

    @pytest.mark.parametrize("p, alpha_max", [(5, 5), (7, 9), (2, 2)])
    def test_problem1_alpha_max_at_least_p_rejected(self, monkeypatch, p, alpha_max):
        # the only set of size p is F_p, where the relation divides by |A| = 0
        def no_scan(*_):
            raise AssertionError("sets were enumerated for a rejected alpha_max")

        monkeypatch.setattr(search, "_pinned_classes", no_scan)
        with pytest.raises(ValueError, match=f"alpha_max={alpha_max} must be below p={p}"):
            problem1_scan(p, alpha_max)

    def test_problem1_no_two_element_sets(self):
        for p in [13, 17]:
            res = problem1_scan(p, 4)
            for (elems,) in res.witnesses:
                assert len(elems) > 2

    def test_problem1_witnesses_reverify(self):
        res = problem1_scan(17, 5)
        for (elems,) in res.witnesses:
            S = FpSet(17, elems)
            assert all(rat2_check(S, a) for a in S)

    def test_product_condition(self):
        from mucrit.search import product_condition

        assert product_condition((0, 1, 9, 32, 40), 41)
        assert not product_condition((0, 1, 9, 32, 39), 41)

    def test_feasibility_bounds(self):
        with pytest.raises(ValueError):
            problem2_scan(97, 6, max_p=64)
        with pytest.raises(ValueError):
            problem1_scan(97, 5, max_p=64)


class TestRunJob:
    def test_dispatch(self):
        from mucrit.search import SearchJob, run_job

        res = run_job(SearchJob(kind="levson", alpha_max=50))
        assert res.kind == "levson"
        res = run_job(SearchJob(kind="sumset", p=13, d=4))
        assert res.witnesses
        with pytest.raises(ValueError):
            run_job(SearchJob(kind="nope"))

    def test_node_budget_reaches_the_search(self):
        from mucrit.search import SearchJob, run_job

        full = run_job(SearchJob(kind="sumset", p=13, d=4))
        n = full.counts["nodes"]
        short = run_job(SearchJob(kind="sumset", p=13, d=4, node_budget=n - 1))
        assert any("budget" in v for v in short.verdicts)
        exact = run_job(SearchJob(kind="sumset", p=13, d=4, node_budget=n))
        assert not any("budget" in v for v in exact.verdicts)
        assert (exact.witnesses, exact.verdicts) == (full.witnesses, full.verdicts)
        tight = run_job(SearchJob(kind="threefold", p=13, d=4, node_budget=1))
        assert any("budget" in v for v in tight.verdicts)
        assert "no three-summand decomposition exists" not in tight.verdicts

    @pytest.mark.parametrize("kind", ["sumset", "threefold"])
    def test_node_budget_below_one_raises(self, kind):
        from mucrit.search import SearchJob, run_job

        with pytest.raises(ValueError, match="node_budget must be at least 1, got 0$"):
            run_job(SearchJob(kind=kind, p=13, d=4, node_budget=0))

    @pytest.mark.parametrize(
        "job",
        [
            dict(kind="sumset", p=13, d=4, max_p=0),
            dict(kind="problem2", p=13, d=6, max_p=0),
        ],
    )
    def test_max_p_zero_is_a_bound(self, job):
        from mucrit.search import SearchJob, run_job

        with pytest.raises(ValueError, match="feasibility bound 0"):
            run_job(SearchJob(**job))


# each search with its witnesses made to fail re-verification: a listed
# class that is no witness (the sumset one shifts B by 1, so that A + B is
# mu_d + 1), or a canonical form that is no member of the class
_UNVERIFIED = {
    "sumset": (
        "A, B = search.sumset_search(13, 4).witnesses[0]\n"
        "B = tuple(sorted((b + 1) % 13 for b in B))\n"
        "search._shift_classes = lambda found, p, mu: {(A, B)}\n"
        "search.sumset_search(13, 4)\n"
    ),
    "diffset": (
        "search.canonical_diffset = lambda A, p, mu: (0, 1, 2)\n"
        "search.diffset_search(13, 6)\n"
    ),
    "problem2": (
        "search.canonical_diffset = lambda A, p, mu: (0, 1, 2)\n"
        "search.problem2_scan(13, 6)\n"
    ),
}


def _run_optimized(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", "from mucrit import search\n" + code],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("kind", sorted(_UNVERIFIED))
def test_reverification_survives_optimize_flag(kind):
    # python -O strips assert statements; the re-verification still raises
    out = _run_optimized(_UNVERIFIED[kind])
    assert out.returncode == 1, out.stderr
    last = out.stderr.rstrip().splitlines()[-1]
    assert last.startswith("AssertionError: witness ") and last.endswith("failed re-verification")
    # the control: -O is in effect, and the search unpatched runs clean
    search_call = _UNVERIFIED[kind].splitlines()[-1]
    assert _run_optimized("assert False\n" + search_call).returncode == 0


# p = 10^12 + 39 is inside the 63-bit cap; one p-bit mask of it is about 125 GB
_LARGE_P = 1_000_000_000_039


def _run_capped(*args):
    """``python *args`` with the child's address space capped at 1 GiB, so a
    p-bit mask at ``_LARGE_P`` ends in ``MemoryError`` rather than paging."""
    resource = pytest.importorskip("resource")
    cap = 1 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, preexec_fn=limit, capture_output=True, text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "d, witnesses", [(6, [[[0, 1, 70003149781], True]]), (2, [[[0, 1], True]])]
)
def test_diffset_at_a_large_prime_fits_in_one_gib(d, witnesses):
    argv = ["search", "diffset", "--p", str(_LARGE_P), "--d", str(d), "--format", "json"]
    out = _run_capped("-m", "mucrit.cli", *argv)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["report"]["witnesses"] == witnesses


@pytest.mark.parametrize("kind", ["sumset", "threefold"])
def test_sumset_out_of_memory_exits_2(kind):
    # --max-p lets p = 10^12 + 39 through, and its p-bit candidate masks do
    # not fit in 1 GiB: one error line, and the exit code of bad input
    argv = ["search", kind, "--p", str(_LARGE_P), "--d", "6", "--max-p", "2000000000000"]
    out = _run_capped("-m", "mucrit.cli", *argv)
    assert out.returncode == 2, out.stderr
    assert out.stderr == "error: out of memory\n"
    assert out.stdout == ""


def test_two_summand_split_at_a_large_prime_fits_in_one_gib():
    code = (
        "from mucrit.fp import FpSet\n"
        "from mucrit.search import decompose_two_summands\n"
        f"p = {_LARGE_P}\n"
        "print(decompose_two_summands(FpSet(p, [0, 1, 2, 3])))\n"
        "print(decompose_two_summands(FpSet(p, [0, 1, 3])))\n"
    )
    out = _run_capped("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "((0, 1), (0, 1, 2))\nNone\n"


def test_criticality_at_a_large_prime_fits_in_one_gib():
    # {0, 1} + {0, -1} = {0, 1, -1} = mu_2 u {0}, with overlap 2: 2 * 2 = 2 + 2
    code = (
        "from mucrit.fp import FpSet\n"
        "from mucrit.hp import criticality\n"
        f"p = {_LARGE_P}\n"
        "rep = criticality(FpSet(p, [0, 1]), FpSet(p, [0, p - 1]), 2)\n"
        "print(rep.critical, rep.overlap, rep.exact)\n"
    )
    out = _run_capped("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "True 2 mu_d_plus_zero\n"

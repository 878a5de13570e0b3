"""Exhaustive desk-scale searches: difference-set representations, sumset
decompositions of root-of-unity subgroups, three-summand reuse, the
binomial-congruence prime scan, and the two classification scans.

Every search is complete within its stated bounds, every emitted witness is
re-verified through the pair-criticality machinery before it is reported, and
results are canonicalized under the documented symmetry group:

* difference sets: translations composed with scalings by mu_d;
* sumset pairs: scalings by mu_d and swapping the summands.  The opposite
  shift (A + t, B - t) also preserves A + B = mu_d; the search uses it to
  run once with 0 in B, but the report does not quotient it: the shifts of
  a pair are separate classes unless a scaling or the swap relates them.
  A scaling maps shifts to shifts, so the expansion canonicalizes each
  class once and skips the shifts whose pair is already in a listed class;
* the rat2 classification: translations with scalings by F_p* = mu_(p-1),
  the affine group; the difference-set form over that larger group.

The two searches on mu_d run on its exponent index (``fp.subgroup_index``):
mu_d = {eta^k : 0 <= k < d}, and a scaling by eta^j is the rotation
k -> k + j of exponents mod d.  The difference-set search's Cayley graph is
circulant in exponents, so one d-bit mask gives every adjacency row.  The
sumset search anchors A at 1 on a least gap between cyclically consecutive
exponents: scaling by the inverse of an element of A that starts such a
gap moves it to 1 and keeps 0 in B, so every orbit is met.  It then keeps,
for each exponent that may still join A, the count of b left with A + b
inside mu_d (forward checking), and cuts a prefix whose domain is too small
to finish A.  Both rules are exact; ``_gap_anchored_summands`` states them.
"""

from __future__ import annotations

import marshal
import math
import os
from bisect import bisect_left
from itertools import combinations, compress
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .fp import FpSet, is_prime, roots_of_unity, sqrt_mod, subgroup_index
from .hp import criticality
from .stepanov import rat2_check
from .symm import minimal_indices, recentering_shift


class SearchBudgetExceeded(Exception):
    """Raised when a scan exceeds its node budget; distinct from 'none exists'."""


class SearchJob(NamedTuple):
    """One search request; ``run_job`` dispatches on ``kind``."""

    kind: str
    p: Optional[int] = None
    d: Optional[int] = None
    alpha_max: Optional[int] = None
    max_p: Optional[int] = None
    node_budget: Optional[int] = None


class SearchResult(NamedTuple):
    kind: str
    p: Optional[int]
    d: Optional[int]
    witnesses: List[tuple]
    counts: Dict[str, int]
    verdicts: Tuple[str, ...]
    violations: Tuple[str, ...]


def _validate_subgroup_order(p: int, d: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if d <= 1 or d >= p - 1 or (p - 1) % d != 0:
        raise ValueError(f"need d | p-1 with 1 < d < p-1, got p={p}, d={d}")


def _alpha_for(d: int) -> Optional[int]:
    """The alpha >= 2 with alpha(alpha-1) = d, or None."""
    a = (1 + math.isqrt(4 * d + 1)) // 2
    return a if a >= 2 and a * (a - 1) == d else None


def _bits(x: int) -> List[int]:
    """The positions of the set bits of x, least first."""
    vals = []
    while x:
        vals.append((x & -x).bit_length() - 1)
        x &= x - 1
    return vals


def _difference_masks(T: Sequence[int], p: int) -> List[int]:
    """For each a = T[i], at index i, the bitmask of {z - a : z in T}: the b
    with a + b in T.  Subtracting a mod p rotates the p-bit mask of T down
    by a."""
    tmask = 0
    for z in T:
        tmask |= 1 << z
    full = (1 << p) - 1
    return [(tmask >> a | tmask << (p - a)) & full for a in T]


# ---------------------------------------------------------------------------
# canonical forms

def canonical_diffset(A: Sequence[int], p: int, mu: FpSet) -> Tuple[int, ...]:
    """Lexicographically least sorted tuple over {c*(A - a) : c in mu, a in A}."""
    best = None
    elems = [x % p for x in A]
    for a0 in elems:
        shifted = [(x - a0) % p for x in elems]
        for c in mu:
            t = tuple(sorted(x * c % p for x in shifted))
            if best is None or t < best:
                best = t
    return best


Pair = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _sorted_pair(A: List[int], B: List[int]) -> Pair:
    """(sorted A, sorted B) as tuples; sorts the two new lists in place."""
    A.sort()
    B.sort()
    return tuple(A), tuple(B)


def _pair_orbit(A: Sequence[int], B: Sequence[int], p: int, mu: FpSet) -> List[Pair]:
    """The pair's class: its images (sorted cA, sorted cB) under each
    scaling c in mu, and their swaps."""
    images = [_sorted_pair([x * c % p for x in A], [x * c % p for x in B]) for c in mu.elems]
    return images + [(b, a) for a, b in images]


def canonical_pair(A: Sequence[int], B: Sequence[int], p: int, mu: FpSet) -> Pair:
    """Least pair over scalings by mu and the swap; no translations."""
    return min(_pair_orbit(A, B, p, mu))


# ---------------------------------------------------------------------------
# difference sets

def diffset_search(p: int, d: int) -> SearchResult:
    """All classes of A with A - A inside mu_d u {0} and |A|(|A|-1) = d.

    Reduces to enumerating cliques in the Cayley graph on mu_d (x ~ y iff
    x - y in mu_d), anchored at the vertex 1, which every scaling class
    contains.  The vertices are the exponents k of eta^k (``subgroup_index``),
    and the graph is circulant in them: eta^k - eta^l = eta^l (eta^(k-l) - 1)
    lies in mu_d exactly when eta^(k-l) - 1 does, since mu_d is closed under
    multiplication.  So row l of the adjacency is the d-bit mask
    D = {j : eta^j - 1 in mu_d} rotated by l, and its part above l, where
    the search extends, is D << l.  Cliques are mapped back to values before
    canonicalization.  Each witness is re-verified as a critical pair and
    flagged when the difference set fills mu_d u {0} exactly.
    """
    _validate_subgroup_order(p, d)
    alpha = _alpha_for(d)
    if alpha is None:
        return SearchResult(
            "diffset", p, d, [], {"nodes": 0},
            ("d is not of the form alpha*(alpha-1); no witness possible",), (),
        )
    _, powers, log = subgroup_index(p, d)
    mu = FpSet(p, powers)
    D = 0
    for j in range(1, d):
        if (powers[j] - 1) % p in log:
            D |= 1 << j
    target = alpha - 1
    nodes = 0
    sols: List[Tuple[int, ...]] = []

    def extend(K: List[int], cand: int) -> None:
        nonlocal nodes
        nodes += 1
        if len(K) == target:
            sols.append(tuple(K))
            return
        need = target - len(K)
        rest = cand
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            # extend upward only: each clique is generated once, sorted
            nxt = cand & D << v
            if nxt.bit_count() < need - 1:
                continue
            extend(K + [v], nxt)

    extend([0], D)

    classes = sorted(
        {canonical_diffset((0,) + tuple(powers[k] for k in K), p, mu) for K in sols}
    )
    witnesses = []
    violations: List[str] = []
    for A in classes:
        S = FpSet(p, A)
        rep = criticality(S, -S, d)  # S + (-S) is the difference set
        assert rep.critical, f"witness {A} failed re-verification"
        exact = rep.exact == "mu_d_plus_zero"
        witnesses.append((A, exact))
        if d not in (2, 6) and (p, d) != (41, 20):
            violations.append(f"unexpected witness {A} at (p={p}, d={d})")
        if exact and d not in (2, 6):
            violations.append(f"exact-equality witness {A} at d={d} not in {{2, 6}}")
    verdicts = ("no witness exists",) if not witnesses else ()
    return SearchResult("diffset", p, d, witnesses, {"nodes": nodes}, verdicts, tuple(violations))


# ---------------------------------------------------------------------------
# sumset decompositions of mu_d

def _gap_anchored_summands(
    diff: Sequence[int], alpha: int, beta: int, spend: Callable[[], None]
) -> Iterator[Tuple[Tuple[int, ...], int]]:
    """The summands A = {eta^k : k in K} of size alpha that the anchored
    sumset search passes to its exact cover, as exponent tuples
    K = (0 = k_0 < k_1 < ...), each with the mask of every b such that
    A + b lies inside mu_d; at least beta such b, since B is among them.

    ``diff[k]`` is the mask of the b with eta^k + b in mu_d, d is
    ``len(diff)``, and ``spend`` is called once per node.  Two exact rules
    prune the enumeration:

    * minimal cyclic gap: exponent 0 starts a least gap of K read
      cyclically mod d.  With g0 = k_1, each later k needs k - last >= g0.
      If need counts k and the elements after it, the need gaps from k on,
      the wrap gap back to d among them, are each >= g0, so
      k + need * g0 <= d.  At k_1 = g0 that reads alpha * k_1 <= d; at the
      last element it bounds the wrap gap d - k below by g0.
    * forward checking: once eta^e joins A, every b in B lies in
      cand & diff[e], so a later exponent e needs |cand & diff[e]| >= beta.
      The domain of such e shrinks with cand, and a prefix is pruned when
      fewer domain elements remain than it still needs."""
    d = len(diff)

    def extend(K: List[int], cand: int, dom: List[int], g0: int):
        spend()
        need = alpha - len(K)
        if not need:
            yield tuple(K), cand
            return
        for i, k in enumerate(dom):
            g = g0 or k  # k_1 fixes the least gap g0
            if k + need * g > d:
                break  # dom is ascending, and the bound grows with k
            nc = cand & diff[k]
            nxt: List[int] = []
            if need > 1:
                later = dom[bisect_left(dom, k + g, i + 1) :]
                nxt = [e for e in later if (nc & diff[e]).bit_count() >= beta]
                if len(nxt) < need - 1:
                    continue
            K.append(k)
            yield from extend(K, nc, nxt, g)
            K.pop()

    root = diff[0]
    dom = [e for e in range(1, d) if (root & diff[e]).bit_count() >= beta]
    yield from extend([0], root, dom, 0)


def sumset_search(
    p: int,
    d: int,
    max_p: int = 128,
    node_budget: int = 50_000_000,
) -> SearchResult:
    """All pairs (A, B) with |A|, |B| > 1 and A + B = mu_d, up to scaling by
    mu_d and swapping.  Witnesses are re-verified as critical pairs with the
    exact sumset, and checked for the even-minimal-index consequence after
    recentering; any size-unbalanced witness is flagged as a violation.

    Every pair has an opposite shift (A + t, B - t) with 0 in B, and then
    A lies in mu_d.  Write A = {eta^k : k in K} on the exponent index
    (``subgroup_index``) and read the gaps between cyclically consecutive
    exponents of K mod d.  Some a in A starts a least gap, and scaling by
    a^-1 rotates K so that a goes to exponent 0 (the element 1); a rotation
    keeps every gap, and the scaling keeps 0 in B.  One search over pairs
    with 0 in B and 0 in K starting a least gap therefore meets every
    orbit.  The search grows K in increasing order and prunes it by that
    gap rule and by forward checking (``_gap_anchored_summands``).
    Representations are unique (|A||B| = d), so completing B is an exact
    cover by the tiles A + b.  The opposite shifts of each pair found are
    then listed with one canonicalization per class (``_shift_classes``),
    and each class is re-verified on bitmasks (``hp.criticality``).

    ``node_budget`` bounds the whole search.  An exceeded budget is reported
    in the verdicts, never conflated with "no decomposition exists"."""
    _validate_subgroup_order(p, d)
    if p > max_p:
        raise ValueError(f"p={p} above the feasibility bound {max_p}; raise max_p to override")
    _, powers, _ = subgroup_index(p, d)
    mu = FpSet(p, powers)
    mumask = mu.mask
    diff = _difference_masks(powers, p)  # indexed by exponent
    splits = [
        (a, d // a)
        for a in range(2, d + 1)
        if d % a == 0 and a <= d // a and d // a > 1
    ]
    found: List[Pair] = []
    nodes = 0

    def spend() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(f"sumset search exceeded {node_budget} nodes")

    def complete(A: Tuple[int, ...], cand: int, beta: int) -> None:
        # cand holds every b with A + b inside mu_d, 0 among them
        tiles = {}
        for b in _bits(cand):
            t = 0
            for a in A:
                t |= 1 << ((a + b) % p)
            tiles[b] = t

        def cover(covered: int, chosen: Tuple[int, ...]) -> None:
            spend()
            if covered == mumask:
                if len(chosen) == beta:
                    found.append((A, tuple(sorted(chosen))))
                return
            if len(chosen) == beta:
                return
            rem = mumask & ~covered
            z = (rem & -rem).bit_length() - 1  # least uncovered element
            # branching on the unique tile through z makes every exact
            # cover reachable along exactly one path; no ordering needed
            for b, t in tiles.items():
                if (t >> z) & 1 and not (t & covered):
                    cover(covered | t, chosen + (b,))

        cover(tiles[0], (0,))

    exhausted = False
    try:
        for alpha, beta in splits:
            for K, cand in _gap_anchored_summands(diff, alpha, beta, spend):
                complete(tuple(powers[k] for k in K), cand, beta)
    except SearchBudgetExceeded:
        exhausted = True

    witnesses = []
    violations: List[str] = []
    sqrt_d = math.isqrt(d)
    for A, B in sorted(_shift_classes(found, p, mu)):
        SA, SB = FpSet(p, A), FpSet(p, B)
        rep = criticality(SA, SB, d)
        assert rep.critical and rep.exact == "mu_d", f"witness {(A, B)} failed re-verification"
        witnesses.append((A, B))
        if not (sqrt_d * sqrt_d == d and len(SA) == sqrt_d and len(SB) == sqrt_d):
            violations.append(f"witness {(A, B)} with |A|={len(SA)}, |B|={len(SB)} != sqrt(d)")
        viol = _recentered_index_violation(SA, SB)
        if viol:
            violations.append(viol)
    verdicts: Tuple[str, ...]
    if exhausted:
        verdicts = ("node budget exhausted; results may be incomplete",)
    elif not witnesses:
        verdicts = ("no decomposition exists",)
    else:
        verdicts = ()
    return SearchResult("sumset", p, d, witnesses, {"nodes": nodes}, verdicts, tuple(violations))


def _shift_classes(found: Sequence[Pair], p: int, mu: FpSet) -> Set[Pair]:
    """The classes of the opposite shifts (A + t, B - t), t in F_p, of the
    found pairs, each canonicalized once.

    A found pair whose class is already listed lies in the shift-and-scaling
    orbit of a pair expanded before it, so all its shifts are listed too.
    Scaling by c sends shift t of (A, B) to shift ct of (cA, cB), so shifts
    related by a scaling, or by a scaling and the swap, share a class.  The
    walk over t records the whole orbit (``_pair_orbit``) of each shift it
    canonicalizes, skips a shift whose sorted pair is already recorded, and
    adds the least member of any other shift's orbit as its class; so each
    class is canonicalized once."""
    classes: Set[Pair] = set()
    seen: Set[Pair] = set()  # every member of the classes listed from shifts
    for A, B in found:
        if canonical_pair(A, B, p, mu) in classes:
            continue
        for t in range(p):
            pair = _sorted_pair([(a + t) % p for a in A], [(b - t) % p for b in B])
            if pair in seen:
                continue
            orbit = _pair_orbit(*pair, p, mu)
            seen.update(orbit)
            classes.add(min(orbit))
    return classes


def _recentered_index_violation(A: FpSet, B: FpSet) -> Optional[str]:
    """After shifting A by -p_1(A)/alpha and B the opposite way, the least
    nonvanishing power-sum index n (and m, when present) must be even.  B
    takes A's shift, not its own: recentered alone, p_1(B) would vanish
    whatever the pair.  A surviving p_1 reads as n = 1."""
    t = recentering_shift(A)
    recentered = [(S, minimal_indices(S)) for S in (A.translate(t), B.translate(-t))]
    if any(n == 1 for _, (n, _) in recentered):
        return f"recentering failed to kill p_1 for {(A.elems, B.elems)}"
    for S, (n, m) in recentered:
        if n % 2 != 0:
            return f"odd minimal index n={n} for recentered {S.elems}"
        if m is not None and m % 2 != 0:
            return f"odd secondary index m={m} for recentered {S.elems}"
    return None


# ---------------------------------------------------------------------------
# generic-target decompositions and the three-summand check

def decompose_two_summands(
    target: FpSet, node_budget: int = 2_000_000
) -> List[Pair]:
    """All (A, B_max) with A + B_max = target, |A|, |B_max| >= 2, B_max
    maximal for its A and normalized to contain 0.  Sums may collide, so this
    is a set cover, not an exact cover; suitable for arbitrary small targets."""
    p = target.p
    T = target.elems
    tmask = target.mask
    if not T:
        return []
    nodes = 0
    out: List[Pair] = []
    diff = _difference_masks(T, p)

    def extend(A: List[int], cand: int, start: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(f"two-summand scan exceeded {node_budget} nodes")
        if len(A) >= 2 and cand & 1:
            covered = 0
            for b in _bits(cand):
                for a in A:
                    covered |= 1 << ((a + b) % p)
            if covered == tmask and cand.bit_count() >= 2:
                out.append((tuple(A), tuple(_bits(cand))))
        for i in range(start, len(T)):
            nc = cand & diff[i]
            if nc.bit_count() < 2:
                continue
            extend(A + [T[i]], nc, i + 1)

    full = (1 << p) - 1
    extend([], full, 0)
    return out


def threefold_check(
    p: int,
    d: int,
    max_p: int = 128,
    node_budget: int = 50_000_000,
) -> SearchResult:
    """Reuses the pair decompositions of mu_d: a triple A+B+C = mu_d would
    force one summand of some witness pair to split further, so each witness
    summand is tested for a second-level decomposition.

    ``node_budget`` bounds the pair search, and each second-level search may
    spend what the pair search left of it.  An exceeded budget in either is
    reported in the verdicts."""
    base = sumset_search(p, d, max_p=max_p, node_budget=node_budget)
    split_budget = node_budget - base.counts["nodes"]
    witnesses = []
    violations = list(base.violations)
    split_exhausted = False
    for A, B in base.witnesses:
        for first, second in ((A, B), (B, A)):
            try:
                splits = decompose_two_summands(FpSet(p, second), split_budget)
            except SearchBudgetExceeded:
                split_exhausted = True
                continue
            if splits:
                trip = (tuple(first),) + splits[0]
                witnesses.append(trip)
                violations.append(f"three-summand decomposition {trip} of mu_{d}")
    if any("budget" in v for v in base.verdicts):
        verdicts: Tuple[str, ...] = base.verdicts
    elif split_exhausted:
        verdicts = ("node budget exhausted in a second-level split; results may be incomplete",)
    elif not witnesses:
        verdicts = ("no three-summand decomposition exists",)
    else:
        verdicts = ()
    return SearchResult(
        "threefold", p, d, witnesses, dict(base.counts), verdicts, tuple(violations)
    )


# ---------------------------------------------------------------------------
# the binomial-congruence prime scan

def _levson_alphas(alpha_max: int) -> List[int]:
    """The alpha in [2, alpha_max] with p = 2 alpha(alpha-1) + 1 prime, from
    a sieve on alpha rather than a primality test per alpha.

    With c = 2 alpha - 1, 2p = c^2 + 1, so an odd prime q divides p exactly
    when c^2 == -1 (mod q).  That needs q == 1 (mod 4), and then c == +-s
    with s = ``sqrt_mod(q - 1, q)``, that is alpha == (1 +- s)(q + 1)/2
    (mod q); p is odd, so q = 2 never divides it.  In each of the two
    classes p grows with alpha, so only the least alpha can have p = q
    itself; every later one has p > q with q | p, and p is composite.
    Crossing out the alpha in those classes for every prime
    q <= isqrt(p_max), except the one with p = q, leaves exactly the alpha
    with p prime, since a composite p has a prime factor q <= isqrt(p).  The
    sieve holds one byte per alpha and one per candidate q."""
    p_max = 2 * alpha_max * (alpha_max - 1) + 1
    root = math.isqrt(p_max)
    composite = bytearray(root + 1)  # odd composites up to root, by Eratosthenes
    keep = bytearray([1]) * (alpha_max + 1)
    keep[:2] = b"\0\0"
    for q in range(3, root + 1, 2):
        if composite[q]:
            continue
        composite[q * q :: 2 * q] = b"\1" * len(range(q * q, root + 1, 2 * q))
        if q % 4 != 1:
            continue
        s = sqrt_mod(q - 1, q)
        half = (q + 1) // 2
        # r is neither 0 nor 1: alpha = 0, 1 give c^2 = 1, not -1 mod q
        for r in ((1 + s) * half % q, (1 - s) * half % q):
            if 2 * r * (r - 1) + 1 == q:
                r += q  # p = q is prime: start at the next alpha in the class
            keep[r::q] = bytes(len(range(r, alpha_max + 1, q)))
    return list(compress(range(alpha_max + 1), keep))


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _fan_out(fn: Callable[[Sequence], list], items: Sequence, workers: int) -> List[list]:
    """``fn`` of each share of ``items``, in share order, with the shares run
    side by side in forked processes.

    ``items`` is dealt round-robin into w = min(workers, ``_usable_cpus()``,
    len(items)) shares, share i being ``items[i::w]`` (a range for a range
    of items).  Share 0 runs in this process and every other
    share in an ``os.fork()`` child, which sends its part back over a pipe as
    ``marshal`` bytes, so a part holds only ints, strings, tuples and lists.
    With w = 1, or no ``os.fork``, nothing is forked; a share whose fork fails
    runs in this process.

    A child always leaves through ``os._exit``: it never returns into the
    caller's stack or flushes the stdio buffers it inherited, and it exits 0
    only once its whole part is written.  Any other exit status raises
    ``RuntimeError``, never a shorter result.  Every child still running is
    killed, and every child reaped, before the call returns or raises, also
    when this process's own share raises.  A child runs only ``fn``, marshal
    and os calls, so ``fn`` must take no lock that another thread of the
    caller may hold."""
    w = min(workers, _usable_cpus(), len(items))
    if w <= 1 or not hasattr(os, "fork"):
        return [fn(items)]
    shares = [items[i::w] for i in range(w)]
    parts: List[list] = [[] for _ in shares]
    local = [0]  # the shares run in this process
    pids: Dict[int, int] = {}  # share -> child not yet reaped
    pipes: Dict[int, int] = {}  # share -> read end of its child's pipe
    try:
        for i in range(1, w):
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(rfd)
                os.close(wfd)
                local.append(i)
                continue
            if pid == 0:
                status = 1
                try:
                    out = memoryview(marshal.dumps(fn(shares[i])))
                    while out:
                        out = out[os.write(wfd, out):]
                    status = 0
                finally:
                    os._exit(status)
            os.close(wfd)
            pids[i], pipes[i] = pid, rfd
        for i in local:
            parts[i] = fn(shares[i])
        for i in list(pids):
            chunks = []
            while chunk := os.read(pipes[i], 1 << 16):
                chunks.append(chunk)
            status = os.waitpid(pids[i], 0)[1]
            del pids[i]
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"worker process for share {i} of {w} exited with status {code}")
            parts[i] = marshal.loads(b"".join(chunks))
    finally:
        for rfd in pipes.values():
            os.close(rfd)
        if pids:
            import signal  # only here, so that importing mucrit loads no signal module

            for pid in pids.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return parts


def _levson_hits(alphas: Sequence[int]) -> List[tuple]:
    """The (p, alpha, n) that ``levson_scan`` reports for the given alpha,
    ascending when the alpha are."""
    hits = []
    for alpha in alphas:
        c = 2 * alpha - 1
        p = (c * c + 1) // 2
        odd = twice = 1
        for a in range(3, c + 1, 2):  # step j: a = 2j + 1, 2(alpha + j) = a + c
            odd = odd * a % p
            twice = twice * (a + c) % p
            if odd == twice:
                hits.append((p, alpha, (a + 1) // 2))
    return hits


def levson_scan(alpha_max: int, workers: int = 1) -> SearchResult:
    """Scan alpha <= alpha_max with p = 2 alpha(alpha-1) + 1 prime, testing
    C(alpha^2-1, n-1+alpha) == (-1)^(n-1) C(alpha^2-1, alpha) mod p for
    1 < n <= alpha.

    With N = alpha^2 - 1, C(N, n-1+alpha) / C(N, alpha) is the product of
    (N-K'+1)/K' over K' = alpha + j, 0 < j < n.  Since 2(N-K'+1) =
    p - 1 - 2j == -(2j+1), each factor is -(2j+1) / (2(alpha+j)), so the
    congruence holds exactly when

        prod_{0<j<n} (2j+1) == prod_{0<j<n} 2(alpha+j)   (mod p),

    the sign (-1)^(n-1) cancelling.  Every factor is a unit (N < p and
    alpha + j <= 2 alpha - 1 < p), so the scan compares two running products
    of plain ints, with no inverse and no reference binomial.  With
    c = 2 alpha - 1 (so 2p = c^2 + 1 and c^2 == -1 mod p) and a = 2j + 1,
    the second factor is 2(alpha + j) = a + c: a step is one addition, two
    multiplications mod p and one comparison, and n = (a + 1)/2 is formed
    only on a hit (``_levson_hits``).  The alpha with p prime come from
    ``_levson_alphas``, and up to ``workers`` processes scan them
    (``_fan_out``).  The merged hits are sorted, so the result is the same
    for every ``workers``."""
    if alpha_max < 2:
        raise ValueError("alpha_max must be >= 2")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    alphas = _levson_alphas(alpha_max)
    hits = sorted(hit for part in _fan_out(_levson_hits, alphas, workers) for hit in part)
    return SearchResult("levson", None, None, hits, {"primes_scanned": len(alphas)}, (), ())


# ---------------------------------------------------------------------------
# classification scans

def product_condition(A: Sequence[int], p: int) -> bool:
    """prod_{a' != a} (a - a')^|A| = -1 mod p at every a in A."""
    alpha = len(A)
    for a in A:
        prod = 1
        for x in A:
            if x != a:
                prod = prod * (a - x) % p
        if pow(prod, alpha, p) != p - 1:
            return False
    return True


def _leader_table(p: int, mu: FpSet) -> List[int]:
    """Index x in F_p* holds the coset leader of x, the least element of
    x*mu; index 0 holds 0."""
    lead = [0] * p
    for x in range(1, p):
        if not lead[x]:
            coset = [x * u % p for u in mu.elems]
            for y in coset:
                lead[y] = x  # the first x met in a coset is its least element
    return lead


def _coset_leaders(p: int, mu: FpSet) -> List[int]:
    """The least element of each coset of mu in F_p*, ascending."""
    return sorted(set(_leader_table(p, mu)[1:]))


def _pinned_classes(
    p: int, mu: FpSet, sizes: Sequence[int], holds: Callable[[Sequence[int], int], bool]
) -> Tuple[List[tuple], int]:
    """The classes under translations and scalings by mu of the A with |A|
    in ``sizes`` and ``holds(A, p)`` (invariant under them), as sorted
    (canonical_diffset,) witnesses, and the number of sets tested.

    Take the pair (a, a') of a member whose difference a' - a has the least
    coset leader r (the least element of its coset r*mu).  Translating a to
    0 and scaling a' - a onto r sends every other element y to x = u(y - a)
    with u in mu, and x >= leader(x) = leader(y - a) >= r with x != r.  So
    every class meets {0, r} u rest with rest above r, and only those sets
    are tested.  Translations and scalings by mu keep the coset of every
    difference, so each difference of that image still has a leader >= r:
    an x whose x, -x, x - r or r - x has a smaller leader never joins rest
    at r, since a set holding it is met at that smaller leader.  With
    mu = F_p* the only leader is 1: the pinned {0, 1} of the affine group."""
    checked = 0
    classes = set()
    lead = _leader_table(p, mu)
    for r in _coset_leaders(p, mu):
        cands = [
            x
            for x in range(r + 1, p)
            if min(lead[x], lead[p - x], lead[x - r], lead[p - x + r]) >= r
        ]
        for size in sizes:
            for rest in combinations(cands, size - 2):
                A = (0, r) + rest
                checked += 1
                if holds(A, p):
                    classes.add(canonical_diffset(A, p, mu))
    witnesses = []
    for A in sorted(classes):
        assert holds(A, p), f"witness {A} failed re-verification"
        witnesses.append((A,))
    return witnesses, checked


def problem2_scan(p: int, d: int, max_p: int = 64) -> SearchResult:
    """All classes of A (size alpha, alpha(alpha-1) = d) satisfying
    ``product_condition``; symmetry group is translations with mu_d
    scalings, as for difference sets.

    Both symmetries preserve the condition: a translation leaves every
    difference alone, and a scaling by u in mu_d multiplies each product by
    u^(alpha(alpha-1)) = u^d = 1 (``_pinned_classes``)."""
    _validate_subgroup_order(p, d)
    if p > max_p:
        raise ValueError(f"p={p} above the feasibility bound {max_p}; raise max_p to override")
    alpha = _alpha_for(d)
    if alpha is None:
        return SearchResult(
            "problem2", p, d, [], {"sets_checked": 0},
            ("d is not of the form alpha*(alpha-1)",), (),
        )
    witnesses, checked = _pinned_classes(p, roots_of_unity(p, d), (alpha,), product_condition)
    verdicts = ("no set satisfies the product condition",) if not witnesses else ()
    return SearchResult("problem2", p, d, witnesses, {"sets_checked": checked}, verdicts, ())


def _rat2_everywhere(A: Sequence[int], p: int) -> bool:
    """The quadratic reciprocal relation (``rat2_check``) at every a in A."""
    S = FpSet(p, A)
    return all(rat2_check(S, a) for a in S)


def problem1_scan(p: int, alpha_max: int, max_p: int = 64) -> SearchResult:
    """All affine classes of A, 2 <= |A| <= alpha_max, satisfying the
    quadratic reciprocal relation at every element; the affine group is
    translations with scalings by F_p* = mu_(p-1) (``_pinned_classes``)."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if p > max_p:
        raise ValueError(f"p={p} above the feasibility bound {max_p}; raise max_p to override")
    if alpha_max >= p:
        # the only set of size p is F_p, where the relation divides by |A| = 0
        raise ValueError(f"alpha_max={alpha_max} must be below p={p}")
    if alpha_max < 2:
        raise ValueError("alpha_max must be >= 2")
    witnesses, checked = _pinned_classes(
        p, roots_of_unity(p, p - 1), range(2, alpha_max + 1), _rat2_everywhere
    )
    verdicts = ("no set satisfies the relation",) if not witnesses else ()
    return SearchResult("problem1", p, None, witnesses, {"sets_checked": checked}, verdicts, ())


def run_job(job: SearchJob, workers: int = 1) -> SearchResult:
    """Run the search that ``job.kind`` names with the job's fields that are
    set; every other argument takes the search's own default.  ``workers``
    goes to the levson scan, the one search that runs in several processes."""
    # built per call, so a search rebound in this module is the one that runs
    search = {
        "diffset": diffset_search,
        "sumset": sumset_search,
        "threefold": threefold_check,
        "levson": levson_scan,
        "problem1": problem1_scan,
        "problem2": problem2_scan,
    }.get(job.kind)
    if search is None:
        raise ValueError(f"unknown job kind {job.kind!r}")
    kwargs = {k: v for k, v in job._asdict().items() if k != "kind" and v is not None}
    if job.kind == "levson":
        kwargs["workers"] = workers
    return search(**kwargs)

"""Workload job lists and the report digest of the mucrit benchmark.

A job is one ``mucrit`` command line, run in-process through
``mucrit.cli.run``.  Every job asks for a JSON report; its digest drops the
fields that may legitimately differ between runs or between correct versions
of the program (see ``digest``).
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import List

WORKLOADS = ("residues", "sumset", "desk")

# p = 97, d = 48 alone takes longer than the rest of the sumset sweep, so the
# sweep stops just below it.
SUMSET_MAX_P = 89
THREEFOLD_MAX_P = 61
DIFFSET_MAX_P = 200
DESK_THREADS = "2"


def subgroup_orders(max_p: int) -> List[tuple]:
    """Every (p, d) with p <= max_p prime and d | p-1, 1 < d < p-1."""
    from mucrit.fp import is_prime

    return [
        (p, d)
        for p in range(2, max_p + 1)
        if is_prime(p)
        for d in range(2, p - 1)
        if (p - 1) % d == 0
    ]


def _search(kind: str, p: int, d: int, threads: str) -> List[str]:
    return ["search", kind, "--p", str(p), "--d", str(d), "--threads", threads]


def jobs(workload: str, seed: int) -> List[List[str]]:
    """The argv of every job of one pass, each ending in ``--format json``."""
    if workload == "residues":
        out = [["verify-residues", "--seed", str(seed)]]
    elif workload == "sumset":
        out = [_search("sumset", p, d, "1") for p, d in subgroup_orders(SUMSET_MAX_P)]
        out += [
            _search("threefold", p, d, "1") for p, d in subgroup_orders(THREEFOLD_MAX_P)
        ]
        random.Random(seed).shuffle(out)
    elif workload == "desk":
        out = [["search", "levson", "--alpha-max", "3000"]]
        out += [_search("diffset", p, d, DESK_THREADS) for p, d in subgroup_orders(DIFFSET_MAX_P)]
        out += [
            ["search", "problem1", "--p", "13", "--alpha-max", "5"],
            ["search", "problem2", "--p", "41", "--d", "20"],
            ["verify-f41"],
            ["verify-identities"],
        ]
        out += [["check", f"lemma{n}"] for n in range(1, 18)]
        out = [
            argv + (["--threads", DESK_THREADS] if "--threads" not in argv else [])
            + ["--seed", str(seed)]
            for argv in out
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [argv + ["--format", "json"] for argv in out]


def job_key(argv: List[str]) -> str:
    """The seed-free name under which a job's expected digest is recorded."""
    out = []
    skip = False
    for tok in argv:
        if skip:
            skip = False
        elif tok == "--seed":
            skip = True
        else:
            out.append(tok)
    return " ".join(out)


def digest(text: str) -> str:
    """SHA-256 of a JSON report without its seed and its search-effort counts.

    The seed is dropped because every report is identical across seeds once
    it is; ``nodes`` and ``sets_checked`` are dropped because an exact pruning
    may lower them.  Counts of checked instances stay in.
    """
    doc = json.loads(text)
    doc.pop("seed", None)
    counts = doc.get("report", {}).get("counts")
    if isinstance(counts, dict):
        counts.pop("nodes", None)
        counts.pop("sets_checked", None)
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def budget_exhausted(text: str) -> bool:
    """True when a report's verdicts name an exhausted node budget."""
    verdicts = json.loads(text).get("report", {}).get("verdicts", ())
    return any("budget" in v for v in verdicts)

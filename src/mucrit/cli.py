"""Command-line front end: the option table, the parse, input checks,
dispatch to the verification bundles and lemma checks (``checks``) and to
the searches (``search.run_job``), and the text/json/csv reports.

Exit codes: 0 all checks passed or search completed clean; 1 a verification
failed or an unexpected witness appeared (the counterexample is serialized in
the report); 2 usage or configuration errors, and running out of memory.

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
from typing import Dict, List, Optional, Tuple

from . import checks
from .fp import MAX_MODULUS_BITS, is_prime
from .residues import FORM_NAMES
from .search import SearchBudgetExceeded, SearchJob, _usable_cpus, run_job

SCHEMA = "mucrit/1"

# the search options a subparser may define; each one set becomes a job field
_JOB_FIELDS = tuple(f for f in SearchJob._fields if f != "kind")


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
    except MemoryError:  # such as the p-bit masks of a sumset search at a large p
        print("error: out of memory", file=sys.stderr)
        return 2


def _numeral(s: str) -> bool:
    """``s`` is a plain decimal numeral; int() alone also reads "1_7", " 3",
    "+3", "05" and non-ASCII digits."""
    try:
        return s.isdecimal() and str(int(s)) == s
    except ValueError:  # past int()'s digit limit
        return False


def _dispatch(ns: SimpleNamespace) -> int:
    if ns.threads is None:
        # read per run, not in the cached parser, so it follows the CPUs allowed now
        ns.threads = _usable_cpus()
    elif ns.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {ns.threads}")
    if ns.out:
        _check_out(ns.out)
    if ns.command == "verify-f41":
        return _emit(ns, "verify-f41", {}, *checks.run_verify_f41())
    if ns.command == "verify-identities":
        return _emit(ns, "verify-identities", {}, *checks.run_verify_identities())
    if ns.command == "verify-residues":
        primes = []
        for x in filter(None, ns.primes.split(",")):
            if not _numeral(x.removeprefix("-")):  # "-5" is read, and named not prime
                raise ValueError(f"--primes entry {x!r} is not an integer")
            primes.append(int(x))
        if not primes:
            raise ValueError("--primes names no prime")
        if ns.instances < 0 or ns.form_instances < 0:
            raise ValueError("--instances and --form-instances must be >= 0")
        if len(primes) * (ns.instances + len(FORM_NAMES) * ns.form_instances) > sys.maxsize:
            raise ValueError(f"--instances and --form-instances make over {sys.maxsize} instances")
        for p in primes:
            if p < 2 or not is_prime(p):
                raise ValueError(f"{p} is not prime")
        params = {
            "primes": primes,
            "instances": ns.instances,
            "form_instances": ns.form_instances,
        }
        ok, report = checks.run_verify_residues(
            ns.seed, primes, ns.instances, ns.form_instances, workers=ns.threads
        )
        return _emit(ns, "verify-residues", params, ok, report)
    if ns.command == "search":
        if getattr(ns, "node_budget", 1) < 1:
            raise ValueError(f"--node-budget must be at least 1, got {ns.node_budget}")
        if ns.kind == "levson":
            a = ns.alpha_max  # the scan's largest p is 2a(a-1)+1
            if (2 * a * (a - 1) + 1).bit_length() > MAX_MODULUS_BITS:
                raise ValueError(f"--alpha-max {a} gives p = 2a(a-1)+1 over {MAX_MODULUS_BITS} bits")
        params = {k: v for k, v in vars(ns).items() if k in _JOB_FIELDS}
        res = run_job(SearchJob(ns.kind, **params), workers=ns.threads)
        # the report is the result's fields as they are: _asdict() is a shallow
        # dict of them, and json.dumps renders each tuple in it as a list
        return _emit(ns, f"search-{ns.kind}", params, not res.violations, res._asdict())
    if ns.command == "check":
        digits = ns.target[5:]
        if ns.target[:5] != "lemma" or not _numeral(digits):
            raise ValueError(f"unknown check target {ns.target!r}")
        num = int(digits)
        if num not in checks.LEMMA_CHECKS:
            raise ValueError(f"no check registered for lemma {num}")
        ok, detail = checks.LEMMA_CHECKS[num](random.Random(ns.seed))
        return _emit(ns, f"check-lemma{num}", {}, ok, detail)
    raise ValueError(f"unknown command {ns.command!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

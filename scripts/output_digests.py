#!/usr/bin/env python3
"""Print one digest line for every benchmark job in every report format, and
for each of a fixed list of help and usage-error command lines.

    python3 scripts/output_digests.py [--workload W ...] [--seed N] [--threads N]

Each job of the benchmark workloads (``perfbench/jobs.py``) runs in-process
through ``mucrit.cli.run`` once per format (json, text, csv), and prints

    sha256(report) sha256(stderr) exit-code effort argv

where the report is stdout less the search-effort counts it holds
(``counts.nodes`` and ``counts.sets_checked``), and effort lists those counts
as ``nodes=N`` (``-`` if it has none).  An exact pruning changes only the
effort field; a changed witness, verdict or message changes a digest.

After the jobs, one more line of the same form follows for each command line
of ``USAGE_ARGVS``: help at every level of the command tree, usage errors,
and valid lines that only argparse parses (an abbreviation, ``--p=13``, a
repeated option, a value that starts with ``-``, ``--``), and ``--out``
paths that cannot be written, so the parse and error paths, and where the
plain parse hands a line to argparse, are compared too.  The ``--out``
paths are relative (one names ``README.md``), so run the script from the
root of a checkout.

Run it in two checkouts and ``diff`` the output: no difference means the two
versions print byte-identical reports, errors and exit codes for every job
and every usage line.  Help text wraps to the terminal's width, so run both
the same way (both into a pipe, say).

With ``--threads N`` every job runs with ``--threads N`` in place of its own
value (or added, where it has none), and the line still shows the job's argv
as ``jobs.py`` lists it; so ``diff`` of the output at ``--threads 1`` and at
``--threads 2`` in one checkout checks that the worker count changes no byte.
The script imports ``mucrit`` from the ``src/`` next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import jobs  # noqa: E402
from mucrit import cli  # noqa: E402

FORMATS = ("json", "text", "csv")

# the search-effort counts of a report: a line of them in text and csv
EFFORT = ("nodes", "sets_checked")
_EFFORT_LINE = re.compile(
    rf'^(?:  |report\.)counts\.({"|".join(EFFORT)})(?: = |,")(\d+)"?\n', re.M
)

# help at every level, the usage errors of the parser and of dispatch,
# valid lines that cli._parse_plain leaves to argparse, and unwritable --out
USAGE_ARGVS = (
    [],
    ["--help"],
    ["search"],
    ["search", "--help"],
    ["verify-f41", "--help"],
    ["verify-identities", "--help"],
    ["verify-residues", "--help"],
    ["check", "--help"],
    ["search", "diffset", "--help"],
    ["search", "sumset", "--help"],
    ["search", "threefold", "--help"],
    ["search", "levson", "-h"],
    ["search", "problem1", "--help"],
    ["search", "problem2", "--help"],
    ["frobnicate"],
    ["search", "frobnicate"],
    ["--format", "json", "verify-f41"],
    ["search", "--p", "13", "sumset", "--d", "4"],
    ["search", "sumset", "--d", "4"],
    ["search", "sumset", "--p", "x", "--d", "4"],
    ["search", "sumset", "--p", "13", "--d", "4", "--bogus"],
    ["verify-f41", "extra"],
    ["verify-f41", "--format", "xml"],
    ["check"],
    ["check", "lemma1", "extra"],
    ["check", "lemma99"],
    ["search", "levson", "--alpha-max", "10", "--threads", "0"],
    ["search", "sumset", "--p", "13", "--d", "4", "--thr", "1"],
    ["search", "sumset", "--p=13", "--d", "4"],
    ["search", "sumset", "--p", "17", "--d", "4", "--p", "13"],
    ["search", "sumset", "--p", "-5", "--d", "4"],
    ["check", "--", "lemma3"],
    ["check", "lemma1_7"],
    ["check", "lemma+3"],
    ["check", "lemma 3"],
    ["check", "lemma05"],
    ["check", "lemma\u0663"],
    ["verify-residues", "--primes", "1,x"],
    ["verify-residues", "--primes", "4_1, 97"],
    ["verify-residues", "--primes", "\u0664\u0661"],
    ["verify-residues", "--primes", "9223372036854775837"],
    ["verify-residues", "--instances", "0", "--form-instances", "0"],
    ["search", "sumset", "--p", "13", "--d", "4", "--node-budget", "0"],
    # an --out that cannot be written (cli._check_out): no such directory,
    # a directory, a parent that is a file
    ["search", "sumset", "--p", "13", "--d", "4", "--out", "no-such-dir/r.json"],
    ["search", "sumset", "--p", "13", "--d", "4", "--out", "."],
    ["search", "sumset", "--p", "13", "--d", "4", "--out", "README.md/x"],
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _split_effort(text: str) -> Tuple[str, str]:
    """``text``, the stdout of a run, without the effort counts of its
    report, and those counts as ``name=N,...`` (``-`` if it has none)."""
    if text[:1] == "{":  # a json report
        doc = json.loads(text)
        counts = doc["report"].get("counts", {})
        effort = [(key, counts.pop(key)) for key in EFFORT if key in counts]
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        effort = _EFFORT_LINE.findall(text)
        text = _EFFORT_LINE.sub("", text)
    return text, ",".join(f"{key}={n}" for key, n in effort) or "-"


def _digest_line(argv: List[str], shown: List[str]) -> str:
    """Run ``argv`` in-process and return its digest line, showing ``shown``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    report, effort = _split_effort(out.getvalue())
    return f"{_sha(report)} {_sha(err.getvalue())} {code} {effort} {' '.join(shown)}"


def _with_threads(argv: List[str], threads: int) -> List[str]:
    """``argv`` with ``--threads threads`` in place of its own value, or
    added before its ``--format`` where it has none."""
    if "--threads" in argv:
        i = argv.index("--threads")
        return argv[: i + 1] + [str(threads)] + argv[i + 2 :]
    return argv[:-2] + ["--threads", str(threads)] + argv[-2:]


def digest_lines(workload: str, seed: int, threads: Optional[int] = None) -> Iterator[str]:
    """The digest line of every job of one workload pass, in each format;
    with ``threads``, each job runs at that ``--threads`` value."""
    for argv in jobs.jobs(workload, seed):
        assert argv[-2:] == ["--format", "json"], argv
        for fmt in FORMATS:
            full = argv[:-1] + [fmt]
            run = full if threads is None else _with_threads(full, threads)
            yield _digest_line(run, full)


def usage_lines() -> Iterator[str]:
    """The digest line of every command line of ``USAGE_ARGVS``."""
    for argv in USAGE_ARGVS:
        yield _digest_line(list(argv), argv)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument(
        "--workload", action="append", choices=jobs.WORKLOADS,
        help="repeat to pick several; default: every workload",
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--threads", type=int, default=None,
        help="run every job at this --threads value; default: each job's own",
    )
    args = ap.parse_args()
    for workload in args.workload or jobs.WORKLOADS:
        for line in digest_lines(workload, args.seed, args.threads):
            print(line)
    for line in usage_lines():
        print(line)


if __name__ == "__main__":
    main()

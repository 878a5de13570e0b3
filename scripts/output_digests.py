#!/usr/bin/env python3
"""Print one digest line for every benchmark job in every report format.

    python3 scripts/output_digests.py [--workload W ...] [--seed N] [--threads N]

Each job of the benchmark workloads (``perfbench/jobs.py``) runs in-process
through ``mucrit.cli.run`` once per format (json, text, csv), and prints

    sha256(stdout) sha256(stderr) exit-code argv

Run it in two checkouts and ``diff`` the output: no difference means the two
versions print byte-identical reports, errors and exit codes for every job.
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
import sys
from pathlib import Path
from typing import Iterator, List, Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import jobs  # noqa: E402
from mucrit import cli  # noqa: E402

FORMATS = ("json", "text", "csv")


def _sha(buf: io.StringIO) -> str:
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


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
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(run)
            yield f"{_sha(out)} {_sha(err)} {code} {' '.join(full)}"


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


if __name__ == "__main__":
    main()

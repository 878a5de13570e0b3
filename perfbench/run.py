"""Benchmark of the mucrit command line, run in-process.

    python3 perfbench/run.py --workload {residues,sumset,desk} --seed N \
        --seconds S --trace {0,1}

Run from the root of a mucrit checkout.  Each pass runs every job of the
workload (see ``jobs.py``) through ``mucrit.cli.run`` and checks each JSON
report against the exit code and digest recorded in ``expected.json``.  A
job fails if it raises, if its exit code or digest differs from the recorded
one, or if a verdict names an exhausted node budget.  Passes repeat until
``--seconds`` have gone by, and at least ``MIN_PASSES`` are made.

With ``--trace 0`` the last line reports the end-to-end metrics:

- ``wall_ref``: the median wall time of a pass, divided by the median time
  of ``reference_loop``, which runs between jobs throughout the passes.  The
  speed of a shared machine drifts by a fifth or more over minutes, for the
  benchmark's code as much as for mucrit's; the ratio cancels part of that
  drift, which the raw seconds keep.
- ``setup_s``: the median time for a fresh interpreter to import
  ``mucrit.cli`` and build the job list, not counting interpreter start-up.
- ``peak_rss_mib``: the peak RSS of this process after the passes.

The line before it gives each pass's wall seconds, the median reference
time and the fail ratio.  With
``--trace 1`` one more pass runs under the tracer (``tracer.py``); the
last line reports the per-layer metrics, and the spans are written to
``perfbench/out/``.  The traced pass must reproduce every digest, and every
metric that ``PREDICTED_NONZERO`` names must read non-zero.

``--record`` rewrites ``expected.json`` from one pass of each workload;
``--negative-control`` corrupts one expected digest, so the run must report
failures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
OUT = HERE / "out"

MIN_PASSES = 3
REF_ITERATIONS = 60_000
REF_EVERY_S = 0.5
SETUP_REPEATS = 15

# Per-layer metrics that must read non-zero on each workload: the layers
# whose speed should move that workload's wall time.  A name stands for
# itself and for every metric below it.
PREDICTED_NONZERO = {
    "residues": (
        "poly.FpPoly", "poly.taylor_at", "poly.poly_gcd", "poly.from_roots",
        "poly.TruncatedSeries", "poly.self_s", "residues", "cli.self_s",
    ),
    "sumset": (
        "search.sumset_search", "search.nodes", "search.canonical_pair", "hp.criticality",
    ),
    "desk": (
        "fp.is_prime", "fp.inverse_table", "search.levson_scan", "search.diffset_search",
        "search.canonical_diffset", "qalg", "stepanov", "symm", "cli.self_s",
    ),
}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import mucrit.cli, jobs
jobs.jobs(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - t0)
"""


def reference_loop() -> int:
    """Fixed pure-Python work that calls no mucrit code: integer arithmetic
    and dict updates, as mucrit's own loops do."""
    table = {}
    acc = 0
    for i in range(REF_ITERATIONS):
        key, low = (i * 7919) % 4093, i & 255
        table[key] = table.get(key, 0) + low
        acc = (acc * 31 + key * key) % 1000003
    return acc + len(table)


def time_reference() -> float:
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


def run_pass(job_list, tracer=None):
    """Run every job once.  Return each job's wall seconds, its exit code and
    stdout, and the times of the reference loop, which runs before the first
    job, after the last, and between jobs once ``REF_EVERY_S`` has passed."""
    from mucrit import cli

    times, outputs, refs = [], [], [time_reference()]
    last_ref = perf_counter()
    for i, argv in enumerate(job_list):
        if perf_counter() - last_ref > REF_EVERY_S:
            refs.append(time_reference())
            last_ref = perf_counter()
        if tracer is not None:
            tracer.job = i + 1
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.run(argv)
        except Exception:
            traceback.print_exc()
            code = None
        times.append(perf_counter() - t0)
        outputs.append((code, buf.getvalue()))
    refs.append(time_reference())
    return times, outputs, refs


def failures(job_list, outputs, expected):
    """Number of jobs whose outcome differs from the recorded one."""
    failed = 0
    for argv, (code, text) in zip(job_list, outputs):
        want = expected.get(jobs.job_key(argv))
        try:
            ok = (
                want is not None
                and code == want["exit"]
                and jobs.digest(text) == want["sha256"]
                and not jobs.budget_exhausted(text)
            )
        except ValueError:  # the report is not JSON
            ok = False
        if not ok:
            failed += 1
            print(f"FAILED: {' '.join(argv)} (exit {code})", file=sys.stderr)
    return failed


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds for a fresh interpreter to import mucrit.cli and build
    the job list."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(HERE), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def timed_passes(job_list, expected, seconds: float):
    """Untraced passes for ``seconds``.  Return the wall seconds of each pass,
    the times of the reference loop, and attempted and failed job counts."""
    walls, refs, attempted, failed = [], [], 0, 0
    start = perf_counter()
    while len(walls) < MIN_PASSES or perf_counter() - start < seconds:
        times, outputs, pass_refs = run_pass(job_list)
        walls.append(sum(times))
        refs += pass_refs
        attempted += len(job_list)
        failed += failures(job_list, outputs, expected)
    return walls, refs, attempted, failed


def traced_pass(job_list, expected, workload: str, seed: int, untraced_wall: float):
    """One traced pass; return the per-layer metrics, failures and whether
    the coverage check passed."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        times, outputs, _ = run_pass(job_list, tracer)
    finally:
        tracer.restore()
    failed = failures(job_list, outputs, expected)
    values = tracer.metrics(sum(times) - untraced_wall)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(str(OUT / f"spans-{workload}-{seed}"))
    missed = [
        name
        for name, value in values.items()
        for prefix in PREDICTED_NONZERO[workload]
        if (name == prefix or name.startswith(prefix + ".")) and not value
    ]
    for name in missed:
        print(f"COVERAGE: {name} reads 0 on {workload}", file=sys.stderr)
    return values, failed, not missed


def record() -> None:
    """Write the exit code and digest of every job of every workload."""
    expected = {}
    for workload in jobs.WORKLOADS:
        job_list = jobs.jobs(workload, 0)
        _, outputs, _ = run_pass(job_list)
        for argv, (code, text) in zip(job_list, outputs):
            expected[jobs.job_key(argv)] = {"exit": code, "sha256": jobs.digest(text)}
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--negative-control", action="store_true")
    args = ap.parse_args()
    if not (SRC / "mucrit" / "cli.py").is_file():
        print(f"error: no mucrit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        record()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads(EXPECTED.read_text())
    job_list = jobs.jobs(args.workload, args.seed)
    if args.negative_control:
        expected[jobs.job_key(job_list[0])]["sha256"] = "0" * 64

    walls, refs, attempted, failed = timed_passes(job_list, expected, args.seconds)
    wall_s = statistics.median(walls)
    covered = True
    if args.trace:
        values, traced_failed, covered = traced_pass(
            job_list, expected, args.workload, args.seed, wall_s
        )
        attempted += len(job_list)
        failed += traced_failed
        spec = bench["per_layer"]
    else:
        values = {
            "wall_ref": wall_s / statistics.median(refs),
            "setup_s": measure_setup(args.workload, args.seed),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        spec = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    print(
        f"workload={args.workload} seed={args.seed} passes={len(walls)} "
        f"pass_s={[round(w, 4) for w in walls]} ref_s={statistics.median(refs):.6f} "
        f"attempted={attempted} failed={failed} fail_ratio={failed / attempted:.6g}"
    )
    result = {
        "correct": failed == 0 and covered,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

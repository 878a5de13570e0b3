"""The desk scripts under scripts/ run to completion and flag nothing, and
the digest script tells apart exactly the jobs whose output changed and
prints the same lines at any --threads value."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mucrit import cli

from conftest import allow_cpus, count_forks

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["f41_demo.py"],
        ["theorem_sweeps.py", "--diffset-max-p", "41", "--sumset-max-p", "41"],
    ],
)
def test_script_runs_clean(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout
    assert not [line for line in out.stdout.splitlines() if "!!" in line]


def _load_output_digests():
    path = ROOT / "scripts" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_output_digests_change_only_for_the_changed_job(monkeypatch):
    digests = _load_output_digests()
    first = list(digests.digest_lines("desk", 0))
    assert len(first) == 3 * len(digests.jobs.jobs("desk", 0))
    assert list(digests.digest_lines("desk", 0)) == first

    monkeypatch.setitem(cli.LEMMA_CHECKS, 1, lambda rng: (False, {"forced": True}))
    patched = list(digests.digest_lines("desk", 0))
    assert len(patched) == len(first)
    changed = [new for old, new in zip(first, patched) if old != new]
    argvs = [line.split(" ", 3)[3] for line in changed]
    assert [a.rsplit(" --format ", 1)[1] for a in argvs] == ["json", "text", "csv"]
    assert all(a.startswith("check lemma1 ") for a in argvs)
    assert all(line.split(" ")[2] == "1" for line in changed)


def test_output_digests_same_at_one_and_two_threads(monkeypatch):
    # with two usable CPUs, whatever the machine has, --threads 2 forks one
    # worker for the levson job and none for any other job
    digests = _load_output_digests()
    allow_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    one = list(digests.digest_lines("desk", 0, threads=1))
    assert forks == []
    two = list(digests.digest_lines("desk", 0, threads=2))
    assert len(forks) == len(digests.FORMATS)
    assert one == two
    assert one == list(digests.digest_lines("desk", 0))


def test_output_digests_threads_replaced_or_added():
    digests = _load_output_digests()
    assert digests._with_threads(
        ["search", "levson", "--threads", "2", "--seed", "0", "--format", "csv"], 7
    ) == ["search", "levson", "--threads", "7", "--seed", "0", "--format", "csv"]
    assert digests._with_threads(["verify-residues", "--seed", "0", "--format", "json"], 7) == [
        "verify-residues", "--seed", "0", "--threads", "7", "--format", "json"
    ]

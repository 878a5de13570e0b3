"""The desk scripts under scripts/ run to completion and flag nothing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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

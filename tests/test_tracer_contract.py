"""Every metric that perfbench/tracer.py reports or counts names a callable
that still exists in the package, so ``run.py --trace 1`` can bind it; and a
reduced ``verify-residues`` still reaches every metric that ``run.py``
predicts non-zero on the ``residues`` workload."""

import ast
import contextlib
import importlib
import io
import types
from pathlib import Path

from mucrit import cli

ROOT = Path(__file__).resolve().parents[1]


def load_tracer():
    """perfbench/tracer.py executed from its source, writing nothing."""
    path = ROOT / "perfbench" / "tracer.py"
    mod = types.ModuleType("perfbench_tracer")
    mod.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    return mod


def unbound_metrics(tracer):
    """Names in REPORTED and COUNTED that ``Tracer()._targets()`` lacks."""
    targets = tracer.Tracer()._targets()
    names = [
        f"{layer}.{name}"
        for table in (tracer.REPORTED, tracer.COUNTED)
        for layer, quals in table.items()
        for name in quals
    ]
    return [n for n in names if n not in targets]


def test_tracer_binds_every_reported_and_counted_name(monkeypatch):
    tracer = load_tracer()
    assert unbound_metrics(tracer) == []
    # negative control: a reported function that is gone is caught
    layer, name = next(
        (layer, n) for layer, names in tracer.REPORTED.items() for n in names if "." not in n
    )
    monkeypatch.delattr(importlib.import_module(f"mucrit.{layer}"), name)
    assert unbound_metrics(tracer) == [f"{layer}.{name}"]


def predicted_nonzero():
    """``PREDICTED_NONZERO`` from perfbench/run.py, read with ``ast``: the
    module imports ``jobs`` at load time."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "PREDICTED_NONZERO" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no PREDICTED_NONZERO")


def residues_metrics_at_zero(*args, exit_code=0):
    """The metrics under ``PREDICTED_NONZERO["residues"]`` that read 0 when
    ``verify-residues`` runs with ``args`` under the tracer and exits with
    ``exit_code``, as run.py's coverage check names them."""
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(["verify-residues", *args, "--format", "json"])
    finally:
        tracer.restore()
    assert code == exit_code
    prefixes = predicted_nonzero()["residues"]
    return [
        name
        for name, value in tracer.metrics(0.0).items()
        for prefix in prefixes
        if (name == prefix or name.startswith(prefix + ".")) and not value
    ]


def test_reduced_verify_residues_reaches_every_predicted_metric():
    # 20 random forms and 2 instances of each named form per prime reach
    # every metric, FpPoly.divmod included (10 and 1 miss it); the tracer
    # sees only the calling process, so every instance is checked in it
    assert residues_metrics_at_zero(
        "--instances", "20", "--form-instances", "2", "--threads", "1"
    ) == []
    # negative control: with nothing sampled (a line refused at exit 2) the
    # series constructor goes unreached
    assert "poly.TruncatedSeries.init.calls" in residues_metrics_at_zero(
        "--instances", "0", "--form-instances", "0", "--threads", "1", exit_code=2
    )

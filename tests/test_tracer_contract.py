"""Every metric that perfbench/tracer.py reports or counts names a callable
that still exists in the package, so ``run.py --trace 1`` can bind it."""

import importlib
import types
from pathlib import Path

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

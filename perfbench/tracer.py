"""Span tracer that instruments mucrit from outside the package.

``Tracer.install`` replaces every public module-level function of each layer,
and the listed methods and constructors, with a wrapper.  A wrapper is bound
on its class, or in every ``mucrit`` namespace that holds the original, so a
name imported with ``from .fp import is_prime`` is traced too.
``Tracer.restore`` puts the originals back.

Span wrappers record one span per call: name, job id, parent span, start and
end.  Spans stay in per-thread buffers in memory until ``write_spans``.  Self
time is a span's duration minus the durations of its child spans in the same
thread.  Counting wrappers, used for constructors and ``inverse_mod``, only
count calls, because a span would cost more than the call it measures.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional

LAYERS = ("fp", "poly", "symm", "hp", "residues", "qalg", "stepanov", "search", "cli")

# Functions whose calls and self time are reported.  Every other public
# function is traced as well, and its self time counts towards its layer.
REPORTED = {
    "fp": ("is_prime", "binom_mod", "batch_inverse_ints", "inverse_table", "roots_of_unity"),
    "poly": (
        "FpPoly.mul", "FpPoly.divmod", "FpPoly.synth_div", "taylor_at", "poly_gcd",
        "from_roots", "log_derivative_series",
    ),
    "symm": ("power_sums_int", "minimal_indices", "complete_homogeneous"),
    "hp": ("criticality", "factorization_check", "hp_coeffs", "hp_polynomial"),
    "residues": (
        "sum_residues_check", "rational_root_part", "residue_at", "residue_at_infinity",
        "lemma_form_identity", "named_form",
    ),
    "qalg": ("QPoly.mul",),
    "stepanov": ("identity_catalog_run_all", "lemma13_symbolic", "alpha11_obstruction", "rat2_check"),
    "search": (
        "diffset_search", "sumset_search", "threefold_check", "decompose_two_summands",
        "levson_scan", "problem1_scan", "problem2_scan", "canonical_pair", "canonical_diffset",
    ),
    "cli": ("run",),
}

# Callables whose calls alone are counted.
COUNTED = {
    "fp": ("FieldElem.init", "FpSet.init", "inverse_mod"),
    "poly": ("FpPoly.init", "TruncatedSeries.init"),
    "qalg": ("QPoly.init",),
}

_DUNDER = {"mul": "__mul__", "init": "__init__"}


def _sumset_result(tallies: Counter, res) -> None:
    tallies["sumset_nodes"] += res.counts.get("nodes", 0)
    tallies["sumset_classes"] += len(res.witnesses)
    tallies["budget_exhausted"] += any("budget" in v for v in res.verdicts)


def _diffset_result(tallies: Counter, res) -> None:
    tallies["diffset_nodes"] += res.counts.get("nodes", 0)


_RESULT_HOOKS = {"search.sumset_search": _sumset_result, "search.diffset_search": _diffset_result}


class _ThreadBuffer:
    """Spans, call counts and self times recorded by one thread."""

    def __init__(self, n_names: int):
        self.name = array("i")
        self.job = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[list] = []  # [span index, seconds covered by children]
        self.calls = [0] * n_names
        self.self_s = [0.0] * n_names
        self.tallies: Counter = Counter()


class Tracer:
    def __init__(self) -> None:
        self.job = 0  # id shared by every span of the job being run
        self.names: List[str] = []
        self._local = threading.local()
        self._buffers: List[_ThreadBuffer] = []
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        buf = _ThreadBuffer(len(self.names))
        self._local.buf = buf
        self._buffers.append(buf)
        return buf

    def _span_wrapper(self, fn: Callable, nid: int, on_result: Optional[Callable]) -> Callable:
        local, new_buffer, tracer = self._local, self._buffer, self

        def traced(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = new_buffer()
            stack = buf.stack
            frame = [len(buf.start), 0.0]
            buf.name.append(nid)
            buf.job.append(tracer.job)
            buf.parent.append(stack[-1][0] if stack else -1)
            buf.end.append(0.0)
            stack.append(frame)
            t0 = perf_counter()
            buf.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                buf.end[frame[0]] = t1
                dur = t1 - t0
                buf.calls[nid] += 1
                buf.self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if on_result is not None:
                on_result(buf.tallies, result)
            return result

        return traced

    def _count_wrapper(self, fn: Callable, nid: int) -> Callable:
        local, new_buffer = self._local, self._buffer

        def counted(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = new_buffer()
            buf.calls[nid] += 1
            return fn(*args, **kwargs)

        return counted

    # -- binding -----------------------------------------------------------

    def _targets(self) -> Dict[str, tuple]:
        """metric name -> (module or class, original, is_span)."""
        out = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"mucrit.{layer}")
            counted = set(COUNTED.get(layer, ()))
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                out[f"{layer}.{attr}"] = (mod, obj, attr not in counted)
            for qual in REPORTED.get(layer, ()) + COUNTED.get(layer, ()):
                if "." not in qual:
                    continue
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[_DUNDER.get(meth, meth)]
                out[f"{layer}.{qual}"] = (cls, orig, qual not in counted)
        return out

    def install(self) -> None:
        """Wrap every target; the package must already be imported."""
        targets = self._targets()
        self.names = list(targets)
        namespaces = [m for n, m in sys.modules.items() if n == "mucrit" or n.startswith("mucrit.")]
        for nid, (name, (owner, orig, is_span)) in enumerate(targets.items()):
            if is_span:
                wrapper = self._span_wrapper(orig, nid, _RESULT_HOOKS.get(name))
            else:
                wrapper = self._count_wrapper(orig, nid)
            holders = [owner] if isinstance(owner, type) else namespaces
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        self._patches.append((holder, key, orig))
                        setattr(holder, key, wrapper)

    def restore(self) -> None:
        for holder, key, orig in reversed(self._patches):
            setattr(holder, key, orig)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, overhead_s: float) -> Dict[str, float]:
        """Per-layer metrics aggregated over every thread's buffer."""
        n = len(self.names)
        calls = [0] * n
        self_s = [0.0] * n
        tallies: Counter = Counter()
        for buf in self._buffers:
            for i in range(n):
                calls[i] += buf.calls[i]
                self_s[i] += buf.self_s[i]
            tallies.update(buf.tallies)
        idx = {name: i for i, name in enumerate(self.names)}
        out: Dict[str, float] = {}
        for layer in LAYERS:
            for f in REPORTED.get(layer, ()):
                i = idx[f"{layer}.{f}"]
                out[f"{layer}.{f}.calls"] = calls[i]
                out[f"{layer}.{f}.self_s"] = self_s[i]
            for f in COUNTED.get(layer, ()):
                out[f"{layer}.{f}.calls"] = calls[idx[f"{layer}.{f}"]]
            out[f"{layer}.self_s"] = sum(
                t for name, t in zip(self.names, self_s) if name.split(".", 1)[0] == layer
            )

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out["search.nodes"] = tallies["sumset_nodes"] + tallies["diffset_nodes"]
        out["search.sumset_search.nodes_per_s"] = ratio(
            tallies["sumset_nodes"], out["search.sumset_search.self_s"]
        )
        out["search.diffset_search.nodes_per_s"] = ratio(
            tallies["diffset_nodes"], out["search.diffset_search.self_s"]
        )
        out["search.canonical_pair.calls_per_class"] = ratio(
            out["search.canonical_pair.calls"], tallies["sumset_classes"]
        )
        out["search.budget_exhausted"] = tallies["budget_exhausted"]
        out["trace.overhead_s"] = overhead_s
        return out

    def write_spans(self, prefix: str) -> None:
        """Write every span: ``<prefix>.json`` describes ``<prefix>.bin``.

        The binary file holds one block per thread; a block is the five
        field arrays of that thread's spans, one after the other.  ``parent``
        indexes the same thread's spans, -1 for none; times are
        ``time.perf_counter`` seconds.
        """
        fields = (("name", "i"), ("job", "i"), ("parent", "q"), ("start", "d"), ("end", "d"))
        with open(prefix + ".bin", "wb") as fh:
            for buf in self._buffers:
                for field, _ in fields:
                    getattr(buf, field).tofile(fh)
        header = {
            "names": self.names,
            "fields": [list(f) for f in fields],
            "threads": [len(buf.start) for buf in self._buffers],
            "byteorder": sys.byteorder,
        }
        with open(prefix + ".json", "w") as fh:
            json.dump(header, fh)

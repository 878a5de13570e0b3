"""The result records: their contract as NamedTuples, the plain ints in
[0, p) that every API edge returns and the integers it accepts, the JSON
reports built from them, what importing the package and the CLI loads, and
what each command loads when it runs."""

import ast
import hashlib
import importlib
import json
import subprocess
import sys
from pathlib import Path
from typing import List

import pytest

import mucrit
from mucrit import cli
from mucrit.fp import FpSet, binom_mod
from mucrit.hp import (
    criticality, factorization_check, fractional_transform, hp_coeffs, lemma9_check,
    reciprocal_set, relation_x, relation_y, vandermonde_solve,
)
from mucrit.poly import FpPoly, TruncatedSeries, log_derivative_series, taylor_at
from mucrit.residues import (
    FormIdentityReport, RationalForm, lemma_form_identity, named_form, residue_at,
    residue_at_infinity, sum_residues_check,
)
from mucrit.search import sumset_search
from mucrit.stepanov import (
    alpha11_obstruction, lemma5_lemma6_numeric, lemma13_symbolic, rat2_check, rat3_check,
)
from mucrit.symm import complete_homogeneous

from conftest import LEAF_ARGVS

SRC = Path(__file__).resolve().parents[1] / "src"

F41 = FpSet(41, [0, 1, 9, 32, 40])
# A + B = mu_4 over F_13
PAIR_A = FpSet(13, [3, 10])
PAIR_B = FpSet(13, [2, 11])
B97 = FpSet(97, [5, 13, 40])


def _residue_check():
    return sum_residues_check(named_form("omega20", None, B97, 2))


# record name -> (a function that makes one instance, its fields in declaration order)
RECORDS = {
    "CriticalityReport": (
        lambda: criticality(F41, -F41, 20),
        ("A", "B", "d", "sumset_ok", "overlap", "critical", "epsilon", "exact"),
    ),
    "FactorizationResult": (
        lambda: factorization_check(F41, -F41, 20), ("C", "ok", "hp", "product")
    ),
    "Lemma9Report": (
        lambda: lemma9_check(PAIR_A, PAIR_B, 2),
        (
            "b", "sign", "identity_ok", "coeff_relation_ok", "c0", "c0_binomial_ok",
            "c0_product_ok", "c_inf",
        ),
    ),
    "ResidueTable": (
        lambda: _residue_check().table, ("form", "finite", "at_infinity", "total")
    ),
    "ResidueCheck": (_residue_check, ("status", "table")),
    "FormIdentityReport": (
        lambda: lemma_form_identity("omega20", None, B97, 2),
        (
            "which", "k", "mode", "ok", "residues_match_series", "total_zero", "lhs", "rhs",
            "hypothesis_failures",
        ),
    ),
    "SearchResult": (
        lambda: sumset_search(13, 4),
        ("kind", "p", "d", "witnesses", "counts", "verdicts", "violations"),
    ),
    "Alpha11Report": (
        alpha11_obstruction,
        (
            "printed_poly_annihilated", "printed_d_value", "kernel_poly_annihilated",
            "coefficient_display_ok", "coefficient_factorizations_ok",
            "fpp_square_identity_ok", "fpf3_identity_ok", "square_reduction_ok",
            "linear_reduction_ok", "product_reduction_ok", "final_reduction_ok",
            "xi5_value", "derived_criterion_residual", "numeric_checks_ok",
        ),
    ),
    "Lemma13Report": (
        lemma13_symbolic,
        (
            "inv_gamma0_ok", "inv_two_over_gamma0_minus_one_ok", "display1_ok",
            "display2_ok", "final_ok", "alpha7_expansion_ok", "alpha7_collapse_ok",
        ),
    ),
    "Lemma56Report": (
        lambda: lemma5_lemma6_numeric(F41, 20),
        ("critical", "exempt", "p2_identity_ok", "p3_identity_ok", "recentered_vanishing_ok"),
    ),
}


class TestRecordContract:
    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_immutable_fields_in_order(self, name):
        build, fields = RECORDS[name]
        rec = build()
        assert type(rec).__name__ == name
        for f in fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(rec, f, None)
        assert tuple(rec._asdict()) == fields
        assert rec == build()
        changed = rec._replace(**{fields[-1]: "x"})
        assert changed[-1] == "x" and changed[:-1] == rec[:-1] and rec[-1] != "x"

    def test_keyword_defaults(self):
        rep = FormIdentityReport(
            which="omega20", k=2, mode="general", ok=True, residues_match_series=True,
            total_zero=True, lhs=0, rhs=0,
        )
        assert rep.hypothesis_failures == ()


# the F_13 pair above translated by 1: A + B = mu_4 still, and 1 is in B, so
# every element argument below can be given as True
EDGE_A = FpSet(13, [4, 11])
EDGE_B = FpSet(13, [1, 10])
# dx / (x (x - 1)) over F_13: simple poles at 0 and 1
TWO_POLES = RationalForm(FpPoly.one(13), FpPoly(13, [0, 12, 1]))


def _series_coefficients():
    s = TruncatedSeries(13, 0, -1, [5, 0, 12], 4)
    return [s.coefficient(j) for j in range(-3, 4)]


def _residue_table_values():
    table = _residue_check().table
    return [(v, 97) for v in (*table.finite.values(), table.at_infinity, table.total)]


def _form_identity_values():
    reps = [lemma_form_identity(w, PAIR_A, PAIR_B, 1) for w in ("omega11", "psi", "omega21")]
    reps += [lemma_form_identity(w, PAIR_A, PAIR_B, 1, "specialized") for w in ("psi", "omega21")]
    return [(v, 13) for rep in reps for v in (rep.lhs, rep.rhs)]


# value -> a function that returns some of its values, each with its modulus
INT_VALUES = {
    # C(13, 1) = 0 mod 13 by a zero base-13 digit; C(60, 17) by Lucas
    "binom_mod": lambda: [(binom_mod(n, k, 13), 13) for n, k in ((8, 6), (13, 1), (60, 17))],
    "complete_homogeneous": lambda: [(complete_homogeneous(F41, m), 41) for m in range(6)],
    "TruncatedSeries.coefficient": lambda: [(c, 13) for c in _series_coefficients()],
    # at the poles and at a non-pole
    "residue_at": lambda: [(residue_at(TWO_POLES, b), 13) for b in (0, 1, 2)]
    + [(residue_at(named_form("omega20", None, B97, 2), b), 97) for b in (0, 5, 13)],
    "residue_at_infinity": lambda: [
        (residue_at_infinity(RationalForm(num, den)), 13)
        for num, den in (
            (TWO_POLES.num, TWO_POLES.den),
            (FpPoly.zero(13), FpPoly.one(13)),  # the zero form
            (FpPoly.one(13), FpPoly.monomial(13, 1, 3)),  # no x^-1 term
            (FpPoly.one(13), FpPoly.x(13)),
        )
    ],
    "hp_coeffs": lambda: [(c, 41) for c in hp_coeffs(F41).values()],
    "vandermonde_solve": lambda: [(c, 41) for c in vandermonde_solve(F41).values()],
    "FactorizationResult.C": lambda: [(factorization_check(F41, -F41, 20).C, 41)],
    "Lemma9Report.c0_c_inf": lambda: [
        (v, 13) for b in PAIR_B for rep in [lemma9_check(PAIR_A, PAIR_B, b)]
        for v in (rep.c0, rep.c_inf)
    ],
    # at the critical pair and at a perturbed one, where lhs != rhs
    "relation_x_y": lambda: [
        (v, 13) for B in (PAIR_B, FpSet(13, [2, 7])) for rel in (relation_x, relation_y)
        for v in rel(PAIR_A, B, 2)[:2]
    ],
    "ResidueTable": _residue_table_values,
    "FormIdentityReport.lhs_rhs": _form_identity_values,
}


class TestIntValues:
    @pytest.mark.parametrize("name", sorted(INT_VALUES))
    def test_plain_int_in_range(self, name):
        pairs = INT_VALUES[name]()
        assert pairs
        assert [(type(v), 0 <= v < p) for v, p in pairs] == [(int, True)] * len(pairs), pairs

    def test_series_coefficients_are_the_stored_ones(self):
        # 0 outside the stored span, below the truncation order
        assert _series_coefficients() == [0, 0, 5, 0, 12, 0, 0]


# edge -> a function of one integer argument, which the edge reads with
# operator.index
INTEGER_EDGES = {
    "FpSet": lambda x: FpSet(13, [x]),
    "FpSet.__contains__": lambda x: x in FpSet(13, [1]),
    "FpSet.translate": lambda x: FpSet(13, [0, 5]).translate(x),
    "FpPoly": lambda x: FpPoly(13, [3, x]),
    "TruncatedSeries.center": lambda x: TruncatedSeries(13, x, 0, [1, 2], 3),
    "TruncatedSeries.coeffs": lambda x: TruncatedSeries(13, 0, 0, [1, x], 3),
    "taylor_at": lambda x: taylor_at(FpPoly(13, [2, 3, 1]), x, 3),
    "log_derivative_series": lambda x: log_derivative_series(FpPoly(13, [2, 3, 1]), x, 2),
    "residue_at": lambda x: residue_at(TWO_POLES, x),
    "fractional_transform": lambda x: fractional_transform(F41, x),
    "reciprocal_set": lambda x: reciprocal_set(EDGE_A, x),
    "lemma9_check": lambda x: lemma9_check(EDGE_A, EDGE_B, x),
    "relation_x": lambda x: relation_x(EDGE_A, EDGE_B, x),
    "relation_y": lambda x: relation_y(EDGE_A, EDGE_B, x),
    "rat2_check": lambda x: rat2_check(F41, x),
    "rat3_check": lambda x: rat3_check(F41, x),
}


class TestIntegerEdges:
    @pytest.mark.parametrize("value", [3.7, "3", 3.0], ids=repr)
    @pytest.mark.parametrize("edge", sorted(INTEGER_EDGES))
    def test_rejects_a_non_integer(self, edge, value):
        with pytest.raises(TypeError):
            INTEGER_EDGES[edge](value)

    @pytest.mark.parametrize("edge", sorted(INTEGER_EDGES))
    def test_accepts_a_bool_as_its_int(self, edge):
        assert INTEGER_EDGES[edge](True) == INTEGER_EDGES[edge](1)


PACKAGE = SRC / "mucrit"


def _field_elem_lines(source: str) -> List[int]:
    """The lines of ``source`` whose code names ``FieldElem``: as a name, an
    attribute, an imported name or a class it defines, not in a string or a
    comment."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        named = (
            getattr(node, "id", None) == "FieldElem"
            or (isinstance(node, ast.Attribute) and node.attr == "FieldElem")
            or (isinstance(node, ast.alias) and "FieldElem" in (node.name, node.asname))
            or (isinstance(node, ast.ClassDef) and node.name == "FieldElem")
        )
        if named:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "fp.py"), ids=lambda p: p.name
)
def test_no_module_but_fp_names_field_elem(path):
    assert _field_elem_lines(path.read_text()) == []


def test_negative_control_planted_field_elem_is_flagged():
    planted = (
        "from .fp import FieldElem\n"
        "from . import fp\n"
        'def f(v):\n    """FieldElem in a docstring is text"""  # and in a comment\n'
        "    return fp.FieldElem(v, 7), FieldElem(v, 7)\n"
        "class FieldElem:\n    pass\n"
    )
    assert _field_elem_lines(planted) == [1, 5, 5, 6]
    assert _field_elem_lines((PACKAGE / "fp.py").read_text())  # the class itself


# SHA-256 of each command's `--format json` report, recorded at commit
# 6490e48, while the records were still dataclasses, before they became
# NamedTuples: the reports must not change by a byte.  The sumset pin was
# recorded again when the search stopped spending nodes on completing B
# (nodes 4 -> 2); SUMSET_PIN_NODES_4 is the one at 6490e48.
REPORT_PINS = {
    ("search", "sumset", "--p", "13", "--d", "4"):
        "0d5051ab506f13737ab15dabff219e284eeab6e1504affc967dd6cc045e06638",
    ("search", "levson", "--alpha-max", "50"):
        "e8c43903b3e50a1b9dec9149454c816ba6ecd89f3e42e82a2e89fb4e0b81c231",
    ("check", "lemma9"):
        "6c25fba3bf32eb862d71f13f71686f5150636bda09195a95c15c8ac0426e7a73",
    ("verify-residues", "--primes", "41", "--instances", "20", "--form-instances", "5"):
        "bdae5e059d2f509dd8b55103fe8397219ee14238d8618352dce627cbdb5cfe3c",
}


SUMSET_PIN_NODES_4 = "5ce5b2769490bc0c802d615bd95db04678c386c47adc0c04fa3019a9dc1d71a1"


@pytest.mark.parametrize("argv", list(REPORT_PINS), ids=" ".join)
def test_report_bytes_pinned(capsys, argv):
    assert cli.run(list(argv) + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_PINS[argv]


def test_sumset_pin_differs_only_in_nodes(capsys):
    # every byte but the node count is the report pinned at 6490e48
    assert cli.run(["search", "sumset", "--p", "13", "--d", "4", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.count('{"nodes":2}') == 1
    old = out.replace('{"nodes":2}', '{"nodes":4}')
    assert hashlib.sha256(old.encode()).hexdigest() == SUMSET_PIN_NODES_4


# the modules behind dataclasses that importing the CLI must not load
FOOTPRINT = ("dataclasses", "inspect")
# the verification layers, which only verify-*, check and search problem1 run
VERIFY_LAYERS = (
    "fractions", "decimal", "mucrit.qalg", "mucrit.stepanov", "mucrit.residues", "mucrit.checks",
)
SEARCH_ARGVS = [
    argv for words, argv in LEAF_ARGVS.items() if words[0] == "search" and words[1] != "problem1"
]

# the head of every probe: ``run`` runs one command line quietly and requires
# exit 0, ``loaded`` prints which of the names in argv[2] are imported
PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
def run(argv):
    from mucrit import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0, argv
def loaded():
    print(" ".join(m for m in json.loads(sys.argv[2]) if m in sys.modules))
"""


def _probe(body: str, watch=()) -> List[set]:
    """Run ``body`` after ``PROBE`` in a fresh isolated interpreter; return
    the words of each line it prints, as sets."""
    out = subprocess.run(
        [sys.executable, "-I", "-B", "-c", PROBE + body, str(SRC), json.dumps(list(watch))],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return [set(line.split()) for line in out.stdout.splitlines()]


def _loaded_after_cli_import(prelude: str = "", watch=FOOTPRINT, then: str = "") -> set:
    """The modules of ``watch`` that a fresh isolated interpreter holds after
    running ``prelude``, ``import mucrit.cli`` and then ``then``."""
    (loaded,) = _probe(f"{prelude}\nimport mucrit.cli\n{then}\nloaded()\n", watch)
    return loaded


class TestImportFootprint:
    """Presence only, never a time: the import itself is what is checked."""

    def test_cli_import_loads_neither(self):
        assert _loaded_after_cli_import() == set()

    def test_probe_sees_a_module_loaded_first(self):
        # negative control: the probe reports a module when it is present
        assert "dataclasses" in _loaded_after_cli_import("import dataclasses")

    def test_cli_import_loads_no_verification_layer(self):
        assert _loaded_after_cli_import(watch=VERIFY_LAYERS) == set()

    def test_searches_load_no_verification_layer(self):
        # the searches drop the cost of these imports rather than move it
        runs = "".join(f"run({argv!r})\n" for argv in SEARCH_ARGVS)
        assert len(SEARCH_ARGVS) == 5
        assert _loaded_after_cli_import(watch=VERIFY_LAYERS, then=runs) == set()

    def test_probe_sees_the_layers_a_check_loads(self):
        # negative control: a lemma check imports Stepanov's layer on dispatch
        loaded = _loaded_after_cli_import(
            watch=VERIFY_LAYERS, then="run(['check', 'lemma13'])"
        )
        assert {"fractions", "mucrit.stepanov"} <= loaded

    @staticmethod
    def _random_loaded(then: List[str]) -> List[set]:
        """``{"random"}`` or the empty set for each point of a fresh isolated
        interpreter: after ``import mucrit.cli`` and after each line of
        ``then``.  Skips where its start-up has loaded ``random`` already."""
        runs = "".join(f"{line}\nloaded()\n" for line in then)
        lines = _probe(f"loaded()\nimport mucrit.cli\nloaded()\n{runs}", ["random"])
        if lines[0]:
            pytest.skip("this interpreter's -I start-up loads random")
        return lines[1:]

    def test_searches_load_no_random(self):
        # only check seeds a random.Random
        runs = [f"run({argv!r})" for argv in SEARCH_ARGVS]
        assert self._random_loaded(runs) == [set()] * (1 + len(runs))

    def test_probe_sees_random_a_check_loads(self):
        # negative control: check imports random on dispatch
        assert self._random_loaded(["run(['check', 'lemma1'])"]) == [set(), {"random"}]


# every name the package exports, with the module that defines it
EXPORTED = {
    "FpSet": "fp", "binom_mod": "fp", "is_prime": "fp", "roots_of_unity": "fp",
    "AT_INFINITY": "poly", "FpPoly": "poly", "TruncatedSeries": "poly", "from_roots": "poly",
    "log_derivative_series": "poly", "taylor_at": "poly",
    "complete_homogeneous": "symm", "minimal_indices": "symm",
    "criticality": "hp", "factorization_check": "hp", "fractional_transform": "hp",
    "hp_coeffs": "hp", "hp_polynomial": "hp", "lemma9_check": "hp",
    "power_sum_vanishing": "hp", "reciprocal_set": "hp", "relation_x": "hp",
    "relation_y": "hp",
    "RationalForm": "residues", "lemma_form_identity": "residues", "named_form": "residues",
    "residue_at": "residues", "residue_at_infinity": "residues",
    "sum_residues_check": "residues",
    "QPoly": "qalg", "falling": "qalg",
    "alpha11_obstruction": "stepanov", "d_operator": "stepanov",
    "identity_catalog_check": "stepanov", "lemma5_lemma6_numeric": "stepanov",
    "lemma13_symbolic": "stepanov", "rat2_check": "stepanov", "rat3_check": "stepanov",
    "verify_G_zero": "stepanov",
    "diffset_search": "search", "levson_scan": "search", "problem1_scan": "search",
    "problem2_scan": "search", "sumset_search": "search", "threefold_check": "search",
}


class TestPackageNamespace:
    def test_all_is_the_forty_four_names(self):
        assert len(EXPORTED) == 44
        assert sorted(mucrit.__all__) == sorted(EXPORTED)

    @pytest.mark.parametrize("name", list(EXPORTED))
    def test_name_is_its_modules_object(self, name):
        ns = {}
        exec(f"from mucrit import {name}", ns)
        assert ns[name] is getattr(importlib.import_module(f"mucrit.{EXPORTED[name]}"), name)

    def test_dir_and_star_import_list_every_name(self):
        ns = {}
        exec("from mucrit import *", ns)
        assert set(EXPORTED) <= set(ns)
        assert set(EXPORTED) <= set(dir(mucrit))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            mucrit.no_such_name

    def test_package_import_loads_no_submodule(self):
        # then a name loads its own module, and a submodule still imports
        body = """
import mucrit
print(*(m for m in sys.modules if m.startswith("mucrit.")))
mucrit.FpSet
print(*(m for m in sys.modules if m.startswith("mucrit.")))
from mucrit import cli
print(cli is sys.modules["mucrit.cli"])
"""
        assert _probe(body) == [set(), {"mucrit.fp"}, {"True"}]


class TestForkSafety:
    """A forked ``_fan_out`` child must not take the import lock, so every
    module its share function needs is imported before the fork."""

    @staticmethod
    def _new_modules(work: str) -> set:
        """The modules that ``work`` imports first, after the imports that
        ``cli._dispatch`` does for ``verify-residues`` and ``search levson``."""
        body = f"""
import mucrit.cli
from mucrit import checks, search
from mucrit.residues import FORM_NAMES
before = set(sys.modules)
{work}
print(*(set(sys.modules) - before))
"""
        (new,) = _probe(body)
        return new

    def test_share_functions_import_nothing(self):
        work = """
primes, instances, form_instances = [13], 1, 1
share = range(len(primes) * (instances + len(FORM_NAMES) * form_instances))
part = checks._check_residue_share(share, 0, primes, instances, form_instances)
assert part == [1, len(FORM_NAMES), []], part
assert search._levson_hits([3, 5]) == [(13, 3, 3), (41, 5, 4)]
"""
        assert self._new_modules(work) == set()

    def test_probe_sees_a_first_import(self):
        # negative control: a module imported for the first time is reported
        assert self._new_modules("import colorsys") == {"colorsys"}

"""The result records: their contract as NamedTuples, the JSON reports built
from them, and what importing the CLI loads."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from mucrit import cli
from mucrit.fp import FpSet
from mucrit.hp import criticality, factorization_check, hp_coeffs, lemma9_check
from mucrit.residues import FormIdentityReport, lemma_form_identity, named_form, sum_residues_check
from mucrit.search import SearchJob, sumset_search
from mucrit.stepanov import alpha11_obstruction, lemma5_lemma6_numeric, lemma13_symbolic

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
    "HPCoeffs": (lambda: hp_coeffs(F41), ("set", "c")),
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
    "SearchJob": (
        lambda: SearchJob(kind="levson", alpha_max=50),
        ("kind", "p", "d", "alpha_max", "max_p", "node_budget"),
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
        if name == "HPCoeffs":
            # indexed by set element, so it is no tuple
            assert type(rec).__slots__ == fields
            assert rec[9] == rec.c[9]
            return
        assert tuple(rec._asdict()) == fields
        assert rec == build()
        changed = rec._replace(**{fields[-1]: "x"})
        assert changed[-1] == "x" and changed[:-1] == rec[:-1] and rec[-1] != "x"

    def test_keyword_defaults(self):
        job = SearchJob(kind="levson", alpha_max=50)
        assert (job.p, job.d, job.max_p, job.node_budget) == (None,) * 4
        rep = FormIdentityReport(
            which="omega20", k=2, mode="general", ok=True, residues_match_series=True,
            total_zero=True, lhs=0, rhs=0,
        )
        assert rep.hypothesis_failures == ()


# SHA-256 of each command's `--format json` report, recorded at commit
# 6490e48, while the records were still dataclasses, before they became
# NamedTuples: the reports must not change by a byte.
REPORT_PINS = {
    ("search", "sumset", "--p", "13", "--d", "4"):
        "5ce5b2769490bc0c802d615bd95db04678c386c47adc0c04fa3019a9dc1d71a1",
    ("search", "levson", "--alpha-max", "50"):
        "e8c43903b3e50a1b9dec9149454c816ba6ecd89f3e42e82a2e89fb4e0b81c231",
    ("check", "lemma9"):
        "6c25fba3bf32eb862d71f13f71686f5150636bda09195a95c15c8ac0426e7a73",
    ("verify-residues", "--primes", "41", "--instances", "20", "--form-instances", "5"):
        "bdae5e059d2f509dd8b55103fe8397219ee14238d8618352dce627cbdb5cfe3c",
}


@pytest.mark.parametrize("argv", list(REPORT_PINS), ids=" ".join)
def test_report_bytes_pinned(capsys, argv):
    assert cli.run(list(argv) + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_PINS[argv]


# the modules behind dataclasses that importing the CLI must not load
FOOTPRINT = ("dataclasses", "inspect")


def _loaded_after_cli_import(prelude: str = "") -> set:
    """The modules of FOOTPRINT that a fresh isolated interpreter holds after
    running ``prelude`` and then ``import mucrit.cli``."""
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        f"{prelude}\n"
        "import mucrit.cli\n"
        "print(' '.join(m for m in sys.argv[2:] if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC), *FOOTPRINT],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


class TestImportFootprint:
    """Presence only, never a time: the import itself is what is checked."""

    def test_cli_import_loads_neither(self):
        assert _loaded_after_cli_import() == set()

    def test_probe_sees_a_module_loaded_first(self):
        # negative control: the probe reports a module when it is present
        assert "dataclasses" in _loaded_after_cli_import("import dataclasses")

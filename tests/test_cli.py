import errno
import hashlib
import json
import os
import random

import pytest

from mucrit import cli, residues, search
from mucrit.fp import FieldElem, FpSet
from mucrit.poly import FpPoly, from_roots
from mucrit.residues import RationalForm

from conftest import allow_cpus, count_forks, random_subset


def run_cli(capsys, *args):
    code = cli.run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_verify_f41_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-f41")
        assert code == 0
        assert "PASS" in out

    def test_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "search", "sumset", "--p", "999", "--d", "2")
        assert code == 2

    def test_unknown_lemma(self, capsys):
        code, _, _ = run_cli(capsys, "check", "lemma99")
        assert code == 2

    def test_malformed_flags(self, capsys):
        code = cli.run(["search", "sumset", "--p", "not-a-number", "--d", "2"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_rejected(self, capsys, threads):
        code, out, err = run_cli(
            capsys, "search", "levson", "--alpha-max", "10", "--threads", threads
        )
        assert code == 2
        assert out == ""
        assert "--threads" in err

    @pytest.mark.parametrize("alpha_max", ["1", "0"])
    def test_levson_alpha_max_below_two_builds_no_sieve(self, capsys, monkeypatch, alpha_max):
        def no_sieve(alpha_max):
            raise AssertionError("the sieve was built for a rejected alpha_max")

        monkeypatch.setattr(search, "_levson_alphas", no_sieve)
        code, out, err = run_cli(capsys, "search", "levson", "--alpha-max", alpha_max)
        assert code == 2
        assert out == ""
        assert "alpha_max must be >= 2" in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--p", "5"], "error: alpha_max=5 must be below p=5\n"),
            (["--p", "7", "--alpha-max", "9"], "error: alpha_max=9 must be below p=7\n"),
        ],
    )
    def test_problem1_alpha_max_at_least_p_rejected(self, capsys, args, message):
        code, out, err = run_cli(capsys, "search", "problem1", *args)
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--instances", "-3"], "--instances"),
            (["--form-instances", "-1"], "--form-instances"),
            (["--primes", ""], "--primes"),
            (["--primes", ","], "--primes"),
        ],
    )
    def test_verify_residues_checks_nothing_rejected(self, capsys, monkeypatch, args, message):
        def no_sampling(*_):
            raise AssertionError("instances were sampled for a rejected configuration")

        monkeypatch.setattr(cli, "run_verify_residues", no_sampling)
        code, out, err = run_cli(capsys, "verify-residues", *args)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("budget", ["0", "-1", "-50000000"])
    def test_node_budget_below_one_runs_no_search(self, capsys, monkeypatch, budget):
        def no_search(job):
            raise AssertionError("a search ran with a rejected node budget")

        monkeypatch.setattr(cli, "run_job", no_search)
        code, out, err = run_cli(
            capsys, "search", "sumset", "--p", "13", "--d", "4", "--node-budget", budget
        )
        assert code == 2
        assert out == ""
        assert "--node-budget must be at least 1" in err

    def test_node_budget_of_one_still_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "sumset", "--p", "13", "--d", "4", "--node-budget", "1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["report"]["verdicts"] == [
            "node budget exhausted; results may be incomplete"
        ]

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.LEMMA_CHECKS, 1, lambda rng: (False, {"forced": True}))
        code, out, _ = run_cli(capsys, "check", "lemma1")
        assert code == 1
        assert "FAIL" in out


class TestJsonOutput:
    def test_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "verify-f41", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "mucrit/1"
        assert doc["ok"] is True
        assert json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" == out

    def test_field_elements_as_decimal_strings(self, capsys):
        _, out, _ = run_cli(capsys, "verify-f41", "--format", "json")
        doc = json.loads(out)
        c = doc["report"]["C"]
        assert c == {"value": "7", "mod": "41"}

    def test_search_report_shape(self, capsys):
        _, out, _ = run_cli(
            capsys, "search", "sumset", "--p", "13", "--d", "4", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["report"]["kind"] == "sumset"
        assert doc["report"]["witnesses"]
        assert "elapsed" not in json.dumps(doc)

    @pytest.mark.parametrize(
        "args, params",
        [
            (("diffset", "--p", "13", "--d", "6"), {"p": 13, "d": 6}),
            (
                ("sumset", "--p", "13", "--d", "4"),
                {"p": 13, "d": 4, "max_p": 128, "node_budget": 50_000_000},
            ),
            (("threefold", "--p", "13", "--d", "4"), {"p": 13, "d": 4, "max_p": 128}),
            (("levson",), {"alpha_max": 3000}),
            (("problem1", "--p", "13"), {"p": 13, "alpha_max": 5, "max_p": 64}),
            (("problem2", "--p", "13", "--d", "6"), {"p": 13, "d": 6, "max_p": 64}),
        ],
    )
    def test_search_params_per_kind(self, capsys, args, params):
        code, out, _ = run_cli(capsys, "search", *args, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == f"search-{args[0]}"
        assert doc["params"] == params

    def test_search_runs_the_module_global(self, capsys, monkeypatch):
        # the CLI reaches every search through search.run_job, which looks it
        # up at call time, so a search rebound in mucrit.search is the one
        # run; --threads reaches the levson scan as its worker count
        fake = search.SearchResult("levson", None, None, [(7, 7, 7)], {"primes_scanned": 0}, (), ())
        calls = []

        def fake_scan(alpha_max, workers):
            calls.append((alpha_max, workers))
            return fake

        monkeypatch.setattr(search, "levson_scan", fake_scan)
        _, out, _ = run_cli(
            capsys, "search", "levson", "--alpha-max", "10", "--threads", "3", "--format", "json"
        )
        assert json.loads(out)["report"]["witnesses"] == [[7, 7, 7]]
        assert calls == [(10, 3)]

    def test_levson_json(self, capsys):
        _, out, _ = run_cli(
            capsys, "search", "levson", "--alpha-max", "100", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["report"]["counts"]["primes_scanned"] == 35
        assert doc["report"]["witnesses"] == [[13, 3, 3], [41, 5, 4]]


class TestSmallPrimes:
    def test_residues_reach_p2(self, capsys):
        # with this seed every random form over F_2 has at most two roots, so
        # the run reaches the p = 2 root finder and ends
        code, out, _ = run_cli(
            capsys, "verify-residues", "--primes", "2,3,5", "--instances", "3",
            "--form-instances", "0", "--format", "json", "--seed", "6",
        )
        assert code == 0
        assert json.loads(out)["report"]["random_forms_checked"] == 9

    def test_residues_negative_control(self, capsys, monkeypatch):
        # one residue off by one, at the first pole of the run, fails the run
        args = ("verify-residues", "--instances", "20", "--form-instances", "2",
                "--format", "json")
        code, out, _ = run_cli(capsys, *args)
        assert (code, json.loads(out)["report"]["failures"]) == (0, [])
        calls = []
        residue_at = residues.residue_at

        def off_by_one(form, b, multiplicity=None):
            calls.append(b)
            value = residue_at(form, b, multiplicity)
            return FieldElem(value.v + 1, value.p) if len(calls) == 1 else value

        monkeypatch.setattr(residues, "residue_at", off_by_one)
        code, out, _ = run_cli(capsys, *args)
        failures = json.loads(out)["report"]["failures"]
        assert code == 1
        assert len(failures) == 1 and failures[0].startswith("total residue nonzero")

    @pytest.mark.parametrize("primes", ["2", "3", "5", "7", "2,3,5"])
    @pytest.mark.parametrize("seed", ["0", "1", "2"])
    def test_residues_at_default_sizes(self, capsys, primes, seed):
        # root counts and named-form set sizes are capped at what F_p holds
        code, out, err = run_cli(
            capsys, "verify-residues", "--primes", primes, "--seed", seed, "--format", "json",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["report"]["failures"] == []


# SHA-256 of the JSON stdout of verify-residues, recorded before the root
# finder moved onto the squarefree kernel; every residue-path change must
# leave these reports byte-identical
RESIDUE_REPORT_SHA256 = {
    ("--seed", "0"): "ea98c356415d5bf9328afa9642be0abca23233cb9f934dc7d4b21388df34d736",
    ("--seed", "1"): "9f63eb4eceff68b6640cd7c516db674b4b96da0d42b87e95665af8a04322ac9e",
    ("--seed", "7"): "d135ba6966397270b2e6e78753096de91475064ce09918390969dc69dcfa18bf",
    ("--primes", "2,3,5"): "46d760cc543c75060ca69d139b37d8d899e817f7fe37cfb1e60d5efe5bcff2d1",
}


class TestDeterminism:
    @pytest.mark.parametrize("args", list(RESIDUE_REPORT_SHA256))
    def test_residue_report_pinned(self, capsys, args):
        code, out, err = run_cli(capsys, "verify-residues", *args, "--format", "json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == RESIDUE_REPORT_SHA256[args]

    @pytest.mark.parametrize(
        "args",
        [
            ("verify-f41",),
            ("verify-identities",),
            ("search", "sumset", "--p", "29", "--d", "4"),
            ("search", "diffset", "--p", "41", "--d", "20"),
            ("search", "levson", "--alpha-max", "200"),
            ("check", "lemma10",),
        ],
    )
    def test_byte_identical_across_threads(self, capsys, args):
        outputs = []
        for threads in ("1", "4", "16"):
            _, out, _ = run_cli(
                capsys, *args, "--format", "json", "--threads", threads, "--seed", "0"
            )
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_threads_capped_by_usable_cpus(self, capsys, monkeypatch):
        # a huge --threads starts one process per usable CPU, no more: with
        # 3 CPUs, this process and 2 forked children
        want = run_cli(capsys, "search", "levson", "--alpha-max", "200", "--format", "json")
        allow_cpus(monkeypatch, 3)
        forks = count_forks(monkeypatch)
        got = run_cli(
            capsys, "search", "levson", "--alpha-max", "200", "--threads", "1000000",
            "--format", "json",
        )
        assert got == want
        assert len(forks) == 2

    @pytest.mark.parametrize("threads, code", [("1", 0), ("2", 0), ("0", 2)])
    def test_threads_without_fork(self, capsys, monkeypatch, threads, code):
        # --threads 1 forks nothing, a refused fork runs its share in this
        # process, and --threads 0 is rejected before any search
        want = run_cli(capsys, "search", "levson", "--alpha-max", "200", "--format", "json")
        allow_cpus(monkeypatch, 2)
        forks = []

        def refused_fork():
            forks.append(1)
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", refused_fork)
        got = run_cli(
            capsys, "search", "levson", "--alpha-max", "200", "--threads", threads,
            "--format", "json",
        )
        assert got[0] == code
        assert len(forks) == (threads == "2")
        if code == 0:
            assert got == want
        else:
            assert "--threads must be at least 1" in got[2]

    def test_seeded_residue_run_reproducible(self, capsys):
        a = run_cli(
            capsys, "verify-residues", "--primes", "41", "--instances", "20",
            "--form-instances", "3", "--format", "json", "--seed", "7",
        )
        b = run_cli(
            capsys, "verify-residues", "--primes", "41", "--instances", "20",
            "--form-instances", "3", "--format", "json", "--seed", "7",
        )
        assert a == b


class TestOutputModes:
    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify-f41", "--format", "json", "--out", str(dest)
        )
        assert code == 0
        assert out == ""
        doc = json.loads(dest.read_text())
        assert doc["ok"] is True

    @pytest.mark.parametrize("missing_dir", [True, False])
    def test_unwritable_out_exits_two(self, capsys, tmp_path, missing_dir):
        # a path under a missing directory, or a directory itself
        dest = tmp_path / "absent" / "report.json" if missing_dir else tmp_path
        code, out, err = run_cli(capsys, "verify-f41", "--out", str(dest))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("missing_dir", [True, False])
    def test_unwritable_out_runs_nothing(self, capsys, monkeypatch, tmp_path, missing_dir):
        def no_run(*_):
            raise AssertionError("the report was computed for an unwritable --out")

        monkeypatch.setattr(cli, "run_verify_residues", no_run)
        dest = tmp_path / "absent" / "report.json" if missing_dir else tmp_path
        code, out, err = run_cli(capsys, "verify-residues", "--out", str(dest))
        assert (code, out) == (2, "")
        num = errno.ENOENT if missing_dir else errno.EISDIR
        assert err == f"error: cannot write --out: [Errno {num}] {os.strerror(num)}: '{dest}'\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_failing_at_write_still_exits_two(self, capsys, monkeypatch, tmp_path):
        # failures that only opening shows, such as permissions, are caught late
        denied = PermissionError(errno.EACCES, os.strerror(errno.EACCES), "report.json")

        def refuse(*_):
            raise denied

        monkeypatch.setattr(cli, "open", refuse, raising=False)
        code, out, err = run_cli(capsys, "verify-f41", "--out", str(tmp_path / "report.json"))
        assert (code, out, err) == (2, "", f"error: cannot write --out: {denied}\n")

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "verify-f41", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "key,value"
        assert any("checks.factorization_exact" in line for line in out.splitlines())

    def test_text_lists_checks(self, capsys):
        _, out, _ = run_cli(capsys, "check", "lemma13")
        assert "PASS" in out


class TestLemmaRegistry:
    @pytest.mark.parametrize("n", list(range(1, 18)))
    def test_every_lemma_check_passes(self, capsys, n):
        code, out, _ = run_cli(capsys, "check", f"lemma{n}")
        assert code == 0, out


class TestRandomSubset:
    @pytest.mark.parametrize("p", [2, 3, 5, 41, 97, 10007])
    def test_matches_list_pool_sampler(self, p):
        # same sets and same RNG state as sampling the explicit list of
        # elements outside avoid, which conftest.random_subset builds
        for seed in range(60):
            rng = random.Random(seed)
            avoid = set(rng.sample(range(p), rng.randint(0, min(p - 1, 6))))
            avoid_sets = [(), avoid, {x + p for x in avoid}, {-1}]
            for av in avoid_sets:
                room = p - len({x for x in av if 0 <= x < p})
                size = rng.randint(1, min(room, 8))
                fast, ref = random.Random(seed), random.Random(seed)
                assert cli._random_subset(fast, p, size, av) == random_subset(ref, p, size, av)
                assert fast.getstate() == ref.getstate()

    def test_oversized_sample_rejected_alike(self):
        with pytest.raises(ValueError) as fast:
            cli._random_subset(random.Random(0), 5, 4, avoid={1, 2})
        with pytest.raises(ValueError) as ref:
            random_subset(random.Random(0), 5, 4, avoid={1, 2})
        assert str(fast.value) == str(ref.value)


def split_form_per_root(rng, p):
    """The sampler as it was: one factor (x - r)^m per root."""
    roots = rng.sample(range(p), min(rng.randint(1, 4), p))
    den = FpPoly.one(p)
    for r in roots:
        den = den * from_roots(FpSet(p, [r]), rng.randint(1, 2))
    num = FpPoly(p, [rng.randrange(p) for _ in range(rng.randint(1, den.degree + 2))])
    if num.is_zero():
        num = FpPoly.one(p)
    return RationalForm(num, den)


class TestRandomSplitForm:
    @pytest.mark.parametrize("p", [2, 3, 5, 41, 97, 10007])
    def test_matches_per_root_builder(self, p):
        # same form and same RNG state as multiplying one factor per root
        for seed in range(60):
            fast, ref = random.Random(seed), random.Random(seed)
            a, b = cli._random_split_form(fast, p), split_form_per_root(ref, p)
            assert (a.num, a.den) == (b.num, b.den)
            assert fast.getstate() == ref.getstate()

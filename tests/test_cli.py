import argparse
import contextlib
import errno
import hashlib
import importlib.util
import inspect
import io
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mucrit import checks, cli, residues, search
from mucrit.fp import FpSet
from mucrit.poly import FpPoly, from_roots
from mucrit.residues import RationalForm

from conftest import LEAF_ARGVS, allow_cpus, count_forks, random_subset

ROOT = Path(__file__).resolve().parents[1]


def _levson_alpha_cap() -> int:
    """The largest alpha with p = 2 alpha(alpha-1) + 1 within 63 bits."""
    top = 2**31 + 1
    while (2 * top * (top - 1) + 1).bit_length() > 63:
        top -= 1
    return top


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

    @pytest.mark.parametrize(
        "target",
        ["lemma1_7", "lemma+3", "lemma 3", "lemma05", "lemma\u0663", "lemma", "Lemma3",
         pytest.param("lemma" + "1" * 4301, id="lemma-past-int-digit-limit")],
    )
    def test_check_target_not_a_plain_numeral_rejected(self, capsys, monkeypatch, target):
        # int() reads each of these suffixes, "1_7" as 17 and the rest as 3
        def no_check(rng):
            raise AssertionError(f"a lemma check ran for {target!r}")

        monkeypatch.setattr(checks, "LEMMA_CHECKS", dict.fromkeys(checks.LEMMA_CHECKS, no_check))
        code, out, err = run_cli(capsys, "check", target)
        assert (code, out, err) == (2, "", f"error: unknown check target {target!r}\n")

    @pytest.mark.parametrize("num", [0, 18, 99])
    def test_check_unregistered_lemma_named(self, capsys, num):
        code, out, err = run_cli(capsys, "check", f"lemma{num}")
        assert (code, out, err) == (2, "", f"error: no check registered for lemma {num}\n")

    def test_check_plain_numeral_runs_its_lemma(self, capsys, monkeypatch):
        ran = []
        fake = {n: (lambda rng, n=n: ran.append(n) or (True, {})) for n in checks.LEMMA_CHECKS}
        monkeypatch.setattr(checks, "LEMMA_CHECKS", fake)
        for n in (3, 10, 17):
            code, out, _ = run_cli(capsys, "check", f"lemma{n}")
            assert code == 0 and out.startswith(f"[check-lemma{n}] PASS")
        assert ran == [3, 10, 17]

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
        "argv",
        [
            ["search", "diffset", "--p", "-5", "--d", "4"],
            ["search", "sumset", "--p", "-5", "--d", "4"],
            ["search", "threefold", "--p", "-5", "--d", "4"],
            ["search", "problem1", "--p", "-5"],
            ["search", "problem2", "--p", "-5", "--d", "4"],
        ],
    )
    def test_negative_p_named_not_prime(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: p=-5 is not prime\n")

    # int() alone reads "4_1" to "\u0664\u0661" as 41 or 97
    @pytest.mark.parametrize(
        "primes",
        ["1,x", "41,,4.1", "x", "97,4_1", "97, 97", "97,+41", "97,041", "97,\u0664\u0661",
         pytest.param("9" * 4301, id="past-int-digit-limit")],
    )
    def test_residue_prime_not_an_integer_named(self, capsys, primes):
        entry = [x for x in primes.split(",") if x][-1]
        code, out, err = run_cli(capsys, "verify-residues", "--primes", primes)
        assert (code, out, err) == (2, "", f"error: --primes entry {entry!r} is not an integer\n")

    @pytest.mark.parametrize(
        "args",
        [
            ["--instances", "99999999999999999999"],
            ["--form-instances", "99999999999999999999"],
            ["--primes", "2", "--instances", str(sys.maxsize + 1), "--form-instances", "0"],
        ],
    )
    def test_residue_instances_past_maxsize_rejected(self, capsys, monkeypatch, args):
        # they would overflow len(range(...)) in search._fan_out
        def no_sampling(*_, **__):
            raise AssertionError("instances were sampled past sys.maxsize")

        monkeypatch.setattr(checks, "_fan_out", no_sampling)
        code, out, err = run_cli(capsys, "verify-residues", *args)
        message = f"error: --instances and --form-instances make over {sys.maxsize} instances\n"
        assert (code, out, err) == (2, "", message)

    def test_residue_instances_at_maxsize_pass_the_bound(self, capsys, monkeypatch):
        # negative control, with the fan-out replaced: the bound is not one too low
        seen = []
        monkeypatch.setattr(
            checks, "_fan_out", lambda fn, items, workers: seen.append(len(items)) or []
        )
        argv = ["--primes", "2", "--instances", str(sys.maxsize), "--form-instances", "0"]
        assert run_cli(capsys, "verify-residues", *argv)[0] == 0
        assert seen == [sys.maxsize]

    def test_levson_alpha_max_past_modulus_cap_builds_no_sieve(self, capsys, monkeypatch):
        # p = 2 alpha(alpha-1) + 1 for the largest alpha must fit the modulus cap
        def no_sieve(alpha_max):
            raise AssertionError("the sieve was built past the modulus cap")

        monkeypatch.setattr(search, "_levson_alphas", no_sieve)
        top = _levson_alpha_cap()
        for alpha_max in (top + 1, 99999999999999999999):
            code, out, err = run_cli(capsys, "search", "levson", "--alpha-max", str(alpha_max))
            message = f"error: --alpha-max {alpha_max} gives p = 2a(a-1)+1 over 63 bits\n"
            assert (code, out, err) == (2, "", message)

    def test_levson_alpha_max_at_modulus_cap_passes_the_bound(self, capsys, monkeypatch):
        # negative control, with the sieve replaced: the bound is not one too low
        class Reached(Exception):
            pass

        def reached(alpha_max):
            raise Reached(alpha_max)

        monkeypatch.setattr(search, "_levson_alphas", reached)
        top = _levson_alpha_cap()
        assert (2 * top * (top - 1) + 1).bit_length() == 63
        with pytest.raises(Reached) as exc:
            cli.run(["search", "levson", "--alpha-max", str(top)])
        assert exc.value.args == (top,)

    def test_negative_residue_prime_named_not_prime(self, capsys):
        code, out, err = run_cli(capsys, "verify-residues", "--primes", "7,-5")
        assert (code, out, err) == (2, "", "error: -5 is not prime\n")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_residue_prime_past_modulus_cap_rejected(self, capsys, monkeypatch, threads):
        # the least prime above 2^63: prime, but past the cap of every modulus
        def no_sampling(*_, **__):
            raise AssertionError("instances were drawn for a prime past the cap")

        monkeypatch.setattr(checks, "_fan_out", no_sampling)
        p = 9223372036854775837
        code, out, err = run_cli(
            capsys, "verify-residues", "--primes", f"7,{p}", "--threads", threads
        )
        assert (code, out, err) == (2, "", f"error: modulus {p} exceeds 63 bits\n")

    def test_residue_prime_at_modulus_cap_runs(self, capsys):
        # negative control: the largest 63-bit prime is checked as any other
        p = 9223372036854775783
        assert p.bit_length() == 63
        code, out, err = run_cli(
            capsys, "verify-residues", "--primes", str(p), "--instances", "3",
            "--form-instances", "1", "--threads", "1", "--format", "json",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["params"]["primes"] == [p]

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

        monkeypatch.setattr(checks, "_fan_out", no_sampling)
        code, out, err = run_cli(capsys, "verify-residues", *args)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("budget", ["0", "-1", "-50000000"])
    def test_node_budget_below_one_runs_no_search(self, capsys, monkeypatch, budget):
        # the exponent index is the first thing the sumset search builds
        def no_search(p, d):
            raise AssertionError("a search ran with a rejected node budget")

        monkeypatch.setattr(search, "subgroup_index", no_search)
        code, out, err = run_cli(
            capsys, "search", "sumset", "--p", "13", "--d", "4", "--node-budget", budget
        )
        assert code == 2
        assert out == ""
        assert "--node-budget must be at least 1" in err
        # negative control: a budget of 1 reaches the search
        with pytest.raises(AssertionError, match="a search ran"):
            run_cli(capsys, "search", "sumset", "--p", "13", "--d", "4", "--node-budget", "1")

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
        monkeypatch.setitem(checks.LEMMA_CHECKS, 1, lambda rng: (False, {"forced": True}))
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


# the function that runs each search kind, by its name in mucrit.search
SEARCHES = {
    "diffset": "diffset_search", "sumset": "sumset_search", "threefold": "threefold_check",
    "levson": "levson_scan", "problem1": "problem1_scan", "problem2": "problem2_scan",
}


class TestSearchOptions:
    """A search command's options reach its search as parsed: the command's
    ``_LEAVES`` entry is their one declaration."""

    @staticmethod
    def _spy(monkeypatch, kind):
        """Replace the search of ``kind`` by a spy that returns an empty
        result; return the list of the keywords of each call."""
        calls = []

        def spy(**kwargs):
            calls.append(kwargs)
            return search.SearchResult(kind, None, None, [], {}, (), ())

        monkeypatch.setattr(search, SEARCHES[kind], spy)
        return calls

    @pytest.mark.parametrize("args, probe", [((), 7), (("--probe", "9"), 9)])
    def test_option_declared_once_reaches_the_search(self, capsys, monkeypatch, args, probe):
        words = ("search", "sumset")
        probe_option = ("--probe", {"type": int, "default": 7})
        monkeypatch.setitem(cli._LEAVES, words, cli._LEAVES[words] + (probe_option,))
        calls = self._spy(monkeypatch, "sumset")
        code, out, _ = run_cli(
            capsys, *words, "--p", "13", "--d", "4", *args, "--format", "json"
        )
        assert code == 0
        assert [kw["probe"] for kw in calls] == [probe]
        assert json.loads(out)["params"]["probe"] == probe

    @pytest.mark.parametrize(
        "words", [w for w in LEAF_ARGVS if w[0] == "search"], ids=" ".join
    )
    def test_search_gets_exactly_its_leaf_options(self, capsys, monkeypatch, words):
        calls = self._spy(monkeypatch, words[1])
        argv = LEAF_ARGVS[words]
        code, _, _ = run_cli(capsys, *argv)
        ns = vars(cli._parse(argv))
        want = {cli._dest(flag): ns[cli._dest(flag)] for flag, _ in cli._LEAVES[words]}
        if words[1] == "levson":
            want["workers"] = ns["threads"]
        assert code == 0
        assert calls == [want]

    def test_negative_control_option_left_out(self, capsys, monkeypatch):
        words = ("search", "sumset")
        leaf = tuple(spec for spec in cli._LEAVES[words] if spec[0] != "--node-budget")
        monkeypatch.setitem(cli._LEAVES, words, leaf)
        calls = self._spy(monkeypatch, "sumset")
        code, out, _ = run_cli(capsys, *words, "--p", "13", "--d", "4", "--format", "json")
        assert code == 0
        assert calls == [{"p": 13, "d": 4, "max_p": 128}]
        assert "node_budget" not in json.loads(out)["params"]

    @staticmethod
    def _default_pairs():
        """(words, flag, table default, search default) for every search-leaf
        option whose search function declares a default for it."""
        pairs = []
        for words, options in cli._LEAVES.items():
            if words[0] != "search":
                continue
            params = inspect.signature(getattr(search, SEARCHES[words[1]])).parameters
            for flag, kwargs in options:
                param = params.get(cli._dest(flag))
                if param is not None and param.default is not param.empty:
                    pairs.append((words, flag, kwargs.get("default"), param.default))
        return pairs

    def test_leaf_defaults_equal_the_searches_own(self):
        pairs = self._default_pairs()
        # --max-p of sumset, threefold, problem1 and problem2; sumset's --node-budget
        assert len(pairs) == 5
        assert [pair for pair in pairs if pair[2] != pair[3]] == []

    def test_negative_control_patched_default(self, monkeypatch):
        words = ("search", "problem2")
        leaf = tuple(
            (flag, {**kwargs, "default": 65}) if flag == "--max-p" else (flag, kwargs)
            for flag, kwargs in cli._LEAVES[words]
        )
        monkeypatch.setitem(cli._LEAVES, words, leaf)
        pairs = self._default_pairs()
        assert [pair for pair in pairs if pair[2] != pair[3]] == [(words, "--max-p", 65, 64)]


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
        # one residue off by one, at the first pole of the run, fails the run;
        # the fault counts calls in one process, so the run keeps to one
        args = ("verify-residues", "--instances", "20", "--form-instances", "2",
                "--threads", "1", "--format", "json")
        code, out, _ = run_cli(capsys, *args)
        assert (code, json.loads(out)["report"]["failures"]) == (0, [])
        calls = []
        residue_at = residues.residue_at

        def off_by_one(form, b, multiplicity=None):
            calls.append(b)
            value = residue_at(form, b, multiplicity)
            return (value + 1) % form.p if len(calls) == 1 else value

        monkeypatch.setattr(residues, "residue_at", off_by_one)
        code, out, _ = run_cli(capsys, *args)
        failures = json.loads(out)["report"]["failures"]
        assert code == 1
        assert len(failures) == 1 and failures[0].startswith("total residue nonzero")

    def test_residues_negative_control_in_any_process(self, capsys, monkeypatch):
        # one residue off by one, at the first pole of the random form with
        # index 45 (p = 10007), fails the run whichever process checks it: at
        # --threads 2 the odd indices go to the forked child
        allow_cpus(monkeypatch, 2)
        args = ("verify-residues", "--instances", "20", "--form-instances", "2",
                "--format", "json")
        draws = checks._residue_draws(0, [41, 97, 10007], 20, 2)
        p, roots, doubled, coeffs = next(itertools.islice(draws, 45, None))
        chosen = checks._build_split_form(p, roots, doubled, coeffs)
        residue_at = residues.residue_at

        def off_by_one(form, b, multiplicity=None):
            value = residue_at(form, b, multiplicity)
            hit = (form.num, form.den, b) == (chosen.num, chosen.den, min(roots))
            return (value + 1) % form.p if hit else value

        monkeypatch.setattr(residues, "residue_at", off_by_one)
        forks = count_forks(monkeypatch)
        reports = [run_cli(capsys, *args, "--threads", t) for t in ("1", "2")]
        assert len(forks) == 1
        assert reports[0] == reports[1]
        code, out, _ = reports[0]
        failures = json.loads(out)["report"]["failures"]
        assert code == 1
        assert failures == [f"total residue nonzero for {chosen!r}"]

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
        allow_cpus(monkeypatch, 3)
        forks = count_forks(monkeypatch)
        for args in (
            ("search", "levson", "--alpha-max", "200"),
            ("verify-residues", "--instances", "20", "--form-instances", "2"),
        ):
            want = run_cli(capsys, *args, "--threads", "1", "--format", "json")
            forks.clear()
            got = run_cli(capsys, *args, "--threads", "1000000", "--format", "json")
            assert got == want
            assert len(forks) == 2

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_default_threads_is_usable_cpus_at_run_time(self, capsys, monkeypatch, cpus):
        # the parser is built once and cached; the default is read per run, so
        # one of the two CPU counts differs from the machine's whatever it is
        args = ("verify-residues", "--instances", "20", "--form-instances", "2",
                "--format", "json")
        want = run_cli(capsys, *args, "--threads", "1")
        allow_cpus(monkeypatch, cpus)
        forks = count_forks(monkeypatch)
        assert run_cli(capsys, *args) == want
        assert len(forks) == cpus - 1

    def test_default_residue_run_forks_and_keeps_report(self, capsys, monkeypatch):
        allow_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        code, out, err = run_cli(capsys, "verify-residues", "--seed", "0", "--format", "json")
        assert (code, err) == (0, "")
        assert len(forks) == 1
        assert hashlib.sha256(out.encode()).hexdigest() == RESIDUE_REPORT_SHA256[("--seed", "0")]

    @pytest.mark.parametrize("threads, code", [("1", 0), ("2", 0), ("0", 2), ("-1", 2)])
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

        monkeypatch.setattr(checks, "run_verify_residues", no_run)
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


class TestChecksModule:
    """The checks run without the CLI, as ``mucrit.checks`` alone."""

    @pytest.mark.parametrize("n", list(range(1, 18)))
    def test_lemma_check_returns_what_the_cli_reports(self, capsys, n):
        for seed in (0, 7):
            ok, report = checks.LEMMA_CHECKS[n](random.Random(seed))
            argv = ["check", f"lemma{n}", "--seed", str(seed), "--format", "json"]
            doc = json.loads(run_cli(capsys, *argv)[1])
            assert (doc["ok"], doc["report"]) == (ok, json.loads(json.dumps(report)))

    @pytest.mark.parametrize("module, loads_cli", [("mucrit.checks", False), ("mucrit.cli", True)])
    def test_checks_import_leaves_cli_unloaded(self, module, loads_cli):
        # a fresh interpreter; importing mucrit.cli itself is the negative control
        code = f"import sys, {module}\nprint('mucrit.cli' in sys.modules)\n"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == f"{loads_cli}\n"

    def test_verify_identities_runs_each_symbolic_bundle_once(self, capsys, monkeypatch):
        # every lemma 13 and alpha = 11 key comes from one run of its bundle:
        # a spied run whose overall verdict is flipped flips the chain keys
        from mucrit import stepanov

        calls = []
        for name in ("lemma13_symbolic", "alpha11_obstruction"):
            def spy(*args, _name=name, _orig=getattr(stepanov, name), **kwargs):
                calls.append(_name)
                rep = _orig(*args, **kwargs)
                if _name == "lemma13_symbolic":
                    return rep._replace(inv_gamma0_ok=False)  # read by .ok alone
                return rep._replace(coefficient_factorizations_ok=False)

            for module in (stepanov, checks):
                monkeypatch.setattr(module, name, spy)
        code, out, _ = run_cli(capsys, "verify-identities", "--format", "json")
        assert sorted(calls) == ["alpha11_obstruction", "lemma13_symbolic"]
        failing = [k for k, v in json.loads(out)["report"]["checks"].items() if not v]
        assert (code, failing) == (1, ["alpha11_coefficient_display", "lemma13_chain"])

    def test_verify_identities_report_keys(self):
        ok, report = checks.run_verify_identities()
        assert ok
        assert sorted(report) == ["checks", "xi5_value"]
        assert sorted(report["checks"]) == [
            "alpha11_coefficient_display", "alpha11_reduction_chain",
            "d_alpha_l_factorization", "d_alpha_l_integer_solutions",
            "g_operator_zero", "gamma_cross_check_p19", "gauss_unit_power",
            "lemma13_alpha7_collapse", "lemma13_chain", "lemma13_display1",
            "lemma13_display2", "lemma13_final_congruence_poly",
            "lemma17_nm_sum_formula", "lemma17_two_congruence_difference",
            "lemma5_quadratic_branch", "lemma5_sextic_derivation",
            "lemma5_sextic_factorization", "resultant_216",
            "s5_discriminant_values", "s5_least_root_61_mod_163",
            "s5_multiplier_identity", "s5_no_roots_mod_73", "s5_p19_endgame",
            "s5_root_3_mod_19", "theorem2_even_coefficient", "theorem2_odd_coefficient",
        ]


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
                picks = checks._random_picks(fast, p, size, av)
                assert FpSet(p, picks) == random_subset(ref, p, size, av)
                assert fast.getstate() == ref.getstate()

    def test_oversized_sample_rejected_alike(self):
        with pytest.raises(ValueError) as fast:
            FpSet(5, checks._random_picks(random.Random(0), 5, 4, avoid={1, 2}))
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
            a = checks._build_split_form(p, *checks._draw_split_form(fast, p))
            b = split_form_per_root(ref, p)
            assert (a.num, a.den) == (b.num, b.den)
            assert fast.getstate() == ref.getstate()


# help at each level, parser and dispatch errors, abbreviations, and
# command words out of place
PARSE_ARGVS = list(LEAF_ARGVS.values()) + [
    [],
    ["-h"],
    ["--help"],
    ["search"],
    ["search", "-h"],
    ["search", "sumset", "-h"],
    ["check", "--help"],
    ["search", "sumset", "--d", "4"],
    ["search", "sumset", "--p", "x", "--d", "4"],
    ["search", "sumset", "--p", "13", "--d", "4", "--bogus"],
    ["search", "sumset", "--p", "13", "--d", "4", "7"],
    ["search", "sumset", "--p", "13", "--d", "4", "--thr", "1", "--form", "json"],
    ["search", "sumset", "--p=13", "--d", "4", "--p", "17"],
    ["search", "sumset", "--p", "-5", "--d", "4"],
    ["search", "--p", "13", "sumset", "--d", "4"],
    ["search", "frobnicate"],
    ["frobnicate"],
    ["--format", "json", "verify-f41"],
    ["verify-f41", "--bogus"],
    ["verify-f41", "--", "x"],
    ["verify-f41", "--format", "xml"],
    ["check"],
    ["check", "lemma3", "extra"],
    ["check", "--", "lemma3"],
    ["check", "lemma99"],
    ["search", "levson", "--alpha-max", "10", "--threads", "0"],
]


def _outcome(argv):
    """(exit code, stdout, stderr) of ``cli.run(argv)``; an exception that
    escapes it stands in for the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except Exception as exc:  # noqa: BLE001 - a difference to report
            code = repr(exc)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def nested_outcomes():
    """The outcome of every ``PARSE_ARGVS`` line with argparse parsing it,
    then ``_dispatch``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_parse", lambda argv: cli._build_parser().parse_args(argv))
        return {tuple(argv): _outcome(argv) for argv in PARSE_ARGVS}


def _differing(nested_outcomes):
    return {argv for argv, want in nested_outcomes.items() if _outcome(argv) != want}


class TestLeafParse:
    def test_same_outcome_as_nested_parse(self, nested_outcomes):
        assert _differing(nested_outcomes) == set()
        codes = {want[0] for want in nested_outcomes.values()}
        assert codes == {0, 2}

    def test_negative_control_kind_not_set(self, monkeypatch, nested_outcomes):
        real = cli._parse_plain

        def dropping_kind(argv):
            ns = real(argv)
            if ns is not None:
                vars(ns).pop("kind", None)
            return ns

        monkeypatch.setattr(cli, "_parse_plain", dropping_kind)
        differing = _differing(nested_outcomes)
        assert tuple(LEAF_ARGVS[("search", "sumset")]) in differing
        assert all(argv[0] == "search" for argv in differing)

    def test_negative_control_leftovers_accepted(self, monkeypatch, nested_outcomes):
        real = argparse.ArgumentParser.parse_known_args

        def dropping_leftovers(self, args=None, namespace=None):
            return real(self, args, namespace)[0], []

        # the reference outcomes were taken before argparse was patched
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", dropping_leftovers)
        leftovers = {
            argv for argv, (_, _, err) in nested_outcomes.items()
            if "unrecognized arguments" in err
        }
        assert len(leftovers) == 5
        # the plain parse leaves these lines to argparse
        assert all(cli._parse_plain(list(argv)) is None for argv in leftovers)
        assert _differing(nested_outcomes) == leftovers


def _table(words):
    """The (flag, add_argument keywords) of every option of a command."""
    return cli._COMMON + cli._LEAVES[words]


def _is_option(spec):
    return spec[0][0] == "-"


def _required(spec):
    return not _is_option(spec) or spec[1].get("required", False)


def _value(spec, other=False):
    """A value ``spec`` accepts; with ``other``, a second, different one."""
    kwargs = spec[1]
    if "choices" in kwargs:
        return kwargs["choices"][-2 if other else -1]
    if kwargs.get("type") is int:
        return "17" if other else "13"
    if not _is_option(spec):
        return "lemma4" if other else "lemma3"
    return "y" if other else "x"


def _flag(spec):
    """``[flag]`` for an option, ``[]`` for a positional."""
    return [spec[0]] if _is_option(spec) else []


def _items(specs, other=False):
    """The tokens of each option given once: ``[flag, value]`` or ``[value]``."""
    return [_flag(spec) + [_value(spec, other)] for spec in specs]


def _plain_parse_lines():
    """Generated command lines for every command, each with its category."""
    lines = {}

    def add(category, words, *chunks):
        lines[tuple(words) + tuple(t for c in chunks for t in c)] = category

    for words in cli._LEAVES:
        specs = _table(words)
        own = [s for s in specs if s[0] == "--format" or s not in cli._COMMON]
        for order in itertools.permutations(_items(own)):
            add("valid", words, *order)
        full = _items(specs)
        add("valid", words, *full)
        add("valid", words, *full[::-1])
        needed = [s for s in specs if _required(s)]
        add("required only", words, *_items(needed))
        for s in needed:
            add("missing required", words, *_items(x for x in needed if x is not s))
        for j, s in enumerate(specs):
            rest = full[:j] + full[j + 1:]
            if _is_option(s):
                again = _items([s], other=True)[0]
                add("repeat", words, *full, again)
                add("abbreviation", words, *rest, [s[0][:-1], _value(s)])
                add("= form", words, *rest, [f"{s[0]}={_value(s)}"])
            if s[1].get("type") is int:
                add("bad type", words, *rest, _flag(s) + ["x"])
                add("negative", words, *rest, _flag(s) + ["-5"])
            if "choices" in s[1]:
                add("bad choice", words, *rest, _flag(s) + ["xml"])
        for extra in (["extra"], ["--bogus"], ["--bogus", "x"], ["-h"], ["--help"]):
            add("extra", words, *full, extra)
        add("--", words, ["--"], *full)
        add("--", words, *full, ["--"])
        add("--", words, *_items(filter(_is_option, specs)), ["--"],
            *_items(s for s in specs if not _is_option(s)))
        add("missing value", words, *full, [s[0] for s in specs if _is_option(s)][-1:])
    return lines


def _nested_items(argv):
    """``vars()`` items of argparse's parse of ``argv``, or None if it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return list(vars(cli._build_parser().parse_args(list(argv))).items())
        except SystemExit:
            return None


@pytest.fixture(scope="module")
def plain_lines():
    """Every generated line with its category and argparse's parse of it."""
    return {argv: (cat, _nested_items(argv)) for argv, cat in _plain_parse_lines().items()}


def _plain_mismatches(plain_lines, parse_plain=None):
    """Categories of the lines where the plain parse accepts a line argparse
    rejects, or gives a namespace other than argparse's."""
    bad = {}
    for argv, (cat, want) in plain_lines.items():
        ns = (parse_plain or cli._parse_plain)(list(argv))
        if ns is not None and list(vars(ns).items()) != want:
            bad[argv] = cat
    return bad


def _without(monkeypatch, key):
    """Patch ``key`` out of the keywords of every option in the table."""
    def strip(specs):
        return tuple((flag, {k: v for k, v in kw.items() if k != key}) for flag, kw in specs)

    monkeypatch.setattr(cli, "_COMMON", strip(cli._COMMON))
    monkeypatch.setattr(cli, "_LEAVES", {w: strip(specs) for w, specs in cli._LEAVES.items()})


class TestPlainParse:
    """``cli._parse_plain`` gives argparse's own namespace or defers."""

    def test_lines_cover_every_category(self, plain_lines):
        cats = {cat for cat, _ in plain_lines.values()}
        assert cats == {
            "valid", "required only", "missing required", "repeat", "abbreviation",
            "= form", "bad type", "negative", "bad choice", "extra", "--",
            "missing value",
        }
        # argparse exits on each kind of error the lines hold
        for cat in ("missing required", "bad type", "bad choice", "extra", "missing value"):
            assert any(want is None for c, want in plain_lines.values() if c == cat), cat

    def test_same_namespace_or_deferred(self, plain_lines):
        assert _plain_mismatches(plain_lines) == {}

    def test_plain_lines_accepted(self, plain_lines):
        for argv, (cat, want) in plain_lines.items():
            if cat in ("valid", "required only"):
                assert want is not None, argv
                assert list(vars(cli._parse_plain(list(argv))).items()) == want, argv

    def test_unusual_lines_deferred(self, plain_lines):
        for argv, (cat, _) in plain_lines.items():
            if cat not in ("valid", "required only"):
                assert cli._parse_plain(list(argv)) is None, argv

    def test_negative_control_choices_skipped(self, monkeypatch, plain_lines):
        _without(monkeypatch, "choices")
        assert set(_plain_mismatches(plain_lines).values()) == {"bad choice"}

    def test_negative_control_first_repeat_kept(self, plain_lines):
        def keeping_first(argv):
            for j in reversed(range(len(argv) - 1)):
                if argv[j].startswith("--") and argv[j] in argv[:j]:
                    del argv[j : j + 2]
            return cli._parse_plain(argv)

        assert set(_plain_mismatches(plain_lines, keeping_first).values()) == {"repeat"}

    def test_negative_control_required_ignored(self, monkeypatch, plain_lines):
        _without(monkeypatch, "required")
        assert set(_plain_mismatches(plain_lines).values()) == {"missing required"}


class TestParseRecord:
    """Each command's parse record is compiled once, on its first line, and
    compiled again when its table entries are replaced."""

    @staticmethod
    def _sumset_job():
        """The benchmark's ``search sumset`` job at p = 13, d = 4."""
        return next(
            argv for argv in _load_jobs().jobs("sumset", 0)
            if argv[:2] == ["search", "sumset"] and argv[3] == "13" and argv[5] == "4"
        )

    def test_second_line_compiles_nothing(self, capsys, monkeypatch):
        argv = self._sumset_job()
        assert cli.run(list(argv)) == 0
        calls = []
        real = cli._dest
        monkeypatch.setattr(cli, "_dest", lambda flag: calls.append(flag) or real(flag))
        assert cli.run(list(argv)) == 0
        capsys.readouterr()
        assert calls == []

    def test_patched_leaf_reaches_run_job(self, monkeypatch):
        words = ("search", "sumset")
        argv = self._sumset_job()
        probed = argv[:-2] + ["--probe", "9"] + argv[-2:]
        assert cli._parse_plain(list(argv)) is not None
        assert cli._parse_plain(list(probed)) is None  # no such option yet
        calls = []

        def spy(kind, params, workers=1):
            calls.append((kind, params))
            return search.SearchResult(kind, None, None, [], {}, (), ())

        monkeypatch.setattr(cli, "run_job", spy)
        probe_option = ("--probe", {"type": int, "default": 7})
        monkeypatch.setitem(cli._LEAVES, words, cli._LEAVES[words] + (probe_option,))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(list(probed)) == 0
        assert calls == [
            ("sumset", {"p": 13, "d": 4, "max_p": 128, "node_budget": 50_000_000, "probe": 9})
        ]
        # the table restored, the option is gone again
        monkeypatch.undo()
        assert cli._parse_plain(list(probed)) is None


def _load_jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobs", ROOT / "perfbench" / "jobs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class NestedParseUsed(AssertionError):
    pass


@pytest.fixture
def nested_parse_refused(monkeypatch):
    def refuse(*args, **kwargs):
        raise NestedParseUsed(args)

    monkeypatch.setattr(cli, "_build_parser", refuse)


def _benchmark_mismatches(workload):
    """The jobs of one benchmark pass whose exit code or report digest is
    not the one the benchmark expects."""
    jobs = _load_jobs()
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    bad = []
    for argv in jobs.jobs(workload, 0):
        code, out, _ = _outcome(argv)
        want = expected[jobs.job_key(argv)]
        if code != want["exit"] or jobs.digest(out) != want["sha256"]:
            bad.append(argv)
    return bad


class TestLeafCoverage:
    """Every benchmark job and every command is parsed from the table alone,
    so a fallback to argparse cannot quietly undo the fast path."""

    def test_every_leaf_has_a_valid_line(self):
        assert set(LEAF_ARGVS) == set(cli._LEAVES)

    @pytest.mark.parametrize("workload", ["residues", "sumset", "desk"])
    def test_benchmark_jobs_without_nested_parse(self, nested_parse_refused, workload):
        assert _benchmark_mismatches(workload) == []

    def test_each_leaf_without_nested_parse(self, nested_outcomes, nested_parse_refused):
        for argv in LEAF_ARGVS.values():
            assert _outcome(argv) == nested_outcomes[tuple(argv)]

    def test_negative_control_leaf_missing(self, monkeypatch, nested_parse_refused):
        # a copy: deleting and restoring the key would reorder the table
        leaves = {w: options for w, options in cli._LEAVES.items() if w != ("search", "threefold")}
        monkeypatch.setattr(cli, "_LEAVES", leaves)
        mismatches = _benchmark_mismatches("sumset")
        assert mismatches
        assert all(argv[:2] == ["search", "threefold"] for argv in mismatches)

    def test_argparse_imported_only_for_help(self):
        # a fresh interpreter: this one has argparse loaded already
        code = (
            "import contextlib, io, json, sys\n"
            "from mucrit import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.run(list(argv)) for argv in %r]\n"
            "    before = 'argparse' in sys.modules\n"
            "    codes.append(cli.run(['search', 'sumset', '--help']))\n"
            "print(json.dumps([codes, before, 'argparse' in sys.modules]))\n"
        ) % (list(LEAF_ARGVS.values()),)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == [[0] * (len(LEAF_ARGVS) + 1), False, True]

import gc
import hashlib
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from glicci import cli
from glicci.catalog import surface
from glicci.cli import main
from glicci.moves import Chain, validate_chain

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlanCommand:
    def test_cubic_eighteen_first_line(self, capsys):
        code, out, _ = run(capsys, "plan", "cubic-surface", "18")
        assert code == 0
        assert out.splitlines()[0] == "18 -> 20 [6H-K on (10,12) type i]"

    def test_empty_chain(self, capsys):
        code, out, _ = run(capsys, "plan", "p2", "1")
        assert code == 0
        assert "empty chain" in out

    def test_p3_open_case_exit_two(self, capsys):
        code, out, err = run(capsys, "plan", "p3", "20")
        assert code == 2
        assert "open" in err

    def test_json_round_trip_revalidates(self, capsys):
        code, out, _ = run(capsys, "plan", "cubic-surface", "54", "--json")
        assert code == 0
        envelope = json.loads(out)
        assert envelope["command"] == "plan"
        assert envelope["inputs"] == {"space": "cubic-surface", "n": 54}
        chain = Chain.from_dict(envelope["result"])
        validate_chain(chain)
        assert chain.point_sequence()[:13] == [
            54, 55, 53, 56, 52, 40, 35, 27, 23, 15, 12, 8, 6,
        ]

    def test_bad_n_usage_error(self, capsys):
        code, _, err = run(capsys, "plan", "p2", "x")
        assert code == 1
        code, _, err = run(capsys, "plan", "p2", "0")
        assert code == 1

    def test_bad_space_usage_error(self, capsys):
        code, _, _ = run(capsys, "plan", "p5", "3")
        assert code == 1


class TestDivisorCommand:
    def test_bordiga_eleven_seven(self, capsys):
        code, out, _ = run(
            capsys, "divisor", "bordiga", "6;2,2,2,1,1,1,1,1,1,1"
        )
        assert code == 0
        assert "d=11 g=7 C^2=17" in out

    def test_exponent_sugar_equivalent(self, capsys):
        _, long_out, _ = run(capsys, "divisor", "bordiga", "6;2,2,2,1,1,1,1,1,1,1")
        _, short_out, _ = run(capsys, "divisor", "bordiga", "6;2^3,1^7")
        assert long_out == short_out

    def test_delpezzo_example(self, capsys):
        code, out, _ = run(capsys, "divisor", "delpezzo", "5;2^2,1^3")
        assert code == 0
        assert "d=8 g=4" in out

    def test_scroll_line(self, capsys):
        # The exceptional line is (0;-1) in the a*l - b*e convention.
        code, out, _ = run(capsys, "divisor", "scroll", "0;-1")
        assert code == 0
        assert "d=1 g=0" in out

    @pytest.mark.parametrize("argv", [("scroll", "-1;0", "--quiet"),
                                      ("scroll", "--quiet", "--", "-1;0"),
                                      ("--quiet", "--", "scroll", "-1;0")])
    def test_negative_leading_coefficient_is_the_class(self, capsys, argv):
        # A class led by "-" and a digit is the positional class, not an
        # option; "--" still ends the options.
        code, out, err = run(capsys, "divisor", *argv)
        assert (code, err) == (0, "")
        assert out == ("surface: scroll\n"
                       "class:   (-1;0)\n"
                       "d=-2 g=3 C^2=1 C.K=3\n"
                       "C-H: -3;-1 = -3;0 + E1 (-5,9)\n")

    @pytest.mark.parametrize("argv, message", [
        (("plan", "p2", "-5"), "input error: need at least one point, got -5\n"),
        (("plan", "p2", "-.5"), "usage error: argument n: invalid int value: '-.5'\n"),
        (("divisor", "scroll", "-x"), "usage error: the following arguments are required: class\n"),
    ])
    def test_other_leading_minus_arguments_keep_their_errors(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", message)

    @pytest.mark.parametrize("space", ["p2", "quadric", "cubic-surface"])
    def test_count_beyond_the_columns_is_a_typed_error(self, capsys, space):
        # The first target of 10^20 points does not fit a 64-bit column.
        n = 10**20
        assert run(capsys, "plan", space, str(n)) == (
            1, "", f"error: {n} points: a chain's counts and parameters must fit in 64 bits\n")

    @pytest.mark.parametrize("space, steps", [("p2", 2147483647), ("quadric", 145474193),
                                              ("cubic-surface", 4866574736)])
    def test_count_past_the_step_budget_is_a_typed_error(self, capsys, space, steps):
        # 2^63 - 1 fits the columns, but the first piece of its chain
        # passes the budget, and nothing of it is written.
        n = 2**63 - 1
        assert run(capsys, "plan", space, str(n)) == (
            1, "", f"error: {n} points: the chain passes {steps} steps,"
                   " more than the 134217728 a plan may take\n")

    def test_descent_split_display(self, capsys):
        code, out, _ = run(capsys, "divisor", "bordiga", "7;2^9,0")
        assert code == 0
        assert "C-H: 3;1^9,-1 = 3;1^9,0 + E10 (4,0)" in out

    def test_unknown_surface(self, capsys):
        code, _, err = run(capsys, "divisor", "veronese", "1;0")
        assert code == 1
        assert "input error" in err

    def test_unknown_surface_message_is_not_quoted(self, capsys):
        code, out, err = run(capsys, "divisor", "nope", "1;1")
        assert (code, out) == (1, "")
        assert err == ("input error: no surface named 'nope'; known: bordiga, castelnuovo,"
                       " cubic, delpezzo, det10, quadric, scroll\n")

    def test_rank_mismatch(self, capsys):
        code, _, err = run(capsys, "divisor", "scroll", "1;0,0,0")
        assert code == 1

    def test_rank_checked_before_runs_expand(self, capsys):
        code, out, err = run(capsys, "divisor", "bordiga", "4;1^10000000")
        assert code == 1
        assert out == ""
        assert "input error: class of length 10000001 does not fit rank 11" in err

    def test_malformed_class(self, capsys):
        code, _, err = run(capsys, "divisor", "scroll", "nonsense")
        assert code == 1

    # Head and tail share one ASCII grammar; "1_0" once read as 10.
    @pytest.mark.parametrize("text", ["1_0;1", "+2;1", "٢;1", "2;١"])
    def test_coefficients_are_ascii_integers(self, capsys, text):
        code, out, err = run(capsys, "divisor", "scroll", text)
        assert code == 1
        assert out == ""
        assert "error: bad" in err

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "divisor", "det10", "1;1", "--json")
        assert code == 0
        result = json.loads(out)["result"]
        assert (result["degree"], result["genus"], result["C2"]) == (20, 26, 35)
        assert result["effective_general"].startswith("n/a")


def _seeded_classes(name, rank, count=20):
    """``count`` class strings of the given rank, seeded by the surface name,
    each with a head of at least 0, as the pins below were computed."""
    rng = random.Random(name)
    return [";".join([str(rng.randint(0, 8)),
                      ",".join(str(rng.randint(-2, 4)) for _ in range(rank - 1))])
            for _ in range(count)]


# SHA-256 of the concatenated `divisor NAME CLASS --json` stdout over
# _seeded_classes(NAME, rank), one pin per surface.
DIVISOR_JSON = {
    "bordiga": "a73ef48f5460a4438d318f71072d5abfc76a3cc745a690cc0f9f4bb90bf93975",
    "castelnuovo": "27b0ba973bae070510898e6867adcdf888b767a3c3da2eee6ddcc460a3b15548",
    "cubic": "9256754722d9893ee98618aaf5b57105c509b8f63b0f02fa7d16feb7b9c74d4e",
    "delpezzo": "3eb25bb8e69c83200d299300e7be0eb76327b9db422c89d3f804c80a36ef0ba2",
    "det10": "1397bc526796d1248f9275a5aceb5e5fb29ca48b65f88cda2938379737d8857c",
    "quadric": "78ff3ae1ab42cd340222ce8c09a6e7f6c3ffaf12df1b68e50fc67fe3868a210a",
    "scroll": "2945547e39c934a4d21c76683de26816a2975e6b1ee3c29f2df6e7dfb19b7ba8",
}


@pytest.mark.parametrize("name", sorted(DIVISOR_JSON))
def test_divisor_json_pinned(capsys, name):
    outs = []
    for text in _seeded_classes(name, surface(name).basis_rank):
        code, out, err = run(capsys, "divisor", name, text, "--json")
        assert (code, err) == (0, "")
        outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == DIVISOR_JSON[name]


class TestHvectorCommand:
    def test_degree_twenty(self, capsys):
        code, out, _ = run(capsys, "hvector", "20", "3")
        assert code == 0
        assert "26" in out and "(1,3,6,10)" in out

    def test_degree_ten_both_codims(self, capsys):
        code, out, _ = run(capsys, "hvector", "10", "3", "--quiet")
        assert code == 0 and out.strip() == "6"
        code, out, _ = run(capsys, "hvector", "10", "2", "--quiet")
        assert code == 0 and out.strip() == "11"

    def test_too_small_degree(self, capsys):
        code, _, err = run(capsys, "hvector", "3", "3")
        assert code == 1
        assert "input error" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "hvector", "20", "3", "--json")
        result = json.loads(out)["result"]
        assert result == {"degree": 20, "codim": 3, "min_genus": 26,
                          "witness": [1, 3, 6, 10]}


# SHA-256 of the stdout of ``glicci verify SUITE [MODE]``, taken before
# the suites became tables of rows.
VERIFY_STDOUT = {
    ("catalog", ""): "673e2c04b35137057f7c5e4c45d79715649b40afac5ed00d3db70d118b22ab3c",
    ("catalog", "--quiet"): "c28ffe06eba45ba53c7cb0f9dbbe065123614a6f502a028bb13021605e207750",
    ("catalog", "--json"): "4a151fffdd9020115be495d2608292cbb8d3686abc368392c6a95772b29cdebb",
    ("bordiga", ""): "d235ca433cbf0b352ce604444fc34cdb5ebf9e7786d7c7fef6b86263d5c478f6",
    ("bordiga", "--quiet"): "d090485e76fc71d37fa11530a43466604f26e77b5f2819eb8675261f1d251c03",
    ("bordiga", "--json"): "cf90e162d3d250a6dfc8855b23d6f3ea4c1933a7b2159358c326f1c6badcf7eb",
    ("deg20", ""): "ef09c2858144fac72b34a8402bc8b3a7880dede6bee03ed5aaa72fcb224be094",
    ("deg20", "--quiet"): "5f477edeeec74b1eeba91d66ac12711f836c895ab1a1e9d8601c6d6452464e46",
    ("deg20", "--json"): "5921afd73c4baa677f506dff8800509e03787e25e2dbc478bbb127e4f92091b6",
    ("rao", ""): "b4fc30b9b364ef79160aedaebde02bf26e2c4dff6b88027188667d0e700353b8",
    ("rao", "--quiet"): "84e581b54414d46c8e584a8e478b16a7918ec9ba18ca2091f25b5868f3949533",
    ("rao", "--json"): "53891f8ccf4173bf3a3cbb0c7710cd77634a2e6cd5f4172aade67567f2631630",
    ("all", ""): "99533d87d904a781d714d724626907aa8a1a17d7a8cef9ba56c5fc84116a6a5a",
    ("all", "--quiet"): "b63b40a85af4ca43ebe4e9d5d5152feb7ff9ac10bfbe88a71ac66c2b26fd6622",
    ("all", "--json"): "700c63d34de3aa19390e987bb8530d7da31a703895b85434e3dea7559bd17672",
}


class TestVerifyCommand:
    @pytest.mark.parametrize("suite,mode", sorted(VERIFY_STDOUT))
    def test_stdout_pinned(self, capsys, suite, mode):
        code, out, _ = run(capsys, "verify", suite, *mode.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT[suite, mode]

    def test_all_exit_zero_and_many_claims(self, capsys):
        code, out, _ = run(capsys, "verify", "all")
        assert code == 0
        claim_lines = [l for l in out.splitlines() if l and ":" in l][:-1]
        assert len(claim_lines) >= 40
        assert "0 fail, 2 flagged" in out

    def test_deg20_contains_k2_line(self, capsys):
        code, out, _ = run(capsys, "verify", "deg20")
        assert code == 0
        assert "K2 = 5 (expected 5) pass" in out

    def test_bordiga_has_one_flagged(self, capsys):
        code, out, _ = run(capsys, "verify", "bordiga")
        assert code == 0
        flagged = [l for l in out.splitlines() if l.endswith(") flagged")]
        assert len(flagged) == 1 and "complement-indexing" in flagged[0]

    def test_quiet_summary_only(self, capsys):
        code, out, _ = run(capsys, "verify", "rao", "--quiet")
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    def test_json_records(self, capsys):
        code, out, _ = run(capsys, "verify", "catalog", "--json")
        assert code == 0
        records = json.loads(out)["result"]
        assert all(rec["status"] == "pass" for rec in records)


class TestTopLevel:
    def test_package_exports_names_not_submodules(self):
        import glicci

        for module in ("catalog", "claims", "errors", "hvector", "moves", "picard", "planner"):
            assert module not in glicci.__all__
        assert {"plan", "DivisorClass", "verify_all"} <= set(glicci.__all__)

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0

    def test_missing_command_is_usage_error(self, capsys):
        assert main([]) == 1


def _differential_corpus():
    """Command lines for the plain path and for argparse: every command's
    plain lines with --json and --quiet before, between, after and
    repeated (and the abbreviation --js), and lines argparse alone reads
    or refuses; the flags' places are drawn by a fixed seed."""
    rng = random.Random(32)
    bases = [("plan", space, n) for space in ("p2", "quadric", "cubic-surface", "p3")
             for n in ("1", "5", "20", "137")]
    bases += [("plan", "p2", n) for n in ("-5", "-.5", " 5", "1_000", "0", "x", "٣")]
    bases += [("plan", "nope", "5"), ("plan", "P2", "5"), ("plan", "p2"), ("plan", "p2", "5", "6")]
    bases += [("divisor", name, cls) for name in ("bordiga", "scroll", "det10", "nope")
              for cls in ("6;2^3,1^7", "1;1", "-1;0", "abc", "", "1;0 ")]
    bases += [("divisor", "bordiga"), ("divisor", "bordiga", "6;2^3,1^7", "1;1")]
    bases += [("hvector", d, codim) for d in ("20", "3", " 7", "1_0", "-5", "x")
              for codim in ("2", "3", "4", "-1", "three")]
    bases += [("hvector", "20"), ("hvector", "20", "3", "3")]
    bases += [("verify", suite) for suite in ("catalog", "rao", "deg20", "bordiga", "all", "al")]
    bases += [("verify",), ("verify", "rao", "rao"), ("nope", "5"), ("Plan", "p2", "5")]
    corpus = [[], ["-h"], ["--version"], ["--json", "plan", "p2", "5"], ["--", "plan", "p2", "5"],
              ["plan", "--", "p2", "5"], ["plan", "p2", "--", "5"], ["plan", "-h"],
              ["plan", "p2", "5", "--help"], ["plan", "p2", "5", "--json=1"],
              ["divisor", "scroll", "--", "-1;0"], ["plan", "p2", "5", "-"]]
    for base in bases:
        for flags in ([], ["--json"], ["--quiet"], ["--json", "--quiet"], ["--quiet", "--quiet"],
                      ["--json", "--quiet", "--json"], ["--js"]):
            if base[:2] == ("verify", "all") and flags:
                continue  # the full claim suites are pinned above in every mode
            argv = list(base)
            for flag in flags:
                argv.insert(rng.randint(1, len(argv)), flag)
            corpus.append(argv)
    return corpus


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    return code, capsys.readouterr()


def test_plain_command_lines_match_argparse(capsys, monkeypatch):
    # The plain path gives every line argparse's namespace, and with it the
    # same output and exit code; a line it does not take goes to argparse.
    monkeypatch.setenv("COLUMNS", "80")
    corpus = _differential_corpus()
    plain = [cli._plain_args(argv) for argv in corpus]
    assert sum(args is not None for args in plain) > 250
    assert sum(args is None for args in plain) > 300
    for argv, args in zip(corpus, plain):
        if args is not None:
            assert vars(args) == vars(cli._build_parser().parse_args(argv)), argv
    fast = [_outcome(capsys, argv) for argv in corpus]
    monkeypatch.setattr(cli, "_plain_args", lambda argv: None)
    for argv, outcome in zip(corpus, fast):
        assert _outcome(capsys, argv) == outcome, argv


# The -h text of the program and of each subcommand at 80 columns, the
# same on Python 3.10 to 3.13.
_HELP = {
    (): """usage: glicci [-h] [--version] {plan,divisor,hvector,verify} ...

Exact arithmetic for divisor classes on rational surfaces and validated
liaison/biliaison reduction chains.

positional arguments:
  {plan,divisor,hvector,verify}
    plan                reduce n general points to a single point
    divisor             evaluate a divisor class on a surface
    hvector             minimal genus for a degree, with witness
    verify              run the numeric claim suites

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    ("plan",): """usage: glicci plan [-h] [--json] [--quiet] {p2,quadric,cubic-surface,p3} n

positional arguments:
  {p2,quadric,cubic-surface,p3}
  n

options:
  -h, --help            show this help message and exit
  --json
  --quiet
""",
    ("divisor",): """usage: glicci divisor [-h] [--json] [--quiet] surface class

positional arguments:
  surface     registered surface name, e.g. bordiga
  class       class string 'a;b1,...,br'; runs may be abbreviated, e.g.
              '6;2^3,1^7'

options:
  -h, --help  show this help message and exit
  --json
  --quiet
""",
    ("hvector",): """usage: glicci hvector [-h] [--json] [--quiet] d {2,3}

positional arguments:
  d
  {2,3}

options:
  -h, --help  show this help message and exit
  --json
  --quiet
""",
    ("verify",): """usage: glicci verify [-h] [--json] [--quiet] {catalog,bordiga,deg20,rao,all}

positional arguments:
  {catalog,bordiga,deg20,rao,all}

options:
  -h, --help            show this help message and exit
  --json
  --quiet
""",
}


@pytest.mark.parametrize("command", list(_HELP), ids=lambda c: " ".join(c) or "glicci")
def test_help_text_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main([*command, "-h"])
    assert info.value.code == 0
    assert capsys.readouterr() == (_HELP[command], "")


class TestProcessExit:
    """A process ends through ``run``, which freezes the heap after
    ``main`` so that the collections at interpreter exit skip it; ``main``
    called in-process freezes nothing."""

    def test_module_run_freezes_after_main(self):
        probe = (
            "import gc, runpy, sys\n"
            "sys.argv = ['glicci', 'hvector', '20', '3', '--quiet']\n"
            "try:\n"
            "    runpy.run_module('glicci.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, gc.get_freeze_count() > 0, file=sys.stderr)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": str(ROOT / "src")},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "26\n"
        assert result.stderr == "0 True\n"

    def test_main_in_process_does_not_freeze(self, capsys):
        before = gc.get_freeze_count(), gc.isenabled()
        assert main(["hvector", "20", "3", "--quiet"]) == 0
        assert main(["plan", "p3", "20"]) == 2
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_script_target_is_the_module_entry(self):
        pyproject = (ROOT / "pyproject.toml").read_text()
        target = re.search(r'^glicci = "glicci\.cli:(\w+)"$', pyproject, re.MULTILINE)
        assert target is not None and target[1] != "main"
        source = (ROOT / "src" / "glicci" / "cli.py").read_text()
        assert source.endswith(f'\nif __name__ == "__main__":\n    sys.exit({target[1]}())\n')

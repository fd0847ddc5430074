import hashlib
import json

import pytest

from glicci.cli import main
from glicci.moves import Chain, validate_chain


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

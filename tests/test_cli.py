import json

import pytest

from glicci.cli import main
from glicci.moves import Chain


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
        chain.validate()
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


class TestVerifyCommand:
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

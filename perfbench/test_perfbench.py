"""Self-tests of the benchmark: every output check fires on a
deliberately wrong output, forgeries are forged, the tracer accounts
self time and survives a missing hook, and compare gives its verdicts."""

import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (str(HERE), str(HERE.parent / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from glicci import errors, planner  # noqa: E402
from glicci.claims import records_as_dicts, verify_all  # noqa: E402
from glicci.hvector import min_genus, min_genus_formula  # noqa: E402


def chain_dict(space, n):
    return planner.plan(space, n).to_dict()


class TestChainCheck:
    def test_genuine_chains_pass(self):
        for space, n in (("p2", 137), ("quadric", 95), ("cubic-surface", 54),
                         ("cubic-surface", 18), ("cubic-surface", 2), ("p3", 19)):
            assert checks.check_chain(chain_dict(space, n), space, n) is None

    def test_broken_linkage(self):
        data = chain_dict("cubic-surface", 54)
        data["steps"][3]["from"] += 1
        assert "chain sits at" in checks.check_chain(data, "cubic-surface", 54)

    def test_liaison_total(self):
        data = chain_dict("cubic-surface", 54)
        data["steps"][2]["carrier"]["g"] += 1
        assert "!=" in checks.check_chain(data, "cubic-surface", 54)

    def test_biliaison_drop(self):
        data = chain_dict("p2", 137)
        data["steps"][0]["h"] += 1
        assert checks.check_chain(data, "p2", 137).startswith("step 0")

    def test_terminal_not_one(self):
        data = chain_dict("quadric", 95)
        data["steps"].pop()
        assert "not 1" in checks.check_chain(data, "quadric", 95)

    def test_terminal_field(self):
        data = chain_dict("quadric", 95)
        data["terminal"] = 2
        assert "terminal field" in checks.check_chain(data, "quadric", 95)

    def test_wrong_start_or_space(self):
        data = chain_dict("p2", 137)
        assert checks.check_chain(data, "p2", 138) is not None
        assert checks.check_chain(data, "quadric", 137) is not None

    def test_recorded_sequence(self, monkeypatch):
        monkeypatch.setitem(checks.RECORDED_CUBIC, 18, [18, 20, 1])
        assert "recorded" in checks.check_chain(chain_dict("cubic-surface", 18),
                                                "cubic-surface", 18)


class TestClaimsCheck:
    def test_passes(self):
        assert checks.check_claims(records_as_dicts(verify_all())) is None

    def test_a_failure(self):
        records = records_as_dicts(verify_all())
        records[0]["status"] = "fail"
        assert "failing" in checks.check_claims(records)

    def test_flags_must_be_the_documented_two(self):
        records = records_as_dicts(verify_all())
        flagged = [r for r in records if r["status"] == "flagged"]
        flagged[0]["status"] = "pass"
        assert "flagged" in checks.check_claims(records)
        records = records_as_dicts(verify_all())
        next(r for r in records if r["status"] == "pass")["status"] = "flagged"
        assert "flagged" in checks.check_claims(records)

    def test_too_few(self):
        assert "only" in checks.check_claims(records_as_dicts(verify_all())[:10])


class TestMinGenusCheck:
    def test_passes(self):
        for d in (4, 10, 20, 57, 999):
            genus, witness = min_genus(d, 3)
            assert checks.check_min_genus(d, genus, list(witness.entries),
                                          min_genus_formula(d)) is None

    def test_fires(self):
        genus, witness = min_genus(20, 3)
        entries = list(witness.entries)
        assert checks.check_min_genus(20, genus + 1, entries, genus + 1) is not None
        assert checks.check_min_genus(20, genus, entries, genus + 1) is not None
        assert checks.check_min_genus(20, genus, entries[:-1] + [entries[-1] + 1],
                                      genus) is not None


class TestCliChecks:
    def envelope(self, command, result):
        return json.dumps({"command": command, "inputs": {}, "result": result,
                           "version": "0"})

    def test_envelope(self):
        data = chain_dict("p2", 40)
        assert checks.check_envelope(self.envelope("plan", data), "plan", data) is None
        other = copy.deepcopy(data)
        other["steps"][0]["h"] += 1
        assert "differs" in checks.check_envelope(self.envelope("plan", other), "plan", data)
        assert "parse" in checks.check_envelope("not json", "plan", data)
        assert "command" in checks.check_envelope(self.envelope("verify", data), "plan", data)

    def test_exit_codes(self):
        assert checks.check_exit(2, checks.EXIT_OPEN) is None
        assert checks.check_exit(0, checks.EXIT_OPEN) is not None
        assert checks.check_exit(1, checks.EXIT_OK) is not None

    def test_plan_text(self):
        chain = planner.plan("cubic-surface", 18)
        text = "\n".join(f"{s.n_from} -> {s.n_to} {s.descriptor()}" for s in chain.steps)
        good = text + f"\nterminal: 1 after {len(chain.steps)} moves\n"
        assert checks.check_plan_text(good, chain.point_sequence()) is None
        assert checks.check_plan_text(good.replace("20 -> 28", "20 -> 27"),
                                      chain.point_sequence()) is not None
        assert checks.check_plan_text(text, chain.point_sequence()) is not None

    def test_divisor_json(self, capsys):
        from glicci.cli import main

        for name, coeffs in (("bordiga", (6, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1)),
                             ("det10", (3, 1)), ("cubic", (5, 2, 2, 1, 1, 0, 0))):
            assert main(["divisor", name, workloads._class_text(coeffs), "--json"]) == 0
            out = capsys.readouterr().out
            assert checks.check_divisor_json(out, name, coeffs) is None
            wrong = json.loads(out)
            wrong["result"]["genus"] += 1
            assert "genus" in checks.check_divisor_json(json.dumps(wrong), name, coeffs)


class TestDivisorCheck:
    def test_agrees_with_library_and_fires(self):
        from glicci.catalog import surface
        from glicci.picard import DivisorClass

        rng = random.Random(5)
        for _ in range(300):
            name = workloads.surface_draw(rng)
            coeffs = workloads.random_class(rng, name)
            model = surface(name)
            cls = DivisorClass.parse(workloads._class_text(coeffs))
            assert cls.coeffs == coeffs
            try:
                genus = model.genus_of(cls)
            except errors.NonIntegralGenus:
                genus = "odd"
            eff = model.is_effective_general(cls) if name in checks.BLOWUP_H else None
            got = (model.degree_of(cls), genus, eff)
            assert checks.check_divisor(name, coeffs, got) is None
            assert checks.check_divisor(name, coeffs, (got[0] + 1,) + got[1:]) is not None


class TestForgeries:
    def test_verdict_check_fires(self):
        assert checks.check_verdict(True, None, errors.InvalidMove) == "forged chain accepted"
        assert "not InvalidMove" in checks.check_verdict(True, KeyError("x"), errors.InvalidMove)
        assert checks.check_verdict(True, errors.InvalidMove("x"), errors.InvalidMove) is None
        assert "genuine" in checks.check_verdict(False, errors.InvalidMove("x"),
                                                 errors.InvalidMove)

    def test_genuine_carriers_are_registered(self):
        for space, n in (("p2", 5000), ("quadric", 2), ("quadric", 4000),
                         ("cubic-surface", 9999), ("p3", 19), ("p3", 17)):
            for step in chain_dict(space, n)["steps"]:
                c = step["carrier"]
                assert checks.is_registered(space, c["d"], c["g"], c["linsys_dim"]), (space, c)

    def test_forged_carriers_are_not(self):
        rng = random.Random(3)
        for space, n in (("p2", 300), ("quadric", 300), ("cubic-surface", 300), ("p3", 19)):
            data = chain_dict(space, n)
            for how in workloads.FORGERIES:
                forged = workloads.forge_carrier(data, rng, how)
                changed = [s["carrier"] for s, t in zip(forged["steps"], data["steps"])
                           if s["carrier"] != t["carrier"]]
                assert len(changed) == 1
                c = changed[0]
                assert not checks.is_registered(space, c["d"], c["g"], c["linsys_dim"])
        for forged in (workloads._forge_roadmap_p2(), workloads._forge_roadmap_cubic()):
            c = forged["steps"][0]["carrier"]
            assert not checks.is_registered(forged["space"], c["d"], c["g"], c["linsys_dim"])


class TestTracer:
    def test_self_time_and_restore(self):
        original = planner.plan
        t = tracer.Tracer()
        t.install()
        try:
            assert planner.plan is not original
            planner.plan("cubic-surface", 54)
            # This module bound min_genus before install, so the call is
            # not where glicci looks it up and stays untraced.
            min_genus(20, 3)
        finally:
            t.uninstall()
        assert planner.plan is original
        snap = t.snapshot()
        assert snap["calls"]["planner.plan"] == 1
        assert snap["calls"]["moves.validate_chain"] == 1
        assert snap["calls"]["hvector.min_genus"] == 0
        assert snap["counts"]["planner.steps"] == 16
        assert 0 < snap["self_s"]["planner.plan"] <= snap["plan_total_s"]
        metrics = tracer.layer_metrics(snap)
        assert metrics["planner.steps"] == (16, "count")

    def test_errors_counted_once(self):
        t = tracer.Tracer()
        t.install()
        try:
            with pytest.raises(errors.OutOfGuaranteedRange):
                planner.plan("p3", 20)
        finally:
            t.uninstall()
        assert t.errors["planner"] == 1
        assert sum(t.errors.values()) == 1

    def test_missing_hook_warns(self, monkeypatch, capsys):
        hooks = tracer.HOOKS + (("hvector.min_genus", "glicci.hvector", "no_such_name"),)
        monkeypatch.setattr(tracer, "HOOKS", hooks)
        t = tracer.Tracer()
        t.install()
        t.uninstall()
        assert "no_such_name not found" in capsys.readouterr().err


class TestReporting:
    def test_tail_has_ten_beyond(self):
        lat = [float(i) for i in range(100)]
        value, pct = run.tail(lat)
        assert sum(v > value for v in lat) == 10
        assert pct == 90.0

    def test_verdicts(self):
        steady = [100.0, 101.0, 99.0, 100.5, 99.5]
        assert compare.verdict(steady, steady, 0.1, "lower") == "within bound"
        assert compare.verdict(steady, [v * 1.5 for v in steady], 0.1, "lower") == "worse"
        assert compare.verdict(steady, [v * 0.5 for v in steady], 0.1, "lower") == "better"
        assert compare.verdict(steady, [v * 0.5 for v in steady], 0.1, "higher") == "worse"
        noisy = [50.0, 150.0, 100.0, 60.0, 140.0]
        assert compare.verdict(noisy, steady, 0.1, "lower") == "unresolved"

    def test_summary_flags_every_metric(self):
        bench = {"end_to_end": [{"name": "setup_s", "bound": 0.25}]}
        runs = [{"workload": "deep", "trace": 0, "failed": 0, "attempted": 1, "correct": True,
                 "metrics": {"setup_s": v}} for v in (0.05, 0.1, 0.2, 0.1, 0.3)]
        assert "OVER BOUND" in compare.summary_table(runs, bench)

    def test_refuses_different_run_lengths(self, tmp_path, capsys):
        paths = []
        for k, seconds in enumerate((40, 20)):
            path = tmp_path / f"{k}.json"
            path.write_text(json.dumps({"runs": [{"workload": "deep", "trace": 0,
                                                  "facts": {"seconds": seconds},
                                                  "metrics": {}}]}))
            paths.append(str(path))
        assert compare.main(paths) == 1
        assert "same run length" in capsys.readouterr().err


class TestChildEnv:
    def test_bytecode_cache_on_and_src_first(self, monkeypatch):
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        env = workloads.child_env()
        assert "PYTHONDONTWRITEBYTECODE" not in env
        assert env["PYTHONPATH"].split(os.pathsep)[0] == str(workloads.SRC)


class TestWorkerFailures:
    """A worker that hangs or prints something unexpected is a failed
    operation; the run goes on."""

    def test_timeout_is_a_failed_process(self, monkeypatch):
        monkeypatch.setattr(workloads, "SUBPROCESS_TIMEOUT_S", 0.2)
        wall, proc = workloads._spawn([sys.executable, "-c", "import time; time.sleep(30)"])
        assert wall < 10
        assert proc.returncode != 0 and "killed after" in proc.stderr
        assert "worker exited" in workloads._worker_result(wall, proc)["error"]

    def test_unexpected_output(self):
        for stdout in ("", "not json\n", "[1, 2]\n", '{"op_s": 1}\n'):
            proc = subprocess.CompletedProcess([], 0, stdout, "")
            assert "no result line" in workloads._worker_result(0.1, proc)["error"]

    def fake_spawn(self, stdout, stderr=""):
        return lambda argv: (0.001, subprocess.CompletedProcess(argv, 0, stdout, stderr))

    def test_deep_counts_them(self, monkeypatch):
        monkeypatch.setattr(workloads, "_spawn", self.fake_spawn("garbage\n"))
        tally = workloads.Deep().run([("p2", 10**7)], 0.05, False)
        assert tally.attempted >= 1 and tally.failed == tally.attempted

    def test_cli_counts_missing_trace_figures(self, monkeypatch):
        cmd = workloads.Command(["verify", "all"], checks.EXIT_OK, lambda out: None)
        monkeypatch.setattr(workloads, "_spawn", self.fake_spawn("", "no figures\n"))
        tally = workloads.Cli().run([cmd], 0.05, True)
        assert tally.attempted >= 1 and tally.failed == tally.attempted
        assert "no figures" in tally.reasons[0]

"""The three workloads: inputs from a seed, timed operations, checks.

Each workload has ``setup(seed)``, which imports glicci afresh and makes
the inputs (verify also warms up in-process), and
``run(state, seconds, trace)``, which runs
operations in a closed loop with one caller until the time is up and
returns a :class:`Tally`.  Outputs are checked outside the timed region;
a wrong output counts as a failed operation and the run goes on.

Why these three (see NOTES.md for the metrics each should move):

* ``deep``   -- one fresh worker process per ``plan`` at n in
  [10^7, 10^8]: first-call cost, carrier construction and cache memory.
* ``cli``    -- one ``python -m glicci.cli`` process per command:
  interpreter start, import and argparse, as a shell user feels them.
* ``verify`` -- in-process, warm, on input from outside the program:
  JSON chains (genuine and forged), class strings, ``min_genus``, the
  claim suites and the reachability oracle.  Run by hand: its outputs
  and failure count are exact, but its timings drift with a shared
  machine's speed more than BENCHMARK.json's bounds allow.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import resource
import signal
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import checks
from tracer import Tracer, empty_snapshot, layer_metrics, merge
from worker import STATS_PREFIX

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
GOLDEN = 0.6180339887498949
SUBPROCESS_TIMEOUT_S = 60
IN_PROCESS_PASSES = 4
PROCESS_PASSES = 2


class SetupError(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def fresh_import():
    """Import glicci from this checkout's ``src`` as a new process would."""
    if not (SRC / "glicci" / "__init__.py").is_file():
        raise SetupError(f"no glicci package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "glicci" or m.startswith("glicci.")]:
        del sys.modules[name]
    glicci = importlib.import_module("glicci")
    if Path(glicci.__file__).resolve().parent != (SRC / "glicci").resolve():
        raise SetupError(f"imported glicci from {glicci.__file__}, not from {SRC}")
    return glicci


def child_env() -> dict:
    """The caller's environment with this checkout's ``src`` first on the
    path and the bytecode cache on (see run.py)."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spread_draws(rng: random.Random, count: int) -> list[float]:
    """``count`` fractions in [0, 1): a golden-ratio sequence from a
    seeded offset.  Any prefix covers [0, 1) evenly, so short runs of
    expensive operations see the same size mix whatever the seed."""
    u = rng.random()
    return [(u + k * GOLDEN) % 1.0 for k in range(count)]


@dataclass
class Tally:
    """What a run measured.  Operation ``i`` may run once per pass; its
    latency (seconds) is the best of its runs, and every run is checked."""

    lat: array = field(default_factory=lambda: array("d"))
    steps: array = field(default_factory=lambda: array("q"))
    chain: bytearray = field(default_factory=bytearray)
    attempted: int = 0
    failed: int = 0
    wrong_on_valid_input: int = 0
    reasons: list[str] = field(default_factory=list)
    failures_by_case: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    traced_s: float = 0.0
    untraced_s: float = 0.0
    trace: dict = field(default_factory=empty_snapshot)
    extra: dict = field(default_factory=dict)

    def record(self, i: int, seconds: float, error: str | None, valid_input: bool = True,
               steps: int = 0, chain: bool = False) -> None:
        self.attempted += 1
        if i == len(self.lat):
            self.lat.append(seconds)
            self.steps.append(steps)
            self.chain.append(chain)
        elif seconds < self.lat[i]:
            self.lat[i] = seconds
        if error is not None:
            self.failed += 1
            self.wrong_on_valid_input += valid_input
            case = error.split(":", 1)[0][:60]
            self.failures_by_case[case] = self.failures_by_case.get(case, 0) + 1
            if len(self.reasons) < 5:
                self.reasons.append(error)


def in_passes(seconds: float, passes: int, run_op) -> None:
    """Call ``run_op(0)``, ``run_op(1)``, ... for the first 1/passes of
    the time, then the same indices again in each later pass until the
    time is up.  A shared machine's speed drifts by tens of percent over
    seconds; the best of runs spread over the whole period measures the
    program, not its neighbours."""
    start = perf_counter()
    deadline = start + seconds
    count = 0
    while perf_counter() < start + seconds / passes:
        run_op(count)
        count += 1
    for _ in range(passes - 1):
        for i in range(count):
            if perf_counter() >= deadline:
                return
            run_op(i)


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# In-process workloads.  An op is (call, args, check): ``call(*args)`` is
# timed and reaches glicci through package attributes at call time, so a
# traced run sees the wrappers; ``check(result)`` returns
# (error or None, valid_input, steps, is_chain_op).

def _timed(call, args):
    start = perf_counter()
    try:
        out = call(*args)
    except Exception as exc:  # a typed rejection can be the right answer
        out = exc
    return perf_counter() - start, out


def run_in_process(ops: list, seconds: float, trace: bool, block: int = 64) -> Tally:
    tally = Tally()

    def run_block(b: int) -> None:
        batch = [ops[(b * block + k) % len(ops)] for k in range(block)]
        outs = [_timed(call, args) for call, args, _ in batch]
        for k, ((seconds_op, out), (_, _, check)) in enumerate(zip(outs, batch)):
            tally.record(b * block + k, seconds_op, *check(out))
        if trace:
            # Same batch again under the tracer; its wall time against the
            # untraced pass is the tracing overhead.
            tally.untraced_s += sum(s for s, _ in outs)
            tracer = Tracer()
            tracer.install()
            try:
                tally.traced_s += sum(_timed(call, args)[0] for call, args, _ in batch)
            finally:
                tracer.uninstall()
            merge(tally.trace, tracer.snapshot())

    in_passes(seconds, 1 if trace else IN_PROCESS_PASSES, run_block)
    tally.peak_rss_mb = _self_rss_mb()
    return tally


# -- verify ------------------------------------------------------------------

def _forge_roadmap_p2() -> dict:
    # 100 -> 1 by a height-99 biliaison on a "line" claiming a huge system.
    return {"space": "p2", "start": 100, "terminal": 1, "steps": [{
        "kind": "biliaison", "from": 100, "to": 1, "m": None, "h": 99,
        "carrier": {"ambient": "p2", "d": 1, "g": 0, "linsys_dim": 10**6, "label": "line"},
        "note": ""}]}


def _forge_roadmap_cubic() -> dict:
    # 50 -> 1 by H-K on a made-up (51, 1) carrier.
    return {"space": "cubic-surface", "start": 50, "terminal": 1, "steps": [{
        "kind": "liaison", "from": 50, "to": 1, "m": 1, "h": None,
        "carrier": {"ambient": "p3-cubic", "d": 51, "g": 1, "linsys_dim": 51,
                    "label": "type v"},
        "note": ""}]}


FORGERIES = ("genus", "linsys", "degree", "all")


def forge_carrier(data: dict, rng: random.Random, how: str) -> dict:
    """Copy of a serialized chain whose carrier at one seeded step gets a
    (d, g, linsys_dim) that matches no family the chain's space registers."""
    forged = json.loads(json.dumps(data))
    step = forged["steps"][rng.randrange(len(forged["steps"]))]
    carrier = step["carrier"]
    d, g, linsys = carrier["d"], carrier["g"], carrier["linsys_dim"]
    k = rng.randint(1, 3) if how != "linsys" else rng.randint(1, 10**6)
    while True:
        if how == "genus":
            new = (d, g + k, linsys)
        elif how == "linsys":
            new = (d, g, (linsys or 0) + k)
        elif how == "degree":
            new = (d + k, g, linsys)
        else:
            new = (d + k, g + k, (linsys or 0) + k)
        if not checks.is_registered(forged["space"], *new):
            break
        k += 1
    carrier["d"], carrier["g"], carrier["linsys_dim"] = new
    return forged


def _class_text(coeffs: tuple) -> str:
    """Run-length class string, e.g. (6, 2, 2, 2, 1) -> "6;2^3,1"."""
    head, tail = str(coeffs[0]), coeffs[1:]
    if not tail:
        return head
    runs: list[list[int]] = []
    for c in tail:
        if runs and runs[-1][0] == c:
            runs[-1][1] += 1
        else:
            runs.append([c, 1])
    return head + ";" + ",".join(f"{v}^{n}" if n > 1 else str(v) for v, n in runs)


def random_class(rng: random.Random, name: str) -> tuple:
    if name in checks.BLOWUP_H:
        tail = sorted((rng.randint(-1, 4) for _ in range(checks.RANKS[name] - 1)), reverse=True)
        return (rng.randint(1, 14), *tail)
    if name == "quadric":
        return (rng.randint(0, 8), rng.randint(0, 8))
    return (rng.randint(-3, 6), rng.randint(-3, 6))


SURFACE_NAMES = tuple(checks.RANKS)


def surface_draw(rng: random.Random) -> str:
    """Half the draws are the rank-11 Bordiga surface."""
    return "bordiga" if rng.random() < 0.5 else rng.choice(SURFACE_NAMES)


class Verify:
    """A fixed mix per cycle of 90 operations on outside input (see
    ``CYCLE``), with the inputs of each kind drawn by seed."""

    name = "verify"
    CYCLE = (("chain", 12), ("forged", 10), ("forged_p2", 1), ("forged_cubic", 1),
             ("divisor", 48), ("min_genus", 16), ("verify_all", 1), ("oracle", 1))
    SPACES = (("p2", 10_000), ("quadric", 10_000), ("cubic-surface", 10_000), ("p3", 19))

    def setup(self, seed: int):
        g = fresh_import()
        rng = random.Random(seed)
        invalid_move = g.errors.InvalidMove
        odd = g.errors.NonIntegralGenus

        def from_outside(text):
            chain = g.Chain.from_json(text)
            g.validate_chain(chain)
            return chain

        def chain_op(data, case):
            text = json.dumps(data)
            expect_reject = case != "genuine"

            def check(out):
                error = checks.check_verdict(
                    expect_reject, out if isinstance(out, Exception) else None, invalid_move)
                if error is None and not expect_reject:
                    if out.to_dict() != data:
                        error = "JSON round trip changed the chain"
                    else:
                        error = checks.check_chain(data, data["space"], data["start"])
                if error is not None:
                    error = f"{case} {data['space']} chain: {error}"
                return error, not expect_reject, len(data["steps"]), True

            return from_outside, (text,), check

        # The cubic chains open with the three recorded ones, 2, 18 and 54.
        genuine = []
        for space, top in self.SPACES:
            for k in range(12):
                n = (2, 18, 54)[k] if space == "cubic-surface" and k < 3 else rng.randint(2, top)
                genuine.append(g.plan(space, n).to_dict())
        forged = []
        for k in range(64):
            base = genuine[12 * (k % 4) + rng.randrange(12)]
            how = FORGERIES[(k // 4) % 4]
            forged.append((forge_carrier(base, rng, how), f"forged {how}"))

        def divisor(name, text, blowup):
            model = g.surface(name)
            cls = g.DivisorClass.parse(text)
            degree = model.degree_of(cls)
            try:
                genus = model.genus_of(cls)
            except odd:
                genus = "odd"
            return degree, genus, model.is_effective_general(cls) if blowup else None

        def divisor_op():
            name = surface_draw(rng)
            coeffs = random_class(rng, name)

            def check(out):
                if isinstance(out, Exception):
                    return f"divisor {name} {coeffs} raised {type(out).__name__}", True, 0, False
                return checks.check_divisor(name, coeffs, out), True, 0, False

            return divisor, (name, _class_text(coeffs), name in checks.BLOWUP_H), check

        def min_genus_op():
            d = rng.randint(4, 1000)

            def check(out):
                if isinstance(out, Exception):
                    return f"min_genus({d}) raised {type(out).__name__}", True, 0, False
                genus, witness = out
                return (checks.check_min_genus(d, genus, list(witness.entries),
                                               g.min_genus_formula(d)), True, 0, False)

            return g_min_genus, (d,), check

        def g_min_genus(d):
            return g.min_genus(d, 3)

        def verify_all():
            return g.verify_all()

        def check_claims(out):
            if isinstance(out, Exception):
                return f"verify_all raised {type(out).__name__}", True, 0, False
            return checks.check_claims([{"id": r.id, "status": r.status} for r in out]), True, 0, False

        def oracle(space, n_max, chain):
            o = g.build_oracle(space, n_max)
            return o, o.confirms(chain)

        oracle_ops = []
        for space, top in self.SPACES:
            for frac in spread_draws(rng, 16):
                n_max = 1 + int(frac * 10_000)
                n = rng.randint(1, min(n_max, top))
                oracle_ops.append((space, n_max, n, g.plan(space, n)))
        oracle_ops = [oracle_ops[16 * (k % 4) + k // 4] for k in range(64)]

        def oracle_op(space, n_max, n, chain):
            def check(out):
                if isinstance(out, Exception):
                    return f"build_oracle({space}, {n_max}) raised {type(out).__name__}", True, 0, False
                o, confirmed = out
                if not confirmed:
                    return f"oracle({space}, {n_max}) does not confirm the chain for {n}", True, 0, False
                top = min(n_max, 19) if space == "p3" else n_max
                missing = [k for k in range(1, top + 1) if not o.is_reachable(k)]
                if missing:
                    return f"oracle({space}, {n_max}) misses {missing[:3]}", True, 0, False
                return None, True, 0, False

            return oracle, (space, n_max, chain), check

        kinds = [kind for kind, count in self.CYCLE for _ in range(count)]
        rng.shuffle(kinds)
        ops = []
        counters = dict.fromkeys(("chain", "forged", "oracle"), 0)
        for _ in range(64):
            for kind in kinds:
                if kind == "chain":
                    ops.append(chain_op(genuine[counters["chain"] % len(genuine)], "genuine"))
                elif kind == "forged":
                    ops.append(chain_op(*forged[counters["forged"] % len(forged)]))
                elif kind == "forged_p2":
                    ops.append(chain_op(_forge_roadmap_p2(), "forged roadmap"))
                elif kind == "forged_cubic":
                    ops.append(chain_op(_forge_roadmap_cubic(), "forged roadmap"))
                elif kind == "divisor":
                    ops.append(divisor_op())
                elif kind == "min_genus":
                    ops.append(min_genus_op())
                elif kind == "verify_all":
                    ops.append((verify_all, (), check_claims))
                else:
                    ops.append(oracle_op(*oracle_ops[counters["oracle"] % len(oracle_ops)]))
                if kind in counters:
                    counters[kind] += 1
        # Warm-up: one untimed pass over one operation of each kind.
        seen = set()
        for op, kind in zip(ops, kinds):
            if kind not in seen:
                seen.add(kind)
                _timed(op[0], op[1])
        return ops

    def run(self, ops, seconds: float, trace: bool) -> Tally:
        return run_in_process(ops, seconds, trace, block=sum(c for _, c in self.CYCLE))


# ---------------------------------------------------------------------------
# Process-per-operation workloads.

def _spawn(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run one process to its end.  One that outlives the timeout is
    killed and waited for, and comes back as exit -9 with the reason on
    stderr, so that the caller counts a failed operation."""
    start = perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = subprocess.CompletedProcess(argv, -signal.SIGKILL, "",
                                           f"killed after {SUBPROCESS_TIMEOUT_S} s")
    return perf_counter() - start, proc


def prime() -> None:
    """Run one small CLI process, untimed, so that the first measured
    process does not pay for reading the interpreter and the package
    from disk."""
    _spawn([sys.executable, "-m", "glicci.cli", "hvector", "20", "3", "--quiet"])


WORKER_KEYS = {"import_s", "op_s", "steps", "peak_rss_mb", "error", "trace"}


def _worker_result(wall: float, proc: subprocess.CompletedProcess) -> dict:
    """The worker's JSON line, or a failed operation if it crashed, timed
    out or printed something else."""
    if proc.returncode == 0:
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            result = None
        if isinstance(result, dict) and WORKER_KEYS <= result.keys():
            return result
        error = f"worker printed no result line: {proc.stdout.strip()[-300:]!r}"
    else:
        error = f"worker exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return {"import_s": 0.0, "op_s": wall, "steps": 0, "peak_rss_mb": 0.0,
            "error": error, "trace": empty_snapshot()}


def _cli_stats(proc: subprocess.CompletedProcess) -> tuple[dict | None, str | None]:
    """The figures a traced CLI worker printed last on stderr."""
    lines = [ln for ln in proc.stderr.splitlines() if ln.startswith(STATS_PREFIX)]
    try:
        data = json.loads(lines[-1][len(STATS_PREFIX):])
        if isinstance(data, dict) and {"import_s", "main_s", "trace"} <= data.keys():
            return data, None
    except (ValueError, IndexError):
        pass
    return None, f"traced worker printed no figures: {proc.stderr.strip()[-300:]!r}"


class Deep:
    """One fresh worker per ``plan(space, n)``, spaces p2, quadric and
    cubic-surface in turn, n log-uniform in [10^7, 10^8] by seed; the
    op time is taken inside the worker around the call."""

    name = "deep"
    SPACES = ("p2", "quadric", "cubic-surface")

    def setup(self, seed: int):
        fresh_import()
        rng = random.Random(seed)
        per_space = {s: [int(10 ** (7 + f)) for f in spread_draws(rng, 256)] for s in self.SPACES}
        return [(s, per_space[s][k]) for k in range(256) for s in self.SPACES]

    def run(self, schedule, seconds: float, trace: bool) -> Tally:
        tally = Tally()
        imports = []
        by_space = {space: empty_snapshot() for space in self.SPACES}

        def run_op(i: int) -> None:
            space, n = schedule[i % len(schedule)]
            argv = [sys.executable, str(WORKER), "plan", space, str(n)]
            result = _worker_result(*_spawn(argv))
            imports.append(result["import_s"])
            error = result["error"]
            if trace:
                # The traced run of the same op is checked too; the op
                # fails if either run's output was wrong.
                traced = _worker_result(*_spawn(argv + ["--trace"]))
                error = error or traced["error"]
                tally.untraced_s += result["op_s"]
                tally.traced_s += traced["op_s"]
                merge(tally.trace, traced["trace"])
                merge(by_space[space], traced["trace"])
            tally.record(i, result["op_s"], error, True, result["steps"], True)
            tally.peak_rss_mb = max(tally.peak_rss_mb, result["peak_rss_mb"])

        in_passes(seconds, 1 if trace else PROCESS_PASSES, run_op)
        if trace:
            tally.extra["lattice_share_by_space"] = {
                space: layer_metrics(snap)["planner.lattice_share"][0]
                for space, snap in by_space.items()}
        tally.extra["worker_import_ms_median"] = median(imports) * 1e3 if imports else 0.0
        return tally


@dataclass
class Command:
    argv: list[str]
    exit_code: int
    check: object          # callable(stdout) -> error or None
    plan_steps: int = -1   # steps of the chain a plan command prints


MALFORMED = ("6;2^x,1^7", "6;2^3", "abc", "6;", "6;2^0,1^10")


class Cli:
    """A fixed cycle of 16 commands, parameters drawn by seed: ``plan``
    in each space as text and ``--json``, ``plan p3 20`` (exit 2),
    ``divisor`` on bordiga, det10 and cubic, a malformed class (exit 1),
    ``hvector`` and ``verify all`` with ``--quiet`` and ``--json``."""

    name = "cli"
    SPACES = (("p2", 1000), ("quadric", 1000), ("cubic-surface", 1000), ("p3", 19))
    CYCLES = 24

    def setup(self, seed: int):
        g = fresh_import()
        rng = random.Random(seed)
        claims_json: list = []

        def claims_result():
            if not claims_json:
                claims_json.append(g.records_as_dicts(g.verify_all()))
            return claims_json[0]

        def plan_cmd(space, n, as_json):
            chain = g.plan(space, n)
            data = chain.to_dict()

            def check(out):
                error = checks.check_chain(data, space, n)
                if error is None:
                    if as_json:
                        error = checks.check_envelope(out, "plan", data)
                    else:
                        error = checks.check_plan_text(out, chain.point_sequence())
                return error

            argv = ["plan", space, str(n)] + (["--json"] if as_json else [])
            return Command(argv, checks.EXIT_OK, check, len(chain.steps))

        def divisor_cmd(name):
            # Even classes with a leading coefficient that argparse cannot
            # mistake for an option.
            coeffs = random_class(rng, name)
            while checks.expected_divisor(name, coeffs)[1] == "odd" or coeffs[0] < 0:
                coeffs = random_class(rng, name)
            return Command(["divisor", name, _class_text(coeffs), "--json"], checks.EXIT_OK,
                           lambda out: checks.check_divisor_json(out, name, coeffs))

        def hvector_cmd(d):
            def check(out):
                res, error = checks.hvector_result(out)
                return error or checks.check_min_genus(d, res["min_genus"], res["witness"],
                                                       g.min_genus_formula(d))
            return Command(["hvector", str(d), "3", "--json"], checks.EXIT_OK, check)

        def verify_quiet(out):
            records = claims_result()
            npass = sum(r["status"] == "pass" for r in records)
            want = f"{len(records)} claims: {npass} pass, 0 fail, 2 flagged"
            return checks.check_claims(records) or (
                None if out.strip() == want else f"verify --quiet printed {out.strip()!r}")

        def verify_json(out):
            return checks.check_claims(claims_result()) or checks.check_envelope(
                out, "verify", claims_result())

        # Plan sizes spread evenly whatever the seed, so that the chain
        # lengths, and with them the work per cycle, do not vary by seed.
        sizes = {space: [1 + int(f * top) for f in spread_draws(rng, 2 * self.CYCLES)]
                 for space, top in self.SPACES}

        def cycle(k):
            cmds = []
            for space, _ in self.SPACES:
                if space == "cubic-surface" and k < 3:
                    n = (2, 18, 54)[k]  # the recorded chains
                    cmds += [plan_cmd(space, n, False), plan_cmd(space, n, True)]
                    continue
                cmds.append(plan_cmd(space, sizes[space][2 * k], False))
                cmds.append(plan_cmd(space, sizes[space][2 * k + 1], True))
            cmds.append(Command(["plan", "p3", "20"], checks.EXIT_OPEN, lambda out: None))
            for name in ("bordiga", "det10", "cubic"):
                cmds.append(divisor_cmd(name))
            cmds.append(Command(["divisor", "bordiga", rng.choice(MALFORMED)],
                                checks.EXIT_INPUT, lambda out: None))
            cmds.append(hvector_cmd(rng.randint(4, 200)))
            cmds.append(Command(["verify", "all", "--quiet"], checks.EXIT_OK, verify_quiet))
            cmds.append(Command(["verify", "all", "--json"], checks.EXIT_OK, verify_json))
            return cmds

        return [cmd for k in range(self.CYCLES) for cmd in cycle(k)]

    def run(self, commands, seconds: float, trace: bool) -> Tally:
        tally = Tally()
        imports, mains = [], []

        def run_op(i: int) -> None:
            cmd = commands[i % len(commands)]
            wall, proc = _spawn([sys.executable, "-m", "glicci.cli", *cmd.argv])
            error = checks.check_exit(proc.returncode, cmd.exit_code) or cmd.check(proc.stdout)
            if trace:
                # The traced run of the same command is checked too; the
                # op fails if either run's output was wrong.
                traced_wall, traced = _spawn([sys.executable, str(WORKER), "cli", *cmd.argv])
                data, stats_error = _cli_stats(traced)
                error = (error or checks.check_exit(traced.returncode, cmd.exit_code)
                         or cmd.check(traced.stdout) or stats_error)
                if data is not None:
                    imports.append(data["import_s"])
                    mains.append(data["main_s"])
                    merge(tally.trace, data["trace"])
                tally.untraced_s += wall
                tally.traced_s += traced_wall
            if error is not None:
                error = f"glicci {' '.join(cmd.argv)}: {error}"
            is_plan = cmd.plan_steps >= 0
            tally.record(i, wall, error, True, max(cmd.plan_steps, 0), is_plan)

        in_passes(seconds, 1 if trace else PROCESS_PASSES, run_op)
        tally.peak_rss_mb = _children_rss_mb()
        tally.extra["cli_import_ms"] = median(imports) * 1e3 if imports else 0.0
        tally.extra["cli_main_ms"] = median(mains) * 1e3 if mains else 0.0
        tally.extra["cli_traced_invocations"] = len(imports)
        return tally


WORKLOADS = {w.name: w for w in (Deep(), Cli(), Verify())}

"""Fresh-process side of the benchmark; run only by ``run.py``.

``worker.py plan SPACE N [--trace]``
    Imports glicci, times one ``plan(SPACE, N)``, checks the chain
    outside the timed region and prints one JSON line.
``worker.py cli ARG...``
    Runs ``glicci.cli.main(ARGS)`` under the tracer, timing the import
    and ``main`` apart; CLI output passes through, the figures go to
    stderr as a last line starting with ``STATS_PREFIX``, and the exit
    code is main's.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src")]

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

STATS_PREFIX = "PERFBENCH_STATS "


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def plan_once(space: str, n: int, trace: bool) -> dict:
    t0 = perf_counter()
    planner = importlib.import_module("glicci.planner")
    t1 = perf_counter()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    t2 = perf_counter()
    try:
        chain = planner.plan(space, n)
    except Exception as exc:  # a failed operation, reported as such
        chain, error = None, f"plan({space}, {n}) raised {type(exc).__name__}: {exc}"
    t3 = perf_counter()
    if tracer:
        tracer.uninstall()
    rss = _peak_rss_mb()
    if chain is not None:
        error = checks.check_chain(chain.to_dict(), space, n)
    return {
        "import_s": t1 - t0,
        "op_s": t3 - t2,
        "steps": len(chain.steps) if chain is not None else 0,
        "peak_rss_mb": rss,
        "error": error,
        "trace": tracer.snapshot() if tracer else None,
    }


def cli_once(argv: list[str]) -> int:
    t0 = perf_counter()
    cli = importlib.import_module("glicci.cli")
    t1 = perf_counter()
    tracer = Tracer()
    tracer.install()
    t2 = perf_counter()
    try:
        code = cli.main(argv)
    finally:
        t3 = perf_counter()
        tracer.uninstall()
        sys.stdout.flush()
        stats = {"import_s": t1 - t0, "main_s": t3 - t2, "trace": tracer.snapshot()}
        print(STATS_PREFIX + json.dumps(stats), file=sys.stderr)
    return code


def main(argv: list[str]) -> int:
    if argv[:1] == ["plan"] and len(argv) in (3, 4):
        print(json.dumps(plan_once(argv[1], int(argv[2]), argv[3:] == ["--trace"])))
        return 0
    if argv[:1] == ["cli"]:
        return cli_once(argv[1:])
    print("usage: worker.py plan SPACE N [--trace] | worker.py cli ARG...", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

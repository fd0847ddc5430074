"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {deep,cli,verify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; glicci is imported from its ``src``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it holds the run facts (machine, load, sample counts).

``failed`` counts operations whose output was wrong, including forged
input the program accepted; ``correct`` is false when an output on
genuine input was wrong.  No CPU pinning, cache dropping or other change
to machine settings is made: the benchmark times its own processes only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from statistics import median
from time import perf_counter

# Every process reads cached bytecode, as an installed package does,
# whatever PYTHONDONTWRITEBYTECODE says; without the cache each import
# compiles glicci anew and the figures depend on the caller's environment.
sys.dont_write_bytecode = False

import workloads  # noqa: E402
from tracer import layer_metrics  # noqa: E402

SETUP_REPEATS = 8
INTERP_REPEATS = 5


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def loadavg() -> list[float]:
    return [float(x) for x in _read("/proc/loadavg").split()[:3]] or [-1.0, -1.0, -1.0]


def bare_interpreter_s() -> float:
    """Median wall time of ``python -c pass``: the floor under every
    process-per-operation figure."""
    times = []
    for _ in range(INTERP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append(perf_counter() - start)
    return median(times)


def reference_loop_ms() -> float:
    """Time of a fixed pure-Python loop: a gauge of how fast the shared
    machine runs at this moment, recorded with the run facts only."""
    start = perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return (perf_counter() - start) * 1e3


def tail(lat: list[float]) -> tuple[float, float]:
    """Value with exactly ten samples above it, the highest percentile
    that has ten samples beyond it, and that percentile."""
    ordered = sorted(lat)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(tally, setup_times: list[float]) -> tuple[dict, dict]:
    lat = list(tally.lat)
    chain_s = sum(t for t, c in zip(lat, tally.chain) if c)
    steps = sum(n for n, c in zip(tally.steps, tally.chain) if c)
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "step_us": (chain_s / steps * 1e6 if steps else 0.0, "us"),
        "peak_rss_mb": (tally.peak_rss_mb, "MB"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    samples = {
        "setup_s": len(setup_times),
        "ops_per_s": len(lat),
        "op_p50_ms": len(lat),
        "op_tail_ms": len(lat),
        "step_us": steps,
        "ok_ratio": tally.attempted,
        "op_tail_percentile": round(tail_pct, 3),
        "failed_ratio": tally.failed / tally.attempted,
    }
    return metrics, samples


def per_layer(tally, interp_s: float) -> dict:
    metrics = layer_metrics(tally.trace)
    metrics["cli.interp_start_ms"] = (interp_s * 1e3, "ms")
    metrics["cli.import_ms"] = (tally.extra.get("cli_import_ms", 0.0), "ms")
    metrics["cli.main_ms"] = (tally.extra.get("cli_main_ms", 0.0), "ms")
    metrics["cli.invocations"] = (tally.extra.get("cli_traced_invocations", 0), "count")
    metrics["trace.untraced_s"] = (tally.untraced_s, "s")
    metrics["trace.traced_s"] = (tally.traced_s, "s")
    metrics["trace.overhead_s"] = (tally.traced_s - tally.untraced_s, "s")
    metrics["trace.overhead_ratio"] = (
        tally.traced_s / tally.untraced_s - 1 if tally.untraced_s else 0.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_before": loadavg(),
        "machine_settings": "unchanged: no CPU pinning, no cache dropping, "
                            "no kernel or cgroup change; own processes only",
        "bytecode_cache": "on in every process",
    }
    try:
        interp_s = bare_interpreter_s()
        workloads.prime()
        facts["reference_loop_ms_before"] = reference_loop_ms()
        setup_times = []

        def timed_setup():
            start = perf_counter()
            state = workload.setup(args.seed)
            setup_times.append(perf_counter() - start)
            return state

        # Set-ups before and after the measured period, so that their
        # median samples the machine at two moments.
        for _ in range(SETUP_REPEATS):
            state = timed_setup()
        tally = workload.run(state, args.seconds, bool(args.trace))
        del state
        for _ in range(SETUP_REPEATS):
            timed_setup()
        facts["reference_loop_ms_after"] = reference_loop_ms()
    except workloads.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if not tally.lat:
        print("perfbench: no operation completed", file=sys.stderr)
        return 3

    facts["bare_interpreter_ms"] = interp_s * 1e3
    facts["loadavg_after"] = loadavg()
    facts.update(tally.extra)
    if args.trace:
        metrics = per_layer(tally, interp_s)
        facts["samples"] = {"ops": tally.attempted}
    else:
        metrics, facts["samples"] = end_to_end(tally, setup_times)
    if tally.reasons:
        facts["first_failures"] = tally.reasons
        facts["failures_by_case"] = tally.failures_by_case
    for reason in tally.reasons:
        print(f"perfbench: failed op: {reason}", file=sys.stderr)
    print(json.dumps({"run_facts": facts}))
    print(json.dumps({
        "correct": tally.wrong_on_valid_input == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run workloads over several seeds and save every result in one file.

    python3 perfbench/collect.py --out before.json [--workloads deep,cli]
        [--seeds 1-10] [--trace 0]

Runs ``run.py`` once per workload and seed, one process at a time, for
the run length ``BENCHMARK.json`` sets, and
writes ``{"runs": [...]}``, each run with its workload, seed, result line
and run facts.  It then prints, per workload and end-to-end metric, the
median, the quartiles and their distance as a share of the median next
to the metric's bound from ``BENCHMARK.json``.  Compare two such files
with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import ROOT, load_benchmark, summary_table

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    facts = json.loads(lines[-2])["run_facts"]
    return {"workload": workload, "seed": seed, "trace": trace, "facts": facts,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append(run)
            print(f"{workload} seed {seed}: attempted {run['attempted']} failed {run['failed']}"
                  f" correct {run['correct']}", file=sys.stderr)
            with open(args.out, "w") as fh:
                json.dump({"runs": runs}, fh, indent=1)
    if not args.trace:
        print(summary_table(runs, bench))
    return 0


if __name__ == "__main__":
    sys.exit(main())

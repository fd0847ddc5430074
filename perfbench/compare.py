"""Compare two result files written by ``collect.py``.

    python3 perfbench/compare.py before.json after.json

For every workload and end-to-end metric in ``BENCHMARK.json`` it prints
both medians and quartiles, the metric's bound and a verdict:

* ``unresolved`` -- a side's quartile distance, as a share of its median,
  exceeds the bound, and not every run of ``after`` beats every run of
  ``before``;
* ``worse``      -- ``after``'s median is worse than ``before``'s by more
  than the bound;
* ``better``     -- ``after``'s median is better by more than
  ``before``'s own quartile distance;
* ``within bound`` -- otherwise.

It refuses two files whose runs lasted different lengths of time.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def stats(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return median(values), q1, q3


def spread(values: list[float]) -> float:
    mid, q1, q3 = stats(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")


def verdict(before: list[float], after: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b_mid, b_q1, b_q3 = stats(before)
    a_mid = stats(after)[0]
    if max(spread(before), spread(after)) > bound:
        if min(sign * v for v in after) > max(sign * v for v in before):
            return "better"
        return "unresolved"
    change = sign * (a_mid - b_mid) / abs(b_mid) if b_mid else 0.0
    if change < -bound:
        return "worse"
    if change > (b_q3 - b_q1) / abs(b_mid) and change > 0:
        return "better"
    return "within bound"


def by_workload(runs: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in runs:
        if not run["trace"]:
            out.setdefault(run["workload"], []).append(run)
    return out


def summary_table(runs: list[dict], bench: dict) -> str:
    """Median, quartiles and spread per workload and metric of one file."""
    lines = [f"{'workload':8} {'metric':12} {'median':>12} {'q1':>12} {'q3':>12} "
             f"{'spread':>7} {'bound':>6}  n"]
    for workload, group in by_workload(runs).items():
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in group]
            mid, q1, q3 = stats(values)
            s = spread(values)
            flag = "" if s <= metric["bound"] / 3 else \
                ("  over bound/3" if s <= metric["bound"] else "  OVER BOUND")
            lines.append(f"{workload:8} {metric['name']:12} {mid:12.6g} {q1:12.6g} {q3:12.6g} "
                         f"{s:7.3f} {metric['bound']:6.3f}  {len(values)}{flag}")
        failed = [r["failed"] / r["attempted"] for r in group]
        lines.append(f"{workload:8} {'failed_ratio':12} {median(failed):12.6g} "
                     f"(correct on {sum(r['correct'] for r in group)}/{len(group)} runs)")
    return "\n".join(lines)


def compare(before: list[dict], after: list[dict], bench: dict) -> str:
    lines = [f"{'workload':8} {'metric':12} {'before [q1, q3]':>36} {'after [q1, q3]':>36} "
             f"{'bound':>6}  verdict"]
    b_groups, a_groups = by_workload(before), by_workload(after)
    for workload in b_groups:
        if workload not in a_groups:
            lines.append(f"{workload:8} missing from the second file")
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name] for r in b_groups[workload]]
            a = [r["metrics"][name] for r in a_groups[workload]]
            bm, bq1, bq3 = stats(b)
            am, aq1, aq3 = stats(a)
            lines.append(
                f"{workload:8} {name:12} {bm:12.6g} [{bq1:10.6g}, {bq3:10.6g}] "
                f"{am:12.6g} [{aq1:10.6g}, {aq3:10.6g}] {metric['bound']:6.3f}  "
                f"{verdict(b, a, metric['bound'], metric['better'])}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py BEFORE.json AFTER.json", file=sys.stderr)
        return 1
    files = []
    for path in argv:
        with open(path) as fh:
            files.append(json.load(fh)["runs"])
    lengths = {float(r["facts"]["seconds"]) for r in files[0] + files[1]}
    if len(lengths) > 1:
        print(f"compare.py: the runs last {sorted(lengths)} s; both sides need the same "
              "run length", file=sys.stderr)
        return 1
    print(compare(files[0], files[1], load_benchmark()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

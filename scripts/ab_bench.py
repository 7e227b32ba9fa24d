"""Compare two checkouts on one benchmark workload in alternating pairs.

    python scripts/ab_bench.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seconds S

Each pair runs the benchmark command of BENCHMARK.json (`perfbench/run.py`)
once in each checkout, from that checkout's root and on its own sources,
with `--trace 0` and the pair's seed: pair k (from 1) uses seed k on both
sides; the parent runs first in odd pairs and the change first in even ones. Then,
for each end-to-end metric of PARENT_DIR's BENCHMARK.json, it prints each
side's median and quartiles over the runs, the change of the medians, the
pairs the change won (ties count for neither side) and a verdict:

- "unresolved": the parent's quartile spread exceeds the metric's bound,
  a fraction of the parent's median, so the runs spread too widely to
  tell; unless every change run is better than every parent run;
- "gain": the change failed no larger share of its operations than the
  parent, won at least nine tenths of the pairs, and its median is better
  by more than the parent's quartile spread;
- "worse": the change's median is worse than the parent's by more than
  the metric's bound;
- "within bound" otherwise.

Under the table, one line per metric lists every pair's values in pair
order, as parent/change, so a record can name each run. The failed and
attempted operations of each side are summed on the first line. Exits 1
when a run fails or prints no result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def load_benchmark(checkout: Path) -> dict:
    with open(checkout / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_result(stdout: str) -> dict:
    """The result object: the last non-empty line of run.py's stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the benchmark printed no result line")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(end_to_end: list[dict], pairs: list[tuple[dict, dict]]) -> list[dict]:
    p_fail, p_all = failures([p for p, _ in pairs])
    c_fail, c_all = failures([c for _, c in pairs])
    fails_more = c_fail * p_all > p_fail * c_all
    rows = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        p_q, c_q = quartiles(parent), quartiles(change)
        spread = p_q[2] - p_q[0]
        # positive: the change is better
        gain = (p_q[1] - c_q[1]) if lower else (c_q[1] - p_q[1])
        won = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
        apart = max(change) < min(parent) if lower else min(change) > max(parent)
        if spread > metric["bound"] * abs(p_q[1]) and not apart:
            verdict = "unresolved"
        elif not fails_more and won >= 0.9 * len(pairs) and gain > spread:
            verdict = "gain"
        elif -gain > metric["bound"] * abs(p_q[1]):
            verdict = "worse"
        else:
            verdict = "within bound"
        rows.append({"name": name, "unit": metric["unit"], "parent": p_q, "change": c_q,
                     "change_pct": 100.0 * (c_q[1] / p_q[1] - 1.0) if p_q[1] else 0.0,
                     "won": won, "pairs": len(pairs), "bound": metric["bound"],
                     "verdict": verdict, "runs": list(zip(parent, change))})
    return rows


def failures(results: list[dict]) -> tuple[int, int]:
    """Failed and attempted operations summed over runs."""
    return sum(r["failed"] for r in results), sum(r["attempted"] for r in results)


def format_summary(workload: str, pairs: list[tuple[dict, dict]], rows: list[dict]) -> str:
    p_fail, p_all = failures([p for p, _ in pairs])
    c_fail, c_all = failures([c for _, c in pairs])
    out = [f"{workload}: {len(pairs)} pairs; failed operations: parent {p_fail}/{p_all}, "
           f"change {c_fail}/{c_all}",
           f"{'metric':<12} {'unit':<5} {'parent median [q1, q3]':<30} "
           f"{'change median [q1, q3]':<30} {'change':>8} {'won':>7} {'bound':>6}  verdict"]
    for row in rows:
        parent, change = (f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"
                          for q1, q2, q3 in (row["parent"], row["change"]))
        won = f"{row['won']}/{row['pairs']}"
        out.append(f"{row['name']:<12} {row['unit']:<5} {parent:<30} {change:<30} "
                   f"{row['change_pct']:>+7.1f}% {won:>7} {100.0 * row['bound']:>5.0f}%  "
                   f"{row['verdict']}")
    out.append("each pair, parent/change:")
    out.extend(f"{row['name']:<12} " + " ".join(f"{p:.4g}/{c:.4g}" for p, c in row["runs"])
               for row in rows)
    return "\n".join(out)


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr}")
    return parse_result(done.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    bench = load_benchmark(args.parent)
    pairs = []
    try:
        for seed in range(1, args.pairs + 1):
            sides = {}
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                checkout = getattr(args, side)
                sides[side] = run_once(checkout, load_benchmark(checkout)["command"],
                                       args.workload, seed, args.seconds)
            pairs.append((sides["parent"], sides["change"]))
            print(f"pair {seed}/{args.pairs} done", file=sys.stderr, flush=True)
    except (RuntimeError, ValueError) as exc:
        print(f"ab_bench: {exc}", file=sys.stderr)
        return 1
    print(format_summary(args.workload, pairs, summarize(bench["end_to_end"], pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

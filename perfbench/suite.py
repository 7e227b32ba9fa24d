"""Run every workload several times and print each metric's statistics.

    python3 perfbench/suite.py [--runs 10] [--first-seed 1] [--trace]

Run from the root of a source checkout. Each run is a fresh
`perfbench/run.py` process; runs cycle through the workloads, one seed at
a time. For every workload the table gives each metric of BENCHMARK.json
(end-to-end, or per-layer with --trace) by name and unit with its median,
quartiles, sample count and quartile spread as a share of the median,
next to the metric's bound; `failed_share` is failed operations over
attempted ones, where a run that crashes counts as one failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float, trace: int):
    """The result line and the detail line of one run; (None, None) if it crashed."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None, None
    return json.loads(lines[-1]), json.loads(lines[-2])


def summarize(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    results: dict[str, list] = {w["name"]: [] for w in bench["workloads"]}
    for i in range(args.runs):
        for workload in results:
            seed = args.first_seed + i
            start = time.perf_counter()
            res, detail = run_once(workload, seed, bench["run_seconds"], int(args.trace))
            results[workload].append(res)
            status = "crashed" if res is None else (
                f"correct={res['correct']} attempted={res['attempted']} "
                f"steal={detail['load']['steal_share'] or 0:.3f} "
                f"load={detail['load']['loadavg_end'][0]} "
                + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
                           if not args.trace))
            print(f"run {i + 1}/{args.runs} {workload} seed {seed} "
                  f"({time.perf_counter() - start:.1f} s): {status}",
                  file=sys.stderr, flush=True)

    print(f"{'workload':16s} {'metric':52s} {'unit':6s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'n':>3s} {'spread':>7s} {'bound':>6s}")
    for workload, runs in results.items():
        done = [r for r in runs if r is not None]
        attempted = sum(r["attempted"] for r in done) + len(runs) - len(done)
        failed = sum(r["failed"] for r in done) + len(runs) - len(done)
        rows = [("failed_share", "ratio", [failed / attempted], None)]
        for spec in specs:
            values = [r["metrics"][spec["name"]]["value"] for r in done]
            if values and (not args.trace or any(values)):
                rows.append((spec["name"], spec["unit"], values, spec.get("bound")))
        for name, unit, values, bound in rows:
            med, q1, q3 = summarize(values)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{workload:16s} {name:52s} {unit:6s} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {len(values):3d} {spread:7.4f} "
                  f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
`src/` and the configuration read from `configs/default.ini`. Workload
operations are repeated in this one process, with mc.jobs = 1, while they
fit in S seconds (at least one). The last line of standard output is one JSON
object with keys correct, attempted, failed and metrics; the line before
it holds the per-operation detail and the machine facts.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json:
the mean wall and CPU time of one operation over the run (the host's
fast and slow phases are averaged in proportion, where a median would
take one of them whole), the median set-up time of fresh interpreters,
and the process's peak resident memory. With
--trace 1, untraced and traced operations alternate; the metrics are the
per-layer ones (medians over traced operations) plus the tracing
overhead, and the spans are written to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import machine
import tracer as tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
MC_JOBS = 1

_SETUP_CHILD = (
    "import sys; sys.path.insert(0, {src!r}); import underlaysim.cli as cli; "
    "cli.parse_config(open({cfg!r}, encoding='utf-8').read()); print('ready', flush=True)")


def measure_setup() -> float:
    """Seconds from starting a fresh interpreter until underlaysim is
    imported and the configuration parsed."""
    code = _SETUP_CHILD.format(src=os.path.join(ROOT, "src"),
                               cfg=os.path.join(ROOT, workloads.CONFIG))
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up child failed with exit code {child.returncode}")
    return elapsed


def timed(run, check) -> dict:
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        output = run()
        error = None
    except Exception as exc:  # an operation that raises counts as failed
        output, error = None, f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    try:
        problems = [error] if error else check(output)
    except Exception as exc:  # so does output the check cannot read
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return {"wall_s": wall, "cpu_s": cpu, "problems": problems}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def repeat(step, seconds: float) -> list:
    """Call step() at least once, and again while the mean call so far
    would still end within `seconds` of the start."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def untraced_run(run, check, seconds: float) -> tuple[list[dict], dict]:
    ops = repeat(lambda: timed(run, check), seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.fmean(o["wall_s"] for o in ops), "s"),
        "cpu_s": (statistics.fmean(o["cpu_s"] for o in ops), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return ops, metrics


def traced_run(name: str, seed: int, run, check, seconds: float, detail: dict):
    tr = tracing.Tracer()
    grid_rows = workloads.grid_rows(name)
    tr_ops: list = []

    def pair():
        plain = timed(run, check)
        tr.begin_op(len(tr_ops))
        tr.install()
        try:
            before = tr.snapshot()
            traced = timed(run, check)
            delta = {k: v - before.get(k, 0) for k, v in tr.snapshot().items()}
            layer = tracing.layer_metrics(delta, traced["wall_s"])
            traced["problems"] += tracing.self_check(tr, layer, name, grid_rows)
        finally:
            tr.uninstall()
        tr_ops.append((traced, layer))
        return plain

    plain_ops = repeat(pair, seconds)
    traced_ops = [t for t, _ in tr_ops]
    metrics = {}
    for metric, unit in tracing.LAYER_METRICS:
        if metric != "trace.overhead_share":
            metrics[metric] = (statistics.median(m[metric] for _, m in tr_ops), unit)
    overhead = (statistics.median(o["wall_s"] for o in traced_ops)
                / statistics.median(o["wall_s"] for o in plain_ops) - 1.0)
    metrics["trace.overhead_share"] = (overhead, "ratio")
    detail["traced_ops"] = traced_ops
    summary = dict(detail, metrics={k: v for k, (v, _) in metrics.items()},
                   untraced_ops=plain_ops)
    tr.write(os.path.join(OUT_DIR, f"trace-{name}-seed{seed}"), summary)
    return plain_ops + traced_ops, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    for needed in (os.path.join(src, "underlaysim", "__init__.py"),
                   os.path.join(ROOT, workloads.CONFIG)):
        if not os.path.isfile(needed):
            print(f"perfbench: {needed} not found; run from a source checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, src)
    import underlaysim.cli  # noqa: F401  (loads every layer module)

    load = machine.Load()
    os.makedirs(OUT_DIR, exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine.facts(MC_JOBS)}
    # operation outputs stay inside the checkout (git-ignored), so the
    # benchmark writes nowhere else; a killed run may leave its tmp-* here
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp:
        run, check = workloads.WORKLOADS[args.workload](args.seed, ROOT, tmp)
        if args.trace:
            ops, metrics = traced_run(args.workload, args.seed, run, check,
                                      args.seconds, detail)
        else:
            setup = [measure_setup() for _ in range(SETUP_REPEATS)]
            detail["setup_s"] = setup
            ops, metrics = untraced_run(run, check, args.seconds)
            metrics["setup_s"] = (statistics.median(setup), "s")
    detail["load"] = load.finish()
    detail["ops"] = ops
    for key in ("wall_s", "cpu_s"):
        detail[f"{key}_quartiles"] = quartiles([o[key] for o in ops])
    failed = sum(1 for o in ops if o["problems"])
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

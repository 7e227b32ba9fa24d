"""Write every artifact of the byte-identity gate into one directory.

    python scripts/gate_snapshot.py OUT_DIR

OUT_DIR receives, flat:

- validate.txt and validate_seed7_trials20000.txt: `underlaysim validate`
  stdout on the built-in default config, and with --seed 7 --trials 20000;
- one <fig_id>.csv per figure id, at --trials 2000;
- power_table.csv and rate_table.csv: the two benchmark sweep tables, from
  the specs in perfbench/workloads.py, unshuffled (seed None);
- fading_sweep.csv: a small sweep with rates over m = 0.5, 1 and inf, the
  finite-m rows' path.

The commands run on the checkout's own src/, ahead of any installed copy
of the package.

Take one snapshot per commit; then `diff -r OLD_DIR NEW_DIR` checks the
bytes and `python scripts/csv_drift.py OLD_DIR NEW_DIR` reports the largest
drift of each CSV. A snapshot takes ~2 s on a 2-vCPU host, most of it in
the fading tradeoff figures. Exits 1 if any command exited nonzero, after
running them all.
"""

import contextlib
import io
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from underlaysim import cli

VALIDATE_RUNS = {"validate": [],
                 "validate_seed7_trials20000": ["--seed", "7", "--trials", "20000"]}
FIGURE_TRIALS = "2000"
# 24 grid points, power- and interference-limited, each at m = 0.5, 1, inf
FADING_SWEEP = {"tau_ms": "logspace 0.1 10 4", "gamma_db": "-20, -5, 10",
                "rho_out": "0.05, 0.1", "m": "0.5, 1, inf", "include_rs": "true"}


def _sweep_tables():
    """The benchmark's sweep-table specs, by name."""
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    return workloads.TABLES


def _runs(out_dir: Path):
    """(label, argv, stdout file or None) of every gate command."""
    for name, extra in VALIDATE_RUNS.items():
        yield name, ["validate", *extra], out_dir / f"{name}.txt"
    for fig_id in cli.FIGURE_IDS:
        yield fig_id, ["figure", fig_id, "--out", str(out_dir / f"{fig_id}.csv"),
                       "--trials", FIGURE_TRIALS], None
    for name, spec in _sweep_tables().items():
        yield name, spec.argv(str(REPO), str(out_dir / f"{name}.csv"), None), None
    yield "fading_sweep", ["sweep", "--out", str(out_dir / "fading_sweep.csv"),
                           *(f"--set=sweep.{key}={value}"
                             for key, value in FADING_SWEEP.items())], None


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out_dir = Path(args[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    failed = []
    for label, cmd, stdout_path in _runs(out_dir):
        print(f"{label} ...", file=sys.stderr, flush=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(cmd)
        if stdout_path is not None:
            stdout_path.write_text(buf.getvalue(), encoding="utf-8")
        if rc != 0:
            failed.append(f"{label} exited {rc}")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Write every artifact of the byte-identity gate into one directory.

    python scripts/gate_snapshot.py OUT_DIR

OUT_DIR receives, flat:

- validate.txt and validate_seed7_trials20000.txt: `underlaysim validate`
  stdout on the built-in default config, and with --seed 7 --trials 20000;
- one <fig_id>.csv per figure id, at --trials 2000;
- power_table.csv and rate_table.csv: the two benchmark sweep tables, from
  the specs in perfbench/workloads.py, unshuffled (seed None);
- fading_sweep.csv: a small sweep with rates over m = 0.5, 1 and inf, the
  finite-m rows' path;
- long_rho_sweep.csv: an m = inf sweep with rates whose rho_out axis is
  longer than cli._SWEEP_BLOCK, so each (tau, gamma) line is a block of
  its own that is larger than the nominal block size;
- mixed_m_sweep.csv: a sweep with rates whose m axis is unordered
  (1, inf, 0.5), over 2 tau x 2 gamma x 2 rho_out points in both regimes,
  so each grid point's rows interleave finite-m and m = inf rows;
- wide_fading_sweep.csv: a fading sweep with rates over m = 0.5, 5 and 200,
  9 tau x 4 gamma x 4 rho_out points from 10 us to 50 ms, -20 to 10 dB and
  budgets of 1e-4 to 0.5: 432 rows, 345 interference-limited, each block
  one fading power-rule call per m;
- edge_det_sweep.csv: an m = inf sweep with rates over 4 tau x 4 gamma x
  4 rho_out points from 1 to 20 us, -20 to 10 dB and budgets of 0.05 to
  0.99: 64 rows, 36 interference-limited, on both sides of the region
  where specfun.inv_reg_upper_gamma iterates (shapes 0.5 to 58, those
  below 2 at one- and two-sample windows; budgets above 0.5).

The commands run on the checkout's own src/, ahead of any installed copy
of the package.

Take one snapshot per commit; then `diff -r OLD_DIR NEW_DIR` checks the
bytes and `python scripts/csv_drift.py OLD_DIR NEW_DIR` reports the largest
drift of each CSV. A snapshot takes ~2.8 s on a 2-vCPU host (numpy 2.4.6),
about half of it in the fading tradeoff figures fig9a/b (0.6-0.7 s each).
tests/test_gate.py compares a fresh snapshot with the files pinned in
tests/golden. Exits 1 if any command exited nonzero, after running them all.
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
# 4 (tau, gamma) lines of 5 000 budgets each, both regimes
LONG_RHO_SWEEP = {"tau_ms": "1, 3", "gamma_db": "-15, 0",
                  "rho_out": "linspace 0.001 0.5 5000", "m": "inf", "include_rs": "true"}
# 8 grid points, power- and interference-limited, each at m = 1, inf, 0.5
MIXED_M_SWEEP = {"tau_ms": "0.5, 5", "gamma_db": "-20, 10", "rho_out": "0.05, 0.3",
                 "m": "1, inf, 0.5", "include_rs": "true"}
# 144 grid points over the fading rule's range, both regimes, at three m
WIDE_FADING_SWEEP = {"tau_ms": "logspace 0.01 50 9", "gamma_db": "linspace -20 10 4",
                     "rho_out": "0.0001, 0.01, 0.1, 0.5", "m": "0.5, 5, 200",
                     "include_rs": "true"}
# 64 det grid points across the edges of the inverse's region
EDGE_DET_SWEEP = {"tau_ms": "0.001, 0.002, 0.005, 0.02", "gamma_db": "-20, -5, 0, 10",
                  "rho_out": "0.05, 0.5, 0.7, 0.99", "m": "inf", "include_rs": "true"}


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
    for name, sweep in (("fading_sweep", FADING_SWEEP), ("long_rho_sweep", LONG_RHO_SWEEP),
                        ("mixed_m_sweep", MIXED_M_SWEEP),
                        ("wide_fading_sweep", WIDE_FADING_SWEEP),
                        ("edge_det_sweep", EDGE_DET_SWEEP)):
        yield name, ["sweep", "--out", str(out_dir / f"{name}.csv"),
                     *(f"--set=sweep.{key}={value}" for key, value in sweep.items())], None


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

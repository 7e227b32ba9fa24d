"""Regenerate every figure CSV into one directory.

Runs the CLI figure command once per figure id. Every argument this
script does not own (--out-dir, --only) goes to each `underlaysim figure`
run unchanged, so --config, --set, --seed, --trials and --jobs (only 1,
kept for existing command lines) work as they do there. Expect the full set to take a while: the tradeoff figures
re-optimize the sensing time per scenario and the overlay figures run
Monte Carlo per marker. Passing --trials with a smaller count is the
quickest way to a fast draft. The figures come from the checkout's own
src/, ahead of any installed copy of the package.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from underlaysim.cli import FIGURE_IDS, main as cli_main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        epilog="other arguments are passed to `underlaysim figure`")
    parser.add_argument("--out-dir", default="out/figures",
                        help="directory for the CSV files")
    parser.add_argument("--only", nargs="*", metavar="FIG",
                        help=f"subset of: {', '.join(FIGURE_IDS)}")
    args, figure_args = parser.parse_known_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ids = args.only if args.only else FIGURE_IDS
    for fig_id in ids:
        argv_fig = ["figure", fig_id, "--out", str(out_dir / f"{fig_id}.csv"),
                    *figure_args]
        print(f"writing {fig_id}.csv ...", flush=True)
        rc = cli_main(argv_fig)
        if rc != 0:
            print(f"{fig_id} failed with exit code {rc}", file=sys.stderr)
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())

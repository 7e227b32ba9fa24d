"""Compare two directories of figure CSVs cell by cell.

    python scripts/csv_drift.py OLD_DIR NEW_DIR

For each CSV present in either directory, prints one line: whether the
headers match, the data row counts, the largest relative difference over
numeric cells with the column it is in (named from the new header) and
the count of text cells that differ. Lines starting with
`#` (the provenance block) are skipped. A cell pair's relative difference
is |new - old| / max(|old|, |new|); two equal cells, NaN pairs included,
count as 0, and a NaN against a number as inf. Exits 1 when a file is
missing on one side or its header or row count differs, else 0.
"""

import csv
import math
import sys
from pathlib import Path


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return (rows[0], rows[1:]) if rows else ([], [])


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def cell_drift(old: str, new: str) -> float | None:
    """Relative difference of two numeric cells; None if either is text."""
    a, b = _number(old), _number(new)
    if a is None or b is None:
        return None
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(b - a) / max(abs(a), abs(b))


def compare(old_path: Path, new_path: Path) -> tuple[bool, int, int, float, str, int]:
    """(headers equal, old rows, new rows, max relative drift, the column of
    that drift ("" when nothing drifts), text cells that differ) of two
    CSVs; rows are paired in order."""
    old_header, old_rows = read_table(old_path)
    new_header, new_rows = read_table(new_path)
    worst, worst_col, text_diffs = 0.0, None, 0
    for old_row, new_row in zip(old_rows, new_rows):
        for col, (old, new) in enumerate(zip(old_row, new_row)):
            drift = cell_drift(old, new)
            if drift is None:
                text_diffs += old != new
            elif drift > worst:
                worst, worst_col = drift, col
    column = "" if worst_col is None else (
        new_header[worst_col] if worst_col < len(new_header) else f"#{worst_col}")
    return (old_header == new_header, len(old_rows), len(new_rows), worst, column,
            text_diffs)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old_dir, new_dir = Path(args[0]), Path(args[1])
    names = sorted({p.name for d in (old_dir, new_dir) for p in d.glob("*.csv")})
    ok = True
    for name in names:
        old_path, new_path = old_dir / name, new_dir / name
        if not (old_path.exists() and new_path.exists()):
            side = "old" if not old_path.exists() else "new"
            print(f"{name}: missing in {side}")
            ok = False
            continue
        same_header, n_old, n_new, worst, column, text_diffs = compare(old_path, new_path)
        ok = ok and same_header and n_old == n_new
        print(f"{name}: header {'same' if same_header else 'DIFFERS'}, "
              f"rows {n_old}/{n_new}, max rel drift {worst:.3g}"
              f"{f' in {column}' if column else ''}, text cells differing {text_diffs}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

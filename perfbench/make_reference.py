"""Write the reference tables the table workloads are checked against.

    python3 perfbench/make_reference.py

Run from the root of a source checkout whose sweep output is trusted; the
tables are written in the grid's own order to perfbench/reference/.
"""

from __future__ import annotations

import gzip
import os
import shutil
import sys
import tempfile

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from underlaysim import cli

    os.makedirs(os.path.join(workloads.HERE, "reference"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.HERE) as tmp:
        for spec in workloads.TABLES.values():
            out = os.path.join(tmp, "table.csv")
            if cli.main(spec.argv(ROOT, out, seed=None)) != 0:
                return 1
            with open(out, "rb") as src, open(spec.reference_path, "wb") as raw, \
                    gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as dst:
                shutil.copyfileobj(src, dst)
            print(f"wrote {spec.reference_path} ({spec.rows} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

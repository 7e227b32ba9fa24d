"""The byte gate as a test: a fresh scripts/gate_snapshot.py snapshot
against the outputs pinned in tests/golden.

The 18 small files are pinned whole; the three large sweep tables
(power_table, rate_table and long_rho_sweep, 3.3 MB together) by their
SHA-256 digests in pinned.json, which also records the numpy and scipy
versions the files were pinned with. Output bytes can depend on those
builds, so on other versions each small CSV is compared by
scripts/csv_drift.py instead, within DRIFT_TOL relative and with no text
cell changed, each validate output by its verdicts, and the digests are
not read.

A change that moves numbers re-pins in the same commit: run
`python scripts/gate_snapshot.py DIR`, copy DIR's small files here, and
write the versions and the large tables' digests into pinned.json (a
failure here prints the fresh digests). Its change log states each moved
column's largest drift from csv_drift.py.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import numpy as np
import scipy

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
# relative drift allowed per numeric cell on unpinned numpy/scipy versions,
# as the benchmark's own table checks allow
DRIFT_TOL = 1e-6


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _verdicts(path: Path) -> list[list[str]]:
    """Each validate line's leading words: check number and PASS or FAIL."""
    return [line.split()[:3] for line in path.read_text(encoding="utf-8").splitlines()]


def test_gate_snapshot_matches_the_pinned_outputs(tmp_path):
    with contextlib.redirect_stderr(io.StringIO()):
        assert _script("gate_snapshot").main([str(tmp_path)]) == 0
    pinned = json.loads((GOLDEN / "pinned.json").read_text(encoding="utf-8"))
    small = sorted(p.name for p in GOLDEN.iterdir() if p.name != "pinned.json")
    assert len(small) == 18
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(small + list(pinned["sha256"]))
    if (np.__version__, scipy.__version__) == (pinned["numpy"], pinned["scipy"]):
        moved = [n for n in small if (tmp_path / n).read_bytes() != (GOLDEN / n).read_bytes()]
        digests = {n: hashlib.sha256((tmp_path / n).read_bytes()).hexdigest()
                   for n in pinned["sha256"]}
        assert (moved, digests) == ([], pinned["sha256"]), (
            "outputs moved; compare them with scripts/csv_drift.py, and re-pin "
            f"with these digests if the move is meant: {digests}")
        return
    drift = _script("csv_drift")
    for name in small:
        if name.endswith(".csv"):
            same_header, n_old, n_new, worst, column, text_cells = drift.compare(
                GOLDEN / name, tmp_path / name)
            assert same_header and n_old == n_new and text_cells == 0, name
            assert worst <= DRIFT_TOL, f"{name}: drift {worst:.3g} in {column}"
        else:
            assert _verdicts(tmp_path / name) == _verdicts(GOLDEN / name), name

"""Output checks: each returns a list of problems, empty when the output is right.

A workload operation whose check reports a problem counts as failed.
"""

from __future__ import annotations

import array
import csv
import gzip
import math

VALIDATE_VERDICT = "validate: PASS (13/13 checks)"

# Numeric table cells must agree within TOL * max(1, |reference|):
# absolute in the cell's unit (dBm, bit/s/Hz) up to magnitude one, relative
# above it. The fading reference values must agree within TOL relative.
TOL = 1e-6

# fig9a curve points and baselines at gamma = -15 dB, m = 1 on the
# reference scenario
FADING_REFERENCE = {
    "rate_0.3ms": 4.545787390096557,
    "rate_1ms": 4.989316601681027,
    "rate_3ms": 4.930095705513716,
    "rate_10ms": 4.574060839395463,
    "rate_30ms": 3.557493868808619,
    "ideal_rate": 5.080673007995691,
    "no_pc_tau": 1.1455018524190884e-3,
    "no_pc_rate": 5.024957085578777,
}

KEY_COLUMNS = ("tau_ms", "gamma_dB", "rho_out", "m")


def _close(value: float, reference: float, floor: float = 1.0) -> bool:
    return abs(value - reference) <= TOL * max(floor, abs(reference))


def check_validate(exit_code: int, stdout: str) -> list[str]:
    """The gate must exit 0 and end on the 13/13 verdict line.

    Only the verdict is compared: a sampler change moves the Monte Carlo
    cells of the check lines within their standard errors.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"validate exited {exit_code}")
    lines = stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    if last != VALIDATE_VERDICT:
        problems.append(f"validate verdict {last!r}")
    return problems


def _data_rows(lines):
    """Header and data rows of a sweep CSV, skipping `#` metadata lines."""
    rows = csv.reader(line for line in lines if not line.startswith("#"))
    return next(rows, []), rows


class TableReference:
    """A reference sweep table held as flat arrays over its grid axes.

    Rows are matched by their key cells, so the order of rows is free; the
    table is never held as Python row objects, which keeps the checker's
    memory out of the measured peak.
    """

    def __init__(self, lines):
        self.header, rows = _data_rows(lines)
        self.regime_col = self.header.index("regime")
        self.numeric_cols = [i for i in range(len(KEY_COLUMNS), len(self.header))
                             if i != self.regime_col]
        self.axes: list[dict[str, int]] = [{} for _ in KEY_COLUMNS]
        self.labels: dict[str, int] = {}
        keys, self.regimes, self.values = [], bytearray(), array.array("d")
        for row in rows:
            keys.append(tuple(axis.setdefault(cell, len(axis))
                              for axis, cell in zip(self.axes, row)))
            self.regimes.append(self.labels.setdefault(row[self.regime_col],
                                                       len(self.labels)))
            self.values.extend(float(row[i]) for i in self.numeric_cols)
        self.rows = len(keys)
        self._index = array.array("q", [-1]) * self._size()
        for r, key in enumerate(keys):
            self._index[self._flat(key)] = r

    @classmethod
    def from_gzip(cls, path: str) -> "TableReference":
        with gzip.open(path, "rt", encoding="utf-8", newline="") as fh:
            return cls(fh)

    def _size(self) -> int:
        return math.prod(len(axis) for axis in self.axes)

    def _flat(self, key) -> int:
        flat = 0
        for axis, i in zip(self.axes, key):
            flat = flat * len(axis) + i
        return flat

    def check(self, lines) -> list[str]:
        """Same header and row count, every key present once, exact regime
        labels, numeric cells within TOL."""
        header, rows = _data_rows(lines)
        if header != self.header:
            return [f"header {header} != reference {self.header}"]
        width = len(self.numeric_cols)
        seen = bytearray(self.rows)
        problems = []
        count = 0
        for row in rows:
            count += 1
            key = tuple(axis.get(cell) for axis, cell in zip(self.axes, row))
            r = -1 if None in key else self._index[self._flat(key)]
            if r < 0 or seen[r]:
                problems.append(f"row {row[:len(KEY_COLUMNS)]} unexpected or repeated")
            elif self.labels.get(row[self.regime_col]) != self.regimes[r]:
                problems.append(f"row {row[:len(KEY_COLUMNS)]}: regime "
                                f"{row[self.regime_col]!r} differs from the reference")
            else:
                seen[r] = 1
                for j, i in enumerate(self.numeric_cols):
                    ref = self.values[r * width + j]
                    if not _close(float(row[i]), ref):
                        problems.append(f"row {row[:len(KEY_COLUMNS)]}: "
                                        f"{header[i]} {row[i]}, reference {ref!r}")
            if len(problems) >= 5:
                return problems + ["further rows not checked"]
        if count != self.rows:
            problems.append(f"{count} rows, reference has {self.rows}")
        return problems


def check_fading(values: dict[str, float]) -> list[str]:
    problems = []
    for name, ref in FADING_REFERENCE.items():
        got = values.get(name, math.nan)
        if not _close(got, ref, floor=0.0):
            problems.append(f"{name} {got!r}, reference {ref!r}")
    return problems

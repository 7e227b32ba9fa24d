"""The four benchmark workloads, driven through underlaysim's public entry points.

`prepare` does a workload's set-up (inputs from the seed, references) and
returns `(run, check)`: `run()` is the timed operation and returns its
output, `check(output)` returns the problems found in it. Every call goes
through a module attribute looked up at call time, so a tracer installed
on the package sees it.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys
from dataclasses import dataclass, replace

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG = os.path.join("configs", "default.ini")


def _modules():
    return (sys.modules["underlaysim.cli"], sys.modules["underlaysim.power_control"],
            sys.modules["underlaysim.throughput"])


@dataclass(frozen=True)
class TableSpec:
    """A det power-rule sweep: tau logspace (ms), gamma linspace (dB),
    rho_out linspace, m = inf."""

    name: str
    tau_ms: tuple[float, float, int]
    gamma_db: tuple[float, float, int]
    rho_out: tuple[float, float, int]
    include_rs: bool

    @property
    def rows(self) -> int:
        return self.tau_ms[2] * self.gamma_db[2] * self.rho_out[2]

    @property
    def reference_path(self) -> str:
        return os.path.join(HERE, "reference", f"{self.name}.csv.gz")

    def argv(self, root: str, out_path: str, seed: int | None) -> list[str]:
        """`underlaysim sweep` arguments; a seed shuffles each axis's order."""
        axes = {
            "tau_ms": np.geomspace(*self.tau_ms),
            "gamma_db": np.linspace(*self.gamma_db),
            "rho_out": np.linspace(*self.rho_out),
        }
        rng = random.Random(seed)
        argv = ["sweep", "--config", os.path.join(root, CONFIG), "--out", out_path,
                "--jobs", "1"]
        for key, values in axes.items():
            values = [repr(float(v)) for v in values]
            if seed is not None:
                rng.shuffle(values)
            argv += ["--set", f"sweep.{key}={', '.join(values)}"]
        return argv + ["--set", "sweep.m=inf",
                       "--set", f"sweep.include_rs={str(self.include_rs).lower()}"]


POWER_TABLE = TableSpec("power_table", (0.01, 10.0, 25), (-20.0, 10.0, 100),
                        (0.01, 0.5, 10), include_rs=False)
RATE_TABLE = TableSpec("rate_table", (0.01, 10.0, 13), (-20.0, 10.0, 61),
                       (0.01, 0.5, 7), include_rs=True)
TABLES = {spec.name: spec for spec in (POWER_TABLE, RATE_TABLE)}

# sensing times (s) of the fig9a estimation-throughput curve points timed
# at gamma = -15 dB, m = 1; the peak lies between 1 and 3 ms
FADING_TAUS = (0.3e-3, 1e-3, 3e-3, 10e-3, 30e-3)


def _prepare_validate(seed: int, root: str, tmp: str):
    argv = ["validate", "--config", os.path.join(root, CONFIG),
            "--seed", str(seed), "--jobs", "1"]

    def run():
        cli = _modules()[0]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(output):
        return checks.check_validate(*output)

    return run, check


def _prepare_table(spec: TableSpec, seed: int, root: str, tmp: str):
    out_path = os.path.join(tmp, f"{spec.name}.csv")
    argv = spec.argv(root, out_path, seed)
    reference = checks.TableReference.from_gzip(spec.reference_path)

    def run():
        return _modules()[0].main(argv)

    def check(code):
        if code != 0:
            return [f"sweep exited {code}"]
        with open(out_path, encoding="utf-8", newline="") as fh:
            return reference.check(fh)

    return run, check


def _prepare_fading(seed: int, root: str, tmp: str):
    # deterministic: the seed has nothing to draw here
    cli, _, _ = _modules()
    with open(os.path.join(root, CONFIG), encoding="utf-8") as fh:
        params = cli.parse_config(fh.read()).params()

    def run():
        _, pc, tp = _modules()
        p2 = replace(params, gamma=pc.db_to_linear(-15.0))
        links = pc.default_fading(p2, 1.0)
        out = {f"rate_{tau * 1e3:g}ms": tp.throughput_fading(p2, links, tau)
               for tau in FADING_TAUS}
        out["ideal_rate"] = tp.throughput_ideal_fading(p2, links)
        out["no_pc_tau"], out["no_pc_rate"] = tp.throughput_no_pc_fading(p2, links)
        return out

    return run, checks.check_fading


def _prepare_analytic(seed: int, root: str, tmp: str):
    """One operation runs the power-rule table, the rate table and the
    fading curve points in turn; its output is the three outputs."""
    parts = [_prepare_table(spec, seed, root, tmp) for spec in TABLES.values()]
    parts.append(_prepare_fading(seed, root, tmp))

    def run():
        return [run_part() for run_part, _ in parts]

    def check(outputs):
        return [problem for (_, check_part), output in zip(parts, outputs)
                for problem in check_part(output)]

    return run, check


WORKLOADS = {
    "validate": _prepare_validate,
    "analytic": _prepare_analytic,
}


def grid_rows(workload: str) -> int | None:
    """Rows one operation of the workload writes, if it writes tables."""
    return sum(spec.rows for spec in TABLES.values()) if workload == "analytic" else None

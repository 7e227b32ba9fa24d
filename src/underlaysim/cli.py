"""Command-line entry points: figure data, parameter sweeps, validation.

Configuration is INI text with dB-valued fields; parsing keeps the raw
strings so CSV metadata echoes the configuration byte for byte, and every
dB-to-linear conversion happens in this module and nowhere else. Outputs
carry no timestamps: a given (config, seed, version) renders identical
bytes on every run.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import io
import itertools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, dists, montecarlo, specfun
from .power_control import (Regime, ScenarioParams, controlled_power_det,
                            controlled_power_det_array,
                            controlled_power_fading, db_to_linear,
                            default_fading, ideal_power, linear_to_db,
                            outage_det, perf_bound_asymptote, perf_bound_det,
                            perf_bound_fading, pr_st_law, samples_for)
from .throughput import (capacity_law_det, mean_capacity, optimize_tradeoff,
                         throughput_det_array, throughput_fading_at,
                         throughput_ideal_det, throughput_ideal_fading,
                         throughput_no_pc_det, throughput_no_pc_fading)

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "default_config",
    "parse_config",
    "render_config",
    "apply_set",
    "cmd_figure",
    "cmd_sweep",
    "cmd_validate",
    "main",
    "FIGURE_IDS",
]


class ConfigError(Exception):
    """Configuration that cannot be parsed or fails validation."""


_DEFAULTS: dict[str, dict[str, str]] = {
    "scenario": {
        "f_s_hz": "1e6",
        "sigma2_dbm": "-100",
        "p_tx_pr_dbm": "0",
        "p_tx_pt_dbm": "0",
        "theta_i_dbm": "-110",
        "rho_out": "0.1",
        "p_full_dbm": "0",
        "frame_ms": "100",
        "tau_p_us": "10",
        "gamma_db": "0",
        "g_pt_sr_db": "-100",
        "g_st_sr_db": "-80",
    },
    "fading": {
        "m": "1, 5",
    },
    "mc": {
        "trials": "100000",
        "seed": "20250311",
        "jobs": "1",
    },
    "sweep": {
        "tau_ms": "logspace 0.1 10 13",
        "gamma_db": "0",
        "rho_out": "0.1",
        "m": "inf",
        "include_rs": "false",
    },
}

_SWEEP_ROW_CAP = 1_000_000
# grid points per array call of the m = inf sweep columns: one power-rule
# call, one domain check and one % format call per block. The mean-capacity
# kernel bounds its own temporaries, so the block bounds only the per-point
# arrays held at once (32 kB each)
_SWEEP_BLOCK = 4096


def _check_m(where: str, value: float, allow_inf: bool = False) -> float:
    """A Nakagami m is finite and at least 0.5; where allow_inf, inf (the
    deterministic channel) is taken too."""
    if not (value >= 0.5 and (math.isfinite(value) or allow_inf)):
        raise ConfigError(f"{where}: every m must be finite and at least 0.5"
                          + (", or inf" if allow_inf else ""))
    return value


def _has_linear_value(value_db: float) -> bool:
    """Whether a dB value converts to a finite, positive linear value."""
    try:
        return db_to_linear(value_db) > 0.0
    except OverflowError:
        return False


@dataclass
class ScenarioConfig:
    """Raw configuration values, keyed section -> key -> string."""

    sections: dict[str, dict[str, str]]

    def get(self, section: str, key: str) -> str:
        return self.sections[section][key]

    def _float(self, section: str, key: str) -> float:
        raw = self.get(section, key)
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key}: not a number: {raw!r}") from None

    def _int(self, section: str, key: str) -> int:
        raw = self.get(section, key)
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key}: not an integer: {raw!r}") from None

    def params(self) -> ScenarioParams:
        try:
            return ScenarioParams(
                f_s=self._float("scenario", "f_s_hz"),
                sigma2=db_to_linear(self._float("scenario", "sigma2_dbm")),
                p_tx_pr=db_to_linear(self._float("scenario", "p_tx_pr_dbm")),
                p_tx_pt=db_to_linear(self._float("scenario", "p_tx_pt_dbm")),
                theta_i=db_to_linear(self._float("scenario", "theta_i_dbm")),
                rho_out=self._float("scenario", "rho_out"),
                p_full=db_to_linear(self._float("scenario", "p_full_dbm")),
                frame_len=self._float("scenario", "frame_ms") * 1e-3,
                tau_p=self._float("scenario", "tau_p_us") * 1e-6,
                gamma=db_to_linear(self._float("scenario", "gamma_db")),
                g_pt_sr=db_to_linear(self._float("scenario", "g_pt_sr_db")),
                g_st_sr=db_to_linear(self._float("scenario", "g_st_sr_db")),
            )
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"scenario: {exc}") from None

    def _floats(self, section: str, key: str) -> list[float]:
        out = []
        for tok in self.get(section, key).split(","):
            tok = tok.strip()
            if not tok:
                continue
            try:
                out.append(float(tok))
            except ValueError:
                raise ConfigError(f"{section}.{key}: not a number: {tok!r}") from None
        if not out:
            raise ConfigError(f"{section}.{key}: need at least one value")
        return out

    def m_values(self) -> list[float]:
        return [_check_m("fading.m", m) for m in self._floats("fading", "m")]

    def trials(self) -> int:
        n = self._int("mc", "trials")
        if n < 2:
            raise ConfigError("mc.trials must be at least 2")
        return n

    def seed(self) -> int:
        n = self._int("mc", "seed")
        if n < 0:
            raise ConfigError("mc.seed must be nonnegative")
        return n

    def sweep_axis(self, key: str) -> list[float]:
        raw = self.get("sweep", key).strip()
        parts = raw.split()
        if parts and parts[0] in ("logspace", "linspace"):
            if len(parts) != 4:
                raise ConfigError(f"sweep.{key}: expected '{parts[0]} lo hi n'")
            try:
                lo, hi, n = float(parts[1]), float(parts[2]), int(parts[3])
            except ValueError:
                raise ConfigError(f"sweep.{key}: bad grid spec: {raw!r}") from None
            if (not 1 <= n <= _SWEEP_ROW_CAP
                    or not (math.isfinite(lo) and math.isfinite(hi) and hi > lo)):
                raise ConfigError(f"sweep.{key}: bad grid spec: {raw!r}")
            if parts[0] == "logspace":
                if lo <= 0.0:
                    raise ConfigError(f"sweep.{key}: logspace needs positive endpoints")
                out = list(np.geomspace(lo, hi, n))
            else:
                out = list(np.linspace(lo, hi, n))
        else:
            out = self._floats("sweep", key)
        for value in out:
            if key == "m":
                _check_m("sweep.m", value, allow_inf=True)
            elif not math.isfinite(value):
                raise ConfigError(f"sweep.{key}: not a finite number: {value!r}")
            elif key == "gamma_db" and not _has_linear_value(value):
                raise ConfigError(f"sweep.gamma_db: {value:g} dB is beyond the float range")
            elif key == "rho_out" and not (0.0 < value < 1.0):
                raise ConfigError("sweep.rho_out: every value must lie strictly in (0, 1)")
        return out

    def include_rs(self) -> bool:
        raw = self.get("sweep", "include_rs").strip().lower()
        if raw in ("true", "yes", "1"):
            return True
        if raw in ("false", "no", "0"):
            return False
        raise ConfigError(f"sweep.include_rs: expected true or false, got {raw!r}")

    def validate(self) -> None:
        self.params()
        self.m_values()
        self.trials()
        self.seed()
        if self._int("mc", "jobs") != 1:
            raise ConfigError("mc.jobs must be 1: Monte Carlo runs in one process")
        for key in ("tau_ms", "gamma_db", "rho_out", "m"):
            self.sweep_axis(key)
        self.include_rs()


def default_config() -> ScenarioConfig:
    return ScenarioConfig({s: dict(kv) for s, kv in _DEFAULTS.items()})


def parse_config(text: str) -> ScenarioConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    cfg = default_config()
    for section in parser.sections():
        if section not in _DEFAULTS:
            raise ConfigError(f"unknown section [{section}]")
        for key, value in parser.items(section):
            if key not in _DEFAULTS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            cfg.sections[section][key] = value.strip()
    cfg.validate()
    return cfg


def render_config(cfg: ScenarioConfig) -> str:
    """Canonical INI text: fixed section and key order, raw values."""
    buf = io.StringIO()
    first = True
    for section, keys in _DEFAULTS.items():
        if not first:
            buf.write("\n")
        first = False
        buf.write(f"[{section}]\n")
        for key in keys:
            buf.write(f"{key} = {cfg.sections[section][key]}\n")
    return buf.getvalue()


def apply_set(cfg: ScenarioConfig, assignment: str) -> None:
    """Apply one 'section.key=value' override in place."""
    target, _, value = assignment.partition("=")
    if not _:
        raise ConfigError(f"--set expects section.key=value, got {assignment!r}")
    section, _, key = target.strip().partition(".")
    key = key.strip()
    if not key or section not in _DEFAULTS or key not in _DEFAULTS[section]:
        raise ConfigError(f"--set: unknown setting {target.strip()!r}")
    cfg.sections[section][key] = value.strip()


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # every NaN, of either sign, formats as "nan"
    return format(float(value), ".10g")


def _meta_lines(cfg: ScenarioConfig, command: str, notes: list[str]) -> list[str]:
    lines = [f"# underlaysim {__version__}", f"# command: {command}"]
    for section, keys in _DEFAULTS.items():
        for key in keys:
            lines.append(f"# config {section}.{key} = {cfg.sections[section][key]}")
    for note in notes:
        lines.append(f"# note: {note}")
    return lines


def _csv_cells(cells) -> str:
    return ",".join(_fmt(cell) for cell in cells)


def _write_csv(out_path: str, meta: list[str], header: list[str], rows) -> None:
    """Write the CSV; rows holds one finished text line per data row."""
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        for line in meta:
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(rows)


def _m_suffix(m: float) -> str:
    # deterministic-channel columns keep their untagged names
    if math.isinf(m):
        return ""
    return "_m" + format(m, "g").replace(".", "p").replace("-", "m")


def _bound(params: ScenarioParams, m: float, tau: float) -> float:
    """Regime bound in dB, or nan where the window is too short to have one."""
    try:
        if math.isinf(m):
            return linear_to_db(perf_bound_det(params, tau))
        return linear_to_db(perf_bound_fading(params, m, tau))
    except specfun.BracketError:
        return math.nan


# every third row carries the simulated overlay so plotted markers stay sparse
_MARKER_STRIDE = 3


def _markers(n_rows: int, value_at) -> list:
    """An overlay column: value_at(i) on every _MARKER_STRIDE-th row i, blank
    elsewhere."""
    return [value_at(i) if i % _MARKER_STRIDE == 0 else "" for i in range(n_rows)]


def _marker_note(trials: int, per: str) -> str:
    return f"simulated overlay at every {_MARKER_STRIDE}rd row, {trials} trials per {per}"


_FIG4_INR_OFFSETS = (-10.0, 0.0, 10.0)
_FIG4_TAUS = (1e-4, 1e-3, 1e-2)
_FIG4_GAMMA_DB = 10.0
_FIG4_POWER = 1.0


def _fig4_traces(cfg: ScenarioConfig, panel: str):
    params = cfg.params()
    if panel == "a":
        base_g_db = linear_to_db(params.g_pt_sr)
        for off in _FIG4_INR_OFFSETS:
            label = f"inr_{format(off, 'g').replace('-', 'm').replace('.', 'p')}dB"
            p2 = replace(params, gamma=db_to_linear(_FIG4_GAMMA_DB),
                         g_pt_sr=db_to_linear(base_g_db + off))
            yield label, p2, 1e-3
    else:
        for tau in _FIG4_TAUS:
            label = f"tau_{format(tau * 1e3, 'g').replace('.', 'p')}ms"
            p2 = replace(params, gamma=db_to_linear(_FIG4_GAMMA_DB))
            yield label, p2, tau


def _fig4(cfg: ScenarioConfig, panel: str):
    grid = np.linspace(2.0, 8.0, 241)
    trials, seed = cfg.trials(), cfg.seed()
    cdfs, sims = {}, {}
    for k, (label, p2, tau) in enumerate(_fig4_traces(cfg, panel)):
        cdfs[f"cdf_{label}"] = dists.capacity_cdf(capacity_law_det(p2, tau, _FIG4_POWER),
                                                  grid)
        c_hat = np.sort(montecarlo.run_trials_det(p2, tau, trials, seed + k,
                                                  _FIG4_POWER).c_hat)
        empirical_cdf = np.searchsorted(c_hat, grid, side="right") / c_hat.size
        sims[f"sim_{label}"] = _markers(grid.size, empirical_cdf.__getitem__)
    return {"c_bits": grid, **cdfs, **sims}, [_marker_note(trials, "trace")]


def _bound_table(cfg: ScenarioConfig, taus, columns, missing_note: str):
    """Regime bound in dB over tau; columns are (suffix, m) pairs."""
    params = cfg.params()
    bounds = {f"gamma_star_dB{suffix}": [_bound(params, m, float(tau)) for tau in taus]
              for suffix, m in columns}
    missing = sum(map(math.isnan, itertools.chain.from_iterable(bounds.values())))
    notes = [f"{missing} {missing_note}"] if missing else []
    return {"tau_ms": taus * 1e3, **bounds}, notes


_FIG5_M = (0.5, 1.0, 2.0, 5.0)
_FIG68_TAUS = np.geomspace(1e-5, 1e-2, 37)


def _power_table(cfg: ScenarioConfig, ms):
    """Controlled and perfect-knowledge power over tau, two columns per m.
    Both read only the PR-ST law, so they need no PT-SR gain."""
    params = cfg.params()
    table = {"tau_ms": _FIG68_TAUS * 1e3}
    for m in ms:
        if math.isinf(m):
            pr_st = None
            powers = controlled_power_det_array(params, _FIG68_TAUS, params.gamma,
                                                params.rho_out).p_cont.tolist()
        else:
            pr_st = pr_st_law(params, m)
            powers = [controlled_power_fading(params, pr_st, tau).p_cont
                      for tau in _FIG68_TAUS.tolist()]
        ideal = linear_to_db(ideal_power(params, pr_st))
        # dB per value: numpy's log10 can differ from math.log10 in the last bit
        table[f"p_cont_dBm{_m_suffix(m)}"] = list(map(linear_to_db, powers))
        table[f"p_cont_dBm_ideal{_m_suffix(m)}"] = [ideal] * _FIG68_TAUS.size
    return table, []


def _rate_table(cfg: ScenarioConfig, ms):
    """Throughput over tau, its perfect-knowledge bound and a simulated
    overlay at the same power, three columns per m."""
    params = cfg.params()
    trials, seed = cfg.trials(), cfg.seed()
    taus = _FIG68_TAUS.tolist()
    table = {"tau_ms": _FIG68_TAUS * 1e3}
    for k, m in enumerate(ms):
        if math.isinf(m):
            pc = controlled_power_det_array(params, _FIG68_TAUS, params.gamma,
                                            params.rho_out)
            rates = throughput_det_array(params, _FIG68_TAUS, pc).tolist()
            powers = pc.p_cont.tolist()
            ideal = throughput_ideal_det(params)
            simulate = functools.partial(montecarlo.run_trials_det, params)
        else:
            links = default_fading(params, m)
            solved = [controlled_power_fading(params, links.pr_st, tau) for tau in taus]
            rates = [throughput_fading_at(params, links, tau, pc)
                     for tau, pc in zip(taus, solved)]
            powers = [pc.p_cont for pc in solved]
            ideal = throughput_ideal_fading(params, links)
            simulate = functools.partial(montecarlo.run_trials_fading, params, links)
        table[f"rs_EM{_m_suffix(m)}"] = rates
        table[f"rs_IM{_m_suffix(m)}"] = [ideal] * len(taus)
        table[f"rs_sim{_m_suffix(m)}"] = _markers(len(taus), lambda i: simulate(
            taus[i], trials, seed + 100 * k + i, powers[i]).mean_throughput)
    return table, [_marker_note(trials, "marker")]


_FIG79_GAMMAS_DB = np.linspace(-20.0, 10.0, 13)


def _pfull_tag(p_db: float) -> str:
    return "pfull_" + format(p_db, "g").replace("-", "m").replace(".", "p") + "dBm"


_FIG7_COLUMNS = tuple((f"_{_pfull_tag(p_db)}", {"p_full": db_to_linear(p_db)}, math.inf)
                      for p_db in (0.0, -10.0))


def _tradeoff_table(cfg: ScenarioConfig, panel: str, columns):
    """Per gamma, the tau-optimized estimation rate (EM), the perfect-knowledge
    bound (IM) and the no-power-control baseline (NPC); columns are (suffix,
    scenario overrides, m) triples. Panel b has a ten times stronger PT-SR
    link."""
    params = cfg.params()
    if panel == "b":
        params = replace(params, g_pt_sr=params.g_pt_sr * 10.0)
    table = {"gamma_dB": _FIG79_GAMMAS_DB}
    for suffix, overrides, m in columns:
        rates = []
        for g_db in _FIG79_GAMMAS_DB.tolist():
            p2 = replace(params, gamma=db_to_linear(g_db), **overrides)
            if math.isinf(m):
                rates.append((optimize_tradeoff(p2).r_s_opt, throughput_ideal_det(p2),
                              throughput_no_pc_det(p2)[1]))
            else:
                links = default_fading(p2, m)
                rates.append((optimize_tradeoff(p2, links).r_s_opt,
                              throughput_ideal_fading(p2, links),
                              throughput_no_pc_fading(p2, links)[1]))
        table.update((f"rs_{tag}{suffix}", col)
                     for tag, col in zip(("EM", "IM", "NPC"), zip(*rates)))
    notes = ["EM column reports the tau-optimized throughput per gamma"]
    return table, notes


def _fig9_columns(cfg: ScenarioConfig):
    return [(_m_suffix(m), {}, m) for m in cfg.m_values()]


# Each builder returns (table, notes): table maps header names to
# equal-length columns, the axis first. A builder fills one column per m over
# the whole axis; the m = inf power and rate columns are one array call each.
_FIGURES = {
    # fig3 runs well past the frame so the curve visibly flattens onto the
    # long-window limit; the bound itself has no frame dependence
    "fig3": lambda cfg: _bound_table(
        cfg, np.geomspace(1e-4, 0.3, 49), [("", math.inf)],
        "short-window rows have no operating bound; cells left nan"),
    "fig4a": lambda cfg: _fig4(cfg, "a"),
    "fig4b": lambda cfg: _fig4(cfg, "b"),
    "fig5": lambda cfg: _bound_table(
        cfg, np.geomspace(1e-4, 1e-2, 41),
        [(_m_suffix(m), m) for m in _FIG5_M] + [("_det", math.inf)],
        "cells have no operating bound (window too short); left nan"),
    "fig6a": lambda cfg: _power_table(cfg, [math.inf]),
    "fig6b": lambda cfg: _rate_table(cfg, [math.inf]),
    "fig7a": lambda cfg: _tradeoff_table(cfg, "a", _FIG7_COLUMNS),
    "fig7b": lambda cfg: _tradeoff_table(cfg, "b", _FIG7_COLUMNS),
    "fig8a": lambda cfg: _power_table(cfg, cfg.m_values()),
    "fig8b": lambda cfg: _rate_table(cfg, cfg.m_values()),
    "fig9a": lambda cfg: _tradeoff_table(cfg, "a", _fig9_columns(cfg)),
    "fig9b": lambda cfg: _tradeoff_table(cfg, "b", _fig9_columns(cfg)),
}

FIGURE_IDS = tuple(sorted(_FIGURES))


def cmd_figure(fig_id: str, cfg: ScenarioConfig, out_path: str) -> None:
    if fig_id not in _FIGURES:
        raise ConfigError(f"unknown figure id {fig_id!r}; "
                          f"choose from {', '.join(FIGURE_IDS)}")
    table, notes = _FIGURES[fig_id](cfg)
    meta = _meta_lines(cfg, f"figure {fig_id}", notes)
    _write_csv(out_path, meta, list(table),
               [_csv_cells(row) + "\n" for row in zip(*table.values(), strict=True)])


def _format_rows(row_format: str, columns) -> list[str]:
    """One text line per row: row_format, which ends in a newline, filled
    with the row's entry of each column, every row in one % call. Under
    %.10g a float prints as _fmt prints it; no cell may hold a line break."""
    cells = tuple(itertools.chain.from_iterable(zip(*columns)))
    return (row_format * len(columns[0]) % cells).splitlines(keepends=True)


_REGIME_CELLS = np.array([Regime.INTERFERENCE_LIMITED.value, Regime.POWER_LIMITED.value],
                         dtype=object)


def _det_sweep_cells(params: ScenarioParams, keys, tau, gamma, rho_out,
                     include_rs: bool) -> list[str]:
    """The text of the m = inf rows at arrays of grid points; keys holds the
    rows' tau, gamma and rho_out cells, one array each."""
    pc = controlled_power_det_array(params, tau, gamma, rho_out)
    rs = [throughput_det_array(params, tau, pc).tolist()] if include_rs else []
    if not (pc.p_cont > 0.0).all():
        raise ValueError("only positive values have a dB representation")
    # linear_to_db's arithmetic: numpy's log10 can differ from math.log10 in the last bit
    p_db = [10.0 * v for v in map(math.log10, pc.p_cont.tolist())]
    # tau, gamma, rho_out, m (inf), p_cont_dBm, regime (, rs)
    row_format = "%s,%s,%s,inf,%.10g,%s" + ",%.10g" * include_rs + "\n"
    regimes = _REGIME_CELLS[pc.power_limited.astype(np.intp)]
    return _format_rows(row_format, [*keys, p_db, regimes, *rs])


def _fading_sweep_tail(params: ScenarioParams, m: float, tau: float, gamma: float,
                       rho_out: float, include_rs: bool) -> str:
    """The text tail of one finite-m row; the rate reuses the row's power."""
    p2 = replace(params, gamma=gamma, rho_out=rho_out)
    # the power reads only the PR-ST law, which needs no PT-SR gain
    pc = controlled_power_fading(p2, pr_st_law(p2, m), tau)
    cells = [linear_to_db(pc.p_cont), pc.regime.value]
    if include_rs:
        cells.append(throughput_fading_at(p2, default_fading(p2, m), tau, pc))
    return _csv_cells(cells)


def cmd_sweep(cfg: ScenarioConfig, out_path: str) -> None:
    """Tabulate the power rule over the (tau, gamma, rho_out, m) grid.

    Rows run over tau, then gamma, rho_out and m. The m = inf columns are
    evaluated in array calls over blocks of _SWEEP_BLOCK (tau, gamma,
    rho_out) points and formatted as text by one call per block; finite-m
    rows call the fading routines row by row. Every row is held until the
    grid is done, so a sweep that fails writes no CSV.
    """
    params = cfg.params()
    taus_ms = cfg.sweep_axis("tau_ms")
    gammas_db = cfg.sweep_axis("gamma_db")
    rhos = cfg.sweep_axis("rho_out")
    ms = cfg.sweep_axis("m")
    total = len(taus_ms) * len(gammas_db) * len(rhos) * len(ms)
    if total > _SWEEP_ROW_CAP:
        raise ConfigError(
            f"sweep grid has {total} rows, above the cap of {_SWEEP_ROW_CAP}")
    include_rs = cfg.include_rs()
    header = ["tau_ms", "gamma_dB", "rho_out", "m", "p_cont_dBm", "regime"]
    if include_rs:
        header.append("rs")
    gammas = [db_to_linear(g_db) for g_db in gammas_db]
    # key cells are formatted once per axis value and taken by the rows
    key_cells = [np.array([_fmt(v) for v in values], dtype=object)
                 for values in (taus_ms, gammas_db, rhos)]
    m_cells = [format(m, "g") for m in ms]
    any_det = any(math.isinf(m) for m in ms)
    axes = (np.array(taus_ms) * 1e-3, np.array(gammas), np.array(rhos))
    shape = tuple(a.size for a in axes)
    n_points = math.prod(shape)
    rows = []
    for start in range(0, n_points, _SWEEP_BLOCK):
        block = np.unravel_index(np.arange(start, min(start + _SWEEP_BLOCK, n_points)),
                                 shape)
        keys = [cells[ix] for cells, ix in zip(key_cells, block)]
        det = (_det_sweep_cells(params, keys, *(axis[ix] for axis, ix in zip(axes, block)),
                                include_rs) if any_det else None)
        columns = []
        for m, m_cell in zip(ms, m_cells):
            columns.append(det if math.isinf(m) else [
                f"{tau_cell},{gamma_cell},{rho_cell},{m_cell},"
                + _fading_sweep_tail(params, m, taus_ms[it] * 1e-3, gammas[ig], rhos[ir],
                                     include_rs) + "\n"
                for tau_cell, gamma_cell, rho_cell, it, ig, ir in zip(
                    *keys, *(ix.tolist() for ix in block))])
        # within a grid point the rows run over m
        rows.extend(itertools.chain.from_iterable(zip(*columns)))
    meta = _meta_lines(cfg, "sweep", [f"{total} rows"])
    _write_csv(out_path, meta, header, rows)


def _validate_checks(cfg: ScenarioConfig):
    """Yield (name, passed, measured, tolerance) tuples, cheap checks first.

    Mixes self-consistency checks (the package against its own Monte Carlo)
    with anchors to the reference scenario's published values; on configs
    that stray from the reference scenario the anchors are expected to
    fail, which is what makes tampering visible.
    """
    params = cfg.params()
    trials = min(cfg.trials(), 100_000)
    mc_small = min(trials, 20_000)
    seed = cfg.seed()
    tau_ref = 1e-3

    # 1: the gamma surrogate must preserve both matched moments exactly
    worst = 0.0
    for law in (dists.NcChiSq(7, 3.2, 2.5e-9), dists.NcChiSq(1000, 1000.0, 1e-13),
                dists.NcChiSq(2, 0.0, 1e-10)):
        ga = dists.gamma_match(law)
        worst = max(worst, abs(ga.mean - law.mean) / law.mean,
                    abs(ga.variance - law.variance) / law.variance)
    yield "surrogate moment identity", worst <= 1e-12, f"{worst:.2e}", "<= 1e-12"

    # 2: surrogate of the receive-power estimate at 1000 samples, unit SNR
    ga = dists.gamma_match(dists.received_power_law(1.0, 1000, params.sigma2))
    shape_err = abs(ga.shape - 2000.0 / 3.0) / (2000.0 / 3.0)
    scale_err = abs(ga.scale - 0.003 * params.sigma2) / (0.003 * params.sigma2)
    ok = shape_err <= 1e-9 and scale_err <= 1e-9
    yield ("estimate surrogate anchor", ok,
           f"shape err {shape_err:.2e}, scale err {scale_err:.2e}", "<= 1e-9")

    # 3: controlled power at 1 ms on the reference scenario
    pc = controlled_power_det(params, tau_ref)
    p_db = linear_to_db(pc.p_cont)
    yield ("controlled power anchor (1 ms)", abs(p_db + 10.41) <= 0.1,
           f"{p_db:.3f} dBm", "-10.41 +- 0.1 dBm")

    # 4: operating bound at 50 ms sits 0.4 dB under its long-window limit
    limit_db = linear_to_db(perf_bound_asymptote(params))
    gamma_star_db = math.nan
    try:
        gamma_star_db = linear_to_db(perf_bound_det(params, 0.05))
        ok = (abs(limit_db + 10.0) <= 1e-9
              and abs(gamma_star_db + 10.40) <= 0.1)
    except specfun.BracketError:
        ok = False
    yield ("operating bound anchor (50 ms)", ok,
           f"{gamma_star_db:.3f} dB, limit {limit_db:.3f} dB",
           "-10.40 +- 0.1 dB, limit -10 dB")

    # 5: the closed-form power rule against simulated outage
    mc = montecarlo.run_trials_det(params, tau_ref, trials, seed, pc.p_cont)
    resid = abs(outage_det(params, tau_ref, pc.p_cont) - params.rho_out)
    gap = abs(mc.outage_rate - params.rho_out)
    ok = resid <= 1e-9 and gap <= 4.0 * mc.outage_se
    yield ("outage self-consistency (det)", ok,
           f"analytic residual {resid:.1e}, mc gap {gap:.2e}",
           f"<= 1e-9 and <= 4 se ({4.0 * mc.outage_se:.2e})")

    # 6: mean capacity against the same simulation
    dist = capacity_law_det(params, tau_ref, pc.p_cont)
    c_gap = abs(mc.mean_capacity - mean_capacity(dist))
    ok = c_gap <= 4.0 * mc.capacity_se
    yield ("mean capacity vs simulation (det)", ok, f"gap {c_gap:.2e}",
           f"<= 4 se ({4.0 * mc.capacity_se:.2e})")

    # 7: capacity density normalizes to one, by a panel rule over
    # v = ln SINR: the ends are centred at ln(lam a_s / a_i), scaled by the
    # law's spread and spaced as sinh, so the panels widen into the tails
    worst = 0.0
    for tau in (1e-4, 1e-3):
        d = capacity_law_det(params, tau, pc.p_cont)
        a_s, a_i = d.gain_approx.shape, d.interf_approx.shape
        ends = (math.log(d.ratio_scale * a_s / a_i)
                + math.sqrt(1.0 / a_s + 1.0 / a_i) * np.sinh(np.linspace(-5.0, 5.0, 21)))
        v, w = specfun.panel_rule(ends[:-1], ends[1:], 8)
        # the capacity is log2(1 + e^v), and dC/dv = 1 / ((1 + e^-v) ln 2)
        x = np.logaddexp(0.0, v) / math.log(2.0)
        total = float(np.sum(dists.capacity_pdf(d, x) * w / (1.0 + np.exp(-v))))
        total /= math.log(2.0)
        worst = max(worst, abs(total - 1.0))
    yield "capacity density normalization", worst <= 1e-6, f"{worst:.2e}", "<= 1e-6"

    # 8: capacity law against exact-law sampling
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    n_ks = mc_small
    n_ref = samples_for(tau_ref, params.f_s)
    g_draw = dists.sample_ncx2(dists.pilot_gain_law(
        params.g_st_sr, params.pilot_samples, params.sigma2), rng, n_ks)
    i_draw = dists.sample_ncx2(dists.interference_power_law(
        params.g_pt_sr, params.p_tx_pt, n_ref, params.sigma2), rng, n_ks)
    c_draw = np.sort(np.log2(1.0 + g_draw * pc.p_cont / i_draw))
    ks = montecarlo.ks_distance(c_draw, lambda x: dists.capacity_cdf(dist, x))
    yield "capacity law KS vs exact draws", ks <= 0.02, f"{ks:.4f}", "<= 0.02"

    # 9: the estimation-throughput curve peaks inside the grid, near ideal
    curve = optimize_tradeoff(params)
    grid_taus = [t for t, _ in curve.points]
    interior = grid_taus[0] < curve.tau_opt < grid_taus[-1]
    gap = throughput_ideal_det(params) - curve.r_s_opt
    ok = interior and curve.r_s_opt > 0.0 and 0.0 <= gap <= 0.15
    yield ("tradeoff peak anchor", ok,
           f"tau_opt {curve.tau_opt * 1e3:.3f} ms, gap {gap:.4f}",
           "interior peak, gap in [0, 0.15]")

    # 10: fading power ordering in m, capped by the deterministic channel;
    # checks 11 and 12 reuse the m = 1 rule
    solved = {m: controlled_power_fading(params, default_fading(params, m).pr_st, tau_ref)
              for m in (0.5, 1.0, 2.0, 5.0)}
    values = [res.p_cont for res in solved.values()]
    ok = all(p1 < p2 for p1, p2 in zip([0.0] + values, values + [pc.p_cont]))
    yield ("fading power monotone in m", ok,
           ", ".join(f"{linear_to_db(v):.2f}" for v in values) + " dBm",
           "increasing, below det")

    # 11: fading outage against simulation
    links = default_fading(params, 1.0)
    pcf = solved[1.0]
    mcf = montecarlo.run_trials_fading(params, links, tau_ref, mc_small, seed + 1,
                                       pcf.p_cont)
    gap = abs(mcf.outage_rate - params.rho_out)
    ok = gap <= 4.0 * mcf.outage_se
    yield ("outage self-consistency (fading)", ok, f"mc gap {gap:.2e}",
           f"<= 4 se ({4.0 * mcf.outage_se:.2e})")

    # 12: fading throughput against simulation
    r_analytic = throughput_fading_at(params, links, tau_ref, pcf)
    gap = abs(mcf.mean_throughput - r_analytic)
    ok = gap <= 4.0 * mcf.throughput_se
    yield ("throughput vs simulation (fading)", ok, f"gap {gap:.2e}",
           f"<= 4 se ({4.0 * mcf.throughput_se:.2e})")

    # 13: the forced window without power control really hits the target
    p_probe = replace(params, gamma=db_to_linear(-12.0))
    tau_f, _ = throughput_no_pc_det(p_probe)
    if math.isnan(tau_f):
        yield ("no-control calibration", False, "no forced window", "exists")
    else:
        resid = abs(outage_det(p_probe, tau_f, p_probe.p_full) - p_probe.rho_out)
        mc_npc = montecarlo.run_trials_det(p_probe, tau_f, mc_small, seed + 2,
                                           p_probe.p_full)
        gap = abs(mc_npc.outage_rate - p_probe.rho_out)
        ok = resid <= 1e-3 and gap <= 4.0 * mc_npc.outage_se
        yield ("no-control calibration", ok,
               f"tau {tau_f * 1e3:.3f} ms, residual {resid:.1e}, mc gap {gap:.2e}",
               f"<= 1e-3 and <= 4 se ({4.0 * mc_npc.outage_se:.2e})")


def cmd_validate(cfg: ScenarioConfig) -> int:
    passed = failed = 0
    for name, ok, measured, tolerance in _validate_checks(cfg):
        status = "PASS" if ok else "FAIL"
        if ok:
            passed += 1
        else:
            failed += 1
        print(f"check {passed + failed:2d}  {status}  {name:38s} "
              f"{measured}  [{tolerance}]")
    total = passed + failed
    verdict = "PASS" if failed == 0 else "FAIL"
    print(f"validate: {verdict} ({passed}/{total} checks)")
    return 0 if failed == 0 else 1


def _load_config(args) -> ScenarioConfig:
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        cfg = parse_config(text)
    else:
        cfg = default_config()
    for assignment in args.set or []:
        apply_set(cfg, assignment)
    if args.seed is not None:
        cfg.sections["mc"]["seed"] = str(args.seed)
    if args.trials is not None:
        cfg.sections["mc"]["trials"] = str(args.trials)
    if args.jobs is not None:
        cfg.sections["mc"]["jobs"] = str(args.jobs)
    cfg.validate()
    return cfg


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI file; defaults are built in")
    sub.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                     help="override one setting; repeatable")
    sub.add_argument("--seed", type=int, help="override mc.seed")
    sub.add_argument("--trials", type=int, help="override mc.trials")
    sub.add_argument("--jobs", type=int,
                     help="override mc.jobs; only 1 is accepted (Monte Carlo runs "
                          "in one process), kept for existing command lines")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="underlaysim",
        description="Underlay spectrum sharing under imperfect channel knowledge")
    parser.add_argument("--version", action="version",
                        version=f"underlaysim {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_fig = subs.add_parser("figure", help="write one figure's data as CSV")
    p_fig.add_argument("fig_id", choices=FIGURE_IDS, metavar="FIG",
                       help=f"one of: {', '.join(FIGURE_IDS)}")
    p_fig.add_argument("--out", required=True, help="output CSV path")
    _add_common(p_fig)

    p_val = subs.add_parser("validate", help="run the built-in check suite")
    _add_common(p_val)

    p_sweep = subs.add_parser("sweep", help="tabulate power control over a grid")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    _add_common(p_sweep)

    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "figure":
            cmd_figure(args.fig_id, cfg, args.out)
            return 0
        if args.command == "validate":
            return cmd_validate(cfg)
        cmd_sweep(cfg, args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (specfun.BracketError, specfun.ConvergenceError, ValueError,
            OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

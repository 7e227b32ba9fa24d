"""Command-line entry points: figure data, parameter sweeps, validation.

Configuration is INI text with dB-valued fields; parsing keeps the raw
strings so CSV metadata echoes the configuration byte for byte, and every
dB-to-linear conversion happens in this module and nowhere else. Outputs
carry no timestamps: a given (config, seed, version) renders identical
bytes on every run.
"""

from __future__ import annotations

import argparse
import collections
import configparser
import functools
import io
import itertools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, dists, montecarlo, specfun
from .power_control import (Regime, ScenarioParams, controlled_power,
                            controlled_power_det, controlled_power_fading,
                            db_to_linear, default_fading, ideal_power,
                            linear_to_db, outage, perf_bound,
                            perf_bound_asymptote, pr_st_law, samples_for)
from .throughput import (capacity_law_det, mean_capacity, optimize_tradeoff,
                         throughput_array, throughput_fading_at,
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
# grid points per sweep block, rounded down to whole (tau, gamma) lines and
# at least one: per m, one controlled_power call, one throughput_array call
# (with rates), one domain check and one % format call per block. A rho_out
# axis longer than this makes each line a block of its own, up to the row
# cap; the block sets the size of the per-point arrays and texts held at
# once (~32 kB per array at 4096 points)
_SWEEP_BLOCK = 4096


def _check_m(where: str, ms: list[float], allow_inf: bool = False) -> list[float]:
    """Every Nakagami m is finite and at least 0.5; where allow_inf, inf (the
    deterministic channel) is taken too. No two m may print alike under %g:
    that text names an m's figure columns and fills its sweep rows' m cells."""
    if not all(m >= 0.5 and (math.isfinite(m) or allow_inf) for m in ms):
        raise ConfigError(f"{where}: every m must be finite and at least 0.5"
                          + (", or inf" if allow_inf else ""))
    cell, count = collections.Counter(format(m, "g") for m in ms).most_common(1)[0]
    if count > 1:
        raise ConfigError(f"{where}: {count} values print as {cell} under %g; "
                          "every m must print apart")
    return ms


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
        return _check_m("fading.m", self._floats("fading", "m"))

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
        if key == "m":
            return _check_m("sweep.m", out, allow_inf=True)
        for value in out:
            if not math.isfinite(value):
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


# data lines joined into one string per write: one write per line costs
# about twice as much
_CSV_RUN = 512


def _write_csv(out_path: str, meta: list[str], header: list[str], rows: list[str]) -> None:
    """Write the CSV; rows holds one finished text line per data row."""
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in meta) + ",".join(header) + "\n")
        for start in range(0, len(rows), _CSV_RUN):
            fh.write("".join(rows[start:start + _CSV_RUN]))


def _m_suffix(m: float) -> str:
    # deterministic-channel columns keep their untagged names
    if math.isinf(m):
        return ""
    return "_m" + format(m, "g").replace(".", "p").replace("-", "m")


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
    """Regime bound in dB over tau, nan where a window has none; columns are (suffix, m) pairs."""
    params = cfg.params()
    bounds = {f"gamma_star_dB{suffix}": [math.nan if math.isnan(star) else linear_to_db(star)
                                          for star in perf_bound(params, taus, m).tolist()]
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
        powers = controlled_power(params, _FIG68_TAUS, params.gamma, params.rho_out, m).p_cont
        pr_st = None if math.isinf(m) else pr_st_law(params, m)
        ideal = linear_to_db(ideal_power(params, pr_st))
        # dB per value: numpy's log10 can differ from math.log10 in the last bit
        table[f"p_cont_dBm{_m_suffix(m)}"] = list(map(linear_to_db, powers.tolist()))
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
        power = controlled_power(params, _FIG68_TAUS, params.gamma, params.rho_out, m)
        powers = power.p_cont.tolist()
        rates = throughput_array(params, _FIG68_TAUS, power, m).tolist()
        if math.isinf(m):
            ideal = throughput_ideal_det(params)
            simulate = functools.partial(montecarlo.run_trials_det, params)
        else:
            links = default_fading(params, m)
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
    # gamma per value: numpy's power can differ from math's in the last bit
    gammas = [db_to_linear(g_db) for g_db in _FIG79_GAMMAS_DB.tolist()]
    for suffix, overrides, m in columns:
        curves = optimize_tradeoff(replace(params, **overrides), np.array(gammas), m)
        rates = []
        for gamma in gammas:
            p2 = replace(params, gamma=gamma, **overrides)
            if math.isinf(m):
                rates.append((throughput_ideal_det(p2), throughput_no_pc_det(p2)[1]))
            else:
                links = default_fading(p2, m)
                rates.append((throughput_ideal_fading(p2, links),
                              throughput_no_pc_fading(p2, links)[1]))
        table[f"rs_EM{suffix}"] = [curve.r_s_opt for curve in curves]
        table.update((f"rs_{tag}{suffix}", col) for tag, col in zip(("IM", "NPC"), zip(*rates)))
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
    rows = [",".join(map(_fmt, row)) + "\n" for row in zip(*table.values(), strict=True)]
    _write_csv(out_path, _meta_lines(cfg, f"figure {fig_id}", notes), list(table), rows)


def _format_rows(prefixes, rho_cells, m_cell: str, p_db, regimes, rs=None) -> list[str]:
    """One text line per sweep row over whole (tau, gamma) lines: one
    template per line, a row per rho_out cell, filled with the line's prefix
    ("tau,gamma,") and each row's p_cont_dBm, regime and, with rs, rate, all
    lines in one % call. Under %.10g a float prints as _fmt prints it."""
    # the rho_out and m cells are written into the template: they come from
    # _fmt and format(m, "g"), so none can hold a % or a line break
    tail = f",{m_cell},%.10g,%s" + ",%.10g" * (rs is not None) + "\n"
    line = "".join("%s" + rho + tail for rho in rho_cells)
    columns = [np.repeat(prefixes, len(rho_cells)).tolist(), p_db, regimes]
    if rs is not None:
        columns.append(rs)
    # the cells row by row: column k takes every len(columns)-th slot from k
    cells = [None] * (len(columns) * len(p_db))
    for k, column in enumerate(columns):
        cells[k::len(columns)] = column
    return (line * len(prefixes) % tuple(cells)).splitlines(keepends=True)


_REGIME_CELLS = np.array([Regime.INTERFERENCE_LIMITED.value, Regime.POWER_LIMITED.value],
                         dtype=object)


def _sweep_rows(params: ScenarioParams, m: float, prefixes, rho_cells, tau, gamma, rho_out,
                include_rs: bool) -> list[str]:
    """The text of the rows at one m over whole (tau, gamma) lines, in the C
    order of broadcast(tau, gamma, rho_out): tau and gamma hold one value
    per line on a trailing axis of length 1, prefixes each line's text
    "tau,gamma,", and rho_cells the text of rho_out."""
    power = controlled_power(params, tau, gamma, rho_out, m)
    p_cont = power.p_cont.ravel()
    if not (p_cont > 0.0).all():
        raise ValueError("only positive values have a dB representation")
    # linear_to_db's arithmetic: numpy's log10 can differ from math.log10 in the last bit
    p_db = [10.0 * v for v in map(math.log10, p_cont.tolist())]
    regimes = _REGIME_CELLS[power.power_limited.ravel().astype(np.intp)].tolist()
    return _format_rows(prefixes, rho_cells, format(m, "g"), p_db, regimes,
                        throughput_array(params, tau, power, m).ravel().tolist()
                        if include_rs else None)


def cmd_sweep(cfg: ScenarioConfig, out_path: str) -> None:
    """Tabulate the power rule over the (tau, gamma, rho_out, m) grid.

    Rows run over tau, then gamma, rho_out and m, evaluated over blocks of
    whole (tau, gamma) lines, about _SWEEP_BLOCK points and at least one
    line each. Per block and per m, one controlled_power call and, with
    rates, one throughput_array call take the channel's route, and one
    _format_rows call writes the rows' text, for every m alike.
    Every row is held until the grid is done, so a sweep that fails writes
    no CSV.
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
    header = "tau_ms gamma_dB rho_out m p_cont_dBm regime rs".split()[:6 + include_rs]
    # text cells are formatted once per axis value: each (tau, gamma) line's
    # prefix, and the rho_out cells every line shares
    tau_cells, gamma_cells, rho_cells = ([_fmt(v) for v in values]
                                         for values in (taus_ms, gammas_db, rhos))
    prefixes = np.array([f"{t},{g}," for t in tau_cells for g in gamma_cells], dtype=object)
    # the tau and gamma of each line, on a trailing axis of length 1
    line_taus = np.repeat(np.array(taus_ms) * 1e-3, len(gammas_db))[:, None]
    line_gammas = np.tile([db_to_linear(g) for g in gammas_db], len(taus_ms))[:, None]
    rho_out = np.array(rhos)
    # a block holds whole (tau, gamma) lines: the power rule takes one tau
    # and gamma per line and the rho_out axis as its trailing axis
    lines_per_block = max(1, _SWEEP_BLOCK // len(rhos))
    rows = []
    for start in range(0, prefixes.size, lines_per_block):
        block = slice(start, start + lines_per_block)
        columns = [_sweep_rows(params, m, prefixes[block], rho_cells, line_taus[block],
                               line_gammas[block], rho_out, include_rs)
                   for m in ms]
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
        gamma_star_db = linear_to_db(perf_bound(params, 0.05))
        ok = (abs(limit_db + 10.0) <= 1e-9
              and abs(gamma_star_db + 10.40) <= 0.1)
    except specfun.BracketError:
        ok = False
    yield ("operating bound anchor (50 ms)", ok,
           f"{gamma_star_db:.3f} dB, limit {limit_db:.3f} dB",
           "-10.40 +- 0.1 dB, limit -10 dB")

    # 5: the closed-form power rule against simulated outage
    mc = montecarlo.run_trials_det(params, tau_ref, trials, seed, pc.p_cont)
    resid = abs(outage(params, tau_ref, pc.p_cont) - params.rho_out)
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

    # 7: the capacity CDF (fig4's route) integrates to the mean capacity
    # (the rates' route): E[C] = int (1 - F(c)) dc, by a panel rule over
    # v = ln SINR. The ends are centred at ln(lam a_s / a_i), scaled by the
    # law's spread and spaced as sinh, so the panels widen into the tails;
    # below the first end F is nil, so that stretch adds its capacity c
    worst = 0.0
    for tau in (1e-4, 1e-3):
        d = capacity_law_det(params, tau, pc.p_cont)
        a_s, a_i = d.gain_approx.shape, d.interf_approx.shape
        ends = (math.log(d.ratio_scale * a_s / a_i)
                + math.sqrt(1.0 / a_s + 1.0 / a_i) * np.sinh(np.linspace(-5.0, 5.0, 21)))
        v, w = specfun.panel_rule(ends[:-1], ends[1:], 8)
        # the capacity is log2(1 + e^v), and dC/dv = 1 / ((1 + e^-v) ln 2)
        x = np.logaddexp(0.0, v) / math.log(2.0)
        total = float(np.sum((1.0 - dists.capacity_cdf(d, x)) * w / (1.0 + np.exp(-v))))
        total = (total + math.log1p(math.exp(ends[0]))) / math.log(2.0)
        mean = mean_capacity(d)
        worst = max(worst, abs(total - mean) / mean)
    yield "capacity CDF vs mean capacity", worst <= 1e-6, f"{worst:.2e}", "<= 1e-6"

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
    curve = optimize_tradeoff(params, params.gamma)
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
    r_analytic = throughput_fading_at(params, links, tau_ref, pcf.p_cont)
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
        resid = abs(outage(p_probe, tau_f, p_probe.p_full) - p_probe.rho_out)
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

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
import io
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, dists, montecarlo, specfun, throughput
from .dists import NakagamiGain
from .power_control import (FadingLinks, ScenarioParams, controlled_power_det,
                            controlled_power_fading, db_to_linear,
                            default_fading, linear_to_db, outage_det,
                            perf_bound_asymptote, perf_bound_det,
                            perf_bound_fading, samples_for)
from .throughput import (Model, capacity_law_det, mean_capacity,
                         optimize_tradeoff, throughput_det,
                         throughput_fading, throughput_ideal_det,
                         throughput_no_pc_det)

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "default_config",
    "parse_config",
    "render_config",
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


def _check_m(where: str, value: float, allow_inf: bool = False) -> float:
    """A Nakagami m is finite and at least 0.5; where allow_inf, inf (the
    deterministic channel) is taken too."""
    if not (value >= 0.5 and (math.isfinite(value) or allow_inf)):
        raise ConfigError(f"{where}: every m must be finite and at least 0.5"
                          + (", or inf" if allow_inf else ""))
    return value


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
        except ValueError as exc:
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

    def jobs(self) -> int:
        n = self._int("mc", "jobs")
        if n < 1:
            raise ConfigError("mc.jobs must be at least 1")
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
        self.jobs()
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
    v = float(value)
    if math.isnan(v):
        return "nan"
    return format(v, ".10g")


def _meta_lines(cfg: ScenarioConfig, command: str, notes: list[str]) -> list[str]:
    lines = [f"# underlaysim {__version__}", f"# command: {command}"]
    for section, keys in _DEFAULTS.items():
        for key in keys:
            lines.append(f"# config {section}.{key} = {cfg.sections[section][key]}")
    for note in notes:
        lines.append(f"# note: {note}")
    return lines


def _write_csv(out_path: str, meta: list[str], header: list[str], rows) -> None:
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        for line in meta:
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(cell) for cell in row) + "\n")


def _m_suffix(m: float) -> str:
    # deterministic-channel columns keep their untagged names
    if math.isinf(m):
        return ""
    return "_m" + format(m, "g").replace(".", "p").replace("-", "m")


# The deterministic channel is the m = inf member of each fading family.
# links None stands for it, as in throughput.optimize_tradeoff, and the
# helpers below are the one place that picks the det or the fading routine.

def _links(params: ScenarioParams, m: float) -> FadingLinks | None:
    return None if math.isinf(m) else default_fading(params, m)


def _power(params: ScenarioParams, links: FadingLinks | None, tau: float):
    if links is None:
        return controlled_power_det(params, tau)
    return controlled_power_fading(params, links.pr_st, tau)


def _rate(params: ScenarioParams, links: FadingLinks | None, tau: float) -> float:
    if links is None:
        return throughput_det(params, tau)
    return throughput_fading(params, links, tau)


def _simulate(params: ScenarioParams, links: FadingLinks | None, tau: float,
              trials: int, seed: int, jobs: int):
    if links is None:
        return montecarlo.run_trials_det(params, tau, trials, seed, jobs=jobs)
    return montecarlo.run_trials_fading(params, links, tau, trials, seed, jobs=jobs)


def _bound(params: ScenarioParams, m: float, tau: float) -> float:
    # the fading bound reads only m: it retunes the mean gain as it searches
    if math.isinf(m):
        return perf_bound_det(params, tau)
    return perf_bound_fading(params, NakagamiGain(m, 1.0), tau)


# every third row carries the simulated overlay so plotted markers stay sparse
_MARKER_STRIDE = 3


def _empirical_cdf(sorted_samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    return np.searchsorted(sorted_samples, grid, side="right") / sorted_samples.size


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
    traces = list(_fig4_traces(cfg, panel))
    header = ["c_bits"]
    cols, sims = [], []
    trials, seed, jobs = cfg.trials(), cfg.seed(), cfg.jobs()
    for k, (label, p2, tau) in enumerate(traces):
        dist = capacity_law_det(p2, tau, _FIG4_POWER)
        cols.append(dists.capacity_cdf(dist, grid))
        header.append(f"cdf_{label}")
        mc = montecarlo.run_trials_det(p2, tau, trials, seed + k,
                                       fixed_power=_FIG4_POWER, jobs=jobs)
        sims.append(_empirical_cdf(mc.c_hat_sorted, grid))
    header.extend(f"sim_{label}" for label, _, _ in traces)
    rows = []
    for i, c in enumerate(grid):
        row = [c] + [col[i] for col in cols]
        for sim in sims:
            row.append(sim[i] if i % _MARKER_STRIDE == 0 else "")
        rows.append(row)
    notes = [f"simulated overlay at every {_MARKER_STRIDE}rd row, "
             f"{trials} trials per trace"]
    return header, rows, notes


def _bound_table(cfg: ScenarioConfig, taus, columns, missing_note: str):
    """Regime bound in dB over tau; columns are (suffix, m) pairs."""
    params = cfg.params()
    header = ["tau_ms"] + [f"gamma_star_dB{suffix}" for suffix, _ in columns]
    rows, missing = [], 0
    for tau in taus:
        row = [tau * 1e3]
        for _, m in columns:
            try:
                row.append(linear_to_db(_bound(params, m, float(tau))))
            except specfun.BracketError:
                row.append(math.nan)
                missing += 1
        rows.append(row)
    notes = [f"{missing} {missing_note}"] if missing else []
    return header, rows, notes


_FIG5_M = (0.5, 1.0, 2.0, 5.0)
_FIG68_TAUS = np.geomspace(1e-5, 1e-2, 37)


def _power_table(cfg: ScenarioConfig, ms):
    """Controlled and perfect-knowledge power over tau, two columns per m."""
    params = cfg.params()
    links = [_links(params, m) for m in ms]
    ideal = [linear_to_db(throughput._ideal_power(params, lk)) for lk in links]
    header = ["tau_ms"]
    for m in ms:
        header += [f"p_cont_dBm{_m_suffix(m)}", f"p_cont_dBm_ideal{_m_suffix(m)}"]
    rows = []
    for tau in _FIG68_TAUS:
        row = [tau * 1e3]
        for lk, p_ideal in zip(links, ideal):
            row += [linear_to_db(_power(params, lk, float(tau)).p_cont), p_ideal]
        rows.append(row)
    return header, rows, []


def _rate_table(cfg: ScenarioConfig, ms):
    """Throughput over tau, its perfect-knowledge bound and a simulated
    overlay, three columns per m."""
    params = cfg.params()
    trials, seed, jobs = cfg.trials(), cfg.seed(), cfg.jobs()
    links = [_links(params, m) for m in ms]
    # the ideal model is flat in tau, so its optimum is its rate
    ideal = [optimize_tradeoff(params, Model.IDEAL, links=lk).r_s_opt for lk in links]
    header = ["tau_ms"]
    for m in ms:
        header += [f"rs_{tag}{_m_suffix(m)}" for tag in ("EM", "IM", "sim")]
    rows = []
    for i, tau in enumerate(_FIG68_TAUS):
        row = [tau * 1e3]
        for k, lk in enumerate(links):
            row += [_rate(params, lk, float(tau)), ideal[k]]
            if i % _MARKER_STRIDE == 0:
                mc = _simulate(params, lk, float(tau), trials, seed + 100 * k + i, jobs)
                row.append(mc.mean_throughput)
            else:
                row.append("")
        rows.append(row)
    notes = [f"simulated overlay at every {_MARKER_STRIDE}rd row, "
             f"{trials} trials per marker"]
    return header, rows, notes


_FIG79_GAMMAS_DB = np.linspace(-20.0, 10.0, 13)
# column tags of the Model members, in enum order
_MODEL_TAGS = ("EM", "IM", "NPC")


def _pfull_tag(p_db: float) -> str:
    return "pfull_" + format(p_db, "g").replace("-", "m").replace(".", "p") + "dBm"


_FIG7_COLUMNS = tuple((f"_{_pfull_tag(p_db)}", {"p_full": db_to_linear(p_db)}, math.inf)
                      for p_db in (0.0, -10.0))


def _tradeoff_table(cfg: ScenarioConfig, panel: str, columns):
    """Best rate of each model per gamma; columns are (suffix, scenario
    overrides, m) triples. Panel b has a ten times stronger PT-SR link."""
    params = cfg.params()
    if panel == "b":
        params = replace(params, g_pt_sr=params.g_pt_sr * 10.0)
    header = ["gamma_dB"]
    for suffix, _, _ in columns:
        header += [f"rs_{tag}{suffix}" for tag in _MODEL_TAGS]
    rows = []
    for g_db in _FIG79_GAMMAS_DB:
        row = [g_db]
        for _, overrides, m in columns:
            p2 = replace(params, gamma=db_to_linear(float(g_db)), **overrides)
            links = _links(p2, m)
            row += [optimize_tradeoff(p2, model, links=links).r_s_opt for model in Model]
        rows.append(row)
    notes = ["EM column reports the tau-optimized throughput per gamma"]
    return header, rows, notes


def _fig9_columns(cfg: ScenarioConfig):
    return [(_m_suffix(m), {}, m) for m in cfg.m_values()]


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
    header, rows, notes = _FIGURES[fig_id](cfg)
    meta = _meta_lines(cfg, f"figure {fig_id}", notes)
    _write_csv(out_path, meta, header, rows)


def cmd_sweep(cfg: ScenarioConfig, out_path: str) -> None:
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
    rows = []
    for tau_ms in taus_ms:
        tau = tau_ms * 1e-3
        for g_db in gammas_db:
            for rho in rhos:
                p2 = replace(params, gamma=db_to_linear(g_db), rho_out=rho)
                for m in ms:
                    links = _links(p2, m)
                    pc = _power(p2, links, tau)
                    row = [tau_ms, g_db, rho, format(m, "g"),
                           linear_to_db(pc.p_cont), pc.regime.value]
                    if include_rs:
                        row.append(_rate(p2, links, tau))
                    rows.append(row)
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
    seed, jobs = cfg.seed(), cfg.jobs()
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

    # 5: the closed-form power rule against simulated outage and capacity
    mc = montecarlo.run_trials_det(params, tau_ref, trials, seed, jobs=jobs)
    resid = abs(outage_det(params, tau_ref, pc.p_cont) - params.rho_out)
    gap = abs(mc.outage_rate - params.rho_out)
    ok = resid <= 1e-9 and gap <= 4.0 * mc.outage_se
    yield ("outage self-consistency (det)", ok,
           f"analytic residual {resid:.1e}, mc gap {gap:.2e}",
           f"<= 1e-9 and <= 4 se ({4.0 * mc.outage_se:.2e})")

    dist = capacity_law_det(params, tau_ref, pc.p_cont)
    c_gap = abs(mc.mean_capacity - mean_capacity(dist))
    ok = c_gap <= 4.0 * mc.capacity_se
    yield ("mean capacity vs simulation (det)", ok, f"gap {c_gap:.2e}",
           f"<= 4 se ({4.0 * mc.capacity_se:.2e})")

    # 6: capacity density normalizes to one
    worst = 0.0
    for tau in (1e-4, 1e-3):
        d = capacity_law_det(params, tau, pc.p_cont)
        hint = math.log1p(d.ratio_scale * d.gain_approx.shape
                          / d.interf_approx.shape) / math.log(2.0)
        total = specfun.integrate(lambda x, d=d: dists.capacity_pdf(d, x),
                                  0.0, math.inf, scale_hint=hint)
        worst = max(worst, abs(total - 1.0))
    yield "capacity density normalization", worst <= 1e-6, f"{worst:.2e}", "<= 1e-6"

    # 7: capacity law against exact-law sampling
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

    # 8: the estimation-throughput curve peaks inside the grid, near ideal
    curve = optimize_tradeoff(params, Model.ESTIMATION)
    grid_taus = [t for t, _ in curve.points]
    interior = grid_taus[0] < curve.tau_opt < grid_taus[-1]
    gap = throughput_ideal_det(params) - curve.r_s_opt
    ok = interior and curve.r_s_opt > 0.0 and 0.0 <= gap <= 0.15
    yield ("tradeoff peak anchor", ok,
           f"tau_opt {curve.tau_opt * 1e3:.3f} ms, gap {gap:.4f}",
           "interior peak, gap in [0, 0.15]")

    # 9: fading power ordering in m, capped by the deterministic channel
    p_prev = 0.0
    ok = True
    values = []
    for m in (0.5, 1.0, 2.0, 5.0):
        links = default_fading(params, m)
        p_m = controlled_power_fading(params, links.pr_st, tau_ref).p_cont
        values.append(p_m)
        ok = ok and p_m > p_prev
        p_prev = p_m
    ok = ok and p_prev < pc.p_cont
    yield ("fading power monotone in m", ok,
           ", ".join(f"{linear_to_db(v):.2f}" for v in values) + " dBm",
           "increasing, below det")

    # 10: fading outage against simulation
    links = default_fading(params, 1.0)
    pcf = controlled_power_fading(params, links.pr_st, tau_ref)
    mcf = montecarlo.run_trials_fading(params, links, tau_ref, mc_small,
                                       seed + 1, jobs=jobs)
    gap = abs(mcf.outage_rate - params.rho_out)
    ok = gap <= 4.0 * mcf.outage_se and pcf.regime is not None
    yield ("outage self-consistency (fading)", ok, f"mc gap {gap:.2e}",
           f"<= 4 se ({4.0 * mcf.outage_se:.2e})")

    # 11: fading throughput against simulation
    r_analytic = throughput_fading(params, links, tau_ref)
    gap = abs(mcf.mean_throughput - r_analytic)
    ok = gap <= 4.0 * mcf.throughput_se
    yield ("throughput vs simulation (fading)", ok, f"gap {gap:.2e}",
           f"<= 4 se ({4.0 * mcf.throughput_se:.2e})")

    # 12: the forced window without power control really hits the target
    p_probe = replace(params, gamma=db_to_linear(-12.0))
    tau_f, _ = throughput_no_pc_det(p_probe)
    if math.isnan(tau_f):
        yield ("no-control calibration", False, "no forced window", "exists")
    else:
        resid = abs(outage_det(p_probe, tau_f, p_probe.p_full) - p_probe.rho_out)
        mc_npc = montecarlo.run_trials_det(p_probe, tau_f, mc_small, seed + 2,
                                           fixed_power=p_probe.p_full, jobs=jobs)
        gap = abs(mc_npc.outage_rate - p_probe.rho_out)
        ok = resid <= 1e-3 and gap <= 4.0 * mc_npc.outage_se
        yield ("no-control calibration", ok,
               f"tau {tau_f * 1e3:.3f} ms, residual {resid:.1e}, mc gap {gap:.2e}",
               f"<= 1e-3 and <= 4 se ({4.0 * mc_npc.outage_se:.2e})")


def cmd_validate(cfg: ScenarioConfig, stream=None) -> int:
    stream = stream or sys.stdout
    passed = failed = 0
    for name, ok, measured, tolerance in _validate_checks(cfg):
        status = "PASS" if ok else "FAIL"
        if ok:
            passed += 1
        else:
            failed += 1
        print(f"check {passed + failed:2d}  {status}  {name:38s} "
              f"{measured}  [{tolerance}]", file=stream)
    total = passed + failed
    verdict = "PASS" if failed == 0 else "FAIL"
    print(f"validate: {verdict} ({passed}/{total} checks)", file=stream)
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
    sub.add_argument("--jobs", type=int, help="override mc.jobs")


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
    except (specfun.BracketError, specfun.ConvergenceError, ValueError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

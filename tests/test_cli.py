"""CLI surface: config handling, figure CSVs, sweeps, the validate gate.

Everything runs in process through main(); the CSVs land in tmp_path.
fig8b and fig9a run with one m (fading.m = 1); fig9b, which optimizes a
fading curve per gamma and m too, is left to the figure script.
"""

import importlib.util
import itertools
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from underlaysim import (__version__, cli, dists, power_control, specfun,
                         throughput)
from underlaysim.cli import (ConfigError, FIGURE_IDS, apply_set,
                             default_config, main, parse_config,
                             render_config)
from underlaysim.power_control import (Regime, ScenarioParams,
                                       controlled_power_det,
                                       controlled_power_fading, db_to_linear,
                                       default_fading, linear_to_db,
                                       perf_bound)
from underlaysim.throughput import (capacity_law_det, optimize_tradeoff,
                                    throughput_det, throughput_fading,
                                    throughput_ideal_det, throughput_no_pc_det)

REPO = Path(__file__).resolve().parents[1]


def _read_csv(path: Path):
    meta, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


# ------------------------------------------------------------ configuration

def test_render_parse_round_trip():
    cfg = default_config()
    text = render_config(cfg)
    cfg2 = parse_config(text)
    assert cfg2.sections == cfg.sections
    assert render_config(cfg2) == text


def test_shipped_default_config_is_canonical():
    shipped = (REPO / "configs" / "default.ini").read_text()
    assert shipped == render_config(default_config())


def test_partial_config_keeps_other_defaults():
    cfg = parse_config("[scenario]\ngamma_db = -12\n")
    assert cfg.get("scenario", "gamma_db") == "-12"
    assert cfg.get("scenario", "rho_out") == "0.1"
    assert cfg.get("mc", "trials") == "100000"


def test_parse_rejects_unknown_names():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[nope]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[scenario]\nnope = 1\n")
    with pytest.raises(ConfigError):
        parse_config("[scenario]\nrho_out = 2\n")
    with pytest.raises(ConfigError):
        parse_config("not ini at all [")


def test_apply_set():
    cfg = default_config()
    apply_set(cfg, "scenario.gamma_db=-12")
    assert cfg.get("scenario", "gamma_db") == "-12"
    apply_set(cfg, "mc.trials = 500")
    assert cfg.get("mc", "trials") == "500"
    with pytest.raises(ConfigError):
        apply_set(cfg, "scenario.nope=1")
    with pytest.raises(ConfigError):
        apply_set(cfg, "no equals sign")


def test_config_to_params_converts_units():
    params = default_config().params()
    ref = ScenarioParams()
    for field in ("f_s", "sigma2", "theta_i", "rho_out", "frame_len",
                  "tau_p", "gamma", "g_pt_sr", "g_st_sr"):
        assert getattr(params, field) == pytest.approx(
            getattr(ref, field), rel=1e-12), field
    cfg = default_config()
    apply_set(cfg, "scenario.gamma_db=-10")
    assert cfg.params().gamma == pytest.approx(0.1)


# ----------------------------------------------------------------- figures

def test_fig3_content_and_determinism(tmp_path):
    out1 = tmp_path / "fig3.csv"
    out2 = tmp_path / "fig3_again.csv"
    assert main(["figure", "fig3", "--out", str(out1)]) == 0
    assert main(["figure", "fig3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    meta, header, rows = _read_csv(out1)
    assert header == ["tau_ms", "gamma_star_dB"]
    assert len(rows) == 49
    taus = [float(r[0]) for r in rows]
    assert taus[0] == pytest.approx(0.1)
    assert taus[-1] == pytest.approx(300.0)
    vals = [float(r[1]) for r in rows]
    nan_mask = [math.isnan(v) for v in vals]
    assert any(nan_mask), "short windows should have no bound"
    assert not nan_mask[-1]
    # nan rows all precede the first defined row
    first_ok = nan_mask.index(False)
    assert all(nan_mask[:first_ok]) and not any(nan_mask[first_ok:])
    defined = vals[first_ok:]
    assert all(a < b for a, b in zip(defined, defined[1:]))
    # flattens onto the long-window limit
    assert defined[-1] == pytest.approx(-10.0, abs=0.2)
    assert any("no operating bound" in line for line in meta)


def test_fig6a_power_traces(tmp_path):
    out = tmp_path / "fig6a.csv"
    assert main(["figure", "fig6a", "--out", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header == ["tau_ms", "p_cont_dBm", "p_cont_dBm_ideal"]
    assert len(rows) == 37
    p = [float(r[1]) for r in rows]
    ideal = {float(r[2]) for r in rows}
    # longer sensing always buys power, never past the perfect-knowledge level
    assert all(a < b for a, b in zip(p, p[1:]))
    assert len(ideal) == 1
    assert all(v < ideal.pop() for v in p[-1:])


def test_fig6b_rate_traces(tmp_path):
    out = tmp_path / "fig6b.csv"
    assert main(["figure", "fig6b", "--out", str(out),
                 "--set", "mc.trials=400"]) == 0
    meta, header, rows = _read_csv(out)
    assert header == ["tau_ms", "rs_EM", "rs_IM", "rs_sim"]
    rs_im = {float(r[2]) for r in rows}
    assert len(rs_im) == 1
    assert rs_im.pop() == pytest.approx(throughput_ideal_det(ScenarioParams()),
                                        rel=1e-9)
    rs_em = np.array([float(r[1]) for r in rows])
    i = int(np.argmax(rs_em))
    assert 0 < i < rs_em.size - 1
    assert np.all(np.diff(rs_em)[:i] > 0.0)
    assert np.all(np.diff(rs_em)[i:] < 0.0)
    for j, row in enumerate(rows):
        if j % 3 == 0:
            assert row[3] != ""
        else:
            assert row[3] == ""
    assert any("trials per marker" in line for line in meta)


def test_fig4a_capacity_cdfs(tmp_path):
    out = tmp_path / "fig4a.csv"
    assert main(["figure", "fig4a", "--out", str(out),
                 "--set", "mc.trials=300"]) == 0
    _, header, rows = _read_csv(out)
    assert header[0] == "c_bits"
    assert [h for h in header if h.startswith("cdf_")] == [
        "cdf_inr_m10dB", "cdf_inr_0dB", "cdf_inr_10dB"]
    assert [h for h in header if h.startswith("sim_")] == [
        "sim_inr_m10dB", "sim_inr_0dB", "sim_inr_10dB"]
    for k in range(1, 4):
        col = [float(r[k]) for r in rows]
        assert all(0.0 <= v <= 1.0 for v in col)
        assert all(a <= b for a, b in zip(col, col[1:]))
    # markers only on the stride rows
    assert rows[0][4] != "" and rows[1][4] == "" and rows[3][4] != ""


@pytest.mark.parametrize("argv, n_rows", [
    # only panel a offsets the PT-SR gain in dB; panel b must not need it
    (["figure", "fig4b"], 241),
    # the power columns and the power-only sweep read only the PR-ST law
    (["figure", "fig8a"], 37),
    (["sweep", "--set", "sweep.m=1"], 13),
    # a fading rate reads the PT-SR law, which a zero gain cannot make
    (["figure", "fig8b"], None),
    (["sweep", "--set", "sweep.m=1", "--set", "sweep.include_rs=true"], None),
], ids=["fig4b", "fig8a", "sweep_power_m1", "fig8b", "sweep_rates_m1"])
def test_a_zero_pt_sr_gain_fails_only_where_a_pt_sr_law_is_read(tmp_path, capsys,
                                                                argv, n_rows):
    out = tmp_path / "x.csv"
    rc = main([*argv, "--out", str(out), "--trials", "10",
               "--set", "scenario.g_pt_sr_db=-inf"])
    err = capsys.readouterr().err
    if n_rows is None:
        assert rc == 3
        assert err == "numeric error: fading links need a positive PT-SR gain\n"
        assert not out.exists()
    else:
        assert rc == 0 and err == ""
        assert len(_read_csv(out)[2]) == n_rows


def _fig4b_cdf_tau_1ms(p, c):
    law = capacity_law_det(replace(p, gamma=db_to_linear(10.0)), 1e-3, 1.0)
    return dists.capacity_cdf(law, c)


def _fig7_params(p, g_db, p_full_db):
    return replace(p, gamma=db_to_linear(g_db), p_full=db_to_linear(p_full_db))


def _fig9a_rs_em_m1(p, g_db):
    p2 = replace(p, gamma=db_to_linear(g_db))
    return optimize_tradeoff(p2, default_fading(p2, 1.0)).r_s_opt


_PFULL_HEADER = ["gamma_dB"] + [f"rs_{model}_pfull_{p}dBm" for p in ("0", "m10")
                                for model in ("EM", "IM", "NPC")]

# figure id, header, rows, note lines, then one cell (column, value in the
# first column) and the library call that must reproduce it
_FIGURE_TABLES = [
    ("fig3", ["tau_ms", "gamma_star_dB"], 49,
     ["8 short-window rows have no operating bound; cells left nan"],
     "gamma_star_dB", 300.0,
     lambda p, tau_ms: linear_to_db(perf_bound(p, tau_ms * 1e-3))),
    ("fig4b",
     ["c_bits"] + [f"{kind}_tau_{t}ms" for kind in ("cdf", "sim")
                   for t in ("0p1", "1", "10")],
     241, ["simulated overlay at every 3rd row, 300 trials per trace"],
     "cdf_tau_1ms", 5.0, _fig4b_cdf_tau_1ms),
    ("fig5",
     ["tau_ms"] + [f"gamma_star_dB_{tag}"
                   for tag in ("m0p5", "m1", "m2", "m5", "det")],
     41, ["55 cells have no operating bound (window too short); left nan"],
     "gamma_star_dB_m1", 1.0,
     lambda p, tau_ms: linear_to_db(perf_bound(p, tau_ms * 1e-3, 1.0))),
    ("fig6a", ["tau_ms", "p_cont_dBm", "p_cont_dBm_ideal"], 37, [],
     "p_cont_dBm", 1.0,
     lambda p, tau_ms: linear_to_db(controlled_power_det(p, tau_ms * 1e-3).p_cont)),
    ("fig6b", ["tau_ms", "rs_EM", "rs_IM", "rs_sim"],
     37, ["simulated overlay at every 3rd row, 300 trials per marker"],
     "rs_EM", 1.0, lambda p, tau_ms: throughput_det(p, tau_ms * 1e-3)),
    ("fig7a", _PFULL_HEADER, 13,
     ["EM column reports the tau-optimized throughput per gamma"],
     "rs_EM_pfull_0dBm", 0.0,
     lambda p, g_db: optimize_tradeoff(_fig7_params(p, g_db, 0.0)).r_s_opt),
    ("fig7b", _PFULL_HEADER, 13,
     ["EM column reports the tau-optimized throughput per gamma"],
     "rs_NPC_pfull_m10dBm", -5.0,
     lambda p, g_db: throughput_no_pc_det(_fig7_params(
         replace(p, g_pt_sr=p.g_pt_sr * 10.0), g_db, -10.0))[1]),
    ("fig8a",
     ["tau_ms", "p_cont_dBm_m1", "p_cont_dBm_ideal_m1",
      "p_cont_dBm_m5", "p_cont_dBm_ideal_m5"],
     37, [], "p_cont_dBm_m1", 1.0,
     lambda p, tau_ms: linear_to_db(controlled_power_fading(
         p, default_fading(p, 1.0).pr_st, tau_ms * 1e-3).p_cont)),
    ("fig8b", ["tau_ms", "rs_EM_m1", "rs_IM_m1", "rs_sim_m1"],
     37, ["simulated overlay at every 3rd row, 300 trials per marker"],
     "rs_EM_m1", 1.0,
     lambda p, tau_ms: throughput_fading(p, default_fading(p, 1.0), tau_ms * 1e-3)),
    ("fig9a", ["gamma_dB", "rs_EM_m1", "rs_IM_m1", "rs_NPC_m1"], 13,
     ["EM column reports the tau-optimized throughput per gamma"],
     "rs_EM_m1", -10.0,
     _fig9a_rs_em_m1),
]
# extra arguments per figure id: the fading rate figures run one m to stay cheap
_FIGURE_ARGS = {fig_id: ["--set", "fading.m=1"] for fig_id in ("fig8b", "fig9a")}


@pytest.mark.parametrize(
    "fig_id, header, n_rows, notes, column, key, expected", _FIGURE_TABLES,
    ids=[case[0] for case in _FIGURE_TABLES])
def test_figure_tables(tmp_path, fig_id, header, n_rows, notes, column, key,
                       expected):
    out = tmp_path / f"{fig_id}.csv"
    assert main(["figure", fig_id, "--out", str(out), "--trials", "300",
                 *_FIGURE_ARGS.get(fig_id, [])]) == 0
    meta, got_header, rows = _read_csv(out)
    assert got_header == header
    assert len(rows) == n_rows
    assert [l for l in meta if l.startswith("# note:")] == [
        f"# note: {note}" for note in notes]
    row = next(r for r in rows if float(r[0]) == pytest.approx(key, rel=1e-9))
    want = expected(default_config().params(), float(row[0]))
    assert float(row[header.index(column)]) == pytest.approx(want, rel=1e-9)


def test_fig7_baseline_columns_are_the_baseline_rates(tmp_path):
    # every IM and NPC cell is the perfect-knowledge rate and the
    # no-power-control rate at its gamma and p_full
    out = tmp_path / "fig7a.csv"
    assert main(["figure", "fig7a", "--out", str(out), "--trials", "300"]) == 0
    _, header, rows = _read_csv(out)
    params = default_config().params()
    for p_tag, p_full_db in (("0", 0.0), ("m10", -10.0)):
        for row in rows:
            p2 = _fig7_params(params, float(row[0]), p_full_db)
            ideal = float(row[header.index(f"rs_IM_pfull_{p_tag}dBm")])
            no_pc = float(row[header.index(f"rs_NPC_pfull_{p_tag}dBm")])
            assert ideal == pytest.approx(throughput_ideal_det(p2), rel=1e-9)
            assert no_pc == pytest.approx(throughput_no_pc_det(p2)[1], rel=1e-9, abs=1e-12)


def test_unknown_figure_id_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "nope", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_figure_requires_out(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "fig3"])
    assert exc.value.code == 2


def test_figure_ids_catalog():
    assert "fig3" in FIGURE_IDS
    assert len(FIGURE_IDS) == 12


# ------------------------------------------------------------------ sweeps

def test_sweep_single_point_matches_the_rule(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--out", str(out),
               "--set", "sweep.tau_ms=1",
               "--set", "sweep.include_rs=true"])
    assert rc == 0
    _, header, rows = _read_csv(out)
    assert header == ["tau_ms", "gamma_dB", "rho_out", "m",
                      "p_cont_dBm", "regime", "rs"]
    assert len(rows) == 1
    row = rows[0]
    params = ScenarioParams()
    want = linear_to_db(controlled_power_det(params, 1e-3).p_cont)
    assert float(row[4]) == pytest.approx(want, abs=1e-8)
    assert row[3] == "inf"
    assert row[5] == "interference-limited"
    assert float(row[6]) == pytest.approx(throughput_det(params, 1e-3), rel=1e-8)


def test_sweep_grid_cap(tmp_path):
    rc = main(["sweep", "--out", str(tmp_path / "big.csv"),
               "--set", "sweep.tau_ms=logspace 0.1 10 101",
               "--set", "sweep.gamma_db=linspace -20 10 100",
               "--set", "sweep.rho_out=linspace 0.01 0.2 100"])
    assert rc == 2


def test_sweep_window_outside_frame_is_numeric_error(tmp_path, capsys):
    # the m = inf columns are checked as whole axes, the fading rows row by
    # row; both keep the scalar rule's messages and leave no CSV behind
    out = tmp_path / "bad.csv"
    for setting, message in [
            ("sweep.tau_ms=100", "tau must leave room for the pilot inside the frame"),
            ("sweep.tau_ms=1, 0.0001", "sensing window shorter than one sample")]:
        for ms in ("inf", "inf, 1"):
            rc = main(["sweep", "--out", str(out), "--set", setting,
                       "--set", f"sweep.m={ms}"])
            assert rc == 3
            assert f"numeric error: {message}" in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("m", ["inf", "1"])
def test_sweep_surrogate_overflow_is_one_numeric_error_without_warning(tmp_path,
                                                                       capsys, m):
    # 3000 dB is a finite receive SNR, but its gamma surrogate overflows: the
    # deterministic and the fading rows report it alike, with no numpy warning
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["sweep", "--out", str(out), "--set", "sweep.gamma_db=3000",
                   "--set", "sweep.tau_ms=1", "--set", f"sweep.m={m}"])
    assert rc == 3
    assert capsys.readouterr().err == "numeric error: shape must be finite and positive\n"
    assert [str(w.message) for w in caught] == []
    assert not out.exists()


def test_sweep_subnormal_fading_gain_scale_is_one_numeric_error_without_warning(
        tmp_path, capsys):
    # at -3000 dB the mean PR-ST gain gamma sigma2 / p_tx_pr is ~1e-310,
    # subnormal: the gain law rejects it before its density overflows
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["sweep", "--out", str(out), "--set", "sweep.gamma_db=-3000",
                   "--set", "sweep.tau_ms=1", "--set", "sweep.m=1"])
    assert rc == 3
    assert capsys.readouterr().err == (
        "numeric error: gain scale mean_gain / m is below the smallest normal float\n")
    assert [str(w.message) for w in caught] == []
    assert not out.exists()


@pytest.mark.parametrize("gamma_db", ["-2900", "-2970"])
def test_sweep_m_half_at_a_tiny_normal_gain_scale_is_power_limited_without_warning(
        tmp_path, gamma_db):
    # at m = 0.5 the 1e-12 gain quantile underflows from ~-2840 dB on; the
    # rule still runs and the ceiling binds
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["sweep", "--out", str(out), "--set", f"sweep.gamma_db={gamma_db}",
                   "--set", "sweep.tau_ms=1", "--set", "sweep.m=0.5"])
    assert rc == 0
    assert _read_csv(out)[2] == [["1", gamma_db, "0.1", "0.5", "0", "power-limited"]]


def test_sweep_m_half_at_a_subnormal_gain_scale_is_one_numeric_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["sweep", "--out", str(out), "--set", "sweep.gamma_db=-3000",
                   "--set", "sweep.tau_ms=1", "--set", "sweep.m=0.5"])
    assert rc == 3
    assert capsys.readouterr().err == (
        "numeric error: gain scale mean_gain / m is below the smallest normal float\n")
    assert [str(w.message) for w in caught] == []
    assert not out.exists()


@pytest.mark.parametrize("m, message", [
    ("inf", "noncentrality must be finite and nonnegative"),
    ("1", "snr must be finite and nonnegative")])
def test_sweep_receive_snr_overflow_is_one_numeric_error_without_warning(tmp_path,
                                                                         capsys, m, message):
    # at 3080 dB the n-sample noncentrality (m = inf) or a gain node's
    # receive SNR (m = 1) overflows: the law's own check reports it
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["sweep", "--out", str(out), "--set", "sweep.gamma_db=3080",
                   "--set", "sweep.tau_ms=1", "--set", f"sweep.m={m}"])
    assert rc == 3
    assert capsys.readouterr().err == f"numeric error: {message}\n"
    assert [str(w.message) for w in caught] == []
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--set", "sweep.gamma_db=4000", "--set", "sweep.tau_ms=1"],
     "sweep.gamma_db: 4000 dB is beyond the float range"),
    (["sweep", "--set", "sweep.gamma_db=-4000", "--set", "sweep.tau_ms=1"],
     "sweep.gamma_db: -4000 dB is beyond the float range"),
    (["sweep", "--set", "sweep.gamma_db=0, -4000", "--set", "sweep.m=inf, 1"],
     "sweep.gamma_db: -4000 dB is beyond the float range"),
    (["figure", "fig6a", "--set", "scenario.gamma_db=4000"],
     "scenario: 4000 dB exceeds the float range"),
    (["figure", "fig6a", "--set", "scenario.gamma_db=-4000"],
     "scenario: gamma must be finite and positive"),
], ids=["sweep_overflow", "sweep_underflow", "sweep_list_underflow",
        "scenario_overflow", "scenario_underflow"])
def test_db_values_beyond_the_float_range_are_config_errors(tmp_path, capsys, argv,
                                                             message):
    # a dB value whose linear value underflows to 0 or overflows is caught
    # with the configuration, in every section
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_convergence_error_in_a_figure_exits_3(tmp_path, capsys, monkeypatch):
    # a one-step budget runs out in the regime-bound root of fig3
    monkeypatch.setattr(specfun, "MAX_ITER", 1)
    out = tmp_path / "fig3.csv"
    assert main(["figure", "fig3", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numeric error: root search exhausted its iteration budget\n")
    assert not out.exists()


def _scalar_api_sweep(sweep: dict[str, str]) -> tuple[bytes, list]:
    """The bytes of the sweep CSV built row by row from the scalar API, and
    (m, regime, tau) of each row; sweep sets explicit tau, gamma, rho_out
    and m lists and include_rs true."""
    lines = [f"# underlaysim {__version__}", "# command: sweep"]
    for section, keys in cli._DEFAULTS.items():
        for key, value in keys.items():
            value = sweep.get(key, value) if section == "sweep" else value
            lines.append(f"# config {section}.{key} = {value}")
    axes = [sweep[key].split(", ") for key in ("tau_ms", "gamma_db", "rho_out", "m")]
    lines += [f"# note: {math.prod(map(len, axes))} rows",
              "tau_ms,gamma_dB,rho_out,m,p_cont_dBm,regime,rs"]
    params = ScenarioParams()
    rows = []
    for tau_ms, g_db, rho, m in itertools.product(*axes):
        tau = float(tau_ms) * 1e-3
        p2 = replace(params, gamma=db_to_linear(float(g_db)), rho_out=float(rho))
        if m == "inf":
            pc, rs = controlled_power_det(p2, tau), throughput_det(p2, tau)
        else:
            links = default_fading(p2, float(m))
            pc = controlled_power_fading(p2, links.pr_st, tau)
            rs = throughput_fading(p2, links, tau)
        rows.append((m, pc.regime, tau))
        cells = [float(tau_ms), float(g_db), float(rho), m,
                 linear_to_db(pc.p_cont), pc.regime.value, rs]
        lines.append(",".join(c if isinstance(c, str) else format(c, ".10g")
                              for c in cells))
    return ("\n".join(lines) + "\n").encode(), rows


def _run_sweep(tmp_path, sweep: dict[str, str]) -> bytes:
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out)]
                + [f"--set=sweep.{key}={value}" for key, value in sweep.items()]) == 0
    return out.read_bytes()


def _counted_sweep_rows(monkeypatch) -> list:
    """(m, tau shape, row count) of every _sweep_rows call of the sweep."""
    evaluate = cli._sweep_rows
    done = []

    def counted(params, m, prefixes, rho_cells, tau, gamma, rho_out, include_rs):
        rows = evaluate(params, m, prefixes, rho_cells, tau, gamma, rho_out, include_rs)
        done.append((m, tau.shape, len(rows)))
        return rows

    monkeypatch.setattr(cli, "_sweep_rows", counted)
    return done


@pytest.mark.parametrize("block, lines_per_block", [(1, [1] * 9), (5, [2, 2, 2, 2, 1])],
                         ids=["block1", "block5"])
@pytest.mark.parametrize("ms", ["inf, 1", "inf", "1"])
def test_sweep_csv_equals_a_csv_built_from_the_scalar_api(tmp_path, monkeypatch, ms, block,
                                                          lines_per_block):
    # the whole file, byte for byte: meta lines, header, row order and line
    # ends, over both regimes at every m. Blocks hold whole (tau, gamma)
    # lines of 2 budgets: one line each at a block of 1 point, and two at 5,
    # which split the 9 lines unevenly; each block makes one _sweep_rows
    # call per m, in the m order. 0.0015 ms is a half-sample window; at
    # -30 dB both budgets are power-limited from 1 ms on, so those m = inf
    # rows share one capacity law
    monkeypatch.setattr(cli, "_SWEEP_BLOCK", block)
    done = _counted_sweep_rows(monkeypatch)
    sweep = {"tau_ms": "0.0015, 1, 30", "gamma_db": "-30, 0, 10",
             "rho_out": "0.05, 0.5", "m": ms, "include_rs": "true"}
    want, rows = _scalar_api_sweep(sweep)
    m_cells = ms.split(", ")
    assert {(m, regime) for m, regime, _ in rows} == set(itertools.product(m_cells, Regime))
    if "inf" in m_cells:
        power_limited_det = [tau for m, regime, tau in rows
                             if m == "inf" and regime is Regime.POWER_LIMITED]
        assert len(power_limited_det) > len(set(power_limited_det))
    assert _run_sweep(tmp_path, sweep) == want
    assert done == [(float(m), (lines, 1), 2 * lines)
                    for lines in lines_per_block for m in m_cells]


_ODD_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 5e-324, -5e-324]))


@given(data=st.data(),
       rhos=st.sampled_from([[0.05], [0.01, 0.5], [1e-20, 0.3, 0.99], [5e-324, -0.0]]))
@settings(max_examples=200)
def test_sweep_rows_format_like_fmt(data, rhos):
    # the line-template formatter against _fmt, cell for cell, over whole
    # (tau, gamma) lines of len(rhos) rows each; prefixes come as an object
    # array of text, as the sweep takes them from its axes
    lines = data.draw(st.lists(st.tuples(_ODD_FLOATS, _ODD_FLOATS), min_size=1, max_size=6))
    n_rows = len(lines) * len(rhos)
    rows = data.draw(st.lists(st.tuples(_ODD_FLOATS, st.sampled_from([r.value for r in Regime]),
                                        _ODD_FLOATS), min_size=n_rows, max_size=n_rows))
    p_db, regimes, rs = (list(col) for col in zip(*rows))
    prefixes = np.array([f"{cli._fmt(tau)},{cli._fmt(gamma)}," for tau, gamma in lines],
                        dtype=object)
    rho_cells = [cli._fmt(r) for r in rhos]
    keys = [(tau, gamma, rho) for tau, gamma in lines for rho in rhos]
    for m_cell in ("inf", "0.5", "1e+03"):
        assert cli._format_rows(prefixes, rho_cells, m_cell, p_db, regimes) == [
            ",".join(map(cli._fmt, key + (m_cell, p, regime))) + "\n"
            for key, p, regime in zip(keys, p_db, regimes)]
        assert cli._format_rows(prefixes, rho_cells, m_cell, p_db, regimes, rs) == [
            ",".join(map(cli._fmt, key + row)) + "\n"
            for key, row in zip(keys, ((m_cell, *row) for row in rows))]


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_det_sweep_cells_reject_a_power_without_a_db_value(monkeypatch, bad):
    # the one array check of a block's powers, at m = inf and at a finite m,
    # raises linear_to_db's own error
    rule = cli.controlled_power
    solved = []

    def rule_with_bad(*args):
        pc = rule(*args)
        solved.append(args[-1])
        return pc._replace(p_cont=np.where([False, True], bad, pc.p_cont))

    monkeypatch.setattr(cli, "controlled_power", rule_with_bad)
    for m in (math.inf, 1.0):
        with pytest.raises(ValueError,
                           match="^only positive values have a dB representation$"):
            cli._sweep_rows(ScenarioParams(), m, np.array(["1,1,", "2,1,"], dtype=object),
                            ["0.1"], np.array([[1e-3], [2e-3]]), np.array([[0.1], [0.1]]),
                            np.array([0.1]), False)
    # one rule call per m, each over both points
    assert len(solved) == 2 and solved == [math.inf, 1.0]


def test_sweep_failing_in_its_last_block_writes_no_csv(tmp_path, monkeypatch):
    # 100 ms leaves no room for the pilot. Its (tau, gamma) line is the
    # sixth of six, alone in the second block of 5 lines of 2 budgets (10
    # points), so the first block has been evaluated and formatted when the
    # sweep fails
    monkeypatch.setattr(cli, "_SWEEP_BLOCK", 10)
    done = _counted_sweep_rows(monkeypatch)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out), "--set", "sweep.rho_out=0.1, 0.2",
                 "--set", "sweep.tau_ms=1, 2, 3, 4, 5, 100"]) == 3
    assert done == [(math.inf, (5, 1), 10)]
    assert not out.exists()


def _logged_fading_rules(monkeypatch) -> list:
    """(m, tau) of every fading power rule solved, per point, through every
    binding of controlled_power_fading and controlled_power."""
    rule, array_rule = power_control.controlled_power_fading, power_control.controlled_power
    solved = []

    def logged(params, pr_st, tau):
        solved.append((pr_st.m, tau))
        return rule(params, pr_st, tau)

    def array_logged(params, tau, gamma, rho_out, m=math.inf):
        pc = array_rule(params, tau, gamma, rho_out, m)
        if not math.isinf(m):
            solved.extend((m, t) for t in np.broadcast_to(tau, pc.p_cont.shape).ravel().tolist())
        return pc

    for module in (power_control, throughput, cli):
        monkeypatch.setattr(module, "controlled_power_fading", logged)
        monkeypatch.setattr(module, "controlled_power", array_logged)
    return solved


def test_sweep_solves_each_fading_row_once(tmp_path, monkeypatch):
    solved = _logged_fading_rules(monkeypatch)
    assert main(["sweep", "--out", str(tmp_path / "x.csv"), "--set", "sweep.m=1, inf",
                 "--set", "sweep.tau_ms=0.5, 2", "--set", "sweep.include_rs=true"]) == 0
    assert solved == [(1.0, 0.5e-3), (1.0, 2e-3)]


# ---------------------------------------------------------------- validate

def test_validate_solves_each_fading_rule_once(monkeypatch, capsys):
    # checks 11 and 12 and the fading Monte Carlo reuse check 10's m = 1 rule
    solved = _logged_fading_rules(monkeypatch)
    main(["validate", "--trials", "2000"])
    assert solved == [(m, 1e-3) for m in (0.5, 1.0, 2.0, 5.0)]
    assert "check 12" in capsys.readouterr().out


def test_validate_passes_on_defaults(tmp_path, capsys):
    # 20000 trials is the regime the KS and 4-sigma windows are calibrated
    # for; far fewer draws would make those checks coin flips
    rc = main(["validate", "--trials", "20000"])
    out = capsys.readouterr().out
    assert rc == 0
    check_lines = [l for l in out.splitlines() if l.startswith("check")]
    assert len(check_lines) == 13
    assert all("  PASS  " in l for l in check_lines)
    assert out.rstrip().endswith("validate: PASS (13/13 checks)")


def test_validate_catches_tampering(capsys):
    rc = main(["validate", "--trials", "2000",
               "--set", "scenario.theta_i_dbm=-100"])
    out = capsys.readouterr().out
    assert rc == 1
    fail_lines = [l for l in out.splitlines()
                  if l.startswith("check") and "  FAIL  " in l]
    assert any("anchor" in l for l in fail_lines)
    assert "validate: FAIL" in out


def test_validate_check_7_fails_on_a_mean_capacity_off_by_1e_5(monkeypatch):
    # check 7 holds the capacity CDF to the rates' mean capacity within 1e-6
    # relative; a mean 1e-5 too large must read FAIL
    true_mean = cli.mean_capacity
    monkeypatch.setattr(cli, "mean_capacity", lambda d: (1.0 + 1e-5) * true_mean(d))
    cfg = default_config()
    apply_set(cfg, "mc.trials=2000")
    name, ok, measured, _ = next(itertools.islice(cli._validate_checks(cfg), 6, None))
    assert name == "capacity CDF vs mean capacity" and not ok
    assert float(measured) == pytest.approx(1e-5, rel=1e-3)


def test_validate_reads_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "alt.ini"
    cfg_path.write_text("[mc]\ntrials = 20000\nseed = 7\n")
    rc = main(["validate", "--config", str(cfg_path)])
    assert rc == 0
    assert "PASS (13/13" in capsys.readouterr().out


def test_missing_config_file(tmp_path):
    rc = main(["validate", "--config", str(tmp_path / "absent.ini")])
    assert rc == 2


def test_bad_set_value_is_config_error(tmp_path):
    rc = main(["sweep", "--out", str(tmp_path / "x.csv"),
               "--set", "scenario.rho_out=2"])
    assert rc == 2


def test_only_one_job_is_accepted(tmp_path, capsys):
    # --jobs 1 and mc.jobs = 1 stay valid for existing command lines and configs
    out = str(tmp_path / "x.csv")
    assert main(["sweep", "--out", out, "--jobs", "1",
                 "--config", str(REPO / "configs" / "default.ini")]) == 0
    capsys.readouterr()
    for extra in (["--jobs", "2"], ["--set", "mc.jobs=2"]):
        assert main(["sweep", "--out", out, *extra]) == 2
        assert ("mc.jobs must be 1: Monte Carlo runs in one process"
                in capsys.readouterr().err)


@pytest.mark.parametrize("setting, message", [
    ("sweep.m=0.3", "sweep.m: every m must be finite and at least 0.5, or inf"),
    ("sweep.m=nan", "sweep.m: every m must be finite and at least 0.5, or inf"),
    ("fading.m=inf", "fading.m: every m must be finite and at least 0.5"),
    ("sweep.rho_out=nan", "sweep.rho_out: not a finite number"),
    ("sweep.rho_out=1.5", "sweep.rho_out: every value must lie strictly in (0, 1)"),
    ("sweep.gamma_db=inf", "sweep.gamma_db: not a finite number"),
    ("sweep.tau_ms=logspace 0.1 inf 5", "sweep.tau_ms: bad grid spec"),
    ("sweep.tau_ms=logspace 0.1 10 1000001", "sweep.tau_ms: bad grid spec"),
])
def test_config_domain_errors_exit_2(tmp_path, capsys, setting, message):
    rc = main(["sweep", "--out", str(tmp_path / "x.csv"), "--set", setting])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["figure", "fig8a", "--set", "fading.m=1, 1.0"], "fading.m: 2 values print as 1"),
    (["figure", "fig8a", "--set", "fading.m=2, 1, 1.0000001"],
     "fading.m: 2 values print as 1"),
    (["sweep", "--set", "sweep.m=0.5, inf, 0.5000001"], "sweep.m: 2 values print as 0.5"),
    (["sweep", "--set", "sweep.m=inf, inf"], "sweep.m: 2 values print as inf"),
    (["sweep", "--set", "sweep.m=linspace 1 1.000001 3"], "sweep.m: 3 values print as 1"),
])
def test_m_values_that_print_alike_are_config_errors(tmp_path, capsys, argv, message):
    # such values would share one figure column name (fig8a would write 3
    # columns instead of 5) or give sweep rows whose m cells are alike
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {message} under %g; every m must print apart\n")
    assert not out.exists()


def _script(name: str):
    """scripts/<name>.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_make_figures_forwards_cli_arguments(tmp_path):
    script = _script("make_figures")
    assert script.main(["--out-dir", str(tmp_path), "--only", "fig3",
                        "--set", "scenario.gamma_db=-3", "--seed", "5"]) == 0
    meta, _, _ = _read_csv(tmp_path / "fig3.csv")
    assert "# config scenario.gamma_db = -3" in meta
    assert "# config mc.seed = 5" in meta


def test_csv_drift_reports_header_rows_and_largest_drift(tmp_path, capsys):
    script = _script("csv_drift")
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "a.csv").write_text("# run 1\ntau,p,regime\n1,2.0,x\n2,nan,y\n3,0,z\n")
    # tau drifts by 1e-7 in the first row, p by 1e-6: the line names p
    (new / "a.csv").write_text("# run 2\ntau,p,regime\n1.0000001,2.000002,x\n2,nan,y\n3,0,w\n")
    (old / "b.csv").write_text("tau,p\n1,1\n")
    (new / "b.csv").write_text("tau,q\n1,1\n2,1\n")
    assert script.main([str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("a.csv: header same, rows 3/3, max rel drift 1e-06 in p, "
                        "text cells differing 1")
    assert lines[1] == ("b.csv: header DIFFERS, rows 1/2, max rel drift 0, "
                        "text cells differing 0")
    assert script.main([str(old), str(old)]) == 0


@pytest.mark.parametrize("old, new, drift", [
    ("1.5", "1.5", 0.0),
    ("1.5", "1.50", 0.0),
    ("nan", "nan", 0.0),
    ("-inf", "-inf", 0.0),
    ("nan", "1.5", math.inf),
    ("1.5", "nan", math.inf),
    ("1.5", "inf", math.inf),
    ("2", "-2", 2.0),
    ("4", "5", 0.2),
    ("", "1.5", None),
    ("power-limited", "power-limited", None),
])
def test_csv_drift_cell_rule(old, new, drift):
    # |new - old| / max(|old|, |new|); a text cell on either side is not measured
    assert _script("csv_drift").cell_drift(old, new) == drift


def test_csv_drift_counts_text_cells_and_exits_1_on_a_shape_change(tmp_path, capsys):
    script = _script("csv_drift")

    def run(old_files: dict, new_files: dict) -> tuple[int, list[str]]:
        """Exit code and stdout lines of one comparison of fresh directories."""
        case = tmp_path / str(len(list(tmp_path.iterdir())))
        for side, files in (("old", old_files), ("new", new_files)):
            (case / side).mkdir(parents=True)
            for name, text in files.items():
                (case / side / name).write_text(text)
        rc = script.main([str(case / "old"), str(case / "new")])
        return rc, capsys.readouterr().out.splitlines()

    table = "# note\ntau,rs\n1,2\n2,\n3,nan\n"
    # a blank marker cell against a number is one differing text cell
    assert run({"a.csv": table}, {"a.csv": table.replace("2,\n", "2,0.5\n")}) == (0, [
        "a.csv: header same, rows 3/3, max rel drift 0, text cells differing 1"])
    assert run({"a.csv": "tau,rs\n1,2\n"}, {"a.csv": "tau,rs_EM\n1,2\n"}) == (1, [
        "a.csv: header DIFFERS, rows 1/1, max rel drift 0, text cells differing 0"])
    assert run({"a.csv": "tau,rs\n1,2\n"}, {"a.csv": "tau,rs\n1,2\n2,2\n"}) == (1, [
        "a.csv: header same, rows 1/2, max rel drift 0, text cells differing 0"])
    assert run({"a.csv": table}, {}) == (1, ["a.csv: missing in new"])
    assert run({}, {"a.csv": table}) == (1, ["a.csv: missing in old"])
    assert script.main([str(tmp_path)]) == 2


def _result_lines(wall, cpu, setup, rss, failed=0) -> str:
    """Canned stdout of one perfbench run: a detail line, then the result."""
    metrics = {"wall_s": (wall, "s"), "cpu_s": (cpu, "s"), "setup_s": (setup, "s"),
               "peak_rss_mb": (rss, "MB")}
    return "\n".join([json.dumps({"workload": "analytic", "ops": []}), json.dumps({
        "correct": failed == 0, "attempted": 50, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})]) + "\n"


def test_ab_bench_summarizes_canned_pairs_by_the_pair_rule(tmp_path, monkeypatch, capsys):
    script = _script("ab_bench")
    # wall_s: the change wins 9 of 10 pairs by ~0.04 s, against a parent
    # quartile spread of ~0.005 s; cpu_s ties every pair, and the parent's
    # runs spread over half their median, beyond the 25% bound; setup_s is
    # 30% worse, beyond its 25% bound; peak_rss_mb is 1% worse, within its 5%
    canned = {}
    for k in range(1, 11):
        wall = 0.19 + 0.001 * k
        canned[("parent", k)] = _result_lines(wall, 0.1 * k, 0.5, 70.0, failed=int(k == 7))
        canned[("change", k)] = _result_lines(0.2 if k == 3 else wall - 0.04, 0.1 * k, 0.65,
                                              70.7)
    order = []

    def run_once(checkout, command, workload, seed, seconds):
        assert (command, workload, seconds) == (["python3", "perfbench/run.py"],
                                                "analytic", 10.0)
        order.append((checkout.name, seed))
        return script.parse_result(canned[(checkout.name, seed)])

    monkeypatch.setattr(script, "run_once", run_once)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_bytes((REPO / "BENCHMARK.json").read_bytes())
    assert script.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                        "--workload", "analytic", "--pairs", "10", "--seconds", "10"]) == 0
    # alternating order, one fresh seed per pair
    assert order[:4] == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2)]
    assert sorted(order) == sorted((side, k) for side in ("parent", "change")
                                   for k in range(1, 11))
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "analytic: 10 pairs; failed operations: parent 1/500, change 0/500"
    rows = {line.split()[0]: line for line in lines[2:]}
    assert list(rows) == ["wall_s", "cpu_s", "setup_s", "peak_rss_mb"]
    assert rows["wall_s"].split()[-3:] == ["9/10", "25%", "gain"]
    assert rows["wall_s"].split()[2:10] == ["0.1955", "[0.1927,", "0.1983]",
                                            "0.1565", "[0.1535,", "0.1593]", "-19.9%", "9/10"]
    assert rows["cpu_s"].split()[-4:] == ["+0.0%", "0/10", "25%", "unresolved"]
    assert rows["setup_s"].split()[-4:] == ["+30.0%", "0/10", "25%", "worse"]
    assert rows["peak_rss_mb"].split()[-5:] == ["+1.0%", "0/10", "5%", "within", "bound"]


def test_ab_bench_verdict_weighs_failures_and_spread():
    script = _script("ab_bench")
    metric = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]

    def verdict(parent_walls, change_walls, change_failed=0):
        pairs = [(script.parse_result(_result_lines(p, 1.0, 0.5, 70.0)),
                  script.parse_result(_result_lines(c, 1.0, 0.5, 70.0, failed=change_failed)))
                 for p, c in zip(parent_walls, change_walls)]
        return script.summarize(metric, pairs)[0]["verdict"]

    parent = [0.19 + 0.001 * k for k in range(10)]
    faster = [w - 0.04 for w in parent]
    assert verdict(parent, faster) == "gain"
    # the same times, but the change fails an operation the parent does not
    assert verdict(parent, faster, change_failed=1) == "within bound"
    # the parent's runs spread over 25% of their median: too wide to tell a
    # gain or a regression, unless every change run beats every parent run
    wide = [1.0 + 0.1 * k for k in range(1, 11)]
    assert verdict(wide, [w - 0.01 for w in wide]) == "unresolved"
    assert verdict(wide, [w + 0.5 for w in wide]) == "unresolved"
    assert verdict(wide, [0.5] * 10) == "gain"
    assert verdict(wide, [1.05] * 10) == "within bound"


def test_gate_snapshot_runs_every_gate_command(tmp_path, monkeypatch):
    script = _script("gate_snapshot")
    calls = []
    monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv) or 0)
    assert script.main([str(tmp_path)]) == 0
    assert [a for a in calls if a[0] == "validate"] == [
        ["validate"], ["validate", "--seed", "7", "--trials", "20000"]]
    figures = [a for a in calls if a[0] == "figure"]
    assert figures == [["figure", fig_id, "--out", str(tmp_path / f"{fig_id}.csv"),
                        "--trials", "2000"] for fig_id in FIGURE_IDS]
    sweeps = [a for a in calls if a[0] == "sweep"]
    assert [a[a.index("--out") + 1] for a in sweeps] == [
        str(tmp_path / "power_table.csv"), str(tmp_path / "rate_table.csv"),
        str(tmp_path / "fading_sweep.csv"), str(tmp_path / "long_rho_sweep.csv"),
        str(tmp_path / "mixed_m_sweep.csv"), str(tmp_path / "wide_fading_sweep.csv"),
        str(tmp_path / "edge_det_sweep.csv")]
    assert {"--set=sweep.m=0.5, 1, inf", "--set=sweep.include_rs=true"} <= set(sweeps[2])
    # one (tau, gamma) line longer than a sweep block
    assert {"--set=sweep.m=inf", "--set=sweep.include_rs=true",
            "--set=sweep.rho_out=linspace 0.001 0.5 5000"} <= set(sweeps[3])
    assert 5000 > cli._SWEEP_BLOCK
    # an unordered m axis, so each grid point interleaves finite-m and inf rows
    assert {"--set=sweep.m=1, inf, 0.5", "--set=sweep.include_rs=true"} <= set(sweeps[4])
    # the fading rule over its whole range, at three m
    assert {"--set=sweep.m=0.5, 5, 200", "--set=sweep.include_rs=true",
            "--set=sweep.rho_out=0.0001, 0.01, 0.1, 0.5"} <= set(sweeps[5])
    # det shapes below 2 at one- and two-sample windows, and budgets above 0.5
    assert {"--set=sweep.m=inf", "--set=sweep.include_rs=true", "--set=sweep.tau_ms=0.001, "
            "0.002, 0.005, 0.02", "--set=sweep.rho_out=0.05, 0.5, 0.7, 0.99"} <= set(sweeps[6])
    assert len(calls) == len(FIGURE_IDS) + 9
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "validate.txt", "validate_seed7_trials20000.txt"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "underlaysim" in capsys.readouterr().out

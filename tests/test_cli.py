"""CLI surface: config handling, figure CSVs, sweeps, the validate gate.

Everything runs in process through main(); the CSVs land in tmp_path.
fig8b runs with one m (fading.m = 1); the fading tradeoff figures (fig9a,
fig9b) optimize a curve per gamma and m and are left to the figure script.
"""

import importlib.util
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from underlaysim import __version__, cli, dists, specfun
from underlaysim.cli import (ConfigError, FIGURE_IDS, apply_set,
                             default_config, main, parse_config,
                             render_config)
from underlaysim.power_control import (Regime, ScenarioParams,
                                       controlled_power_det,
                                       controlled_power_fading, db_to_linear,
                                       default_fading, linear_to_db,
                                       perf_bound_fading)
from underlaysim.throughput import (Model, capacity_law_det, optimize_tradeoff,
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


def test_fig4b_needs_no_pt_sr_gain_in_db(tmp_path):
    # only panel a offsets the PT-SR gain in dB; panel b must not need it
    out = tmp_path / "fig4b.csv"
    assert main(["figure", "fig4b", "--out", str(out), "--trials", "10",
                 "--set", "scenario.g_pt_sr_db=-inf"]) == 0
    _, header, rows = _read_csv(out)
    assert header[1] == "cdf_tau_0p1ms" and len(rows) == 241


def _fig4b_cdf_tau_1ms(p, c):
    law = capacity_law_det(replace(p, gamma=db_to_linear(10.0)), 1e-3, 1.0)
    return dists.capacity_cdf(law, c)


def _fig7_params(p, g_db, p_full_db):
    return replace(p, gamma=db_to_linear(g_db), p_full=db_to_linear(p_full_db))


_PFULL_HEADER = ["gamma_dB"] + [f"rs_{model}_pfull_{p}dBm" for p in ("0", "m10")
                                for model in ("EM", "IM", "NPC")]

# figure id, header, rows, note lines, then one cell (column, value in the
# first column) and the library call that must reproduce it
_FIGURE_TABLES = [
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
     lambda p, tau_ms: linear_to_db(perf_bound_fading(
         p, dists.NakagamiGain(1.0, 1.0), tau_ms * 1e-3))),
    ("fig7a", _PFULL_HEADER, 13,
     ["EM column reports the tau-optimized throughput per gamma"],
     "rs_EM_pfull_0dBm", 0.0,
     lambda p, g_db: optimize_tradeoff(_fig7_params(p, g_db, 0.0),
                                       Model.ESTIMATION).r_s_opt),
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
]
# extra arguments per figure id: fig8b runs one m to stay cheap
_FIGURE_ARGS = {"fig8b": ["--set", "fading.m=1"]}


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


def test_sweep_csv_equals_a_csv_built_from_the_scalar_api(tmp_path, monkeypatch):
    # the whole file, byte for byte: meta lines, header, row order and line
    # ends, over both regimes and both m dispatches. Blocks of 5 split the
    # 18 grid points unevenly; 0.0015 ms is a half-sample window; at -30 dB
    # both budgets are power-limited from 1 ms on, so those m = inf rows
    # share one capacity law
    monkeypatch.setattr(cli, "_SWEEP_BLOCK", 5)
    sweep = {"tau_ms": "0.0015, 1, 30", "gamma_db": "-30, 0, 10",
             "rho_out": "0.3, 0.5", "m": "inf, 1", "include_rs": "true"}
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out)]
                + [f"--set=sweep.{key}={value}" for key, value in sweep.items()]) == 0

    def cell(value) -> str:
        return value if isinstance(value, str) else format(value, ".10g")

    lines = [f"# underlaysim {__version__}", "# command: sweep"]
    for section, keys in cli._DEFAULTS.items():
        for key, value in keys.items():
            value = sweep.get(key, value) if section == "sweep" else value
            lines.append(f"# config {section}.{key} = {value}")
    lines += ["# note: 36 rows", "tau_ms,gamma_dB,rho_out,m,p_cont_dBm,regime,rs"]
    params = ScenarioParams()
    power_limited_det, regimes = [], set()
    for tau_ms in sweep["tau_ms"].split(", "):
        tau = float(tau_ms) * 1e-3
        for g_db in sweep["gamma_db"].split(", "):
            for rho in sweep["rho_out"].split(", "):
                p2 = replace(params, gamma=db_to_linear(float(g_db)), rho_out=float(rho))
                det = controlled_power_det(p2, tau)
                links = default_fading(p2, 1.0)
                fading = cli._power(p2, links, tau)
                rows = [("inf", det, throughput_det(p2, tau)),
                        ("1", fading, cli._rate(p2, links, tau))]
                for m, pc, rs in rows:
                    regimes.add((m, pc.regime))
                    key = [float(tau_ms), float(g_db), float(rho), m]
                    lines.append(",".join(cell(v) for v in key + [
                        linear_to_db(pc.p_cont), pc.regime.value, rs]))
                if det.regime is Regime.POWER_LIMITED:
                    power_limited_det.append(tau)
    assert len(regimes) == 4
    assert len(power_limited_det) > len(set(power_limited_det))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


_ODD_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0, 5e-324, -5e-324]))


@given(cells=st.lists(st.tuples(_ODD_FLOATS, st.sampled_from([r.value for r in Regime]),
                                _ODD_FLOATS), min_size=1, max_size=20))
@settings(max_examples=200)
def test_sweep_tails_format_like_fmt(cells):
    p_db, regimes, rs = (list(col) for col in zip(*cells))
    assert cli._sweep_tails(p_db, regimes, None) == [
        f"{cli._fmt(p)},{regime}" for p, regime in zip(p_db, regimes)]
    assert cli._sweep_tails(p_db, regimes, rs) == [
        f"{cli._fmt(p)},{regime},{cli._fmt(r)}" for p, regime, r in zip(p_db, regimes, rs)]


def test_sweep_failing_in_its_last_block_writes_no_csv(tmp_path, monkeypatch):
    # 100 ms leaves no room for the pilot. It is the sixth of six grid
    # points, alone in the second block of 5, so the first block has been
    # evaluated and formatted when the sweep fails
    monkeypatch.setattr(cli, "_SWEEP_BLOCK", 5)
    done = []
    evaluate = cli._det_sweep_cells

    def counted(*args):
        tails = evaluate(*args)
        done.append(len(tails))
        return tails

    monkeypatch.setattr(cli, "_det_sweep_cells", counted)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out),
                 "--set", "sweep.tau_ms=1, 2, 3, 4, 5, 100"]) == 3
    assert done == [5]
    assert not out.exists()


# ---------------------------------------------------------------- validate

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


def test_make_figures_forwards_cli_arguments(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "make_figures", REPO / "scripts" / "make_figures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--out-dir", str(tmp_path), "--only", "fig3",
                        "--set", "scenario.gamma_db=-3", "--seed", "5"]) == 0
    meta, _, _ = _read_csv(tmp_path / "fig3.csv")
    assert "# config scenario.gamma_db = -3" in meta
    assert "# config mc.seed = 5" in meta


def test_csv_drift_reports_header_rows_and_largest_drift(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "csv_drift", REPO / "scripts" / "csv_drift.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "a.csv").write_text("# run 1\ntau,p,regime\n1,2.0,x\n2,nan,y\n3,0,z\n")
    (new / "a.csv").write_text("# run 2\ntau,p,regime\n1,2.000002,x\n2,nan,y\n3,0,w\n")
    (old / "b.csv").write_text("tau,p\n1,1\n")
    (new / "b.csv").write_text("tau,q\n1,1\n2,1\n")
    assert script.main([str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("a.csv: header same, rows 3/3, max rel drift 1e-06, "
                        "text cells differing 1")
    assert lines[1] == ("b.csv: header DIFFERS, rows 1/2, max rel drift 0, "
                        "text cells differing 0")
    assert script.main([str(old), str(old)]) == 0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "underlaysim" in capsys.readouterr().out

"""The layer tracer: bindings, counts, self time and its self-check."""

import os
import time
from dataclasses import replace

import pytest

import tracer as tracing
from underlaysim import cli, power_control, throughput

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def tr():
    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def metrics_of(t, before, wall=1.0):
    delta = {k: v - before.get(k, 0) for k, v in t.snapshot().items()}
    return tracing.layer_metrics(delta, wall)


def fading_case():
    with open(os.path.join(os.path.dirname(BENCH), "configs", "default.ini")) as fh:
        params = cli.parse_config(fh.read()).params()
    p2 = replace(params, gamma=power_control.db_to_linear(-15.0))
    return p2, power_control.default_fading(p2, 1.0)


def test_every_binding_wrapped_and_restored(tr):
    assert tr.unwrapped_bindings() == []
    # the from-import bindings are wrapped, not only the defining modules
    assert throughput.controlled_power_fading is power_control.controlled_power_fading
    assert cli.mean_capacity is throughput.mean_capacity
    assert cli.mean_capacity.__wrapped_by_tracer__
    tr.uninstall()
    assert not hasattr(cli.mean_capacity, "__wrapped_by_tracer__")
    assert not hasattr(power_control.controlled_power_fading, "__wrapped_by_tracer__")


def test_fading_counts_and_self_check(tr):
    params, links = fading_case()
    before = tr.snapshot()
    throughput.throughput_fading(params, links, 1e-3)
    m = metrics_of(tr, before)
    assert m["throughput.throughput_fading.calls"] == 1
    assert m["power_control.controlled_power_fading.calls"] == 1
    assert m["power_control.controlled_power_fading.outage_evals"] > 1
    assert m["specfun.find_root.evals"] > 0
    assert m["specfun.integrate.points"] % 21 == 0
    assert m["throughput.throughput_fading.self_s"] > 0.0
    assert tracing.self_check(tr, m, "analytic", None) == []
    # self time never exceeds inclusive time
    for nid, name in enumerate(tr.names):
        assert tr.self_s[nid] <= tr.incl[nid] + 1e-12, name


def test_self_check_catches_unwrapped_import_site(tr):
    params, links = fading_case()
    original = {name: fn for fn, name in tr.originals.items()}[
        "power_control.controlled_power_fading"]
    throughput.controlled_power_fading = original  # leave one call site bare
    before = tr.snapshot()
    throughput.throughput_fading(params, links, 1e-3)
    m = metrics_of(tr, before)
    problems = tracing.self_check(tr, m, "analytic", None)
    assert "unwrapped binding underlaysim.throughput.controlled_power_fading" in problems
    assert any("controlled_power_fading.calls" in p for p in problems)
    tr.uninstall()
    assert throughput.controlled_power_fading is original


def test_sweep_rows_and_regimes(tr, tmp_path):
    out = tmp_path / "t.csv"
    argv = ["sweep", "--out", str(out), "--set", "sweep.tau_ms=0.1, 1, 10",
            "--set", "sweep.gamma_db=-20, -5", "--set", "sweep.rho_out=0.1"]
    before = tr.snapshot()
    start = time.perf_counter()
    assert cli.main(argv) == 0
    m = metrics_of(tr, before, time.perf_counter() - start)
    assert m["cli.rows_written"] == 6
    assert m["cli.bytes_written"] == out.stat().st_size
    assert (m["power_control.controlled_power_det.interference_limited"]
            + m["power_control.controlled_power_det.power_limited"]) == 6
    assert m["montecarlo.run_trials_det.calls"] == 0
    assert tracing.self_check(tr, m, "analytic", 6) == []
    assert tracing.self_check(tr, m, "analytic", 7)
    # self times partition the traced time: shares add up to at most one
    assert 0.5 < sum(m[f"{layer}.self_share"] for layer in tracing.LAYERS) <= 1.0

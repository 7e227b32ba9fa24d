"""Throughput layer: mean rates, the three models, tradeoff optimization.

mean_capacity is checked against scipy.integrate.quad on the same density
and against a 256-node Gauss-Legendre rule over the whole survival
function, which shares no code with the library's quantile-split rule.
The fading average is checked against a quantile-space midpoint rule over
both gains, and against the library's own outer grid with every cell kept
and each cell's mean taken by the 256-node rule.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from underlaysim.dists import (CapacityDist, NcChiSq, capacity_pdf,
                               gamma_match, nakagami_gain_quantile)
from underlaysim.power_control import (Regime, ScenarioParams,
                                       controlled_power_det,
                                       controlled_power_fading, db_to_linear,
                                       default_fading, outage_det,
                                       outage_fading, samples_for)
from underlaysim.throughput import (Model, TradeoffCurve, capacity_law_det,
                                    default_tau_grid, mean_capacity,
                                    optimize_tradeoff, prefactor,
                                    throughput_det, throughput_fading,
                                    throughput_ideal_det,
                                    throughput_ideal_fading,
                                    throughput_no_pc_det,
                                    throughput_no_pc_fading)
from underlaysim.specfun import DEFAULT_TOL
from underlaysim.throughput import (_kept_cells, _mean_capacity_fading,
                                    _mean_capacity_grid, _outer_cells)


# ---------------------------------------------------------------- prefactor

def test_prefactor_value(defaults):
    want = (0.100 - 1e-3 - 5e-6) / 0.100
    assert prefactor(defaults, 1e-3) == pytest.approx(want, rel=1e-15)


def test_prefactor_domain(defaults):
    with pytest.raises(ValueError):
        prefactor(defaults, 0.0)
    with pytest.raises(ValueError):
        prefactor(defaults, defaults.frame_len - defaults.tau_p)
    with pytest.raises(ValueError):
        prefactor(defaults, defaults.frame_len)


# -------------------------------------------------------------- ideal model

def test_ideal_det_reference_value(defaults):
    # theta_i / gain = 0.1 mW, SINR = 1e-8 * 0.1 / (1e-10 + 1e-10) = 5
    assert throughput_ideal_det(defaults) == pytest.approx(math.log2(6.0), abs=1e-12)


def test_ideal_det_power_limited_branch(defaults):
    params = replace(defaults, gamma=db_to_linear(-30.0))
    # gain so weak that theta_i / gain > p_full, so the ceiling binds
    sinr = defaults.g_st_sr * 1.0 / (defaults.g_pt_sr + defaults.sigma2)
    assert throughput_ideal_det(params) == pytest.approx(math.log2(1.0 + sinr), rel=1e-12)


# ------------------------------------------------------------ mean capacity

def _quad_mean(dist: CapacityDist) -> float:
    typical = math.log2(1.0 + dist.gain_approx.mean * dist.tx_power
                        / dist.interf_approx.mean)
    val, _ = scipy.integrate.quad(
        lambda x: x * capacity_pdf(dist, x), 1e-12, 64.0, limit=400,
        points=[0.5 * typical, typical, 2.0 * typical])
    return val


@pytest.mark.parametrize("tau,p", [(1e-4, 0.05), (1e-3, 0.0909), (1e-2, 1.0)])
def test_mean_capacity_matches_quad(defaults, tau, p):
    dist = capacity_law_det(defaults, tau, p)
    assert mean_capacity(dist) == pytest.approx(_quad_mean(dist), rel=1e-7)


_REF_NODES, _REF_WEIGHTS = np.polynomial.legendre.leggauss(256)


def _survival_mean_256(a_s, a_i, lam):
    """Reference mean capacity for broadcastable arrays of law parameters:
    256 Gauss-Legendre nodes of P(C > x) on [0, x_hi], with x_hi the law's
    1 - 1e-10 capacity quantile."""
    a_s, a_i, lam = np.broadcast_arrays(a_s, a_i, lam)
    r_hi = scipy.special.betaincinv(a_s, a_i, 1.0 - 1e-10)
    x_hi = np.log2(1.0 + lam * r_hi / (1.0 - r_hi))
    half = 0.5 * x_hi[..., None]
    z = np.expm1(half * (_REF_NODES + 1.0) * math.log(2.0))
    surv = scipy.special.betaincc(a_s[..., None], a_i[..., None],
                                  z / (z + lam[..., None]))
    return half[..., 0] * (surv @ _REF_WEIGHTS)


def test_mean_capacity_survival_route_agrees(defaults):
    # the quantile-split rule against the 256-node rule over the whole range
    for tau, p in [(1e-3, 0.1), (1e-2, 0.7)]:
        dist = capacity_law_det(defaults, tau, p)
        want = float(_survival_mean_256(dist.gain_approx.shape,
                                        dist.interf_approx.shape,
                                        dist.ratio_scale))
        assert mean_capacity(dist) == pytest.approx(want, rel=DEFAULT_TOL.rel_tol)


def test_mean_capacity_reference_value(defaults):
    res = controlled_power_det(defaults, 1e-3)
    dist = capacity_law_det(defaults, 1e-3, res.p_cont)
    assert mean_capacity(dist) == pytest.approx(2.472901866724306, rel=1e-9)


def test_throughput_det_recomposes(defaults):
    tau = 1e-3
    res = controlled_power_det(defaults, tau)
    dist = capacity_law_det(defaults, tau, res.p_cont)
    want = prefactor(defaults, tau) * mean_capacity(dist)
    assert throughput_det(defaults, tau) == pytest.approx(want, rel=1e-12)


def test_throughput_det_below_ideal(defaults):
    ideal = throughput_ideal_det(defaults)
    for tau in [1e-4, 1e-3, 1e-2]:
        assert throughput_det(defaults, tau) < ideal


# ----------------------------------------------------- no power control, det

def test_no_pc_det_forced_window_calibration(defaults):
    params = replace(defaults, gamma=db_to_linear(-12.0))
    tau_f, r_npc = throughput_no_pc_det(params)
    assert math.isfinite(tau_f) and r_npc > 0.0
    # the forced window solves outage-at-full-power = rho_out with the
    # window length treated as continuous
    n_f = tau_f * params.f_s
    total = n_f * (1.0 + params.gamma)
    spread = 2.0 * n_f + 4.0 * n_f * params.gamma
    a = total * total / spread
    b = (params.sigma2 / n_f) * spread / total
    thr = params.theta_i * params.p_tx_pr / params.p_full + params.sigma2
    assert scipy.special.gammaincc(a, thr / b) == pytest.approx(
        params.rho_out, abs=1e-9)
    assert r_npc < throughput_ideal_det(params)


def test_no_pc_det_unattainable_at_high_snr(defaults):
    tau_f, r_npc = throughput_no_pc_det(defaults)
    assert math.isnan(tau_f)
    assert r_npc == 0.0


# ------------------------------------------------------------- optimization

def test_tradeoff_unimodal_with_interior_peak(defaults):
    curve = optimize_tradeoff(defaults, Model.ESTIMATION)
    values = np.array([v for _, v in curve.points])
    i = int(np.argmax(values))
    assert 0 < i < values.size - 1
    diffs = np.diff(values)
    assert np.all(diffs[:i] > 0.0)
    assert np.all(diffs[i:] < 0.0)
    # refinement can only improve on the grid
    assert curve.r_s_opt >= values[i]
    assert curve.points[i - 1][0] <= curve.tau_opt <= curve.points[i + 1][0]
    assert curve.model is Model.ESTIMATION


def test_tradeoff_tighter_budget_senses_longer(defaults):
    loose = optimize_tradeoff(defaults, Model.ESTIMATION)
    tight = optimize_tradeoff(replace(defaults, rho_out=0.01), Model.ESTIMATION)
    assert tight.tau_opt > loose.tau_opt
    assert tight.r_s_opt < loose.r_s_opt


def test_tradeoff_reference_optimum(defaults):
    curve = optimize_tradeoff(defaults, Model.ESTIMATION)
    assert curve.tau_opt == pytest.approx(1.6675e-3, rel=5e-3)
    assert curve.r_s_opt == pytest.approx(2.45537, rel=1e-4)


def test_tradeoff_ideal_is_flat(defaults):
    curve = optimize_tradeoff(defaults, Model.IDEAL)
    values = {v for _, v in curve.points}
    assert len(values) == 1
    assert math.isnan(curve.tau_opt)
    assert curve.r_s_opt == pytest.approx(throughput_ideal_det(defaults), rel=1e-12)


def test_tradeoff_no_pc_single_point(defaults):
    params = replace(defaults, gamma=db_to_linear(-12.0))
    curve = optimize_tradeoff(params, Model.NO_POWER_CONTROL)
    assert len(curve.points) == 1
    assert curve.points[0] == (curve.tau_opt, curve.r_s_opt)


def test_tradeoff_rejects_sparse_grid(defaults):
    with pytest.raises(ValueError, match="at least 20 points"):
        optimize_tradeoff(defaults, Model.ESTIMATION,
                          tau_grid=np.geomspace(1e-5, 1e-2, 10))
    with pytest.raises(ValueError, match="usable frame"):
        optimize_tradeoff(defaults, Model.ESTIMATION,
                          tau_grid=np.geomspace(1e-5, 0.2, 30))


def test_default_tau_grid_bounds(defaults):
    grid = default_tau_grid(defaults)
    assert grid.size == 25
    assert grid.min() >= 10.0 / defaults.f_s
    assert grid.max() < defaults.frame_len - defaults.tau_p
    assert np.all(np.diff(grid) > 0.0)


# ------------------------------------------------------------- fading rates

def _midpoint_fading_mean(params, links, tau, p, nodes=24):
    """Average of the capacity mean over both interfering-link fades.

    Outer rule: midpoints in quantile space of each gain law. Inner value:
    the density-route mean on the conditional capacity law.
    """
    n = samples_for(tau, params.f_s)
    k_p = params.pilot_samples
    u = (np.arange(nodes) + 0.5) / nodes
    total = 0.0
    for u_s in u:
        x_s = nakagami_gain_quantile(links.st_sr, float(u_s))
        gain = gamma_match(NcChiSq(2, k_p * x_s / params.sigma2,
                                   params.sigma2 / k_p))
        for u_i in u:
            x_i = nakagami_gain_quantile(links.pt_sr, float(u_i))
            interf = gamma_match(NcChiSq(
                n, n * x_i * params.p_tx_pt / params.sigma2, params.sigma2 / n))
            dist = CapacityDist(gain_approx=gain, interf_approx=interf,
                                tx_power=p)
            total += mean_capacity(dist)
    return total / nodes ** 2


def test_throughput_fading_matches_midpoint_oracle(defaults):
    links = default_fading(defaults, 1.0)
    tau = 1e-3
    got = throughput_fading(defaults, links, tau)
    p = controlled_power_fading(defaults, links.pr_st, tau).p_cont
    want = prefactor(defaults, tau) * _midpoint_fading_mean(
        defaults, links, tau, p)
    assert got == pytest.approx(want, rel=5e-3)


def _fading_mean_256(params, links, tau, p):
    """The library's outer grid with no cell skipped, each cell's mean
    capacity by the 256-node survival rule."""
    weight, a_s, a_i, lam = _outer_cells(params, links, tau, p)
    return float(np.sum(weight * _survival_mean_256(a_s, a_i, lam)))


# (m, tau, p): the shortest window the figures use (10 us, a heavy
# interference-estimate tail), m from 0.5 to the quantile-space branch
_FADING_GRID = [(0.5, 1e-5, 1e-3), (0.5, 1e-3, 0.1), (1.0, 1e-5, 1.0),
                (1.0, 3e-3, 0.05), (5.0, 1e-4, 0.01), (5.0, 3e-2, 1.0),
                (200.0, 1e-5, 0.1), (200.0, 1e-3, 1e-3)]


@pytest.mark.parametrize("m, tau, p", _FADING_GRID)
def test_fading_mean_capacity_matches_256_node_grid(defaults, m, tau, p):
    links = default_fading(defaults, m)
    got = _mean_capacity_fading(defaults, links, tau, p, DEFAULT_TOL)
    want = _fading_mean_256(defaults, links, tau, p)
    assert got == pytest.approx(want, rel=DEFAULT_TOL.rel_tol)


def test_pruning_keeps_cells_without_a_mean_bound():
    # cells with a_i <= 1 have no Jensen bound: kept however small their weight
    weight = np.full((2, 3), 1e-30)
    a_s = np.full((2, 3), 2.0)
    a_i = np.array([[0.6, 1.0, 5.0], [0.6, 1.0, 5.0]])
    lam = np.full((2, 3), 1e-3)
    keep = _kept_cells(weight, a_s, a_i, lam, DEFAULT_TOL)
    assert keep.tolist() == [[True, True, False], [True, True, False]]


def test_pruning_keeps_short_window_cells(defaults):
    # a one-sample window puts the weak interference nodes at a_i <= 1
    links = default_fading(defaults, 0.5)
    tau, p = 1e-6, 0.1
    weight, a_s, a_i, lam = _outer_cells(defaults, links, tau, p)
    no_bound = a_i <= 1.0
    assert 0 < no_bound.sum() < no_bound.size
    keep = _kept_cells(weight, a_s, a_i, lam, DEFAULT_TOL)
    assert np.all(keep[no_bound])
    assert not np.all(keep)
    # the skipped cells' bounds sum to at most 0.1 abs_tol
    got = _mean_capacity_fading(defaults, links, tau, p, DEFAULT_TOL)
    every_cell = float(np.sum(weight * _mean_capacity_grid(a_s, a_i, lam)))
    assert math.isfinite(got)
    assert abs(got - every_cell) <= 0.1 * DEFAULT_TOL.abs_tol


def test_throughput_fading_reference_value(defaults):
    links = default_fading(defaults, 1.0)
    assert throughput_fading(defaults, links, 1e-3) == pytest.approx(
        1.485174540847571, rel=1e-6)


def test_throughput_fading_approaches_det(defaults):
    links = default_fading(defaults, 1e4)
    got = throughput_fading(defaults, links, 1e-3)
    assert got == pytest.approx(throughput_det(defaults, 1e-3), rel=0.01)


def test_ideal_fading_reference_and_limit(defaults):
    links = default_fading(defaults, 1.0)
    assert throughput_ideal_fading(defaults, links) == pytest.approx(
        1.499014071317666, rel=1e-6)
    vals = [throughput_ideal_fading(defaults, default_fading(defaults, m))
            for m in [1.0, 5.0, 1e4]]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] == pytest.approx(throughput_ideal_det(defaults), abs=0.05)


def test_fading_below_its_ideal(defaults):
    links = default_fading(defaults, 1.0)
    assert throughput_fading(defaults, links, 1e-3) < throughput_ideal_fading(
        defaults, links)


def test_no_pc_fading_calibration():
    params = ScenarioParams(gamma=db_to_linear(-16.0))
    links = default_fading(params, 1.0)
    tau_f, r_npc = throughput_no_pc_fading(params, links)
    assert math.isfinite(tau_f) and r_npc > 0.0
    assert outage_fading(params, links.pr_st, tau_f, params.p_full) == pytest.approx(
        params.rho_out, abs=1e-3)
    assert r_npc < throughput_ideal_fading(params, links)


def test_no_pc_fading_unattainable_at_high_snr(defaults):
    links = default_fading(defaults, 1.0)
    tau_f, r_npc = throughput_no_pc_fading(defaults, links)
    assert math.isnan(tau_f)
    assert r_npc == 0.0

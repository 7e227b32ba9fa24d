"""Throughput layer: mean rates, the estimation rate and its two baselines,
tradeoff optimization.

mean_capacity is checked against scipy.integrate.quad of the capacity
law's survival function 1 - F, against quad on Hamdi's integrand over a
table of seeded laws and the small-lam series, and against a 256-node
Gauss-Legendre rule over the whole survival function, which shares no code
with the library's rule; its in-place softplus against the np.logaddexp form
it replaced.
The fading average, one integral over the two links' 32-node mixtures, is
checked against a quantile-space midpoint rule over both gains, and against
the 32 x 32 grid of the same outer nodes with every cell kept: each cell's
mean by mean_capacity over a seeded table of scenarios, and by the 256-node
rule on the figures' fading points.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from underlaysim.dists import (CapacityDist, NcChiSq, capacity_cdf,
                               gamma_match, nakagami_gain_quantile)
from underlaysim.power_control import (FadingLinks, Regime, ScenarioParams,
                                       controlled_power, controlled_power_det,
                                       controlled_power_fading, db_to_linear,
                                       default_fading, outage, samples_for)
from underlaysim.throughput import (TradeoffCurve, capacity_law_det,
                                    default_tau_grid, mean_capacity,
                                    optimize_tradeoff, prefactor,
                                    throughput_det, throughput_det_array,
                                    throughput_fading, throughput_ideal_det,
                                    throughput_ideal_fading,
                                    throughput_no_pc_det,
                                    throughput_no_pc_fading)
from underlaysim import power_control, throughput
from underlaysim.montecarlo import run_trials_fading
from underlaysim.specfun import ABS_TOL, REL_TOL
from underlaysim.throughput import (_LAGUERRE_M_CAP, _gain_nodes,
                                    _mean_capacity_fading, _mean_capacity_grid,
                                    _softplus as _softplus_into)


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
        lambda x: 1.0 - capacity_cdf(dist, x), 0.0, 64.0, limit=400,
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
    # the lemma rule against the 256-node survival rule over the whole range
    for tau, p in [(1e-3, 0.1), (1e-2, 0.7)]:
        dist = capacity_law_det(defaults, tau, p)
        want = float(_survival_mean_256(dist.gain_approx.shape,
                                        dist.interf_approx.shape,
                                        dist.ratio_scale))
        assert mean_capacity(dist) == pytest.approx(want, rel=REL_TOL)


def _softplus(x: float) -> float:
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def _lemma_quad(a_s: float, a_i: float, lam: float) -> float:
    """Mean capacity by scipy quad on Hamdi's integrand in u = ln z,
    (1 + z)^-a_i (1 - (1 + lam z)^-a_s), split at its two knees and cut
    where it has fallen below e^-60 of its peak."""
    ln_lam = math.log(lam)
    knees = sorted([-math.log(a_s) - ln_lam, -math.log(a_i)])
    ends = [knees[0] - 60.0, *knees, knees[1] + 120.0 / min(a_i, 1.0)]

    def integrand(u: float) -> float:
        return (math.exp(-a_i * _softplus(u))
                * -math.expm1(-a_s * _softplus(u + ln_lam)))

    return sum(scipy.integrate.quad(integrand, lo, hi, epsabs=1e-20, epsrel=1e-12,
                                    limit=200)[0]
               for lo, hi in zip(ends[:-1], ends[1:])) / math.log(2.0)


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def test_mean_capacity_oracle_table():
    # 400 seeded laws over a_s 0.5-1e4, a_i 0.5-2e5, lam 1e-4-1e5: 200 over
    # the whole box, 100 with a_s < 1 and 100 with a_i < 1.6, the shapes of
    # windows of one to a few samples
    rng = np.random.default_rng(20100201)
    a_s = np.concatenate([_log_uniform(rng, 0.5, 1e4, 200), _log_uniform(rng, 0.5, 1.0, 100),
                          _log_uniform(rng, 0.5, 1e4, 100)])
    a_i = np.concatenate([_log_uniform(rng, 0.5, 2e5, 300), _log_uniform(rng, 0.5, 1.6, 100)])
    lam = _log_uniform(rng, 1e-4, 1e5, 400)
    got = _mean_capacity_grid(a_s, a_i, lam)
    want = np.array([_lemma_quad(*law) for law in zip(a_s.tolist(), a_i.tolist(),
                                                       lam.tolist())])
    err = np.abs(got - want)
    assert np.all(err <= np.maximum(ABS_TOL, REL_TOL * want))


def test_mean_capacity_small_lam_series():
    # at lam <= 1e-50 the mean is lam a_s / (a_i - 1)
    # - lam^2 a_s (a_s + 1) / (2 (a_i - 1)(a_i - 2)), over ln 2, to double
    # precision (a_i > 2); the rule meets REL_TOL on it, not just ABS_TOL
    rng = np.random.default_rng(99)
    a_s = _log_uniform(rng, 0.5, 1e4, 100)
    a_i = 2.0 + _log_uniform(rng, 0.01, 2e5, 100)
    lam = _log_uniform(rng, 1e-300, 1e-50, 100)
    want = (lam * a_s / (a_i - 1.0)
            - lam ** 2 * a_s * (a_s + 1.0) / (2.0 * (a_i - 1.0) * (a_i - 2.0))) / math.log(2.0)
    got = _mean_capacity_grid(a_s, a_i, lam)
    assert np.all(np.abs(got - want) <= REL_TOL * want)


def test_softplus_matches_math_without_warning():
    # the in-place softplus against the scalar oracle, within 2 ulp, over
    # x = -750 ... 750: past x = 709, where exp overflows, and around the
    # clamp at 36, where it switches to x
    near_clamp = 36.0 + np.array([-1e-9, -1e-14, 0.0, 1e-14, 1e-9])
    x = np.concatenate([np.linspace(-750.0, 750.0, 30_001), near_clamp,
                        np.nextafter(36.0, [-np.inf, np.inf]), [708.0, 709.8, 710.0]])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = _softplus_into(x, np.empty_like(x))
    want = np.array([_softplus(v) for v in x.tolist()])
    assert np.all(np.abs(got - want) <= 2.0 * np.spacing(want))


def _logaddexp_softplus(x, out):
    """The kernel's softplus as np.logaddexp(0, x), the form the clamped
    one replaced: the reference for it."""
    return np.logaddexp(0.0, x, out=out)


def _overflowing_softplus(x, out):
    """log1p(exp(x)) with exp's overflow ignored: inf past x ~ 709."""
    with np.errstate(over="ignore"):
        np.exp(x, out=out)
    return np.log1p(out, out=out)


def test_mean_capacity_matches_logaddexp_form(monkeypatch):
    # the clamped softplus against np.logaddexp on the same cuts and nodes,
    # within 2e-15 relative: on the oracle table's 400 laws, and on seeded
    # laws at lam 1e-300-1e-50 (half of them a_i < 1) and 1e5-1e300
    rng = np.random.default_rng(20100201)
    oracle_box = (
        np.concatenate([_log_uniform(rng, 0.5, 1e4, 200), _log_uniform(rng, 0.5, 1.0, 100),
                        _log_uniform(rng, 0.5, 1e4, 100)]),
        np.concatenate([_log_uniform(rng, 0.5, 2e5, 300), _log_uniform(rng, 0.5, 1.6, 100)]),
        _log_uniform(rng, 1e-4, 1e5, 400))
    rng = np.random.default_rng(1950)
    small_lam = (_log_uniform(rng, 0.5, 1e4, 200),
                 np.concatenate([_log_uniform(rng, 0.5, 2e5, 100),
                                 _log_uniform(rng, 0.5, 1.0, 100)]),
                 _log_uniform(rng, 1e-300, 1e-50, 200))
    large_lam = (_log_uniform(rng, 0.5, 1e4, 200), _log_uniform(rng, 0.5, 2e5, 200),
                 _log_uniform(rng, 1e5, 1e300, 200))

    def means(softplus, laws):
        with monkeypatch.context() as patch:
            patch.setattr(throughput, "_softplus", softplus)
            return _mean_capacity_grid(*laws)

    for laws in (oracle_box, small_lam, large_lam):
        want = means(_logaddexp_softplus, laws)
        assert np.all(np.abs(_mean_capacity_grid(*laws) - want) <= 2e-15 * want)
    # the naive form drops the integrand's tail above u ~ 709, which the
    # small-lam laws with a_i < 1 reach
    low_a_i = tuple(v[100:] for v in small_lam)
    want = means(_logaddexp_softplus, low_a_i)
    assert not np.all(np.abs(means(_overflowing_softplus, low_a_i) - want) <= 2e-15 * want)


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


# a sensing window (whole samples, plus half a sample when the flag is
# set), a gamma in dB and an outage budget
_DET_POINT = st.tuples(st.integers(1, 5000), st.booleans(), st.floats(-30.0, 30.0),
                       st.floats(0.01, 0.9))


@given(points=st.lists(_DET_POINT, min_size=1, max_size=4))
@settings(deadline=None, max_examples=40)
def test_det_rate_array_with_repeated_laws_equals_the_scalar_rate(defaults, points):
    # each drawn point comes twice (one law twice), and its window also
    # comes at -30 dB with budgets 0.5 and 0.6: power-limited there, so two
    # distinct points share the law (n, p_full), and the window is shared
    # with the drawn point's own power
    grid = []
    for samples, half, g_db, rho in points:
        tau = (samples + 0.5 * half) * 1e-6
        grid += [(tau, g_db, rho), (tau, g_db, rho), (tau, -30.0, 0.5), (tau, -30.0, 0.6)]
    tau, g_db, rho = (np.array(v) for v in zip(*grid))
    gamma = 10.0 ** (g_db / 10.0)
    pc = controlled_power(defaults, tau, gamma, rho)
    assert pc.power_limited[2::4].all() and pc.power_limited[3::4].all()
    rates = throughput_det_array(defaults, tau, pc)
    for k, (t, g, r) in enumerate(zip(tau.tolist(), gamma.tolist(), rho.tolist())):
        assert rates[k] == throughput_det(replace(defaults, gamma=g, rho_out=r), t)


# capacity-law parameters: estimate shapes from one sample up, and SINR
# scales over twelve decades
_LAW = st.tuples(st.floats(0.5, 1e5), st.floats(0.5, 1e5), st.floats(1e-6, 1e6))


@given(laws=st.lists(_LAW, min_size=1, max_size=5),
       picks=st.lists(st.integers(0, 4), min_size=1, max_size=16),
       lams=st.lists(st.floats(1e-6, 1e6), min_size=16, max_size=16))
@settings(deadline=None, max_examples=40)
def test_mean_capacity_batch_with_repeated_laws_equals_one_law_calls(laws, picks, lams):
    # picked laws repeat; each repeat of an (a_s, a_i) pair keeps its own
    # lam or takes a fresh one, so pairs are shared by unequal laws too
    chosen = [laws[k % len(laws)] for k in picks]
    a_s = np.array([law[0] for law in chosen])
    a_i = np.array([law[1] for law in chosen])
    lam = np.array([law[2] if k % 2 else lams[j] for j, (k, law)
                    in enumerate(zip(picks, chosen))])
    batch = _mean_capacity_grid(a_s, a_i, lam)
    for k in range(a_s.size):
        assert batch[k] == _mean_capacity_grid(a_s[k], a_i[k], lam[k])


def test_mean_capacity_passes_equal_one_law_calls(monkeypatch):
    # passes of 3 laws split a (4, 5) batch unevenly, with a_s broadcast
    # from one value; every mean is bit-identical to the law taken alone
    rng = np.random.default_rng(14)
    a_s = 3.0
    a_i = 10.0 ** rng.uniform(-0.3, 5.0, (4, 5))
    lam = 10.0 ** rng.uniform(-6.0, 6.0, (4, 5))
    monkeypatch.setattr(throughput, "_LAW_CHUNK", 3)
    batch = _mean_capacity_grid(a_s, a_i, lam)
    assert batch.shape == (4, 5)
    for k in np.ndindex(batch.shape):
        assert batch[k] == _mean_capacity_grid(a_s, a_i[k], lam[k])


@given(points=st.lists(_DET_POINT, min_size=1, max_size=4))
@settings(deadline=None, max_examples=20)
def test_det_rate_array_evaluates_each_distinct_law_once(defaults, points):
    # the grid of the test above: the rates equal those of every point's
    # own law, bit for bit, and the kernel sees each distinct (n, p) once
    grid = []
    for samples, half, g_db, rho in points:
        tau = (samples + 0.5 * half) * 1e-6
        grid += [(tau, g_db, rho), (tau, g_db, rho), (tau, -30.0, 0.5), (tau, -30.0, 0.6)]
    tau, g_db, rho = (np.array(v) for v in zip(*grid))
    pc = controlled_power(defaults, tau, 10.0 ** (g_db / 10.0), rho)
    every_point = prefactor(defaults, tau) * mean_capacity(throughput._capacity_law(
        defaults, pc.n, defaults.g_st_sr, defaults.g_pt_sr, pc.p_cont))
    seen = []
    kernel = throughput._mean_capacity_grid

    def counted(a_s, a_i, lam):
        seen.append(np.size(lam))
        return kernel(a_s, a_i, lam)

    throughput._mean_capacity_grid = counted
    try:
        rates = throughput_det_array(defaults, tau, pc)
    finally:
        throughput._mean_capacity_grid = kernel
    assert np.array_equal(rates, every_point)
    assert seen == [len(set(zip(pc.n.tolist(), pc.p_cont.tolist())))]


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
    curve = optimize_tradeoff(defaults)
    values = np.array([v for _, v in curve.points])
    i = int(np.argmax(values))
    assert 0 < i < values.size - 1
    diffs = np.diff(values)
    assert np.all(diffs[:i] > 0.0)
    assert np.all(diffs[i:] < 0.0)
    # refinement can only improve on the grid
    assert curve.r_s_opt >= values[i]
    assert curve.points[i - 1][0] <= curve.tau_opt <= curve.points[i + 1][0]


@pytest.mark.parametrize("overrides", [
    {}, {"rho_out": 0.01}, {"gamma": db_to_linear(-20.0)}, {"p_full": 0.1},
    {"gamma": db_to_linear(10.0), "g_pt_sr": 1e-9}])
def test_det_tradeoff_grid_equals_the_scalar_rate_bit_for_bit(defaults, overrides):
    # the grid is one array call; each point must be throughput_det there
    params = replace(defaults, **overrides)
    curve = optimize_tradeoff(params)
    assert [v for _, v in curve.points] == [throughput_det(params, t)
                                            for t, _ in curve.points]


def test_fading_tradeoff_rejects_links_with_another_pr_st_law(defaults):
    # the grid's powers come from the scenario's gamma, the golden-section
    # points' from links.pr_st: one curve must read one PR-ST law
    links = default_fading(defaults, 1.0)
    other = FadingLinks(replace(links.pr_st, mean_gain=links.pr_st.mean_gain * 2.0),
                        links.pt_sr, links.st_sr)
    with pytest.raises(ValueError, match="^links.pr_st.mean_gain must equal"):
        optimize_tradeoff(defaults, other)


def test_tradeoff_tighter_budget_senses_longer(defaults):
    loose = optimize_tradeoff(defaults)
    tight = optimize_tradeoff(replace(defaults, rho_out=0.01))
    assert tight.tau_opt > loose.tau_opt
    assert tight.r_s_opt < loose.r_s_opt


def test_tradeoff_reference_optimum(defaults):
    curve = optimize_tradeoff(defaults)
    assert curve.tau_opt == pytest.approx(1.6675e-3, rel=5e-3)
    assert curve.r_s_opt == pytest.approx(2.45537, rel=1e-4)


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
    the mean capacity of the conditional capacity law.
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


def _outer_grid(params, links, tau, p):
    """Weights and capacity laws of the 32 x 32 outer grid with every cell
    kept, one cell per pair of ST-SR and PT-SR gain nodes."""
    x_s, w_s = _gain_nodes(links.st_sr)
    x_i, w_i = _gain_nodes(links.pt_sr)
    law = throughput._capacity_law(params, samples_for(tau, params.f_s),
                                   x_s[:, None], x_i[None, :], p)
    return np.outer(w_s, w_i), law


def _fading_mean_256(params, links, tau, p):
    """The outer grid, each cell's mean capacity by the 256-node survival
    rule."""
    weight, law = _outer_grid(params, links, tau, p)
    return float(np.sum(weight * _survival_mean_256(
        law.gain_approx.shape, law.interf_approx.shape, law.ratio_scale)))


# (m, tau, p): the shortest window the figures use (10 us, a heavy
# interference-estimate tail), m from 0.5 to the quantile-space branch
_FADING_GRID = [(0.5, 1e-5, 1e-3), (0.5, 1e-3, 0.1), (1.0, 1e-5, 1.0),
                (1.0, 3e-3, 0.05), (5.0, 1e-4, 0.01), (5.0, 3e-2, 1.0),
                (200.0, 1e-5, 0.1), (200.0, 1e-3, 1e-3)]


@pytest.mark.parametrize("m, tau, p", _FADING_GRID)
def test_fading_mean_capacity_matches_256_node_grid(defaults, m, tau, p):
    links = default_fading(defaults, m)
    got = _mean_capacity_fading(defaults, links, tau, p)
    want = _fading_mean_256(defaults, links, tau, p)
    assert got == pytest.approx(want, rel=REL_TOL)


def test_fading_mean_capacity_oracle_table(defaults):
    # 200 seeded scenarios: windows of 1 to 3e4 samples, m 0.5-1e3 (both
    # outer rules), both mean gains 1e-12-1e-5 and p 1e-9-1 mW, against
    # the outer grid with every cell kept and each cell's mean_capacity
    rng = np.random.default_rng(20100202)
    cases = zip(np.rint(_log_uniform(rng, 1.0, 3e4, 200)).tolist(),
                _log_uniform(rng, 0.5, 1e3, 200).tolist(),
                _log_uniform(rng, 1e-12, 1e-5, 200).tolist(),
                _log_uniform(rng, 1e-12, 1e-5, 200).tolist(),
                _log_uniform(rng, 1e-9, 1.0, 200).tolist())
    ms = []
    for n, m, g_st, g_pt, p in cases:
        params = replace(defaults, g_st_sr=g_st, g_pt_sr=g_pt)
        links = default_fading(params, m)
        tau = n / params.f_s
        weight, law = _outer_grid(params, links, tau, p)
        want = float(np.sum(weight * mean_capacity(law)))
        got = _mean_capacity_fading(params, links, tau, p)
        assert abs(got - want) <= max(1e-12, 1e-10 * want), (n, m, g_st, g_pt, p)
        ms.append(m)
    assert min(ms) < _LAGUERRE_M_CAP < max(ms)


def test_throughput_fading_reference_value(defaults):
    links = default_fading(defaults, 1.0)
    assert throughput_fading(defaults, links, 1e-3) == pytest.approx(
        1.485174540847571, rel=1e-6)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: the 32-node outer gain rule of the fading rate is off "
    "by ~+1e-2 at m = 0.5; it reads 4.39875 against 4.35611 +- 0.00365 "
    "simulated (z = +11.7). Converging the outer rule flips this test."))
def test_throughput_fading_matches_simulation_at_m_one_half():
    params = ScenarioParams(gamma=db_to_linear(-15.0))
    links = default_fading(params, 0.5)
    pc = controlled_power_fading(params, links.pr_st, 1e-3)
    got = throughput.throughput_fading_at(params, links, 1e-3, pc.p_cont)
    mc = run_trials_fading(params, links, 1e-3, 400_000, 1, pc.p_cont)
    assert abs(got - mc.mean_throughput) <= 4.0 * mc.throughput_se


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
    assert outage(params, tau_f, params.p_full, links.pr_st) == pytest.approx(
        params.rho_out, abs=1e-3)
    assert r_npc < throughput_ideal_fading(params, links)


def test_no_pc_fading_unattainable_at_high_snr(defaults):
    links = default_fading(defaults, 1.0)
    tau_f, r_npc = throughput_no_pc_fading(defaults, links)
    assert math.isnan(tau_f)
    assert r_npc == 0.0


def test_no_pc_fading_evaluates_each_window_once(defaults, monkeypatch):
    # the benchmark's no-control point: the bracket ends are evaluated once,
    # then find_root reads them from the memo
    params = replace(defaults, gamma=db_to_linear(-15.0))
    links = default_fading(params, 1.0)
    outage_nodes = power_control._outage_nodes
    windows = []

    def counted(params, m, mean_gain, splits, n, p):
        windows.append(n)
        return outage_nodes(params, m, mean_gain, splits, n, p)

    monkeypatch.setattr(power_control, "_outage_nodes", counted)
    assert throughput_no_pc_fading(params, links) == (0.0011455020340760378,
                                                      5.024957076346219)
    assert len(windows) == len(set(windows)) == 12

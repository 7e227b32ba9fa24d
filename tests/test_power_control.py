"""Power-control layer: the power rule, regimes, and operating bounds.

The deterministic rule has a closed form, so the oracle here is a direct
re-derivation through scipy.special with no shared code. The fading outage
is cross-checked against a density-space average via adaptive
scipy.integrate.quad (the library uses a fixed panel rule, a genuinely
different route).
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.special
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from underlaysim import power_control, specfun
from underlaysim.dists import NakagamiGain
from underlaysim.power_control import (FadingLinks, PowerArrays,
                                       PowerControlResult, Regime, ScenarioParams,
                                       controlled_power, controlled_power_det,
                                       controlled_power_fading,
                                       db_to_linear, default_fading,
                                       forced_window, ideal_power,
                                       linear_to_db, outage, perf_bound,
                                       perf_bound_asymptote, pr_st_law,
                                       samples_for)
from underlaysim.specfun import ABS_TOL, REL_TOL, BracketError
from underlaysim.throughput import throughput_no_pc_fading


def _power_rule_reference(params: ScenarioParams, tau: float):
    """Closed-form rule straight from the estimator's gamma surrogate."""
    n = round(tau * params.f_s)
    total = n * (1.0 + params.gamma)
    spread = 2.0 * n + 4.0 * n * params.gamma
    a = total * total / spread
    b = (params.sigma2 / n) * spread / total
    thr_full = params.theta_i * params.p_tx_pr / params.p_full + params.sigma2
    if scipy.special.gammaincc(a, thr_full / b) <= params.rho_out:
        return params.p_full, "power-limited"
    x = scipy.special.gammainccinv(a, params.rho_out)
    p = params.theta_i * params.p_tx_pr / (b * x - params.sigma2)
    return p, "interference-limited"


# ------------------------------------------------------------- conversions

def test_db_round_trip():
    assert linear_to_db(db_to_linear(-13.7)) == pytest.approx(-13.7, abs=1e-12)
    assert db_to_linear(0.0) == 1.0
    with pytest.raises(ValueError):
        linear_to_db(0.0)
    with pytest.raises(ValueError):
        linear_to_db(-4.0)


# -------------------------------------------------------------- parameters

def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioParams(sigma2=-1.0)
    with pytest.raises(ValueError):
        ScenarioParams(rho_out=0.0)
    with pytest.raises(ValueError):
        ScenarioParams(rho_out=1.0)
    with pytest.raises(ValueError):
        ScenarioParams(tau_p=0.2)
    with pytest.raises(ValueError):
        ScenarioParams(g_pt_sr=-1e-12)
    # a silent interfering link is a legitimate scenario
    assert ScenarioParams(g_pt_sr=0.0).g_pt_sr == 0.0


def test_samples_for_rounding():
    assert samples_for(1.4e-6, 1e6) == 1
    assert samples_for(2.6e-6, 1e6) == 3
    assert samples_for(1e-3, 1e6) == 1000
    with pytest.raises(ValueError):
        samples_for(4e-7, 1e6)
    with pytest.raises(ValueError):
        samples_for(0.0, 1e6)


def test_pilot_samples(defaults):
    assert defaults.pilot_samples == 10


def test_default_fading_means(defaults):
    links = default_fading(defaults, 2.0)
    assert links.pr_st.mean_gain == pytest.approx(
        defaults.gamma * defaults.sigma2 / defaults.p_tx_pr)
    assert links.pt_sr.mean_gain == defaults.g_pt_sr
    assert links.st_sr.mean_gain == defaults.g_st_sr
    assert links.pr_st.m == 2.0
    with pytest.raises(ValueError):
        default_fading(replace(defaults, g_pt_sr=0.0), 1.0)


# --------------------------------------------------- deterministic channel

@pytest.mark.parametrize("tau", [1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
def test_power_rule_matches_reference(defaults, tau, gamma):
    params = replace(defaults, gamma=gamma)
    res = controlled_power_det(params, tau)
    want_p, want_regime = _power_rule_reference(params, tau)
    assert res.p_cont == pytest.approx(want_p, rel=1e-12)
    assert res.regime.value == want_regime


def test_power_rule_reference_scenario(defaults):
    res = controlled_power_det(defaults, 1e-3)
    assert res.regime is Regime.INTERFERENCE_LIMITED
    assert linear_to_db(res.p_cont) == pytest.approx(-10.413487606757208, abs=1e-9)


def test_interference_limited_self_consistency(defaults):
    for tau in [1e-4, 1e-3, 1e-2]:
        res = controlled_power_det(defaults, tau)
        assert res.regime is Regime.INTERFERENCE_LIMITED
        assert outage(defaults, tau, res.p_cont) == pytest.approx(
            defaults.rho_out, abs=1e-8)


def test_power_limited_branch(defaults):
    # far below the operating bound the ceiling takes over
    params = replace(defaults, gamma=1e-3)
    res = controlled_power_det(params, 1e-3)
    assert res.regime is Regime.POWER_LIMITED
    assert res.p_cont == params.p_full
    assert outage(params, 1e-3, params.p_full) < params.rho_out


def test_regime_flips_at_the_bound(defaults):
    star = perf_bound(defaults, 1e-3)
    above = controlled_power_det(replace(defaults, gamma=star * 1.05), 1e-3)
    below = controlled_power_det(replace(defaults, gamma=star * 0.95), 1e-3)
    assert above.regime is Regime.INTERFERENCE_LIMITED
    assert below.regime is Regime.POWER_LIMITED


def test_power_monotone_in_outage_budget(defaults):
    powers = [controlled_power_det(replace(defaults, rho_out=r), 1e-3).p_cont
              for r in [0.01, 0.05, 0.1, 0.2]]
    assert all(p1 < p2 for p1, p2 in zip(powers, powers[1:]))


def test_power_scales_with_threshold(defaults):
    base = controlled_power_det(defaults, 1e-3)
    doubled = controlled_power_det(replace(defaults, theta_i=2.0 * defaults.theta_i), 1e-3)
    assert base.regime is Regime.INTERFERENCE_LIMITED
    assert doubled.regime is Regime.INTERFERENCE_LIMITED
    assert doubled.p_cont == pytest.approx(2.0 * base.p_cont, rel=1e-12)


def test_outage_monotone_in_power(defaults):
    # powers chosen so the outage stays strictly inside (0, 1); far outside
    # this range it saturates to exactly 0 or 1 in double precision
    outs = [outage(defaults, 1e-3, p) for p in [0.06, 0.08, 0.10, 0.12]]
    assert all(0.0 < o < 1.0 for o in outs)
    assert all(o1 < o2 for o1, o2 in zip(outs, outs[1:]))


def test_outage_rejects_bad_power(defaults):
    with pytest.raises(ValueError):
        outage(defaults, 1e-3, 0.0)
    with pytest.raises(ValueError):
        outage(defaults, 1e-3, math.inf)


def test_controlled_power_respects_frame(defaults):
    with pytest.raises(ValueError):
        controlled_power_det(defaults, 0.15)
    with pytest.raises(ValueError):
        controlled_power_det(defaults, defaults.frame_len - defaults.tau_p)


def test_power_can_fall_with_tau_at_loose_budgets(defaults):
    # above rho_out ~ 1/2 the outage quantile sits below the estimator's
    # median, so a sharper estimate (longer window) lowers the power
    params = replace(defaults, rho_out=0.5)
    powers = [controlled_power_det(params, t).p_cont for t in (1e-6, 2e-6, 1e-5, 1e-4)]
    assert all(p1 > p2 for p1, p2 in zip(powers, powers[1:]))
    assert powers[0] > 4.0 * powers[1]


# ---------------------------------------- deterministic rule over arrays

# sensing windows in microseconds (1 MHz sampling): whole and half samples
# up to the frame's usable length, and arbitrary values in between
_TAU_US = st.one_of(st.integers(1, 89_899).map(lambda k: k + 0.5),
                    st.floats(1.0, 89_900.0))
_GAMMA_DB = st.floats(-30.0, 30.0)


@given(points=st.lists(st.tuples(_TAU_US, _GAMMA_DB, st.floats(1e-4, 0.9999)),
                       min_size=1, max_size=20))
@settings(deadline=None, max_examples=100)
def test_array_rule_equals_the_scalar_rule_bit_for_bit(defaults, points):
    tau_us, gamma_db, rho = (np.array(v) for v in zip(*points))
    tau, gamma = tau_us * 1e-6, 10.0 ** (gamma_db / 10.0)
    pc = controlled_power(defaults, tau, gamma, rho)
    for k, (t, g, r) in enumerate(zip(tau.tolist(), gamma.tolist(), rho.tolist())):
        params = replace(defaults, gamma=g, rho_out=r)
        one = controlled_power_det(params, t)
        assert pc.p_cont[k] == one.p_cont
        assert pc.power_limited[k] == (one.regime is Regime.POWER_LIMITED)
        assert pc.n[k] == samples_for(t, defaults.f_s)
        # and both against the independent re-derivation
        want_p, want_regime = _power_rule_reference(params, t)
        assert one.p_cont == pytest.approx(want_p, rel=1e-10)
        assert one.regime.value == want_regime


def test_array_rule_runs_the_regime_test_at_the_rank_of_tau_and_gamma(defaults,
                                                                    monkeypatch):
    # (k, 1) tau and gamma against (1, n_rho) budgets: both regimes, a
    # half-sample window, and the same bits as the flattened grid
    tau = np.array([0.0015e-3, 1e-3, 3e-3, 30e-3, 1e-3])[:, None]
    gamma = db_to_linear(np.array([0.0, -30.0, -12.0, -12.0, 10.0]))[:, None]
    rho = np.array([0.01, 0.05, 0.1, 0.3, 0.5, 0.9])[None, :]
    flat = [np.broadcast_to(v, (5, 6)).ravel() for v in (tau, gamma, rho)]
    want = controlled_power(defaults, *flat)
    q = specfun.reg_upper_gamma
    sizes = []

    def counted(a, x):
        sizes.append(np.broadcast(a, x).size)
        return q(a, x)

    monkeypatch.setattr(specfun, "reg_upper_gamma", counted)
    got = controlled_power(defaults, tau, gamma, rho)
    assert sizes == [5]
    assert 0 < want.power_limited.sum() < want.power_limited.size
    # n reads tau alone and keeps its shape; the other fields are full
    assert got.n.shape == (5, 1)
    for field in PowerArrays._fields:
        full = np.broadcast_to(getattr(got, field), (5, 6))
        assert np.array_equal(full.ravel(), getattr(want, field))


@given(tau_us=_TAU_US, gamma_db=_GAMMA_DB,
       rho_permille=st.lists(st.integers(1, 999), min_size=2, max_size=30, unique=True))
@settings(deadline=None, max_examples=100)
def test_array_rule_nondecreasing_in_outage_budget(defaults, tau_us, gamma_db,
                                                   rho_permille):
    rho = np.sort(rho_permille) / 1000.0
    p = controlled_power(defaults, tau_us * 1e-6, db_to_linear(gamma_db), rho).p_cont
    assert np.all(np.diff(p) >= 0.0)


@given(samples=st.lists(st.integers(1, 89_899), min_size=2, max_size=30, unique=True),
       gamma_db=_GAMMA_DB, rho_permille=st.integers(1, 200))
@settings(deadline=None, max_examples=100)
def test_array_rule_nondecreasing_in_tau_for_tight_budgets(defaults, samples,
                                                           gamma_db, rho_permille):
    # only for rho_out <= 0.2: looser budgets can lose power as tau grows
    # (test_power_can_fall_with_tau_at_loose_budgets)
    tau = np.sort(samples) * 1e-6
    p = controlled_power(defaults, tau, db_to_linear(gamma_db),
                         rho_permille / 1000.0).p_cont
    assert np.all(np.diff(p) >= 0.0)


@given(tau=st.floats(1e-3, 5e-2), gamma_db=_GAMMA_DB, rho=st.floats(0.01, 0.5))
@settings(deadline=None, max_examples=50)
def test_array_rule_regime_agrees_with_the_bound(defaults, tau, gamma_db, rho):
    params = replace(defaults, rho_out=rho)
    gamma = db_to_linear(gamma_db)
    limited = bool(controlled_power(params, tau, gamma, rho).power_limited)
    try:
        star = perf_bound(params, tau)
    except BracketError:
        # too short a window for the bound: the constraint binds at every gamma
        assert not limited
        return
    assume(abs(gamma / star - 1.0) > 1e-6)
    assert limited == (gamma <= star)


def test_array_rule_keeps_the_scalar_errors(defaults):
    cases = [
        (0.15, 1.0, 0.1, "tau must leave room for the pilot inside the frame"),
        (1e-7, 1.0, 0.1, "sensing window shorter than one sample"),
        (1e-3, 0.0, 0.1, "gamma must be finite and positive"),
        (1e-3, math.inf, 0.1, "gamma must be finite and positive"),
        (1e-3, 1e200, 0.1, "shape must be finite and positive"),
        (1e-3, 1.0, 1.0, "rho_out must lie strictly in (0, 1)"),
    ]
    for tau, gamma, rho, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            controlled_power(defaults, [1e-3, tau], gamma, rho)


# ----------------------------------------------- operating bound, det case

def test_perf_bound_solves_the_outage_equation(defaults):
    for tau in [1e-3, 1e-2]:
        star = perf_bound(defaults, tau)
        out = outage(replace(defaults, gamma=star), tau, defaults.p_full)
        assert out == pytest.approx(defaults.rho_out, abs=1e-8)


def test_perf_bound_anchors(defaults):
    assert linear_to_db(perf_bound(defaults, 1e-3)) == pytest.approx(-14.0, abs=0.25)
    assert linear_to_db(perf_bound(defaults, 1e-2)) == pytest.approx(-11.0, abs=0.25)


def test_perf_bound_monotone_and_capped_by_the_limit(defaults):
    limit = perf_bound_asymptote(defaults)
    taus = [1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 3e-1]
    stars = perf_bound(defaults, np.array(taus))
    assert all(s1 < s2 for s1, s2 in zip(stars, stars[1:]))
    assert all(s < limit for s in stars)


@pytest.mark.parametrize("m", [math.inf, 0.5, 1.0])
def test_perf_bound_over_an_array_of_windows_equals_its_points(defaults, m):
    # fig5's tau axis, whose shortest windows have no bound: the array call
    # matches each 0-d call bit for bit, and reads nan where it raises
    taus = np.geomspace(1e-4, 1e-2, 41)
    stars = perf_bound(defaults, taus, m)
    assert stars.shape == taus.shape
    want = []
    for tau in taus.tolist():
        try:
            want.append(perf_bound(defaults, tau, m))
        except BracketError:
            want.append(math.nan)
    assert all(isinstance(w, float) for w in want)
    assert stars.tobytes() == np.array(want).tobytes()
    assert 0 < np.isnan(stars).sum() < taus.size
    # any shape of tau
    assert perf_bound(defaults, taus[-4:].reshape(2, 2), m).tobytes() == stars[-4:].tobytes()


def test_perf_bound_asymptote_value(defaults):
    assert perf_bound_asymptote(defaults) == pytest.approx(0.1, rel=1e-15)
    assert linear_to_db(perf_bound_asymptote(defaults)) == pytest.approx(-10.0, abs=1e-12)


def test_perf_bound_needs_enough_samples(defaults):
    with pytest.raises(BracketError):
        perf_bound(defaults, 1e-4)


def test_perf_bound_ignores_the_frame(defaults):
    # the bound is estimator physics; windows longer than a frame are fine
    long_win = perf_bound(defaults, 0.2)
    assert linear_to_db(long_win) == pytest.approx(-10.0, abs=0.25)


# ------------------------------------------------------------ fading cases

def _outage_fading_reference(params: ScenarioParams, m: float, n: float,
                             p: float) -> float:
    """Density-space average of the known-gain outage over the fading law,
    for a window of n samples.

    Adaptive QUADPACK quadrature in ln x, where the m < 1 density's
    integrable spike at zero flattens out, with breakpoints at a few gain
    quantiles and around the step where the estimate's mean crosses the
    threshold; the mass beyond the 1e-16 quantiles is dropped.
    """
    mean_gain = params.gamma * params.sigma2 / params.p_tx_pr
    gain_law = scipy.stats.gamma(a=m, scale=mean_gain / m)
    thr = params.theta_i * params.p_tx_pr / p + params.sigma2
    x_step = (thr - params.sigma2) / params.p_tx_pr
    width = params.sigma2 * math.sqrt((2.0 + 4.0 * x_step * params.p_tx_pr
                                       / params.sigma2) / n) / params.p_tx_pr

    def integrand(t):
        x = math.exp(t)
        snr = x * params.p_tx_pr / params.sigma2
        total = 1.0 + snr
        spread = 2.0 + 4.0 * snr
        a = n * total * total / spread
        b = params.sigma2 * spread / (n * total)
        return scipy.special.gammaincc(a, thr / b) * gain_law.pdf(x) * x

    lo, hi = gain_law.ppf(1e-16), gain_law.isf(1e-16)
    points = [gain_law.ppf(q) for q in (1e-6, 0.1, 0.5, 0.9)]
    points += [x_step + k * width for k in (-8, -2, 0, 2, 8)]
    points = sorted(math.log(x) for x in points if lo < x < hi)
    val, _ = scipy.integrate.quad(integrand, math.log(lo), math.log(hi),
                                  points=points, limit=2000, epsabs=1e-15,
                                  epsrel=1e-12)
    return val


_ORACLE_GRID = [(m, n, gamma_db, p)
                for m in (0.5, 1.0, 5.0, 50.0)
                for n in (10, 1000, 90_000)
                for gamma_db in (-15.0, 0.0)
                for p in (1e-6, 1e-4, 1e-2, 0.1, 1.0)]


@pytest.mark.parametrize("m", [1.0, 5.0])
@pytest.mark.parametrize("p", [0.05, 0.5])
def test_outage_fading_matches_density_average(defaults, m, p):
    pr_st = default_fading(defaults, m).pr_st
    got = outage(defaults, 1e-3, p, pr_st)
    want = _outage_fading_reference(defaults, m, 1000, p)
    assert got == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("m, n, gamma_db, p", _ORACLE_GRID)
def test_outage_fading_matches_oracle_grid(defaults, m, n, gamma_db, p):
    # the step sits anywhere from far below the gain law's bulk to far
    # beyond its 1 - 1e-12 quantile; (1, 1000, 0 dB, 1e-2) puts an outage of
    # 4.6e-5 in the top 1e-4 of the quantiles
    params = replace(defaults, gamma=db_to_linear(gamma_db))
    pr_st = default_fading(params, m).pr_st
    got = outage(params, n / params.f_s, p, pr_st)
    want = _outage_fading_reference(params, m, n, p)
    assert abs(got - want) <= max(ABS_TOL, REL_TOL * want)


def test_step_cuts_match_the_129_uniform_cuts(defaults, monkeypatch):
    # the 31 step cuts against the 129 uniform ones k = -64 ... 64 they
    # replaced, on the same splits and nodes; below an outage of 1e-20 the
    # coarser far panels may lose relative digits, on values far below ABS_TOL
    cases = [(replace(defaults, gamma=db_to_linear(float(gamma_db))), m, n, float(p))
             for m in (0.5, 1.0, 2.0, 5.0, 20.0, 50.0, 200.0)
             for n in (10, 100, 1000, 5000, 20_000, 90_000)
             for gamma_db in np.linspace(-20.0, 10.0, 5)
             for p in np.geomspace(1e-6, 1.0, 13)]

    def outages():
        # the outage and its slope in ln p, the power rule's step density
        # summed on the same nodes
        out = []
        for params, m, n, p in cases:
            pr_st = default_fading(params, m).pr_st
            mass, approx, t = power_control._outage_nodes(
                params, m, pr_st.mean_gain, power_control._gain_splits(pr_st), n, p)
            a = approx.shape
            density = np.exp(scipy.special.xlogy(a - 1.0, t) - t - scipy.special.gammaln(a))
            density /= approx.scale
            out.append((power_control._outage_sum(mass, approx, t),
                        np.sum(mass * density) * params.theta_i * params.p_tx_pr / p))
        return np.array(out)

    assert power_control._STEP_OFFSETS.size == 31
    got = outages()
    monkeypatch.setattr(power_control, "_STEP_OFFSETS", np.arange(-64.0, 65.0))
    want = outages()
    assert (np.abs(got - want) <= 1e-12 * want + 1e-30).all()


def test_controlled_power_fading_evaluates_each_power_once(defaults, monkeypatch):
    # the regime check at p_full comes first; the search then starts at the
    # perfect-knowledge power and never returns to a power it has seen
    outage_nodes = power_control._outage_nodes
    powers = []

    def logged(params, m, mean_gain, splits, n, p):
        powers.extend(p.tolist())
        return outage_nodes(params, m, mean_gain, splits, n, p)

    monkeypatch.setattr(power_control, "_outage_nodes", logged)
    for params, m, tau in [(defaults, 0.5, 1e-3), (defaults, 1.0, 1e-3),
                           (defaults, 5.0, 1e-4), (replace(defaults, rho_out=1e-5), 1.0, 1e-3),
                           (replace(defaults, p_full=0.1), 2.0, 1e-2),
                           (replace(defaults, gamma=db_to_linear(-20.0)), 1.0, 1e-3)]:
        powers.clear()
        pr_st = default_fading(params, m).pr_st
        res = controlled_power_fading(params, pr_st, tau)
        assert len(set(powers)) == len(powers) >= 1
        assert powers[0] == pytest.approx(params.p_full, rel=1e-15)
        assert max(powers) == powers[0]
        if res.regime is Regime.INTERFERENCE_LIMITED:
            ideal = params.theta_i / scipy.stats.gamma.isf(
                params.rho_out, m, scale=pr_st.mean_gain / m)
            assert powers[1] == pytest.approx(min(ideal, params.p_full), rel=1e-12)
            assert min(powers) * (1.0 - 1e-7) < res.p_cont < max(powers)
        else:
            assert powers == [params.p_full]


def test_controlled_power_fading_stops_at_a_nan_outage(defaults, monkeypatch):
    # a NaN outage is no verdict on the constraint: the search raises at
    # once, naming the power, whether the NaN comes at p_full or below it
    pr_st = default_fading(defaults, 1.0).pr_st
    outage_nodes = power_control._outage_nodes
    for nan_at_full in (False, True):
        powers = []

        def outage(params, m, mean_gain, splits, n, p):
            powers.extend(p.tolist())
            mass, approx, t = outage_nodes(params, m, mean_gain, splits, n, p)
            if nan_at_full or len(powers) > 1:
                mass = mass * math.nan
            return mass, approx, t

        monkeypatch.setattr(power_control, "_outage_nodes", outage)
        with pytest.raises(ValueError) as info:
            controlled_power_fading(defaults, pr_st, 1e-3)
        assert str(info.value) == (f"the outage at p={powers[-1]!r} is NaN; the power "
                                   "rule cannot be solved")
        if nan_at_full:
            assert powers == [1.0]
        else:
            # the second power is the perfect-knowledge one, 0.0434 mW
            assert len(powers) == 2 and powers[0] == 1.0
            assert powers[1] == pytest.approx(defaults.theta_i / scipy.stats.expon.isf(
                defaults.rho_out, scale=pr_st.mean_gain), rel=1e-12)


def test_controlled_power_fading_reports_an_exhausted_budget(defaults, monkeypatch):
    # an outage that never meets the budget, flat in the power: with every
    # node's threshold at 0 each conditional outage is 1 and its slope 0, so
    # the search steps down by factors of 16 until its iteration budget runs out
    outage_nodes = power_control._outage_nodes
    powers = []

    def outage(params, m, mean_gain, splits, n, p):
        powers.extend(p.tolist())
        mass, approx, t = outage_nodes(params, m, mean_gain, splits, n, p)
        return mass, approx, np.zeros_like(t)

    monkeypatch.setattr(power_control, "_outage_nodes", outage)
    with pytest.raises(specfun.ConvergenceError, match="did not converge"):
        controlled_power_fading(defaults, default_fading(defaults, 1.0).pr_st, 1e-3)
    assert len(powers) == specfun.MAX_ITER + 2
    assert all(p2 == pytest.approx(p1 / 16.0, rel=1e-12)
               for p1, p2 in zip(powers[1:], powers[2:]))


def _tight_fading_root(params, pr_st, tau):
    """ln p at which the package's own fading outage meets rho_out, by
    scipy's brentq at 1e-15 tolerances."""
    n = float(samples_for(tau, params.f_s))
    splits = power_control._gain_splits(pr_st)

    def residual(log_p):
        return (power_control._outage_at(params, pr_st, n, math.exp(log_p), splits)
                - params.rho_out)

    lo = math.log(params.p_full)
    while residual(lo) > 0.0:
        lo -= math.log(16.0)
    return scipy.optimize.brentq(residual, lo, math.log(params.p_full),
                                 xtol=1e-15, rtol=1e-15, maxiter=500)


@given(gamma_db=st.floats(-20.0, 10.0), m=st.floats(0.5, 50.0),
       tau=st.floats(1e-5, 5e-2), rho=st.floats(1e-3, 0.3))
@settings(deadline=None, max_examples=60)
def test_controlled_power_fading_meets_a_tight_brentq_root(defaults, gamma_db, m, tau, rho):
    params = replace(defaults, gamma=db_to_linear(gamma_db), rho_out=rho)
    pr_st = default_fading(params, m).pr_st
    res = controlled_power_fading(params, pr_st, tau)
    if res.regime is Regime.POWER_LIMITED:
        assert res.p_cont == params.p_full
        assert outage(params, tau, params.p_full, pr_st) <= rho
        return
    want = _tight_fading_root(params, pr_st, tau)
    assert abs(math.log(res.p_cont) - want) <= max(ABS_TOL, REL_TOL * abs(want))


@given(gamma_db=st.floats(-20.0, 10.0), m=st.floats(0.5, 50.0),
       tau=st.floats(1e-5, 5e-2), rho=st.floats(1e-3, 0.3),
       m_factor=st.floats(1.05, 10.0), rho_factor=st.floats(1.01, 3.0))
@settings(deadline=None, max_examples=60)
def test_controlled_power_fading_monotone_in_budget_and_m(defaults, gamma_db, m, tau, rho,
                                                          m_factor, rho_factor):
    # a looser budget never costs power; milder fading never does either,
    # for budgets rho_out <= 0.15 (from about 0.19 on, the gain law's upper
    # rho_out-quantile itself is not monotone in m); each comparison allows
    # the two roots' accuracy targets
    params = replace(defaults, gamma=db_to_linear(gamma_db), rho_out=rho)

    def log_power(params, m):
        return math.log(controlled_power_fading(
            params, default_fading(params, m).pr_st, tau).p_cont)

    base = log_power(params, m)
    slack = 2.0 * max(ABS_TOL, REL_TOL * abs(base))
    assert base <= log_power(replace(params, rho_out=rho * rho_factor), m) + slack
    if rho <= 0.15:
        assert base <= log_power(params, min(m * m_factor, 50.0)) + slack


def test_validate_fading_rules_take_few_outage_evaluations(defaults, monkeypatch):
    # validate's four rules at 1 ms; the bracket search of /16 steps and
    # Brent's method took 53 evaluations
    outage_nodes = power_control._outage_nodes
    calls = []

    def counted(*args):
        calls.extend(args[-1].tolist())
        return outage_nodes(*args)

    monkeypatch.setattr(power_control, "_outage_nodes", counted)
    for m in (0.5, 1.0, 2.0, 5.0):
        res = controlled_power_fading(defaults, default_fading(defaults, m).pr_st, 1e-3)
        assert res.regime is Regime.INTERFERENCE_LIMITED
    assert len(calls) <= 20


@pytest.mark.parametrize("gamma_db, m, tau", [(0.0, 5.0, 1e-4), (10.0, 0.5, 1e-5)])
def test_controlled_power_fading_ends_on_a_newton_step_below_the_tolerance(
        defaults, monkeypatch, gamma_db, m, tau):
    # at rho_out = 0.3 the last Newton step here rounds back onto the
    # bracket end it starts from; taken as it stands it ends the search,
    # where a bracket test would restart it from a bisection (31-33 calls)
    outage_nodes = power_control._outage_nodes
    calls = []

    def counted(*args):
        calls.extend(args[-1].tolist())
        return outage_nodes(*args)

    monkeypatch.setattr(power_control, "_outage_nodes", counted)
    params = replace(defaults, gamma=db_to_linear(gamma_db), rho_out=0.3)
    res = controlled_power_fading(params, default_fading(params, m).pr_st, tau)
    assert res.regime is Regime.INTERFERENCE_LIMITED
    assert len(calls) <= 6


@pytest.mark.parametrize("gamma_db", [-2900.0, -2970.0])
def test_controlled_power_fading_at_a_tiny_mean_gain(defaults, gamma_db):
    # at m = 0.5 and a mean gain of 1e-300 or 1e-307 every gain is far too
    # weak to move the estimate: the rule is the noise-only one, power-limited
    # at 1000 samples and interference-limited at 10
    params = replace(defaults, gamma=db_to_linear(gamma_db))
    pr_st = default_fading(params, 0.5).pr_st
    assert controlled_power_fading(params, pr_st, 1e-3).regime is Regime.POWER_LIMITED
    res = controlled_power_fading(params, pr_st, 1e-5)
    assert res.regime is Regime.INTERFERENCE_LIMITED
    noise_only = controlled_power_det(replace(params, gamma=1e-300), 1e-5).p_cont
    assert res.p_cont == pytest.approx(noise_only, rel=1e-7)
    # a PR-ST gain that underflows to 0 gives the perfect-knowledge power p_full
    assert ideal_power(replace(params, gamma=5e-324)) == params.p_full


@pytest.mark.parametrize("gamma_db", [-2900.0, -2970.0])
@pytest.mark.parametrize("n", [10, 1000])
def test_fading_outage_keeps_the_gain_mass_below_the_smallest_normal_split(
        defaults, gamma_db, n):
    # at m = 0.5 and a mean gain of 1e-300 or 1e-307 the 1e-12 gain quantile
    # underflows; every gain is then far too weak to move the estimate, so
    # the outage is the noise-only one, with no warning on the way
    params = replace(defaults, gamma=db_to_linear(gamma_db))
    got = outage(params, n / params.f_s, params.p_full, default_fading(params, 0.5).pr_st)
    want = outage(replace(params, gamma=1e-300), n / params.f_s, params.p_full)
    assert got == pytest.approx(want, rel=REL_TOL)


def test_controlled_power_fading_small_budget_matches_oracle_root(defaults):
    params = replace(defaults, rho_out=1e-5)
    pr_st = default_fading(params, 1.0).pr_st
    got = controlled_power_fading(params, pr_st, 1e-3).p_cont
    log_root = scipy.optimize.brentq(
        lambda log_p: _outage_fading_reference(params, 1.0, 1000, math.exp(log_p))
        - params.rho_out, math.log(1e-8), 0.0, xtol=1e-12, rtol=1e-14)
    # the root is 8.669e-3 mW
    assert got == pytest.approx(math.exp(log_root), rel=1e-6)


def test_perf_bound_fading_small_budget_solves_oracle_equation(defaults):
    params = replace(defaults, rho_out=1e-4)
    star = perf_bound(params, 1e-2, 1.0)
    out = _outage_fading_reference(replace(params, gamma=star), 1.0, 10_000,
                                   params.p_full)
    assert out == pytest.approx(params.rho_out, abs=ABS_TOL)


def test_no_pc_fading_small_budget_window_hits_target_on_oracle(defaults):
    params = replace(defaults, rho_out=1e-4, gamma=db_to_linear(-20.0))
    tau_f, r_npc = throughput_no_pc_fading(params, default_fading(params, 1.0))
    assert math.isfinite(tau_f) and r_npc > 0.0
    out = _outage_fading_reference(params, 1.0, tau_f * params.f_s, params.p_full)
    assert out == pytest.approx(params.rho_out, abs=ABS_TOL)


def _excess_at_full(params, pr_st, n):
    link = params.gamma if pr_st is None else pr_st
    return power_control._outage_at(params, link, n, params.p_full) - params.rho_out


@pytest.mark.parametrize("m", [math.inf, 1.0])
def test_forced_window_is_two_samples_when_those_meet_the_budget(defaults, m):
    # at a -80 dBm threshold and a -20 dB receive SNR even two samples keep
    # the outage at p_full within the budget: the window is their time
    params = replace(defaults, theta_i=db_to_linear(-80.0), gamma=db_to_linear(-20.0))
    pr_st = None if math.isinf(m) else pr_st_law(params, m)
    assert _excess_at_full(params, pr_st, 2.0) <= 0.0
    assert forced_window(params, pr_st) == 2e-6


@pytest.mark.parametrize("m", [math.inf, 1.0])
def test_forced_window_is_nan_when_no_window_meets_the_budget(defaults, m):
    # at 0 dB the outage at p_full exceeds the budget for every window
    pr_st = None if math.isinf(m) else pr_st_law(defaults, m)
    frame_samples = 0.999 * (defaults.frame_len - defaults.tau_p) * defaults.f_s
    assert _excess_at_full(defaults, pr_st, frame_samples) > 0.0
    assert math.isnan(forced_window(defaults, pr_st))


def test_forced_window_solves_the_full_power_equation(defaults):
    params = replace(defaults, gamma=db_to_linear(-12.0))
    n = forced_window(params) * params.f_s
    assert 2.0 < n < params.frame_len * params.f_s
    assert _excess_at_full(params, None, n) == pytest.approx(0.0, abs=1e-6)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: forced_window solves for a continuous window that the "
    "rate then rounds to whole samples; at 13 of these 20 windows the "
    "rounded one breaks the budget, by up to +1.02e-4 (-20 dB, m = 5). "
    "Returning the smallest whole window that meets it flips this test."))
def test_forced_window_rounded_to_whole_samples_meets_the_budget(defaults):
    windows = 0
    excess = []
    for gamma_db in (-12.0, -14.0, -15.0, -16.0, -18.0, -20.0):
        params = replace(defaults, gamma=db_to_linear(gamma_db))
        for m in (math.inf, 0.5, 1.0, 5.0):
            pr_st = None if math.isinf(m) else pr_st_law(params, m)
            tau = forced_window(params, pr_st)
            if math.isnan(tau):
                continue
            windows += 1
            n = round(tau * params.f_s)
            out = outage(params, n / params.f_s, params.p_full, pr_st)
            if out > params.rho_out:
                excess.append((gamma_db, m, n, out - params.rho_out))
    assert windows == 20
    assert not excess, excess


def test_forced_window_computes_the_gain_splits_once(defaults, monkeypatch):
    # the benchmark's no-control point: its 12 outage evaluations share one
    # law, so one set of quantile splits, and the root keeps every bit
    params = replace(defaults, gamma=db_to_linear(-15.0))
    pr_st = pr_st_law(params, 1.0)
    splits = power_control._gain_splits
    calls = []

    def counted(law):
        calls.append(law)
        return splits(law)

    monkeypatch.setattr(power_control, "_gain_splits", counted)
    assert forced_window(params, pr_st) == 0.0011455020340760378
    assert calls == [pr_st]


def test_controlled_power_fading_self_consistency(defaults):
    pr_st = default_fading(defaults, 1.0).pr_st
    res = controlled_power_fading(defaults, pr_st, 1e-3)
    assert res.regime is Regime.INTERFERENCE_LIMITED
    assert outage(defaults, 1e-3, res.p_cont, pr_st) == pytest.approx(
        defaults.rho_out, abs=1e-7)


def test_controlled_power_fading_monotone_in_m(defaults):
    powers = []
    for m in [1.0, 2.0, 5.0]:
        pr_st = default_fading(defaults, m).pr_st
        powers.append(controlled_power_fading(defaults, pr_st, 1e-3).p_cont)
    # heavier fading forces a larger back-off
    assert all(p1 < p2 for p1, p2 in zip(powers, powers[1:]))


def test_controlled_power_fading_approaches_det(defaults):
    pr_st = default_fading(defaults, 1e4).pr_st
    res = controlled_power_fading(defaults, pr_st, 1e-3)
    det = controlled_power_det(defaults, 1e-3)
    assert res.p_cont == pytest.approx(det.p_cont, rel=0.01)


def test_controlled_power_fading_power_limited(defaults):
    params = replace(defaults, gamma=db_to_linear(-20.0))
    pr_st = default_fading(params, 1.0).pr_st
    res = controlled_power_fading(params, pr_st, 1e-3)
    assert res.regime is Regime.POWER_LIMITED
    assert res.p_cont == params.p_full


# ------------------------------------- the fading rule over arrays of points

def _seeded_points(seed: int, size: int):
    """(tau, gamma, rho_out) arrays: tau 10 us-50 ms and rho_out 1e-4-0.5
    log-uniform, gamma -20-10 dB uniform in dB."""
    rng = np.random.default_rng(seed)
    tau = np.exp(rng.uniform(math.log(1e-5), math.log(5e-2), size))
    gamma = 10.0 ** (rng.uniform(-20.0, 10.0, size) / 10.0)
    return tau, gamma, np.exp(rng.uniform(math.log(1e-4), math.log(0.5), size))


def test_array_fading_rule_meets_the_tight_root_on_a_seeded_table(defaults):
    # 5 x 40 = 200 points, one controlled_power call per m: each power-limited
    # point has an outage at p_full within its budget, and each other one a
    # power within the package's accuracy target of an independent brentq root
    regimes = []
    for k, m in enumerate((0.5, 1.0, 3.7, 20.0, 200.0)):
        tau, gamma, rho = _seeded_points(k, 40)
        pc = controlled_power(defaults, tau, gamma, rho, m)
        regimes += pc.power_limited.tolist()
        for t, g, r, p, limited in zip(tau.tolist(), gamma.tolist(), rho.tolist(),
                                       pc.p_cont.tolist(), pc.power_limited.tolist()):
            params = replace(defaults, gamma=g, rho_out=r)
            pr_st = pr_st_law(params, m)
            assert limited == (outage(params, t, params.p_full, pr_st) <= r)
            if limited:
                assert p == params.p_full
            else:
                want = _tight_fading_root(params, pr_st, t)
                assert abs(math.log(p) - want) <= max(ABS_TOL, REL_TOL * abs(want))
    assert len(regimes) == 200 and 0 < sum(regimes) < 200


@pytest.mark.parametrize("m", [0.5, 1.0, 7.3, 200.0])
def test_array_fading_rule_is_bit_equal_to_its_0d_calls(defaults, m, monkeypatch):
    # a point's power does not depend on the batch it is solved in, and the
    # batch evaluates each point at the powers of its own 0-d call, each
    # once; at m <= 1 the first point's mean gain of ~1e-307 raises its
    # lowest split, which appends a node to every point of that batch
    outage_nodes = power_control._outage_nodes
    evaluated = []

    def logged(params, m, mean_gain, splits, n, p):
        evaluated.extend(zip(mean_gain.tolist(), n.tolist(), p.tolist()))
        return outage_nodes(params, m, mean_gain, splits, n, p)

    monkeypatch.setattr(power_control, "_outage_nodes", logged)
    tau, gamma, rho = _seeded_points(round(100 * m), 30)
    if m <= 1.0:
        gamma[0], tau[0] = db_to_linear(-2970.0), 1e-5
    pc = controlled_power(defaults, tau, gamma, rho, m)
    in_batch = {}
    for gain, n, p in evaluated:
        in_batch.setdefault((gain, n), []).append(p)
    for k, (t, g, r) in enumerate(zip(tau.tolist(), gamma.tolist(), rho.tolist())):
        evaluated.clear()
        one = controlled_power(defaults, t, g, r, m)
        powers = [p for *_, p in evaluated]
        assert in_batch[evaluated[0][:2]] == powers and len(set(powers)) == len(powers)
        assert one.p_cont.shape == one.power_limited.shape == one.n.shape == ()
        assert one.p_cont == pc.p_cont[k] and one.power_limited == pc.power_limited[k]
        params = replace(defaults, gamma=g, rho_out=r)
        res = controlled_power_fading(params, pr_st_law(params, m), t)
        assert res.p_cont == pc.p_cont[k]
        assert (res.regime is Regime.POWER_LIMITED) == pc.power_limited[k]
    # broadcast axes give the same bits as the flat points, and n keeps tau's shape
    grid = controlled_power(defaults, tau[:4, None], gamma[None, :5], rho[5], m)
    assert grid.p_cont.shape == (4, 5) and grid.n.shape == (4, 1)
    flat = controlled_power(defaults, np.repeat(tau[:4], 5), np.tile(gamma[:5], 4), rho[5], m)
    assert np.array_equal(grid.p_cont.ravel(), flat.p_cont)
    assert np.array_equal(grid.power_limited.ravel(), flat.power_limited)
    assert controlled_power(defaults, np.empty((0, 2)), 1.0, 0.1, m).p_cont.shape == (0, 2)


def test_array_fading_rule_raises_at_one_nan_point_in_a_batch(defaults, monkeypatch):
    # the third of five points gets a NaN outage below p_full: the batch
    # raises the scalar rule's error at once, naming that point's power,
    # though the other points are still searching
    tau, gamma, rho = np.full(5, 1e-3), db_to_linear(np.linspace(-5.0, 5.0, 5)), 0.1
    bad_gain = gamma[2] * defaults.sigma2 / defaults.p_tx_pr
    outage_nodes = power_control._outage_nodes
    bad_powers = []

    def outage(params, m, mean_gain, splits, n, p):
        mass, approx, t = outage_nodes(params, m, mean_gain, splits, n, p)
        bad = (mean_gain == bad_gain) & (p < params.p_full)
        bad_powers.extend(p[bad].tolist())
        return np.where(bad[:, None], math.nan, mass), approx, t

    monkeypatch.setattr(power_control, "_outage_nodes", outage)
    with pytest.raises(ValueError) as info:
        controlled_power(defaults, tau, gamma, rho, 1.0)
    assert len(bad_powers) == 1
    assert str(info.value) == (f"the outage at p={bad_powers[0]!r} is NaN; the power "
                               "rule cannot be solved")


def test_array_fading_rule_reports_an_exhausted_budget(defaults, monkeypatch):
    # one Newton round is too few for these points, none power-limited; a
    # batch of power-limited points needs no round at all
    monkeypatch.setattr(specfun, "MAX_ITER", 1)
    tau, gamma = np.array([1e-3, 3e-3, 1e-2]), db_to_linear(np.array([0.0, 5.0, 10.0]))
    with pytest.raises(specfun.ConvergenceError, match="^the power rule did not converge$"):
        controlled_power(defaults, tau, gamma, 0.1, 1.0)
    monkeypatch.setattr(specfun, "MAX_ITER", 0)
    assert controlled_power(defaults, tau, db_to_linear(-20.0), 0.1, 1.0).power_limited.all()


def test_array_fading_rule_keeps_the_scalar_errors(defaults):
    # each check runs once over the arrays, with the scalar path's message
    cases = [
        (0.15, 1.0, 0.1, 1.0, "tau must leave room for the pilot inside the frame"),
        (1e-7, 1.0, 0.1, 1.0, "sensing window shorter than one sample"),
        (1e-3, 0.0, 0.1, 1.0, "gamma must be finite and positive"),
        (1e-3, 1.0, 1.0, 1.0, "rho_out must lie strictly in (0, 1)"),
        (1e-3, 1.0, 0.1, 0.4, "Nakagami parameter m must be at least 0.5"),
        (1e-3, 1e-300, 0.1, 1.0, "gain scale mean_gain / m is below the smallest normal float"),
        (1e-3, 1e300, 0.1, 1.0, "shape must be finite and positive"),
    ]
    for tau, gamma, rho, m, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            controlled_power(defaults, [1e-3, tau], [1.0, gamma], rho, m)


def test_perf_bound_fading_monotone_in_m(defaults):
    stars = []
    for m in [0.5, 1.0, 2.0, 5.0]:
        stars.append(perf_bound(defaults, 1e-3, m))
    assert all(s1 < s2 for s1, s2 in zip(stars, stars[1:]))
    # deeper fades push the bound below the deterministic one
    assert stars[-1] < perf_bound(defaults, 1e-3)


def test_perf_bound_fading_solves_the_outage_equation(defaults):
    star = perf_bound(defaults, 1e-3, 1.0)
    law = NakagamiGain(1.0, star * defaults.sigma2 / defaults.p_tx_pr)
    out = outage(replace(defaults, gamma=star), 1e-3, defaults.p_full, law)
    assert out == pytest.approx(defaults.rho_out, abs=1e-6)


def test_perf_bound_fading_approaches_det(defaults):
    star_db = linear_to_db(perf_bound(defaults, 1e-3, 1e4))
    det_db = linear_to_db(perf_bound(defaults, 1e-3))
    assert star_db == pytest.approx(det_db, abs=0.1)

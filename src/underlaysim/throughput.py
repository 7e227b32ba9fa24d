"""Secondary throughput and the estimation-throughput tradeoff.

A frame of length frame_len spends tau seconds estimating the PR-ST link,
half of a pilot slot tau_p on the ST-SR pilot exchange, and transmits for
the remainder, so the rate carries the prefactor
(frame_len - tau - tau_p / 2) / frame_len. Longer estimation buys a higher
controlled power (the estimate-conditioned constraint loosens as the
estimator concentrates) but a shorter transmission: the product peaks at an
interior tau, which optimize_tradeoff locates.

The estimation system is compared with two baselines on the same scenario:

- the estimation system (throughput_det, throughput_fading): the prefactor
  times the mean of the estimated capacity under the controlled power.
- perfect knowledge (throughput_ideal_*): no estimation, no pilot, no
  prefactor, at power_control.ideal_power. An upper bound, flat in tau.
- no power control (throughput_no_pc_*): transmission at p_full over
  power_control.forced_window. If no window inside the frame meets the
  outage constraint, the baseline transmits nothing and reports zero
  throughput with an undefined tau.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import dists, specfun
from .dists import CapacityDist
from .power_control import (FadingLinks, PowerArrays, ScenarioParams,
                            controlled_power, controlled_power_fading,
                            default_fading, forced_window, ideal_power,
                            samples_for)

__all__ = [
    "TradeoffCurve",
    "prefactor",
    "capacity_law_det",
    "mean_capacity",
    "throughput_array",
    "throughput_det",
    "throughput_ideal_det",
    "throughput_no_pc_det",
    "throughput_fading_at",
    "throughput_fading",
    "throughput_ideal_fading",
    "throughput_no_pc_fading",
    "default_tau_grid",
    "optimize_tradeoff",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class TradeoffCurve:
    """Sampled estimation rate-versus-tau curve plus its located optimum."""

    points: tuple[tuple[float, float], ...]
    tau_opt: float
    r_s_opt: float


def prefactor(params: ScenarioParams, tau):
    """Fraction of the frame left for payload transmission, elementwise."""
    params.check_tau(tau)
    return (params.frame_len - tau - params.tau_p / 2.0) / params.frame_len


def _capacity_law(params: ScenarioParams, n, g_st, g_pt, p) -> CapacityDist:
    """Estimated-capacity law over n samples at ST-SR gain g_st, PT-SR gain
    g_pt and transmit power p, elementwise; n need not be whole."""
    gain = dists.pilot_gain_law(g_st, params.pilot_samples, params.sigma2)
    interf = dists.interference_power_law(g_pt, params.p_tx_pt, n, params.sigma2)
    return CapacityDist(gain_approx=dists.gamma_match(gain),
                        interf_approx=dists.gamma_match(interf), tx_power=p)


def capacity_law_det(params: ScenarioParams, tau: float, p: float) -> CapacityDist:
    """Estimated-capacity law for fixed link gains at transmit power p."""
    return _capacity_law(params, samples_for(tau, params.f_s), params.g_st_sr,
                         params.g_pt_sr, p)


def mean_capacity(dist: CapacityDist):
    """Mean estimated capacity by Hamdi's lemma (the rule below),
    elementwise; a float for a law of numbers."""
    out = _mean_capacity_grid(dist.gain_approx.shape, dist.interf_approx.shape,
                              dist.ratio_scale)
    return float(out) if np.ndim(out) == 0 else out


# Mean capacity by Hamdi's lemma (K. A. Hamdi, "A useful lemma for capacity
# analysis of fading interference channels", IEEE Trans. Commun. 58(2),
# 2010). The SINR estimate is lam X / Y with X ~ Gamma(a_s, 1) and
# Y ~ Gamma(a_i, 1) independent, and
#
#     E[C] ln 2 = int_0^inf (1 + z)^(-a_i) (1 - (1 + lam z)^(-a_s)) dz / z,
#
# an elementary integrand bounded by one. In u = ln z it is smooth with two
# knees: it rises like e^u below u = -ln(a_s lam), where the second factor
# saturates, and falls like e^(-a_i u) above u = -ln a_i, where the first
# one does. The panel ends sit at fixed offsets from both knees, and above
# the upper knee at offsets scaled by 1 / min(a_i, 1). At a low SINR the
# interference knee is the lower one, and between the knees the integrand
# is close to e^((1 - a_i) u); a third set of ends runs from the knee where
# it peaks (the lower for a_i > 1) at offsets scaled by 1 / |1 - a_i|
# (at most 40), clipped to the span between the knees. Each of the 31
# panels gets an 8-node Gauss-Legendre rule; where cuts coincide (the middle
# ends clip onto the knees) the panels of width 0 are dropped, ~5 of 31 per
# law on the benchmark's rate table and 16 for coincident knees. Both factors
# are evaluated in log space through _softplus, ln(1 + e^u) =
# max(u, log1p(exp(min(u, 36)))), so no law overflows. It replaced
# np.logaddexp(0, u), which numpy 2.4 runs without a vectorized loop; the two
# forms differ by at most 4.2e-16 relative, and ~90% of the means are
# bit-identical (tests/test_throughput.py). The node, weight and integrand
# buffers are node-major, (8, kept panels), with the law parameters repeated
# per panel, so each ufunc runs along one contiguous axis instead of eight
# elements at a time: on a 2-vCPU host (numpy 2.4.6) the 4 486 laws of the
# benchmark's rate table take 15-17 ms, against 22-24 ms law-major with every
# panel kept. The exponent of the first factor is floored at _EXP_FLOOR,
# which keeps numpy's exp off its slow path for subnormal and zero results
# and moves no bit of a mean above 1e-250. Against a scipy quad
# oracle on 400 laws (a_s 0.5-1e4, a_i 0.5-2e5, lam 1e-4-1e5) the largest
# error is 6.3e-12 relative, and against the small-lam series
# (lam <= 1e-50, a_i > 2) 1.5e-11 relative (tests/test_throughput.py).
# Below an SINR scale lam a_s / a_i of ~1e-20 with a_i near one, the
# relative error can reach ~1e-4, on a mean far below ABS_TOL.
_KNEE_OFFSETS = np.array([-36.0, -24.0, -16.0, -10.0, -6.0, -3.0, -1.5, 0.0, 1.5, 3.0])
_TAIL_OFFSETS = np.array([1.0, 2.5, 5.0, 10.0, 20.0, 40.0])
_PANEL_ORDER = 8
# panels per law: the cuts are both knees' _KNEE_OFFSETS, the upper tail's
# and the middle's _TAIL_OFFSETS
_PANELS = 2 * _KNEE_OFFSETS.size + 2 * _TAIL_OFFSETS.size - 1
# laws per pass of the kernel. A call allocates its node, weight and
# integrand buffers once, (3, 8 * 31 * laws) doubles and 1.5 MB at most, and
# every pass writes into them, so a call holds no per-pass temporaries of
# that size
_LAW_CHUNK = 256
# the floor on the exponent of (1 + z)^-a_i, and e to it: well inside the
# normal range, and the factor is e^f - e^floor, so it is exactly 0 at the floor
_EXP_FLOOR = -708.0
_EXP_AT_FLOOR = math.exp(_EXP_FLOOR)


def _mean_capacity_grid(a_s, a_i, lam):
    """Mean estimated capacity for broadcastable arrays of law parameters,
    in passes of at most _LAW_CHUNK laws. Each law is computed on its own,
    so the passes do not change a single bit."""
    a_s, a_i, lam = np.broadcast_arrays(a_s, a_i, lam)
    out = np.empty(a_s.shape)
    flat = out.reshape(-1)
    a_s, a_i, lam = (v.reshape(-1) for v in (a_s, a_i, lam))
    work = np.empty((3, _PANEL_ORDER * _PANELS * min(flat.size, _LAW_CHUNK)))
    for start in range(0, flat.size, _LAW_CHUNK):
        part = slice(start, start + _LAW_CHUNK)
        flat[part] = _mean_capacity_pass(a_s[part], a_i[part], lam[part], work)
    return out


def _mean_capacity_pass(a_s, a_i, lam, work):
    """Mean estimated capacity for equal-shaped 1-d arrays of law parameters.
    work is (3, at least _PANEL_ORDER * _PANELS * laws): the node, weight and
    integrand buffers, which the pass overwrites."""
    ln_lam, a_i_col = np.log(lam), a_i[:, None]
    knee_s, knee_i = (-np.log(a_s) - ln_lam)[:, None], -np.log(a_i_col)
    lo, hi = np.minimum(knee_s, knee_i), np.maximum(knee_s, knee_i)
    # np.minimum(np.maximum(...)) is np.clip without its Python-level wrapper
    step = _TAIL_OFFSETS / np.minimum(np.maximum(np.abs(1.0 - a_i_col), 1.0 / 40.0), 1.0)
    middle = np.where(a_i_col > 1.0, lo + step, hi - step)
    cuts = np.concatenate([knee_s + _KNEE_OFFSETS, knee_i + _KNEE_OFFSETS,
                           hi + _TAIL_OFFSETS / np.minimum(a_i_col, 1.0),
                           np.minimum(np.maximum(middle, lo), hi)], axis=-1)
    cuts.sort()
    # only panels of positive width; the last one always has it on a finite
    # law, and keeping it anyway gives a law of NaN or infinite knees its NaN
    keep = cuts[:, 1:] > cuts[:, :-1]
    keep[:, -1] = True
    counts = keep.sum(-1)
    left, right = cuts[:, :-1][keep], cuts[:, 1:][keep]
    # node-major buffers, (_PANEL_ORDER, kept panels) and contiguous, so every
    # ufunc below runs along one long axis against per-panel law parameters
    u, w, f = work[:, :_PANEL_ORDER * left.size].reshape(3, _PANEL_ORDER, left.size)
    specfun.panel_rule(left, right, _PANEL_ORDER, out=(u.T, w.T))
    neg_a_i, ln_lam, neg_a_s = (v.repeat(counts) for v in (-a_i, ln_lam, -a_s))
    # the integrand is built in place in f
    f = _softplus(u, f)
    f *= neg_a_i
    # (1 + z)^-a_i, exactly 0 where it underflows, so exp never returns a
    # subnormal or zero, which sends numpy's vector loop down its slow path
    np.maximum(f, _EXP_FLOOR, out=f)
    np.exp(f, out=f)
    f -= _EXP_AT_FLOOR
    w *= f
    u += ln_lam
    f = _softplus(u, f)
    f *= neg_a_s
    np.expm1(f, out=f)  # (1 + lam z)^-a_s - 1
    f *= w
    return -np.add.reduceat(f.sum(0), counts.cumsum() - counts) / _LN2


def _softplus(x, out):
    """ln(1 + e^x) into out, elementwise. Above x = 36 it equals x to double
    precision, so exp sees at most e^36 and never overflows. out must not be
    x: the first pass clamps out, and the last one reads x unclamped, so a
    ValueError is raised for out is x."""
    if out is x:
        raise ValueError("_softplus cannot write over its input")
    np.minimum(x, 36.0, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    return np.maximum(x, out, out=out)


def throughput_array(params: ScenarioParams, tau, power: PowerArrays,
                     m: float = math.inf) -> np.ndarray:
    """Secondary throughput over arrays of sensing times tau, at the outcome
    of controlled_power for them at m: deterministic channels for m inf,
    else Nakagami-m fading, point by point on default_fading(params, m)'s
    laws. The rate reads only the PT-SR and ST-SR laws, so these serve every
    gamma and rho_out. At m inf each distinct (n, p_cont) capacity law is
    evaluated once, found as a complex n + i p_cont: numpy sorts those ~7x
    faster than np.unique(axis=0) sorts stacked rows.
    """
    if not math.isinf(m):
        links = default_fading(params, m)
        taus, powers = np.broadcast_arrays(tau, power.p_cont)
        return np.array([throughput_fading_at(params, links, t, p) for t, p in zip(
            taus.ravel().tolist(), powers.ravel().tolist())]).reshape(taus.shape)
    n, p = np.broadcast_arrays(power.n, power.p_cont)
    pairs = np.empty(n.shape, dtype=complex)
    pairs.real, pairs.imag = n, p
    laws, inverse = np.unique(pairs, return_inverse=True)
    capacity = mean_capacity(_capacity_law(params, laws.real, params.g_st_sr,
                                           params.g_pt_sr, laws.imag))
    return prefactor(params, tau) * capacity[inverse.reshape(n.shape)]


def throughput_det(params: ScenarioParams, tau: float) -> float:
    """Secondary throughput at sensing time tau, deterministic channels."""
    power = controlled_power(params, tau, params.gamma, params.rho_out)
    return float(throughput_array(params, tau, power))


def throughput_ideal_det(params: ScenarioParams) -> float:
    """Perfect-knowledge upper bound, deterministic channels."""
    p = ideal_power(params)
    sinr = params.g_st_sr * p / (params.g_pt_sr * params.p_tx_pt + params.sigma2)
    return math.log2(1.0 + sinr)


def throughput_no_pc_det(params: ScenarioParams) -> tuple[float, float]:
    """Forced sensing time and throughput without power control.

    Transmission happens at p_full, so the outage constraint pins the
    window length (forced_window) instead of the power. Returns (nan, 0.0)
    when no window inside the frame meets the constraint at the scenario's
    gamma.
    """
    tau_f = forced_window(params)
    if math.isnan(tau_f):
        return math.nan, 0.0
    dist = capacity_law_det(params, tau_f, params.p_full)
    return tau_f, prefactor(params, tau_f) * mean_capacity(dist)


# Outer nodes over each fading gain, one factor each of _mean_capacity_fading's
# integrand: generalized Gauss-Laguerre matches the gamma density exactly for
# moderate m; very large m (nearly deterministic channels) switch to Legendre
# nodes in quantile space. 32 nodes are not converged at small m: E[C | gain]
# grows like log(gain), which no polynomial matches, so the rule converges
# only algebraically (~1e-3 relative at m = 1 against 96 nodes). The
# benchmark's fading references pin these nodes until they are re-derived.
# The Laguerre nodes are Golub-Welsch eigenvalues from numpy's eigvalsh plus
# scipy's own Newton polish: bit-identical to special.roots_genlaguerre on the
# pinned numpy/scipy, without its scipy.linalg import (~36 ms, ~6 MB).
_OUTER_NODES = 32
_LAGUERRE_M_CAP = 128.0
_QGL_NODES, _QGL_WEIGHTS = np.polynomial.legendre.leggauss(_OUTER_NODES)


@functools.lru_cache(maxsize=1024)
def _laguerre_rule(m: float) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled generalized Gauss-Laguerre nodes and weights for the gamma law
    of shape m, once per m and read-only: scipy's _gen_roots_and_weights."""
    n, a = _OUTER_NODES, m - 1.0
    k = np.arange(n, dtype=float)
    off = -np.sqrt(k[1:] * (k[1:] + a))
    t = np.linalg.eigvalsh(np.diag(2.0 * k + a + 1.0) + np.diag(off, 1) + np.diag(off, -1))
    dy = (n * special.eval_genlaguerre(n, a, t)
          - (n + a) * special.eval_genlaguerre(n - 1, a, t)) / t
    t -= special.eval_genlaguerre(n, a, t) / dy
    fm = special.eval_genlaguerre(n - 1, a, t)
    log_fm, log_dy = np.log(np.abs(fm)), np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    w *= special.gamma(a + 1.0) / w.sum()
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _gain_nodes(gain: dists.NakagamiGain) -> tuple[np.ndarray, np.ndarray]:
    if gain.m <= _LAGUERRE_M_CAP:
        t, w = _laguerre_rule(gain.m)
        x = t * (gain.mean_gain / gain.m)
    else:
        lo, hi = 1e-10, 1.0 - 1e-10
        u = 0.5 * (hi - lo) * (_QGL_NODES + 1.0) + lo
        x = dists.nakagami_gain_quantile(gain, u)
        w = _QGL_WEIGHTS * 0.5 * (hi - lo)
    return x, w / w.sum()


def _mean_capacity_fading(params: ScenarioParams, links: FadingLinks,
                          tau: float, p: float) -> float:
    """Mean estimated capacity at power p over samples_for(tau) samples,
    averaged over both fading gains. The ST-SR gain enters only the
    pilot-gain estimate X and the PT-SR gain only the interference estimate
    Y, so by Hamdi's lemma in MGF form E[ln(1 + pX/Y)] = int M_Y(s) (1 -
    M_pX(s)) ds / s, where M_Y and M_pX are 32-term gamma-MGF mixtures over
    each link's outer nodes: one integral in ln s, on panels at the terms'
    knees -ln(a b). On 200 seeded cases (n 1-3e4, m 0.5-1e3, gains
    1e-12-1e-5, p 1e-9-1 mW) it is within 1.5e-11 relative of the 32 x 32
    grid of fixed-gain means with every cell kept (tests/test_throughput.py)."""
    x_s, w_s = _gain_nodes(links.st_sr)
    x_i, w_i = _gain_nodes(links.pt_sr)
    gain = dists.gamma_match(dists.pilot_gain_law(x_s, params.pilot_samples, params.sigma2))
    interf = dists.gamma_match(dists.interference_power_law(
        x_i, params.p_tx_pt, samples_for(tau, params.f_s), params.sigma2))
    # one row per mixture term: its shape a and log scale ln b
    a_s, ln_b_s = gain.shape[:, None], np.log(p * gain.scale)[:, None]
    a_i, ln_b_i = interf.shape[:, None], np.log(interf.scale)[:, None]
    knees = -np.concatenate([np.log(a_s) + ln_b_s, np.log(a_i) + ln_b_i])
    lo, hi = knees.min(), knees.max()
    cuts = np.concatenate([lo + _KNEE_OFFSETS[:7], np.arange(lo, hi + 1.0), [hi + 1.5],
                           hi + 1.5 + _TAIL_OFFSETS / min(a_i.min(), 1.0)])
    v, w = (x.ravel() for x in specfun.panel_rule(cuts[:-1], cuts[1:], _PANEL_ORDER))
    f = _softplus(v + ln_b_i, np.empty((a_i.size, v.size)))
    m_y = w_i @ np.exp(-a_i * f)
    one_minus_m_x = -(w_s @ np.expm1(-a_s * _softplus(v + ln_b_s, f)))
    return float(w @ (m_y * one_minus_m_x)) / _LN2


def throughput_fading_at(params: ScenarioParams, links: FadingLinks, tau: float,
                         p: float) -> float:
    """Secondary throughput at sensing time tau under Nakagami fading, at
    the power p the power rule solved for (links.pr_st, tau)."""
    return prefactor(params, tau) * _mean_capacity_fading(params, links, tau, p)


def throughput_fading(params: ScenarioParams, links: FadingLinks, tau: float) -> float:
    """Secondary throughput at sensing time tau under Nakagami fading."""
    return throughput_fading_at(params, links, tau,
                                controlled_power_fading(params, links.pr_st, tau).p_cont)


def throughput_ideal_fading(params: ScenarioParams, links: FadingLinks) -> float:
    """Perfect-knowledge upper bound under fading.

    The power backs off against the upper rho_out-quantile of the PR-ST
    gain; the rate averages the true-SINR capacity over the other two
    links. Flat in tau.
    """
    p = ideal_power(params, links.pr_st)
    x_s, w_s = _gain_nodes(links.st_sr)
    x_i, w_i = _gain_nodes(links.pt_sr)
    rate = np.log1p(x_s[:, None] * p
                    / (x_i[None, :] * params.p_tx_pt + params.sigma2)) / _LN2
    return float(w_s @ rate @ w_i)


def throughput_no_pc_fading(params: ScenarioParams,
                            links: FadingLinks) -> tuple[float, float]:
    """Forced sensing time and throughput without power control, fading."""
    tau_f = forced_window(params, links.pr_st)
    if math.isnan(tau_f):
        return math.nan, 0.0
    return tau_f, (prefactor(params, tau_f)
                   * _mean_capacity_fading(params, links, tau_f, params.p_full))


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section refinement stops once its bracket is narrower than this
# (1e-6 s, one sample at the reference 1 MHz)
_TAU_TOL = 1e-6


def _golden_max(fn, lo, hi):
    """Golden-section maxima of curves on brackets [lo, hi], 1-d arrays of one
    entry per curve: each one's best point and value. fn(at, x) gives curves
    at's values at x, at broadcast against x, each point on its own. The
    curves run in lockstep, one fn call a round over those still searching,
    so each visits the scalar search's points until its bracket is narrower
    than _TAU_TOL."""
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    at = np.arange(a.size)
    fc, fd = fn(at, np.array([c, d]))
    best_x, best_f = np.where(fc >= fd, [c, fc], [d, fd])
    out_x, out_f = np.empty(a.size), np.empty(a.size)
    while True:
        done = ~(b - a > _TAU_TOL)
        if done.any():
            out_x[at[done]], out_f[at[done]] = best_x[done], best_f[done]
            at, a, b, c, d, fc, fd, best_x, best_f = (v[~done] for v in (
                at, a, b, c, d, fc, fd, best_x, best_f))
            if not at.size:
                return out_x, out_f
        # the left step keeps [a, d] and probes below c, the right one [c, b] above d
        left = fc >= fd
        a, b = np.where(left, [a, d], [c, b])
        x = np.where(left, b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a))
        fx = fn(at, x)
        c, fc, d, fd = np.where(left, [x, fx, c, fc], [d, fd, x, fx])
        x, f = np.where(fc >= fd, [c, fc], [d, fd])
        best_x, best_f = np.where(f > best_f, [x, f], [best_x, best_f])


def default_tau_grid(params: ScenarioParams) -> np.ndarray:
    """25 log-spaced sensing times spanning the usable part of the frame.

    The lower edge keeps at least ten estimation samples: below that the
    believed-rate average is dominated by the interference estimator's
    heavy tail and the curve is no longer single-peaked.
    """
    lo = max(10.0 / params.f_s, 1e-6)
    hi = 0.98 * (params.frame_len - params.tau_p)
    return np.geomspace(lo, hi, 25)


def optimize_tradeoff(params: ScenarioParams, gamma, m: float = math.inf):
    """Trace the estimation rate-versus-tau curve at receive SNR gamma, in
    place of the scenario's, and locate its optimum, at m as in
    throughput_array. A scalar gamma gives one TradeoffCurve, a 1-d gamma a
    tuple of one per value. default_tau_grid is scanned for every gamma in
    one controlled_power and one throughput_array call; each curve's best
    cell is then refined by golden section, all in lockstep (_golden_max).
    """
    gammas = np.array(gamma, dtype=float, ndmin=1)
    if gammas.ndim > 1:
        raise ValueError("gamma must be a scalar or 1-d")
    grid = default_tau_grid(params)

    def rate(at, tau):  # the rates at sensing times tau of the curves at
        power = controlled_power(params, tau, gammas[at], params.rho_out, m)
        return throughput_array(params, tau, power, m)

    values = rate(np.arange(gammas.size)[:, None], grid)
    i = np.argmax(values, axis=1)
    lo = grid[np.maximum(i - 1, 0)]
    hi = grid[np.minimum(i + 1, grid.size - 1)]
    tau_opt, r_opt = _golden_max(rate, lo, hi)
    peak = values.max(axis=1)
    tau_opt, r_opt = np.where(peak > r_opt, [grid[i], peak], [tau_opt, r_opt])
    curves = tuple(TradeoffCurve(tuple(zip(grid.tolist(), row)), t, r) for row, t, r in zip(
        values.tolist(), tau_opt.tolist(), r_opt.tolist()))
    return curves if np.ndim(gamma) else curves[0]

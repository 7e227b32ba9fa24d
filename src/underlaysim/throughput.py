"""Secondary throughput and the estimation-throughput tradeoff.

A frame of length frame_len spends tau seconds estimating the PR-ST link,
half of a pilot slot tau_p on the ST-SR pilot exchange, and transmits for
the remainder, so the rate carries the prefactor
(frame_len - tau - tau_p / 2) / frame_len. Longer estimation buys a higher
controlled power (the estimate-conditioned constraint loosens as the
estimator concentrates) but a shorter transmission: the product peaks at an
interior tau, which optimize_tradeoff locates.

Three models are compared on the same scenario:

- ESTIMATION: the working system; throughput is the prefactor times the
  mean of the estimated capacity under the controlled power.
- IDEAL: perfect channel knowledge at the ST; no estimation, no pilot, no
  prefactor, power min(theta_i / gain, p_full) against the true PR-ST gain
  (its outage-quantile under fading). An upper bound, flat in tau.
- NO_POWER_CONTROL: transmission at p_full with the sensing window forced
  to the length at which the regime bound equals the scenario's gamma. If
  no window length achieves that, the model transmits nothing and reports
  zero throughput with an undefined tau.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import dists, specfun
from .dists import CapacityDist
from .power_control import (DetPowerArrays, FadingLinks, ScenarioParams,
                            _check_tau, _outage_det_n, _outage_fading_n,
                            controlled_power_det_array,
                            controlled_power_fading, samples_for)

__all__ = [
    "Model",
    "TradeoffCurve",
    "prefactor",
    "capacity_law_det",
    "mean_capacity",
    "throughput_det_array",
    "throughput_det",
    "throughput_ideal_det",
    "throughput_no_pc_det",
    "throughput_fading",
    "throughput_ideal_fading",
    "throughput_no_pc_fading",
    "optimize_tradeoff",
]

_LN2 = math.log(2.0)


class Model(enum.Enum):
    ESTIMATION = "estimation"
    IDEAL = "ideal"
    NO_POWER_CONTROL = "no-power-control"


@dataclass(frozen=True)
class TradeoffCurve:
    """Sampled rate-versus-tau curve plus its located optimum."""

    points: tuple[tuple[float, float], ...]
    tau_opt: float
    r_s_opt: float
    model: Model


def prefactor(params: ScenarioParams, tau):
    """Fraction of the frame left for payload transmission, elementwise."""
    _check_tau(params, tau)
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
    """Mean estimated capacity, by the quantile-split survival rule below,
    elementwise; a float for a law of numbers."""
    out = _mean_capacity_grid(dist.gain_approx.shape, dist.interf_approx.shape,
                              dist.ratio_scale)
    return float(out) if np.ndim(out) == 0 else out


# Survival-route mean capacity: E[C] = int_0^inf P(C > x) dx. The range is
# split at the law's own capacity quantiles, so each panel holds a fixed
# share of the probability mass wherever the law sits and however wide it
# is, and each panel gets a 6-node Gauss-Legendre rule. Below the median
# the rule runs in x, where the survival is near one; above it in ln x,
# where the upper tail, which falls like a power of the SINR, turns into a
# smooth exponential. Below the lowest split the survival is taken as one;
# the tail above the highest (mass 1e-10) is dropped. The result stays
# within specfun.REL_TOL (1e-8) of a 256-node rule over the whole
# range (tests/test_throughput.py); at the figures' scenarios the two
# differ by ~1e-10.
_SPLIT_LEVELS = np.array([1e-10, 1e-5, 1e-2, 0.2, 0.5, 0.8, 0.99,
                          1.0 - 1e-5, 1.0 - 1e-10])
_MEDIAN = 4  # index of the 0.5 split
# upper splits come from the mirrored law Beta(a_i, a_s) at the upper-tail
# mass, so that the small 1 - r of a heavy tail keeps its digits
_UPPER = _SPLIT_LEVELS > 0.5
_SPLIT_TAILS = np.where(_UPPER, 1.0 - _SPLIT_LEVELS, _SPLIT_LEVELS)
_PANEL_ORDER = 6


def _distinct_pairs(x, y):
    """Distinct (x, y) pairs of two equal-shaped arrays, as two 1-d arrays,
    and for each element the index of its pair. Each pair is keyed as the
    complex number x + iy, so one 1-d sort finds them."""
    keys = np.empty(np.size(x), dtype=complex)
    keys.real, keys.imag = np.ravel(x), np.ravel(y)
    keys, inverse = np.unique(keys, return_inverse=True)
    return keys.real, keys.imag, inverse


def _capacity_nodes(a_s, a_i, lam):
    """Quadrature nodes of the capacity law for broadcastable arrays of law
    parameters: the lowest split x_0, and nodes x and weights w of shape
    (..., panels, _PANEL_ORDER) spanning the splits above it.

    The SINR estimate is lam R / (1 - R) with R ~ Beta(a_s, a_i). The split
    quantiles depend on (a_s, a_i) alone and are computed once per distinct
    pair.
    """
    a_s, a_i, lam = np.broadcast_arrays(a_s, a_i, lam)
    u_s, u_i, pair = _distinct_pairs(a_s, a_i)
    u_s, u_i = u_s[:, None], u_i[:, None]
    q = special.betaincinv(np.where(_UPPER, u_i, u_s), np.where(_UPPER, u_s, u_i),
                           _SPLIT_TAILS)
    odds = np.where(_UPPER, (1.0 - q) / q, q / (1.0 - q))[pair].reshape(lam.shape + (-1,))
    x_split = np.log1p(lam[..., None] * odds) / _LN2
    x_lin, w_lin = specfun.panel_rule(x_split[..., :_MEDIAN], x_split[..., 1:_MEDIAN + 1],
                                      _PANEL_ORDER)
    u_split = np.log(x_split[..., _MEDIAN:])
    u, w_log = specfun.panel_rule(u_split[..., :-1], u_split[..., 1:], _PANEL_ORDER)
    x = np.concatenate([x_lin, np.exp(u)], axis=-2)
    w = np.concatenate([w_lin, w_log * np.exp(u)], axis=-2)
    return x_split[..., 0], x, w


def _mean_capacity_grid(a_s, a_i, lam):
    """Mean estimated capacity for broadcastable arrays of law parameters.

    P(C > x) = P(1 - R < lam / (z + lam)) with z = 2^x - 1, R as in
    _capacity_nodes.
    """
    x_0, x, w = _capacity_nodes(a_s, a_i, lam)
    a_s, a_i, lam = (v[..., None, None] for v in np.broadcast_arrays(a_s, a_i, lam))
    surv = special.betainc(a_i, a_s, lam / (np.expm1(x * _LN2) + lam))
    return x_0 + np.sum(surv * w, axis=(-2, -1))


def throughput_det_array(params: ScenarioParams, tau,
                         power: DetPowerArrays) -> np.ndarray:
    """Secondary throughput over an array of sensing times tau, deterministic
    channels, at the outcome of controlled_power_det_array for those tau.

    The capacity law of capacity_law_det depends on (n, p_cont) alone, so
    one mean-capacity call evaluates each distinct law once.
    """
    n, p_cont, law = _distinct_pairs(power.n, power.p_cont)
    capacity = mean_capacity(_capacity_law(params, n, params.g_st_sr,
                                           params.g_pt_sr, p_cont))[law]
    return prefactor(params, tau) * capacity.reshape(np.shape(power.p_cont))


def throughput_det(params: ScenarioParams, tau: float) -> float:
    """Secondary throughput at sensing time tau, deterministic channels."""
    power = controlled_power_det_array(params, tau, params.gamma, params.rho_out)
    return float(throughput_det_array(params, tau, power))


def _ideal_power(params: ScenarioParams, links: FadingLinks | None) -> float:
    """Perfect-knowledge transmit power: min(theta_i / gain, p_full).

    gain is the known PR-ST gain for deterministic channels (links None)
    and the upper rho_out-quantile of its law under fading.
    """
    if links is None:
        gain = params.gamma * params.sigma2 / params.p_tx_pr
    else:
        gain = dists.nakagami_gain_quantile(links.pr_st, 1.0 - params.rho_out)
    return min(params.theta_i / gain, params.p_full)


def throughput_ideal_det(params: ScenarioParams) -> float:
    """Perfect-knowledge upper bound, deterministic channels."""
    p = _ideal_power(params, None)
    sinr = params.g_st_sr * p / (params.g_pt_sr * params.p_tx_pt + params.sigma2)
    return math.log2(1.0 + sinr)


def _no_pc_window(params: ScenarioParams, residual) -> float:
    """Forced window length (in samples, continuous) or nan if unattainable.

    residual(log n) must be the outage at p_full minus rho_out, decreasing
    in n. Returns the n at which it crosses zero; the smallest usable
    window when even that satisfies the constraint; nan when no window
    inside the frame does.
    """
    n_lo = 2.0
    n_hi = 0.999 * (params.frame_len - params.tau_p) * params.f_s
    if residual(math.log(n_hi)) > 0.0:
        return math.nan
    if residual(math.log(n_lo)) <= 0.0:
        return n_lo
    return math.exp(specfun.find_root(residual, math.log(n_lo), math.log(n_hi)))


def throughput_no_pc_det(params: ScenarioParams) -> tuple[float, float]:
    """Forced sensing time and throughput without power control.

    Transmission happens at p_full, so the outage constraint pins the
    window length instead of the power. Returns (nan, 0.0) when no window
    inside the frame meets the constraint at the scenario's gamma.
    """

    def residual(log_n: float) -> float:
        return _outage_det_n(params, math.exp(log_n), params.p_full) - params.rho_out

    n_forced = _no_pc_window(params, residual)
    if math.isnan(n_forced):
        return math.nan, 0.0
    tau_f = n_forced / params.f_s
    dist = capacity_law_det(params, tau_f, params.p_full)
    return tau_f, prefactor(params, tau_f) * mean_capacity(dist)


# Outer quadrature over fading gains: generalized Gauss-Laguerre matches the
# gamma density exactly for moderate m; very large m (nearly deterministic
# channels) switch to Legendre nodes in quantile space. 32 nodes are not
# converged at small m: E[C | gain] grows like log(gain), which no
# polynomial matches, so the rule converges only algebraically (~1e-3
# relative at m = 1 against 96 nodes). The benchmark's fading references
# pin these nodes, so they stay until those references are re-derived.
_OUTER_NODES = 32
_LAGUERRE_M_CAP = 128.0
_QGL_NODES, _QGL_WEIGHTS = np.polynomial.legendre.leggauss(_OUTER_NODES)


def _gain_nodes(gain: dists.NakagamiGain) -> tuple[np.ndarray, np.ndarray]:
    if gain.m <= _LAGUERRE_M_CAP:
        t, w = special.roots_genlaguerre(_OUTER_NODES, gain.m - 1.0)
        x = t * (gain.mean_gain / gain.m)
    else:
        lo, hi = 1e-10, 1.0 - 1e-10
        u = 0.5 * (hi - lo) * (_QGL_NODES + 1.0) + lo
        x = dists.nakagami_gain_quantile(gain, u)
        w = _QGL_WEIGHTS * 0.5 * (hi - lo)
    return x, w / w.sum()


def _kept_cells(weight, a_s, a_i, lam) -> np.ndarray:
    """Mask of the outer cells whose mean capacity must be evaluated.

    A cell adds weight * E[C]. When a_i > 1 the SINR ratio has a mean and
    Jensen's inequality bounds E[C] by log2(1 + lam a_s / (a_i - 1)), the
    capacity at that mean. The cells with the smallest weighted bounds are
    dropped while those bounds sum to at most 0.1 specfun.ABS_TOL; cells with
    a_i <= 1 have no such bound and are always kept.
    """
    excess = a_i - 1.0
    ratio = np.divide(lam * a_s, excess, out=np.full(np.shape(excess), np.inf),
                      where=excess > 0.0)
    bound = weight * np.log1p(ratio) / _LN2
    order = np.argsort(bound, axis=None)
    spent = np.cumsum(bound.ravel()[order])
    keep = np.ones(bound.size, dtype=bool)
    keep[order[spent <= 0.1 * specfun.ABS_TOL]] = False
    return keep.reshape(bound.shape)


def _outer_cells(params: ScenarioParams, links: FadingLinks, tau: float, p: float):
    """Weights and capacity-law parameters (a_s, a_i, lam) of the outer
    cells, one per pair of ST-SR and PT-SR gain nodes."""
    x_s, w_s = _gain_nodes(links.st_sr)
    x_i, w_i = _gain_nodes(links.pt_sr)
    law = _capacity_law(params, samples_for(tau, params.f_s), x_s[:, None],
                        x_i[None, :], p)
    return np.broadcast_arrays(np.outer(w_s, w_i), law.gain_approx.shape,
                               law.interf_approx.shape, law.ratio_scale)


def _mean_capacity_fading(params: ScenarioParams, links: FadingLinks,
                          tau: float, p: float) -> float:
    weight, a_s, a_i, lam = _outer_cells(params, links, tau, p)
    keep = _kept_cells(weight, a_s, a_i, lam)
    return float(weight[keep] @ _mean_capacity_grid(a_s[keep], a_i[keep], lam[keep]))


def throughput_fading(params: ScenarioParams, links: FadingLinks, tau: float) -> float:
    """Secondary throughput at sensing time tau under Nakagami fading."""
    pc = controlled_power_fading(params, links.pr_st, tau)
    return prefactor(params, tau) * _mean_capacity_fading(params, links, tau, pc.p_cont)


def throughput_ideal_fading(params: ScenarioParams, links: FadingLinks) -> float:
    """Perfect-knowledge upper bound under fading.

    The power backs off against the upper rho_out-quantile of the PR-ST
    gain; the rate averages the true-SINR capacity over the other two
    links. Flat in tau.
    """
    p = _ideal_power(params, links)
    x_s, w_s = _gain_nodes(links.st_sr)
    x_i, w_i = _gain_nodes(links.pt_sr)
    rate = np.log1p(x_s[:, None] * p
                    / (x_i[None, :] * params.p_tx_pt + params.sigma2)) / _LN2
    return float(w_s @ rate @ w_i)


def throughput_no_pc_fading(params: ScenarioParams,
                            links: FadingLinks) -> tuple[float, float]:
    """Forced sensing time and throughput without power control, fading."""

    def residual(log_n: float) -> float:
        return (_outage_fading_n(params, links.pr_st, math.exp(log_n), params.p_full)
                - params.rho_out)

    n_forced = _no_pc_window(params, residual)
    if math.isnan(n_forced):
        return math.nan, 0.0
    tau_f = n_forced / params.f_s
    return tau_f, (prefactor(params, tau_f)
                   * _mean_capacity_fading(params, links, tau_f, params.p_full))


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# golden-section refinement stops once its bracket is narrower than this
# (1e-6 s, one sample at the reference 1 MHz)
_TAU_TOL = 1e-6


def _golden_max(fn, lo: float, hi: float) -> tuple[float, float]:
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    while b - a > _TAU_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = fn(d)
        x, f = (c, fc) if fc >= fd else (d, fd)
        if f > best_f:
            best_x, best_f = x, f
    return best_x, best_f


def default_tau_grid(params: ScenarioParams) -> np.ndarray:
    """25 log-spaced sensing times spanning the usable part of the frame.

    The lower edge keeps at least ten estimation samples: below that the
    believed-rate average is dominated by the interference estimator's
    heavy tail and the curve is no longer single-peaked.
    """
    lo = max(10.0 / params.f_s, 1e-6)
    hi = 0.98 * (params.frame_len - params.tau_p)
    return np.geomspace(lo, hi, 25)


def optimize_tradeoff(params: ScenarioParams, model: Model,
                      links: FadingLinks | None = None) -> TradeoffCurve:
    """Trace the rate-versus-tau curve and locate its optimum.

    ESTIMATION scans default_tau_grid and refines the best cell by
    golden-section search until the bracket is narrower than _TAU_TOL.
    IDEAL is flat, so the curve just records the constant;
    NO_POWER_CONTROL has no free tau and collapses to its single forced
    point.
    """
    if model is Model.IDEAL:
        value = (throughput_ideal_det(params) if links is None
                 else throughput_ideal_fading(params, links))
        points = tuple((float(t), value) for t in default_tau_grid(params))
        return TradeoffCurve(points, math.nan, value, model)
    if model is Model.NO_POWER_CONTROL:
        tau_f, r_s = (throughput_no_pc_det(params) if links is None
                      else throughput_no_pc_fading(params, links))
        return TradeoffCurve(((tau_f, r_s),), tau_f, r_s, model)

    def rate(tau: float) -> float:
        if links is None:
            return throughput_det(params, tau)
        return throughput_fading(params, links, tau)

    grid = default_tau_grid(params)
    values = np.array([rate(t) for t in grid])
    i = int(np.argmax(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    tau_opt, r_opt = _golden_max(rate, lo, hi)
    if values[i] > r_opt:
        tau_opt, r_opt = float(grid[i]), float(values[i])
    points = tuple((float(t), float(v)) for t, v in zip(grid, values))
    return TradeoffCurve(points, float(tau_opt), float(r_opt), model)

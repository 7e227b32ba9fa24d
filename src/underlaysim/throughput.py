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


def mean_capacity(dist: CapacityDist, tol: Tolerance = DEFAULT_TOL) -> float:
    """Mean estimated capacity, integral of x times the capacity density."""
    a_i = dist.interf_approx.shape
    mean_z = dist.ratio_scale * dist.gain_approx.shape / max(a_i - 1.0, 0.5)
    hint = math.log1p(mean_z) / _LN2

    def integrand(x: np.ndarray) -> np.ndarray:
        return x * dists.capacity_pdf(dist, x)

    return specfun.integrate(integrand, 0.0, math.inf, tol, scale_hint=hint)


# Survival-route mean capacity on grids: E[C] = int_0^X P(C > x) dx with X
# cutting the law's upper 1e-10 tail. 256 Legendre nodes resolve the smooth
# survival curve to far below the analytic tolerances in play.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(256)
_TAIL_EPS = 1e-10


def _mean_capacity_grid(a_s, a_i, lam):
    """Mean estimated capacity for broadcastable arrays of law parameters."""
    a_s, a_i, lam = np.broadcast_arrays(a_s, a_i, lam)
    r_hi = special.betaincinv(a_s, a_i, 1.0 - _TAIL_EPS)
    z_hi = lam * r_hi / (1.0 - r_hi)
    x_hi = np.log1p(z_hi) / _LN2
    half = 0.5 * x_hi[..., None]
    x = half * (_GL_NODES + 1.0)
    z = np.expm1(x * _LN2)
    surv = special.betaincc(a_s[..., None], a_i[..., None],
                            z / (z + lam[..., None]))
    return (half[..., 0]) * (surv @ _GL_WEIGHTS)


def throughput_det(params: ScenarioParams, tau: float,
                   tol: Tolerance = DEFAULT_TOL) -> float:
    """Secondary throughput at sensing time tau, deterministic channels."""
    pc = controlled_power_det(params, tau)
    dist = capacity_law_det(params, tau, pc.p_cont)
    return prefactor(params, tau) * mean_capacity(dist, tol)


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
    return tau_f, prefactor(params, tau_f) * mean_capacity(dist, tol)


# Outer quadrature over fading gains: generalized Gauss-Laguerre matches the
# gamma density exactly for moderate m; very large m (nearly deterministic
# channels) switch to Legendre nodes in quantile space.
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


def _mean_capacity_fading(params: ScenarioParams, links: FadingLinks,
                          tau: float, p: float) -> float:
    n = samples_for(tau, params.f_s)
    k_p = params.pilot_samples
    x_s, w_s = _gain_nodes(links.st_sr)
    x_i, w_i = _gain_nodes(links.pt_sr)
    a_s, b_s = dists._gamma_params(2.0, k_p * x_s / params.sigma2,
                                   params.sigma2 / k_p)
    a_i, b_i = dists._gamma_params(float(n), n * x_i * params.p_tx_pt / params.sigma2,
                                   params.sigma2 / n)
    lam = (b_s[:, None] * p) / b_i[None, :]
    grid = _mean_capacity_grid(a_s[:, None], a_i[None, :], lam)
    return float(w_s @ grid @ w_i)


def throughput_fading(params: ScenarioParams, links: FadingLinks, tau: float,
                      tol: Tolerance = DEFAULT_TOL) -> float:
    """Secondary throughput at sensing time tau under Nakagami fading."""
    pc = controlled_power_fading(params, links.pr_st, tau, tol)
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
                   * _mean_capacity_fading(params, links, tau_f, params.p_full))


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
            return throughput_det(params, tau, tol)
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

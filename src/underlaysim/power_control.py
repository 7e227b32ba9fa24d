"""Outage-constrained transmit power control for the secondary link.

The secondary transmitter (ST) estimates the power received from the primary
receiver's (PR) transmissions over a sensing window of tau seconds, converts
that estimate into an implied ST-to-PR channel gain, and picks the largest
transmit power whose estimate-conditioned interference at the PR stays below
the threshold theta_i except with probability rho_out. Two regimes fall out:

- interference-limited: the outage constraint binds and the controlled power
  sits strictly below the hardware ceiling p_full;
- power-limited: even at p_full the constraint holds, so the ceiling binds.

The boundary between the regimes is the equation outage at p_full =
rho_out (_outage_at). Its root in the PR-to-ST receive SNR gamma is the
operating bound of perf_bound: above it the system is interference-limited,
below it power-limited. The bound only exists once the sensing window holds
enough samples for the estimator's upper tail to pin down the outage level;
for shorter windows the root search reports a missing bracket (nan over an
array of windows) rather than a clamped value. Its root in the window
length is forced_window, the sensing time of transmission without power control.

Under fading the outage is averaged over the Nakagami-m law of the PR-ST
power gain; gamma then plays the role of the mean receive SNR. outage,
perf_bound, forced_window and the one power rule, controlled_power, take either channel.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from . import dists, specfun
from .dists import NakagamiGain

__all__ = [
    "db_to_linear",
    "linear_to_db",
    "ScenarioParams",
    "Regime",
    "PowerControlResult",
    "PowerArrays",
    "FadingLinks",
    "pr_st_law",
    "default_fading",
    "ideal_power",
    "samples_for",
    "outage",
    "controlled_power",
    "controlled_power_det",
    "perf_bound",
    "perf_bound_asymptote",
    "controlled_power_fading",
    "forced_window",
]


def db_to_linear(value_db: float) -> float:
    """Convert a dB (or dBm) quantity to its linear value.

    Raises OverflowError when the linear value exceeds the float range.
    """
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        raise OverflowError(f"{value_db:g} dB exceeds the float range") from None


def linear_to_db(value: float) -> float:
    """Convert a positive linear quantity to dB."""
    if not (value > 0.0):
        raise ValueError("only positive values have a dB representation")
    return 10.0 * math.log10(value)


@dataclass(frozen=True)
class ScenarioParams:
    """Physical scenario, all quantities linear: powers in mW, times in s.

    Field defaults are the reference scenario used throughout: 1 MHz
    sampling, -100 dBm noise, 0 dBm primary powers, -110 dBm interference
    threshold, 10 percent outage budget, 0 dBm power ceiling, 100 ms frame,
    10 us pilot, 0 dB PR-ST receive SNR, -100 dB PT-SR gain and -80 dB
    ST-SR gain.

    gamma is the receive SNR of the PR's transmissions at the ST (mean SNR
    under fading); g_pt_sr and g_st_sr are channel power gains of the
    interfering and the useful secondary link.
    """

    f_s: float = 1e6
    sigma2: float = 1e-10
    p_tx_pr: float = 1.0
    p_tx_pt: float = 1.0
    theta_i: float = 1e-11
    rho_out: float = 0.10
    p_full: float = 1.0
    frame_len: float = 0.100
    tau_p: float = 1e-5
    gamma: float = 1.0
    g_pt_sr: float = 1e-10
    g_st_sr: float = 1e-8

    def __post_init__(self) -> None:
        positive = {
            "f_s": self.f_s, "sigma2": self.sigma2, "p_tx_pr": self.p_tx_pr,
            "p_tx_pt": self.p_tx_pt, "theta_i": self.theta_i,
            "p_full": self.p_full, "frame_len": self.frame_len,
            "tau_p": self.tau_p, "gamma": self.gamma, "g_st_sr": self.g_st_sr,
        }
        for name, value in positive.items():
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and positive")
        if not (0.0 < self.rho_out < 1.0):
            raise ValueError("rho_out must lie strictly in (0, 1)")
        if not (self.g_pt_sr >= 0.0 and math.isfinite(self.g_pt_sr)):
            raise ValueError("g_pt_sr must be finite and nonnegative")
        if self.tau_p >= self.frame_len:
            raise ValueError("pilot time must be shorter than the frame")

    @property
    def pilot_samples(self) -> int:
        return samples_for(self.tau_p, self.f_s)

    def check_tau(self, tau) -> None:
        """tau, a scalar or an array, must leave room for the pilot in the frame."""
        if not np.all((tau > 0.0) & (tau < self.frame_len - self.tau_p)):
            raise ValueError("tau must leave room for the pilot inside the frame")


class Regime(enum.Enum):
    INTERFERENCE_LIMITED = "interference-limited"
    POWER_LIMITED = "power-limited"


@dataclass(frozen=True)
class PowerControlResult:
    """Controlled power and the binding regime."""

    p_cont: float
    regime: Regime


class PowerArrays(NamedTuple):
    """Elementwise outcome of the power rule. n, the windows' whole sample
    counts (as floats), has the shape of tau, which it alone reads."""

    p_cont: np.ndarray
    power_limited: np.ndarray
    n: np.ndarray


class FadingLinks(NamedTuple):
    """Nakagami gain laws of the three links that matter."""

    pr_st: NakagamiGain
    pt_sr: NakagamiGain
    st_sr: NakagamiGain


def _pr_st_gain(params: ScenarioParams) -> float:
    """The PR-ST gain that the scenario's receive SNR gamma implies; under
    fading, the mean gain of its law. It needs no PT-SR gain."""
    return params.gamma * params.sigma2 / params.p_tx_pr


def pr_st_law(params: ScenarioParams, m: float) -> NakagamiGain:
    """The Nakagami-m PR-ST gain law whose mean gain the scenario's gamma
    implies. The power rules read only this law, so it needs no PT-SR gain."""
    return NakagamiGain(m, _pr_st_gain(params))


def default_fading(params: ScenarioParams, m: float) -> FadingLinks:
    """Fading laws whose mean gains reproduce the scenario's link budget."""
    if params.g_pt_sr <= 0.0:
        raise ValueError("fading links need a positive PT-SR gain")
    return FadingLinks(
        pr_st=pr_st_law(params, m),
        pt_sr=NakagamiGain(m, params.g_pt_sr),
        st_sr=NakagamiGain(m, params.g_st_sr),
    )


def ideal_power(params: ScenarioParams, pr_st: NakagamiGain | None = None) -> float:
    """Perfect-knowledge transmit power: min(theta_i / gain, p_full).

    gain is the known PR-ST gain for deterministic channels (pr_st None)
    and the upper rho_out-quantile of the PR-ST law pr_st under fading. A
    gain that underflows to 0 gives p_full.
    """
    gain = (_pr_st_gain(params) if pr_st is None
            else dists.nakagami_gain_quantile(pr_st, 1.0 - params.rho_out))
    return min(params.theta_i / gain, params.p_full) if gain > 0.0 else params.p_full


def samples_for(tau: float, f_s: float) -> int:
    """Whole samples in a window of tau seconds at rate f_s."""
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ValueError("tau must be finite and positive")
    n = round(tau * f_s)
    if n < 1:
        raise ValueError("sensing window shorter than one sample")
    return n


def _interference_threshold(params: ScenarioParams, p: float) -> float:
    # receive-power level at the ST above which the implied PR-ST gain
    # would push interference p * gain past theta_i
    return params.theta_i * params.p_tx_pr / p + params.sigma2


def controlled_power(params: ScenarioParams, tau, gamma, rho_out,
                     m: float = math.inf) -> PowerArrays:
    """Power rule over broadcast arrays of (tau, gamma, rho_out), in place of
    the scenario's fields, each checked once: deterministic for m inf, else
    under Nakagami-m PR-ST fading at mean receive SNR gamma (_fading_power).
    p_cont and power_limited take the broadcast shape, n the shape of tau.
    m = inf inverts the constraint through the estimate's gamma surrogate,
    capped at p_full; the law and the regime test run at (tau, gamma)'s rank.
    """
    tau, gamma, rho_out = (np.asarray(v, dtype=float) for v in (tau, gamma, rho_out))
    if not (np.isfinite(gamma) & (gamma > 0.0)).all():
        raise ValueError("gamma must be finite and positive")
    if not ((rho_out > 0.0) & (rho_out < 1.0)).all():
        raise ValueError("rho_out must lie strictly in (0, 1)")
    params.check_tau(tau)
    # rint, like round(), takes half-sample windows to the even count
    n = np.rint(tau * params.f_s)
    if not (n >= 1.0).all():
        raise ValueError("sensing window shorter than one sample")
    if not math.isinf(m):
        with np.errstate(over="ignore"):  # the law rejects a mean gain that overflows
            law = NakagamiGain(m, gamma * params.sigma2 / params.p_tx_pr)
        return _fading_power(params, law, n, rho_out)
    approx = dists.gamma_match(dists.received_power_law(gamma, n, params.sigma2))
    thr_full = _interference_threshold(params, params.p_full)
    power_limited = specfun.reg_upper_gamma(approx.shape, thr_full / approx.scale) <= rho_out
    a, scale, rho_out = np.broadcast_arrays(approx.shape, approx.scale, rho_out)
    # the constraint binds below the ceiling elsewhere; the denominator is
    # positive there exactly because the outage at p_full exceeds rho_out
    binds = ~power_limited
    x = specfun.inv_reg_upper_gamma(rho_out[binds], a[binds])
    p_cont = np.full(a.shape, params.p_full)
    p_cont[binds] = params.theta_i * params.p_tx_pr / (scale[binds] * x - params.sigma2)
    return PowerArrays(p_cont, power_limited, n)


def _labelled(pc: PowerArrays) -> PowerControlResult:
    regime = Regime.POWER_LIMITED if pc.power_limited else Regime.INTERFERENCE_LIMITED
    return PowerControlResult(float(pc.p_cont), regime)


def controlled_power_det(params: ScenarioParams, tau: float) -> PowerControlResult:
    """controlled_power at one tau and the scenario's gamma and rho_out."""
    return _labelled(controlled_power(params, tau, params.gamma, params.rho_out))


def controlled_power_fading(params: ScenarioParams, pr_st: NakagamiGain,
                            tau: float) -> PowerControlResult:
    """controlled_power at one tau and rho_out, under PR-ST law pr_st and its mean gain."""
    params.check_tau(tau)
    n = float(samples_for(tau, params.f_s))
    return _labelled(_fading_power(params, pr_st, n, params.rho_out))


# Fading outage: E[Q(a(x), thr / b(x))] over the PR-ST gain x ~ Gamma(m,
# mean / m). The estimate's conditional outage is a smoothed step in x at
# x* = (thr - sigma2) / p_tx_pr, where the estimate's mean meets thr, of
# width s, the estimate's spread there in gain units. The gain range is split
# at the law's own quantiles and at the 31 cuts x* + k s, k = 0, +-1 ... +-8,
# +-10, +-12, +-16, +-24, +-32, +-48, +-64, clipped into the range, so the
# panels follow the density and the step however narrow it is; each panel
# gets an 8-node Gauss-Legendre rule, in ln x below the median, where the
# density rises like x^(m - 1), and in x above it. The cuts are sorted, not
# made unique: every point has the same 43 panels, a repeated cut making one
# of width and weight 0. The mass outside the outer quantiles (2e-12)
# is dropped. The lowest split is held at the smallest normal float, so
# ln x stays finite however small the mean gain; the mass below a split so
# raised (37% of it at m = 0.5 and a mean gain of 1e-307) is kept, at the
# conditional outage of that split. Against a scipy quad oracle on m 0.5-50,
# n 10-9e4, gamma -15/0 dB and p 1e-6-1 mW the rule stays within
# max(specfun.ABS_TOL, specfun.REL_TOL * value), and against the 129
# uniform cuts k = -64 ... 64 it replaced within 3.9e-14 relative on
# m 0.5-200, n 10-9e4, gamma -20-10 dB and p 1e-6-1 mW, wherever the outage
# exceeds 1e-20 (tests/test_power_control.py).
_GAIN_LEVELS = np.array([1e-12, 1e-8, 1e-5, 1e-3, 0.02, 0.2, 0.5, 0.8, 0.98,
                         1.0 - 1e-3, 1.0 - 1e-5, 1.0 - 1e-8, 1.0 - 1e-12])
_GAIN_MEDIAN = 6  # index of the 0.5 split
_SMALLEST_SPLIT = np.finfo(float).tiny
_STEP_HALF = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0, 16.0,
                       24.0, 32.0, 48.0, 64.0])
_STEP_OFFSETS = np.concatenate([-_STEP_HALF[::-1], [0.0], _STEP_HALF])
_OUTAGE_ORDER = 8


def _gain_splits(pr_st: NakagamiGain | None) -> np.ndarray | None:
    """The _GAIN_LEVELS quantiles of the gain law (None for pr_st None) on a
    trailing axis, for every outage evaluation on it; a split that underflows
    (at m = 0.5 and a mean gain near 1e-300) is raised to the smallest normal float."""
    if pr_st is None:
        return None
    quantiles = np.multiply.outer(np.asarray(pr_st.mean_gain) / pr_st.m,
                                  special.gammaincinv(pr_st.m, _GAIN_LEVELS))
    return np.maximum(quantiles, _SMALLEST_SPLIT)


def _outage_nodes(params: ScenarioParams, m: float, mean_gain, splits, n, p):
    """Nodes of the fading outage at points mean_gain, n and p, equal-shaped:
    per node, on a trailing axis, its mass under Gamma(m, mean_gain / m),
    the estimate's gamma surrogate there, and the threshold in its scale.
    _outage_sum takes the outage from them; the power rule also its slope."""
    p, n, scale = (np.asarray(v, dtype=float)[..., None] for v in (p, n, mean_gain / m))
    thr = _interference_threshold(params, p)
    x_star = (thr - params.sigma2) / params.p_tx_pr
    spread = params.sigma2 * np.sqrt(
        (2.0 + 4.0 * x_star * params.p_tx_pr / params.sigma2) / n) / params.p_tx_pr
    cuts = np.sort(np.concatenate([splits, np.clip(
        x_star + spread * _STEP_OFFSETS, splits[..., :1], splits[..., -1:])], axis=-1))
    lo, hi = cuts[..., :-1], cuts[..., 1:]
    in_log = lo < splits[..., _GAIN_MEDIAN, None]  # the panels below the median
    x, w = specfun.panel_rule(np.where(in_log, np.log(lo), lo),
                              np.where(in_log, np.log(hi), hi), _OUTAGE_ORDER)
    x[in_log] = np.exp(x[in_log])
    w[in_log] *= x[in_log]
    # gamma density of the gain, in units of its scale mean / m
    y = x / scale[..., None]
    density = np.exp(special.xlogy(m - 1.0, y) - y - special.gammaln(m)) / scale[..., None]
    mass = (w * density).reshape(*x.shape[:-2], x.shape[-2] * _OUTAGE_ORDER)
    x = x.reshape(mass.shape)
    raised = splits[..., :1] == _SMALLEST_SPLIT
    if raised.any():
        # the mass below a raised split, far above 1e-12, acts as no gain at all
        x = np.concatenate([x, np.full(raised.shape, _SMALLEST_SPLIT)], axis=-1)
        mass = np.concatenate([mass, np.where(
            raised, special.gammainc(m, _SMALLEST_SPLIT / scale), 0.0)], axis=-1)
    # a receive SNR that overflows fails the law's own finiteness check
    with np.errstate(over="ignore"):
        snr = x * params.p_tx_pr / params.sigma2
    approx = dists.gamma_match(dists.received_power_law(snr, n, params.sigma2))
    return mass, approx, thr / approx.scale


def _outage_sum(mass, approx, t):
    # the fading outage; a node without mass (width-0 panels) is read at t = 0
    return np.sum(mass * specfun.reg_upper_gamma(approx.shape, np.where(mass > 0.0, t, 0.0)), -1)


def outage(params: ScenarioParams, tau: float, p: float,
           pr_st: NakagamiGain | None = None) -> float:
    """Interference-outage probability at transmit power p: deterministic
    channel for pr_st None, else averaged over the PR-ST fading law pr_st
    by a fixed Gauss-Legendre rule (see _outage_nodes).

    Pure estimator physics: any positive window holding at least one
    sample is accepted, whether or not it fits a transmission frame.
    """
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError("transmit power must be finite and positive")
    link = params.gamma if pr_st is None else pr_st
    return float(_outage_at(params, link, samples_for(tau, params.f_s), p))


def _outage_at(params: ScenarioParams, link, n, p: float, splits: np.ndarray | None = None):
    """outage at power p over n samples, which need not be whole: link is
    the receive SNR gamma on the deterministic channel, else the PR-ST law,
    with splits its _gain_splits (taken here when None). gamma or the law's
    mean gain and n broadcast as arrays. At p_full its root in gamma, where
    it rises through rho_out, is the regime bound; in n, the forced window."""
    if not isinstance(link, NakagamiGain):
        approx = dists.gamma_match(dists.received_power_law(link, n, params.sigma2))
        return specfun.reg_upper_gamma(approx.shape,
                                       _interference_threshold(params, p) / approx.scale)
    if splits is None:
        splits = _gain_splits(link)
    return _outage_sum(*_outage_nodes(params, link.m, link.mean_gain, splits, n, p))


# receive SNRs (linear) searched for the regime bound, both channels
_BOUND_BRACKET = (1e-6, 1e3)


def perf_bound(params: ScenarioParams, tau, m: float = math.inf):
    """Receive SNR separating the regimes: deterministic channel for m inf,
    else the mean receive SNR under Nakagami-m PR-ST fading (pr_st_law).

    Solves outage at p_full = rho_out in gamma over _BOUND_BRACKET for every
    window of tau, a scalar or an array, in one find_root call. A scalar tau
    gives a float and raises specfun.BracketError when the window is too
    short for the bound to exist anywhere in the bracket; an array gives
    tau's shape, nan at each such window. The window is not tied to a frame:
    the bound is a property of the estimator alone, so tau may exceed the
    frame length (useful for tracing the long-window asymptote,
    perf_bound_asymptote, which the deterministic bound approaches).
    """
    # each window's whole samples, a number for a scalar tau
    n = np.vectorize(samples_for, otypes=[float])(tau, params.f_s)[()]

    def excess(gamma):
        link = gamma if math.isinf(m) else NakagamiGain(m, gamma * params.sigma2 / params.p_tx_pr)
        return _outage_at(params, link, n, params.p_full) - params.rho_out

    return specfun.find_root(excess, *(np.full(np.shape(n), end) for end in _BOUND_BRACKET))


def perf_bound_asymptote(params: ScenarioParams) -> float:
    """Long-window limit of the regime bound: theta_i p_tx_pr / (p_full sigma2).

    The deterministic perf_bound approaches it from below, with a
    shortfall that shrinks like 1/sqrt(tau * f_s): on the reference
    scenario (limit -10 dB) about 0.28 dB at 100 ms and at most 0.2 dB
    from about 193 ms on.
    """
    return params.theta_i * params.p_tx_pr / (params.p_full * params.sigma2)


# a step down from the lowest power known to exceed the budget, while no
# power below the root is known: the factor 16 of a plain bracket search
_LOG_STEP_DOWN = math.log(16.0)


def _fading_power(params: ScenarioParams, law: NakagamiGain, n, rho_out) -> PowerArrays:
    """controlled_power under the PR-ST law law, over broadcast arrays of its
    mean gains, sample counts n and budgets rho_out. Past the regime check
    at p_full, a safeguarded Newton iteration in ln p starts at ideal_power
    inside a sign bracket; a step that leaves the bracket bisects it or, while
    no power below the root is known, steps down by a factor of 16 from the
    lowest power above it. As in find_root, a step below (ABS_TOL + REL_TOL
    |ln p|) / 2 ends the search. The points run in lockstep, one _outage_nodes
    call a round, so no power depends on its batch. Each power is evaluated
    once; a NaN outage raises ValueError at once, naming the round's first
    such power, and MAX_ITER rounds without an end raise ConvergenceError."""
    with np.errstate(divide="ignore"):  # a gain quantile of 0 gives p_full
        ideal = np.minimum(np.divide(params.theta_i, dists.nakagami_gain_quantile(
            law, 1.0 - rho_out)), params.p_full)
    # one flat entry per point: times ones, each value broadcast and copied
    ones = np.ones(np.broadcast(law.mean_gain, n, rho_out, ideal).shape)
    gains, counts, rhos, ideal = (np.ravel(v * ones) for v in (law.mean_gain, n, rho_out, ideal))
    splits = (_gain_splits(law) * ones[..., None]).reshape(gains.size, _GAIN_LEVELS.size)

    def residual(at, log_p):  # the excess over the budget and its slope, at points at
        p = np.exp(log_p)
        mass, approx, t = _outage_nodes(params, law.m, gains[at], splits[at], counts[at], p)
        outage = _outage_sum(mass, approx, t)
        if np.isnan(outage).any():
            raise ValueError(f"the outage at p={p[np.isnan(outage)][0].item()!r} is NaN; "
                             "the power rule cannot be solved")
        # d outage / d ln p on the same panels: thr - sigma2 goes as 1 / p, and
        # Q(a, t) falls at the gamma density at t
        step_density = np.exp(special.xlogy(approx.shape - 1.0, t) - t
                              - special.gammaln(approx.shape)) / approx.scale
        return outage - rhos[at], (np.sum(mass * step_density, -1)
                                   * (_interference_threshold(params, p) - params.sigma2))

    log_p = np.log(np.full(gains.size, params.p_full))
    excess, slope = residual(slice(None), log_p)
    power_limited = excess <= 0.0
    searching = ~power_limited
    log_hi, log_lo = log_p, np.full(gains.size, -np.inf)  # no power below the root known yet
    log_p = np.where(power_limited, log_p, np.log(ideal))
    fresh = log_p < log_hi  # else log_p is log_hi, whose excess and slope are known
    if fresh.any():
        excess[fresh], slope[fresh] = residual(fresh, log_p[fresh])
    for _ in range(specfun.MAX_ITER):
        if not searching.any():
            break
        log_hi = np.where(excess > 0.0, log_p, log_hi)
        log_lo = np.where(excess > 0.0, log_lo, log_p)
        known_lo = log_lo > -np.inf
        delta = (specfun.ABS_TOL + specfun.REL_TOL * np.abs(log_p)) / 2
        # a Newton step on a positive slope points inside the bracket; one
        # below delta is taken as it stands, since it may round back onto
        # log_p, its end. Any other slope, or one that vanishes, gives a NaN
        # or infinite step, which fails both tests
        with np.errstate(over="ignore"):
            step = -excess / np.where(slope > 0.0, slope, np.nan)
        floor = np.where(known_lo, log_lo, log_hi - _LOG_STEP_DOWN)
        done = np.abs(step) < delta
        keep = done | ((floor < log_p + step) & (log_p + step < log_hi))
        if not keep.all():
            # an excess of exactly 0 ends its search where it is
            fallback = np.where(known_lo, 0.5 * (log_lo + log_hi), floor) - log_p
            step = np.where(keep, step, np.where(excess == 0.0, 0.0, fallback))
            done = np.abs(step) < delta
        log_p = np.where(searching, log_p + step, log_p)
        searching &= ~done
        if searching.any():
            excess[searching], slope[searching] = residual(searching, log_p[searching])
    if searching.any():
        raise specfun.ConvergenceError("the power rule did not converge")
    p_cont = np.where(power_limited, params.p_full, np.exp(log_p))
    return PowerArrays(p_cont.reshape(ones.shape), power_limited.reshape(ones.shape), n)


def forced_window(params: ScenarioParams, pr_st: NakagamiGain | None = None) -> float:
    """Sensing time without power control: the window at which the outage
    at p_full meets rho_out, deterministic for pr_st None, else under the
    PR-ST law pr_st.

    Solves outage at p_full = rho_out (_outage_at) in ln n, n continuous,
    from two samples to 0.999 of the frame less its pilot. Returns two
    samples' time when even that window meets the constraint, and nan when
    no window inside the frame does. find_root reads the memoized bracket ends.
    """
    link = params.gamma if pr_st is None else pr_st
    splits = _gain_splits(pr_st)

    @functools.lru_cache(maxsize=None)
    def excess(log_n: float) -> float:
        return _outage_at(params, link, math.exp(log_n), params.p_full, splits) - params.rho_out

    log_lo = math.log(2.0)
    log_hi = math.log(0.999 * (params.frame_len - params.tau_p) * params.f_s)
    if excess(log_hi) > 0.0:
        return math.nan
    if excess(log_lo) <= 0.0:
        return 2.0 / params.f_s
    return math.exp(specfun.find_root(excess, log_lo, log_hi)) / params.f_s

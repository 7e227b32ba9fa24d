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
rho_out (_excess_at_full). Its root in the PR-to-ST receive SNR gamma is the
operating bound of perf_bound: above it the system is interference-limited,
below it power-limited. The bound only exists once the sensing window holds
enough samples for the estimator's upper tail to pin down the outage level;
for shorter windows the root search reports a missing bracket rather than a
clamped value. Its root in the window length is forced_window, the sensing
time of transmission without power control.

Under fading the outage is averaged over the Nakagami-m law of the PR-ST
power gain; gamma then plays the role of the mean receive SNR. outage,
perf_bound and forced_window take either channel, and the fading power rule
controlled_power_fading has no closed form.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace
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
    "DetPowerArrays",
    "FadingLinks",
    "pr_st_law",
    "default_fading",
    "ideal_power",
    "samples_for",
    "outage",
    "controlled_power_det_array",
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


class DetPowerArrays(NamedTuple):
    """Elementwise outcome of the deterministic power rule.

    n holds the whole sample counts (as floats) of the sensing windows. It
    has the shape of tau, which it alone reads, and broadcasts against the
    other two fields.
    """

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


def controlled_power_det_array(params: ScenarioParams, tau, gamma,
                               rho_out) -> DetPowerArrays:
    """Deterministic power rule over broadcast arrays of (tau, gamma, rho_out).

    gamma and rho_out take the place of the scenario's own fields. Closed
    form: the outage constraint inverts through the gamma surrogate of the
    receive-power estimate, and the result is capped at p_full; the mask
    records where the cap binds. Each domain check runs once over the
    whole arrays.

    The estimator law and the regime test at p_full read only (tau,
    gamma), so they run at the rank of broadcast(tau, gamma); rho_out may
    carry its own axes, (1, k) against (j, 1) tau, say, and joins at the
    comparison and at the inverse. p_cont and power_limited have the shape
    of all three broadcast together, n the shape of tau.
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
    return DetPowerArrays(p_cont, power_limited, n)


def controlled_power_det(params: ScenarioParams, tau: float) -> PowerControlResult:
    """Largest admissible transmit power for a deterministic PR-ST channel:
    controlled_power_det_array at one tau and the scenario's gamma and
    rho_out, with the regime labelled."""
    pc = controlled_power_det_array(params, tau, params.gamma, params.rho_out)
    regime = Regime.POWER_LIMITED if pc.power_limited else Regime.INTERFERENCE_LIMITED
    return PowerControlResult(float(pc.p_cont), regime)


# Fading outage: E[Q(a(x), thr / b(x))] over the PR-ST gain x ~ Gamma(m,
# mean / m). The estimate's conditional outage is a smoothed step in x at
# x* = (thr - sigma2) / p_tx_pr, where the estimate's mean meets thr, of
# width s, the estimate's spread there in gain units. The gain range is split
# at the law's own quantiles and at the 31 cuts x* + k s, k = 0, +-1 ... +-8,
# +-10, +-12, +-16, +-24, +-32, +-48, +-64, clipped into the range, so the
# panels follow the density and the step however narrow it is; each panel
# gets an 8-node Gauss-Legendre rule, in ln x below the median, where the
# density rises like x^(m - 1), and in x above it. The mass outside the outer
# quantiles (2e-12) is dropped. The lowest split is held at the smallest
# normal float, so ln x stays finite however small the mean gain; the mass
# below a split so raised (37% of it at m = 0.5 and a mean gain of 1e-307)
# is kept, at the conditional outage of that split. Against a scipy quad
# oracle on m 0.5-50, n 10-9e4, gamma -15/0 dB and p 1e-6-1 mW the rule
# stays within max(specfun.ABS_TOL, specfun.REL_TOL * value), and against
# the 129 uniform cuts k = -64 ... 64 it replaced within 3.9e-14 relative on
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
    """The _GAIN_LEVELS quantiles of the gain law, computed once per law and
    passed to every outage evaluation on it; None for the deterministic
    channel (pr_st None). A split that underflows (the 1e-12 quantile at
    m = 0.5 and a mean gain near 1e-300) is raised to the smallest normal
    float, whose logarithm the panels can take."""
    if pr_st is None:
        return None
    return np.maximum(dists.nakagami_gain_quantile(pr_st, _GAIN_LEVELS), _SMALLEST_SPLIT)


def _outage_fading_n(params: ScenarioParams, pr_st: NakagamiGain, splits: np.ndarray,
                     n_eff: float, p: float) -> tuple[float, float]:
    """Fading outage over n_eff samples at power p, and its slope
    d outage / d ln p; splits are _gain_splits(pr_st).

    The slope is taken on the same nodes with the panels held fixed: the
    threshold moves as d thr / d ln p = -(thr - sigma2), and Q(a, t) falls
    at the rate of the gamma density of shape a at t.
    """
    thr = _interference_threshold(params, p)
    x_star = (thr - params.sigma2) / params.p_tx_pr
    spread = params.sigma2 * math.sqrt(
        (2.0 + 4.0 * x_star * params.p_tx_pr / params.sigma2) / n_eff) / params.p_tx_pr
    cuts = np.unique(np.concatenate([
        splits, np.clip(x_star + spread * _STEP_OFFSETS, splits[0], splits[-1])]))
    lo, hi = cuts[:-1], cuts[1:]
    in_log = lo < splits[_GAIN_MEDIAN]  # the panels below the median
    x, w = specfun.panel_rule(np.where(in_log, np.log(lo), lo),
                              np.where(in_log, np.log(hi), hi), _OUTAGE_ORDER)
    x[in_log] = np.exp(x[in_log])
    w[in_log] *= x[in_log]
    # gamma density of the gain, in units of its scale mean / m
    scale = pr_st.mean_gain / pr_st.m
    y = x / scale
    density = np.exp(special.xlogy(pr_st.m - 1.0, y) - y - special.gammaln(pr_st.m)) / scale
    mass = w * density
    if splits[0] == _SMALLEST_SPLIT:
        # the gains below the raised split act as no gain at all: their
        # mass, far above 1e-12 once the split is raised, sits on one node
        x = np.append(x, _SMALLEST_SPLIT)
        mass = np.append(mass, special.gammainc(pr_st.m, _SMALLEST_SPLIT / scale))
    # a receive SNR that overflows fails the law's own finiteness check
    with np.errstate(over="ignore"):
        snr = x * params.p_tx_pr / params.sigma2
    approx = dists.gamma_match(dists.received_power_law(snr, n_eff, params.sigma2))
    t = thr / approx.scale
    outage = float(np.sum(mass * specfun.reg_upper_gamma(approx.shape, t)))
    step_density = np.exp(special.xlogy(approx.shape - 1.0, t) - t
                          - special.gammaln(approx.shape)) / approx.scale
    return outage, float(np.sum(mass * step_density)) * (thr - params.sigma2)


def outage(params: ScenarioParams, tau: float, p: float,
           pr_st: NakagamiGain | None = None) -> float:
    """Interference-outage probability at transmit power p: deterministic
    channel for pr_st None, else averaged over the PR-ST fading law pr_st
    by a fixed Gauss-Legendre rule (see _outage_fading_n).

    Pure estimator physics: any positive window holding at least one
    sample is accepted, whether or not it fits a transmission frame.
    """
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError("transmit power must be finite and positive")
    return _outage_n(params, pr_st, _gain_splits(pr_st), samples_for(tau, params.f_s), p)


def _outage_n(params: ScenarioParams, pr_st: NakagamiGain | None,
              splits: np.ndarray | None, n: float, p: float) -> float:
    """outage over n samples, which need not be whole; splits are
    _gain_splits(pr_st)."""
    if pr_st is not None:
        return _outage_fading_n(params, pr_st, splits, n, p)[0]
    approx = dists.gamma_match(dists.received_power_law(params.gamma, n, params.sigma2))
    return specfun.reg_upper_gamma(approx.shape,
                                   _interference_threshold(params, p) / approx.scale)


def _excess_at_full(params: ScenarioParams, pr_st: NakagamiGain | None,
                    splits: np.ndarray | None, n: float) -> float:
    """Outage at p_full over n samples, which need not be whole, minus
    rho_out (_outage_n). Its root in gamma, where it rises, is the regime
    bound; in n, where it falls, the forced window."""
    return _outage_n(params, pr_st, splits, n, params.p_full) - params.rho_out


# receive SNRs (linear) searched for the regime bound, both channels
_BOUND_BRACKET = (1e-6, 1e3)


def perf_bound(params: ScenarioParams, tau: float, m: float = math.inf) -> float:
    """Receive SNR separating the regimes: deterministic channel for m inf,
    else the mean receive SNR under Nakagami-m PR-ST fading (pr_st_law).

    Solves _excess_at_full(gamma) = 0 over _BOUND_BRACKET. Raises
    specfun.BracketError when the window is too short for the bound to
    exist anywhere in the bracket. The window is not tied to a frame:
    the bound is a property of the estimator alone, so tau may exceed
    the frame length (useful for tracing the long-window asymptote,
    perf_bound_asymptote, which the deterministic bound approaches).
    """
    n = samples_for(tau, params.f_s)

    def excess(gamma: float) -> float:
        scenario = replace(params, gamma=gamma)
        pr_st = None if math.isinf(m) else pr_st_law(scenario, m)
        return _excess_at_full(scenario, pr_st, _gain_splits(pr_st), n)

    return specfun.find_root(excess, *_BOUND_BRACKET)


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


def controlled_power_fading(params: ScenarioParams, pr_st: NakagamiGain,
                            tau: float) -> PowerControlResult:
    """Largest admissible transmit power under PR-ST fading.

    No closed form here: the outage is monotone in the power, so the rule
    is its root in log power, capped at p_full. After the regime check at
    p_full, a safeguarded Newton iteration in ln p starts from the
    perfect-knowledge power at the gain law's upper rho_out-quantile, on
    the slope each outage evaluation returns (_outage_fading_n). It keeps a
    sign bracket around the root. A step that leaves the bracket bisects
    it instead, or, while no power below the root is known, steps down by
    a factor of 16 from the lowest power above it; so does a step that
    would go further down than that. It stops, as specfun.find_root does,
    on a step below (ABS_TOL + REL_TOL |ln p|) / 2, so the root meets the
    package's one accuracy target, max(ABS_TOL, REL_TOL |ln p|) in ln p
    (specfun). Each power is evaluated once; a NaN outage raises
    ValueError at once, and a search still open after MAX_ITER steps
    raises specfun.ConvergenceError.
    """
    params.check_tau(tau)
    n = samples_for(tau, params.f_s)
    splits = _gain_splits(pr_st)

    def residual(log_p: float) -> tuple[float, float]:
        p = math.exp(log_p)
        outage, slope = _outage_fading_n(params, pr_st, splits, float(n), p)
        if math.isnan(outage):
            raise ValueError(f"the outage at p={p!r} is NaN; the power rule "
                             "cannot be solved")
        return outage - params.rho_out, slope

    log_hi = math.log(params.p_full)
    excess, slope = residual(log_hi)
    if excess <= 0.0:
        return PowerControlResult(params.p_full, Regime.POWER_LIMITED)
    log_lo = -math.inf  # no power below the root known yet
    # at most log_hi, which keeps its excess and slope when it is log_hi
    log_p = math.log(ideal_power(params, pr_st))
    if log_p < log_hi:
        excess, slope = residual(log_p)
    for _ in range(specfun.MAX_ITER):
        if excess > 0.0:
            log_hi = log_p
        elif excess < 0.0:
            log_lo = log_p
        else:
            break
        delta = (specfun.ABS_TOL + specfun.REL_TOL * abs(log_p)) / 2
        # log_p is an end of the bracket, and a Newton step on a positive
        # slope points inside it; one below delta is taken as it stands,
        # since it may round back onto that end
        step = -excess / slope if slope > 0.0 else math.nan
        if not abs(step) < delta:
            floor = log_lo if log_lo > -math.inf else log_hi - _LOG_STEP_DOWN
            if not floor < log_p + step < log_hi:
                step = (0.5 * (log_lo + log_hi) if log_lo > -math.inf else floor) - log_p
        log_p += step
        if abs(step) < delta:
            break
        excess, slope = residual(log_p)
    else:
        raise specfun.ConvergenceError("the power rule did not converge")
    return PowerControlResult(math.exp(log_p), Regime.INTERFERENCE_LIMITED)


def forced_window(params: ScenarioParams, pr_st: NakagamiGain | None = None) -> float:
    """Sensing time without power control: the window at which the outage
    at p_full meets rho_out, deterministic for pr_st None, else under the
    PR-ST law pr_st.

    Solves _excess_at_full = 0 in ln n, n continuous, from two samples to
    0.999 of the frame less its pilot. Returns two samples' time when even
    that window meets the constraint, and nan when no window inside the
    frame does. find_root reads the memoized bracket ends.
    """
    splits = _gain_splits(pr_st)

    @functools.lru_cache(maxsize=None)
    def excess(log_n: float) -> float:
        return _excess_at_full(params, pr_st, splits, math.exp(log_n))

    log_lo = math.log(2.0)
    log_hi = math.log(0.999 * (params.frame_len - params.tau_p) * params.f_s)
    if excess(log_hi) > 0.0:
        return math.nan
    if excess(log_lo) <= 0.0:
        return 2.0 / params.f_s
    return math.exp(specfun.find_root(excess, log_lo, log_hi)) / params.f_s

"""Outage-constrained transmit power control for the secondary link.

The secondary transmitter (ST) estimates the power received from the primary
receiver's (PR) transmissions over a sensing window of tau seconds, converts
that estimate into an implied ST-to-PR channel gain, and picks the largest
transmit power whose estimate-conditioned interference at the PR stays below
the threshold theta_i except with probability rho_out. Two regimes fall out:

- interference-limited: the outage constraint binds and the controlled power
  sits strictly below the hardware ceiling p_full;
- power-limited: even at p_full the constraint holds, so the ceiling binds.

The boundary between the regimes, as a function of the PR-to-ST receive SNR
gamma, is the operating bound solved by perf_bound_det / perf_bound_fading:
above the bound the system is interference-limited, below it power-limited.
The bound only exists once the sensing window holds enough samples for the
estimator's upper tail to pin down the outage level; for shorter windows the
root search reports a missing bracket rather than a clamped value.

Fading variants average the outage over the Nakagami-m law of the PR-ST
power gain; gamma then plays the role of the mean receive SNR.
"""

from __future__ import annotations

import enum
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
    "default_fading",
    "samples_for",
    "outage_det",
    "controlled_power_det_array",
    "controlled_power_det",
    "perf_bound_det",
    "perf_bound_asymptote",
    "outage_fading",
    "controlled_power_fading",
    "perf_bound_fading",
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


class Regime(enum.Enum):
    INTERFERENCE_LIMITED = "interference-limited"
    POWER_LIMITED = "power-limited"


@dataclass(frozen=True)
class PowerControlResult:
    """Controlled power, the binding regime, and the effective sensing time.

    tau_eff is the requested tau rounded to a whole number of samples; the
    estimator laws see tau_eff while time budgets elsewhere keep the
    requested tau.
    """

    p_cont: float
    regime: Regime
    tau_eff: float


class DetPowerArrays(NamedTuple):
    """Elementwise outcome of the deterministic power rule.

    n holds the whole sample counts (as floats) of the sensing windows.
    """

    p_cont: np.ndarray
    power_limited: np.ndarray
    n: np.ndarray


class FadingLinks(NamedTuple):
    """Nakagami gain laws of the three links that matter."""

    pr_st: NakagamiGain
    pt_sr: NakagamiGain
    st_sr: NakagamiGain


def default_fading(params: ScenarioParams, m: float) -> FadingLinks:
    """Fading laws whose mean gains reproduce the scenario's link budget."""
    if params.g_pt_sr <= 0.0:
        raise ValueError("fading links need a positive PT-SR gain")
    return FadingLinks(
        pr_st=NakagamiGain(m, params.gamma * params.sigma2 / params.p_tx_pr),
        pt_sr=NakagamiGain(m, params.g_pt_sr),
        st_sr=NakagamiGain(m, params.g_st_sr),
    )


def samples_for(tau: float, f_s: float) -> int:
    """Whole samples in a window of tau seconds at rate f_s."""
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ValueError("tau must be finite and positive")
    n = round(tau * f_s)
    if n < 1:
        raise ValueError("sensing window shorter than one sample")
    return n


def _check_tau(params: ScenarioParams, tau) -> None:
    """tau, a scalar or an array, must leave room for the pilot in the frame."""
    if not np.all((tau > 0.0) & (tau < params.frame_len - params.tau_p)):
        raise ValueError("tau must leave room for the pilot inside the frame")


def _interference_threshold(params: ScenarioParams, p: float) -> float:
    # receive-power level at the ST above which the implied PR-ST gain
    # would push interference p * gain past theta_i
    return params.theta_i * params.p_tx_pr / p + params.sigma2


def outage_det(params: ScenarioParams, tau: float, p: float) -> float:
    """Interference-outage probability at transmit power p, known-gamma case.

    Pure estimator physics: any positive window holding at least one
    sample is accepted, whether or not it fits a transmission frame.
    """
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError("transmit power must be finite and positive")
    return _outage_det_n(params, samples_for(tau, params.f_s), p)


def _outage_det_n(params: ScenarioParams, n: float, p: float) -> float:
    """outage_det over n samples, which need not be whole."""
    approx = dists.gamma_match(dists.received_power_law(params.gamma, n, params.sigma2))
    return specfun.reg_upper_gamma(approx.shape,
                                   _interference_threshold(params, p) / approx.scale)


def controlled_power_det_array(params: ScenarioParams, tau, gamma,
                               rho_out) -> DetPowerArrays:
    """Deterministic power rule over broadcast arrays of (tau, gamma, rho_out).

    gamma and rho_out take the place of the scenario's own fields. Closed
    form: the outage constraint inverts through the gamma surrogate of the
    receive-power estimate, and the result is capped at p_full; the mask
    records where the cap binds. Each domain check runs once over the
    whole arrays.
    """
    tau, gamma, rho_out = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                                for v in (tau, gamma, rho_out)))
    if not (np.isfinite(gamma) & (gamma > 0.0)).all():
        raise ValueError("gamma must be finite and positive")
    if not ((rho_out > 0.0) & (rho_out < 1.0)).all():
        raise ValueError("rho_out must lie strictly in (0, 1)")
    _check_tau(params, tau)
    # rint, like round(), takes half-sample windows to the even count
    n = np.rint(tau * params.f_s)
    if not (n >= 1.0).all():
        raise ValueError("sensing window shorter than one sample")
    approx = dists.gamma_match(dists.received_power_law(gamma, n, params.sigma2))
    thr_full = _interference_threshold(params, params.p_full)
    power_limited = specfun.reg_upper_gamma(approx.shape, thr_full / approx.scale) <= rho_out
    # the constraint binds below the ceiling elsewhere; the denominator is
    # positive there exactly because the outage at p_full exceeds rho_out
    binds = ~power_limited
    x = specfun.inv_reg_upper_gamma(rho_out[binds], approx.shape[binds])
    p_cont = np.full(n.shape, params.p_full)
    p_cont[binds] = params.theta_i * params.p_tx_pr / (approx.scale[binds] * x - params.sigma2)
    return DetPowerArrays(p_cont, power_limited, n)


def controlled_power_det(params: ScenarioParams, tau: float) -> PowerControlResult:
    """Largest admissible transmit power for a deterministic PR-ST channel:
    controlled_power_det_array at one tau and the scenario's gamma and
    rho_out, with the regime labelled."""
    pc = controlled_power_det_array(params, tau, params.gamma, params.rho_out)
    regime = Regime.POWER_LIMITED if pc.power_limited else Regime.INTERFERENCE_LIMITED
    return PowerControlResult(float(pc.p_cont), regime, float(pc.n) / params.f_s)


# receive SNRs (linear) searched for the regime bound, both channels
_BOUND_BRACKET = (1e-6, 1e3)


def perf_bound_det(params: ScenarioParams, tau: float) -> float:
    """Receive SNR separating the regimes, deterministic channel.

    Solves outage-at-p_full(gamma) = rho_out over _BOUND_BRACKET. Raises
    specfun.BracketError when the window is too short for the bound to
    exist anywhere in the bracket. The window is not tied to a frame:
    the bound is a property of the estimator alone, so tau may exceed
    the frame length (useful for tracing the long-window asymptote).

    The bound stays below perf_bound_asymptote, and its shortfall to that
    limit shrinks like 1/sqrt(tau * f_s). On the reference scenario the
    shortfall is about 0.28 dB at 100 ms and at most 0.2 dB from about
    193 ms on.
    """
    samples_for(tau, params.f_s)

    def residual(gamma: float) -> float:
        return outage_det(replace(params, gamma=gamma), tau, params.p_full) - params.rho_out

    return specfun.find_root(residual, *_BOUND_BRACKET)


def perf_bound_asymptote(params: ScenarioParams) -> float:
    """Long-window limit of the regime bound: theta_i p_tx_pr / (p_full sigma2).

    perf_bound_det approaches it from below, with a shortfall that shrinks
    like 1/sqrt(tau * f_s): on the reference scenario (limit -10 dB) about
    0.28 dB at 100 ms and at most 0.2 dB from about 193 ms on.
    """
    return params.theta_i * params.p_tx_pr / (params.p_full * params.sigma2)


# Fading outage: E[Q(a(x), thr / b(x))] over the PR-ST gain x ~ Gamma(m,
# mean / m). The estimate's conditional outage is a smoothed step in x at
# x* = (thr - sigma2) / p_tx_pr, where the estimate's mean meets thr, of
# width s, the estimate's spread there in gain units. The gain range is split
# at the law's own quantiles and at x* + k s, k = -64 ... 64, clipped into
# the range, so the panels follow the density and the step however narrow it
# is; each panel gets an 8-node Gauss-Legendre rule, in ln x below the median,
# where the density rises like x^(m - 1), and in x above it. The mass outside
# the outer quantiles (2e-12) is dropped. Against a scipy quad oracle on
# m 0.5-50, n 10-9e4, gamma -15/0 dB and p 1e-6-1 mW the rule stays within
# max(specfun.ABS_TOL, specfun.REL_TOL * value) (tests/test_power_control.py).
_GAIN_LEVELS = np.array([1e-12, 1e-8, 1e-5, 1e-3, 0.02, 0.2, 0.5, 0.8, 0.98,
                         1.0 - 1e-3, 1.0 - 1e-5, 1.0 - 1e-8, 1.0 - 1e-12])
_GAIN_MEDIAN = 6  # index of the 0.5 split
_STEP_OFFSETS = np.arange(-64.0, 65.0)
_OUTAGE_ORDER = 8


def _outage_fading_n(params: ScenarioParams, pr_st: NakagamiGain, n_eff: float,
                     p: float) -> float:
    thr = _interference_threshold(params, p)
    x_star = (thr - params.sigma2) / params.p_tx_pr
    spread = params.sigma2 * math.sqrt(
        (2.0 + 4.0 * x_star * params.p_tx_pr / params.sigma2) / n_eff) / params.p_tx_pr
    splits = dists.nakagami_gain_quantile(pr_st, _GAIN_LEVELS)
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
    approx = dists.gamma_match(dists.received_power_law(x * params.p_tx_pr / params.sigma2,
                                                        n_eff, params.sigma2))
    return float(np.sum(w * density * specfun.reg_upper_gamma(approx.shape, thr / approx.scale)))


def outage_fading(params: ScenarioParams, pr_st: NakagamiGain, tau: float,
                  p: float) -> float:
    """Interference-outage probability averaged over the PR-ST fading law.

    A fixed Gauss-Legendre rule on panels split at the gain law's quantiles
    and around the estimator's step (see _outage_fading_n). Like the
    known-gamma variant this accepts any window of at least one sample.
    """
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError("transmit power must be finite and positive")
    n = samples_for(tau, params.f_s)
    return _outage_fading_n(params, pr_st, float(n), p)


def controlled_power_fading(params: ScenarioParams, pr_st: NakagamiGain,
                            tau: float) -> PowerControlResult:
    """Largest admissible transmit power under PR-ST fading.

    No closed form here: the outage is monotone in the power, so the rule
    is a bracketed root in log power, capped at p_full.
    """
    _check_tau(params, tau)
    n = samples_for(tau, params.f_s)
    tau_eff = n / params.f_s

    def outage_at(p: float) -> float:
        return _outage_fading_n(params, pr_st, float(n), p)

    if outage_at(params.p_full) <= params.rho_out:
        return PowerControlResult(params.p_full, Regime.POWER_LIMITED, tau_eff)
    p_lo = params.p_full
    for _ in range(80):
        p_lo /= 16.0
        if outage_at(p_lo) <= params.rho_out:
            break
    else:
        raise specfun.ConvergenceError("could not bracket the power rule from below")

    def residual(log_p: float) -> float:
        return outage_at(math.exp(log_p)) - params.rho_out

    log_root = specfun.find_root(residual, math.log(p_lo), math.log(params.p_full))
    return PowerControlResult(math.exp(log_root), Regime.INTERFERENCE_LIMITED, tau_eff)


def perf_bound_fading(params: ScenarioParams, pr_st: NakagamiGain, tau: float) -> float:
    """Mean receive SNR separating the regimes under PR-ST fading.

    Only the m of pr_st is used; its mean gain is retied to the searched
    SNR through mean_gain = gamma * sigma2 / p_tx_pr at every step. Raises
    specfun.BracketError when no bound exists in _BOUND_BRACKET. As in the
    deterministic variant, tau is not frame-bounded here.
    """
    n = samples_for(tau, params.f_s)

    def residual(gamma: float) -> float:
        law = NakagamiGain(pr_st.m, gamma * params.sigma2 / params.p_tx_pr)
        return (_outage_fading_n(params, law, float(n), params.p_full)
                - params.rho_out)

    return specfun.find_root(residual, *_BOUND_BRACKET)

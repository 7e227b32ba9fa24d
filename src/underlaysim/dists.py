"""Probability layer: estimator laws and the quantities built from them.

The secondary transmitter never sees true channel gains, only short-window
estimates. Three estimates drive everything downstream, and all three are
scaled noncentral chi-square laws:

- received primary power at the ST, from an energy estimate over tau * f_s
  samples (dof = sample count, noncentrality = sample count * receive SNR),
- the ST-SR channel gain, from pilot-aided ML estimation (2 degrees of
  freedom, one complex observation),
- interference-plus-noise power at the SR, again an energy estimate.

Each law carries a two-moment gamma surrogate (gamma_match) that the
power-control and throughput layers treat as the working approximation; the
exact laws remain available for sampling so the surrogates can be checked
against them. The estimated capacity log2(1 + gain * P / interference) then
has a closed density through the ratio of the two gamma surrogates, which is
a scaled beta-prime law.

The laws come in one form: each field of NcChiSq, GammaApprox and
CapacityDist, and each argument of the law builders, is a number or an
array, used elementwise, and each domain check covers every element. Sample
counts need not be whole: the root searches over the window length pass a
continuous count.

Nakagami-m fading enters as a gamma law on channel power gains; m >= 0.5,
with large m approaching the deterministic channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "NcChiSq",
    "GammaApprox",
    "NakagamiGain",
    "CapacityDist",
    "gamma_match",
    "sample_ncx2",
    "received_power_law",
    "pilot_gain_law",
    "interference_power_law",
    "capacity_pdf",
    "capacity_cdf",
    "nakagami_gain_cdf",
    "nakagami_gain_quantile",
    "sample_nakagami",
]

_LN2 = math.log(2.0)


def _positive(x) -> bool:
    """x, a number or an array, is finite and positive throughout."""
    if isinstance(x, (int, float)):
        return 0.0 < x < math.inf
    # a nan anywhere makes both extremes nan, and both comparisons false
    return x.size == 0 or (0.0 < x.min() and x.max() < math.inf)


def _at_least(x, lo: float) -> bool:
    """x, a number or an array, is finite and at least lo throughout."""
    if isinstance(x, (int, float)):
        return lo <= x < math.inf
    return x.size == 0 or (lo <= x.min() and x.max() < math.inf)


@dataclass(frozen=True)
class NcChiSq:
    """Scaled noncentral chi-square law: noise_scale times chi2_dof(nc).

    Mean noise_scale * (dof + noncentrality), variance noise_scale^2 *
    (2 dof + 4 noncentrality). noise_scale carries the physical power units;
    dof and noncentrality are dimensionless.
    """

    dof: float | np.ndarray
    noncentrality: float | np.ndarray
    noise_scale: float | np.ndarray

    def __post_init__(self) -> None:
        if not _at_least(self.dof, 1.0):
            raise ValueError("dof must be a positive integer")
        if not _at_least(self.noncentrality, 0.0):
            raise ValueError("noncentrality must be finite and nonnegative")
        if not _positive(self.noise_scale):
            raise ValueError("noise_scale must be finite and positive")

    @property
    def mean(self) -> float:
        return self.noise_scale * (self.dof + self.noncentrality)

    @property
    def variance(self) -> float:
        return self.noise_scale ** 2 * (2.0 * self.dof + 4.0 * self.noncentrality)


@dataclass(frozen=True)
class GammaApprox:
    """Gamma(shape, scale) surrogate for an estimator law."""

    shape: float | np.ndarray
    scale: float | np.ndarray

    def __post_init__(self) -> None:
        if not _positive(self.shape):
            raise ValueError("shape must be finite and positive")
        if not _positive(self.scale):
            raise ValueError("scale must be finite and positive")

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale ** 2


@dataclass(frozen=True)
class NakagamiGain:
    """Channel power-gain law under Nakagami-m fading: Gamma(m, mean/m)."""

    m: float
    mean_gain: float

    def __post_init__(self) -> None:
        if not (self.m >= 0.5 and math.isfinite(self.m)):
            raise ValueError("Nakagami parameter m must be at least 0.5")
        if not (self.mean_gain > 0.0 and math.isfinite(self.mean_gain)):
            raise ValueError("mean_gain must be finite and positive")


@dataclass(frozen=True)
class CapacityDist:
    """Law of the estimated capacity log2(1 + gain * P / interference).

    gain_approx and interf_approx are the gamma surrogates of the pilot
    gain estimate and of the interference-plus-noise power estimate;
    tx_power is the secondary transmit power applied to the gain. The SINR
    estimate gain * P / interference is then ratio_scale times a beta-prime
    variate with parameters (gain_approx.shape, interf_approx.shape).
    """

    gain_approx: GammaApprox
    interf_approx: GammaApprox
    tx_power: float | np.ndarray

    def __post_init__(self) -> None:
        if not _positive(self.tx_power):
            raise ValueError("tx_power must be finite and positive")

    @property
    def ratio_scale(self) -> float:
        return self.gain_approx.scale * self.tx_power / self.interf_approx.scale


def gamma_match(law: NcChiSq) -> GammaApprox:
    """Two-moment gamma surrogate of a scaled noncentral chi-square law.

    Patnaik's match, elementwise:
    shape = (dof + nc)^2 / (2 dof + 4 nc),
    scale = noise_scale * (2 dof + 4 nc) / (dof + nc).
    A shape or scale that overflows fails GammaApprox's own check instead
    of warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = law.dof + law.noncentrality
        spread = 2.0 * law.dof + 4.0 * law.noncentrality
        return GammaApprox(shape=total * total / spread,
                           scale=law.noise_scale * spread / total)


def sample_ncx2(law: NcChiSq, rng: np.random.Generator, n: int) -> np.ndarray:
    """n variates of the exact law, not its surrogate.

    Each field of law is a number or a length-n array (one law per row).
    numpy builds each variate as chi2_(dof-1) + (Z + sqrt(nc))^2 when
    dof > 1 and as a Poisson(nc / 2) mixture of central chi-squares when
    dof <= 1, at a cost that does not grow with dof.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return law.noise_scale * rng.noncentral_chisquare(law.dof, law.noncentrality, n)


def received_power_law(snr, n_samples, noise_power: float) -> NcChiSq:
    """Law of the received primary-power estimate at the ST.

    An energy estimate over n_samples samples of a signal at receive SNR
    snr in noise of power noise_power: (noise_power / n) * chi2_n(n * snr).
    Mean noise_power * (1 + snr), so the estimate sits on the physical
    power scale.
    """
    if not _at_least(snr, 0.0):
        raise ValueError("snr must be finite and nonnegative")
    if not _positive(noise_power):
        raise ValueError("noise_power must be finite and positive")
    if not _at_least(n_samples, 1.0):
        raise ValueError("n_samples must be a positive integer")
    with np.errstate(over="ignore"):  # NcChiSq rejects an overflowed noncentrality
        return NcChiSq(dof=n_samples, noncentrality=n_samples * snr,
                       noise_scale=noise_power / n_samples)


def pilot_gain_law(mean_gain, pilot_samples, noise_power: float) -> NcChiSq:
    """Law of the pilot-aided channel power-gain estimate.

    ML estimation from pilot_samples pilot samples leaves one complex
    Gaussian observation around the true coefficient, so the squared
    magnitude is (noise_power / pilot_samples) * chi2_2(lambda) with
    lambda = pilot_samples * mean_gain / noise_power.
    """
    if not _positive(mean_gain):
        raise ValueError("mean_gain must be finite and positive")
    if not _positive(noise_power):
        raise ValueError("noise_power must be finite and positive")
    if not _at_least(pilot_samples, 1.0):
        raise ValueError("pilot_samples must be a positive integer")
    with np.errstate(over="ignore"):
        return NcChiSq(dof=2, noncentrality=pilot_samples * mean_gain / noise_power,
                       noise_scale=noise_power / pilot_samples)


def interference_power_law(gain, tx_power, n_samples, noise_power: float) -> NcChiSq:
    """Law of the interference-plus-noise power estimate at the SR.

    Energy estimate over n_samples of the primary transmitter's signal
    received through power gain gain at transmit power tx_power:
    (noise_power / n) * chi2_n(n * gain * tx_power / noise_power), with
    mean gain * tx_power + noise_power.
    """
    if not _at_least(gain, 0.0):
        raise ValueError("gain must be finite and nonnegative")
    if not _positive(tx_power):
        raise ValueError("tx_power must be finite and positive")
    if not _positive(noise_power):
        raise ValueError("noise_power must be finite and positive")
    if not _at_least(n_samples, 1.0):
        raise ValueError("n_samples must be a positive integer")
    with np.errstate(over="ignore"):
        return NcChiSq(dof=n_samples,
                       noncentrality=n_samples * gain * tx_power / noise_power,
                       noise_scale=noise_power / n_samples)


def _ratio_params(dist: CapacityDist) -> tuple[float, float, float]:
    return dist.gain_approx.shape, dist.interf_approx.shape, dist.ratio_scale


def _log_sinr_from_capacity(t):
    """ln(2^x - 1) given t = x ln 2, elementwise, without overflow.

    Small t goes through expm1 directly; large t through
    t + log1p(-exp(-t)), so neither branch ever sees exp of a large
    argument. t = 0 yields -inf (caller silences the divide warning
    when that is a legitimate input).
    """
    t_lo = np.minimum(t, 1.0)
    t_hi = np.maximum(t, 1.0)
    return np.where(t < 1.0, np.log(np.expm1(t_lo)),
                    t_hi + np.log1p(-np.exp(-t_hi)))


def capacity_pdf(dist: CapacityDist, x):
    """Density of the estimated capacity at x > 0 (scalar or array).

    With Z = SINR estimate = lam * BetaPrime(a_s, a_i), lam = ratio_scale:

        ln f_Z(z) = -ln lam - ln B(a_s, a_i)
                    + (a_s - 1) ln(z / lam) - (a_s + a_i) ln(1 + z / lam)

    and f_C(x) = f_Z(2^x - 1) * 2^x ln 2. Evaluated fully in log space so
    the far tails underflow to zero instead of overflowing: with
    ln u = ln z - ln lam, the ln(1 + u) term becomes logaddexp(0, ln u)
    and 2^x rides along as +t inside the final exp.
    """
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x_arr)) or np.any(x_arr <= 0.0):
        raise ValueError("capacity argument must be finite and positive")
    a_s, a_i, lam = _ratio_params(dist)
    t = x_arr * _LN2
    ln_u = _log_sinr_from_capacity(t) - math.log(lam)
    log_pdf_z = (-math.log(lam) - special.betaln(a_s, a_i)
                 + (a_s - 1.0) * ln_u - (a_s + a_i) * np.logaddexp(0.0, ln_u))
    out = np.exp(log_pdf_z + t) * _LN2
    if np.isscalar(x):
        return float(out)
    return out


def capacity_cdf(dist: CapacityDist, x):
    """CDF of the estimated capacity; zero for x <= 0.

    The incomplete-beta argument z / (z + lam) is expit(ln u), exact for
    arbitrarily large z where the direct ratio would overflow.
    """
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x_arr)):
        raise ValueError("capacity argument must be finite")
    a_s, a_i, lam = _ratio_params(dist)
    t = np.maximum(x_arr, 0.0) * _LN2
    with np.errstate(divide="ignore"):
        ln_u = _log_sinr_from_capacity(t) - math.log(lam)
    out = special.betainc(a_s, a_i, special.expit(ln_u))
    if np.isscalar(x):
        return float(out)
    return out


def nakagami_gain_cdf(gain: NakagamiGain, x):
    """CDF of the power gain: regularized lower gamma(m, m x / mean)."""
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x_arr)) or np.any(x_arr < 0.0):
        raise ValueError("gain argument must be finite and nonnegative")
    out = special.gammainc(gain.m, gain.m * x_arr / gain.mean_gain)
    if np.isscalar(x):
        return float(out)
    return out


def nakagami_gain_quantile(gain: NakagamiGain, q):
    """Quantile of the power gain; q in [0, 1) (0 maps to gain 0)."""
    q_arr = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q_arr)) or np.any(q_arr < 0.0) or np.any(q_arr >= 1.0):
        raise ValueError("quantile level must lie in [0, 1)")
    out = special.gammaincinv(gain.m, q_arr) * (gain.mean_gain / gain.m)
    if np.isscalar(q):
        return float(out)
    return out


def sample_nakagami(gain: NakagamiGain, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n power gains: Gamma(m, mean/m), the exact law."""
    if n < 1:
        raise ValueError("n must be positive")
    return rng.gamma(shape=gain.m, scale=gain.mean_gain / gain.m, size=n)

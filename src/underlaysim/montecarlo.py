"""Monte Carlo oracle for the analytic layer.

Every trial replays one frame end to end through the exact laws, with no
gamma surrogates anywhere: the receive-power, pilot-gain, and interference
estimates are each drawn from their own scaled noncentral chi-square law
by numpy's exact generator (dists.sample_ncx2), the secondary transmits at
the power the caller gives (solved by a power rule or fixed), and the
trial records what the primary would have experienced. Summaries carry
what the analytic side predicts: outage rate, mean estimated capacity,
throughput, and the estimated capacities in trial order for
distribution-level comparisons.

Reproducibility discipline: trials are grouped in fixed blocks of 4096 and
block j draws from Generator(Philox(SeedSequence(seed, spawn_key=(j,)))).
Within a block the draw order is fixed (fading gains first where present,
then receive-power, pilot, interference). Results are merged in block order
with compensated summation, so blocks computed in any order reproduce a
run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dists import (interference_power_law, pilot_gain_law, received_power_law,
                    sample_nakagami, sample_ncx2)
from .power_control import FadingLinks, ScenarioParams, samples_for
from .throughput import prefactor

__all__ = [
    "BLOCK",
    "McSummary",
    "run_trials_det",
    "run_trials_fading",
    "ks_distance",
]

BLOCK = 4096


@dataclass(frozen=True)
class McSummary:
    """Aggregates of a run plus its estimated capacities, in trial order."""

    n_trials: int
    tau: float
    outage_rate: float
    outage_se: float
    mean_capacity: float
    capacity_se: float
    mean_throughput: float
    throughput_se: float
    c_hat: np.ndarray


def _rng_for_block(seed: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(block),))
    return np.random.Generator(np.random.Philox(ss))


def _block_sizes(n_trials: int) -> list[int]:
    full, rem = divmod(n_trials, BLOCK)
    return [BLOCK] * full + ([rem] if rem else [])


def _block(params: ScenarioParams, links: FadingLinks | None, tau: float,
           power: float, seed: int, block: int, size: int):
    """One block's estimated capacities and interference at the PR. links
    None stands for fixed link gains."""
    rng = _rng_for_block(seed, block)
    n = samples_for(tau, params.f_s)
    if links is None:
        snr, x_pt, x_st = params.gamma, params.g_pt_sr, params.g_st_sr
    else:
        x_pr = sample_nakagami(links.pr_st, rng, size)
        x_pt = sample_nakagami(links.pt_sr, rng, size)
        x_st = sample_nakagami(links.st_sr, rng, size)
        snr = x_pr * params.p_tx_pr / params.sigma2
    p_hat = sample_ncx2(received_power_law(snr, n, params.sigma2), rng, size)
    g_hat = sample_ncx2(pilot_gain_law(x_st, params.pilot_samples, params.sigma2),
                        rng, size)
    i_hat = sample_ncx2(interference_power_law(x_pt, params.p_tx_pt, n, params.sigma2),
                        rng, size)
    c_hat = np.log2(1.0 + g_hat * power / i_hat)
    interference = np.maximum(p_hat - params.sigma2, 0.0) / params.p_tx_pr * power
    return c_hat, interference


def _summarize(params: ScenarioParams, tau: float, blocks) -> McSummary:
    c_hat = np.concatenate([b[0] for b in blocks])
    outage = np.concatenate([b[1] for b in blocks]) > params.theta_i
    n = c_hat.size
    outage_rate = np.count_nonzero(outage) / n
    # per-block sums merged in block order, insensitive to partitioning
    mean_c = math.fsum(float(np.sum(b[0])) for b in blocks) / n
    outage_se = float(np.std(outage.astype(float), ddof=1)) / math.sqrt(n)
    c_se = float(np.std(c_hat, ddof=1)) / math.sqrt(n)
    pf = prefactor(params, tau)
    return McSummary(
        n_trials=n, tau=tau, outage_rate=outage_rate, outage_se=outage_se,
        mean_capacity=mean_c, capacity_se=c_se,
        mean_throughput=pf * mean_c, throughput_se=pf * c_se, c_hat=c_hat)


def _run_trials(params: ScenarioParams, links: FadingLinks | None, tau: float,
                n_trials: int, seed: int, power: float) -> McSummary:
    if n_trials < 2:
        raise ValueError("need at least two trials")
    if not (power > 0.0 and math.isfinite(power)):
        raise ValueError("power must be finite and positive")
    blocks = [_block(params, links, tau, power, seed, j, size)
              for j, size in enumerate(_block_sizes(n_trials))]
    return _summarize(params, tau, blocks)


def run_trials_det(params: ScenarioParams, tau: float, n_trials: int, seed: int,
                   power: float) -> McSummary:
    """Simulate n_trials frames with deterministic link gains, the
    secondary transmitting at power (mW): a solved power rule's or a
    fixed one."""
    return _run_trials(params, None, tau, n_trials, seed, power)


def run_trials_fading(params: ScenarioParams, links: FadingLinks, tau: float,
                      n_trials: int, seed: int, power: float) -> McSummary:
    """Simulate n_trials frames with Nakagami link gains, fresh per frame,
    the secondary transmitting at power, as in run_trials_det."""
    return _run_trials(params, links, tau, n_trials, seed, power)


def ks_distance(sorted_samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between sorted draws and a CDF callable.

    The samples must be sorted ascending and cdf nondecreasing; cdf is
    called on arrays of samples. The distance is max over i of
    max((i + 1) / n - F(x_i), F(x_i) - i / n), bit for bit, but F is
    evaluated only where that maximum can still be. Between indices l < r
    with F known at both, monotonicity bounds every deviation inside by
    max(r / n - F(x_l), F(x_r) - (l + 1) / n), so only the intervals whose
    bound reaches the largest deviation found so far (less a 1e-12 margin)
    are split at their midpoints, all of a round's midpoints in one cdf
    call. A NaN from cdf at an evaluated point gives a NaN distance.
    """
    n = sorted_samples.size
    if n < 1:
        raise ValueError("need at least one sample")
    f = np.empty(n)
    lo, hi = np.array([0]), np.array([n - 1])
    new = np.unique([0, n - 1])
    best = -math.inf
    while True:
        f[new] = np.asarray(cdf(sorted_samples[new]), dtype=float)
        dev = float(np.max(np.maximum((new + 1) / n - f[new], f[new] - new / n)))
        if math.isnan(dev):
            return math.nan
        best = max(best, dev)
        bound = np.maximum(hi / n - f[lo], f[hi] - (lo + 1) / n)
        split = (hi - lo >= 2) & (bound > best - 1e-12)
        if not split.any():
            return best
        lo, hi = lo[split], hi[split]
        new = (lo + hi) // 2
        lo, hi = np.concatenate([lo, new]), np.concatenate([new, hi])

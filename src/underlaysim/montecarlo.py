"""Monte Carlo oracle for the analytic layer.

Every trial replays one frame end to end through the exact laws, with no
gamma surrogates anywhere: the receive-power, pilot-gain, and interference
estimates are each drawn from their own scaled noncentral chi-square law
by numpy's exact generator (dists.sample_ncx2), the power rule is applied,
and the trial records what the primary would have experienced. Summaries
then carry everything the analytic side predicts: outage rate, mean
estimated capacity, throughput, and sorted samples for distribution-level
comparisons.

Reproducibility discipline: trials are grouped in fixed blocks of 4096 and
block j draws from Generator(Philox(SeedSequence(seed, spawn_key=(j,)))).
Within a block the draw order is fixed (fading gains first where present,
then receive-power, pilot, interference). Results are merged in block order
with compensated summation, so splitting the blocks across workers, or any
other partition, reproduces a single-process run bit for bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dists import (interference_power_law, pilot_gain_law, received_power_law,
                    sample_nakagami, sample_ncx2)
from .power_control import (FadingLinks, Regime, ScenarioParams,
                            controlled_power_det, controlled_power_fading,
                            samples_for)
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
    """Aggregates of a run plus sorted samples for CDF-level checks."""

    n_trials: int
    seed: int
    tau: float
    p_used: float
    regime: Regime | None
    outage_rate: float
    outage_se: float
    mean_capacity: float
    capacity_se: float
    mean_throughput: float
    throughput_se: float
    p_hat_sorted: np.ndarray
    c_hat_sorted: np.ndarray


def _rng_for_block(seed: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(block),))
    return np.random.Generator(np.random.Philox(ss))


def _block_sizes(n_trials: int) -> list[int]:
    full, rem = divmod(n_trials, BLOCK)
    return [BLOCK] * full + ([rem] if rem else [])


def _block(args):
    """One block's receive-power estimates, estimated capacities and
    interference at the PR. links None stands for fixed link gains."""
    params, links, tau, p_used, seed, block, size = args
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
    c_hat = np.log2(1.0 + g_hat * p_used / i_hat)
    interference = np.maximum(p_hat - params.sigma2, 0.0) / params.p_tx_pr * p_used
    return p_hat, c_hat, interference


def _summarize(params: ScenarioParams, tau: float, p_used: float,
               regime: Regime | None, seed: int, blocks) -> McSummary:
    p_hat = np.concatenate([b[0] for b in blocks])
    c_hat = np.concatenate([b[1] for b in blocks])
    interference = np.concatenate([b[2] for b in blocks])
    n = p_hat.size
    outage = interference > params.theta_i
    # per-block partials merged in block order, insensitive to partitioning
    outage_count = math.fsum(float(np.sum(b[2] > params.theta_i)) for b in blocks)
    c_sum = math.fsum(float(np.sum(b[1])) for b in blocks)
    outage_rate = outage_count / n
    mean_c = c_sum / n
    outage_se = float(np.std(outage.astype(float), ddof=1)) / math.sqrt(n)
    c_se = float(np.std(c_hat, ddof=1)) / math.sqrt(n)
    pf = prefactor(params, tau)
    return McSummary(
        n_trials=n, seed=seed, tau=tau, p_used=p_used, regime=regime,
        outage_rate=outage_rate, outage_se=outage_se,
        mean_capacity=mean_c, capacity_se=c_se,
        mean_throughput=pf * mean_c, throughput_se=pf * c_se,
        p_hat_sorted=np.sort(p_hat), c_hat_sorted=np.sort(c_hat))


def _run_trials(params: ScenarioParams, links: FadingLinks | None, tau: float,
                n_trials: int, seed: int, fixed_power: float | None,
                jobs: int) -> McSummary:
    if n_trials < 2:
        raise ValueError("need at least two trials")
    if fixed_power is None:
        pc = (controlled_power_det(params, tau) if links is None
              else controlled_power_fading(params, links.pr_st, tau))
        p_used, regime = pc.p_cont, pc.regime
    else:
        if not (fixed_power > 0.0 and math.isfinite(fixed_power)):
            raise ValueError("fixed_power must be finite and positive")
        p_used, regime = float(fixed_power), None
    tasks = [(params, links, tau, p_used, seed, j, size)
             for j, size in enumerate(_block_sizes(n_trials))]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            blocks = list(pool.map(_block, tasks))
    else:
        blocks = [_block(t) for t in tasks]
    return _summarize(params, tau, p_used, regime, seed, blocks)


def run_trials_det(params: ScenarioParams, tau: float, n_trials: int, seed: int,
                   fixed_power: float | None = None, jobs: int = 1) -> McSummary:
    """Simulate n_trials frames with deterministic link gains.

    fixed_power bypasses the power rule (the transmitter just uses that
    power); otherwise the outage-constrained rule supplies it.
    """
    return _run_trials(params, None, tau, n_trials, seed, fixed_power, jobs)


def run_trials_fading(params: ScenarioParams, links: FadingLinks, tau: float,
                      n_trials: int, seed: int, fixed_power: float | None = None,
                      jobs: int = 1) -> McSummary:
    """Simulate n_trials frames with Nakagami link gains, fresh per frame."""
    return _run_trials(params, links, tau, n_trials, seed, fixed_power, jobs)


def ks_distance(sorted_samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between sorted draws and a CDF callable."""
    n = sorted_samples.size
    if n < 1:
        raise ValueError("need at least one sample")
    f = np.asarray(cdf(sorted_samples), dtype=float)
    steps_hi = np.arange(1, n + 1) / n
    steps_lo = np.arange(0, n) / n
    return float(max(np.max(steps_hi - f), np.max(f - steps_lo)))

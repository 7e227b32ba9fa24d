"""Monte Carlo harness: reproducibility, partitioning, bookkeeping.

Statistical agreement with the analytic layer is exercised by the
acceptance tests; here the focus is that the harness itself is exact:
fixed seeds give fixed outputs, the order blocks are computed in never
changes a result, and the summaries are faithful to the raw trials.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from underlaysim import cli, montecarlo
from underlaysim.montecarlo import (BLOCK, _block, _block_sizes, _summarize,
                                    ks_distance, run_trials_det, run_trials_fading)
from underlaysim.power_control import (controlled_power_det, controlled_power_fading,
                                       default_fading)
from underlaysim.throughput import prefactor

SEED = 20250311
# the m = 1 fading rule's power at 1 ms on the default scenario (mW)
FADING_POWER = 0.04336161078437545


def test_block_sizes_partition_the_trial_count():
    for n in [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 123]:
        sizes = _block_sizes(n)
        assert sum(sizes) == n
        assert all(s == BLOCK for s in sizes[:-1])
        assert 0 < sizes[-1] <= BLOCK


def _blocks_in_reverse(params, links, tau, n, power):
    """The run's blocks computed last first, then put back in block order."""
    sizes = list(enumerate(_block_sizes(n)))
    done = {j: _block(params, links, tau, power, SEED, j, size)
            for j, size in reversed(sizes)}
    return _summarize(params, tau, [done[j] for j, _ in sizes])


def _assert_same_run(merged, run):
    assert np.array_equal(merged.c_hat, run.c_hat)
    assert merged.mean_capacity == run.mean_capacity
    assert merged.outage_rate == run.outage_rate


def test_partitioning_does_not_change_results(defaults):
    n = 3 * BLOCK + 123
    power = controlled_power_det(defaults, 1e-4).p_cont
    _assert_same_run(_blocks_in_reverse(defaults, None, 1e-4, n, power),
                     run_trials_det(defaults, 1e-4, n, SEED, power))


def test_fading_partitioning_matches_single_process(defaults):
    links = default_fading(defaults, 1.0)
    n = BLOCK + 77
    _assert_same_run(_blocks_in_reverse(defaults, links, 1e-4, n, FADING_POWER),
                     run_trials_fading(defaults, links, 1e-4, n, SEED, FADING_POWER))


def test_seed_controls_the_draws(defaults):
    a = run_trials_det(defaults, 1e-4, 5000, SEED, 0.025)
    b = run_trials_det(defaults, 1e-4, 5000, SEED, 0.025)
    c = run_trials_det(defaults, 1e-4, 5000, SEED + 1, 0.025)
    assert np.array_equal(a.c_hat, b.c_hat)
    assert a.outage_rate == b.outage_rate
    assert not np.array_equal(a.c_hat, c.c_hat)


def test_power_rule_feeds_the_simulation(defaults):
    # the rule calibrates the simulated outage to the budget
    res = run_trials_det(defaults, 1e-3, 20_000, SEED,
                         controlled_power_det(defaults, 1e-3).p_cont)
    assert abs(res.outage_rate - defaults.rho_out) <= 5.0 * res.outage_se


def test_power_and_trial_count_are_checked(defaults):
    links = default_fading(defaults, 1.0)
    for power in (0.0, -0.025, math.nan, math.inf):
        with pytest.raises(ValueError, match="power must be finite and positive"):
            run_trials_det(defaults, 1e-3, 3000, SEED, power)
        with pytest.raises(ValueError, match="power must be finite and positive"):
            run_trials_fading(defaults, links, 1e-3, 3000, SEED, power)
    with pytest.raises(ValueError, match="two trials"):
        run_trials_det(defaults, 1e-3, 1, SEED, 0.025)


def test_summary_is_faithful_to_the_trials(defaults):
    n = 200
    power = controlled_power_det(defaults, 1e-3).p_cont
    res = run_trials_det(defaults, 1e-3, n, SEED, power)
    c_hat, interference = _block(defaults, None, 1e-3, power, SEED, 0, n)
    assert res.n_trials == n
    assert res.tau == 1e-3
    assert np.array_equal(res.c_hat, c_hat)
    outage = interference > defaults.theta_i
    assert 0 < outage.sum() < n
    assert outage.mean() == pytest.approx(res.outage_rate, abs=1e-15)
    assert res.outage_se == pytest.approx(
        np.std(outage.astype(float), ddof=1) / math.sqrt(n), rel=1e-12)
    assert res.mean_capacity == pytest.approx(c_hat.mean(), rel=1e-12)
    assert res.capacity_se == pytest.approx(
        np.std(c_hat, ddof=1) / math.sqrt(n), rel=1e-12)
    # summaries derive from one another
    assert res.mean_throughput == prefactor(defaults, 1e-3) * res.mean_capacity
    assert res.throughput_se == prefactor(defaults, 1e-3) * res.capacity_se


def test_random_streams_are_pinned(defaults):
    # exact values of both random streams over two blocks; any change to
    # the draw order or to a noncentrality expression moves them
    det = run_trials_det(defaults, 1e-3, 5000, SEED,
                         controlled_power_det(defaults, 1e-3).p_cont)
    assert det.outage_rate == 0.096
    assert det.mean_capacity == 2.474082118573879
    links = default_fading(defaults, 1.0)
    fading = run_trials_fading(defaults, links, 1e-3, 5000, SEED,
                               controlled_power_fading(defaults, links.pr_st, 1e-3).p_cont)
    assert fading.outage_rate == 0.1024
    assert fading.mean_capacity == 1.530788690614351
    # the stream itself, at a power fixed apart from the power rule
    fixed = run_trials_fading(defaults, links, 1e-3, 5000, SEED, FADING_POWER)
    assert fixed.outage_rate == 0.1024
    assert fixed.mean_capacity == 1.5307886894483265


def test_fading_uses_its_power_rule(defaults):
    # the fading rule's power calibrates the two-layer simulated outage
    links = default_fading(defaults, 1.0)
    pc = controlled_power_fading(defaults, links.pr_st, 1e-3)
    assert pc.p_cont < defaults.p_full
    res = run_trials_fading(defaults, links, 1e-3, 4000, SEED, pc.p_cont)
    assert abs(res.outage_rate - defaults.rho_out) <= 5.0 * res.outage_se


def test_ks_distance_hand_value():
    samples = np.array([0.25, 0.5, 0.75])
    assert ks_distance(samples, lambda x: x) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ValueError):
        ks_distance(np.array([]), lambda x: x)


def _ks_full(sorted_samples, cdf):
    """The KS distance from the CDF at every sample: the oracle."""
    n = sorted_samples.size
    f = np.asarray(cdf(sorted_samples), dtype=float)
    steps_hi = np.arange(1, n + 1) / n
    steps_lo = np.arange(0, n) / n
    return float(max(np.max(steps_hi - f), np.max(f - steps_lo)))


_CDFS = {
    "normal": scipy.special.ndtr,
    "steep": lambda x: scipy.special.ndtr((x - 0.3) / 1e-3),
    "flat": lambda x: scipy.special.ndtr(x / 1e3),
    "constant": lambda x: np.full(np.shape(x), 0.4),
    "step": lambda x: (x >= 0.0).astype(float),
}


@given(values=st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 0.3, 2.0]),
                                 st.floats(-5.0, 5.0)), min_size=1, max_size=50),
       cdf=st.sampled_from(sorted(_CDFS)))
@settings(deadline=None, max_examples=200)
def test_ks_distance_equals_the_full_formula_on_small_samples(values, cdf):
    x = np.sort(np.array(values))
    assert ks_distance(x, _CDFS[cdf]) == _ks_full(x, _CDFS[cdf])


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20_000),
       decimals=st.sampled_from([None, 1, 3]), cdf=st.sampled_from(sorted(_CDFS)))
@settings(deadline=None, max_examples=100)
def test_ks_distance_equals_the_full_formula_on_large_samples(seed, n, decimals, cdf):
    # rounding the draws makes ties
    x = np.random.default_rng(seed).normal(size=n)
    x = np.sort(x if decimals is None else np.round(x, decimals))
    assert ks_distance(x, _CDFS[cdf]) == _ks_full(x, _CDFS[cdf])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("cdf", sorted(_CDFS))
def test_ks_distance_equals_the_full_formula_on_one_to_three_samples(n, cdf):
    for values in itertools.product([-1.0, 0.0, 0.3, 2.0], repeat=n):
        x = np.sort(np.array(values))
        assert ks_distance(x, _CDFS[cdf]) == _ks_full(x, _CDFS[cdf])


def test_ks_distance_is_nan_at_a_nan_cdf_value():
    x = np.linspace(0.0, 1.0, 1001)
    for bad in (x[0], x[-1], x[500]):
        assert math.isnan(ks_distance(x, lambda v: np.where(v == bad, math.nan, v)))


def test_ks_distance_on_the_validate_draws_sees_a_tenth_of_the_cdf(monkeypatch):
    # check 8 of validate: 20 000 capacity draws against the capacity law
    points, sizes = [], []

    def counting_ks(sorted_samples, cdf):
        def counted(x):
            points.append(np.size(x))
            return cdf(x)

        got = ks_distance(sorted_samples, counted)
        assert got == _ks_full(sorted_samples, cdf)
        sizes.append(sorted_samples.size)
        return got

    monkeypatch.setattr(montecarlo, "ks_distance", counting_ks)
    name, ok, _, _ = next(itertools.islice(cli._validate_checks(cli.default_config()), 7, None))
    assert name == "capacity law KS vs exact draws" and ok
    assert sizes == [20_000]
    assert sum(points) <= 2_000

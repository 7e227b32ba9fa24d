"""Monte Carlo harness: reproducibility, partitioning, bookkeeping.

Statistical agreement with the analytic layer is exercised by the
acceptance tests; here the focus is that the harness itself is exact:
fixed seeds give fixed outputs, worker partitioning never changes a
result, and the summaries are faithful to the raw trials.
"""

import math

import numpy as np
import pytest

from underlaysim.montecarlo import (BLOCK, McSummary, _block_sizes,
                                    _fading_block, ks_distance,
                                    run_trials_det, run_trials_fading)
from underlaysim.power_control import (Regime, controlled_power_det,
                                       default_fading)
from underlaysim.throughput import prefactor

SEED = 20250311


def test_block_sizes_partition_the_trial_count():
    for n in [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 123]:
        sizes = _block_sizes(n)
        assert sum(sizes) == n
        assert all(s == BLOCK for s in sizes[:-1])
        assert 0 < sizes[-1] <= BLOCK


def test_partitioning_does_not_change_results(defaults):
    n = 3 * BLOCK + 123
    runs = [run_trials_det(defaults, 1e-4, n, SEED, jobs=j) for j in [1, 2, 3]]
    base = runs[0]
    for other in runs[1:]:
        assert other.outage_rate == base.outage_rate
        assert other.mean_capacity == base.mean_capacity
        assert other.mean_throughput == base.mean_throughput
        assert np.array_equal(other.p_hat_sorted, base.p_hat_sorted)
        assert np.array_equal(other.c_hat_sorted, base.c_hat_sorted)


def test_seed_controls_the_draws(defaults):
    a = run_trials_det(defaults, 1e-4, 5000, SEED)
    b = run_trials_det(defaults, 1e-4, 5000, SEED)
    c = run_trials_det(defaults, 1e-4, 5000, SEED + 1)
    assert np.array_equal(a.c_hat_sorted, b.c_hat_sorted)
    assert a.outage_rate == b.outage_rate
    assert not np.array_equal(a.c_hat_sorted, c.c_hat_sorted)


def test_power_rule_feeds_the_simulation(defaults):
    res = run_trials_det(defaults, 1e-3, 20_000, SEED)
    pc = controlled_power_det(defaults, 1e-3)
    assert res.p_used == pc.p_cont
    assert res.regime is Regime.INTERFERENCE_LIMITED
    # the rule calibrates the outage to the budget
    assert abs(res.outage_rate - defaults.rho_out) <= 5.0 * res.outage_se


def test_fixed_power_bypasses_the_rule(defaults):
    res = run_trials_det(defaults, 1e-3, 3000, SEED, fixed_power=0.025)
    assert res.p_used == 0.025
    assert res.regime is None
    with pytest.raises(ValueError):
        run_trials_det(defaults, 1e-3, 3000, SEED, fixed_power=0.0)
    with pytest.raises(ValueError):
        run_trials_det(defaults, 1e-3, 1, SEED)


def test_summary_is_faithful_to_the_trials(defaults):
    n = 200
    res = run_trials_det(defaults, 1e-3, n, SEED, keep_records=n)
    assert len(res.records) == n
    assert res.n_trials == n
    flags = [r.outage for r in res.records]
    assert sum(flags) / n == pytest.approx(res.outage_rate, abs=1e-15)
    assert np.allclose(np.sort([r.c_hat for r in res.records]), res.c_hat_sorted)
    for r in res.records:
        assert r.p_used == res.p_used
        assert r.gains is None
        want = max(r.p_hat - defaults.sigma2, 0.0) / defaults.p_tx_pr * res.p_used
        assert r.interference_at_pr == pytest.approx(want, rel=1e-12)
        assert r.outage == (r.interference_at_pr > defaults.theta_i)
    # summaries derive from one another
    assert res.mean_throughput == prefactor(defaults, 1e-3) * res.mean_capacity
    assert res.throughput_se == prefactor(defaults, 1e-3) * res.capacity_se


def test_record_cap(defaults):
    res = run_trials_det(defaults, 1e-3, 500, SEED, keep_records=40)
    assert len(res.records) == 40


def test_fading_records_carry_gains(defaults):
    links = default_fading(defaults, 1.0)
    res = run_trials_fading(defaults, links, 1e-3, 300, SEED, keep_records=50)
    assert len(res.records) == 50
    for r in res.records:
        assert r.gains is not None and len(r.gains) == 3
        assert all(g > 0.0 for g in r.gains)


def test_fading_records_span_blocks(defaults):
    # records past the first block carry that block's own gains
    links = default_fading(defaults, 1.0)
    n = BLOCK + 100
    one = run_trials_fading(defaults, links, 1e-3, n, SEED, jobs=1, keep_records=n)
    two = run_trials_fading(defaults, links, 1e-3, n, SEED, jobs=2, keep_records=n)
    assert len(one.records) == n
    assert one.records == two.records
    for blk, start in [(0, 0), (1, BLOCK)]:
        size = min(BLOCK, n - start)
        p_hat, _, _, gains = _fading_block(
            (defaults, links, 1e-3, one.p_used, SEED, blk, size))
        for i in (0, size - 1):
            r = one.records[start + i]
            assert r.gains == tuple(float(g) for g in gains[i])
            assert r.p_hat == p_hat[i]


def test_fading_partitioning_matches_single_process(defaults):
    links = default_fading(defaults, 1.0)
    n = BLOCK + 77
    one = run_trials_fading(defaults, links, 1e-4, n, SEED, jobs=1)
    two = run_trials_fading(defaults, links, 1e-4, n, SEED, jobs=2)
    assert one.outage_rate == two.outage_rate
    assert np.array_equal(one.c_hat_sorted, two.c_hat_sorted)


def test_fading_uses_its_power_rule(defaults):
    links = default_fading(defaults, 1.0)
    res = run_trials_fading(defaults, links, 1e-3, 4000, SEED)
    assert res.regime is Regime.INTERFERENCE_LIMITED
    assert res.p_used < defaults.p_full


def test_ks_distance_hand_value():
    samples = np.array([0.25, 0.5, 0.75])
    assert ks_distance(samples, lambda x: x) == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(ValueError):
        ks_distance(np.array([]), lambda x: x)

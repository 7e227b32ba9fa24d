"""Distribution layer: surrogate matching, samplers, capacity laws.

Cross-checks lean on scipy.stats where a textbook law exists (noncentral
chi-square, beta prime) and on brute-force moments elsewhere.
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from underlaysim.dists import (CapacityDist, GammaApprox, NakagamiGain,
                               NcChiSq, capacity_cdf, capacity_pdf,
                               gamma_match, interference_power_law,
                               nakagami_gain_cdf, nakagami_gain_quantile,
                               pilot_gain_law, received_power_law,
                               sample_nakagami, sample_ncx2)
from underlaysim.montecarlo import ks_distance

SIGMA2 = 1e-10


# ---------------------------------------------------------------- surrogate

@given(dof=st.integers(1, 5000), nc=st.floats(0.0, 5000.0),
       scale=st.floats(1e-12, 1e3))
@settings(deadline=None, max_examples=100)
def test_gamma_match_preserves_first_two_moments(dof, nc, scale):
    law = NcChiSq(dof=dof, noncentrality=nc, noise_scale=scale)
    sur = gamma_match(law)
    assert sur.mean == pytest.approx(law.mean, rel=1e-12)
    assert sur.variance == pytest.approx(law.variance, rel=1e-12)


def test_gamma_match_worked_values():
    # 1000 samples at unit received SNR: shape 2000/3, scale 3e-3 * noise
    law = NcChiSq(dof=1000, noncentrality=1000.0, noise_scale=SIGMA2 / 1000.0)
    sur = gamma_match(law)
    assert sur.shape == pytest.approx(2000.0 / 3.0, rel=1e-12)
    assert sur.scale == pytest.approx(0.003 * SIGMA2, rel=1e-12)
    # central case collapses to a plain chi-square in gamma form
    c = gamma_match(NcChiSq(dof=2, noncentrality=0.0, noise_scale=SIGMA2))
    assert c.shape == pytest.approx(1.0, rel=1e-12)
    assert c.scale == pytest.approx(2.0 * SIGMA2, rel=1e-12)


def _as_pair(approx):
    return approx.shape, approx.scale


def test_array_laws_match_scalar_calls():
    # each law on arrays gives the per-element numbers bit for bit, for
    # whole and continuous sample counts alike (the root searches over the
    # window length pass a continuous count)
    n = np.array([1.0, 2.0, 7.0, 1000.0, 2740.0, 1.5, 37.25, 2739.9])
    snr = np.array([0.0, 3.2, 0.5, 1.0, 0.01, 0.1, 1.0, 10.0])
    gain = np.array([1e-12, 1e-10, 3e-9, 1e-8, 2e-7, 5e-11, 1e-9, 4e-8])
    shape, scale = _as_pair(gamma_match(NcChiSq(n, n * snr, SIGMA2 / n)))
    for k in range(n.size):
        scalar = gamma_match(NcChiSq(float(n[k]), float(n[k] * snr[k]),
                                     float(SIGMA2 / n[k])))
        assert (shape[k], scale[k]) == _as_pair(scalar)
    builders = [
        (lambda g, m: received_power_law(g / SIGMA2, m, SIGMA2)),
        (lambda g, m: pilot_gain_law(g, m, SIGMA2)),
        (lambda g, m: interference_power_law(g, 0.7, m, SIGMA2)),
    ]
    for build in builders:
        law = build(gain, n)
        sur = gamma_match(law)
        for k in range(n.size):
            one = build(float(gain[k]), float(n[k]))
            assert (np.broadcast_to(law.dof, n.shape)[k], law.noncentrality[k],
                    law.noise_scale[k]) == (one.dof, one.noncentrality, one.noise_scale)
            assert (sur.shape[k], sur.scale[k]) == _as_pair(gamma_match(one))
    # both matched moments hold at continuous dof
    np.testing.assert_allclose(shape * scale, SIGMA2 / n * (n + n * snr), rtol=1e-14)
    np.testing.assert_allclose(shape * scale ** 2,
                               (SIGMA2 / n) ** 2 * (2.0 * n + 4.0 * n * snr),
                               rtol=1e-14)


def test_ncchisq_validation():
    with pytest.raises(ValueError):
        NcChiSq(dof=0, noncentrality=1.0, noise_scale=1.0)
    with pytest.raises(ValueError):
        NcChiSq(dof=2, noncentrality=-0.1, noise_scale=1.0)
    with pytest.raises(ValueError):
        NcChiSq(dof=2, noncentrality=0.0, noise_scale=0.0)
    with pytest.raises(ValueError):
        GammaApprox(shape=-1.0, scale=1.0)


_GOOD = np.array([1.0, 2.0, 3.0])


def _one_bad(value):
    out = _GOOD.copy()
    out[1] = value
    return out


@pytest.mark.parametrize("make, bad, message", [
    (lambda v: NcChiSq(v, _GOOD, _GOOD), 0.5, "dof must be a positive integer"),
    (lambda v: NcChiSq(_GOOD, v, _GOOD), -0.1, "noncentrality must be finite and nonnegative"),
    (lambda v: NcChiSq(_GOOD, v, _GOOD), np.inf, "noncentrality must be finite and nonnegative"),
    (lambda v: NcChiSq(_GOOD, _GOOD, v), 0.0, "noise_scale must be finite and positive"),
    (lambda v: NcChiSq(_GOOD, _GOOD, v), np.nan, "noise_scale must be finite and positive"),
    (lambda v: GammaApprox(v, _GOOD), np.inf, "shape must be finite and positive"),
    (lambda v: GammaApprox(v, _GOOD), -1.0, "shape must be finite and positive"),
    (lambda v: GammaApprox(_GOOD, v), np.nan, "scale must be finite and positive"),
    (lambda v: GammaApprox(_GOOD, v), 0.0, "scale must be finite and positive"),
    (lambda v: CapacityDist(GammaApprox(_GOOD, _GOOD), GammaApprox(_GOOD, _GOOD), v),
     0.0, "tx_power must be finite and positive"),
    (lambda v: CapacityDist(GammaApprox(_GOOD, _GOOD), GammaApprox(_GOOD, _GOOD), v),
     np.inf, "tx_power must be finite and positive"),
    (lambda v: received_power_law(v, _GOOD, SIGMA2), -0.1, "snr must be finite and nonnegative"),
    (lambda v: received_power_law(_GOOD, v, SIGMA2), 0.5, "n_samples must be a positive integer"),
    (lambda v: pilot_gain_law(v, _GOOD, SIGMA2), 0.0, "mean_gain must be finite and positive"),
    (lambda v: pilot_gain_law(_GOOD, v, SIGMA2), np.nan,
     "pilot_samples must be a positive integer"),
    (lambda v: interference_power_law(v, _GOOD, _GOOD, SIGMA2), np.nan,
     "gain must be finite and nonnegative"),
    (lambda v: interference_power_law(_GOOD, v, _GOOD, SIGMA2), 0.0,
     "tx_power must be finite and positive"),
    (lambda v: interference_power_law(_GOOD, _GOOD, v, SIGMA2), np.inf,
     "n_samples must be a positive integer"),
])
def test_array_with_one_bad_element_raises_scalar_message(make, bad, message):
    # law fields and builder arguments alike
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(float(bad))
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(_one_bad(bad))
    make(_GOOD)  # the same call on good elements passes


def test_gamma_match_overflow_fails_the_shape_check():
    # an overflowing match is reported by GammaApprox, with no numpy warning
    # (the suite turns RuntimeWarning into an error)
    for n in (1000.0, np.full(2, 1000.0)):
        with pytest.raises(ValueError, match="^shape must be finite and positive$"):
            gamma_match(received_power_law(1e300, n, SIGMA2))


# ----------------------------------------------------------------- sampler

def test_sample_ncx2_moments_central():
    rng = np.random.default_rng(7)
    law = NcChiSq(dof=2, noncentrality=0.0, noise_scale=1.0)
    x = sample_ncx2(law, rng, 1_000_000)
    se_mean = math.sqrt(law.variance / x.size)
    assert x.mean() == pytest.approx(law.mean, abs=5 * se_mean)
    assert x.var() == pytest.approx(law.variance, rel=0.02)
    assert np.all(x >= 0.0)


def test_sample_ncx2_moments_noncentral():
    rng = np.random.default_rng(8)
    law = NcChiSq(dof=37, noncentrality=11.3, noise_scale=0.25)
    x = sample_ncx2(law, rng, 1_000_000)
    se_mean = math.sqrt(law.variance / x.size)
    assert x.mean() == pytest.approx(law.mean, abs=5 * se_mean)
    assert x.var() == pytest.approx(law.variance, rel=0.02)


@pytest.mark.parametrize("gamma_db", [-10.0, 0.0, 10.0])
@pytest.mark.parametrize("n", [100, 1000, 10000])
def test_sampler_agrees_with_ncx2_cdf(gamma_db, n):
    gamma = 10.0 ** (gamma_db / 10.0)
    law = received_power_law(gamma, n, SIGMA2)
    rng = np.random.default_rng(1234 + n)
    x = np.sort(sample_ncx2(law, rng, 100_000))
    # exact noncentral chi-square CDF on the physical power scale
    ref = scipy.stats.ncx2(df=law.dof, nc=law.noncentrality,
                           scale=law.noise_scale)
    assert ks_distance(x, ref.cdf) <= 0.02


# The signal model the estimators perform: each variate sums dof squared
# unit Gaussians shifted by delta (a scalar or one shift per row). It costs
# dof normals per variate, so it serves only as an oracle for the
# closed-form generator that sample_ncx2 and the Monte Carlo blocks use.
def _shifted_square_sums(rng, dof, delta, noise_scale, n):
    out = np.empty(n)
    delta = np.broadcast_to(np.asarray(delta, dtype=float), (n,))
    rows = max(1, (1 << 20) // dof)  # 8 MiB of normals at a time
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        z = rng.standard_normal((stop - start, dof)) + delta[start:stop, None]
        out[start:stop] = noise_scale * np.einsum("ij,ij->i", z, z)
    return out


def test_sampler_matches_signal_model_receive_power():
    # det receive-power estimate at 1000 samples and unit SNR
    n = 1000
    law = received_power_law(1.0, n, SIGMA2)
    fast = sample_ncx2(law, np.random.default_rng(31), 50_000)
    slow = _shifted_square_sums(np.random.default_rng(32), n,
                                math.sqrt(law.noncentrality / n),
                                law.noise_scale, 50_000)
    assert scipy.stats.ks_2samp(fast, slow).statistic <= 0.02


def _unit_nakagami_gains(rng, size):
    return sample_nakagami(NakagamiGain(m=1.0, mean_gain=1.0), rng, size)


def test_sampler_matches_signal_model_pilot_per_row():
    # dof = 2 pilot estimate whose noncentrality changes from row to row
    k, size = 10, 50_000
    x_st = 1e-8 * _unit_nakagami_gains(np.random.default_rng(41), size)
    law = pilot_gain_law(x_st, k, SIGMA2)
    fast = sample_ncx2(law, np.random.default_rng(42), size)
    slow = _shifted_square_sums(np.random.default_rng(43), 2,
                                np.sqrt(law.noncentrality / 2.0), SIGMA2 / k, size)
    assert scipy.stats.ks_2samp(fast, slow).statistic <= 0.02


def test_sampler_matches_signal_model_fading_receive_power():
    # dof = n with per-row shifts from Nakagami gains, as in a fading block
    n, size = 1000, 50_000
    snr = _unit_nakagami_gains(np.random.default_rng(51), size)
    fast = sample_ncx2(received_power_law(snr, n, SIGMA2), np.random.default_rng(52), size)
    slow = _shifted_square_sums(np.random.default_rng(53), n, np.sqrt(snr),
                                SIGMA2 / n, size)
    assert scipy.stats.ks_2samp(fast, slow).statistic <= 0.02


@pytest.mark.parametrize("nc", [0.5, 4.0])
def test_sampler_single_dof_agrees_with_ncx2_cdf(nc):
    # dof = 1 takes numpy's Poisson-mixture branch
    law = NcChiSq(dof=1, noncentrality=nc, noise_scale=2.0)
    x = np.sort(sample_ncx2(law, np.random.default_rng(61), 100_000))
    ref = scipy.stats.ncx2(df=1, nc=nc, scale=law.noise_scale)
    assert ks_distance(x, ref.cdf) <= 0.02


def test_sample_ncx2_rejects_empty():
    law = NcChiSq(dof=2, noncentrality=0.0, noise_scale=1.0)
    with pytest.raises(ValueError):
        sample_ncx2(law, np.random.default_rng(0), 0)


# ------------------------------------------------------------ law builders

def test_received_power_law_moments():
    n, gamma = 1000, 2.0
    law = received_power_law(gamma, n, SIGMA2)
    assert law.dof == n
    assert law.noncentrality == pytest.approx(n * gamma)
    assert law.noise_scale == pytest.approx(SIGMA2 / n)
    assert law.mean == pytest.approx(SIGMA2 * (1.0 + gamma), rel=1e-12)


def test_pilot_gain_law_moments():
    k, g = 10, 1e-8
    law = pilot_gain_law(g, k, SIGMA2)
    assert law.dof == 2
    assert law.noncentrality == pytest.approx(k * g / SIGMA2)
    assert law.mean == pytest.approx(g + 2.0 * SIGMA2 / k, rel=1e-12)


def test_interference_power_law_moments():
    n, g, p = 500, 1e-10, 1.0
    law = interference_power_law(g, p, n, SIGMA2)
    assert law.dof == n
    assert law.noncentrality == pytest.approx(n * g * p / SIGMA2)
    assert law.mean == pytest.approx(SIGMA2 + g * p, rel=1e-12)


def test_law_builder_domain_errors():
    with pytest.raises(ValueError):
        received_power_law(1.0, 0, SIGMA2)
    with pytest.raises(ValueError):
        received_power_law(-1.0, 100, SIGMA2)
    with pytest.raises(ValueError):
        pilot_gain_law(1e-8, 0, SIGMA2)
    with pytest.raises(ValueError):
        pilot_gain_law(1e-8, 10, 0.0)
    with pytest.raises(ValueError):
        interference_power_law(1e-10, -1.0, 100, SIGMA2)


# ------------------------------------------------------------ capacity law

def _capacity_case(n=1000, k=10, g_s=1e-8, g_i=1e-10, p=0.3):
    gain = gamma_match(pilot_gain_law(g_s, k, SIGMA2))
    interf = gamma_match(interference_power_law(g_i, 1.0, n, SIGMA2))
    return CapacityDist(gain_approx=gain, interf_approx=interf, tx_power=p)


def test_capacity_cdf_matches_betaprime():
    law = _capacity_case()
    a_s, a_i = law.gain_approx.shape, law.interf_approx.shape
    lam = law.ratio_scale
    ref = scipy.stats.betaprime(a_s, a_i)
    for x in [0.1, 0.5, 1.0, 2.0, 4.0, 8.0]:
        z = 2.0 ** x - 1.0
        assert capacity_cdf(law, x) == pytest.approx(ref.cdf(z / lam), rel=1e-9)


def test_capacity_pdf_matches_betaprime_transform():
    law = _capacity_case()
    a_s, a_i = law.gain_approx.shape, law.interf_approx.shape
    lam = law.ratio_scale
    ref = scipy.stats.betaprime(a_s, a_i)
    for x in [0.2, 1.0, 3.0, 6.0]:
        z = 2.0 ** x - 1.0
        want = ref.pdf(z / lam) / lam * (2.0 ** x) * math.log(2.0)
        assert capacity_pdf(law, x) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("p", [0.01, 0.3, 1.0])
@pytest.mark.parametrize("g_i", [1e-11, 1e-10, 1e-9])
def test_capacity_pdf_normalizes(p, g_i):
    law = _capacity_case(g_i=g_i, p=p)
    # density can be sharply peaked; point quad at the typical rate so it
    # cannot glide over the mass (beyond 64 bits the density underflows)
    typical = math.log2(1.0 + law.gain_approx.mean * law.tx_power
                        / law.interf_approx.mean)
    total = scipy.integrate.quad(lambda x: capacity_pdf(law, x),
                                 1e-12, 64.0, limit=400,
                                 points=[0.5 * typical, typical, 2.0 * typical])[0]
    assert total == pytest.approx(1.0, abs=1e-6)


def test_capacity_tails_and_domain():
    law = _capacity_case()
    assert capacity_pdf(law, 1e5) == 0.0
    assert capacity_cdf(law, 1e6) == 1.0
    assert capacity_cdf(law, -3.0) == 0.0
    with pytest.raises(ValueError):
        capacity_pdf(law, 0.0)
    with pytest.raises(ValueError):
        capacity_pdf(law, -1.0)


def test_capacity_vectorized_matches_scalar():
    law = _capacity_case()
    xs = np.array([0.3, 1.2, 2.7])
    vec = capacity_pdf(law, xs)
    assert vec.shape == xs.shape
    for i, x in enumerate(xs):
        assert vec[i] == pytest.approx(capacity_pdf(law, float(x)), rel=1e-13)


# ------------------------------------------------------------ fading gains

@given(m=st.floats(0.5, 50.0), mean=st.floats(1e-12, 1e3),
       q=st.floats(1e-6, 1.0 - 1e-9))
@settings(deadline=None, max_examples=100)
def test_nakagami_quantile_round_trip(m, mean, q):
    gain = NakagamiGain(m=m, mean_gain=mean)
    x = nakagami_gain_quantile(gain, q)
    assert nakagami_gain_cdf(gain, x) == pytest.approx(q, abs=1e-9)


def test_nakagami_cdf_known_exponential():
    # m = 1 is an exponential power gain
    gain = NakagamiGain(m=1.0, mean_gain=2.0)
    assert nakagami_gain_cdf(gain, 2.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
    assert nakagami_gain_quantile(gain, 0.0) == 0.0


def test_nakagami_sampler_moments_and_ks():
    gain = NakagamiGain(m=2.5, mean_gain=3.0)
    rng = np.random.default_rng(99)
    x = np.sort(sample_nakagami(gain, rng, 200_000))
    assert x.mean() == pytest.approx(3.0, rel=0.01)
    # gamma with shape m has variance mean^2 / m
    assert x.var() == pytest.approx(9.0 / 2.5, rel=0.03)
    assert ks_distance(x, lambda v: nakagami_gain_cdf(gain, v)) <= 0.01


def test_nakagami_validation():
    with pytest.raises(ValueError):
        NakagamiGain(m=0.4, mean_gain=1.0)
    with pytest.raises(ValueError):
        NakagamiGain(m=1.0, mean_gain=0.0)
    gain = NakagamiGain(m=1.0, mean_gain=1.0)
    with pytest.raises(ValueError):
        nakagami_gain_quantile(gain, 1.0)
    with pytest.raises(ValueError):
        nakagami_gain_quantile(gain, -0.01)

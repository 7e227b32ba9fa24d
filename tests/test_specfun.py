"""Special-function layer against independent references.

The reference implementations at the top are deliberately naive: an
ascending power series and a modified-Lentz continued fraction, written
from the textbook recurrences with no shared code with the library path
they check. Slow but honest. find_root is checked against
scipy.optimize.brentq, which the package itself does not import.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from underlaysim import dists, specfun
from underlaysim.specfun import (BracketError, ConvergenceError, find_root,
                                 inv_reg_upper_gamma, panel_rule,
                                 reg_upper_gamma)


def _lower_series(a: float, x: float) -> float:
    # P(a, x) by the ascending series; valid for x < a + 1
    term = 1.0 / a
    total = term
    k = a
    for _ in range(100000):
        k += 1.0
        term *= x / k
        total += term
        if abs(term) < abs(total) * 1e-17:
            break
    return math.exp(a * math.log(x) - x - math.lgamma(a)) * total


def _upper_lentz(a: float, x: float) -> float:
    # Q(a, x) by the continued fraction; valid for x >= a + 1
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, 100000):
        coeff = -i * (i - a)
        b += 2.0
        d = coeff * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + coeff / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def q_reference(a: float, x: float) -> float:
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _lower_series(a, x)
    return _upper_lentz(a, x)


A_GRID = [0.5, 1.0, 2.0, 10.0, 100.0, 5000.0]


@pytest.mark.parametrize("a", A_GRID)
@pytest.mark.parametrize("ratio", [0.1, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0])
def test_upper_gamma_matches_reference(a, ratio):
    x = a * ratio
    got = reg_upper_gamma(a, x)
    want = q_reference(a, x)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-280)


def test_upper_gamma_edges():
    assert reg_upper_gamma(3.0, 0.0) == 1.0
    assert reg_upper_gamma(1.0, 2.5) == pytest.approx(math.exp(-2.5), rel=1e-12)
    # decreasing in x
    xs = np.linspace(0.0, 30.0, 200)
    vals = reg_upper_gamma(4.2, xs)
    assert np.all(np.diff(vals) <= 0.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


@pytest.mark.parametrize("a", A_GRID)
@pytest.mark.parametrize("rho", [0.01, 0.1, 0.5, 0.9, 0.99])
def test_inverse_round_trip(a, rho):
    x = inv_reg_upper_gamma(rho, a)
    assert x > 0.0
    assert reg_upper_gamma(a, x) == pytest.approx(rho, rel=1e-9)
    assert inv_reg_upper_gamma(reg_upper_gamma(a, x), a) == pytest.approx(x, rel=1e-9)


# the iteration's region, as specfun states it
_REGION_A = (2.0, 1e8)
_REGION_RHO = (1e-20, 0.5)


def _seeded_region_pairs(n: int, seed: int):
    """n (rho, a) pairs log-uniform over the region, its four corners first."""
    rng = np.random.default_rng(seed)
    corners_a, corners_rho = np.meshgrid(_REGION_A, _REGION_RHO)
    rho = np.exp(rng.uniform(*np.log(_REGION_RHO), n - 4))
    a = np.exp(rng.uniform(*np.log(_REGION_A), n - 4))
    return np.r_[corners_rho.ravel(), rho], np.r_[corners_a.ravel(), a]


def test_inverse_matches_scipy_on_a_seeded_table_of_the_region():
    # both inverses carry gammaincc's own error near the root: 6.1e-15 is
    # the largest difference measured, on 3 million seeded points
    rho, a = _seeded_region_pairs(120_000, 27)
    x = inv_reg_upper_gamma(rho, a)
    want = scipy.special.gammainccinv(a, rho)
    assert np.max(np.abs(x / want - 1.0)) <= 1e-14


def _det_table_pairs(tau_ms, gamma_db, rho_out):
    """Every (rho, a) of the det power rule's surrogate on a benchmark sweep
    table's axes (perfbench/workloads.py), at the default sampling rate."""
    n = np.rint(np.geomspace(*tau_ms) * 1e-3 * 1e6)[:, None]
    gamma = 10.0 ** (np.linspace(*gamma_db) / 10.0)
    a = dists.gamma_match(dists.received_power_law(gamma, n, 1.0)).shape
    rho, a = np.broadcast_arrays(np.linspace(*rho_out), a[..., None])
    return rho.ravel(), a.ravel()


@pytest.mark.parametrize("axes", [((0.01, 10.0, 25), (-20.0, 10.0, 100), (0.01, 0.5, 10)),
                                  ((0.01, 10.0, 13), (-20.0, 10.0, 61), (0.01, 0.5, 7))],
                         ids=["power_table", "rate_table"])
def test_inverse_matches_scipy_on_the_benchmark_tables(axes):
    rho, a = _det_table_pairs(*axes)
    assert a.min() >= 5.0 and a.max() <= 3e4
    x = inv_reg_upper_gamma(rho, a)
    assert np.max(np.abs(x / scipy.special.gammainccinv(a, rho) - 1.0)) <= 2e-15


def _mp_relative_error(a: float, rho: float, x: float) -> float:
    """(x - root) / root for the root of Q(a, root) = rho, from the residual
    at x to first order, at 60 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        a, rho, x = mpmath.mpf(a), mpmath.mpf(rho), mpmath.mpf(x)
        density_x = mpmath.exp(a * mpmath.log(x) - x - mpmath.loggamma(a))
        # P(a, x) = x^a e^-x / Gamma(a + 1) 1F1(1; a + 1; x); the series
        # needs ~10 sqrt(a) terms near x = a
        lower = density_x / a * mpmath.hyp1f1(1, a + 1, x, maxterms=10**7)
        return float((1 - lower - rho) / density_x)


# a grid over the region: its corners and edges first, then the det rule's
# shapes and budgets inside it
_MP_POINTS = [(2.0, 1e-20), (2.0, 0.5), (1e8, 1e-20), (1e8, 0.5), (2.0, 1e-3), (2.0, 0.1),
              (2.0, 0.3), (2.5, 0.5), (3e7, 1e-20), (1e8, 0.01), (5.0, 1e-20),
              (5.0, 0.01), (5.0, 0.5), (12.3, 0.05), (37.5, 1e-6), (66.667, 0.1),
              (200.0, 1e-4), (666.67, 0.1), (6666.7, 0.1), (1e4, 1e-12), (28810.0, 0.01),
              (28810.0, 0.5), (1e5, 0.25)]


@pytest.mark.parametrize("a, rho", _MP_POINTS)
def test_inverse_lies_within_1e15_of_an_mpmath_root(a, rho):
    assert abs(_mp_relative_error(a, rho, inv_reg_upper_gamma(rho, a))) <= 1e-15


def test_inverse_stays_near_mpmath_roots_where_gammaincc_errs_most():
    # at a = 2-3 gammaincc's own error near the root is largest, and the
    # last step carries it into x: 2.1e-15 at most on 400 such points,
    # gammainccinv 2.3e-15
    rng = np.random.default_rng(3)
    a, rho = rng.uniform(2.0, 3.0, 40), rng.uniform(0.05, 0.5, 40)
    x = inv_reg_upper_gamma(rho, a)
    assert max(abs(_mp_relative_error(*point)) for point in zip(a, rho, x)) <= 4e-15


def test_inverse_outside_the_region_is_scipys_bit_for_bit():
    a = np.array([0.5, 0.999, 1.0, 1.999, 5.0, 1e8 * (1 + 1e-15), 1e12, 7.0, 7.0, 1.0, 0.3])
    rho = np.array([0.3, 1e-3, 0.7, 0.3, 0.5000001, 0.1, 0.2, 1e-21, 1e-300, 0.99, 1e-30])
    want = scipy.special.gammainccinv(a, rho)
    assert np.array_equal(inv_reg_upper_gamma(rho, a), want)
    # in a batch with points inside the region, and one point at a time
    mixed_a, mixed_rho = np.r_[a, 10.0, 1e4], np.r_[rho, 0.1, 1e-5]
    got = inv_reg_upper_gamma(mixed_rho, mixed_a)
    assert np.array_equal(got[:a.size], want)
    assert [inv_reg_upper_gamma(r, v) for r, v in zip(rho, a)] == want.tolist()


def test_inverse_hands_points_that_have_not_stopped_to_scipy(monkeypatch):
    # after one step the points whose step exceeded the stop take scipy's
    # root, the rest keep their own
    rho, a = _seeded_region_pairs(2_000, 5)
    x = inv_reg_upper_gamma(rho, a)
    monkeypatch.setattr(specfun, "_INV_MAX_STEPS", 1)
    one_step = inv_reg_upper_gamma(rho, a)
    scipys = one_step == scipy.special.gammainccinv(a, rho)
    moved = one_step != x
    assert 0 < moved.sum() < rho.size and scipys[moved].all()


@pytest.mark.parametrize("a", [0.5, 2.0, 1e8, 1e15])
@pytest.mark.parametrize("rho", [1e-300, 1e-20, 0.5, 0.99])
def test_inverse_raises_no_warning_at_extremes(a, rho):
    # the region's corners and values far outside it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = inv_reg_upper_gamma(np.array([rho, 0.1]), np.array([a, a]))
    assert np.isfinite(x).all() and (x > 0.0).all()


def test_gamma_domain_errors():
    with pytest.raises(ValueError):
        reg_upper_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        reg_upper_gamma(-2.0, 1.0)
    with pytest.raises(ValueError):
        reg_upper_gamma(1.0, -0.5)
    with pytest.raises(ValueError):
        reg_upper_gamma(math.nan, 1.0)
    with pytest.raises(ValueError):
        inv_reg_upper_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        inv_reg_upper_gamma(1.0, 1.0)
    with pytest.raises(ValueError):
        inv_reg_upper_gamma(0.5, -1.0)


@pytest.mark.parametrize("rho, a, match", [
    ([0.1, 0.0], [10.0, 10.0], "^tail probability"), ([0.1, 1.0], [10.0, 10.0], "^tail probability"),
    ([0.1, math.nan], [10.0, 10.0], "^tail probability"),
    ([0.1, 0.1], [10.0, math.inf], "^shape parameter"),
    ([0.1, 0.1], [10.0, math.nan], "^shape parameter"), ([0.1, 0.1], [10.0, -1.0], "^shape parameter")])
def test_inverse_domain_errors_in_a_batch_with_points_inside_the_region(rho, a, match):
    # the domain is checked only when some point lies outside the region
    with pytest.raises(ValueError, match=match):
        inv_reg_upper_gamma(np.array(rho), np.array(a))


@given(data=st.data(), degree=st.integers(0, 15), n_panels=st.integers(1, 5))
@settings(deadline=None, max_examples=60)
def test_integrate_polynomial_is_exact(data, degree, n_panels):
    # panel_rule with 8 nodes integrates polynomials up to degree 2 * 8 - 1
    # exactly, on every panel of a batch at once
    ends = st.floats(-1.0, 1.0)
    lo = np.array(data.draw(st.lists(ends, min_size=n_panels, max_size=n_panels)))
    hi = np.array(data.draw(st.lists(ends, min_size=n_panels, max_size=n_panels)))
    coeffs = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=degree + 1,
                                         max_size=degree + 1)))
    x, w = panel_rule(lo, hi, 8)
    assert x.shape == w.shape == (n_panels, 8)
    got = np.sum(np.polynomial.polynomial.polyval(x, coeffs) * w, axis=-1)
    antiderivative = np.polynomial.polynomial.polyint(coeffs)
    want = (np.polynomial.polynomial.polyval(hi, antiderivative)
            - np.polynomial.polynomial.polyval(lo, antiderivative))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@given(coeffs=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4),
       lo=st.floats(-3.0, 3.0), width=st.floats(0.1, 4.0))
@settings(deadline=None, max_examples=60)
def test_integrate_cubics_match_antiderivative(coeffs, lo, width):
    c0, c1, c2, c3 = coeffs
    hi = lo + width

    def f(x):
        return c0 + x * (c1 + x * (c2 + x * c3))

    def big_f(x):
        return x * (c0 + x * (c1 / 2.0 + x * (c2 / 3.0 + x * c3 / 4.0)))

    # two nodes already suffice for a cubic on a single panel
    x, w = panel_rule(np.array([lo]), np.array([hi]), 2)
    assert np.sum(f(x) * w) == pytest.approx(big_f(hi) - big_f(lo), abs=1e-9)


def test_panel_rule_smooth_against_quad():
    cases = [
        (lambda x: np.exp(-x) * np.sin(x), 0.0, 20.0),
        (lambda x: 1.0 / (1.0 + x * x), -4.0, 7.0),
        (lambda x: np.cos(3.0 * x) * np.exp(-0.5 * x * x), -8.0, 8.0),
    ]
    for f, lo, hi in cases:
        ref, ref_err = scipy.integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13)
        ends = np.linspace(lo, hi, 17)
        x, w = panel_rule(ends[:-1], ends[1:], 8)
        assert np.sum(f(x) * w) == pytest.approx(ref, abs=max(1e-10, 10 * ref_err))


@pytest.mark.parametrize("shape", [(37,), (5, 31)])
def test_panel_rule_into_node_major_views(shape):
    # out as views of node-major (order, *shape) buffers, the layout of the
    # det mean-capacity kernel: the nodes and weights equal the fresh pair's
    # bit for bit, through the transposed views of the buffers (with the
    # ends transposed alike) and through the buffers' node axis moved last
    rng = np.random.default_rng(31)
    lo = rng.uniform(-50.0, 50.0, shape)
    hi = lo + 10.0 ** rng.uniform(-6.0, 2.0, shape)
    u, w = np.empty((2, 8, *shape))
    for ends, out in [((lo.T, hi.T), (u.T, w.T)),
                      ((lo, hi), (np.moveaxis(u, 0, -1), np.moveaxis(w, 0, -1)))]:
        want = panel_rule(*ends, 8)
        got = panel_rule(*ends, 8, out=out)
        assert got[0] is out[0] and got[1] is out[1]
        assert all(g.tobytes() == v.tobytes() for g, v in zip(got, want))


def test_find_root_cubic():
    root = find_root(lambda x: x ** 3 - 2.0, 0.0, 2.0)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-9)


def test_find_root_endpoint_zero():
    assert find_root(lambda x: x - 1.5, 1.5, 9.0) == 1.5
    assert find_root(lambda x: x - 9.0, 1.5, 9.0) == 9.0


def test_find_root_requires_sign_change():
    with pytest.raises(BracketError):
        find_root(lambda x: x * x + 1.0, -3.0, 3.0)


@given(c=st.floats(-50.0, 50.0))
@settings(deadline=None, max_examples=60)
def test_find_root_affine(c):
    root = find_root(lambda x: x - c, c - 2.0, c + 3.0)
    assert root == pytest.approx(c, abs=1e-8)


def test_find_root_reports_an_exhausted_budget(monkeypatch):
    # Brent's method needs several steps on this cubic; the budget is read
    # at call time, so a budget of one step runs out
    monkeypatch.setattr(specfun, "MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="iteration budget"):
        find_root(lambda x: x ** 3 - 2.0, 0.0, 2.0)
    # over arrays, one point that runs out is enough, beside one whose
    # bracket ends on its root
    with pytest.raises(ConvergenceError, match="iteration budget"):
        find_root(lambda x: x ** 3 - 8.0, [0.0, 0.0], [3.0, 2.0])


def _brentq(g, lo, hi):
    """scipy's brentq with the tolerances and budget find_root uses."""
    return scipy.optimize.brentq(
        g, lo, hi, xtol=specfun.ABS_TOL,
        rtol=max(specfun.REL_TOL, 4.0 * np.finfo(float).eps),
        maxiter=specfun.MAX_ITER)


def _logged(g):
    """g plus the list of the points it is called at."""
    calls = []

    def wrapped(x):
        calls.append(x)
        return g(x)
    return wrapped, calls


def _root_case(rng: np.random.Generator, kind: int):
    """One bracketed function, with its root at a random point inside.

    The kinds between them take every branch of Brent's step: smooth
    functions that inverse interpolation nails, steep or kinked ones that
    force extrapolation failures and bisection, a sign step that only
    bisects, functions flat to 1e-6 and values so small (1e-300) that the
    extrapolation's divisor underflows to zero. The last kind is a kink on
    a bracket a few tolerances wide, where the tolerance term of the
    short-step test decides between a step and a bisection.
    """
    lo = rng.uniform(-20.0, 5.0)
    hi = lo + 10.0 ** (rng.uniform(-7.5, -6.3) if kind == 8 else rng.uniform(-7.5, 1.5))
    c = lo + (hi - lo) * rng.uniform(0.001, 0.999)
    s = 10.0 ** rng.uniform(-8.0, 8.0)
    a = 10.0 ** rng.uniform(-2.0, 3.0)
    k = int(rng.integers(1, 5)) * 2 - 1
    g = [lambda x: s * (x - c) ** k,
         lambda x: math.exp(x / 4.0) - math.exp(c / 4.0),
         lambda x: math.tanh(a * (x - c)),
         lambda x: 1e-6 * math.tanh(x - c),
         lambda x: s if x > c else -s,
         lambda x: math.atan(a * (x - c)) + 0.01 * (x - c) ** 3,
         lambda x: math.copysign(math.log1p(abs(x - c)), x - c),
         lambda x: 1e-300 * (x - c) ** 3,
         lambda x: a * (x - c) if x > c else x - c][kind]
    return g, lo, hi


def test_find_root_is_bit_identical_to_brentq():
    rng = np.random.default_rng(20161)
    for i in range(6300):
        g, lo, hi = _root_case(rng, i % 9)
        mine, calls = _logged(g)
        ref, ref_calls = _logged(g)
        assert find_root(mine, lo, hi) == _brentq(ref, lo, hi), (i, lo, hi)
        # the same points in the same order: the same steps were taken
        assert calls == ref_calls, (i, lo, hi)


def test_find_root_evaluates_each_bracket_end_once():
    rng = np.random.default_rng(7)
    for i in range(450):
        g, lo, hi = _root_case(rng, i % 9)
        mine, calls = _logged(g)
        find_root(mine, lo, hi)
        assert calls[:2] == [lo, hi]
        assert lo not in calls[2:] and hi not in calls[2:]
    # over arrays: both ends once, then one call a round. Each point is
    # called where its 0-d search calls g, for as many rounds, and is then
    # held at its root; the search lasts as long as its longest point's
    cases = [_root_case(rng, i % 9) for i in range(45)]
    fs, lo, hi = (list(v) for v in zip(*cases))
    mine, calls = _logged(lambda x: np.array([f(v) for f, v in zip(fs, x.tolist())]))
    roots = find_root(mine, lo, hi)
    assert roots.tolist() == [_brentq(f, a, b) for f, a, b in cases]
    assert calls[0].tolist() == lo and calls[1].tolist() == hi
    rounds = []
    for i, (f, a, b) in enumerate(cases):
        one, one_calls = _logged(f)
        root = find_root(one, a, b)
        assert [c[i] for c in calls[:len(one_calls)]] == one_calls, i
        assert all(c[i] == root for c in calls[len(one_calls):]), i
        rounds.append(len(one_calls))
    assert len(calls) == max(rounds)
    # the whole search costs what brentq alone costs, bracket check included
    mine, calls = _logged(lambda x: x ** 3 - 2.0)
    find_root(mine, 0.0, 2.0)
    ref, ref_calls = _logged(lambda x: x ** 3 - 2.0)
    _brentq(ref, 0.0, 2.0)
    assert calls == ref_calls
    assert len(calls) == 9


def test_find_root_rejects_nan_inside_the_search():
    with pytest.raises(ValueError, match="NaN"):
        find_root(lambda x: x - 1.0 if x in (0.0, 2.0) else math.nan, 0.0, 2.0)


def _kinked(x, c, slope, cubic):
    """Rises through c: at slope 1 below it and slope above it, plus
    cubic (x - c)^3. Only arithmetic, so points and arrays agree."""
    d = x - c
    return np.where(d > 0.0, slope * d, d) + cubic * d * d * d


# per point: lo, log10 of the bracket's width, the root's place in it (0
# and 1 put it exactly on an end, -0.5 and 1.5 outside), log10 of the
# slope, the cubic's weight, and whether g is NaN inside the bracket
_BRACKET_POINTS = st.lists(st.tuples(
    st.floats(-20.0, 5.0), st.floats(-7.0, 1.5),
    st.one_of(st.floats(0.001, 0.999), st.sampled_from([0.0, 1.0, -0.5, 1.5])),
    st.floats(-2.0, 3.0), st.sampled_from([0.0, 1e-3, 1.0, 1e2]),
    st.integers(0, 9).map(lambda k: k == 0)), min_size=1, max_size=12)
_SOME_ENDS = [(-1.0, 0.0, 0.5, 0.0, 0.0, False), (-1.0, 0.0, 0.0, 1.0, 1.0, False),
              (3.0, -2.0, 1.0, 2.0, 0.0, False), (-3.0, 1.0, 1.5, 0.5, 1e-3, False),
              (0.0, -6.0, -0.5, 0.0, 1e2, False)]


@given(_BRACKET_POINTS)
@example(_SOME_ENDS)
@example(_SOME_ENDS + [(2.0, 0.5, 0.3, 1.0, 0.0, True)])
@settings(deadline=None, max_examples=150)
def test_find_root_over_arrays_equals_its_points(points):
    # an array call finds, bit for bit, each point's 0-d root; a point
    # without a sign change reads nan where its 0-d call raises
    # BracketError, and NaN inside any search raises ValueError
    lo, width, place, slope, cubic, nan_inside = (np.array(v) for v in zip(*points))
    hi = lo + 10.0 ** width
    c = np.where(place == 0.0, lo, np.where(place == 1.0, hi, lo + (hi - lo) * place))

    def g(x, k=slice(None)):  # all points, or point k alone
        inside = nan_inside[k] & (x > lo[k]) & (x < hi[k])
        return np.where(inside, math.nan, _kinked(x, c[k], 10.0 ** slope[k], cubic[k]))

    want, nan_raised = [], False
    for i in range(lo.size):
        try:
            want.append(find_root(lambda x: g(x, i), lo[i], hi[i]))
        except BracketError:
            want.append(math.nan)
        except ValueError:
            nan_raised = True
    if nan_raised:
        with pytest.raises(ValueError, match="NaN"):
            find_root(g, lo, hi)
    else:
        assert all(isinstance(w, float) for w in want)
        mine, calls = _logged(g)
        got = find_root(mine, lo, hi)
        assert got.shape == lo.shape
        assert got.tobytes() == np.array(want).tobytes()
        # a point without a sign change is held at its lo
        missing = np.isnan(got)
        assert all((x[missing] == lo[missing]).all() for x in calls[2:])

"""Special-function layer against independent references.

The reference implementations at the top are deliberately naive: an
ascending power series and a modified-Lentz continued fraction, written
from the textbook recurrences with no shared code with the library path
they check. Slow but honest. find_root is checked against
scipy.optimize.brentq, which the package itself does not import.
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from underlaysim import specfun
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

"""Shared numerics: regularized gamma functions, quadrature, root finding.

The analysis layers only ever need three numeric primitives beyond plain
arithmetic: the regularized upper incomplete gamma function Q(a, x) and its
inverse in x, Gauss-Legendre nodes and weights on a batch of panels, and
bracketed scalar root finding. They are collected here so the rest of the
package has a single place where accuracy targets live. scipy.special is
the only scipy module the package imports.

Every iterative result in the package meets one accuracy target, combined
as max(ABS_TOL, REL_TOL * |value|) with ABS_TOL = 1e-10 and REL_TOL = 1e-8;
find_root also stops with ConvergenceError after MAX_ITER = 200 iterations.

Q(a, x) is a thin wrapper over scipy with strict domain checks. Its inverse
is the package's own inside a stated region of (a, rho): a Wilson-Hilferty
start and third-order Householder steps on Q(a, x) - rho over whole arrays,
with scipy's gammainccinv outside it. The quadrature primitive is a fixed
rule, not an adaptive one: each integral in the package places its own
panel ends at the features of its integrand (for the fading outage, the
gain law's quantiles and the estimator's step; for mean capacity, the two
knees of Hamdi's integrand) and sums integrand times weight over whole node
arrays at once.

find_root is Brent's method (R. P. Brent, Algorithms for Minimization
Without Derivatives, 1973, ch. 4), transcribed operation for operation from
scipy's brentq.c, so its roots are bit-identical to scipy's brentq with the
same tolerances. It starts from the two bracket values it has already
checked, so no endpoint is evaluated twice. It is the package's one general
root routine. The fading power rule alone has the outage's slope at hand,
and runs a safeguarded Newton iteration on find_root's stop test instead,
over arrays of points in lockstep (power_control.controlled_power).
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np
from scipy import special

__all__ = [
    "ABS_TOL",
    "REL_TOL",
    "MAX_ITER",
    "BracketError",
    "ConvergenceError",
    "reg_upper_gamma",
    "inv_reg_upper_gamma",
    "panel_rule",
    "find_root",
]

ABS_TOL = 1e-10
REL_TOL = 1e-8
MAX_ITER = 200


class BracketError(ValueError):
    """The supplied interval does not bracket a sign change.

    Callers in the power-control layer rely on this exact type to detect
    that an operating bound does not exist inside the search range, so it
    must not be collapsed into a generic ValueError.
    """


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching the tolerance."""


def reg_upper_gamma(a, x):
    """Regularized upper incomplete gamma function Q(a, x).

    Q(a, x) = Gamma(a, x) / Gamma(a), the survival function of a unit-scale
    gamma law with shape a. Accepts scalars or arrays (broadcast together).
    Requires a > 0 and x >= 0, both finite.
    """
    a_arr = np.asarray(a, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if not (np.isfinite(a_arr) & (a_arr > 0.0)).all():
        raise ValueError("shape parameter a must be finite and positive")
    if not (np.isfinite(x_arr) & (x_arr >= 0.0)).all():
        raise ValueError("argument x must be finite and nonnegative")
    out = special.gammaincc(a_arr, x_arr)
    if np.isscalar(a) and np.isscalar(x):
        return float(out)
    return out


# inv_reg_upper_gamma iterates on _INV_A_MIN <= a <= _INV_A_MAX and
# _INV_RHO_MIN <= rho <= _INV_RHO_MAX, stops at a step below _INV_STOP
# spreads sqrt(a), and hands a point to gammainccinv after _INV_MAX_STEPS
# steps. The bounds and the step's constants are 0-d arrays because numpy
# converts a Python float operand anew on every call, ~0.2 us each time:
# a tenth of what a one-point inverse costs beyond gammainccinv.
_INV_A_MIN, _INV_A_MAX = np.array(2.0), np.array(1e8)
_INV_RHO_MIN, _INV_RHO_MAX = np.array(1e-20), np.array(0.5)
_INV_STOP = 3e-4
_INV_MAX_STEPS = 10
_THREE, _SIX = np.array(3.0), np.array(6.0)


def inv_reg_upper_gamma(rho, a):
    """Inverse of Q(a, x) in its second argument: the x with Q(a, x) = rho.

    rho must lie strictly inside (0, 1) and a must be positive, both
    broadcast together; scalars give a float.

    Inside the region 2 <= a <= 1e8, 1e-20 <= rho <= 0.5 the root is
    iterated over whole arrays. The start is the Wilson-Hilferty point
    x0 = a (1 - 1/(9a) + z / (3 sqrt(a)))^3, z = -ndtri(rho) (Wilson &
    Hilferty, PNAS 17, 1931), positive there since z >= 0. Each step is
    Householder's third-order step on Q(a, x) - rho: with the density
    g = exp((a - 1) ln x - x - gammaln(a)), t = (Q(a, x) - rho) / g,
    p = g'/g = (a - 1)/x - 1 and q = g''/g = p^2 - (a - 1)/x^2, it moves x by
    t (1 + t p / 2) / (1 + t p + t^2 q / 6).

    The stop: the error after a step shrinks like the fourth power of the
    step. In units of the law's spread sqrt(a), a step s leaves an error
    of about C s^4, with C measured at 0.04 for a < 3, 0.2 up to a = 30,
    2 up to 1e3 and 4 beyond, the largest in the rho = 1e-20 tail. The
    step is repeated only on the points whose last step exceeded
    3e-4 sqrt(a), so what remains is at most C (3e-4)^4 sqrt(a) =
    8.1e-15 C sqrt(a), against a root above the median a - 1/3: at most
    3e-15 relative (at a = 30), and about 1e-15 or less below a = 30 and
    above a = 1e3. A tighter stop would spend a step on points already at
    rounding level. Most points stop after one or two steps; the corner
    a = 2, rho = 1e-20, where the start is worst, takes six.

    A point that has not stopped after _INV_MAX_STEPS steps, and every
    point outside the region, takes scipy's gammainccinv. Below a = 2
    gammaincc errs by up to ~1e-14 relative near the root (at a = 1.2,
    x = 1.5), so the steps are no more accurate than gammainccinv there
    and the two differ by up to 2e-14; below rho = 1e-20 the start is far
    off and, further out, the density underflows; above a = 1e8 gammaln's
    cancellation swamps the last step.

    Measured against gammainccinv: at most 6.1e-15 relative on 3 million
    seeded points across the region, and 1.9e-15 on the det power tables.
    Against 60-digit mpmath roots: within 4e-16 on a grid of the region's
    corners, edges and the det rule's shapes, and up to 2.1e-15
    (gammainccinv: 2.3e-15) on 400 random points at a = 2-3, where
    gammaincc's own error is largest (tests/test_specfun.py).
    """
    rho_arr = np.asarray(rho, dtype=float)
    a_arr = np.asarray(a, dtype=float)
    if rho_arr.shape != a_arr.shape:
        rho_arr, a_arr = np.broadcast_arrays(rho_arr, a_arr)
    inside = ((a_arr >= _INV_A_MIN) & (a_arr <= _INV_A_MAX)
              & (rho_arr >= _INV_RHO_MIN) & (rho_arr <= _INV_RHO_MAX))
    n_inside = np.count_nonzero(inside)
    # the region lies inside the domain: only a point outside it can fail
    if n_inside < inside.size:
        if not ((rho_arr > 0.0) & (rho_arr < 1.0)).all():
            raise ValueError("tail probability rho must lie strictly in (0, 1)")
        if not (np.isfinite(a_arr) & (a_arr > 0.0)).all():
            raise ValueError("shape parameter a must be finite and positive")
    out = np.full(a_arr.shape, math.nan)
    if n_inside:
        out[inside] = _householder_root(rho_arr[inside], a_arr[inside])
    rest = np.isnan(out)
    if np.count_nonzero(rest):
        out[rest] = special.gammainccinv(a_arr[rest], rho_arr[rest])
    if np.isscalar(rho) and np.isscalar(a):
        return float(out)
    return out


def _householder_root(rho, a):
    """inv_reg_upper_gamma's iteration on flat arrays inside its region; NaN
    where _INV_MAX_STEPS steps did not stop."""
    root_a = np.sqrt(a)
    c = (1.0 / 3.0) / root_a  # 1 / (3 sqrt(a)), and c^2 = 1 / (9a)
    x = out = a * (1.0 - c * (c + special.ndtri(rho))) ** 3
    am1 = a - 1.0
    log_gamma = special.gammaln(a)
    stop = _INV_STOP * root_a
    # x is out itself until some points stop; then at holds the index in out
    # of the points still stepping, and x and their constants only those
    at = None
    for _ in range(_INV_MAX_STEPS):
        t = (special.gammaincc(a, x) - rho) / np.exp(am1 * np.log(x) - x - log_gamma)
        # with v = t / x: t p = (a - 1) v - t and t^2 q = (t p)^2 - (a - 1) v^2
        v = t / x
        av = am1 * v
        tp = av - t
        step = t * (_SIX + _THREE * tp) / (_SIX + tp * (_SIX + tp) - av * v)
        x += step
        if at is not None:
            out[at] = x
        going = np.abs(step) > stop
        n_going = np.count_nonzero(going)
        if not n_going:
            return out
        if n_going < going.size:
            at = np.flatnonzero(going) if at is None else at[going]
            x, a, rho = x[going], a[going], rho[going]
            am1, log_gamma, stop = am1[going], log_gamma[going], stop[going]
    out[slice(None) if at is None else at] = math.nan
    return out


@functools.lru_cache(maxsize=None)
def _legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def panel_rule(lo, hi, order: int, out=None):
    """Gauss-Legendre nodes and weights on each panel [lo, hi].

    lo and hi are equal-shaped arrays of panel ends; the result carries one
    more trailing axis of length order. The rule integrates polynomials of
    degree up to 2 * order - 1 exactly on every panel. out, if given, is a
    pair of writable arrays of the result's shape that receive the nodes and
    the weights and are returned, in any memory layout: the transposed views
    of node-major (order, *lo.shape) buffers get the same values bit for bit.
    Without it, a fresh pair is filled.
    """
    nodes, weights = _legendre(order)
    half = (0.5 * (hi - lo))[..., None]
    if out is None:
        shape = half.shape[:-1] + (order,)
        out = np.empty(shape), np.empty(shape)
    x, w = out
    np.multiply(half, nodes + 1.0, out=x)
    x += lo[..., None]
    np.multiply(half, weights, out=w)
    return x, w


def find_root(g: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of a scalar function on a bracketing interval [lo, hi].

    Requires g(lo) and g(hi) to be finite with opposite signs; an endpoint
    that is exactly zero is returned as the root. Raises BracketError when
    there is no sign change (callers lean on that to detect missing
    operating bounds), ConvergenceError when the iteration budget runs out,
    and ValueError when g gives NaN inside the search. The tolerance and
    the budget are the module's ABS_TOL, REL_TOL and MAX_ITER, read at each
    call.

    The loop is scipy's brentq.c step for step, so the root and the points
    g is called at are those of scipy's brentq(g, lo, hi, xtol=ABS_TOL,
    rtol=max(REL_TOL, 4 eps), maxiter=MAX_ITER), whose own bracket check
    is the one above: g(lo) and g(hi) are computed once.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("bracket endpoints must be finite")
    if hi <= lo:
        raise ValueError("bracket must satisfy lo < hi")
    g_lo = float(g(lo))
    g_hi = float(g(hi))
    if not (math.isfinite(g_lo) and math.isfinite(g_hi)):
        raise ValueError("function values at the bracket are not finite")
    if g_lo == 0.0:
        return float(lo)
    if g_hi == 0.0:
        return float(hi)
    if (g_lo > 0.0) == (g_hi > 0.0):
        raise BracketError(
            f"no sign change on [{lo!r}, {hi!r}]: g(lo)={g_lo!r}, g(hi)={g_hi!r}")
    rtol = max(REL_TOL, 4.0 * np.finfo(float).eps)
    # xpre/xcur: the last two iterates; xblk: the point whose value has the
    # sign opposite to fcur; spre/scur: the previous two steps
    xpre, xcur, fpre, fcur = float(lo), float(hi), g_lo, g_hi
    xblk = fblk = spre = scur = 0.0
    for _ in range(MAX_ITER):
        # fpre and fcur are never NaN, so for nonzero values a sign test
        # equals C's signbit comparison
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (ABS_TOL + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C divides to inf or NaN here, and either one bisects below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(g(xcur))
        if math.isnan(fcur):
            raise ValueError(
                f"the function value at x={xcur} is NaN; the root search cannot continue")
    raise ConvergenceError("root search exhausted its iteration budget")

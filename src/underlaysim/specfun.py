"""Shared numerics: regularized gamma functions, quadrature, root finding.

The analysis layers only ever need three numeric primitives beyond plain
arithmetic: the regularized upper incomplete gamma function Q(a, x) and its
inverse in x, definite integrals over finite or right-open ranges, and
bracketed scalar root finding. They are collected here so the rest of the
package has a single place where accuracy targets live.

Q(a, x) and its inverse are thin wrappers over scipy with strict domain
checks. The integrator is local code: an adaptive Gauss-Kronrod scheme that
evaluates the integrand on whole node arrays at once, which the outage and
throughput integrals rely on for speed (their integrands are vectorized and
calling them point by point would dominate the runtime).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import optimize, special

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "BracketError",
    "ConvergenceError",
    "reg_upper_gamma",
    "inv_reg_upper_gamma",
    "integrate",
    "find_root",
]


@dataclass(frozen=True)
class Tolerance:
    """Accuracy targets shared by the iterative routines.

    abs_tol and rel_tol are combined as max(abs_tol, rel_tol * |value|);
    max_iter bounds root-finder iterations and, scaled by a fixed factor,
    the number of subdivisions the integrator may spend.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise ValueError("abs_tol must be positive and finite")
        if not (self.rel_tol > 0.0 and math.isfinite(self.rel_tol)):
            raise ValueError("rel_tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


DEFAULT_TOL = Tolerance()


class BracketError(ValueError):
    """The supplied interval does not bracket a sign change.

    Callers in the power-control layer rely on this exact type to detect
    that an operating bound does not exist inside the search range, so it
    must not be collapsed into a generic ValueError.
    """


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching the tolerance.

    Carries the best estimate reached and, for quadrature, the error bound
    attached to it, so callers can report partial results.
    """

    def __init__(self, message: str, estimate: float | None = None,
                 error_bound: float | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


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


def inv_reg_upper_gamma(rho, a):
    """Inverse of Q(a, x) in its second argument: the x with Q(a, x) = rho.

    rho must lie strictly inside (0, 1) and a must be positive. Round-trips
    with reg_upper_gamma to well below 1e-9 across the shapes used here.
    """
    rho_arr = np.asarray(rho, dtype=float)
    a_arr = np.asarray(a, dtype=float)
    if not ((rho_arr > 0.0) & (rho_arr < 1.0)).all():
        raise ValueError("tail probability rho must lie strictly in (0, 1)")
    if not (np.isfinite(a_arr) & (a_arr > 0.0)).all():
        raise ValueError("shape parameter a must be finite and positive")
    out = special.gammainccinv(a_arr, rho_arr)
    if np.isscalar(rho) and np.isscalar(a):
        return float(out)
    return out


# 21-point Kronrod extension of 10-point Gauss, the classic QUADPACK pair.
# Nodes are for [-1, 1]; the even-indexed Kronrod nodes carry the embedded
# Gauss rule.
_XGK = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])

# Full 21-node layout on [-1, 1], ascending, with matching weight vectors.
_NODES = np.concatenate([-_XGK[:10], [0.0], _XGK[9::-1]])
_KRONROD_W = np.concatenate([_WGK[:10], [_WGK[10]], _WGK[9::-1]])
_GAUSS_W = np.zeros(21)
_GAUSS_W[1:20:2] = np.concatenate([_WG, _WG[::-1]])

# Subdivision budget: generous multiple of max_iter, enough for integrands
# with a handful of sharp features at the default tolerances.
_PANELS_PER_ITER = 24


def _eval_panels(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """Apply the GK21 pair on a batch of intervals in one integrand call."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    if not np.all(np.isfinite(y)):
        raise ValueError("integrand returned a non-finite value")
    kron = half * (y @ _KRONROD_W)
    gauss = half * (y @ _GAUSS_W)
    err = np.abs(kron - gauss)
    return kron, err


def _adaptive(f: Callable, lo: float, hi: float, tol: Tolerance) -> tuple[float, float]:
    starts = np.linspace(lo, hi, 5)
    vals, errs = _eval_panels(f, starts[:-1], starts[1:])
    heap: list[tuple[float, int, float, float, float]] = []
    counter = 0
    for i in range(4):
        heapq.heappush(heap, (-errs[i], counter, starts[i], starts[i + 1], vals[i]))
        counter += 1
    max_panels = _PANELS_PER_ITER * tol.max_iter
    while True:
        total = math.fsum(item[4] for item in heap)
        err_total = -math.fsum(item[0] for item in heap)
        if err_total <= max(tol.abs_tol, tol.rel_tol * abs(total)):
            return total, err_total
        if len(heap) >= max_panels:
            raise ConvergenceError(
                "integral did not converge within the subdivision budget",
                estimate=total, error_bound=err_total)
        _, _, a, b, val = heapq.heappop(heap)
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            # interval at floating-point resolution; keep its estimate but
            # stop counting its error against the budget
            heapq.heappush(heap, (0.0, counter, a, b, val))
            counter += 1
            continue
        v2, e2 = _eval_panels(f, np.array([a, m]), np.array([m, b]))
        heapq.heappush(heap, (-e2[0], counter, a, m, v2[0]))
        counter += 1
        heapq.heappush(heap, (-e2[1], counter, m, b, v2[1]))
        counter += 1


def integrate(f: Callable, lo: float, hi: float, tol: Tolerance = DEFAULT_TOL,
              scale_hint: float | None = None) -> float:
    """Definite integral of f over [lo, hi], hi may be math.inf.

    f must accept a 1-D numpy array and return values elementwise; every
    caller in this package has a vectorized integrand and the batched
    evaluation is what keeps the outage integrals fast.

    For a right-open range the integral is split at a finite point (lo + 1
    by default, or scale_hint if given, which should sit near the bulk of
    the mass) and the tail is mapped onto [0, 1) through x = s + t/(1-t).
    Raises ConvergenceError with the partial estimate attached when the
    subdivision budget runs out.
    """
    if not math.isfinite(lo):
        raise ValueError("lower limit must be finite")
    if math.isnan(hi):
        raise ValueError("upper limit must not be NaN")
    if hi <= lo:
        raise ValueError("upper limit must exceed lower limit")
    if math.isfinite(hi):
        total, _ = _adaptive(f, float(lo), float(hi), tol)
        return total
    split = float(lo) + 1.0
    if scale_hint is not None:
        if not (math.isfinite(scale_hint) and scale_hint > lo):
            raise ValueError("scale_hint must be finite and exceed the lower limit")
        split = float(scale_hint)
    head, _ = _adaptive(f, float(lo), split, tol)

    def tail(t: np.ndarray) -> np.ndarray:
        one_minus = 1.0 - t
        x = split + t / one_minus
        return np.asarray(f(x), dtype=float) / one_minus ** 2

    # stop infinitesimally short of t = 1; the transform already compresses
    # the far tail and the adaptive pass resolves whatever mass is left
    tail_val, _ = _adaptive(tail, 0.0, 1.0 - 1e-14, tol)
    return head + tail_val


def find_root(g: Callable[[float], float], lo: float, hi: float,
              tol: Tolerance = DEFAULT_TOL) -> float:
    """Root of a scalar function on a bracketing interval [lo, hi].

    Requires g(lo) and g(hi) to be finite with opposite signs; an endpoint
    that is exactly zero is returned as the root. Raises BracketError when
    there is no sign change (callers lean on that to detect missing
    operating bounds) and ConvergenceError when the iteration budget runs
    out.
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
    rtol = max(tol.rel_tol, 4.0 * np.finfo(float).eps)
    root, info = optimize.brentq(
        g, lo, hi, xtol=tol.abs_tol, rtol=rtol, maxiter=tol.max_iter,
        full_output=True, disp=False)
    if not info.converged:
        raise ConvergenceError(
            "root search exhausted its iteration budget", estimate=float(root))
    return float(root)

"""Shared numeric kernel: Gaussian tail, sin-power integrals, quadrature,
and the one 1-D minimizer (minimize_1d: a grid scan, then golden-section
refinement).

Everything here is a pure function of its inputs and safe to call from any
number of threads.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Tolerance",
    "QuadratureResult",
    "q_function",
    "log_q_function",
    "sin_power_integral",
    "wallis",
    "adaptive_integrate",
    "minimize_1d",
]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class Tolerance:
    """Accuracy targets for iterative routines.

    At least one of abs_tol / rel_tol must be strictly positive, and
    max_iter bounds the number of subdivisions or iterations.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise ValueError("at least one of abs_tol, rel_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float
    converged: bool


# ---------------------------------------------------------------------------
# Gaussian tail
# ---------------------------------------------------------------------------

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = Pr(N(0,1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def log_q_function(x: float) -> float:
    """ln Q(x), accurate into the deep tail where Q underflows."""
    if x <= 0.0:
        # Q(x) >= 1/2; complement the (small) opposite tail.
        if x == 0.0:
            return math.log(0.5)
        return math.log1p(-q_function(-x))
    if x < 30.0:
        return math.log(q_function(x))
    # Asymptotic (Mills) series: Q(x) = phi(x)/x * sum_k (-1)^k (2k-1)!!/x^(2k).
    inv_x2 = 1.0 / (x * x)
    term = 1.0
    total = 1.0
    for k in range(1, 13):
        term *= -(2 * k - 1) * inv_x2
        total += term
    return -0.5 * x * x - math.log(x) - _LOG_SQRT_2PI + math.log(total)


# ---------------------------------------------------------------------------
# sin^m integrals via the incomplete beta function
# ---------------------------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta (Lentz's method).
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def _log_reg_inc_beta(a: float, b: float, log_x: float, log_1mx: float) -> float:
    # ln I_x(a, b) with x supplied in log form on both sides so that
    # neither x ~ 0 nor x ~ 1 loses precision.
    if log_x == -math.inf:
        return -math.inf
    if log_1mx == -math.inf:
        return 0.0
    x = math.exp(log_x)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    if x < (a + 1.0) / (a + b + 2.0):
        cf = _betacf(a, b, x)
        return a * log_x + b * log_1mx - math.log(a) - log_beta + math.log(cf)
    # Symmetric branch: I_x(a,b) = 1 - I_{1-x}(b,a).
    cf = _betacf(b, a, math.exp(log_1mx))
    log_tail = b * log_1mx + a * log_x - math.log(b) - log_beta + math.log(cf)
    if log_tail >= 0:
        return -math.inf
    return math.log1p(-math.exp(log_tail))


def sin_power_integral(m: int, theta: float, log: bool = False) -> float:
    """Integral of sin(phi)**m over phi in [0, theta], theta in [0, pi/2].

    Evaluated through the incomplete beta relation
    integral = B(sin^2 theta; (m+1)/2, 1/2) / 2, computed in log domain so
    large m does not underflow.  With log=True the natural log is returned.
    """
    if m < 0 or m != int(m):
        raise ValueError(f"power must be a nonnegative integer, got m={m}")
    if not 0.0 <= theta <= math.pi / 2.0 + 1e-15:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta}")
    theta = min(theta, math.pi / 2.0)
    m = int(m)
    if theta == 0.0:
        return -math.inf if log else 0.0
    if m == 0:
        return math.log(theta) if log else theta
    if m == 1:
        value = 2.0 * math.sin(theta / 2.0) ** 2  # 1 - cos(theta), cancellation-free
        return math.log(value) if log else value
    s, c = math.sin(theta), math.cos(theta)
    log_x = 2.0 * math.log(s)
    log_1mx = 2.0 * math.log(c) if c > 0.0 else -math.inf
    a = 0.5 * (m + 1)
    log_i = _log_reg_inc_beta(a, 0.5, log_x, log_1mx)
    log_value = log_i + wallis(m, log=True)
    return log_value if log else math.exp(log_value)


def wallis(m: int, log: bool = False) -> float:
    """The complete integral of sin(phi)**m over [0, pi/2]."""
    if m < 0:
        raise ValueError(f"power must be nonnegative, got m={m}")
    log_value = (
        0.5 * math.log(math.pi)
        - math.log(2.0)
        + math.lgamma(0.5 * (m + 1))
        - math.lgamma(0.5 * m + 1.0)
    )
    return log_value if log else math.exp(log_value)


# ---------------------------------------------------------------------------
# Adaptive quadrature (Gauss-Kronrod 15/7, worst-panel bisection)
# ---------------------------------------------------------------------------

# Kronrod-15 abscissae on [-1, 1] (symmetric; nonnegative half listed).
_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.000000000000000,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
# Gauss-7 weights matching every second Kronrod node.
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

_GK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # 15 ascending nodes
_GK_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
_G_WEIGHTS = np.zeros(15)
_G_WEIGHTS[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])


def _gk15(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _GK_NODES), dtype=float)
    kron = half * float(np.dot(_GK_WEIGHTS, fx))
    gauss = half * float(np.dot(_G_WEIGHTS, fx))
    return kron, abs(kron - gauss)


def adaptive_integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: Tolerance = DEFAULT_TOL,
) -> QuadratureResult:
    """Adaptively integrate f over the finite interval [a, b].

    f must accept a numpy array of abscissae and return the integrand values.
    Panels are bisected worst-error-first with a nested Gauss-Kronrod 15/7
    rule until the summed error estimate meets the tolerance or the
    subdivision budget runs out (the flag on the result reports which).
    Deterministic for fixed inputs.
    """
    if math.isinf(a) or math.isinf(b):
        raise ValueError(f"integration bounds must be finite: [{a}, {b}]")
    if a > b:
        raise ValueError(f"integration bounds out of order: [{a}, {b}]")
    if a == b:
        return QuadratureResult(0.0, 0.0, True)

    value, err = _gk15(f, a, b)
    # Heap of (-error, tiebreak, left, right, value, error).
    counter = 0
    heap = [(-err, counter, a, b, value, err)]
    total_value, total_error = value, err
    for _ in range(tol.max_iter):
        if total_error <= max(tol.abs_tol, tol.rel_tol * abs(total_value)):
            return QuadratureResult(total_value, total_error, True)
        neg_err, _, pa, pb, pval, perr = heapq.heappop(heap)
        if pb - pa < 1e-15 * max(abs(pa), abs(pb), 1.0):
            # Panel cannot be meaningfully split; keep its estimate.
            heapq.heappush(heap, (0.0, counter + 1, pa, pb, pval, perr))
            counter += 1
            continue
        pm = 0.5 * (pa + pb)
        lval, lerr = _gk15(f, pa, pm)
        rval, rerr = _gk15(f, pm, pb)
        total_value += lval + rval - pval
        total_error += lerr + rerr - perr
        counter += 1
        heapq.heappush(heap, (-lerr, counter, pa, pm, lval, lerr))
        counter += 1
        heapq.heappush(heap, (-rerr, counter, pm, pb, rval, rerr))
    converged = total_error <= max(tol.abs_tol, tol.rel_tol * abs(total_value))
    return QuadratureResult(total_value, total_error, converged)


# ---------------------------------------------------------------------------
# 1-D minimization (grid scan + golden refinement)
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def minimize_1d(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: Tolerance = DEFAULT_TOL,
    grid_points: int = 129,
) -> tuple[float, float]:
    """Global-ish 1-D minimization of a scalar function over [lo, hi].

    An evenly spaced grid scan, whose minimum (ties broken toward the
    smallest argument) seeds a golden-section search on its neighboring
    grid interval, stopped once the bracket meets tol or after tol.max_iter
    steps.  Returns the bracket midpoint and its value, or the grid seed
    when that is no worse.  Deterministic.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if grid_points < 3:
        raise ValueError("grid_points must be at least 3")
    xs = [float(x) for x in np.linspace(lo, hi, grid_points)]
    fs = [f(x) for x in xs]
    best = int(np.argmin(fs))  # the first (smallest-x) minimum
    a, b = xs[max(best - 1, 0)], xs[min(best + 1, grid_points - 1)]
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(tol.max_iter):
        if not b - a > tol.abs_tol + tol.rel_tol * (abs(a) + abs(b)):
            break
        # Shrink toward the lower interior value; the kept point becomes the
        # other interior point and only the vacated one is evaluated anew.
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    fm = f(xm)
    x, v = (xs[best], fs[best]) if fs[best] <= fm else (xm, fm)
    return float(x), float(v)

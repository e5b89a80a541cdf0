"""Shared numeric kernel: Gaussian tail, sin-power integrals, quadrature
(adaptive, or gk15_rule's fixed composite Gauss-Kronrod rule, whose one node
set serves several integrands), the one root solver (brentq: Brent's method,
taking scipy.optimize.brentq's steps, so scipy.optimize need not be loaded),
and the one 1-D minimizer (minimize_1d: a grid scan, then a root solve of
the slope where one is given, else golden-section refinement).

Integrands and objectives share one array contract: each maps a 1-D numpy
array of abscissae to an array of values, one per abscissa, so a whole
quadrature panel or grid scan is one call.

Everything here is a pure function of its inputs and safe to call from any
number of threads.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Tolerance",
    "QuadratureResult",
    "q_function",
    "log_q_function",
    "sin_power_integral",
    "wallis",
    "AdaptiveRun",
    "adaptive_integrate",
    "gk15_rule",
    "brentq",
    "minimize_1d",
]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class Tolerance:
    """Accuracy targets for iterative routines.

    Both tolerances must be finite, at least one of abs_tol / rel_tol must
    be strictly positive, and max_iter bounds the number of subdivisions or
    iterations.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_tol) and math.isfinite(self.rel_tol)):
            raise ValueError("tolerances must be finite")
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
    run: "AdaptiveRun | None" = field(default=None, compare=False, repr=False)  # to refine


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
# Gauss-Kronrod 15/7 quadrature: one fixed composite rule, or adaptive
# worst-panel bisection
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


def gk15_rule(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The composite Gauss-Kronrod 15/7 rule on [a, b] split into `panels`
    equal panels: nodes of shape (panels, 15), and the Kronrod and Gauss-7
    weights (15,) of one panel.  For integrand values fx on the nodes,
    (fx @ kronrod).sum() is the integral, and abs(fx @ (kronrod - gauss)).sum()
    the error estimate that adaptive_integrate sums over the same panels."""
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got [{a}, {b}]")
    if panels < 1:
        raise ValueError(f"need at least one panel, got {panels}")
    half = 0.5 * (b - a) / panels
    mids = a + half * (2.0 * np.arange(panels) + 1.0)
    return mids[:, None] + half * _GK_NODES, half * _GK_WEIGHTS, half * _G_WEIGHTS


class AdaptiveRun:
    """A resumable adaptive integration of f over the finite interval [a, b].

    f must accept a numpy array of abscissae and return the integrand values.
    Panels are bisected worst-error-first with a nested Gauss-Kronrod 15/7
    rule.  refine(tol) bisects until the summed error estimate meets tol or
    the run has made tol.max_iter bisections in all, so refining to finer
    and finer tolerances with one max_iter returns exactly what one refine
    to the last of them does.  Deterministic for fixed inputs."""

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
        if math.isinf(a) or math.isinf(b):
            raise ValueError(f"integration bounds must be finite: [{a}, {b}]")
        if a > b:
            raise ValueError(f"integration bounds out of order: [{a}, {b}]")
        self.f = f
        self.value, self.error = _gk15(f, a, b) if a < b else (0.0, 0.0)
        # Heap of (-error, tiebreak, left, right, value, error).
        self.heap = [(-self.error, 0, a, b, self.value, self.error)]
        self.counter = self.iterations = 0

    def refine(self, tol: Tolerance = DEFAULT_TOL) -> QuadratureResult:
        while True:
            converged = self.error <= max(tol.abs_tol, tol.rel_tol * abs(self.value))
            if converged or self.iterations >= tol.max_iter:
                return QuadratureResult(self.value, self.error, converged, self)
            self.iterations += 1
            neg_err, _, pa, pb, pval, perr = heapq.heappop(self.heap)
            if pb - pa < 1e-15 * max(abs(pa), abs(pb), 1.0):
                # Panel cannot be meaningfully split; keep its estimate.
                self.counter += 1
                heapq.heappush(self.heap, (0.0, self.counter, pa, pb, pval, perr))
                continue
            pm = 0.5 * (pa + pb)
            lval, lerr = _gk15(self.f, pa, pm)
            rval, rerr = _gk15(self.f, pm, pb)
            self.value += lval + rval - pval
            self.error += lerr + rerr - perr
            self.counter += 2
            heapq.heappush(self.heap, (-lerr, self.counter - 1, pa, pm, lval, lerr))
            heapq.heappush(self.heap, (-rerr, self.counter, pm, pb, rval, rerr))


def adaptive_integrate(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, tol: Tolerance = DEFAULT_TOL
) -> QuadratureResult:
    """Adaptively integrate f over [a, b]: AdaptiveRun(f, a, b).refine(tol).
    The flag on the result reports whether the estimate met tol in budget."""
    return AdaptiveRun(f, a, b).refine(tol)


# ---------------------------------------------------------------------------
# Root solving (Brent's method)
# ---------------------------------------------------------------------------


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float,
           maxiter: int, disp: bool = True) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by Brent's
    method (Brent, Algorithms for Minimization Without Derivatives, 1973,
    ch. 4): a line-for-line port of scipy.optimize.brentq's C loop, so it
    calls f at the same abscissae and returns the same float.  It stops once
    half the bracket is under (xtol + rtol |x|) / 2; xtol may be 0, which
    makes the stop relative only.  After maxiter steps it raises
    RuntimeError if disp is set, else returns the last iterate.  Raises
    ValueError for ends of one sign or a NaN value of f."""

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre < 0.0) != (fcur < 0.0):  # a new bracket [xpre, xcur]
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the better end as xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's stry is then inf or NaN: bisect
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = call(xcur)
    if disp:
        raise RuntimeError(f"failed to converge after {maxiter} iterations")
    return xcur


# ---------------------------------------------------------------------------
# 1-D minimization (grid scan, then a slope root solve or golden refinement)
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_FLAT_ULPS = 4.0


def minimize_1d(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: Tolerance = DEFAULT_TOL,
    grid_points: int = 129,
    slope: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[float, float]:
    """Global-ish 1-D minimization of f over [lo, hi].

    f maps a 1-D array of abscissae to the array of its values there.  An
    evenly spaced grid scan (one call on the whole grid) finds the minimum
    (ties broken toward the smallest argument) that seeds the refinement on
    its neighboring grid interval.  slope, the derivative of f under the
    same array contract, lets the refinement skip golden steps where it
    decides the minimum (see _slope_refinement).  Otherwise a golden-section
    search runs: one call on the two first interior points, then one call on
    a one-element array per step, stopped once the bracket meets tol or
    after tol.max_iter steps, refining to the bracket midpoint.  Returns the
    refined point and its value, or the grid seed when that is no worse.
    Deterministic.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if grid_points < 3:
        raise ValueError("grid_points must be at least 3")
    xs = np.linspace(lo, hi, grid_points)
    fs = f(xs)
    best = int(np.argmin(fs))  # the first (smallest-x) minimum
    seed = float(xs[best]), float(fs[best])
    x = None if slope is None else _slope_refinement(slope, xs, best, seed[1], tol)
    if x is None:
        a, b = xs[max(best - 1, 0)], xs[min(best + 1, grid_points - 1)]
        x = _golden(f, float(a), float(b), tol)
    elif x == seed[0]:
        return seed
    (fx,) = f(np.array((x,))).tolist()
    return seed if seed[1] <= fx else (x, fx)


def _golden(f, a: float, b: float, tol: Tolerance) -> float:
    """Midpoint of the golden-section bracket of f's minimum on [a, b]."""
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = f(np.array((x1, x2))).tolist()
    for _ in range(tol.max_iter):
        if not b - a > tol.abs_tol + tol.rel_tol * (abs(a) + abs(b)):
            break
        # Shrink toward the lower interior value; the kept point becomes the
        # other interior point and only the vacated one is evaluated anew.
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            (f1,) = f(np.array((x1,))).tolist()
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            (f2,) = f(np.array((x2,))).tolist()
    return 0.5 * (a + b)


def _slope_refinement(slope, xs, best: int, value: float, tol: Tolerance) -> float | None:
    """The point that the slope picks around minimize_1d's grid seed xs[best]
    (where f equals value), or None to leave the seed to golden steps.

    Where the slope changes sign on a grid interval next to the seed, its
    root there by brentq to tol.  The seed itself where it is a box end
    whose slope points out of the box, or where the slope moves f by under
    _FLAT_ULPS ulps of value across one grid step (a minimum flat below
    rounding)."""
    lo, hi = max(best - 1, 0), min(best + 1, xs.size - 1)
    s_lo, s, s_hi = slope(xs[[lo, best, hi]]).tolist()
    if s < 0.0 < s_hi:
        a, b = xs[best], xs[hi]
    elif s_lo < 0.0 < s:
        a, b = xs[lo], xs[best]
    else:
        pinned = (best == 0 and s >= 0.0) or (best == xs.size - 1 and s <= 0.0)
        flat = abs(s) * (xs[1] - xs[0]) <= _FLAT_ULPS * np.spacing(abs(value))
        return float(xs[best]) if pinned or flat else None
    # brentq stops on a bracket narrower than xtol + rtol |x|: the golden
    # search's abs_tol + rel_tol (|a| + |b|) at a ~ b.  With abs_tol = 0 the
    # stop is relative only, and max_iter bounds the steps, as it bounds
    # the golden search.
    root = brentq(
        lambda t: slope(np.array((t,)))[0],
        float(a),
        float(b),
        xtol=tol.abs_tol,
        rtol=max(2.0 * tol.rel_tol, 4.0 * _EPS),
        maxiter=tol.max_iter,
        disp=False,
    )
    return float(root)

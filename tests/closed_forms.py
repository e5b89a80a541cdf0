"""Closed forms and search routines that only the tests use as references:
the admissible correlation interval between two weights, the same-weight
sheared exponent profile whose stationary points the k = 0 face degeneracy
check verifies, and the vector grid-plus-golden minimizer that the scalar
minimize_1d and the exact Chernoff tilt solve are checked against."""

import math

import numpy as np

from tsbounds.geometry import rho_ww
from tsbounds.numerics import DEFAULT_TOL, Tolerance

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def rho_bounds(di: int, dj: int, n: int) -> tuple[float, float]:
    """Admissible correlation interval between codewords of weights di, dj."""
    for name, value in (("di", di), ("dj", dj)):
        if not 0 < value < n:
            raise ValueError(f"{name} must satisfy 0 < {name} < n={n}, got {value}")
    s = math.sqrt((di * dj) / ((n - di) * (n - dj)))
    lower = -min(s, 1.0 / s)
    upper = (min(di, dj) * (n - max(di, dj))) / math.sqrt(
        di * dj * (n - di) * (n - dj)
    )
    return lower, upper


def _alpha_same_weight(w: int, n: int) -> float:
    rho = rho_ww(w, n)
    return math.sqrt((1.0 + rho) / (1.0 - rho))


def _g1(
    c: float, t: float, xi: float, tau: float, eta: float, w: int, n: int
) -> float:
    """Same-weight conditioned exponent in the sheared multiplier
    coordinates xi = s - k/sqrt(1-rho^2), tau = s - k rho/sqrt(1-rho^2)
    (spectrum constant dropped; only the stationary geometry matters)."""
    al2 = _alpha_same_weight(w, n) ** 2
    dw = math.sqrt(w / (n - w))
    a1 = 1.0 + 2.0 * t * eta
    b1 = 1.0 - 2.0 * t
    sq = math.sqrt(2.0 * n * c)
    return (
        (4.0 * t * eta * n * c + 2.0 * sq * xi * dw - (dw * xi) ** 2) / (2.0 * a1)
        - tau * tau / (2.0 * b1)
        - (xi - tau) ** 2 * al2 / (2.0 * b1)
        + 0.5 * n * math.log(b1)
    )


def _tau_star(xi: float, w: int, n: int) -> float:
    al2 = _alpha_same_weight(w, n) ** 2
    return al2 * xi / (1.0 + al2)


def _g2(c: float, t: float, xi: float, eta: float, w: int, n: int) -> float:
    """_g1 with tau eliminated at its stationary value."""
    al2 = _alpha_same_weight(w, n) ** 2
    eps = al2 / (1.0 + al2)
    dw = math.sqrt(w / (n - w))
    a1 = 1.0 + 2.0 * t * eta
    b1 = 1.0 - 2.0 * t
    sq = math.sqrt(2.0 * n * c)
    return (
        (4.0 * t * eta * n * c + 2.0 * sq * xi * dw - (dw * xi) ** 2) / (2.0 * a1)
        - eps * xi * xi / (2.0 * b1)
        + 0.5 * n * math.log(b1)
    )


def _xi_star(c: float, t: float, eta: float, w: int, n: int) -> float:
    """_g2's stationary xi: the k = 0 face multiplier with the same-weight
    shear eps = alpha^2 / (1 + alpha^2) in place of 1."""
    al2 = _alpha_same_weight(w, n) ** 2
    eps = al2 / (1.0 + al2)
    dsq = w / (n - w)
    b1 = 1.0 - 2.0 * t
    a1 = 1.0 + 2.0 * t * eta
    return math.sqrt(2.0 * n * c * dsq) * b1 / (dsq * b1 + eps * a1)


def minimize_componentwise(f, lo, hi, tol: Tolerance = DEFAULT_TOL, grid_points: int = 129):
    """Minimize each component of f over its own interval [lo[i], hi[i]];
    component i of f's value vector may depend on abscissa i alone.

    Per component: an evenly spaced grid scan, whose minimum (ties broken
    toward the smallest argument) seeds a golden-section search on its
    neighboring grid interval, stopped once the bracket meets tol or after
    tol.max_iter steps.  Returns the minimizing abscissae and values.
    """
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    if not np.all(lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    xs = np.linspace(lo, hi, grid_points)
    fs = np.array([f(x) for x in xs])
    best = np.argmin(fs, axis=0)  # argmin returns the first (smallest-x) minimum
    idx = np.arange(lo.size)
    a = xs[np.maximum(best - 1, 0), idx]
    b = xs[np.minimum(best + 1, grid_points - 1), idx]
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = np.array(f(x1), dtype=float), np.array(f(x2), dtype=float)
    for _ in range(tol.max_iter):
        live = b - a > tol.abs_tol + tol.rel_tol * (np.abs(a) + np.abs(b))
        if not live.any():
            break
        take = f1 <= f2
        left, right = live & take, live & ~take
        b[left], x2[left], f2[left] = x2[left], x1[left], f1[left]
        a[right], x1[right], f1[right] = x1[right], x2[right], f2[right]
        x1[left] = b[left] - _GOLDEN * (b[left] - a[left])
        x2[right] = a[right] + _GOLDEN * (b[right] - a[right])
        fx = f(np.where(left, x1, x2))
        f1[left] = fx[left]
        f2[right] = fx[right]
    xm = 0.5 * (a + b)
    fm = f(xm)
    seed = fs[best, idx] <= fm
    return np.where(seed, xs[best, idx], xm), np.where(seed, fs[best, idx], fm)

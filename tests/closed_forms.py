"""Closed forms that only the tests use as references: the admissible
correlation interval between two weights, and the same-weight sheared
exponent profile whose stationary points the k = 0 face degeneracy check
verifies."""

import math

from tsbounds.geometry import rho_ww


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

"""Cone and correlation geometry for the tangential-sphere bound family.

Conventions: signal energy per dimension is normalized to 1, so the
transmitted point sits on the sphere of radius sqrt(n), two codewords at
Hamming distance h are 2*sqrt(h) apart in Euclidean space, and all SNR
dependence enters elsewhere through the noise variance.  Everything here is
a pure function of weights, the block length, and the cone radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConeGeometry",
    "beta_h",
    "delta_slope",
    "alpha_theta",
    "rho_min_h",
    "rho_max_wh",
    "rho_ww",
    "zeta_wh",
    "l_line",
]


def _check_interior_weight(value: int, n: int, name: str) -> None:
    if not 0 < value < n:
        raise ValueError(f"{name} must satisfy 0 < {name} < n={n}, got {value}")


@dataclass(frozen=True)
class ConeGeometry:
    """Circular cone around the signal ray: block length n and the radius r
    of its cross-section at the signal shell."""

    n: int
    r: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need n >= 2, got n={self.n}")
        if not self.r > 0:
            raise ValueError(f"cone radius must be positive, got r={self.r}")

    @property
    def eta(self) -> float:
        """Squared tangent of the half-angle, r^2 / n."""
        return self.r * self.r / self.n

    def r_z1(self, z1):
        """Cross-section radius after a radial noise displacement z1: linear,
        decreasing, and zero at the apex z1 = sqrt(n)."""
        sqrt_n = math.sqrt(self.n)
        return (sqrt_n - np.asarray(z1, dtype=float)) * (self.r / sqrt_n)


def delta_slope(h: int, n: int) -> float:
    """Slope sqrt(h/(n-h)) of the half-distance line for weight h."""
    _check_interior_weight(h, n, "h")
    return math.sqrt(h / (n - h))


def beta_h(z1, h: int, geo: ConeGeometry):
    """Half-distance threshold (sqrt(n) - z1) * sqrt(h/(n-h)) in the
    cross-section plane at radial displacement z1."""
    slope = delta_slope(h, geo.n)
    return (math.sqrt(geo.n) - np.asarray(z1, dtype=float)) * slope


def alpha_theta(h: int, geo: ConeGeometry) -> tuple[float, float | None]:
    """Chord radius alpha_h = r sqrt(1 - h/n) and opening angle
    theta_h = arccos(sqrt(h) / alpha_h) of the weight-h codeword circle.

    theta is None when sqrt(h) exceeds alpha_h (the weight lies outside the
    cone and is excluded); exact tangency gives theta = 0, a zero-measure
    cone.
    """
    _check_interior_weight(h, geo.n, "h")
    alpha = geo.r * math.sqrt(1.0 - h / geo.n)
    arg = math.sqrt(h) / alpha
    if arg > 1.0 + 1e-9:
        return alpha, None
    if arg >= 1.0:
        return alpha, 0.0
    return alpha, math.acos(arg)


def rho_min_h(h: int, d_min: int, n: int) -> float:
    """Most negative admissible correlation between a weight-h word and a
    weight-d_min word: -min{s, 1/s} with s = sqrt(h d_min / ((n-h)(n-d_min))).

    Reaches -1 exactly at the branch crossover h = n - d_min.
    """
    _check_interior_weight(h, n, "h")
    _check_interior_weight(d_min, n, "d_min")
    if h < d_min:
        raise ValueError(f"need h >= d_min, got h={h}, d_min={d_min}")
    s = math.sqrt((h * d_min) / ((n - h) * (n - d_min)))
    return -min(s, 1.0 / s)


def rho_max_wh(w: int, h: int, n: int) -> float:
    """Largest correlation realizable between binary n-tuples of distinct
    weights w and h."""
    if w == h:
        raise ValueError("w = h is handled by rho_ww, not rho_max_wh")
    _check_interior_weight(w, n, "w")
    _check_interior_weight(h, n, "h")
    return (min(w, h) * (n - max(w, h))) / math.sqrt(w * h * (n - w) * (n - h))


def rho_ww(w: int, n: int) -> float:
    """Largest correlation between two distinct weight-w words:
    1 - n/(w(n-w)).  Negative for small w; passed through unclamped."""
    _check_interior_weight(w, n, "w")
    return 1.0 - n / (w * (n - w))


def zeta_wh(w: int, h: int, n: int) -> float:
    """Slope ratio sqrt(w(n-h)/(h(n-w))) = delta_slope(w)/delta_slope(h)."""
    _check_interior_weight(w, n, "w")
    _check_interior_weight(h, n, "h")
    return math.sqrt((w * (n - h)) / (h * (n - w)))


def l_line(z2, beta_ref, rho: float):
    """Conditional threshold (beta_ref - rho * z2) / sqrt(1 - rho^2) for the
    third noise coordinate, given the second lies at z2.  |rho| = 1 is a
    genuine singularity and is rejected."""
    if abs(rho) >= 1.0:
        raise ValueError(f"correlation must satisfy |rho| < 1, got {rho}")
    return (beta_ref - rho * np.asarray(z2, dtype=float)) / math.sqrt(1.0 - rho * rho)

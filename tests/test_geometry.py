"""Tests for cone and correlation geometry."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import rho_bounds, zeta_wh
from tsbounds.geometry import (
    ConeGeometry,
    alpha_theta,
    beta_h,
    delta_slope,
    l_line,
    rho_max_wh,
    rho_min_h,
    rho_ww,
)


def test_cone_geometry_basic():
    geo = ConeGeometry(n=16, r=3.0)
    assert geo.eta == pytest.approx(9.0 / 16.0, rel=1e-15)
    assert geo.r_z1(0.0) == pytest.approx(3.0, rel=1e-15)
    assert geo.r_z1(4.0) == pytest.approx(0.0, abs=1e-15)
    z = np.array([0.0, 1.0, 4.0])
    rz = geo.r_z1(z)
    assert rz.shape == (3,)
    assert np.all(np.diff(rz) < 0)
    with pytest.raises(ValueError):
        ConeGeometry(n=16, r=0.0)
    with pytest.raises(ValueError):
        ConeGeometry(n=1, r=1.0)


def test_beta_h_values():
    geo = ConeGeometry(n=7, r=2.0)
    assert beta_h(math.sqrt(7), 3, geo) == pytest.approx(0.0, abs=1e-12)
    assert beta_h(0.0, 3, geo) == pytest.approx(math.sqrt(7) * math.sqrt(3 / 4), rel=1e-15)
    geo8 = ConeGeometry(n=8, r=2.0)
    z1 = 0.7
    assert beta_h(z1, 4, geo8) == pytest.approx(math.sqrt(8) - z1, rel=1e-15)
    for bad in (0, 7):
        with pytest.raises(ValueError):
            beta_h(0.0, bad, geo)


def test_beta_h_linear_decreasing():
    geo = ConeGeometry(n=23, r=4.0)
    z = np.linspace(-3, math.sqrt(23), 50)
    b = beta_h(z, 7, geo)
    diffs = np.diff(b) / np.diff(z)
    assert np.allclose(diffs, diffs[0])
    assert diffs[0] < 0


def test_alpha_theta_values():
    geo = ConeGeometry(n=7, r=3.0)
    alpha, theta = alpha_theta(3, geo)
    assert alpha == pytest.approx(3.0 * math.sqrt(4 / 7), rel=1e-15)
    assert theta == pytest.approx(math.acos(math.sqrt(3) / (3.0 * math.sqrt(4 / 7))), rel=1e-15)


def test_alpha_theta_boundary_cases():
    # Wide cone: the opening angle approaches a right angle.
    geo = ConeGeometry(n=7, r=1e9)
    _, theta = alpha_theta(3, geo)
    assert theta == pytest.approx(math.pi / 2, abs=1e-8)
    # Exact tangency: zero angle, not exclusion.
    n, h = 10, 4
    r_tangent = math.sqrt(h) / math.sqrt(1 - h / n)
    _, theta = alpha_theta(h, ConeGeometry(n=n, r=r_tangent))
    assert theta == pytest.approx(0.0, abs=1e-7)
    # Narrow cone: the weight falls outside and is flagged excluded.
    _, theta = alpha_theta(h, ConeGeometry(n=n, r=0.5 * r_tangent))
    assert theta is None


def test_rho_min_h_values():
    assert rho_min_h(3, 3, 7) == pytest.approx(-0.75, rel=1e-15)
    # Branch crossover h = n - d_min: both arguments of the min coincide.
    s = math.sqrt((4 * 3) / (3 * 4))
    assert s == 1.0
    assert rho_min_h(4, 3, 7) == -1.0
    # Past the crossover the reciprocal branch keeps the value above -1.
    assert rho_min_h(5, 3, 7) == pytest.approx(-math.sqrt((2 * 4) / (5 * 3)), rel=1e-14)
    assert rho_min_h(5, 3, 7) > -1.0
    with pytest.raises(ValueError):
        rho_min_h(2, 3, 7)
    with pytest.raises(ValueError):
        rho_min_h(7, 3, 7)


def test_rho_min_h_within_admissible_interval():
    for n in (7, 12, 23):
        for d_min in range(1, n):
            for h in range(d_min, n):
                lo, hi = rho_bounds(h, d_min, n)
                rho = rho_min_h(h, d_min, n)
                assert lo - 1e-12 <= rho <= hi + 1e-12
                assert -1.0 <= rho <= 1.0


def test_rho_bounds_values():
    lo, hi = rho_bounds(3, 4, 7)
    assert hi == pytest.approx(0.75, rel=1e-15)  # 3*3/sqrt(3*4*4*3)
    assert lo == pytest.approx(-min(math.sqrt(12 / 12), math.sqrt(12 / 12)), rel=1e-14)
    assert rho_bounds(3, 4, 7) == rho_bounds(4, 3, 7)
    lo2, hi2 = rho_bounds(4, 4, 8)
    assert hi2 == pytest.approx(Fraction(4 * 4, 16), rel=1e-15)  # = 1 at w = h
    assert lo <= hi and lo2 <= hi2


def test_rho_max_wh_values():
    n = 9
    assert rho_max_wh(1, n - 1, n) == pytest.approx(1 / (n - 1), rel=1e-14)
    assert rho_max_wh(3, 4, 7) == pytest.approx(0.75, rel=1e-15)
    assert rho_max_wh(3, 4, 7) == rho_max_wh(4, 3, 7)
    with pytest.raises(ValueError):
        rho_max_wh(3, 3, 7)


def test_rho_ww_values():
    assert rho_ww(4, 8) == pytest.approx(0.5, rel=1e-15)
    assert rho_ww(2, 4) == 0.0
    assert rho_ww(1, 7) == pytest.approx(1 - 7 / 6, rel=1e-14)
    assert rho_ww(1, 7) < 0.0  # negative values are legal and unclamped
    for bad in (0, 7):
        with pytest.raises(ValueError):
            rho_ww(bad, 7)


def test_zeta_wh_values():
    assert zeta_wh(3, 3, 7) == 1.0
    assert zeta_wh(3, 4, 7) == pytest.approx(0.75, rel=1e-15)
    assert zeta_wh(3, 4, 7) == pytest.approx(delta_slope(3, 7) / delta_slope(4, 7), rel=1e-14)


@given(
    n=st.integers(3, 40),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_zeta_reciprocal_identity(n, data):
    w = data.draw(st.integers(1, n - 1))
    h = data.draw(st.integers(1, n - 1))
    assert zeta_wh(w, h, n) * zeta_wh(h, w, n) == pytest.approx(1.0, rel=1e-12)


def test_rho_max_versus_zeta_cases():
    # h > w: the maximal correlation equals the slope ratio exactly;
    # h < w: it falls strictly below it.
    for n in range(3, 33):
        for w in range(1, n):
            for h in range(1, n):
                if h == w:
                    continue
                rho = rho_max_wh(w, h, n)
                zeta = zeta_wh(w, h, n)
                if h > w:
                    assert rho == pytest.approx(zeta, rel=1e-12)
                else:
                    assert rho < zeta - 1e-15


def test_beta_ratio_dominates_admissible_upper():
    # The ratio of two half-distance thresholds is a fixed slope ratio that
    # never falls below the largest admissible correlation, for every weight
    # pair on an exhaustive small-n sweep; it is strictly larger whenever
    # di > dj and meets the bound exactly when di < dj.
    for n in range(3, 33):
        geo = ConeGeometry(n=n, r=1.7)
        z1 = 0.3 * math.sqrt(n)
        for di in range(1, n):
            for dj in range(1, n):
                if di == dj:
                    continue
                ratio = float(beta_h(z1, di, geo) / beta_h(z1, dj, geo))
                expected = math.sqrt((di * (n - dj)) / (dj * (n - di)))
                assert ratio == pytest.approx(expected, rel=1e-12)
                _, upper = rho_bounds(di, dj, n)
                if di > dj:
                    assert ratio > upper + 1e-15
                else:
                    assert ratio == pytest.approx(upper, rel=1e-12)


@given(
    n=st.integers(3, 64),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_correlations_in_unit_interval(n, data):
    w = data.draw(st.integers(1, n - 1))
    h = data.draw(st.integers(1, n - 1))
    lo, hi = rho_bounds(w, h, n)
    assert -1.0 - 1e-12 <= lo <= hi <= 1.0 + 1e-12
    assert -1.0 <= rho_ww(w, n) < 1.0
    if w != h:
        assert -1.0 <= rho_max_wh(w, h, n) <= 1.0


def test_l_line_values():
    assert l_line(0.4, 2.0, 0.0) == pytest.approx(2.0, rel=1e-15)
    rho = -0.75
    assert l_line(2.0 / rho, 2.0, rho) == pytest.approx(0.0, abs=1e-12)
    assert l_line(1.0, 2.0, -0.75) == pytest.approx(11.0 / math.sqrt(7), rel=1e-14)
    z2 = np.array([0.0, 1.0, 2.0])
    out = l_line(z2, 2.0, 0.5)
    assert out.shape == (3,)
    assert np.all(np.diff(out) < 0)
    for rho_bad in (1.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            l_line(0.0, 1.0, rho_bad)

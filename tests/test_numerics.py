"""Tests for the scalar numeric kernel and the scipy incomplete gamma the
bounds integrate.

Reference values were frozen from a 40-digit arbitrary precision run
(mpmath) and are quoted to 20 significant digits.
"""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq
from scipy.special import gammainc, gammaincc

import tsbounds
from closed_forms import minimize_componentwise
from tsbounds import numerics
from tsbounds.cli import parse_grid
from tsbounds.exponents import gallager_rce
from tsbounds.numerics import (
    QuadratureResult,
    Tolerance,
    adaptive_integrate,
    log_q_function,
    minimize_1d,
    q_function,
    sin_power_integral,
    wallis,
)

# (a, x, P, ln P, Q, ln Q) spanning the series branch (x < a+1), the
# continued-fraction branch (x >= a+1), and a deep upper tail.
GAMMA_CASES = [
    (7.5, 6.2, 0.35146543834782832129, -1.0456438987454734442,
     0.64853456165217167871, -0.43303998188527315573),
    (0.5, 0.3, 0.56142197391900013648, -0.57728247453250311279,
     0.43857802608099986352, -0.82421754438792212505),
    (12.0, 25.0, 0.99858402702591897112, -0.0014169764111510628058,
     0.0014159729740810288825, -6.5599383699937192799),
    (3.0, 3.0, 0.57680991887315648468, -0.55024249677722107397,
     0.42319008112684351532, -0.85993383650372922917),
    (40.0, 30.0, 0.04625303764584203639, -3.0736281383514457043,
     0.95374696235415796361, -0.047356881338311099583),
    (2.5, 60.0, 1.0, None, 3.1385797727552960242e-24, -54.118271835926476724),
]


@pytest.mark.parametrize("a,x,p,logp,q,logq", GAMMA_CASES)
def test_reg_gamma_reference(a, x, p, logp, q, logq):
    assert float(gammainc(a, x)) == pytest.approx(p, rel=1e-12)
    assert float(gammaincc(a, x)) == pytest.approx(q, rel=1e-12)
    if logp is not None:
        assert math.log(gammainc(a, x)) == pytest.approx(logp, rel=1e-12, abs=1e-15)
    assert math.log(gammaincc(a, x)) == pytest.approx(logq, rel=1e-12)


def test_reg_gamma_edges():
    assert gammainc(3.0, 0.0) == 0.0
    assert gammaincc(3.0, 0.0) == 1.0
    # A negative argument gives NaN rather than an error, which is why the
    # bounds clamp chi-square arguments at zero before the call.
    assert math.isnan(gammainc(2.0, -1.0))


@given(
    a=st.floats(0.5, 50.0),
    x1=st.floats(0.0, 100.0),
    x2=st.floats(0.0, 100.0),
)
@settings(max_examples=200, deadline=None)
def test_reg_lower_gamma_monotone_and_complementary(a, x1, x2):
    lo, hi = sorted((x1, x2))
    p_lo, p_hi = float(gammainc(a, lo)), float(gammainc(a, hi))
    assert 0.0 <= p_lo <= 1.0
    assert p_lo <= p_hi + 1e-13
    assert p_hi + float(gammaincc(a, hi)) == pytest.approx(1.0, abs=1e-12)


Q_CASES = [
    (1.5, 0.066807201268858066004, -2.705944400823889807),
    (-0.7, 0.75803634777692697138, -0.277023942277131263),
    (0.0, 0.5, math.log(0.5)),
    (3.2, 0.00068713793791584803162, -7.2829755029036313263),
    (8.0, 6.2209605742717841235e-16, -35.013437159914549896),
    (31.0, 2.6952500812005000786e-211, -484.85396362717928858),
    (40.0, None, -804.60844201375378817),  # Q underflows; only the log survives
]


@pytest.mark.parametrize("x,q,logq", Q_CASES)
def test_q_function_reference(x, q, logq):
    if q is not None:
        assert q_function(x) == pytest.approx(q, rel=1e-13)
    assert log_q_function(x) == pytest.approx(logq, rel=1e-13)


@given(x=st.floats(-10.0, 36.0))
@settings(max_examples=300, deadline=None)
def test_log_q_consistent_with_direct(x):
    assert log_q_function(x) == pytest.approx(math.log(q_function(x)), rel=1e-12)


SIN_POWER_CASES = [
    (61, 1.1, 0.000026696734113520411041, -10.530969317885185515),
    (2, 0.7, 0.1036375675028849364, -2.2668553942035273483),
    (5, math.pi / 2, 0.5333333333333332721, -0.62860865942237425255),
    (200, 1.2, 9.5667329165573926926e-9, -18.464974077797238001),
    (0, 0.9, 0.9, math.log(0.9)),
    (1, 0.4, 0.078939005997114925848, -2.5390798007051672934),
    (3, 1e-3, 2.4999991666668022915e-13, -29.017315810381773466),
]


@pytest.mark.parametrize("m,theta,value,logvalue", SIN_POWER_CASES)
def test_sin_power_integral_reference(m, theta, value, logvalue):
    assert math.exp(sin_power_integral(m, theta)) == pytest.approx(value, rel=1e-11)
    assert sin_power_integral(m, theta) == pytest.approx(logvalue, rel=1e-11)


def test_sin_power_integral_edges():
    assert sin_power_integral(17, 0.0) == -math.inf
    # 1 - cos(theta) underflows here; the log is that of theta^2 / 2.
    for theta in (1e-300, 5e-324):
        assert sin_power_integral(1, theta) == pytest.approx(2 * math.log(theta) - math.log(2.0))
    # Full range reduces to the complete integral for every parity.
    for m in (0, 1, 2, 5, 61, 200):
        full = math.exp(sin_power_integral(m, math.pi / 2))
        assert full == pytest.approx(math.exp(wallis(m)), rel=1e-12)
    with pytest.raises(ValueError):
        sin_power_integral(-1, 0.5)
    with pytest.raises(ValueError):
        sin_power_integral(3, 2.0)


def test_wallis_reference():
    assert math.exp(wallis(0)) == pytest.approx(math.pi / 2, rel=1e-14)
    assert math.exp(wallis(1)) == pytest.approx(1.0, rel=1e-14)
    assert math.exp(wallis(2)) == pytest.approx(math.pi / 4, rel=1e-14)
    assert math.exp(wallis(5)) == pytest.approx(8.0 / 15.0, rel=1e-14)
    assert math.exp(wallis(61)) == pytest.approx(0.15981414117778535617, rel=1e-13)
    assert wallis(200) == pytest.approx(math.log(0.088511983848219323521), rel=1e-13)


@given(
    m=st.integers(0, 300),
    t1=st.floats(0.0, math.pi / 2),
    t2=st.floats(0.0, math.pi / 2),
)
@settings(max_examples=200, deadline=None)
def test_sin_power_integral_monotone(m, t1, t2):
    lo, hi = sorted((t1, t2))
    lo_value, hi_value = (math.exp(sin_power_integral(m, t)) for t in (lo, hi))
    assert lo_value <= hi_value * (1 + 1e-12) + 1e-300


# Infinite intervals are truncated where the integrand is below 1e-300.


def test_adaptive_integrate_gaussian_tail():
    res = adaptive_integrate(lambda x: np.exp(-0.5 * x * x), 0.0, 40.0)
    assert res.converged
    assert res.value == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)
    assert res.error < 1e-8


def test_adaptive_integrate_gamma_moment():
    res = adaptive_integrate(lambda x: x**3 * np.exp(-x), 0.0, 800.0)
    assert res.converged
    assert res.value == pytest.approx(6.0, rel=1e-11)


def test_adaptive_integrate_finite_and_two_sided():
    res = adaptive_integrate(lambda x: np.sin(x) / x, 1e-300, 1.0)
    assert res.value == pytest.approx(0.94608307036718301494, rel=1e-10)
    norm = adaptive_integrate(
        lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), -40.0, 40.0
    )
    assert norm.value == pytest.approx(1.0, rel=1e-11)
    assert adaptive_integrate(lambda x: x, 2.0, 2.0).value == 0.0


def test_adaptive_integrate_reports_nonconvergence():
    hard = lambda x: np.sin(1000.0 * x)
    res = adaptive_integrate(hard, 0.0, 3.0, Tolerance(abs_tol=1e-14, rel_tol=0.0, max_iter=3))
    assert not res.converged
    assert res.error > 0.0


def _refined_in_steps(f, a, b, tol):
    """One run of f over [a, b] refined to rel 1e-1, then 1e-4, then tol:
    the result and the run's bisection count after each step."""
    res = adaptive_integrate(f, a, b, replace(tol, rel_tol=1e-1))
    steps = [(res, res.run.iterations)]
    for step in (replace(tol, rel_tol=1e-4), tol):
        steps.append((res.run.refine(step), res.run.iterations))
    return steps


def test_refining_a_run_in_steps_equals_one_call():
    # Stepwise refinement continues the same heap, totals and bisection
    # budget, so it returns exactly what one adaptive_integrate call does:
    # converged, stopped by max_iter across the steps, and on an empty range.
    kink = lambda x: np.sqrt(np.abs(x))
    converged = Tolerance(abs_tol=0.0, rel_tol=1e-14, max_iter=200)
    (coarse, i1), (mid, i2), (last, i3) = _refined_in_steps(kink, -1.0, 2.0, converged)
    assert last == adaptive_integrate(kink, -1.0, 2.0, converged) and last.converged
    assert coarse.converged and mid.converged and 0 <= i1 < i2 < i3 < 200
    assert abs(mid.value - last.value) <= 1e-4 * last.value
    starved = replace(converged, max_iter=20)
    *_, (last, i3) = _refined_in_steps(kink, -1.0, 2.0, starved)
    assert last == adaptive_integrate(kink, -1.0, 2.0, starved)
    assert not last.converged and i3 == 20
    *_, (last, i3) = _refined_in_steps(kink, 2.0, 2.0, converged)
    assert last == adaptive_integrate(kink, 2.0, 2.0) == QuadratureResult(0.0, 0.0, True)
    assert i3 == 0


def test_gallager_rce_rows_unchanged():
    # The exponent sweep's e_rce column at R = 1/2 on 1/(Eb/N0) = 0.45..0.85.
    # full_line holds the rows of E0 integrated over the whole output line,
    # half_line those of the even integrand over its positive half, doubled,
    # both adaptive quadratures maximized from a 33-point rho grid.  One fixed
    # Gauss-Kronrod rule, maximized at the root of the objective's slope,
    # moves the maximum by the E0 quadrature's rounding only (<= 1.9e-13
    # relative, against its 1e-11 target); slope_root pins its rows bit for
    # bit.
    full_line = [0.06700331512756857, 0.04712762747737867, 0.03276760607721321,
                 0.022334437277906738, 0.014764117149819886, 0.009321956442346721,
                 0.005487468614484556, 0.002883790827165021, 0.0012328967922080394]
    half_line = [0.06700331512756857, 0.04712762747737828, 0.032767606077213074,
                 0.022334437277907404, 0.014764117149819803, 0.009321956442346457,
                 0.005487468614484653, 0.002883790827164695, 0.00123289679220797]
    slope_root = [0.06700331512756863, 0.04712762747737856, 0.032767606077213324,
                  0.022334437277907182, 0.01476411714981972, 0.009321956442346707,
                  0.005487468614484556, 0.0028837908271645007, 0.001232896792208206]
    got = [gallager_rce(0.5, 0.5 / x) for x in parse_grid("0.45:0.85:0.05")]
    assert got == slope_root
    for rows in (full_line, half_line):
        assert all(abs(g - w) <= 1e-12 * w for g, w in zip(got, rows))


def test_gk15_rule_is_adaptive_panels_summed():
    # The composite rule gives what adaptive_integrate's panel rule gives on
    # each of the same panels, summed: the integral and, up to rounding, the
    # error estimate.
    f = lambda x: np.exp(-0.5 * (x - 1.3) ** 2) * np.cos(x)
    for a, b, k in [(0.0, 13.3, 14), (-2.0, 3.0, 1), (1.0, 1.5, 3), (0.0, 30.0, 3)]:
        x, kron, gauss = numerics.gk15_rule(a, b, k)
        assert x.shape == (k, 15) and np.all(np.diff(x.ravel()) > 0.0)
        edges = np.linspace(a, b, k + 1)
        panels = [numerics._gk15(f, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        fx = f(x)
        assert (fx @ kron).sum() == pytest.approx(sum(v for v, _ in panels), rel=1e-14)
        assert np.abs(fx @ (kron - gauss)).sum() == pytest.approx(
            sum(e for _, e in panels), rel=1e-12, abs=1e-15)
    for a, b, k in [(1.0, 1.0, 1), (0.0, math.inf, 4), (0.0, 1.0, 0)]:
        with pytest.raises(ValueError):
            numerics.gk15_rule(a, b, k)


def test_adaptive_integrate_rejects_bad_interval():
    with pytest.raises(ValueError):
        adaptive_integrate(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValueError, match="finite"):
        adaptive_integrate(lambda x: np.exp(-x), 0.0, math.inf)
    with pytest.raises(ValueError, match="finite"):
        adaptive_integrate(lambda x: np.exp(-x * x), -math.inf, 0.0)


def test_minimize_1d_quadratic():
    xm, fm = minimize_1d(lambda x: (x - 0.37) ** 2 + 1.0, -1.0, 2.0,
                         Tolerance(abs_tol=1e-12, rel_tol=1e-12, max_iter=200))
    # Comparison-based search cannot place the argument better than ~sqrt(eps)
    # on a flat quadratic; the value itself is much tighter.
    assert xm == pytest.approx(0.37, abs=1e-6)
    assert fm == pytest.approx(1.0, rel=1e-12)


def test_minimize_1d_multimodal_and_ties():
    # Global minimum sits in a narrow well that a coarse scan could miss.
    f = lambda x: np.minimum((x - 0.123) ** 2, 0.5 * (x - 3.0) ** 2 + 0.2)
    xm, _ = minimize_1d(f, -1.0, 4.0, grid_points=513)
    assert xm == pytest.approx(0.123, abs=1e-6)
    # A constant lands on the smallest grid argument.
    xm, fm = minimize_1d(lambda x: np.ones_like(x), 0.0, 1.0)
    assert xm == 0.0 and fm == 1.0


def test_minimize_componentwise_matches_scalar_calls():
    # minimize_1d on each function must equal that component of the vector
    # oracle (tests/closed_forms.py) bit for bit: a constant and two box-edge
    # minima (grid seed kept), and interior minima whose brackets meet the
    # tolerance after different iteration counts.  minimize_1d hands its
    # objective arrays (the whole grid, then one or two abscissae); each
    # function maps them through scalar calls, counted one by one.
    funcs = [
        lambda x: 1.0,
        lambda x: x,
        lambda x: -x,
        lambda x: (x - 0.37) ** 2 + 1.0,
        lambda x: math.cos(3.0 * x) + 0.1 * x,
        lambda x: (x - 1e-3) ** 2,
        lambda x: (x - 2.5e3) ** 2,
    ]
    lo = [0.0, 0.0, 0.0, -1.0, -2.0, 0.0, 1e3]
    hi = [1.0, 1.0, 1.0, 2.0, 5.0, 1.0, 4e3]

    def vector_f(x):
        return np.array([g(float(xi)) for g, xi in zip(funcs, x)])

    for tol in (Tolerance(), Tolerance(abs_tol=1e-6, rel_tol=1e-6, max_iter=30)):
        xs, vs = minimize_componentwise(vector_f, lo, hi, tol, grid_points=17)
        evals = []
        for i, g in enumerate(funcs):
            sizes = []

            def counted(x, g=g):
                sizes.append(x.size)
                return np.array([g(float(xi)) for xi in x])

            xm, fm = minimize_1d(counted, lo[i], hi[i], tol, grid_points=17)
            assert (xm, fm) == (float(xs[i]), float(vs[i])), i
            assert sizes[:2] == [17, 2] and set(sizes[2:]) == {1}, sizes
            evals.append(sum(sizes))
        assert len(set(evals)) >= 3, evals
    assert (xs[0], vs[0]) == (0.0, 1.0)
    assert (xs[1], xs[2]) == (0.0, 1.0)


def test_minimize_1d_slope_root_solve():
    # With a sign change of the slope next to the grid minimum, a root solve
    # replaces the golden steps: the grid, the slopes around its minimum,
    # root-solve steps of one point each, then the value at the root.
    fsizes, ssizes = [], []

    def f(x):
        fsizes.append(x.size)
        return (x - 0.37) ** 2 + 1.0

    def slope(x):
        ssizes.append(x.size)
        return 2.0 * (x - 0.37)

    xm, fm = minimize_1d(f, -1.0, 2.0, grid_points=17, slope=slope)
    assert xm == pytest.approx(0.37, abs=1e-12) and fm == 1.0
    assert fsizes == [17, 1] and ssizes[0] == 3 and set(ssizes[1:]) == {1}
    assert len(ssizes) < 10


def test_minimize_1d_slope_at_kinks():
    # A convex kink: the slope jumps across zero there and the root solve
    # closes on the jump.  Then a minimum of two branches with the active
    # branch's slope given, as for the layered assembly's minimum over
    # layers: the slope jumps down where the branches cross.  Here the
    # crossing (x = 0.3995) lies in the root bracket [0.3125, 0.5] between the
    # two branch minima, so the slope changes sign three times there; the
    # search ends on a branch minimum, not on the crossing.
    xm, fm = minimize_1d(lambda x: np.abs(x - 0.37) + 1.0, -1.0, 2.0,
                         grid_points=17, slope=lambda x: np.sign(x - 0.37))
    assert xm == pytest.approx(0.37, abs=1e-10) and fm == pytest.approx(1.0, abs=1e-10)

    def branches(x):
        return (x - 0.34) ** 2, (x - 0.45) ** 2 + 1e-3

    def slope(x):
        a, b = branches(x)
        return np.where(a <= b, 2.0 * (x - 0.34), 2.0 * (x - 0.45))

    xm, fm = minimize_1d(lambda x: np.minimum(*branches(x)), -1.0, 2.0,
                         grid_points=17, slope=slope)
    assert xm == pytest.approx(0.34, abs=1e-12) and fm <= 1e-24


def test_minimize_1d_slope_of_one_sign_keeps_the_seed():
    # A slope that keeps its sign around the grid minimum decides it without
    # a step: at a box end where it points out of the box, and inside where
    # it moves f by less than rounding across a grid step.
    fsizes = []

    def counted(g):
        def f(x):
            fsizes.append(x.size)
            return g(x)
        return f

    assert minimize_1d(counted(lambda x: -x), 0.0, 1.0, grid_points=17,
                       slope=lambda x: -np.ones_like(x)) == (1.0, -1.0)
    assert minimize_1d(counted(np.exp), 0.0, 1.0, grid_points=17, slope=np.exp) == (0.0, 1.0)
    flat = counted(lambda x: np.where(x < 0.5, 1.0 + (x - 0.5) ** 2, 1.0))
    assert minimize_1d(flat, 0.0, 1.0, grid_points=17,
                       slope=lambda x: np.minimum(2.0 * (x - 0.5), 0.0)) == (0.5, 1.0)
    assert fsizes == [17, 17, 17]


def test_minimize_1d_slope_that_decides_nothing_takes_golden_steps():
    # A slope that decides nothing leaves the search to the golden steps,
    # exactly as without one.
    f = lambda x: np.cos(3.0 * x) + 0.1 * x
    want = minimize_1d(f, -2.0, 5.0, grid_points=17)
    assert minimize_1d(f, -2.0, 5.0, grid_points=17,
                       slope=lambda x: np.full_like(x, np.nan)) == want


def test_minimize_1d_slope_accepts_zero_abs_tol():
    # abs_tol = 0 is a valid Tolerance.  The slope path's root solve then stops
    # on rel_tol alone, and its minimizer agrees with the golden path's to
    # rel_tol.
    tol = Tolerance(abs_tol=0.0, rel_tol=1e-10)
    for centre in (0.3, 1e-3, 0.77):
        cases = [
            (lambda x: (x - centre) ** 2, lambda x: 2.0 * (x - centre)),
            (lambda x: np.expm1(x - centre) ** 2,
             lambda x: 2.0 * np.expm1(x - centre) * np.exp(x - centre)),
        ]
        for f, slope in cases:
            xs, _ = minimize_1d(f, 0.0, 1.0, tol, slope=slope)
            xg, _ = minimize_1d(f, 0.0, 1.0, tol)
            assert abs(xs - xg) <= tol.rel_tol * xg, (centre, xs, xg)


# Root families for the brentq oracle: monotone, non-monotone, a jump, values
# whose products underflow, and one that turns NaN past r + 0.5.
_ROOT_FAMILIES = {
    "linear": lambda x, r: x - r,
    "cubic": lambda x, r: (x - r) ** 3 - 0.5 * (x - r),
    "wavy": lambda x, r: math.tanh(3.0 * (x - r)) + 0.2 * math.sin(9.0 * x),
    "exp": lambda x, r: math.expm1(x - r),
    "jump": lambda x, r: 1.0 if x > r else -1.0,
    "tiny": lambda x, r: 1e-200 * math.sin(2.0 * (x - r)),
    "nan": lambda x, r: x - r if x < r + 0.5 else math.nan,
}


def _traced_root(solver, g, a, b, **kwargs):
    """(the root's hex form, or the exception type raised; the abscissae at
    which solver called g, in order)."""
    xs = []

    def f(x):
        xs.append(x)
        return g(x)

    try:
        return solver(f, a, b, **kwargs).hex(), xs
    except (ValueError, RuntimeError) as err:
        return type(err), xs


@given(
    family=st.sampled_from(sorted(_ROOT_FAMILIES)),
    r=st.floats(-2.0, 2.0),
    scale=st.sampled_from([1.0, -1.0, 1e-3, -1e5]),
    a=st.floats(-4.0, 4.0),
    width=st.floats(-6.0, 6.0),
    xtol=st.sampled_from([5e-324, 1e-12, 1e-6]),
    rtol=st.floats(4.0 * np.finfo(float).eps, 1e-2),
    maxiter=st.integers(3, 60),
    disp=st.booleans(),
)
@settings(max_examples=1000, deadline=None)
def test_brentq_takes_scipys_steps(family, r, scale, a, width, xtol, rtol, maxiter, disp):
    # numerics.brentq ports scipy's C loop: the same root bit for bit, the
    # same abscissae in the same order, and the same exception types.
    g = lambda x: scale * _ROOT_FAMILIES[family](x, r)
    kwargs = dict(xtol=xtol, rtol=rtol, maxiter=maxiter, disp=disp)
    want = _traced_root(scipy_brentq, g, a, a + width, **kwargs)
    assert _traced_root(numerics.brentq, g, a, a + width, **kwargs) == want


@pytest.mark.parametrize("g, a, b, maxiter, error", [
    (lambda x: x * x + 1.0, -1.0, 2.0, 100, ValueError),  # ends of one sign
    (lambda x: x - 0.7 if x < 0.9 else math.nan, 0.0, 2.0, 100, ValueError),  # f(b) NaN
    (lambda x: x - 0.7 if x < 0.5 or x > 1.2 else math.nan, 0.0, 2.0, 100, ValueError),
    (lambda x: math.tanh(3.0 * (x - 0.4)) + 0.2 * math.sin(9.0 * x), -3.0, 2.0, 3,
     RuntimeError),  # no convergence in three steps
])
def test_brentq_errors_match_scipy(g, a, b, maxiter, error):
    kwargs = dict(xtol=1e-12, rtol=1e-14, maxiter=maxiter)
    want = _traced_root(scipy_brentq, g, a, b, **kwargs)
    assert want[0] is error
    assert _traced_root(numerics.brentq, g, a, b, **kwargs) == want
    # without disp an unconverged solve returns its last iterate
    kwargs["disp"] = False
    assert _traced_root(numerics.brentq, g, a, b, **kwargs) == _traced_root(
        scipy_brentq, g, a, b, **kwargs)


def test_no_tsbounds_module_loads_scipy_beyond_special():
    # A fresh interpreter, because this session loads scipy.optimize and
    # scipy.integrate itself through the test oracles.
    code = (
        "import importlib, pkgutil, sys, tsbounds\n"
        "for m in pkgutil.iter_modules(tsbounds.__path__):\n"
        "    importlib.import_module('tsbounds.' + m.name)\n"
        "print(' '.join(m for m in sys.modules if m.startswith(('scipy.', 'tsbounds.'))))\n"
    )
    src = str(Path(tsbounds.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    loaded = set(done.stdout.split())
    assert {"tsbounds.bounds", "tsbounds.cli", "tsbounds.mcsim"} <= loaded
    for name in ("scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.integrate"):
        assert name not in loaded
    public = {m.split(".")[1] for m in loaded
              if m.startswith("scipy.") and not m.split(".")[1].startswith("_")}
    assert public - {"version"} == {"special"}  # scipy.version is a module


def test_minimize_componentwise_validation():
    # the scalar minimizer's argument checks; the oracle keeps its own
    with pytest.raises(ValueError):
        minimize_1d(lambda x: x, 1.0, 1.0)
    with pytest.raises(ValueError):
        minimize_1d(lambda x: x, 0.0, 1.0, grid_points=2)
    with pytest.raises(ValueError):
        minimize_componentwise(lambda x: x, [0.0, 1.0], [1.0, 1.0])


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(abs_tol=0.0, rel_tol=0.0)
    with pytest.raises(ValueError):
        Tolerance(abs_tol=-1.0)
    with pytest.raises(ValueError):
        Tolerance(max_iter=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tolerance_rejects_non_finite(bad):
    # nan passes a `< 0` check, and a nan or inf tolerance meets no target
    # or any: a run would then end unconverged at max_iter, or converge on
    # its first panel
    with pytest.raises(ValueError, match="finite"):
        Tolerance(abs_tol=bad)
    with pytest.raises(ValueError, match="finite"):
        Tolerance(rel_tol=bad)

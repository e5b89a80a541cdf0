"""Tests for the scalar numeric kernel and the scipy incomplete gamma the
bounds integrate.

Reference values were frozen from a 40-digit arbitrary precision run
(mpmath) and are quoted to 20 significant digits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaincc

from closed_forms import minimize_componentwise
from tsbounds.numerics import (
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
    assert sin_power_integral(m, theta) == pytest.approx(value, rel=1e-11)
    assert sin_power_integral(m, theta, log=True) == pytest.approx(logvalue, rel=1e-11)


def test_sin_power_integral_edges():
    assert sin_power_integral(17, 0.0) == 0.0
    assert sin_power_integral(17, 0.0, log=True) == -math.inf
    # Full range reduces to the complete integral for every parity.
    for m in (0, 1, 2, 5, 61, 200):
        assert sin_power_integral(m, math.pi / 2) == pytest.approx(wallis(m), rel=1e-12)
    with pytest.raises(ValueError):
        sin_power_integral(-1, 0.5)
    with pytest.raises(ValueError):
        sin_power_integral(3, 2.0)


def test_wallis_reference():
    assert wallis(0) == pytest.approx(math.pi / 2, rel=1e-14)
    assert wallis(1) == pytest.approx(1.0, rel=1e-14)
    assert wallis(2) == pytest.approx(math.pi / 4, rel=1e-14)
    assert wallis(5) == pytest.approx(8.0 / 15.0, rel=1e-14)
    assert wallis(61) == pytest.approx(0.15981414117778535617, rel=1e-13)
    assert wallis(200, log=True) == pytest.approx(math.log(0.088511983848219323521), rel=1e-13)


@given(
    m=st.integers(0, 300),
    t1=st.floats(0.0, math.pi / 2),
    t2=st.floats(0.0, math.pi / 2),
)
@settings(max_examples=200, deadline=None)
def test_sin_power_integral_monotone(m, t1, t2):
    lo, hi = sorted((t1, t2))
    assert sin_power_integral(m, lo) <= sin_power_integral(m, hi) * (1 + 1e-12) + 1e-300


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
    f = lambda x: min((x - 0.123) ** 2, 0.5 * (x - 3.0) ** 2 + 0.2)
    xm, _ = minimize_1d(f, -1.0, 4.0, grid_points=513)
    assert xm == pytest.approx(0.123, abs=1e-6)
    # A constant lands on the smallest grid argument.
    xm, fm = minimize_1d(lambda x: 1.0, 0.0, 1.0)
    assert xm == 0.0 and fm == 1.0


def test_minimize_componentwise_matches_scalar_calls():
    # The scalar minimize_1d must equal each component of the vector oracle
    # (tests/closed_forms.py) bit for bit: a constant and two box-edge minima
    # (grid seed kept), and interior minima whose brackets meet the
    # tolerance after different iteration counts.
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
            count = [0]

            def counted(x, g=g):
                count[0] += 1
                return g(x)

            xm, fm = minimize_1d(counted, lo[i], hi[i], tol, grid_points=17)
            assert (xm, fm) == (float(xs[i]), float(vs[i])), i
            evals.append(count[0])
        assert len(set(evals)) >= 3, evals
    assert (xs[0], vs[0]) == (0.0, 1.0)
    assert (xs[1], xs[2]) == (0.0, 1.0)


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

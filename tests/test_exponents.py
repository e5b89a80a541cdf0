"""Exponent-layer suite: elementary exponent functions against high-precision
evaluation, the conditioned-term quadratic against an independent
moment-product construction, the k = 0 face degeneracy, the exponential
assemblies against the exact finite-length bounds, and the asymptotic closed
forms against dense-grid and random-coding oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import _g1, _g2, _tau_star, _xi_star, minimize_componentwise
from tsbounds import exponents
from tsbounds.bounds import ChannelPoint, tsb_block
from tsbounds.codes import DistanceSpectrum, GrowthRate, random_ensemble_spectrum
from tsbounds.exponents import (
    ExponentResult,
    chernoff_psi,
    chernoff_tsb,
    e1,
    e2,
    finite_n_exponent,
    g_fn,
    gallager_rce,
    tsb_exponent,
    union_exponent,
    verify_kstar_zero,
)
from tsbounds.numerics import log_q_function

NEG_INF = -math.inf
R_HAMMING = 4 / 7
R_GOLAY = 12 / 23

# frozen closed-form exponent at (rate 1/2, c = 0.8); recompute with any
# independent minimizer of the per-delta objective to 1e-11
E_HALF_08 = 0.01688237693876482
DELTA_HALF_08 = 0.22002098847332688
GAMMA_HALF_08 = 0.4659132841963663


def code_spec(n, counts):
    log_a = np.full(n + 1, NEG_INF)
    log_a[0] = 0.0
    for h, a in counts.items():
        log_a[h] = math.log(a)
    return DistanceSpectrum(
        n=n, log_a=log_a, d_min=min(h for h in counts if h > 0), kind="code"
    )


@pytest.fixture(scope="module")
def half_rate_48():
    return random_ensemble_spectrum(48, 0.5)


@pytest.fixture(scope="module")
def half_rate_64():
    return random_ensemble_spectrum(64, 0.5)


@pytest.fixture(scope="module")
def half_rate_fn(half_rate_64):
    return GrowthRate.from_spectrum(half_rate_64)


# ---------------------------------------------------------------------------
# elementary exponent functions
# ---------------------------------------------------------------------------


def test_e1_zero_tilt_and_frozen_value():
    assert e1(0.7, 0.0, 1.3) == 0.0
    assert e1(2.0, 0.0, 0.2) == 0.0
    # 40-digit evaluation of 2 p eta c / (1 + 2 p eta) + ln(1 - 2p) / 2
    assert e1(1.0, 0.2, 0.5) == pytest.approx(-0.088746145216328674936, rel=1e-14)


def test_e1_slope_at_zero_tilt():
    # d e1 / dp at p = 0 is 2 eta c - 1: positive slope means a nonzero tilt
    # pays off, which is how the cap term beats its own zero-tilt value
    c, eta = 1.0, 0.8
    fd = (e1(c, 1e-7, eta) - e1(c, 0.0, eta)) / 1e-7
    assert fd == pytest.approx(2.0 * eta * c - 1.0, abs=1e-5)


def test_e1_validation():
    with pytest.raises(ValueError):
        e1(1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        e1(1.0, -0.01, 1.0)
    with pytest.raises(ValueError):
        e1(0.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        e1(1.0, 0.1, 0.0)


def test_e2_zero_tilt_is_c_delta():
    for c, d, eta in [(0.7, 0.3, 1.2), (2.5, 0.9, 0.4), (0.1, 0.5, 3.0)]:
        assert e2(c, 0.0, d, eta) == pytest.approx(c * d, rel=1e-15)


def test_e2_frozen_values():
    # 40-digit evaluations, interior point and the lower tilt edge
    assert e2(0.9, -0.3, 0.25, 1.5) == pytest.approx(-0.2860508169560795916, rel=1e-13)
    assert e2(0.9, -1.0 / 3.0, 0.25, 1.5) == pytest.approx(
        -0.4645871881170046584, rel=1e-13
    )


def test_e2_finite_on_admissible_box():
    for eta in (0.2, 1.0, 4.0):
        for d in (0.05, 0.3, 0.6, 0.95):
            for u in np.linspace(0.0, 1.0, 9):
                q = -u * 0.5 / eta
                assert math.isfinite(e2(1.1, q, d, eta))


def test_e2_validation():
    with pytest.raises(ValueError):
        e2(1.0, 0.01, 0.3, 1.0)
    with pytest.raises(ValueError):
        e2(1.0, -0.51, 0.3, 1.0)  # below -1/(2 eta)
    with pytest.raises(ValueError):
        e2(1.0, -0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        e2(1.0, -0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        e2(-1.0, -0.1, 0.3, 1.0)


# ---------------------------------------------------------------------------
# conditioned-term quadratic
# ---------------------------------------------------------------------------


def log_moment_product(c, t, s, eta, h, n, log_ah):
    """Independent k = 0 reconstruction: ln of A_h times the product of the
    Gaussian moment factors of the rotated coordinates, shifted by the
    constant that completes the conditioning exponent."""
    a = math.sqrt(2.0 * n * c)
    dh = math.sqrt(h / (n - h))

    def log_m(aa, bb):
        # ln E[exp(aa X^2 + bb X)] for standard normal X, aa < 1/2
        return bb * bb / (2.0 * (1.0 - 2.0 * aa)) - 0.5 * math.log1p(-2.0 * aa)

    lm = (n - 3) * (-0.5 * math.log1p(-2.0 * t))
    lm += log_m(-t * eta, 2.0 * eta * t * a + s * dh)
    lm += log_m(t, s)
    lm += log_m(t, 0.0)
    lm += -2.0 * t * eta * n * c - s * dh * a
    return log_ah + lm


def test_g_zero_point(half_rate_48):
    # t = s = k = 0 reduces the quadratic to minus the log weight count
    assert g_fn(0.5, 0.0, 0.0, 0.0, 1.0, 10, 20, 48, half_rate_48) == pytest.approx(
        -float(half_rate_48.log_a[20]), rel=1e-15
    )
    empty = code_spec(16, {5: 30})
    assert g_fn(0.5, 0.0, 0.0, 0.0, 1.0, 5, 9, 16, empty) == math.inf


def test_g_moment_identity(half_rate_48):
    # sqrt((1-2t)/(1+2t eta)) e^{-g} must equal the moment product exactly
    points = [
        (0.8, -0.2, 1.3, 1.1, 12, 20),
        (1.5, -0.05, 0.4, 0.3, 20, 20),
        (0.4, -0.9, 2.0, 0.5, 30, 8),
        (2.2, -0.01, 0.0, 3.0, 5, 40),
    ]
    for c, t, s, eta, w, h in points:
        g = g_fn(c, t, 0.0, s, eta, w, h, 48, half_rate_48)
        lhs = 0.5 * (math.log1p(-2.0 * t) - math.log1p(2.0 * t * eta)) - g
        rhs = log_moment_product(c, t, s, eta, h, 48, float(half_rate_48.log_a[h]))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    c=st.floats(0.1, 3.0),
    eta=st.floats(0.2, 4.0),
    u=st.floats(0.05, 0.95),
    s=st.floats(0.0, 3.0),
    w=st.integers(1, 47),
    h=st.integers(1, 47),
)
def test_g_moment_identity_randomized(c, eta, u, s, w, h):
    spec = random_ensemble_spectrum(48, 0.5)
    t = -u * 0.5 / eta
    g = g_fn(c, t, 0.0, s, eta, w, h, 48, spec)
    lhs = 0.5 * (math.log1p(-2.0 * t) - math.log1p(2.0 * t * eta)) - g
    rhs = log_moment_product(c, t, s, eta, h, 48, float(spec.log_a[h]))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_g_same_weight_stationary_points():
    # the sheared-coordinate profile minimizers: zero gradient at tau*(xi)
    # and at xi*, and eliminating tau reproduces the one-variable profile
    c, t, eta, w, n = 0.9, -0.3, 0.8, 16, 48
    xi = _xi_star(c, t, eta, w, n)
    tau = _tau_star(xi, w, n)
    eps = 1e-6
    d_tau = (_g1(c, t, xi, tau + eps, eta, w, n) - _g1(c, t, xi, tau - eps, eta, w, n))
    d_xi = (_g2(c, t, xi + eps, eta, w, n) - _g2(c, t, xi - eps, eta, w, n))
    assert abs(d_tau) / (2 * eps) < 1e-5
    assert abs(d_xi) / (2 * eps) < 1e-5
    assert _g1(c, t, xi, tau, eta, w, n) == pytest.approx(
        _g2(c, t, xi, eta, w, n), rel=1e-12
    )


def test_g_validation(half_rate_48):
    with pytest.raises(ValueError):
        g_fn(0.5, 0.0, 0.0, 0.0, 1.0, 10, 20, 32, half_rate_48)  # n mismatch
    with pytest.raises(ValueError):
        g_fn(0.5, 0.1, 0.0, 0.0, 1.0, 10, 20, 48, half_rate_48)  # t > 0
    with pytest.raises(ValueError):
        g_fn(0.5, -0.6, 0.0, 0.0, 1.0, 10, 20, 48, half_rate_48)  # t <= -1/(2 eta)
    with pytest.raises(ValueError):
        g_fn(0.5, -0.1, -0.2, 0.0, 1.0, 10, 20, 48, half_rate_48)
    with pytest.raises(ValueError):
        g_fn(0.5, -0.1, 0.0, -0.2, 1.0, 10, 20, 48, half_rate_48)
    with pytest.raises(ValueError):
        g_fn(0.0, -0.1, 0.0, 0.0, 1.0, 10, 20, 48, half_rate_48)


# ---------------------------------------------------------------------------
# k = 0 face degeneracy
# ---------------------------------------------------------------------------


def test_kstar_face_three_shapes(half_rate_64):
    # the constrained maximizer lands on k = 0 whether the conditioning
    # weight is below, equal to, or above the conditioned weight
    for w, h in [(20, 20), (10, 30), (30, 10)]:
        k_star, s_star, best = verify_kstar_zero(0.8, 1.3, w, h, 64, half_rate_64)
        assert k_star <= 1e-6
        assert s_star >= 0.0
        face = g_fn(0.8, -0.25 / 1.3, 0.0, s_star, 1.3, w, h, 64, half_rate_64)
        assert best == pytest.approx(face, rel=1e-9, abs=1e-9)


def test_kstar_face_randomized(half_rate_48):
    rng = np.random.default_rng(20240831)
    for _ in range(30):
        w = int(rng.integers(1, 48))
        h = int(rng.integers(1, 48))
        c = float(rng.uniform(0.2, 3.0))
        eta = float(np.exp(rng.uniform(-2.0, 2.0)))
        t = -float(rng.uniform(0.05, 0.95)) * 0.5 / eta
        k_star, _, _ = verify_kstar_zero(c, eta, w, h, 48, half_rate_48, t=t)
        assert k_star <= 1e-5, (w, h, c, eta, t)


def test_kstar_validation(half_rate_48):
    empty = code_spec(16, {5: 30})
    with pytest.raises(ValueError):
        verify_kstar_zero(0.8, 1.3, 5, 9, 16, empty)  # no words at weight 9
    with pytest.raises(ValueError):
        verify_kstar_zero(0.8, 1.3, 10, 20, 48, half_rate_48, t=0.6)  # bad tilt


# ---------------------------------------------------------------------------
# exponential assemblies
# ---------------------------------------------------------------------------


def test_chernoff_dominates_block_bound_hamming():
    ham = code_spec(7, {3: 7, 4: 7, 7: 1})
    for db in (0.0, 2.0, 5.0, 8.0):
        ch = ChannelPoint.from_eb_n0_db(db, R_HAMMING)
        lt = chernoff_tsb(7, ch.c, ham)
        tb = tsb_block(ham, ch).log_value
        assert lt >= tb, f"{db} dB"


def test_chernoff_dominates_block_bound_golay(golay_spec):
    for db in (2.0, 5.0):
        ch = ChannelPoint.from_eb_n0_db(db, R_GOLAY)
        lt = chernoff_tsb(23, ch.c, golay_spec)
        tb = tsb_block(golay_spec, ch).log_value
        assert lt >= tb, f"{db} dB"


def test_chernoff_saturates_at_trivial_bound():
    # at 0 dB the slope search walks to the narrow-cone limit where the cap
    # term alone is the whole probability: the bound flattens at one
    ham = code_spec(7, {3: 7, 4: 7, 7: 1})
    ch = ChannelPoint.from_eb_n0_db(0.0, R_HAMMING)
    lt = chernoff_tsb(7, ch.c, ham)
    assert 0.0 <= lt <= 1e-3


def test_chernoff_single_weight_dominates_exact_pair():
    # one weight leaves a single pairwise event: Q(sqrt(2 h c)) exactly
    single = code_spec(7, {3: 1})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for c in (0.3, 0.9, 2.0):
            lt = chernoff_tsb(7, c, single)
            assert lt >= log_q_function(math.sqrt(2.0 * 3.0 * c))
            assert lt <= math.log(0.5)  # still far from vacuous


def test_chernoff_edge_pin_warning():
    # a one-weight spectrum at low SNR keeps improving as the cone widens
    # past the search box; the pin is reported but the value still returned
    single = code_spec(7, {3: 1})
    with pytest.warns(RuntimeWarning, match="pinned at the box edge"):
        chernoff_tsb(7, 0.3, single)


def test_chernoff_validation(half_rate_48):
    with pytest.raises(ValueError):
        chernoff_tsb(32, 0.8, half_rate_48)  # n mismatch
    with pytest.raises(ValueError):
        chernoff_tsb(48, 0.0, half_rate_48)
    no_words = DistanceSpectrum(
        n=4, log_a=np.array([0.0, NEG_INF, NEG_INF, NEG_INF, NEG_INF]), d_min=1
    )
    with pytest.raises(ValueError):
        chernoff_tsb(4, 0.8, no_words)


def test_psi_assembly_adds_reference_layer():
    # the envelope assembly carries one extra nonnegative term, so it can
    # only sit above the plain exponential bound; at n = 7 the gap is visible
    ham = code_spec(7, {3: 7, 4: 7, 7: 1})
    ch = ChannelPoint.from_eb_n0_db(2.0, R_HAMMING)
    lt = chernoff_tsb(7, ch.c, ham)
    lp = chernoff_psi(7, ch.c, ham)
    assert lp >= lt
    assert lp > lt + 1e-4
    with pytest.raises(ValueError):
        chernoff_psi(1, 0.8, DistanceSpectrum(n=1, log_a=np.array([0.0, 0.0]), d_min=1))


def test_psi_assembly_gap_closes_with_n():
    # The paper's coincidence of exponents at finite n: the reference-layer
    # term keeps chernoff_psi at or above chernoff_tsb, and its share of the
    # sum vanishes as n grows (log gaps ~1.3e-3, ~5.2e-7 and 0 in double
    # precision at n = 8, 16, 32), which is why the two are equal at n >= 64.
    gap = {}
    for n in (8, 16, 32):
        spec = random_ensemble_spectrum(n, 0.5)
        lt, lp = chernoff_tsb(n, 1.0, spec), chernoff_psi(n, 1.0, spec)
        assert lp >= lt
        gap[n] = lp - lt
    assert gap[8] > gap[16] >= gap[32] >= 0.0
    assert gap[8] > 1e-4


# Frozen logs of the n = 64, rate-1/2 ensemble assemblies; at this length the
# reference-layer term is already negligible, so the two coincide.
CHERNOFF_64 = {
    ("tsb", 1.0): -2.5599641459338764,
    ("tsb", 1.5): -9.290262509046787,
    ("psi", 1.0): -2.5599641459338764,
    ("psi", 1.5): -9.290262509046787,
}


@pytest.mark.parametrize("kind, c", sorted(CHERNOFF_64))
def test_chernoff_frozen_values(half_rate_64, kind, c):
    fn = chernoff_tsb if kind == "tsb" else chernoff_psi
    assert fn(64, c, half_rate_64) == pytest.approx(CHERNOFF_64[kind, c], rel=1e-12)


def test_exponent_coincidence_moderate_length():
    # both assemblies converge to the same closed-form exponent; by n = 128
    # the reference-layer term is already far below the shared terms, so the
    # normalized exponents agree to machine precision and sit within 1/n of
    # the limit
    spec = random_ensemble_spectrum(128, 0.5)
    lt = chernoff_tsb(128, 0.8, spec)
    lp = chernoff_psi(128, 0.8, spec)
    ft = finite_n_exponent(lt, 128)
    fp = finite_n_exponent(lp, 128)
    assert lp >= lt
    assert abs(fp - ft) <= 5e-3
    assert abs(ft - E_HALF_08) < 0.01


# ---------------------------------------------------------------------------
# per-weight tilt solve of the assemblies
# ---------------------------------------------------------------------------


def tilt_box(n, eta):
    """Tilt boxes of the assemblies' per-weight objectives: [0, 1/2) for the
    cap at h = 0 and [-1/(2 eta), 0] for the pair terms, both kept 1e-9
    (relative) off their poles."""
    edge = 1.0 - 1e-9
    hs = np.arange(n + 1)
    return (np.where(hs == 0, 0.0, -0.5 / eta * edge),
            np.where(hs == 0, 0.5 * edge, 0.0))


def tilt_objective(n, c, eta):
    """ln sqrt((1-2q)/(1+2q eta)) - n E(q) for every weight h at once, with
    E the moment exponent at Delta^2 = h/(n-h) (+inf at h = n)."""
    hs = np.arange(n + 1)
    dsq = np.where(hs < n, hs / np.maximum(n - hs, 1), np.inf)

    def f(q):
        denom = 1.0 + 2.0 * q * eta + (1.0 - 2.0 * q) * dsq
        e = c * (1.0 - 1.0 / denom) + 0.5 * np.log1p(-2.0 * q)
        return 0.5 * (np.log1p(-2.0 * q) - np.log1p(2.0 * q * eta)) - n * e

    return f


def test_tilt_solve_matches_grid_golden_oracle():
    # The exact per-weight solve against the search it replaced: a 33-point
    # grid, then golden refinement, per weight.  Every minimum agrees to
    # 1e-12 relative, so none sits above the oracle's by more.  The sweep
    # covers the cap, h = n, and minima at both box ends and inside.
    where = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 2, 7, 23, 64, 512):
            for c in (0.05, 0.3, 1.0, 5.0):
                for log_eta in (-6.0, -3.0, 0.0, 3.0, 6.0):
                    eta = math.exp(log_eta)
                    lo, hi = tilt_box(n, eta)
                    q, got = exponents._tilt_terms(n, c, eta)
                    _, want = minimize_componentwise(
                        tilt_objective(n, c, eta), lo, hi, grid_points=33
                    )
                    slack = 1e-12 * np.maximum(1.0, np.abs(want))
                    assert np.all(np.abs(got - want) <= slack), (n, c, log_eta)
                    assert np.all((lo <= q) & (q <= hi))
                    at = np.where(q == lo, "lo", np.where(q == hi, "hi", "inside"))
                    where.update(("any", a) for a in at)
                    where.update({("cap", at[0]), ("h=n", at[n])})
    # the cap's minimum sits at q -> 1/2 only for n = 1, where its slope is
    # negative throughout; the h = n term's slope is negative at its lower end
    assert where == {(at, end) for at in ("any", "cap") for end in ("lo", "hi", "inside")
                     } | {("h=n", "hi"), ("h=n", "inside")}


def test_tilt_solve_work_is_bounded(monkeypatch):
    # One bracketing pass plus at most 12 Newton steps per slope at n = 512.
    # Without the factor p the pole at the lower tilt edge drives Newton to
    # bisection, and rejecting a step that lands exactly on a bracket end
    # keeps bisecting after the root is found; either breaks this bound.
    per_slope, calls = [], [0]
    slope, total = exponents._tilt_slope, exponents._chernoff_log_total

    def slope_spy(*args):
        calls[0] += 1
        return slope(*args)

    def total_spy(*args, **kwargs):
        calls[0] = 0
        value = total(*args, **kwargs)
        per_slope.append(calls[0])
        return value

    monkeypatch.setattr(exponents, "_tilt_slope", slope_spy)
    monkeypatch.setattr(exponents, "_chernoff_log_total", total_spy)
    chernoff_tsb(512, 1.0, random_ensemble_spectrum(512, 0.5))
    assert len(per_slope) > 33
    assert max(per_slope) <= 1 + 12


def test_tilt_objective_slope_nondecreasing():
    # f' = g / p from _tilt_slope never decreases across the tilt box of
    # random (n, c, eta, h): the convexity that makes a box end or the one
    # root of f' the exact minimum.
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 600))
        c = math.exp(rng.uniform(math.log(0.01), math.log(10.0)))
        eta = math.exp(rng.uniform(-6.0, 6.0))
        h = int(rng.integers(0, n + 1))
        lo, hi = tilt_box(n, eta)
        q = np.linspace(lo[h], hi[h], 2001)
        g, _ = exponents._tilt_slope(q, n, c, 1.0 - h / n, eta)
        fp = g / (1.0 + 2.0 * q * eta)
        assert np.all(np.diff(fp) >= -1e-12 * np.abs(fp[1:])), (n, c, eta, h)


# ---------------------------------------------------------------------------
# asymptotic closed forms
# ---------------------------------------------------------------------------


def test_tsb_exponent_frozen_point(half_rate_fn):
    res = tsb_exponent(half_rate_fn, 0.8)
    assert res.exponent == pytest.approx(E_HALF_08, rel=1e-10)
    assert res.delta_star == pytest.approx(DELTA_HALF_08, abs=1e-6)
    assert res.gamma_star == pytest.approx(GAMMA_HALF_08, rel=1e-6)
    assert res.c0_star > 0.0
    assert not res.vacuous


def test_tsb_exponent_dense_grid_oracle(half_rate_fn):
    # vectorized 200k-point reimplementation of the per-delta objective
    c = 0.6
    ds = np.linspace(1e-6, 1.0 - 1e-6, 200_000)
    rs = -ds * np.log(ds) - (1.0 - ds) * np.log1p(-ds) - 0.5 * math.log(2.0)
    adm = rs >= 0.0
    d, r = ds[adm], rs[adm]
    c0 = (1.0 - np.exp(-2.0 * r)) * (1.0 - d) / (2.0 * d)
    x = np.sqrt(c / c0 + (1.0 + c) ** 2 - 1.0) - (1.0 + c)
    gamma = x * (1.0 - d) / d
    interior = 0.5 * np.log1p(-2.0 * c0 * x) + c * x / (1.0 + x)
    grid_min = float(np.min(np.where((gamma >= 0) & (gamma <= 1), interior, c * d - r)))
    res = tsb_exponent(half_rate_fn, c)
    assert res.exponent <= grid_min + 1e-12
    assert grid_min - res.exponent <= 1e-5


def test_tsb_exponent_interior_minimizer_ignores_c(half_rate_fn):
    # the interior objective depends on delta only through c0, and it is
    # strictly decreasing in c0, so while gamma* stays in [0,1] the
    # minimizing delta is argmax c0(delta) regardless of the channel
    results = [tsb_exponent(half_rate_fn, c) for c in (0.625, 0.8, 1.0)]
    assert all(r.gamma_star <= 1.0 for r in results)
    assert all(
        r.delta_star == pytest.approx(results[0].delta_star, abs=1e-9)
        for r in results
    )
    eps = 1e-5
    d = results[0].delta_star

    def c0_of(dd):
        r = half_rate_fn(dd)
        return (1.0 - math.exp(-2.0 * r)) * (1.0 - dd) / (2.0 * dd)

    assert (c0_of(d + eps) - c0_of(d - eps)) / (2 * eps) == pytest.approx(0.0, abs=1e-3)
    # past gamma* = 1 the boundary branch takes over and delta* moves
    kink = tsb_exponent(half_rate_fn, 1.5)
    assert kink.gamma_star > 1.0
    assert abs(kink.delta_star - d) > 1e-3


def test_tsb_exponent_nondecreasing_in_c(half_rate_fn):
    es = [tsb_exponent(half_rate_fn, c).exponent for c in (0.55, 0.6, 0.8, 1.0, 1.4)]
    assert all(b >= a for a, b in zip(es, es[1:]))
    assert tsb_exponent(half_rate_fn, 0.3).vacuous
    assert tsb_exponent(half_rate_fn, 0.5).vacuous
    assert not tsb_exponent(half_rate_fn, 0.55).vacuous


def test_tsb_exponent_flat_spectrum_degenerate():
    # one word at every weight: r = 0 everywhere, the interior tilt diverges,
    # and the boundary branch gives exactly c * d_min / n
    n = 32
    flat = DistanceSpectrum(n=n, log_a=np.zeros(n + 1), d_min=1)
    res = tsb_exponent(GrowthRate.from_spectrum(flat), 1.1)
    assert res.exponent == 1.1 / n
    assert res.delta_star == 1.0 / n
    assert res.gamma_star == math.inf
    assert res.c0_star == 0.0


def test_exponent_empty_domain_raises():
    below = GrowthRate(fn=lambda d: -1.0, kind="analytic")
    with pytest.raises(ValueError):
        tsb_exponent(below, 0.8)
    with pytest.raises(ValueError):
        union_exponent(below, 0.8)
    with pytest.raises(ValueError):
        tsb_exponent(GrowthRate(fn=lambda d: 0.0, kind="analytic"), 0.0)


def test_union_exponent_single_weight_exact():
    # a single zero-growth weight makes both objectives c * delta exactly
    gr = GrowthRate.from_spectrum(code_spec(32, {8: 1}))
    u = union_exponent(gr, 1.3)
    t = tsb_exponent(gr, 1.3)
    assert u.exponent == pytest.approx(1.3 * 0.25, rel=1e-15)
    assert u.delta_star == 0.25
    assert t.exponent == u.exponent
    assert t.gamma_star == math.inf


def test_union_exponent_stationarity(half_rate_fn):
    # interior minimizer of c delta - r(delta) satisfies r'(delta*) = c
    res = union_exponent(half_rate_fn, 0.6)
    assert res.delta_star == pytest.approx(0.354344, abs=2e-4)
    eps = 1e-6
    slope = (half_rate_fn(res.delta_star + eps) - half_rate_fn(res.delta_star - eps))
    assert slope / (2 * eps) == pytest.approx(0.6, abs=5e-3)
    assert res.exponent == pytest.approx(-0.090914, abs=1e-4)
    assert res.vacuous


def test_union_never_beats_cone_exponent(half_rate_fn):
    # the per-delta objective dominates c delta - r pointwise by construction
    for c in (0.6, 0.8, 1.0, 1.5):
        assert union_exponent(half_rate_fn, c).exponent <= tsb_exponent(
            half_rate_fn, c
        ).exponent + 1e-12


def test_gallager_rce_reference_point(half_rate_fn):
    # random-coding exponent at rate 1/2, c = 0.8; the cone exponent must sit
    # between the union and random-coding exponents at this point
    g = gallager_rce(0.5, 0.8)
    assert g == pytest.approx(0.018243428528483457, rel=1e-6)
    assert tsb_exponent(half_rate_fn, 0.8).exponent < g


def test_gallager_rce_nonnegative_and_zero_below_capacity():
    # rho = 0 is always admissible and gives 0, so the maximum is >= 0; for
    # channels too noisy for the rate the maximum is exactly the rho = 0 value
    assert gallager_rce(0.5, 1e-9) == pytest.approx(0.0, abs=1e-8)
    assert gallager_rce(0.9, 0.8) == pytest.approx(0.0, abs=1e-8)
    for rate, c in [(0.5, 0.6), (0.5, 2.0), (0.9, 3.0), (0.1, 0.2)]:
        assert gallager_rce(rate, c) >= -1e-12


def test_gallager_rce_validation():
    with pytest.raises(ValueError):
        gallager_rce(0.0, 1.0)
    with pytest.raises(ValueError):
        gallager_rce(1.0, 1.0)
    with pytest.raises(ValueError):
        gallager_rce(0.5, 0.0)


def test_finite_n_exponent_values_and_validation():
    assert finite_n_exponent(-5.0, 5) == 1.0
    assert finite_n_exponent(0.0, 7) == 0.0
    assert finite_n_exponent(math.log(2.0), 4) == -math.log(2.0) / 4
    with pytest.raises(ValueError):
        finite_n_exponent(math.nan, 4)
    with pytest.raises(ValueError):
        finite_n_exponent(NEG_INF, 4)
    with pytest.raises(ValueError):
        finite_n_exponent(-5.0, 0)


def test_result_dataclass_validation():
    with pytest.raises(ValueError):
        ExponentResult(exponent=0.1, delta_star=0.0, gamma_star=0.5, c0_star=0.1)
    with pytest.raises(ValueError):
        ExponentResult(exponent=0.1, delta_star=1.5, gamma_star=0.5, c0_star=0.1)
    ok = ExponentResult(exponent=0.0, delta_star=0.3, gamma_star=0.5, c0_star=0.1)
    assert not ok.vacuous
    assert ExponentResult(
        exponent=-0.2, delta_star=0.3, gamma_star=0.5, c0_star=0.1
    ).vacuous


def test_chernoff_params_validation(half_rate_48):
    # the tilt box -1/(2 eta) < t < 1/2 with eta > 0, checked before the
    # multiplier search starts
    for t in (0.0, -0.49):
        verify_kstar_zero(0.8, 1.0, 10, 20, 48, half_rate_48, t=t)
    for t, eta in ((0.0, 0.0), (0.5, 1.0), (-0.5, 1.0)):
        with pytest.raises(ValueError, match="tilt"):
            verify_kstar_zero(0.8, eta, 10, 20, 48, half_rate_48, t=t)

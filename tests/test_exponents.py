"""Exponent-layer suite: elementary exponent functions against high-precision
evaluation, the conditioned-term quadratic against an independent
moment-product construction, the k = 0 face degeneracy, the exponential
assemblies against the exact finite-length bounds, and the asymptotic closed
forms against dense-grid and random-coding oracles."""

import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.optimize import brentq as scipy_brentq

from closed_forms import (
    _g1,
    _g2,
    _tau_star,
    _xi_star,
    closed_form,
    g_fn,
    minimize_componentwise,
    scalar_scan_exponent,
    verify_kstar_zero,
)
from tsbounds import exponents, numerics
from tsbounds.bounds import ChannelPoint, tsb_block
from tsbounds.codes import DistanceSpectrum, GrowthRate, random_ensemble_spectrum
from tsbounds.exponents import (
    ExponentResult,
    chernoff_psi,
    chernoff_tsb,
    finite_n_exponent,
    gallager_rce,
    tsb_exponent,
    union_exponent,
)
from tsbounds.numerics import Tolerance, adaptive_integrate, log_q_function, minimize_1d

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


# E1 (the outside-the-cone event) and E2 (one pair event) are the moment
# exponent the assemblies evaluate, at Delta^2 = 0 with a tilt in [0, 1/2)
# and at Delta^2 = delta/(1-delta) with a tilt in [-1/(2 eta), 0].
moment = exponents._moment_exponent


def test_e1_zero_tilt_and_frozen_value():
    assert moment(0.7, 0.0, 0.0, 1.3) == 0.0
    assert moment(2.0, 0.0, 0.0, 0.2) == 0.0
    # 40-digit evaluation of 2 p eta c / (1 + 2 p eta) + ln(1 - 2p) / 2
    assert moment(1.0, 0.2, 0.0, 0.5) == pytest.approx(-0.088746145216328674936, rel=1e-14)


def test_e1_slope_at_zero_tilt():
    # d e1 / dp at p = 0 is 2 eta c - 1: positive slope means a nonzero tilt
    # pays off, which is how the cap term beats its own zero-tilt value
    c, eta = 1.0, 0.8
    fd = (moment(c, 1e-7, 0.0, eta) - moment(c, 0.0, 0.0, eta)) / 1e-7
    assert fd == pytest.approx(2.0 * eta * c - 1.0, abs=1e-5)


def e2_dsq(delta):
    return delta / (1.0 - delta)


def test_e2_zero_tilt_is_c_delta():
    for c, d, eta in [(0.7, 0.3, 1.2), (2.5, 0.9, 0.4), (0.1, 0.5, 3.0)]:
        assert moment(c, 0.0, e2_dsq(d), eta) == pytest.approx(c * d, rel=1e-15)


def test_e2_frozen_values():
    # 40-digit evaluations, interior point and the lower tilt edge
    assert moment(0.9, -0.3, e2_dsq(0.25), 1.5) == pytest.approx(
        -0.2860508169560795916, rel=1e-13)
    assert moment(0.9, -1.0 / 3.0, e2_dsq(0.25), 1.5) == pytest.approx(
        -0.4645871881170046584, rel=1e-13
    )


def test_e2_finite_on_admissible_box():
    for eta in (0.2, 1.0, 4.0):
        for d in (0.05, 0.3, 0.6, 0.95):
            for u in np.linspace(0.0, 1.0, 9):
                q = -u * 0.5 / eta
                assert math.isfinite(moment(1.1, q, e2_dsq(d), eta))


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
                    q, got = exponents._solve_tilts(n, c, eta)
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
    # One box-end pass plus at most 2 Newton steps per tilt solve at n = 512,
    # the grid scan's batch of 33 slopes included (a batch steps until its
    # last slope settles): the cubic's root seeds Newton, which confirms it.
    # Without the factor p the pole at the lower tilt edge drives Newton to
    # bisection, and rejecting a step that lands exactly on a bracket end
    # keeps bisecting after the root is found; either breaks this bound.
    # After the grid, the slope search asks for the slopes next to the grid
    # minimum (kept, so solved already) and then one slope per root-solve
    # step: at most 17 steps, 50 slopes in all.
    per_solve, batches, calls, solved = [], [], [0], []
    slope, total, solve = (exponents._tilt_slope, exponents._chernoff_log_total,
                           exponents._solve_tilts)

    def slope_spy(*args, **kwargs):
        calls[0] += 1
        return slope(*args, **kwargs)

    def total_spy(n, c, spec, eta, *args):
        batches.append(eta.size)
        return total(n, c, spec, eta, *args)

    def solve_spy(n, c, eta):
        solved.append(np.size(eta))
        calls[0] = 0
        value = solve(n, c, eta)
        per_solve.append(calls[0])
        return value

    monkeypatch.setattr(exponents, "_TILTS", threading.local())  # no solve remembered
    monkeypatch.setattr(exponents, "_tilt_slope", slope_spy)
    monkeypatch.setattr(exponents, "_chernoff_log_total", total_spy)
    monkeypatch.setattr(exponents, "_solve_tilts", solve_spy)
    chernoff_tsb(512, 1.0, random_ensemble_spectrum(512, 0.5))
    assert batches[:2] == [33, 3] and max(batches[2:]) == 1
    assert solved[0] == 33 and set(solved[1:]) == {1} and sum(solved) <= 50
    assert max(per_solve) <= 1 + 2, per_solve


def test_tilt_seed_is_in_box_and_near_root():
    # The closed-form root of the cubic C(q) = g r e^2 against the converged
    # tilt, wherever the minimum is interior (f' changes sign on the box, so
    # the solver starts from the seed): finite, inside the box and within
    # 1e-9 of the box width, with no warning escaping its formula.  Elsewhere
    # the root lies outside the box and the minimum comes back exactly at lo
    # or hi.  ln eta = 0 puts k = u (eta + 1) - 1 exactly at 0 for h = n/2
    # (C linear), and eta = 1 -+ 2e-3 gives that weight k = -+1e-3.
    at_k0 = near_k0 = ends = 0
    for n in (1, 2, 7, 23, 64, 512):
        hs = np.arange(n + 1)
        u = 1.0 - hs / n
        for c in (0.05, 0.3, 1.0, 5.0):
            for eta in [math.exp(x) for x in (-6.0, -3.0, 0.0, 3.0, 6.0)] + [0.998, 1.002]:
                lo, hi = tilt_box(n, eta)
                k = u * (eta + 1.0) - 1.0
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    seed = exponents._tilt_seed(n, c, u, eta)
                    q, _ = exponents._solve_tilts(n, c, eta)
                g_lo, g_hi = exponents._tilt_slope(np.stack([lo, hi]), n, c, u, eta, False)
                end = np.where(g_hi <= 0.0, hi, np.where(g_lo > 0.0, lo, np.nan))
                inside = np.isnan(end)
                assert np.array_equal(q[~inside], end[~inside]), (n, c, eta)
                seed, q, lo, hi = seed[inside], q[inside], lo[inside], hi[inside]
                assert np.all(np.isfinite(seed) & (lo <= seed) & (seed <= hi)), (n, c, eta)
                assert np.all(np.abs(seed - q) <= 1e-9 * (hi - lo)), (n, c, eta)
                at_k0 += np.count_nonzero(k[inside] == 0.0)
                near_k0 += np.count_nonzero(np.abs(np.abs(k[inside]) - 1e-3) < 1e-12)
                ends += np.count_nonzero(~inside)
    # k = 0: n = 64 and 512 at every c; at n = 2 the linear root is the box
    # end 0.  k = -+1e-3: at least n = 64 and 512, both slopes, every c.
    assert at_k0 == 2 * 4 and near_k0 >= 2 * 2 * 4 and ends > 0


def test_value_reads_skip_term_slopes(monkeypatch):
    # The grid scan, the value at the root and the edge check read values
    # only, so only the slope search's calls compute term slopes.
    sizes, total, term_slopes = [], exponents._chernoff_log_total, exponents._term_slopes

    def total_spy(n, c, spec, eta, layered=False, with_slope=True):
        sizes.append((eta.size, with_slope))
        return total(n, c, spec, eta, layered, with_slope)

    def slopes_spy(q, *args):
        assert sizes[-1][1], "term slopes computed for a value read"
        return term_slopes(q, *args)

    monkeypatch.setattr(exponents, "_chernoff_log_total", total_spy)
    monkeypatch.setattr(exponents, "_term_slopes", slopes_spy)
    spec = random_ensemble_spectrum(64, 0.5)
    for fn in (chernoff_tsb, chernoff_psi):
        sizes.clear()
        fn(64, 1.0, spec)
        assert sizes[0] == (33, False) and sizes[1] == (3, True), sizes


def test_batched_tilt_solves_match_one_slope_solves():
    # A column of slopes solved at once (the slope search's grid scan) gives
    # row by row what solving each slope alone gives, to 1e-12 relative, and
    # every batched tilt stays inside its box.
    etas = np.exp(np.linspace(-6.0, 6.0, 33))
    for n in (1, 7, 64, 512):
        for c in (0.05, 1.0, 5.0):
            q, terms = exponents._solve_tilts(n, c, etas)
            assert q.shape == terms.shape == (33, n + 1)
            for k, eta in enumerate(etas.tolist()):
                q1, t1 = exponents._solve_tilts(n, c, eta)
                lo, hi = tilt_box(n, eta)
                assert np.all(np.abs(terms[k] - t1) <= 1e-12 * np.maximum(1.0, np.abs(t1)))
                assert np.all(np.abs(q[k] - q1) <= 1e-12 * (hi - lo))
                assert np.all((lo <= q[k]) & (q[k] <= hi)), (n, c, eta)


def test_chernoff_psi_reuses_chernoff_tsb_tilt_solves(monkeypatch):
    # At one (n, c) both assemblies search the same slopes, so chernoff_psi
    # after chernoff_tsb solves no tilt: at n = 256, c = 1, at most 50
    # slopes solved by the grid and the root solve of chernoff_tsb's search,
    # then none, counted per slope since one solve takes a batch.  The
    # solves (tilts and terms) are kept per thread, for the latest (n, c)
    # only, and a caller gets a copy of them.
    solves = []
    solve = exponents._solve_tilts

    def spy(n, c, eta):
        solves.extend(eta.tolist())
        return solve(n, c, eta)

    monkeypatch.setattr(exponents, "_TILTS", threading.local())
    monkeypatch.setattr(exponents, "_solve_tilts", spy)
    spec = random_ensemble_spectrum(256, 0.5)
    chernoff_tsb(256, 1.0, spec)
    tsb = len(solves)
    chernoff_psi(256, 1.0, spec)
    assert 33 < tsb <= 50 and len(solves) == tsb
    assert len(set(solves)) == len(solves)  # no slope solved twice
    kept = exponents._TILTS.by_eta[solves[0]].copy()
    for row in exponents._tilt_rows(256, 1.0, np.array(solves[:1])):
        row[:] = 0.0
    assert np.array_equal(exponents._TILTS.by_eta[solves[0]], kept)
    worker = threading.Thread(target=chernoff_psi, args=(256, 1.0, spec))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert len(solves) == 2 * tsb  # another thread solves its own
    exponents._tilt_rows(128, 1.0, np.array(solves[:1]))
    exponents._tilt_rows(256, 1.0, np.array(solves[:1]))
    assert len(solves) == 2 * tsb + 2  # another (n, c) replaced the memo


def assembly_spec(n):
    """The rate-1/2 ensemble spectrum, or at n = 1 the one word of weight 1."""
    if n == 1:
        return DistanceSpectrum(n=1, log_a=np.array([0.0, 0.0]), d_min=1)
    return random_ensemble_spectrum(n, 0.5)


def test_envelope_slope_matches_central_differences():
    # Each term's slope in ln eta, read off its solved tilt by the envelope
    # theorem, and the assembled slope (plain and layered) against central
    # differences with step 1e-5 over the whole slope box, the cap (h = 0)
    # and h = n columns included.  The envelope theorem needs each tilt at
    # a root of f' or a box end fixed in eta: no pair tilt sits at the
    # moving end -1/(2 eta).
    xs = np.linspace(-6.0, 6.0, 49)
    hx = 1e-5
    for n in (1, 7, 64, 512):
        spec = assembly_spec(n)
        hs = np.arange(n + 1)
        for c in (0.05, 1.0, 5.0):
            eta = np.exp(xs)
            q, terms = exponents._tilt_rows(n, c, eta)
            lo, _ = tilt_box(n, eta[:, None])
            assert np.all(q[:, 1:] > lo[:, 1:]), (n, c)
            slopes = exponents._term_slopes(q, n, c, 1.0 - hs / n, eta[:, None])
            up = exponents._tilt_rows(n, c, np.exp(xs + hx))[1]
            down = exponents._tilt_rows(n, c, np.exp(xs - hx))[1]
            fd = (up - down) / (2.0 * hx)
            assert np.all(np.abs(fd - slopes) <= 1e-6 * (1.0 + np.abs(slopes))
                          + 1e-9 * np.abs(terms)), (n, c)
            for layered in (False, True) if n > 1 else (False,):
                _, got = exponents._chernoff_log_total(n, c, spec, eta, layered)
                up = exponents._chernoff_log_total(n, c, spec, np.exp(xs + hx), layered)[0]
                down = exponents._chernoff_log_total(n, c, spec, np.exp(xs - hx), layered)[0]
                fd = (up - down) / (2.0 * hx)
                assert np.all(np.abs(fd - got) <= 1e-6 * (1.0 + np.abs(got))), (n, c, layered)


def test_slope_search_never_above_golden_search(monkeypatch):
    # The assemblies' root solve of the envelope slope against the golden
    # search it replaced, on the same objective: never above it by more than
    # 1e-13 relative over n = 7..512 and c = 0.05..5, with every way the
    # slope can settle the search taken at least once (a sign change solved
    # for its root, a box end with the slope pointing out, a minimum flat
    # below rounding, and neither, left to golden steps).  Slopes solved per
    # call: the 33 of the grid, plus at most 17 root-solve steps, or one
    # inward check of a pinned box end.
    branch, solved = [], [0]
    pick, solve = numerics._slope_refinement, exponents._solve_tilts

    def pick_spy(slope, xs, best, value, tol):
        x = pick(slope, xs, best, value, tol)
        kind = ("golden" if x is None else "root" if x != xs[best]
                else "edge" if best in (0, xs.size - 1) else "flat")
        branch.append(kind)
        return x

    def solve_spy(n, c, eta):
        solved[0] += np.size(eta)
        return solve(n, c, eta)

    monkeypatch.setattr(numerics, "_slope_refinement", pick_spy)
    monkeypatch.setattr(exponents, "_solve_tilts", solve_spy)
    for n in (7, 16, 32, 64, 128, 256, 512):
        spec = random_ensemble_spectrum(n, 0.5)
        for c in (0.05, 0.3, 1.0, 1.5, 5.0):
            for layered, fn in ((False, chernoff_tsb), (True, chernoff_psi)):
                solved[0] = 0
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    got = fn(n, c, spec)
                ceiling = {"root": 50, "edge": 34, "flat": 33}.get(branch[-1], 200)
                assert solved[0] <= ceiling, (n, c, layered, branch[-1], solved[0])

                def total(x):
                    return exponents._chernoff_log_total(n, c, spec, np.exp(x), layered)[0]

                _, want = minimize_1d(total, -6.0, 6.0, grid_points=33)
                assert got <= want + 1e-13 * abs(want), (n, c, layered, branch[-1])
    assert set(branch) == {"root", "edge", "flat", "golden"}


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


def test_exponent_array_scan_matches_scalar_scan():
    # The weight scan and its refinement run on arrays, whose numpy
    # transcendentals may differ from the math module's in the last bit.
    # Against the all-scalar scan, that moves the exponent by rounding only,
    # and delta_star by at most 1e-8 relative where the minimum is flat
    # (an argmax of c0(delta)); interior, kinked and boundary minima.
    for rate in (0.25, 0.5, 0.9):
        gr = GrowthRate.from_spectrum(random_ensemble_spectrum(64, rate))
        for c in (0.3, 0.8, 1.5, 4.0):
            for got, per_delta in (
                (tsb_exponent(gr, c), lambda d, r: closed_form(c, d, r)[0]),
                (union_exponent(gr, c), lambda d, r: c * d - r),
            ):
                v, d = scalar_scan_exponent(gr, per_delta)
                assert abs(got.exponent - v) <= 1e-14 * abs(v), (rate, c)
                assert abs(got.delta_star - d) <= 1e-8 * d, (rate, c)


@pytest.mark.parametrize("code", ["hamming_spec", "golay_spec"])
def test_code_spectrum_scan_matches_scalar_loop(request, code):
    # A code spectrum is scanned once at its exact weights h/n: the weight
    # is the per-weight scalar loop's, and the value differs by rounding
    # only.
    gr = GrowthRate.from_spectrum(request.getfixturevalue(code))
    for c in (0.3, 0.8, 1.5, 4.0):
        for got, per_delta in (
            (tsb_exponent(gr, c), lambda d, r: closed_form(c, d, r)[0]),
            (union_exponent(gr, c), lambda d, r: c * d - r),
        ):
            v, d = scalar_scan_exponent(gr, per_delta)
            assert got.delta_star == d, (code, c)
            assert abs(got.exponent - v) <= 1e-14 * abs(v), (code, c)


def test_code_spectrum_scan_ties_go_to_smallest_weight():
    # union objective c d - r = 1/4 exactly at d = 1/2 and d = 3/4, larger
    # elsewhere: the first minimum is kept, as in the scalar loop
    def r(d):
        return np.where((d == 0.5) | (d == 0.75), d - 0.25, -np.inf)

    gr = GrowthRate(fn=r, kind="code", n=8)
    res = union_exponent(gr, 1.0)
    assert (res.exponent, res.delta_star) == (0.25, 0.5)
    assert scalar_scan_exponent(gr, lambda d, rr: d - rr) == (0.25, 0.5)


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


def test_gallager_rce_matches_dense_rho_scan():
    # E0 is concave in rho, so the 3-point seeded search finds the maximum
    # that a dense 257-point scan brackets: an interior optimum lies within
    # the scan's concavity bound above its best point, and an optimum at
    # rho* = 0 (the rate above capacity) or rho* = 1 (far below it) is the
    # scan's end value itself
    rhos = np.linspace(0.0, 1.0, 257)
    for rate, c, edge in [(0.5, 0.8, None), (0.5, 1e-9, 0), (0.9, 0.8, 0), (0.1, 5.0, 256)]:
        a = math.sqrt(2.0 * c)

        def e0(rho):
            def f(u):
                return (0.5 * (np.exp(-0.5 * (u - a) ** 2 / (1.0 + rho))
                               + np.exp(-0.5 * (u + a) ** 2 / (1.0 + rho)))) ** (1.0 + rho)

            quad = adaptive_integrate(f, 0.0, a + 12.0, exponents._GALLAGER_TOL)
            return 0.5 * math.log(2.0 * math.pi) - math.log(2.0 * quad.value)

        scan = np.array([e0(rho) - rho * rate * math.log(2.0) for rho in rhos.tolist()])
        b = int(np.argmax(scan))
        got = gallager_rce(rate, c)
        if edge is None:
            assert 0 < b < 256
            rise = max(scan[b] - scan[b - 1], scan[b] - scan[b + 1])
            assert scan[b] - 1e-12 <= got <= scan[b] + rise + 1e-12, (rate, c)
        else:
            assert b == edge
            assert abs(got - scan[b]) <= 1e-12, (rate, c)


def test_gallager_rce_unconverged_e0_raises(monkeypatch):
    # an E0 quadrature that misses its tolerance is an error naming rho and
    # c, never a value.  The fixed rule's error estimate is rounding, ~5e-15
    # of the integral, so a 1e-16 relative target with no absolute floor
    # cannot be met.  E0(0) takes no quadrature for its value, so the first
    # one missed is the grid's midpoint.
    starved = Tolerance(abs_tol=0.0, rel_tol=1e-16)
    monkeypatch.setattr(exponents, "_GALLAGER_TOL", starved)
    with pytest.raises(RuntimeError, match=r"E0 quadrature at rho=0\.5, c=0\.8 missed"):
        gallager_rce(0.5, 0.8)


def test_gallager_rce_validation():
    with pytest.raises(ValueError):
        gallager_rce(0.0, 1.0)
    with pytest.raises(ValueError):
        gallager_rce(1.0, 1.0)
    with pytest.raises(ValueError):
        gallager_rce(0.5, 0.0)


def gallager_e0(rho, c):
    """_gallager_e0 on gallager_rce's rule: E0(rho) and dE0/drho at c."""
    a = math.sqrt(2.0 * c)
    u, kron, gauss = numerics.gk15_rule(0.0, a + 12.0, math.ceil(a + 12.0))
    return exponents._gallager_e0(rho, c, (u - a) ** 2, (u + a) ** 2, kron, gauss)


def test_gallager_e0_and_slope_match_mpmath():
    # E0 and dE0/drho against 20-digit quadrature over the positive output
    # half-line (both integrands are even), from the channel too noisy to
    # carry anything (c = 1e-9, E0 ~ 1e-11) to one that carries a full bit
    # (c = 200).  The fixed rule's 15-digit Kronrod weights put E0 ~3e-15
    # off in absolute terms.
    for c in (1e-9, 0.05, 0.8, 2.0, 20.0, 200.0):
        for rho in (0.01, 0.5, 1.0):
            with mp.workdps(20):
                a, s = mp.sqrt(2 * mp.mpf(c)), 1 + mp.mpf(rho)

                def parts(u):
                    gp, gm = mp.exp(-(u - a) ** 2 / (2 * s)), mp.exp(-(u + a) ** 2 / (2 * s))
                    ms = ((gp + gm) / 2) ** s
                    mean_d = (gp * (u - a) ** 2 + gm * (u + a) ** 2) / (gp + gm)
                    return ms, ms * (mp.log((gp + gm) / 2) + mean_d / (2 * s))

                cuts = [0, a, mp.inf] if c > 1e-6 else [0, mp.inf]
                total = mp.quad(lambda u: parts(u)[0], cuts)
                d_total = mp.quad(lambda u: parts(u)[1], cuts)
                want = float(mp.log(2 * mp.pi) / 2 - mp.log(2 * total))
                d_want = float(-d_total / total)
            got, d_got = gallager_e0(rho, c)
            assert abs(got - want) <= 1e-14 + 1e-13 * want, (c, rho, got, want)
            assert abs(d_got - d_want) <= 1e-14 + 1e-13 * abs(d_want), (c, rho, d_got, d_want)


def test_gallager_e0_slope_matches_central_differences():
    # dE0/drho against central differences of E0 with step 1e-5, across
    # rho in [0, 1] and c from 0.05 to 20
    h = 1e-5
    for c in (0.05, 0.8, 2.0, 20.0):
        for rho in (h, 0.1, 0.37, 0.5, 0.8, 1.0 - h):
            _, slope = gallager_e0(rho, c)
            fd = (gallager_e0(rho + h, c)[0] - gallager_e0(rho - h, c)[0]) / (2.0 * h)
            assert abs(fd - slope) <= 1e-8 * (1.0 + abs(slope)), (c, rho, fd, slope)


def test_gallager_rce_work_is_bounded(monkeypatch):
    # One fixed rule, no adaptive quadrature: at most 12 E0 evaluations per
    # call, value and slope at one rho sharing one, over the exponent
    # sweep's rows and the far-below and above-capacity ends.
    calls = []
    e0 = exponents._gallager_e0

    def e0_spy(rho, *args):
        calls.append(rho)
        return e0(rho, *args)

    def no_adaptive(*args, **kwargs):
        raise AssertionError("gallager_rce ran an adaptive quadrature")

    monkeypatch.setattr(exponents, "_gallager_e0", e0_spy)
    monkeypatch.setattr(exponents, "adaptive_integrate", no_adaptive)
    monkeypatch.setattr(numerics, "AdaptiveRun", no_adaptive)
    for rate, c in [(0.5, 0.5 / x) for x in np.linspace(0.45, 0.85, 9)] + [
            (0.1, 5.0), (0.9, 0.8), (0.5, 1e-9), (0.5, 200.0)]:
        calls.clear()
        gallager_rce(rate, c)
        assert 1 <= len(calls) <= 12 and len(set(calls)) == len(calls), (rate, c, calls)


def test_non_finite_channel_rejected(half_rate_48, half_rate_fn):
    # nan and inf channel parameters are errors, not nan or inf exponents
    for c in (math.nan, math.inf, -math.inf):
        for call in (lambda: chernoff_tsb(48, c, half_rate_48),
                     lambda: chernoff_psi(48, c, half_rate_48),
                     lambda: tsb_exponent(half_rate_fn, c),
                     lambda: union_exponent(half_rate_fn, c),
                     lambda: gallager_rce(0.5, c)):
            with pytest.raises(ValueError, match="positive and finite"):
                call()


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


def test_slope_searches_bit_identical_with_scipy_brentq(monkeypatch):
    # The Chernoff assemblies' cone-slope searches and gallager_rce's rho
    # search end in numerics.brentq, which takes scipy.optimize.brentq's
    # steps: with scipy's solver put back in its place every value is
    # bit-identical.
    points = [(64, 1.0), (128, 0.8), (256, 1.5), (512, 1.0)]
    specs = {n: random_ensemble_spectrum(n, 0.5) for n, _ in points}

    def values():
        return ([chernoff_tsb(n, c, specs[n]) for n, c in points]
                + [chernoff_psi(n, c, specs[n]) for n, c in points]
                + [gallager_rce(rate, c) for rate in (0.25, 0.5) for c in (0.6, 1.0, 1.5)])

    ours = values()
    calls = []

    def oracle(*args, **kwargs):
        calls.append(args[1:3])  # the bracket
        return scipy_brentq(*args, **kwargs)

    monkeypatch.setattr(numerics, "brentq", oracle)
    assert values() == ours
    # each Chernoff search solves one root; three of the rho searches stop
    # at the box end rho = 0 and solve none
    assert len(calls) == 2 * len(points) + 3

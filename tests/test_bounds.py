"""Finite-length bound suite: cone-radius equation, TSB/ITSB/AHP/psi
orderings, Monte-Carlo validity, and the conditioned kernel against
independent quadrature and 3-D Monte-Carlo oracles."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, logsumexp

from tsbounds import bounds
from tsbounds.bounds import (
    BOUND_TOL,
    ChannelPoint,
    NoSolutionError,
    Plan,
    ahp,
    itsb,
    psi,
    solve_cone_radius,
    triple_term,
    tsb_bit,
    tsb_block,
)
from tsbounds.codes import DistanceSpectrum, Iowef, bit_weight_transform, random_ensemble_spectrum
from tsbounds.geometry import (
    ConeGeometry,
    alpha_theta,
    delta_slope,
    rho_bounds,
    rho_max_wh,
)
from tsbounds.mcsim import simulate_ml
from tsbounds.numerics import Tolerance, q_function, sin_power_integral, wallis

NEG_INF = -math.inf
DB_GRID = (0.0, 2.0, 4.0, 6.0, 8.0)
R_HAMMING = 4 / 7


def single_weight_spectrum(n: int, h: int, count: float) -> DistanceSpectrum:
    log_a = np.full(n + 1, NEG_INF)
    log_a[0] = 0.0
    log_a[h] = math.log(count)
    return DistanceSpectrum(n=n, log_a=log_a, d_min=h)


def repetition_spectrum(n: int) -> DistanceSpectrum:
    log_a = np.full(n + 1, NEG_INF)
    log_a[0] = 0.0
    log_a[n] = 0.0
    return DistanceSpectrum(n=n, log_a=log_a, d_min=n)


def cone_residual(spec: DistanceSpectrum, r: float) -> float:
    """Log-domain residual of the radius equation, assembled independently
    of solve_cone_radius's internals."""
    n = spec.n
    geo = ConeGeometry(n, r)
    terms = []
    for h in range(1, n):
        if spec.log_a[h] == NEG_INF:
            continue
        _, theta = alpha_theta(h, geo)
        if theta is not None and theta > 0:
            terms.append(float(spec.log_a[h]) + sin_power_integral(n - 3, theta, log=True))
    lhs = logsumexp(terms)
    rhs = math.log(2.0) + wallis(n - 3, log=True)
    return lhs - rhs


@pytest.fixture(scope="module")
def mc_hamming(hamming74):
    out = {}
    for db in DB_GRID:
        ch = ChannelPoint.from_eb_n0_db(db, R_HAMMING)
        out[db] = simulate_ml(hamming74, ch, trials=200_000, seed=1234)
    return out


# -- channel point ---------------------------------------------------------


def test_channel_point_derived_fields():
    ch = ChannelPoint.from_eb_n0_db(2.0, R_HAMMING)
    assert ch.c == pytest.approx(R_HAMMING * 10 ** 0.2, rel=1e-15)
    assert ch.sigma_sq == pytest.approx(1.0 / (2.0 * ch.c), rel=1e-15)
    assert ch.eb_n0_db == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        ChannelPoint(c=0.0, rate=0.5)
    with pytest.raises(ValueError):
        ChannelPoint(c=1.0, rate=1.5)


# -- cone radius -----------------------------------------------------------


def test_cone_rhs_n4_closed_form():
    # n=4: sqrt(pi) Gamma(1) / Gamma(1.5) = 2
    assert 2.0 * wallis(1) == pytest.approx(2.0, rel=1e-15)


def test_cone_radius_single_weight_sign_scan():
    spec = single_weight_spectrum(7, 3, 7.0)
    r_star = solve_cone_radius(spec)
    assert abs(cone_residual(spec, r_star)) < 1e-10
    # dense scan: the residual changes sign exactly once, at r*
    grid = np.linspace(1e-3, 40.0, 10_000)
    signs = []
    for r in grid:
        try:
            signs.append(cone_residual(spec, r) > 0)
        except ValueError:
            signs.append(False)
    flips = [i for i in range(1, len(grid)) if signs[i] != signs[i - 1]]
    assert len(flips) == 1
    assert grid[flips[0] - 1] <= r_star <= grid[flips[0]]


def test_cone_radius_residual_on_code_spectra(hamming_spec, golay_spec):
    for spec in (hamming_spec, golay_spec):
        r_star = solve_cone_radius(spec)
        assert abs(cone_residual(spec, r_star)) < 1e-10


def test_cone_radius_sigma_independent(hamming_spec):
    # sigma^2 = 0.1 and 1.0
    a = tsb_block(hamming_spec, ChannelPoint(c=5.0, rate=R_HAMMING))
    b = tsb_block(hamming_spec, ChannelPoint(c=0.5, rate=R_HAMMING))
    assert a.cone_radius == b.cone_radius == solve_cone_radius(hamming_spec)


def test_cone_radius_no_solution():
    with pytest.raises(NoSolutionError):
        solve_cone_radius(repetition_spectrum(3))
    # interior mass exactly 2 never reaches the right side
    with pytest.raises(NoSolutionError):
        solve_cone_radius(single_weight_spectrum(5, 2, 2.0))


# -- TSB ---------------------------------------------------------------------


def test_tsb_repetition_fallback_covers_exact():
    ch = ChannelPoint(c=1.0, rate=1 / 3)
    res = tsb_block(repetition_spectrum(3), ch)
    exact = q_function(math.sqrt(6.0))
    assert res.value >= exact
    assert res.value == pytest.approx(exact, rel=2e-2)  # wide cone: Q dominates
    assert res.cone_radius == pytest.approx(400.0 * math.sqrt(3.0))
    assert res.per_weight == {}


def test_tsb_above_mc_on_grid(hamming_spec, mc_hamming):
    for db, est in mc_hamming.items():
        ch = ChannelPoint.from_eb_n0_db(db, R_HAMMING)
        res = tsb_block(hamming_spec, ch)
        assert res.converged
        assert res.value >= est.block_error_rate - 3.0 * est.std_error


def test_tsb_small_at_high_snr(hamming_spec):
    ch = ChannelPoint.from_eb_n0_db(12.0, R_HAMMING)
    assert tsb_block(hamming_spec, ch).value < 1e-6


def test_bounds_nonincreasing_in_c(hamming_spec):
    cs = [0.4, 0.8, 1.6, 3.2]
    for fn in (tsb_block, itsb, ahp, psi):
        vals = [fn(hamming_spec, ChannelPoint(c=c, rate=R_HAMMING)).value for c in cs]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi * (1 + 1e-12)


def test_bound_result_consistency(hamming_spec):
    res = tsb_block(hamming_spec, ChannelPoint.from_eb_n0_db(3.0, R_HAMMING))
    assert res.value == pytest.approx(math.exp(res.log_value), rel=1e-15)
    assert set(res.tail_terms) == {"cap", "q"}
    assert res.ahp_layer is None
    assert all(math.exp(v) >= 0.0 for v in res.per_weight.values())
    assert set(res.per_weight) == {3, 4}  # weight 7 lives in the Q tail


def test_vacuous_value_reported(hamming_spec):
    # A forced low layer at near-zero SNR drives the extension terms past 1;
    # the result is reported as-is rather than clamped.
    res = ahp(hamming_spec, ChannelPoint(c=1e-4, rate=R_HAMMING), layers=[1])
    assert res.value > 1.0
    assert res.value == pytest.approx(math.exp(res.log_value), rel=1e-15)


@pytest.mark.parametrize("bound", [tsb_block, itsb, ahp, psi], ids=lambda f: f.__name__)
def test_nonconvergence_warns(hamming_spec, bound):
    # One warning per bound call, however many layers fail to converge.
    starved = Tolerance(abs_tol=1e-300, rel_tol=1e-14, max_iter=1)
    with pytest.warns(RuntimeWarning, match="did not converge") as record:
        res = bound(hamming_spec, ChannelPoint.from_eb_n0_db(3.0, R_HAMMING), tol=starved)
    assert len(record) == 1
    assert not res.converged


def test_nonconvergence_warns_once_per_call_on_shared_cache(hamming_spec):
    # Terms an earlier call computed still count: every call on one starved
    # cache warns once, naming what a call on its own cache would name.
    starved = Tolerance(abs_tol=1e-300, rel_tol=1e-14, max_iter=1)
    ch = ChannelPoint.from_eb_n0_db(3.0, R_HAMMING)
    cache = Plan(hamming_spec).at(ch, starved)
    for bound in (tsb_block, itsb, ahp, psi):
        with pytest.warns(RuntimeWarning, match="did not converge") as alone:
            bound(hamming_spec, ch, starved)
        with pytest.warns(RuntimeWarning, match="did not converge") as record:
            res = bound(hamming_spec, ch, starved, terms=cache)
        assert len(record) == 1
        assert str(record[0].message) == str(alone[0].message)
        assert not res.converged


# -- shared plan and term cache ---------------------------------------------


def test_shared_cache_matches_separate_calls():
    # Dense spectrum with non-vacuous wedges; the Hamming and Golay codes at
    # 2 and 4 dB are checked against the acceptance grid, which shares caches.
    spec = random_ensemble_spectrum(8, 0.5)
    ch = ChannelPoint.from_eb_n0_db(4.0, 0.5)
    cache = Plan(spec).at(ch)
    for bound in (tsb_block, itsb, ahp, psi):
        # every BoundResult field, bit for bit
        assert bound(spec, ch, terms=cache) == bound(spec, ch)


def test_terms_cache_guard(hamming_spec, golay_spec, hamming_iowef):
    ch = ChannelPoint.from_eb_n0_db(4.0, R_HAMMING)
    cache = Plan(hamming_spec).at(ch)
    with pytest.raises(ValueError, match="spectrum"):
        tsb_block(golay_spec, ch, terms=cache)
    with pytest.raises(ValueError, match="ChannelPoint"):
        itsb(hamming_spec, ChannelPoint.from_eb_n0_db(2.0, R_HAMMING), terms=cache)
    with pytest.raises(ValueError, match="Tolerance"):
        ahp(hamming_spec, ch, Tolerance(abs_tol=1e-300, rel_tol=1e-8, max_iter=260),
            terms=cache)
    with pytest.raises(ValueError, match="spectrum"):
        tsb_bit(hamming_iowef, ch, terms=cache)
    # a spectrum equal in value shares the cache: tsb_bit rebuilds its
    # spectrum on every call
    bit_cache = Plan(bit_weight_transform(hamming_iowef)).at(ch)
    assert tsb_bit(hamming_iowef, ch, terms=bit_cache) == tsb_bit(hamming_iowef, ch)
    assert psi(hamming_spec, ch, BOUND_TOL, terms=cache) == psi(hamming_spec, ch)


def test_plan_holds_the_channel_free_part(golay_spec):
    # Golay weights 7, 8, 11, 12, 15, 16, 23: only those whose codeword
    # circles open inside the cone (weights 1..13 here) get terms
    plan = Plan(golay_spec)
    assert plan.geo.r == solve_cone_radius(golay_spec)
    assert plan.geom_included == frozenset(range(1, 14))
    assert plan.included == (7, 8, 11, 12)


# -- bit-error variant -------------------------------------------------------


def test_tsb_bit_degenerate_iowef_equals_block(hamming_spec):
    # all input weight concentrated at w = k: A'_h = (k/k) A_h = A_h
    log_awh = {
        (4, h): float(hamming_spec.log_a[h])
        for h in range(1, 8)
        if hamming_spec.log_a[h] > NEG_INF
    }
    io = Iowef(n=7, k=4, log_awh=log_awh)
    ch = ChannelPoint.from_eb_n0_db(3.0, R_HAMMING)
    assert tsb_bit(io, ch).value == pytest.approx(
        tsb_block(hamming_spec, ch).value, rel=1e-13
    )


def test_tsb_bit_below_block_above_mc(hamming_spec, hamming_iowef, hamming74):
    ch = ChannelPoint.from_eb_n0_db(4.0, R_HAMMING)
    bit = tsb_bit(hamming_iowef, ch)
    block = tsb_block(hamming_spec, ch)
    assert bit.value <= block.value * (1 + 1e-12)
    est = simulate_ml(hamming74, ch, trials=400_000, seed=77)
    assert bit.value >= est.bit_error_rate - 3.0 * est.bit_std_error
    for db in DB_GRID:
        chx = ChannelPoint.from_eb_n0_db(db, R_HAMMING)
        assert tsb_bit(hamming_iowef, chx).value <= tsb_block(hamming_spec, chx).value * (
            1 + 1e-12
        )


# -- ITSB --------------------------------------------------------------------


def test_itsb_at_most_tsb_on_grid(hamming_spec):
    for db in DB_GRID:
        ch = ChannelPoint.from_eb_n0_db(db, R_HAMMING)
        a = itsb(hamming_spec, ch)
        b = tsb_block(hamming_spec, ch)
        budget = a.error_estimate + b.error_estimate
        assert a.value <= b.value * (1 + 1e-9) + budget


def test_itsb_above_mc(hamming_spec, mc_hamming):
    est = mc_hamming[2.0]
    res = itsb(hamming_spec, ChannelPoint.from_eb_n0_db(2.0, R_HAMMING))
    assert res.value >= est.block_error_rate - 3.0 * est.std_error


def test_itsb_strict_improvement_on_dense_spectrum():
    # High-rate ensemble: the conditioning line actually cuts the disk and
    # the anchored bound beats the plain one by a visible margin.
    spec = random_ensemble_spectrum(64, 0.9)
    ch = ChannelPoint.from_eb_n0_db(3.0, 0.9)
    a = itsb(spec, ch)
    b = tsb_block(spec, ch)
    assert a.value <= b.value * (1 + 1e-9)
    assert (b.value - a.value) / b.value > 1e-3


def test_itsb_rho_zero_shrinks_terms(hamming_spec):
    # The conditioned terms decrease in rho, and the default correlations
    # are the most negative admissible ones, so forcing rho = 0 can only
    # shrink the value; see the decisions ledger on the flipped example.
    spec64 = random_ensemble_spectrum(64, 0.9)
    ch64 = ChannelPoint.from_eb_n0_db(3.0, 0.9)
    forced = itsb(spec64, ch64, rho_fn=lambda h: 0.0)
    default = itsb(spec64, ch64)
    assert forced.value <= default.value * (1 + 1e-9)
    assert forced.value < default.value  # strict where the line cuts
    ch = ChannelPoint.from_eb_n0_db(2.0, R_HAMMING)
    assert itsb(hamming_spec, ch, rho_fn=lambda h: 0.0).value <= itsb(
        hamming_spec, ch
    ).value * (1 + 1e-9)


def test_itsb_single_codeword_equals_tsb():
    # One nonzero codeword: the anchored union has no second-order terms,
    # so both bounds coincide (the anchor coefficient is A_d - 1 = 0).
    spec = single_weight_spectrum(7, 3, 1.0)
    ch = ChannelPoint.from_eb_n0_db(2.0, 3 / 7)
    a = itsb(spec, ch)
    b = tsb_block(spec, ch)
    assert a.value == pytest.approx(b.value, rel=1e-12)


# -- AHP and psi -------------------------------------------------------------


def test_ahp_layer_n_equals_tsb(hamming_spec):
    ch = ChannelPoint.from_eb_n0_db(2.0, R_HAMMING)
    top = ahp(hamming_spec, ch, layers=[7])
    ts = tsb_block(hamming_spec, ch)
    ps = psi(hamming_spec, ch)
    assert top.ahp_layer == 7
    assert top.value == pytest.approx(ts.value, rel=1e-13)
    assert ps.value <= top.value * (1 + 1e-9)


def test_ahp_min_at_most_fixed_layer(hamming_spec):
    ch = ChannelPoint.from_eb_n0_db(2.0, R_HAMMING)
    best = ahp(hamming_spec, ch)
    assert best.ahp_layer in range(1, 7)
    for w in (2, 3, 5):
        assert best.value <= ahp(hamming_spec, ch, layers=[w]).value * (1 + 1e-12)


def test_ahp_above_mc(hamming_spec, mc_hamming):
    est = mc_hamming[2.0]
    res = ahp(hamming_spec, ChannelPoint.from_eb_n0_db(2.0, R_HAMMING))
    assert res.value >= est.block_error_rate - 3.0 * est.std_error


def test_ahp_extension_layer_below_dmin_still_valid(hamming_spec, mc_hamming):
    # Regression: the C(n,w) extension pairs exist even when the code has no
    # weight-w words; dropping them once produced a "bound" below the true
    # error probability at w=2.
    est = mc_hamming[2.0]
    res = ahp(hamming_spec, ChannelPoint.from_eb_n0_db(2.0, R_HAMMING), layers=[2])
    assert res.ahp_layer == 2
    assert res.value >= est.block_error_rate - 3.0 * est.std_error
    assert res.per_weight[2] > res.per_weight[3]  # anchor + 21 extension pairs


def test_psi_sandwich(hamming_spec):
    for db in (0.0, 2.0, 4.0):
        ch = ChannelPoint.from_eb_n0_db(db, R_HAMMING)
        p = psi(hamming_spec, ch)
        i = itsb(hamming_spec, ch)
        a = ahp(hamming_spec, ch)
        assert 0.0 <= p.value <= i.value * (1 + 1e-9)
        assert p.value <= a.value * (1 + 1e-9)
        assert p.tail_terms["q"] == NEG_INF  # apex tail excluded by design


def test_psi_never_requests_self_term(hamming_spec, monkeypatch):
    # psi's value leaves the extension self-term triple_term(w, w, .) out,
    # so psi must not integrate it (nor carry its quadrature error); ahp
    # still does, which shows the spy sees the requests.
    calls = []
    orig = bounds._Engine.triple_term

    def spy(self, h, w_ref, rho):
        calls.append((h, w_ref))
        return orig(self, h, w_ref, rho)

    monkeypatch.setattr(bounds._Engine, "triple_term", spy)
    ch = ChannelPoint.from_eb_n0_db(4.0, R_HAMMING)
    psi(hamming_spec, ch)
    assert calls and all(h != w for h, w in calls)
    calls.clear()
    ahp(hamming_spec, ch)
    assert any(h == w for h, w in calls)


def test_psi_rejects_top_layer(hamming_spec):
    ch = ChannelPoint.from_eb_n0_db(2.0, R_HAMMING)
    with pytest.raises(ValueError):
        psi(hamming_spec, ch, layers=[7])


# -- conditioned kernel ------------------------------------------------------


def test_triple_term_empty_range():
    geo = ConeGeometry(7, 4.2733)
    ch = ChannelPoint.from_eb_n0_db(2.0, R_HAMMING)
    # Both beta_h and r_z1 scale with (sqrt(n) - z1), so the z2 range is
    # empty exactly when the weight sits outside the cone: h = 6 here.
    assert triple_term(6, 0.5, -0.3, geo, ch, 0.3) == NEG_INF
    # Past the apex the whole section is gone regardless of weight.
    assert triple_term(3, 0.5, -0.3, geo, ch, math.sqrt(7)) == NEG_INF


def test_triple_term_full_disk_matches_symmetric_double_integral():
    # rho = 0 with the line beyond the section radius: the z3 constraint is
    # vacuous and the kernel must equal the plain two-variable integral,
    # evaluated here with an independent quadrature routine.
    n, r, z1, h = 7, 4.2733, 0.3, 3
    geo = ConeGeometry(n, r)
    ch = ChannelPoint.from_eb_n0_db(2.0, R_HAMMING)
    ss = ch.sigma_sq
    rz = float(geo.r_z1(z1))
    beta = (math.sqrt(n) - z1) * delta_slope(h, n)
    beta_ref = rz * 1.5

    def integrand(z2):
        gauss = math.exp(-0.5 * z2 * z2 / ss) / math.sqrt(2 * math.pi * ss)
        return gauss * gammainc(0.5 * (n - 2), (rz * rz - z2 * z2) / (2 * ss))

    oracle, err = quad(integrand, beta, rz, epsabs=1e-14, epsrel=1e-12)
    got = math.exp(triple_term(h, beta_ref, 0.0, geo, ch, z1))
    assert got == pytest.approx(oracle, rel=1e-9)


def test_triple_term_matches_3d_monte_carlo():
    n, r, z1, h, w = 5, 2.2, 0.4, 2, 1
    geo = ConeGeometry(n, r)
    ch = ChannelPoint(c=0.8, rate=0.4)
    sig = math.sqrt(ch.sigma_sq)
    rz = float(geo.r_z1(z1))
    beta_h = (math.sqrt(n) - z1) * delta_slope(h, n)
    beta_ref = (math.sqrt(n) - z1) * delta_slope(w, n)
    rho = rho_max_wh(w, h, n)
    got = math.exp(triple_term(h, beta_ref, rho, geo, ch, z1))

    rng = np.random.default_rng(2024)
    total, hits = 0, 0
    for _ in range(4):
        m = 2_500_000
        z2 = rng.normal(0, sig, m)
        z3 = rng.normal(0, sig, m)
        wmass = sig * sig * rng.chisquare(n - 3, m)
        line = (beta_ref - rho * z2) / math.sqrt(1 - rho * rho)
        ok = (z2 >= beta_h) & (z2 <= rz) & (z3 <= line)
        ok &= z2**2 + z3**2 + wmass <= rz * rz
        hits += int(np.count_nonzero(ok))
        total += m
    p = hits / total
    se = math.sqrt(p * (1 - p) / total)
    assert abs(got - p) <= 3.0 * se


def test_triple_term_nonincreasing_in_rho():
    n, r = 7, 4.2733
    geo = ConeGeometry(n, r)
    ch = ChannelPoint.from_eb_n0_db(1.0, R_HAMMING)
    step = 1e-4
    for (h, w, z1) in [(2, 2, 0.5), (3, 2, 0.0), (2, 3, 1.0), (4, 2, -0.5)]:
        lo, hi = rho_bounds(w, h, n)
        beta_ref = (math.sqrt(n) - z1) * delta_slope(w, n)
        grid = np.linspace(max(lo, -0.9), hi - 1e-9, 9)
        vals = [math.exp(triple_term(h, beta_ref, float(t), geo, ch, z1)) for t in grid]
        assert all(v > 0 for v in vals)
        for a, b in zip(vals[1:], vals[:-1]):
            assert a <= b * (1 + 1e-10)
        # finite-difference slope at an interior point
        mid = 0.5 * (max(lo, -0.9) + hi)
        f0 = math.exp(triple_term(h, beta_ref, mid, geo, ch, z1))
        f1 = math.exp(triple_term(h, beta_ref, mid + step, geo, ch, z1))
        assert (f1 - f0) / step <= 1e-10


def test_triple_term_validation():
    geo = ConeGeometry(7, 4.0)
    ch = ChannelPoint(c=1.0, rate=0.5)
    with pytest.raises(ValueError):
        triple_term(0, 1.0, 0.0, geo, ch, 0.0)
    with pytest.raises(ValueError):
        triple_term(7, 1.0, 0.0, geo, ch, 0.0)
    with pytest.raises(ValueError):
        triple_term(3, 1.0, 1.0, geo, ch, 0.0)

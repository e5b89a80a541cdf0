"""Finite-length bound suite: cone-radius equation, TSB/ITSB/AHP/psi
orderings, Monte-Carlo validity, and the conditioned kernel against
independent quadrature and 3-D Monte-Carlo oracles."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.integrate import quad
from scipy.optimize import brentq as scipy_brentq
from scipy.special import gammainc, gammaincc, logsumexp, ndtr

from closed_forms import (beta_h, delta_slope, l_line, log_kernel, r_z1, repetition,
                          rho_bounds)
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
    tsb_block,
)
from tsbounds.codes import (
    DistanceSpectrum,
    GeneratorMatrix,
    enumerate_spectrum,
    random_ensemble_spectrum,
)
from tsbounds.geometry import (
    ConeGeometry,
    alpha_theta,
    rho_max_wh,
    rho_min_h,
    rho_ww,
)
from tsbounds.mcsim import simulate_ml
from tsbounds.numerics import Tolerance, gk15_rule, q_function, sin_power_integral, wallis

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


def assemble_layer(spec, ch, w: int, extend: bool = True, eng=None):
    """Layer w of ahp (extend) or of psi alone, assembled as the layer
    search assembles it, on eng or on a fresh cache."""
    eng = eng if eng is not None else Plan(spec).at(ch)
    return eng.assemble(bounds._layer(eng, spec, w, extend), include_q=extend, ahp_layer=w)


def oracle_assemble(eng, weighted, terms, include_q=True, ahp_layer=None):
    """The bound of weighted spectrum logs and the terms behind them, summed
    as the bounds summed them before one assembly served every bound: the
    weighted logs in dict order, then the cap and the apex tail; the
    terms' errors, then their tails, then the cap's."""
    cap = eng.cap_term()
    q = eng.log_q_term if include_q else NEG_INF
    log_value = float(logsumexp(list(weighted.values()) + [cap.log_value]
                                + ([q] if include_q else [])))
    err = [t.log_error for t in terms] + [t.log_tail for t in terms]
    return bounds.BoundResult(
        value=float(np.exp(log_value)), log_value=log_value, per_weight=weighted,
        cone_radius=eng.geo.r, tail_terms={"cap": cap.log_value, "q": q},
        error_estimate=float(np.exp(logsumexp(err + [cap.log_error, cap.log_tail]))),
        converged=cap.converged and all(t.converged for t in terms), ahp_layer=ahp_layer)


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
            terms.append(float(spec.log_a[h]) + sin_power_integral(n - 3, theta))
    lhs = logsumexp(terms)
    rhs = math.log(2.0) + wallis(n - 3)
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
    # sigma^2 = 1/(2c) overflows below c ~ 2.78e-309, named with its E_b/N_0
    assert math.isfinite(ChannelPoint(c=2.8e-309, rate=0.5).sigma_sq)
    with pytest.raises(ValueError, match="overflows"):
        ChannelPoint(c=2.7e-309, rate=0.5)
    with pytest.raises(ValueError, match=r"E_b/N_0 = -3084\.0 dB: noise variance"):
        ChannelPoint.from_eb_n0_db(-3084.0, R_HAMMING)
    assert math.isfinite(ChannelPoint.from_eb_n0_db(-3083.0, R_HAMMING).sigma_sq)


# -- cone radius -----------------------------------------------------------


def test_cone_rhs_n4_closed_form():
    # n=4: sqrt(pi) Gamma(1) / Gamma(1.5) = 2
    assert 2.0 * math.exp(wallis(1)) == pytest.approx(2.0, rel=1e-15)


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


def test_cone_radius_bit_identical_with_scipy_brentq(monkeypatch, hamming_spec, golay_spec):
    # numerics.brentq takes scipy.optimize.brentq's steps, so putting scipy's
    # solver back in its place leaves every cone radius bit-identical.
    specs = [hamming_spec, golay_spec] + [
        random_ensemble_spectrum(n, rate)
        for n in (6, 8, 12, 16, 24, 32, 64, 128, 256, 512)
        for rate in (0.3, 0.5, 0.9)
    ]
    ours = [solve_cone_radius(spec) for spec in specs]
    calls = []

    def oracle(*args, **kwargs):
        calls.append(args[1:3])  # the bracket
        return scipy_brentq(*args, **kwargs)

    monkeypatch.setattr(bounds, "brentq", oracle)
    assert [solve_cone_radius(spec) for spec in specs] == ours
    assert len(calls) == len(specs)


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
    for r in (res, itsb(hamming_spec, ChannelPoint.from_eb_n0_db(3.0, R_HAMMING))):
        assert r.layers_assembled is r.layers_pruned is r.layer_in_cone is None
    assert all(math.exp(v) >= 0.0 for v in res.per_weight.values())
    assert set(res.per_weight) == {3, 4}  # weight 7 lives in the Q tail


def test_vacuous_value_reported(hamming_spec):
    # A forced low layer at near-zero SNR drives the extension terms past 1;
    # the result is reported as-is rather than clamped.
    res = assemble_layer(hamming_spec, ChannelPoint(c=1e-4, rate=R_HAMMING), 1)
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


def test_terms_cache_guard(hamming74, hamming_spec, golay_spec, hamming_bit_spec):
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
        tsb_block(hamming_bit_spec, ch, terms=cache)
    # a spectrum equal in value shares the cache: a freshly enumerated bit
    # spectrum is another object with the same values
    bit_cache = Plan(hamming_bit_spec).at(ch)
    _, fresh = enumerate_spectrum(hamming74)
    assert fresh is not hamming_bit_spec
    assert tsb_block(fresh, ch, terms=bit_cache) == tsb_block(hamming_bit_spec, ch)
    assert psi(hamming_spec, ch, BOUND_TOL, terms=cache) == psi(hamming_spec, ch)


def test_plan_holds_the_channel_free_part(golay_spec):
    # Golay weights 7, 8, 11, 12, 15, 16, 23: only those whose codeword
    # circles open inside the cone (weights 1..13 here) get terms
    plan = Plan(golay_spec)
    assert plan.geo.r == solve_cone_radius(golay_spec)
    assert plan.geom_included == frozenset(range(1, 14))
    assert plan.included == (7, 8, 11, 12)


# -- bit-error variant -------------------------------------------------------


def test_tsb_bit_spectrum_of_repetition_code_equals_block():
    # the one nonzero message has w = k = 1, so A'_h = A_h for h = 1..n and
    # the bit-error bound is the block-error bound
    for n in (3, 5, 8):
        spec, bit_spec = enumerate_spectrum(repetition(n))
        ch = ChannelPoint.from_eb_n0_db(3.0, 1 / n)
        assert tsb_block(bit_spec, ch).value == pytest.approx(
            tsb_block(spec, ch).value, rel=1e-13
        )


def test_tsb_bit_below_block_above_mc(hamming_spec, hamming_bit_spec, hamming74):
    ch = ChannelPoint.from_eb_n0_db(4.0, R_HAMMING)
    bit = tsb_block(hamming_bit_spec, ch)
    block = tsb_block(hamming_spec, ch)
    assert bit.value <= block.value * (1 + 1e-12)
    est = simulate_ml(hamming74, ch, trials=400_000, seed=77)
    assert bit.value >= est.bit_error_rate - 3.0 * est.bit_std_error
    for db in DB_GRID:
        chx = ChannelPoint.from_eb_n0_db(db, R_HAMMING)
        assert tsb_block(hamming_bit_spec, chx).value <= tsb_block(hamming_spec, chx).value * (
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


def test_itsb_rho_zero_shrinks_terms():
    # The conditioned terms decrease in rho, and itsb's correlations are the
    # most negative admissible ones, so rho = 0 can only shrink each of its
    # terms, strictly where the line cuts.
    spec = random_ensemble_spectrum(64, 0.9)
    ch = ChannelPoint.from_eb_n0_db(3.0, 0.9)
    eng = Plan(spec).at(ch)
    d = spec.d_min
    strict = 0
    for h in eng.plan.included:
        if h < d:
            continue
        forced = eng.term(eng.plan.key(h, d, 0.0)).log_value
        default = eng.term(eng.plan.key(h, d, rho_min_h(h, d, spec.n))).log_value
        assert forced <= default + 1e-9, h
        strict += forced < default
    assert strict >= 1


def _oracle_itsb(eng, spec):
    """itsb's terms as its own loop gathered them before it was one term
    list: per weight h >= d_min, the conditioned term against d_min, each
    integrated under its own key, vacuous or not (the pair key at rho = -1,
    where there is no line), and, at h = d_min, the anchor after it."""
    d = spec.d_min
    weighted, used = {}, []
    anchor = eng.pair_term(d) if d < spec.n else None
    for h in eng.plan.included:
        if h < d:
            continue
        coeff = float(spec.log_a[h]) if h != d else bounds._log_minus_one(float(spec.log_a[h]))
        parts = []
        if coeff > NEG_INF:
            rho = rho_min_h(h, d, spec.n)
            t = eng.term(("triple", h, d, rho) if rho > -1.0 else ("pair", h)).scaled(coeff)
            parts.append(t.log_value)
            used.append(t)
        if h == d and anchor is not None:
            parts.append(anchor.log_value)
            used.append(anchor)
        if parts:
            weighted[h] = float(logsumexp(parts))
    return oracle_assemble(eng, weighted, used)


def test_itsb_is_its_loop_bit_for_bit(hamming_spec, golay_spec):
    # itsb's one term list, assembled as every bound is, gives the value,
    # weights (in order), error budget and flags of the loop it replaced.
    # The spectra with A_d = 1 have no self-term at d_min.
    unique = single_weight_spectrum(10, 3, 1.0).log_a.copy()
    unique[[5, 6, 7]] = np.log([6.0, 4.0, 3.0])
    bits = np.array([[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 1, 1]], dtype=np.uint8)
    cases = [(hamming_spec, R_HAMMING), (golay_spec, 12 / 23),
             (DistanceSpectrum(n=10, log_a=unique, d_min=3), 0.4),
             (enumerate_spectrum(GeneratorMatrix(k=2, n=6, bits=bits))[0], 1 / 3)]
    cases += [(random_ensemble_spectrum(n, 0.5), 0.5) for n in (6, 8, 10, 12, 14, 16)]
    for spec, rate in cases:
        for db in (2.0, 4.0, 6.0):
            ch = ChannelPoint.from_eb_n0_db(db, rate)
            eng = Plan(spec).at(ch)
            res = itsb(spec, ch, terms=eng)
            want = _oracle_itsb(eng, spec)
            assert replace(res, vacuous_terms=None) == want, (spec.n, db)
            assert list(res.per_weight.items()) == list(want.per_weight.items())


def test_vacuous_terms_count_conditioning_that_changes_nothing(golay_spec):
    # On Golay at 4 dB every itsb line clears its pair event: 4 of its 4
    # conditioned parts (the self-term at d_min and weights 8, 11, 12).
    # ahp's winning layer 14 lies outside the cone, where every part is its
    # pair term; psi's winning layer cuts every part.  The one itsb part of
    # a single-weight spectrum, its self-term, cuts.  tsb conditions
    # nothing and reports None.
    ch = ChannelPoint.from_eb_n0_db(4.0, 12 / 23)
    terms = Plan(golay_spec).at(ch)
    assert tsb_block(golay_spec, ch, terms=terms).vacuous_terms is None
    assert terms.plan.included == (7, 8, 11, 12)
    assert itsb(golay_spec, ch, terms=terms).vacuous_terms == 4
    res = ahp(golay_spec, ch, terms=terms)
    assert (res.ahp_layer, res.layer_in_cone, res.vacuous_terms) == (14, False, 4)
    res = psi(golay_spec, ch, terms=terms)
    assert res.layer_in_cone and res.vacuous_terms == 0
    spec = single_weight_spectrum(10, 3, 5.0)
    assert itsb(spec, ChannelPoint.from_eb_n0_db(4.0, 0.5)).vacuous_terms == 0


@pytest.mark.parametrize("code", ["hamming", "ens10"])
def test_one_assembly_per_bound_and_layer(code, hamming_spec, monkeypatch):
    # tsb and itsb are one term list each, assembled once; ahp and psi
    # assemble each layer they keep once, and nothing else.
    spec, rate = {"hamming": (hamming_spec, R_HAMMING),
                  "ens10": (random_ensemble_spectrum(10, 0.5), 0.5)}[code]
    calls = []
    orig = bounds._Engine.assemble

    def spy(self, layer, include_q, ahp_layer=None, **fields):
        calls.append(ahp_layer)
        return orig(self, layer, include_q, ahp_layer, **fields)

    monkeypatch.setattr(bounds._Engine, "assemble", spy)
    ch = ChannelPoint.from_eb_n0_db(4.0, rate)
    terms = Plan(spec).at(ch)
    for bound in (tsb_block, itsb, ahp, psi):
        calls.clear()
        res = bound(spec, ch, terms=terms)
        if bound in (ahp, psi):
            assert len(calls) == len(set(calls)) == res.layers_assembled
            assert res.ahp_layer in calls
        else:
            assert calls == [None]


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
    top = assemble_layer(hamming_spec, ch, 7)
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
        assert best.value <= assemble_layer(hamming_spec, ch, w).value * (1 + 1e-12)


def test_ahp_above_mc(hamming_spec, mc_hamming):
    est = mc_hamming[2.0]
    res = ahp(hamming_spec, ChannelPoint.from_eb_n0_db(2.0, R_HAMMING))
    assert res.value >= est.block_error_rate - 3.0 * est.std_error


def test_ahp_extension_layer_below_dmin_still_valid(hamming_spec, mc_hamming):
    # Regression: the C(n,w) extension pairs exist even when the code has no
    # weight-w words; dropping them once produced a "bound" below the true
    # error probability at w=2.
    est = mc_hamming[2.0]
    res = assemble_layer(hamming_spec, ChannelPoint.from_eb_n0_db(2.0, R_HAMMING), 2)
    assert res.ahp_layer == 2
    assert res.value >= est.block_error_rate - 3.0 * est.std_error
    assert res.per_weight[2] > res.per_weight[3]  # anchor + 21 extension pairs


def test_ahp_default_layers_never_exceed_tsb():
    # Regression: on this (5,2) code every layer below w = n loses to its
    # extension term; before layer n joined ahp's default layers, ahp came
    # out above tsb (0.019452 against 0.015320 at 4 dB).
    bits = np.array([[1, 0, 1, 1, 0], [0, 1, 0, 1, 1]], dtype=np.uint8)
    spec, _ = enumerate_spectrum(GeneratorMatrix(k=2, n=5, bits=bits))
    ch = ChannelPoint.from_eb_n0_db(4.0, 2 / 5)
    terms = Plan(spec).at(ch)
    res = ahp(spec, ch, terms=terms)
    assert res.ahp_layer == 5
    assert res.value == tsb_block(spec, ch, terms=terms).value


@st.composite
def small_codes(draw):
    """A systematic generator [I | P] with random parity part, n <= 10."""
    n = draw(st.integers(5, 10))
    k = draw(st.integers(2, min(4, n - 2)))
    parity = draw(st.lists(st.integers(0, 1), min_size=k * (n - k), max_size=k * (n - k)))
    p = np.array(parity, dtype=np.uint8).reshape(k, n - k)
    return GeneratorMatrix(k=k, n=n, bits=np.hstack([np.eye(k, dtype=np.uint8), p]))


@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(gm=small_codes(), db=st.sampled_from([2.0, 4.0, 6.0]))
def test_bound_orderings_on_random_codes(gm, db):
    spec, _ = enumerate_spectrum(gm)
    ch = ChannelPoint.from_eb_n0_db(db, gm.rate)
    terms = Plan(spec).at(ch)
    ts, it, ah, ps = (f(spec, ch, terms=terms) for f in (tsb_block, itsb, ahp, psi))

    def at_most(a, b):
        return a.value <= b.value + a.error_estimate + b.error_estimate

    assert at_most(it, ts)
    assert at_most(ah, ts)
    assert at_most(ps, it) and at_most(ps, ah)
    for bound in (ahp, psi):
        _check_layer_search(bound, spec, ch, terms)


# -- layer search ------------------------------------------------------------


def _exhaustive_best_layer(eng, spec, extend):
    """The layer search with every layer assembled in full, the smallest
    value winning and ties going to the smallest layer: the reference for
    the pruned search, which must return the same result."""
    best = None
    for w in range(1, spec.n + 1):
        cand = assemble_layer(spec, eng.ch, w, extend, eng)
        if best is None or cand.log_value < best.log_value:
            best = cand
    return best


def _check_layer_search(bound, spec, ch, terms):
    """The pruned search equals the exhaustive one in every BoundResult
    field but the layer accounting, which must add up.  Returns the result."""
    extend = bound is ahp
    want = _exhaustive_best_layer(terms, spec, extend)
    res = bound(spec, ch, terms=terms)
    assert replace(res, layers_assembled=None, layers_pruned=None, layer_in_cone=None,
                   vacuous_terms=None) == want
    parts = bounds._layer(terms, spec, res.ahp_layer, extend).parts
    assert res.vacuous_terms == sum(key[0] == "pair" for _, _, key in parts)
    assert res.layers_assembled >= 1
    assert res.layers_assembled + res.layers_pruned == spec.n
    assert res.layer_in_cone == (res.ahp_layer in terms.plan.geom_included)
    return res


@pytest.mark.parametrize("code", ["hamming", "golay", "code52"])
def test_layer_search_matches_exhaustive_on_codes(code, hamming_spec, golay_spec):
    if code == "code52":  # the (5,2) code of test_ahp_default_layers_never_exceed_tsb
        bits = np.array([[1, 0, 1, 1, 0], [0, 1, 0, 1, 1]], dtype=np.uint8)
        spec, _ = enumerate_spectrum(GeneratorMatrix(k=2, n=5, bits=bits))
        rate = 2 / 5
    else:
        spec, rate = {"hamming": (hamming_spec, R_HAMMING), "golay": (golay_spec, 12 / 23)}[code]
    pruned = 0
    for db in (2.0, 4.0, 6.0):
        ch = ChannelPoint.from_eb_n0_db(db, rate)
        terms = Plan(spec).at(ch)
        for bound in (ahp, psi):
            res = _check_layer_search(bound, spec, ch, terms)
            pruned += res.layers_pruned
            if code == "golay" and db == 4.0 and bound is ahp:
                # the out-of-cone layers 14..23 tie exactly; the smallest wins
                assert res.ahp_layer == 14 and not res.layer_in_cone
    assert pruned > 0


def test_prune_only_anchors_stay_coarse(golay_spec):
    # Golay layers 1-6, 9, 10 and 13 open inside the cone but hold no
    # codewords, so ahp reads their anchor pair terms only to prune them:
    # on a fresh cache at 4 dB each such run stops at its first level, its
    # exact term never integrated.  ahp and psi still return the exhaustive
    # search's result.
    ch = ChannelPoint.from_eb_n0_db(4.0, 12 / 23)
    terms = Plan(golay_spec).at(ch)
    ahp(golay_spec, ch, terms=terms)
    anchors = sorted(terms.plan.geom_included - set(terms.plan.included))
    assert anchors == [1, 2, 3, 4, 5, 6, 9, 10, 13]
    for w in anchors:
        assert len(terms._runs[("pair", w)]) == 1 and ("pair", w) not in terms._cache, w
    for bound in (ahp, psi):
        _check_layer_search(bound, golay_spec, ch, terms)


def test_layer_search_matches_exhaustive_on_ensembles():
    for n in (6, 8, 10, 12, 14, 16):
        spec = random_ensemble_spectrum(n, 0.5)
        for db in (2.0, 4.0, 6.0) if n <= 12 else (4.0,):
            ch = ChannelPoint.from_eb_n0_db(db, 0.5)
            terms = Plan(spec).at(ch)
            for bound in (ahp, psi):
                _check_layer_search(bound, spec, ch, terms)


def _pruned_search(bound, spec, ch, monkeypatch, start=None, ladder=False):
    """bound on a fresh cache, each layer it pruned, mapped to the rung
    that pruned it: "orthant" or "brackets" (the two difference-form
    rungs) or "coarse" (a coarse level of the term runs), and the layer it
    started from.  Given start, the search starts there instead of at the
    layer _start predicts; the prediction's own comparisons prune nothing
    and are not counted.  Given ladder, the search drops the two
    difference-form rungs from its list: their sums are never drawn."""
    pruned, state = {}, {"walk": False}
    layer, exceeds, predict = bounds._layer, bounds._exceeds, bounds._start

    def layer_spy(eng, spec, w, extend):
        state["w"] = w
        return layer(eng, spec, w, extend)

    def exceeds_spy(eng, head, ranked, rung, log_bound):
        name = {eng.orthant: "orthant", eng.bracketed: "brackets"}.get(rung, "coarse")
        if ladder and name != "coarse" and not state["walk"]:
            return False
        out = exceeds(eng, head, ranked, rung, log_bound)
        if out and not state["walk"]:
            pruned[state["w"]] = name
        return out

    def start_spy(*args):
        state["walk"] = True
        state["first"] = predict(*args) if start is None else start
        state["walk"] = False
        return state["first"]

    with monkeypatch.context() as m:
        m.setattr(bounds, "_layer", layer_spy)
        m.setattr(bounds, "_exceeds", exceeds_spy)
        m.setattr(bounds, "_start", start_spy)
        return bound(spec, ch, terms=Plan(spec).at(ch)), pruned, state["first"]


@pytest.mark.parametrize("case", ["hamming", "golay", "ensembles", "ens32"])
def test_pruned_search_on_fresh_cache(case, hamming_spec, golay_spec, monkeypatch):
    # The pruned search on a fresh cache, so that it prunes on orthants, on
    # brackets and on the coarse estimates of term runs, not on exact
    # cached terms, and the same search with the two difference-form rungs
    # dropped from its rung list, on the ladder alone.  Which layers are
    # pruned depends on the start, so the second search starts where the
    # first started; the prediction is made of the rungs it drops.  Both
    # return the same result bit for bit, layer accounting aside, and the
    # difference-form rungs drop every layer the ladder drops and more:
    # Hamming layer 5, Golay layer 13 and the n=32 ensemble's layer 17,
    # which the ladder leaves to be assembled.  Each estimate is checked against its exact
    # term in test_rung_estimates_never_exceed_their_terms.
    if case in ("hamming", "golay"):
        spec, rate = {"hamming": (hamming_spec, R_HAMMING), "golay": (golay_spec, 12 / 23)}[case]
        points = [(spec, ChannelPoint.from_eb_n0_db(db, rate)) for db in (2.0, 4.0, 6.0)]
    elif case == "ensembles":
        points = [(random_ensemble_spectrum(n, 0.5), ChannelPoint.from_eb_n0_db(4.0, 0.5))
                  for n in (6, 8, 10, 12, 14, 16)]
    else:
        points = [(random_ensemble_spectrum(32, 0.5), ChannelPoint.from_eb_n0_db(3.0, 0.5))]
    stages, gained = [], set()
    for spec, ch in points:
        for bound in (ahp, psi):
            res, pruned, first = _pruned_search(bound, spec, ch, monkeypatch)
            ladder, on_ladder, _ = _pruned_search(bound, spec, ch, monkeypatch, first, True)
            assert set(on_ladder) <= set(pruned)
            assert set(on_ladder.values()) <= {"coarse"}
            unpruned = dict(layers_assembled=None, layers_pruned=None)
            assert replace(res, **unpruned) == replace(ladder, **unpruned)
            assert list(res.per_weight.items()) == list(ladder.per_weight.items())
            stages += list(pruned.values()) + list(on_ladder.values())
            gained |= {(spec.n, w) for w, rung in pruned.items()
                       if rung != "coarse" and w not in on_ladder}
    assert {"orthant", "brackets", "coarse"} <= set(stages)
    assert gained == {"hamming": {(7, 5)}, "golay": {(23, 13)}, "ensembles": set(),
                      "ens32": {(32, 17)}}[case]


def _count_panels(monkeypatch) -> list[int]:
    """Count the GK15 panels of every term run the bounds start, the later
    refinements of a run included: [panels], updated in place."""
    panels = [0]
    orig = bounds.adaptive_integrate

    def spy(f, *args):
        def counted(z1):
            panels[0] += 1
            return f(z1)

        return orig(counted, *args)

    monkeypatch.setattr(bounds, "adaptive_integrate", spy)
    return panels


def test_layer_search_integrates_fewer_terms(monkeypatch):
    # ahp then psi on one cache of the n=12 ensemble at 4 dB: 979 GK15
    # panels over 57 term integrals when every layer is assembled, 404 with
    # pruning: 238 of term runs and 166 of bracket runs, which integrate no
    # z3 rule (from the same starts, layers n and 3, 363 term panels when
    # layers were pruned on coarse estimates of the term runs alone, 664 on
    # exact terms only).  Runs can stop at a coarse level, so panels, not
    # integrals, measure the work; psi continues the runs ahp left partway.
    # The out-of-cone layers 8..11 are the plain pair terms of layer n and
    # integrate nothing new.
    panels = _count_panels(monkeypatch)
    spec = random_ensemble_spectrum(12, 0.5)
    ch = ChannelPoint.from_eb_n0_db(4.0, 0.5)
    terms = Plan(spec).at(ch)
    _exhaustive_best_layer(terms, spec, True)
    _exhaustive_best_layer(terms, spec, False)
    exhaustive = panels[0]
    panels[0] = 0
    terms = Plan(spec).at(ch)
    ahp(spec, ch, terms=terms)
    psi(spec, ch, terms=terms)
    assert exhaustive == 979
    assert panels[0] <= 404


def _count_kernel_nodes(monkeypatch) -> dict[str, int]:
    """Count the chi-square masses the kernel requests through _Engine._g
    and the nodes gammainc evaluates, which leaves out the saturated ones:
    {"requested": .., "evaluated": ..}, updated in place."""
    nodes = {"requested": 0, "evaluated": 0}
    g = bounds._Engine._g

    def g_spy(self, a, x):
        nodes["requested"] += np.size(x)
        return g(self, a, x)

    def spy(a, x):
        nodes["evaluated"] += np.broadcast(a, x).size
        return gammainc(a, x)

    monkeypatch.setattr(bounds._Engine, "_g", g_spy)
    monkeypatch.setattr(bounds, "gammainc", spy)
    return nodes


@pytest.mark.parametrize("db", [2.0, 4.0])
def test_psi_assembles_only_its_predicted_layer(db, monkeypatch):
    # On the n=12 ensemble layer 3 beats d_min = 2.  The bracket sums
    # predict it, so psi on a fresh cache assembles layer 3 alone and
    # prunes layer 2 on the brackets the prediction computed, integrating
    # no exact term of layer 2's conditioned terms.
    spec = random_ensemble_spectrum(12, 0.5)
    assert spec.d_min == 2
    ch = ChannelPoint.from_eb_n0_db(db, 0.5)
    terms = Plan(spec).at(ch)
    res = psi(spec, ch, terms=terms)
    assert (res.ahp_layer, res.layers_assembled) == (3, 1)
    assert not any(key[0] == "triple" and key[2] == 2 for key in terms._cache)
    assert _check_layer_search(psi, spec, ch, terms) == res


# The ids are fixed names that carry older pins, so each case keeps its
# name as its pin moves.
@pytest.mark.parametrize("code, db, want, evaluated", [
    ("hamming", 2.0, 177_120, 160_950), ("hamming", 4.0, 177_840, 159_549),
    ("hamming", 6.0, 178_920, 158_129), ("golay", 2.0, 680_400, 657_640),
    ("golay", 4.0, 662_040, 627_161), ("golay", 6.0, 729_360, 665_005),
], ids=["hamming-2.0-208800", "hamming-4.0-209520", "hamming-6.0-210600",
        "golay-2.0-755280", "golay-4.0-752760", "golay-6.0-824400"])
def test_psi_kernel_nodes_on_codes(code, db, want, evaluated, hamming_spec, golay_spec,
                                   monkeypatch):
    # d_min wins here, and the prediction stops at d_min on estimates the
    # search reads anyway, so psi costs exactly what a search pinned to
    # start at d_min costs.  Before the walk and the search shared one
    # pruning test the counts were 192,960 / 193,680 / 194,760 and
    # 680,400 / 677,880 / 745,200: the walk read the brackets of layer
    # d_min + 1, which the search prunes on orthants.  Before the orthant
    # rung and the bracket kernel's skipping of nodes where the line clears
    # the disk they were 208,800 / 209,520 / 210,600 and 755,280 / 752,760
    # / 824,400.
    # The pins count the masses the kernel requests; gammainc evaluates
    # the ones below their saturation point, `evaluated` of them.
    spec, rate = {"hamming": (hamming_spec, R_HAMMING), "golay": (golay_spec, 12 / 23)}[code]
    ch = ChannelPoint.from_eb_n0_db(db, rate)
    nodes = _count_kernel_nodes(monkeypatch)
    psi(spec, ch)
    assert (nodes["requested"], nodes["evaluated"]) == (want, evaluated)
    nodes.update(requested=0, evaluated=0)
    monkeypatch.setattr(bounds, "_start", lambda eng, spec, extend, head: spec.d_min)
    psi(spec, ch)
    assert (nodes["requested"], nodes["evaluated"]) == (want, evaluated)


def _parent_layer_terms(eng, spec, w, extend):
    """Layer w as assembled before out-of-cone layers were recognized: the
    anchor pair term, the extension self-term when w opens inside the cone,
    and a conditioned term against w for every included weight; only
    w = n was the plain pair assembly."""
    n = spec.n
    if w == n:
        terms = {h: eng.pair_term(h).scaled(float(spec.log_a[h])) for h in eng.plan.included}
        return {h: t.log_value for h, t in terms.items()}, list(terms.values())
    anchor = eng.pair_term(w)
    terms, weighted = [anchor], {}
    self_term = None
    if extend and w in eng.plan.geom_included:
        self_term = eng.term(("triple", w, w, rho_ww(w, n))).scaled(math.log(math.comb(n, w)))
        terms.append(self_term)
    for h in eng.plan.included:
        if h != w:
            t = eng.term(("triple", h, w, rho_max_wh(w, h, n))).scaled(float(spec.log_a[h]))
            terms.append(t)
            weighted[h] = t.log_value
    weighted[w] = anchor.log_value
    if self_term is not None:
        weighted[w] = float(logsumexp([anchor.log_value, self_term.log_value]))
    return weighted, terms


@pytest.mark.parametrize("code", ["hamming", "golay", "ens12"])
def test_out_of_cone_layers_are_the_plain_assembly(code, hamming_spec, golay_spec, monkeypatch):
    # A layer outside the cone conditions nothing, so it is assembled from
    # the plain pair terms: it matches the anchored formula within the two
    # error budgets, while every layer inside the cone, with codewords of
    # its weight or not (Golay layers 1-6, 9, 10, 13 have none), is that
    # formula summed as before, bit for bit, its weights in order.  ahp and
    # psi never condition on an outside layer.
    spec, rate = {
        "hamming": (hamming_spec, R_HAMMING),
        "golay": (golay_spec, 12 / 23),
        "ens12": (random_ensemble_spectrum(12, 0.5), 0.5),
    }[code]
    refs = []
    orig = bounds._Engine._refined

    def spy(self, key, level):
        if key[0] == "triple":
            refs.append(key[2])
        return orig(self, key, level)

    outside = 0
    for db in (2.0, 4.0, 6.0):
        ch = ChannelPoint.from_eb_n0_db(db, rate)
        eng = Plan(spec).at(ch)
        with monkeypatch.context() as m:
            m.setattr(bounds._Engine, "_refined", spy)
            ahp(spec, ch, terms=eng)
            psi(spec, ch, terms=eng)
        assert refs and set(refs) <= eng.plan.geom_included
        for extend in (True, False):
            for w in range(1, spec.n + 1 if extend else spec.n):
                a = assemble_layer(spec, ch, w, extend, eng)
                b = oracle_assemble(eng, *_parent_layer_terms(eng, spec, w, extend),
                                    include_q=extend, ahp_layer=w)
                if w in eng.plan.geom_included:
                    assert a == b, (db, w)
                    assert list(a.per_weight.items()) == list(b.per_weight.items()), (db, w)
                    continue
                outside += w != spec.n
                assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate, (db, w)
    assert outside > 0  # layers outside the cone besides layer n


def _layer_keys(eng, spec) -> set:
    """The anchor and part keys of every ahp and psi layer."""
    keys = set()
    for extend in (True, False):
        for w in range(1, spec.n + 1 if extend else spec.n):
            layer = bounds._layer(eng, spec, w, extend)
            keys |= {key for _, _, key in layer.parts} | {layer.anchor} - {None}
    return keys


def _mp_orthant(x, y, r):
    """Pr(X >= x, Y >= y) for standard normals at correlation r: mpmath
    quadrature of phi(t) Phi((r t - y) / sqrt(1 - r^2)) over t >= x."""
    with mp.workdps(30):
        x, y, r = mp.mpf(x), mp.mpf(y), mp.mpf(r)
        s = mp.sqrt(1 - r * r)
        return float(mp.quad(lambda t: mp.npdf(t) * mp.ncdf((r * t - y) / s),
                             [x, x + 1 / x, x + 4 / x, x + 16 / x, mp.inf]))


@pytest.mark.parametrize("code, db", [("hamming", 4.0), ("golay", 0.0), ("golay", 9.0),
                                      ("ens24", 9.0)])
def test_orthant_bounds_the_bivariate_normal_orthant(code, db, hamming_spec, golay_spec):
    # The orthant rung's bound on a wedge is at least the orthant of its
    # two codewords' half-spaces, by an mpmath oracle, at a dozen or more
    # conditioned keys of the ahp and psi layers and at Golay's key
    # (12, 1) at 9 dB.  That key lies deep in the tail: Owen's pieces
    # Q(y)/2 and T(y, a_y) are 1e-3 and cancel to an orthant of 5e-24,
    # and their sum alone comes out at -1.7e-18; the bound there is the
    # marginal Q(x).  Up to the thresholds where Owen's T is used, the
    # bound exceeds the orthant by at most twice its allowance, 1e-10 of
    # the pieces' magnitudes, which sum to at most Q(x) + Q(y).
    spec, rate = {"hamming": (hamming_spec, R_HAMMING), "golay": (golay_spec, 12 / 23),
                  "ens24": (random_ensemble_spectrum(24, 0.8), 0.8)}[code]
    eng = Plan(spec).at(ChannelPoint.from_eb_n0_db(db, rate))
    n, c = spec.n, eng.ch.c
    keys = sorted(key for key in _layer_keys(eng, spec) if key[0] == "triple")
    picked = keys[::max(1, len(keys) // 12)]
    picked += [key for key in keys if key[1:3] == (12, 1) and code == "golay" and db == 9.0]
    for _, h, w, rho in picked:
        x, y = math.sqrt(2.0 * h * c), math.sqrt(2.0 * w * c)
        r = (math.sqrt(h * w) + rho * math.sqrt((n - h) * (n - w))) / n
        got, want = bounds._orthant_hi(x, y, r), _mp_orthant(x, y, r)
        assert want <= got <= ndtr(-max(x, y)) * (1.0 + 1e-10), (h, w, got, want)
        if max(x, y) <= bounds._OWEN_MAX:
            assert got - want <= 2e-10 * (ndtr(-x) + ndtr(-y)), (h, w, got, want)
    assert len(picked) >= 12


@pytest.mark.parametrize("code", ["golay", "ens12"])
def test_rung_estimates_never_exceed_their_terms(code, golay_spec):
    # Every estimate a partial sum reads is at most its exact term, over
    # every anchor and part of every ahp and psi layer at 4 dB: a pair key
    # at _pair_low, a conditioned key at each rung, the orthant, the
    # difference-form bracket and the term run's estimate at each coarse
    # level.  On Golay this takes in the prune-only anchors and the
    # conditioned extension self-terms of the prune-only weights 1-6, 9
    # and 10, whose pair term enters the difference form coarse.
    spec, rate = ((golay_spec, 12 / 23) if code == "golay"
                  else (random_ensemble_spectrum(12, 0.5), 0.5))
    eng = Plan(spec).at(ChannelPoint.from_eb_n0_db(4.0, rate))
    keys = _layer_keys(eng, spec)
    finite = []
    for key in sorted(keys, key=repr):
        if key[0] == "pair":
            estimates = [bounds._log(eng._pair_low(key[1]))]
        else:
            estimates = [eng.orthant(key), eng.bracketed(key)]
            estimates += [eng.lower(key, k) for k in range(len(eng.levels) - 1)]
        exact = eng.term(key).log_value
        assert all(e <= exact for e in estimates), (key, exact, estimates)
        finite += [key for e in estimates if e > NEG_INF]
    pairs = {key for key in keys if key[0] == "pair"}
    prune_only = {("triple", w, w) for w in eng.plan.geom_included - set(eng.plan.included)}
    assert pairs <= set(finite)
    assert len(finite) - len(pairs) > 3 * len(keys - pairs)
    assert bool(prune_only & {key[:3] for key in finite}) == (code == "golay")


@pytest.mark.parametrize("code, db", [("hamming", 2.0), ("golay", 4.0), ("ens12", 4.0),
                                      ("ens16", 2.0)])
def test_rungs_never_see_a_pair_key(code, db, hamming_spec, golay_spec, monkeypatch):
    # A partial sum reads a pair part, the anchor among them, at
    # _Engine._pair_low, so no rung is ever asked to estimate a pair key:
    # tsb, itsb, ahp and psi on one cache.  psi's start walk once sent its
    # pair parts through the rungs (6, 16 and 13 such calls on the first
    # three).  The ladder is reached on the n=16, R=0.3 ensemble at 2 dB.
    spec, rate = {"hamming": (hamming_spec, R_HAMMING), "golay": (golay_spec, 12 / 23),
                  "ens12": (random_ensemble_spectrum(12, 0.5), 0.5),
                  "ens16": (random_ensemble_spectrum(16, 0.3), 0.3)}[code]
    seen = []
    for name in ("orthant", "bracketed", "lower"):
        def spy(self, key, *args, rung=getattr(bounds._Engine, name), name=name, **kwargs):
            seen.append((name, key[0]))
            return rung(self, key, *args, **kwargs)

        monkeypatch.setattr(bounds._Engine, name, spy)
    ch = ChannelPoint.from_eb_n0_db(db, rate)
    terms = Plan(spec).at(ch)
    for bound in (tsb_block, itsb, ahp, psi):
        bound(spec, ch, terms=terms)
    rungs = {"orthant", "bracketed"} | ({"lower"} if code == "ens16" else set())
    assert {name for name, _ in seen} == rungs
    assert {kind for _, kind in seen} == {"triple"}


_ORTHANT_CODES = ["hamming", "golay"] + [(n, rate) for n in range(6, 25)
                                          for rate in (0.3, 0.5, 0.8)]


@given(code=st.sampled_from(_ORTHANT_CODES), db=st.integers(0, 9), data=st.data())
@settings(max_examples=20, deadline=None)
def test_orthant_estimates_never_exceed_their_terms(code, db, data, hamming_spec, golay_spec):
    # The orthant rung's estimate is at most the exact term on Hamming,
    # Golay and the ensembles with n = 6..24 and R = 0.3, 0.5, 0.8, at
    # 0..9 dB: a few conditioned keys of the ahp and psi layers at each
    # drawn point, among those with an estimate above zero.  Over every
    # such key on that grid (16,491 of 26,600 at the even n), the closest
    # estimate came within 9.4e-10 of its term in log, the margin
    # _KAPPA * rel_tol gives the quadrature error.
    spec, rate = {"hamming": (hamming_spec, R_HAMMING), "golay": (golay_spec, 12 / 23)}.get(
        code) or (random_ensemble_spectrum(*code), code[1])
    eng = Plan(spec).at(ChannelPoint.from_eb_n0_db(float(db), rate))
    keys = sorted(key for key in _layer_keys(eng, spec) if key[0] == "triple")
    estimates = {key: eng.orthant(key) for key in keys}
    finite = [key for key in keys if estimates[key] > NEG_INF]
    assume(finite)
    drawn = data.draw(st.lists(st.sampled_from(finite), min_size=1, max_size=4, unique=True),
                      label="keys")
    for key in drawn:
        assert estimates[key] <= eng.term(key).log_value, key


def test_psi_sandwich(hamming_spec):
    for db in (0.0, 2.0, 4.0):
        ch = ChannelPoint.from_eb_n0_db(db, R_HAMMING)
        p = psi(hamming_spec, ch)
        i = itsb(hamming_spec, ch)
        a = ahp(hamming_spec, ch)
        assert 0.0 <= p.value <= i.value * (1 + 1e-9)
        assert p.value <= a.value * (1 + 1e-9)
        assert p.tail_terms["q"] == NEG_INF  # apex tail excluded by design


@pytest.mark.parametrize("n", [3, 5, 8])
def test_psi_sandwich_on_repetition_codes(n):
    # A repetition code has no interior weights, so the fallback cone holds
    # every layer 1..n-1, and each of them adds its anchor's pair term to
    # the cap.  psi searches ahp's layers 1..n, and layer n, tsb's pair
    # terms without the apex tail, is the cap term alone here: psi stays
    # below itsb and ahp.
    spec = repetition_spectrum(n)
    for db in (0.0, 4.0, 8.0):
        ch = ChannelPoint.from_eb_n0_db(db, 1 / n)
        terms = Plan(spec).at(ch)
        i, a, p = (f(spec, ch, terms=terms) for f in (itsb, ahp, psi))
        for bound in (i, a):
            assert p.value <= bound.value + p.error_estimate + bound.error_estimate
        assert p.ahp_layer == n and not p.layer_in_cone
        assert p.log_value == terms.cap_term().log_value


def test_psi_never_requests_self_term(hamming_spec, golay_spec, monkeypatch):
    # psi's value leaves the extension self-term, key (w, w, .), out,
    # so psi must not integrate it, not even to a coarse level or as a
    # bracket (nor carry its quadrature error), on Hamming at 4 dB and
    # Golay at 2 dB.  On Golay psi runs brackets as well as terms, and ahp
    # on Hamming brackets a self-term, which shows the spies see both kinds
    # of request.
    calls = []
    refined, bracket = bounds._Engine._refined, bounds._Engine._bracket

    def refined_spy(self, key, level):
        if key[0] == "triple":
            calls.append(("run",) + key[1:3])
        return refined(self, key, level)

    def bracket_spy(self, key):
        calls.append(("bracket",) + key[1:3])
        return bracket(self, key)

    monkeypatch.setattr(bounds._Engine, "_refined", refined_spy)
    monkeypatch.setattr(bounds._Engine, "_bracket", bracket_spy)
    ch = ChannelPoint.from_eb_n0_db(4.0, R_HAMMING)
    psi(hamming_spec, ch)
    assert all(h != w for _, h, w in calls)
    calls.clear()
    psi(golay_spec, ChannelPoint.from_eb_n0_db(2.0, 12 / 23))
    assert {kind for kind, _, _ in calls} == {"run", "bracket"}
    assert all(h != w for _, h, w in calls)
    calls.clear()
    ahp(hamming_spec, ch)
    assert any(kind == "bracket" and h == w for kind, h, w in calls)


# -- conditioned kernel ------------------------------------------------------


def test_triple_term_empty_range():
    geo = ConeGeometry(7, 4.2733)
    ch = ChannelPoint.from_eb_n0_db(2.0, R_HAMMING)
    # Both beta_h and r_z1 scale with (sqrt(n) - z1), so the z2 range is
    # empty exactly when the weight sits outside the cone: h = 6 here.
    assert log_kernel(6, 0.5, -0.3, geo, ch, 0.3) == NEG_INF
    # Past the apex the whole section is gone regardless of weight.
    assert log_kernel(3, 0.5, -0.3, geo, ch, math.sqrt(7)) == NEG_INF


def test_triple_term_full_disk_matches_symmetric_double_integral():
    # rho = 0 with the line beyond the section radius: the z3 constraint is
    # vacuous and the kernel must equal the plain two-variable integral,
    # evaluated here with an independent quadrature routine.
    n, r, z1, h = 7, 4.2733, 0.3, 3
    geo = ConeGeometry(n, r)
    ch = ChannelPoint.from_eb_n0_db(2.0, R_HAMMING)
    ss = ch.sigma_sq
    rz = float(r_z1(geo, z1))
    beta = (math.sqrt(n) - z1) * delta_slope(h, n)
    beta_ref = rz * 1.5

    def integrand(z2):
        gauss = math.exp(-0.5 * z2 * z2 / ss) / math.sqrt(2 * math.pi * ss)
        return gauss * gammainc(0.5 * (n - 2), (rz * rz - z2 * z2) / (2 * ss))

    oracle, err = quad(integrand, beta, rz, epsabs=1e-14, epsrel=1e-12)
    got = math.exp(log_kernel(h, beta_ref, 0.0, geo, ch, z1))
    assert got == pytest.approx(oracle, rel=1e-9)


def test_triple_term_matches_3d_monte_carlo():
    n, r, z1, h, w = 5, 2.2, 0.4, 2, 1
    geo = ConeGeometry(n, r)
    ch = ChannelPoint(c=0.8, rate=0.4)
    sig = math.sqrt(ch.sigma_sq)
    rz = float(r_z1(geo, z1))
    beta_h = (math.sqrt(n) - z1) * delta_slope(h, n)
    beta_ref = (math.sqrt(n) - z1) * delta_slope(w, n)
    rho = rho_max_wh(w, h, n)
    got = math.exp(log_kernel(h, beta_ref, rho, geo, ch, z1))

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
        vals = [math.exp(log_kernel(h, beta_ref, float(t), geo, ch, z1)) for t in grid]
        assert all(v > 0 for v in vals)
        for a, b in zip(vals[1:], vals[:-1]):
            assert a <= b * (1 + 1e-10)
        # finite-difference slope at an interior point
        mid = 0.5 * (max(lo, -0.9) + hi)
        f0 = math.exp(log_kernel(h, beta_ref, mid, geo, ch, z1))
        f1 = math.exp(log_kernel(h, beta_ref, mid + step, geo, ch, z1))
        assert (f1 - f0) / step <= 1e-10


def test_anti_correlated_terms_are_keyed_as_pair_terms(hamming_spec, golay_spec):
    # At rho = -1 the anchor line lies past the cone for every z1, so
    # Plan.key gives the pair key for every weight pair; the kernel, which
    # needs -1 < rho < 1 with a line, never sees rho = -1.
    specs = [hamming_spec, golay_spec] + [random_ensemble_spectrum(n, rate)
                                          for n in range(6, 33) for rate in (0.3, 0.5, 0.9)]
    for spec in specs:
        plan, n = Plan(spec), spec.n
        for h in range(1, n):
            for w in range(1, n):
                assert plan.key(h, w, -1.0) == ("pair", h), (n, h, w)


def _segment_nodes(eng, a, b, ksub):
    """Composite Gauss-Legendre nodes/weights (m, ksub*24) on the one z2
    segment [a, b] of each z1 row: the reference for the engine's node
    build, which covers all of a kernel's segments at once."""
    frac = np.linspace(0.0, 1.0, ksub + 1)
    width = (b - a)[:, None] / ksub
    lo = a[:, None] + (b - a)[:, None] * frac[:-1][None, :]
    mid = lo + 0.5 * width
    half = 0.5 * width
    z = mid[:, :, None] + half[:, :, None] * bounds._GL_X[None, None, :]
    w = np.broadcast_to(half[:, :, None] * bounds._GL_W[None, None, :], z.shape)
    return z.reshape(a.shape[0], -1), w.reshape(a.shape[0], -1)


@pytest.mark.parametrize("code", ["golay", "ens12"])
def test_panel_nodes_match_segment_oracle(code, golay_spec):
    # The node build covers all of a kernel call's segments at once; each
    # segment's nodes and weights are the one-segment oracle's bit for bit,
    # for every ksub and 1-3 segments, on the z1 rows of GK15 panels.  A
    # segment of zero width in every row gets no nodes.
    spec = golay_spec if code == "golay" else random_ensemble_spectrum(12, 0.5)
    plan, n = Plan(spec), spec.n
    eng = plan.at(ChannelPoint.from_eb_n0_db(4.0, 0.5))
    for lo, hi in ((eng.z1_lo, math.sqrt(n)), (0.0, 0.5 * math.sqrt(n)), (-0.3, 0.1)):
        z1 = gk15_rule(lo, hi, 1)[0][0]
        rz = r_z1(plan.geo, z1)
        for h in plan.included:
            a = np.minimum(beta_h(z1, h, plan.geo), rz)
            cuts = [a + (rz - a) * t for t in (0.3, 0.8)]
            for edges in ([a, rz], [a, cuts[0], rz], [a, *cuts, rz], [a, a, cuts[1], rz]):
                live = [(e0, e1) for e0, e1 in zip(edges, edges[1:]) if np.any(e1 > e0)]
                for ksub in range(1, 9):
                    z, w = eng._panel_nodes(edges, ksub)
                    cols = ksub * len(bounds._GL_X)
                    assert z.shape == w.shape == (len(z1), len(live) * cols)
                    for i, (e0, e1) in enumerate(live):
                        want_z, want_w = _segment_nodes(eng, e0, e1, ksub)
                        assert np.array_equal(z[:, i * cols:(i + 1) * cols], want_z)
                        assert np.array_equal(w[:, i * cols:(i + 1) * cols], want_w)


def test_ksub_is_span_over_four_sigma_clamped_to_1_8(golay_spec):
    eng = Plan(golay_spec).at(ChannelPoint.from_eb_n0_db(4.0, 12 / 23))
    four_sigma = 4.0 * eng.sigma
    for span in (0.0, 5e-324, 1e-300, 1e-9 * four_sigma):
        assert eng._ksub(span) == 1
    for span in (8.5 * four_sigma, 1e6, 1e300):
        assert eng._ksub(span) == 8
    for span in np.linspace(0.01, 7.99, 150) * four_sigma:
        ksub = eng._ksub(float(span))
        assert type(ksub) is int and ksub == math.ceil(span / four_sigma)


def _parent_pair_given_z1(eng, z1, h):
    """The pair kernel as a kernel of its own, with the mass _g at every
    node of the one segment [beta_h, r_z1]: the reference for the conditioned
    kernel's no-line case."""
    rz = np.asarray(r_z1(eng.geo, z1), dtype=float)
    a = np.minimum(beta_h(z1, h, eng.geo), rz)
    span = float(np.max(rz - a, initial=0.0))
    if span <= 0.0:
        return np.zeros_like(rz)
    z2, w2 = _segment_nodes(eng, a, rz, eng._ksub(span))
    mass = eng._g(0.5 * (eng.n - 2), (rz[:, None] ** 2 - z2**2) / (2.0 * eng.ch.sigma_sq))
    return np.sum(w2 * eng._phi(z2) * mass, axis=1)


def _dense_triple_given_z1(eng, z1, h, beta_ref, rho, keep_empty=False, z3_nodes=24,
                           bracket=False):
    """The conditioned kernel with the masses _g at every node of its z2
    segments, each segment built on its own, masked afterwards: the
    reference for the engine's kernel, which builds them in one and
    evaluates only where the value is used.  keep_empty also builds the
    segments of zero width, whose nodes all carry zero weight, so the
    result differs from the kernel's only in summation order.  z3_nodes
    sets the Gauss-Legendre rule of the z3 integral; bracket gives the
    upper bracket W_hi of the wedge instead, from the full disk mass and
    both pieces' ends at every node."""
    if beta_ref is None or (rho <= -1.0 + 1e-12 and not bracket):
        return _parent_pair_given_z1(eng, z1, h)
    rz = np.asarray(r_z1(eng.geo, z1), dtype=float)
    a = np.minimum(beta_h(z1, h, eng.geo), rz)
    span = float(np.max(rz - a, initial=0.0))
    if span <= 0.0:
        return np.zeros_like(rz)
    disc = (1.0 - rho * rho) * (rz**2 - beta_ref**2)
    root = np.sqrt(np.maximum(disc, 0.0))
    c_lo = np.clip(beta_ref * rho - root, a, rz)
    c_hi = np.clip(beta_ref * rho + root, a, rz)
    c_lo = np.where(disc >= 0.0, c_lo, a)
    c_hi = np.where(disc >= 0.0, c_hi, a)
    ksub = eng._ksub(span)
    edges = [a, c_lo, c_hi, rz]
    segs = [_segment_nodes(eng, lo, hi, ksub)
            for lo, hi in zip(edges, edges[1:]) if keep_empty or np.any(hi > lo)]
    z2 = np.concatenate([s[0] for s in segs], axis=1)
    w2 = np.concatenate([s[1] for s in segs], axis=1)
    gl_x, gl_w = np.polynomial.legendre.leggauss(z3_nodes)

    two_ss = 2.0 * eng.ch.sigma_sq
    s_sq = np.maximum(rz[:, None] ** 2 - z2**2, 0.0)
    s = np.sqrt(s_sq)
    line = l_line(z2, beta_ref[:, None], rho)
    u = np.minimum(np.abs(line), s)
    if bracket:
        full = eng._g(0.5 * (eng.n - 2), s_sq / two_ss)
        ends = np.stack([u, 0.5 * (u + s), s], axis=2)
        g = eng._g(0.5 * (eng.n - 3), (s_sq[:, :, None] - ends[:, :, :2] ** 2) / two_ss)
        q = ndtr(-ends / eng.sigma)
        d_phi = q[:, :, :2] - q[:, :, 1:]
        side_hi = np.minimum(g[:, :, 0] * d_phi[:, :, 0] + g[:, :, 1] * d_phi[:, :, 1], full)
        partial = np.where(line > 0.0, side_hi, full - g[:, :, 1] * d_phi[:, :, 0])
        w_hi = np.where(line >= s, 0.0, np.where(line <= -s, full, partial))
        return np.sum(w2 * eng._phi(z2) * w_hi, axis=1)
    half_disk = 0.5 * eng._g(0.5 * (eng.n - 2), s_sq / two_ss)
    z3 = u[:, :, None] * (0.5 * (gl_x + 1.0))[None, None, :]
    w3 = (0.5 * u)[:, :, None] * gl_w[None, None, :]
    inner3 = np.sum(
        w3 * eng._phi(z3) * eng._g(0.5 * (eng.n - 3), (s_sq[:, :, None] - z3**2) / two_ss),
        axis=2,
    )
    partial = half_disk + np.sign(line) * inner3
    hmass = np.where(line >= s, 2.0 * half_disk, np.where(line <= -s, 0.0, partial))
    return np.sum(w2 * eng._phi(z2) * hmass, axis=1)


@pytest.mark.parametrize("code", ["hamming", "golay", "ens12"])
def test_triple_kernel_matches_dense_oracle(code, hamming_spec, golay_spec):
    spec = {"hamming": hamming_spec, "golay": golay_spec,
            "ens12": random_ensemble_spectrum(12, 0.5)}[code]
    n = spec.n
    plan = Plan(spec)
    eng = plan.at(ChannelPoint.from_eb_n0_db(4.0, 0.5))
    z1 = np.linspace(eng.z1_lo, math.sqrt(n), 37)[:-1]
    rz = r_z1(plan.geo, z1)
    assert n - 1 not in plan.geom_included
    d, top = plan.included[0], max(plan.geom_included)
    cases = [
        # the bounds' own wedges: itsb (whose rho = -1 terms are keyed as
        # pair terms), an in-cone and an out-of-cone ahp layer, and the
        # extension self-term
        (h, beta_h(z1, d, plan.geo), rho_min_h(h, d, n)) for h in plan.included
        if rho_min_h(h, d, n) > -1.0
    ] + [
        # the pair terms: no line
        (h, None, None) for h in plan.included
    ] + [
        (d, beta_h(z1, top, plan.geo), rho_max_wh(top, d, n)),
        (d, beta_h(z1, n - 1, plan.geo), rho_max_wh(n - 1, d, n)),
        (top, beta_h(z1, top, plan.geo), rho_ww(top, n)),
        # rho next to -1 puts the line past the disk: the pair kernel
        (d, beta_h(z1, d, plan.geo), float(np.nextafter(-1.0, 0.0))),
        # the weight sits outside the cone: the z2 range is empty
        (n - 1, beta_h(z1, d, plan.geo), 0.3),
    ]
    # Lines above the disk (beta_ref > r_z1 at rho = 0: disc < 0, so the
    # first two segments have zero width), below it, and crossing it.
    for scale in (-2.0, -0.5, 0.0, 0.5, 2.0):
        for rho in (-0.9, -0.3, 0.0, 0.3, 0.9):
            cases.append((d, scale * rz, rho))
    nonzero = 0
    for h, beta_ref, rho in cases:
        want = _dense_triple_given_z1(eng, z1, h, beta_ref, rho)
        got = eng._triple_given_z1(z1, h, beta_ref, rho)
        assert np.array_equal(got, want), (h, rho)
        if beta_ref is not None:
            w_hi = eng._triple_given_z1(z1, h, beta_ref, rho, bracket=True)
            assert np.array_equal(w_hi, _dense_triple_given_z1(eng, z1, h, beta_ref, rho,
                                                               bracket=True)), (h, rho)
        # With every segment built, zero-width ones too, the sum is the
        # same up to its order.
        old = _dense_triple_given_z1(eng, z1, h, beta_ref, rho, keep_empty=True)
        assert np.max(np.abs(got - old)) <= 1e-14 * np.max(np.abs(old)), (h, rho)
        nonzero += bool(np.any(want > 0.0))
    assert 0 < nonzero < len(cases)


@given(
    code=st.sampled_from(["hamming", "golay", "ens12"]),
    db=st.sampled_from([0.0, 2.0, 4.0, 6.0, 8.0]),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_bracket_kernel_brackets_the_exact_kernel(code, db, data, hamming_spec, golay_spec):
    # Row by row, W_hi is at least the pair kernel less the exact kernel,
    # the wedge.  Rows near z1_lo, where the line sits many sigma out,
    # carry an error of the exact kernel's 24-node z3 rule (up to 8e-8 of
    # the pair kernel), so each row may miss by that error, measured
    # against a 48-node z3 rule, plus rounding.
    # Weights outside the cone give rows whose z2 span is empty.
    plan = Plan({"hamming": hamming_spec, "golay": golay_spec}.get(code)
                or random_ensemble_spectrum(12, 0.5))
    n = plan.geo.n
    eng = plan.at(ChannelPoint.from_eb_n0_db(db, 0.5))
    weights = st.one_of(st.sampled_from(sorted(plan.geom_included)), st.integers(1, n - 1))
    h = data.draw(weights, label="h")
    w = data.draw(weights, label="w")
    own = [rho_ww(w, n) if h == w else rho_max_wh(w, h, n)]
    rho = data.draw(st.one_of(st.just(float(np.nextafter(-1.0, 0.0))),
                              st.floats(1.0 - 1e-6, 1.0, exclude_max=True),
                              st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
                              st.sampled_from(own)),
                    label="rho")
    # rows from z1_lo up to the apex in steps of sigma / 4
    steps = data.draw(st.lists(st.integers(-40, int(4 * math.sqrt(n) / eng.sigma)),
                               min_size=1, max_size=8), label="z1 steps")
    z1 = np.minimum(np.array(steps) * 0.25 * eng.sigma, math.sqrt(n) * (1.0 - 1e-12))
    beta_ref = beta_h(z1, w, plan.geo)
    w_hi = eng._triple_given_z1(z1, h, beta_ref, rho, bracket=True)
    exact = eng._triple_given_z1(z1, h, beta_ref, rho)
    pair = eng._triple_given_z1(z1, h)
    if rho <= -1.0 + 1e-12:  # at the crossover the line clears the disk: no wedge
        assert np.array_equal(w_hi, np.zeros_like(pair))
    fine = _dense_triple_given_z1(eng, z1, h, beta_ref, rho, z3_nodes=48)
    slack = np.abs(exact - fine) + 1e-13 * pair
    assert np.all(w_hi >= 0.0)
    assert np.all(w_hi >= pair - exact - slack)
    if h not in plan.geom_included:
        assert not np.any(w_hi)


def test_gammainc_is_one_past_the_saturation_point():
    # For every dof the kernel's masses use up to n = 2048, (n-2)/2 and
    # (n-3)/2, the saturation point is the first x where scipy's Q(a, x)
    # is at most 2^-56, and gammainc is exactly 1.0 from there on: at 256
    # ulp steps and a fine step above it, over six decades and at inf.  It
    # stays below a + 14 sqrt(a) + 45, the edge past which P(a, x) is 1 in
    # double, so the skip acts on the kernel's nodes.  _g passes NaN on.
    ulps, fine, decades = np.arange(256.0), 1.0 + 1e-5 * np.arange(1000.0), np.geomspace(1, 1e6)
    for a in 0.5 * np.arange(1.0, 2048.0):
        x = bounds._saturation(float(a))
        assert gammaincc(a, x) <= 2.0**-56 < gammaincc(a, np.nextafter(x, 0.0)), a
        assert x <= a + 14.0 * math.sqrt(a) + 45.0, a
        past = np.concatenate([x + ulps * np.spacing(x), x * fine, x * decades, [math.inf]])
        assert np.all(gammainc(a, past) == 1.0), a
    eng = Plan(random_ensemble_spectrum(12, 0.5)).at(ChannelPoint.from_eb_n0_db(4.0, 0.5))
    got = eng._g(4.5, np.array([math.nan, 1.0, 1e6, -1.0]))
    assert np.isnan(got[0]) and np.array_equal(got[1:], gammainc(4.5, [1.0, 1e6, 0.0]))


@given(
    code=st.sampled_from(["hamming", "golay", "ens12"]),
    db=st.sampled_from([0.0, 2.0, 4.0, 6.0, 8.0]),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_saturated_masses_are_the_kernel_bit_for_bit(code, db, data, hamming_spec, golay_spec):
    # _g writes 1.0 past the saturation point without calling gammainc:
    # pair, exact-line and bracket kernels equal, row by row and bit for
    # bit, the kernels with the point at inf, where gammainc runs at every
    # node.
    spec, rate = {"hamming": (hamming_spec, R_HAMMING), "golay": (golay_spec, 12 / 23),
                  "ens12": (random_ensemble_spectrum(12, 0.5), 0.5)}[code]
    plan, n = Plan(spec), spec.n
    eng = plan.at(ChannelPoint.from_eb_n0_db(db, rate))
    cone = st.sampled_from(sorted(plan.geom_included))
    h, w = data.draw(cone, label="h"), data.draw(cone, label="w")
    own = rho_ww(w, n) if h == w else rho_max_wh(w, h, n)
    rho = data.draw(st.one_of(st.just(own), st.floats(-1.0, 1.0, exclude_min=True,
                                                      exclude_max=True)), label="rho")
    steps = data.draw(st.lists(st.integers(-40, int(4 * math.sqrt(n) / eng.sigma)),
                               min_size=1, max_size=8), label="z1 steps")
    z1 = np.minimum(np.array(steps) * 0.25 * eng.sigma, math.sqrt(n) * (1.0 - 1e-12))
    beta_ref = beta_h(z1, w, plan.geo)

    def kernels():
        return [eng._triple_given_z1(z1, h), eng._triple_given_z1(z1, h, beta_ref, rho),
                eng._triple_given_z1(z1, h, beta_ref, rho, bracket=True)]

    skipped = kernels()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(bounds, "_saturation", lambda a: math.inf)
        full = kernels()
    for got, want in zip(skipped, full):
        assert np.array_equal(got, want)


@given(
    n=st.integers(4, 32),
    rate=st.sampled_from([0.25, 0.5, 0.75, 0.9]),
    db=st.sampled_from([0.0, 4.0, 8.0]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_vacuous_keys_are_the_pair_kernel_bit_for_bit(n, rate, db, data):
    # Plan.key names a conditioned term by its pair term only where the
    # kernel with the line is the pair kernel bit for bit in every z1 row
    # and runs the z3 rule at no node.  rho within 1e-12 of -1 (the
    # crossover's neighbourhood) always resolves; a line through a point
    # (beta_h, +-s) of the disk's edge, a crossing at beta_h to rounding, is
    # borderline and stays integrated.  The rho drawn near it sit a few
    # ulps to either side; steep lines (rho near 1) can pass above s at
    # beta_h and still cut the disk further on.
    plan = Plan(random_ensemble_spectrum(n, rate))
    assume(plan.geom_included)
    eng = plan.at(ChannelPoint.from_eb_n0_db(db, rate))
    cone = st.sampled_from(sorted(plan.geom_included))
    h, w = data.draw(cone, label="h"), data.draw(cone, label="w")
    b, b_ref, rz = delta_slope(h, n), delta_slope(w, n), plan.geo.r / math.sqrt(n)
    s_h = math.sqrt(rz * rz - b * b)
    edge = [math.cos(sign * math.atan2(s_h, b) + turn * math.acos(b_ref / rz))
            for sign in (1, -1) for turn in (1, -1)]
    near = st.tuples(st.sampled_from(edge), st.integers(-4, 4)).map(
        lambda e: float(np.clip(e[0] + e[1] * np.spacing(e[0]), np.nextafter(-1.0, 0.0),
                                np.nextafter(1.0, 0.0))))
    own = rho_ww(w, n) if h == w else rho_max_wh(w, h, n)
    rho = data.draw(st.one_of(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True), near,
                              st.just(own), st.floats(np.nextafter(-1.0, 0.0), -1.0 + 1e-12),
                              st.floats(0.9, 1.0, exclude_max=True)), label="rho")
    key = plan.key(h, w, rho)
    if rho <= -1.0 + 1e-12:
        assert key == ("pair", h)
    through = [abs(rho * b + z3 * math.sqrt(1.0 - rho * rho) - b_ref) for z3 in (s_h, -s_h)]
    if min(through) <= 1e-12 * rz:
        assert key[0] == "triple"
    if key[0] == "triple":
        return
    steps = data.draw(st.lists(st.integers(-40, int(4 * math.sqrt(n) / eng.sigma)),
                               min_size=1, max_size=8), label="z1 steps")
    z1 = np.minimum(np.array(steps) * 0.25 * eng.sigma, math.sqrt(n) * (1.0 - 1e-12))
    dofs, g = [], bounds._Engine._g

    def spy(self, a, x):
        dofs.append(a)
        return g(self, a, x)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(bounds._Engine, "_g", spy)
        with_line = eng._triple_given_z1(z1, h, beta_h(z1, w, plan.geo), rho)
    assert np.array_equal(with_line, eng._triple_given_z1(z1, h))
    assert 0.5 * (n - 3) not in dofs


def test_no_zero_weight_z2_nodes(golay_spec, monkeypatch):
    # Every z2 segment the kernel builds, all of a call's in one build, has
    # positive width in every z1 row, in term runs and bracket runs alike:
    # a Golay row at 4 dB (tsb, itsb, ahp, psi on one cache) and the n=12
    # ensemble at 4 dB (each bound on its own cache).  Building the
    # zero-width segments too would add zero weights: 319,320 and 528,120
    # of them when the totals were 666,720 and 1,257,480, before layers
    # were pruned on coarse estimates of the term runs (390,240 and 795,240
    # before the bracket rung).  The Golay total was 378,720 before
    # vacuous conditioned terms were keyed as their pair terms and
    # prune-only anchors left at their first level; the n=12 total was
    # 875,880 before psi started at its predicted layer.  The totals were
    # 247,680 and 782,280 before the orthant rung, and 193,680 and 663,480
    # before psi's walk and the search shared one pruning test.
    nodes, kernel = bounds._Engine._panel_nodes, bounds._Engine._triple_given_z1
    weights, bracketed = [], []

    def nodes_spy(self, edges, ksub):
        z, w = nodes(self, edges, ksub)
        weights.append(w)
        bracketed.append(mode[-1])
        return z, w

    mode = [False]

    def kernel_spy(self, *args, bracket=False):
        mode.append(bracket)
        try:
            return kernel(self, *args, bracket=bracket)
        finally:
            mode.pop()

    monkeypatch.setattr(bounds._Engine, "_panel_nodes", nodes_spy)
    monkeypatch.setattr(bounds._Engine, "_triple_given_z1", kernel_spy)
    ch = ChannelPoint.from_eb_n0_db(4.0, 12 / 23)
    terms = Plan(golay_spec).at(ch)
    for bound in (tsb_block, itsb, ahp, psi):
        bound(golay_spec, ch, terms=terms)
    golay = list(zip(weights, bracketed))
    weights.clear()
    bracketed.clear()
    spec = random_ensemble_spectrum(12, 0.5)
    for bound in (tsb_block, itsb, ahp, psi):
        bound(spec, ChannelPoint.from_eb_n0_db(4.0, 0.5))
    for found, total in ((golay, 185_760), (list(zip(weights, bracketed)), 654_840)):
        assert sum(w.size for w, _ in found) == total
        assert any(b for _, b in found)
        assert all(np.all(w > 0.0) for w, _ in found)


def test_vacuous_conditioned_terms_cost_their_pair_nodes(golay_spec, monkeypatch):
    # Out-of-cone ahp layer and itsb term on Golay at 4 dB: the line clears
    # the disk everywhere, so under its own key the kernel evaluates only
    # the half-disk mass, at exactly the nodes of the pair term, and the z3
    # rule at no node; the term is the pair term bit for bit.  The plan
    # keys it as the pair term, so once tsb has run it costs no node.
    # The pins count the masses requested through _Engine._g; gammainc
    # evaluates those below the saturation point.
    n = golay_spec.n
    ch = ChannelPoint.from_eb_n0_db(4.0, 12 / 23)
    eng = Plan(golay_spec).at(ch)
    seen, evaluated = [], [0]
    g = bounds._Engine._g

    def g_spy(self, a, x):
        seen.append((a, np.size(x)))
        return g(self, a, x)

    def spy(a, x):
        evaluated[0] += np.size(x)
        return gammainc(a, x)

    monkeypatch.setattr(bounds._Engine, "_g", g_spy)
    monkeypatch.setattr(bounds, "gammainc", spy)

    def nodes(term):
        seen.clear()
        evaluated[0] = 0
        term()
        assert sum(m for a, m in seen if a == 0.5 * (n - 3)) == 0
        return sum(m for a, m in seen if a == 0.5 * (n - 2))

    tsb_nodes = nodes(lambda: tsb_block(golay_spec, ch, terms=eng))
    assert nodes(lambda: eng.pair_term(8)) == 0
    for w, rho in ((14, rho_max_wh(14, 8, n)), (7, rho_min_h(8, 7, n))):
        assert nodes(lambda: eng.term(("triple", 8, w, rho))) == 9000
        assert evaluated[0] == 8358
        own, cached = eng.term(("triple", 8, w, rho)), eng.pair_term(8)
        assert (own.log_value, own.log_error, own.converged) == (
            cached.log_value, cached.log_error, cached.converged)
        assert eng.plan.key(8, w, rho) == ("pair", 8)
        assert nodes(lambda: eng.term(eng.plan.key(8, w, rho))) == 0
    assert tsb_nodes > 9000


def test_itsb_crossover_term_is_the_cached_pair_term(monkeypatch):
    # At h = n - d the anchor correlation reaches -1 and the z3 line is at
    # infinity; from h = 3 at n = 6 and h = 4 at n = 7 on, the line already
    # clears the disk section.  Each such conditioned term is pair_term(h)
    # itself: on the n=6 and n=7 ensembles at 4 dB, itsb after tsb on one
    # cache integrates only the conditioned terms whose line cuts (1 and 2
    # of them, not 3 and 4), and the others are the cached pair terms, which
    # the terms integrated under their own keys equal bit for bit.
    labels = []
    orig = bounds._Engine._outer

    def spy(self, key):
        term = orig(self, key)
        labels.append(term.label)
        return term

    monkeypatch.setattr(bounds._Engine, "_outer", spy)
    for n, cut in ((6, 3), (7, 4)):
        spec = random_ensemble_spectrum(n, 0.5)
        d = spec.d_min
        ch = ChannelPoint.from_eb_n0_db(4.0, 0.5)
        terms = Plan(spec).at(ch)
        tsb_block(spec, ch, terms=terms)
        labels.clear()
        itsb(spec, ch, terms=terms)
        assert labels == [f"conditioned(h={h}, ref={d})" for h in range(d, cut)], n
        labels.clear()
        assert rho_min_h(n - d, d, n) == -1.0
        for h in range(cut, n - d + 1):
            rho = rho_min_h(h, d, n)
            assert terms.plan.key(h, d, rho) == ("pair", h)
            assert terms.term(terms.plan.key(h, d, rho)) is terms.pair_term(h)
            assert not labels
            if rho > -1.0:  # at rho = -1 there is no line to integrate under
                own, cached = terms.term(("triple", h, d, rho)), terms.pair_term(h)
                assert (own.log_value, own.log_error, own.converged) == (
                    cached.log_value, cached.log_error, cached.converged)
            labels.clear()

"""Finite-length bound suite: cone-radius equation, TSB/ITSB/AHP/psi
orderings, Monte-Carlo validity, and the conditioned kernel against
independent quadrature and 3-D Monte-Carlo oracles."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc, logsumexp

from closed_forms import rho_bounds
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
from tsbounds.codes import (
    DistanceSpectrum,
    GeneratorMatrix,
    Iowef,
    bit_weight_transform,
    enumerate_spectrum,
    random_ensemble_spectrum,
)
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


def assemble_layer(spec, ch, w: int, extend: bool = True, eng=None):
    """Layer w of ahp (extend) or of psi alone, assembled as the layer
    search assembles it, on eng or on a fresh cache."""
    eng = eng if eng is not None else Plan(spec).at(ch)
    weighted, terms = bounds._layer_terms(eng, spec, w, extend)
    return eng.assemble(weighted, terms, include_q=extend, ahp_layer=w)


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
        forced = eng.triple_term(h, d, 0.0).log_value
        default = eng.triple_term(h, d, rho_min_h(h, d, spec.n)).log_value
        assert forced <= default + 1e-9, h
        strict += forced < default
    assert strict >= 1


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
    top = spec.n if extend else spec.n - 1
    best = None
    for w in range(1, top + 1):
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
    assert replace(res, layers_assembled=None, layers_pruned=None, layer_in_cone=None) == want
    top = spec.n if extend else spec.n - 1
    assert res.layers_assembled >= 1
    assert res.layers_assembled + res.layers_pruned == top
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


def test_layer_search_matches_exhaustive_on_ensembles():
    for n in (6, 8, 10, 12, 14, 16):
        spec = random_ensemble_spectrum(n, 0.5)
        ch = ChannelPoint.from_eb_n0_db(4.0, 0.5)
        terms = Plan(spec).at(ch)
        for bound in (ahp, psi):
            _check_layer_search(bound, spec, ch, terms)


def test_layer_search_integrates_fewer_terms(monkeypatch):
    # ahp then psi on one cache of the n=12 ensemble at 4 dB: 57 outer
    # integrals when every layer is assembled, fewer with pruning (psi then
    # integrates terms of layers ahp pruned).  The out-of-cone layers 8..11
    # are the plain pair terms of layer n and integrate nothing new.
    labels = []
    orig = bounds._Engine._outer

    def spy(self, inner, tail_log_bound, label):
        labels.append(label)
        return orig(self, inner, tail_log_bound, label)

    monkeypatch.setattr(bounds._Engine, "_outer", spy)
    spec = random_ensemble_spectrum(12, 0.5)
    ch = ChannelPoint.from_eb_n0_db(4.0, 0.5)
    terms = Plan(spec).at(ch)
    _exhaustive_best_layer(terms, spec, True)
    _exhaustive_best_layer(terms, spec, False)
    exhaustive = len(labels)
    labels.clear()
    terms = Plan(spec).at(ch)
    ahp(spec, ch, terms=terms)
    psi(spec, ch, terms=terms)
    assert exhaustive == 57
    assert len(labels) <= 0.85 * exhaustive


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
        self_term = eng.triple_term(w, w, rho_ww(w, n)).scaled(math.log(math.comb(n, w)))
        terms.append(self_term)
    for h in eng.plan.included:
        if h != w:
            t = eng.triple_term(h, w, rho_max_wh(w, h, n)).scaled(float(spec.log_a[h]))
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
    # formula bit for bit.  ahp and psi never condition on an outside layer.
    spec, rate = {
        "hamming": (hamming_spec, R_HAMMING),
        "golay": (golay_spec, 12 / 23),
        "ens12": (random_ensemble_spectrum(12, 0.5), 0.5),
    }[code]
    refs = []
    orig = bounds._Engine.triple_term

    def spy(self, h, w_ref, rho):
        refs.append(w_ref)
        return orig(self, h, w_ref, rho)

    outside = 0
    for db in (2.0, 4.0, 6.0):
        ch = ChannelPoint.from_eb_n0_db(db, rate)
        eng = Plan(spec).at(ch)
        with monkeypatch.context() as m:
            m.setattr(bounds._Engine, "triple_term", spy)
            ahp(spec, ch, terms=eng)
            psi(spec, ch, terms=eng)
        assert refs and set(refs) <= eng.plan.geom_included
        for extend in (True, False):
            for w in range(1, spec.n + 1 if extend else spec.n):
                got = bounds._layer_terms(eng, spec, w, extend)
                want = _parent_layer_terms(eng, spec, w, extend)
                if w in eng.plan.geom_included:
                    assert list(got[0].items()) == list(want[0].items()), (db, w)
                    assert got[1] == want[1], (db, w)
                    continue
                outside += w != spec.n
                a = eng.assemble(*got, include_q=extend)
                b = eng.assemble(*want, include_q=extend)
                assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate, (db, w)
    assert outside > 0  # layers outside the cone besides layer n


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


def _dense_triple_given_z1(eng, z1, h, beta_ref, rho):
    """The conditioned kernel with gammainc at every node of the three z2
    segments, masked afterwards: the reference for the engine's kernel,
    which evaluates it only where the value is used."""
    if rho <= -1.0 + 1e-12:
        return eng._pair_given_z1(z1, h)
    rz, a, span = eng._z2_range(z1, h)
    if span <= 0.0:
        return np.zeros_like(rz)
    disc = (1.0 - rho * rho) * (rz**2 - beta_ref**2)
    root = np.sqrt(np.maximum(disc, 0.0))
    c_lo = np.clip(beta_ref * rho - root, a, rz)
    c_hi = np.clip(beta_ref * rho + root, a, rz)
    c_lo = np.where(disc >= 0.0, c_lo, a)
    c_hi = np.where(disc >= 0.0, c_hi, a)
    ksub = eng._ksub(span)
    segs = [
        eng._panel_nodes(a, c_lo, ksub),
        eng._panel_nodes(c_lo, c_hi, ksub),
        eng._panel_nodes(c_hi, rz, ksub),
    ]
    z2 = np.concatenate([s[0] for s in segs], axis=1)
    w2 = np.concatenate([s[1] for s in segs], axis=1)
    gl_x, gl_w = np.polynomial.legendre.leggauss(24)

    two_ss = 2.0 * eng.ch.sigma_sq
    s_sq = np.maximum(rz[:, None] ** 2 - z2**2, 0.0)
    s = np.sqrt(s_sq)
    line = l_line(z2, beta_ref[:, None], rho)
    half_disk = 0.5 * eng._g(0.5 * (eng.n - 2), s_sq / two_ss)
    u = np.minimum(np.abs(line), s)
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
    rz = plan.geo.r_z1(z1)
    assert n - 1 not in plan.geom_included
    d, top = plan.included[0], max(plan.geom_included)
    cases = [
        # the bounds' own wedges: itsb, an in-cone and an out-of-cone ahp
        # layer, and the extension self-term
        (h, beta_h(z1, d, plan.geo), rho_min_h(h, d, n)) for h in plan.included
    ] + [
        (d, beta_h(z1, top, plan.geo), rho_max_wh(top, d, n)),
        (d, beta_h(z1, n - 1, plan.geo), rho_max_wh(n - 1, d, n)),
        (top, beta_h(z1, top, plan.geo), rho_ww(top, n)),
        # rho = -1 dispatches to the pair kernel
        (d, beta_h(z1, d, plan.geo), -1.0),
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
        nonzero += bool(np.any(want > 0.0))
    assert 0 < nonzero < len(cases)


def test_vacuous_conditioned_terms_cost_their_pair_nodes(golay_spec, monkeypatch):
    # Out-of-cone ahp layer and itsb term on Golay at 4 dB: the line clears
    # the disk everywhere, so the kernel evaluates only the half-disk mass,
    # at exactly the nodes of the pair term, and the z3 rule at no node.
    n = golay_spec.n
    eng = Plan(golay_spec).at(ChannelPoint.from_eb_n0_db(4.0, 12 / 23))
    seen = []

    def spy(a, x):
        seen.append((a, np.size(x)))
        return gammainc(a, x)

    monkeypatch.setattr(bounds, "gammainc", spy)

    def nodes(term):
        seen.clear()
        term()
        assert sum(m for a, m in seen if a == 0.5 * (n - 3)) == 0
        return sum(m for a, m in seen if a == 0.5 * (n - 2))

    pair = nodes(lambda: eng.pair_term(8))
    assert pair == 9000
    assert nodes(lambda: eng.triple_term(8, 14, rho_max_wh(14, 8, n))) == pair
    assert nodes(lambda: eng.triple_term(8, 7, rho_min_h(8, 7, n))) == pair

"""Acceptance gate: thirteen package-level criteria, one printed PASS/FAIL
line each (run with `pytest tests/test_acceptance.py -v -s` to see the lines
as they complete).

The criteria pin the package's claims end to end: the finite-length bounds
sit above a large Monte-Carlo ML simulation (its estimate minus three sigma,
and the exact lower confidence limit), the conditioned bounds never
exceed the plain one, the envelope sits below both conditioned bounds, the
exponential assemblies share one asymptotic exponent, the multiplier
degeneracy and kernel monotonicity hold over randomized parameters, the cone
radius equation is solved exactly and channel-independently, the exponent
curves order correctly with a rate-growing gap, the numeric kernels match
arbitrary-precision oracles, the bit-error variant is sandwiched, the
integrated TSB's finite-length exponent falls to the closed-form exponent
from above while the Chernoff assembly's rises to it from below, and the
bounds sit above, and tsb close to, the exact ML error of the codes that
have one."""

import math
import warnings

import numpy as np
import pytest
from mpmath import mp
from scipy.special import gammainc, gammaincc, logsumexp

from closed_forms import (_g1, _g2, _tau_star, _xi_star, log_kernel, repetition,
                          repetition_error, rho_bounds, rm1, rm1_error, simplex,
                          simplex_error, verify_kstar_zero)
from tsbounds.bounds import (
    ChannelPoint,
    Plan,
    ahp,
    itsb,
    psi,
    solve_cone_radius,
    tsb_block,
)
from tsbounds.codes import GrowthRate, enumerate_spectrum, random_ensemble_spectrum
from tsbounds.exponents import (
    chernoff_psi,
    chernoff_tsb,
    finite_n_exponent,
    gallager_rce,
    tsb_exponent,
    union_exponent,
)
from tsbounds.geometry import ConeGeometry, alpha_theta, delta_slope
from tsbounds.mcsim import simulate_ml
from tsbounds.numerics import (
    Tolerance,
    adaptive_integrate,
    sin_power_integral,
    wallis,
)

NEG_INF = -math.inf
DB_GRID = (0.0, 2.0, 4.0, 6.0, 8.0)
MC_TRIALS = 1_000_000
MC_SEED = 20240831
# Criterion 13's ceiling on tsb / exact ML error, fixed before the criterion
# first ran: the largest ratio measured on these families is 1.1116
# (simplex (63,6) at 0 dB).
TSB_EXACT_CEILING = 1.12

mp.dps = 30


def report(num: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {status}: {label}")
    assert not failures, f"criterion {num} ({label}): " + "; ".join(failures[:8])


# ---------------------------------------------------------------------------
# shared sweeps
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def finite_grid(hamming74, golay2312, hamming_spec, golay_spec):
    """All four bounds plus a one-million-trial ML simulation for both
    reference codes at every grid SNR.  The bounds share one plan per code
    and one term cache per SNR, as the bounds CLI does."""
    out = {}
    for name, g, spec in [
        ("hamming", hamming74, hamming_spec),
        ("golay", golay2312, golay_spec),
    ]:
        plan = Plan(spec)
        for db in DB_GRID:
            ch = ChannelPoint.from_eb_n0_db(db, g.rate)
            terms = plan.at(ch)
            out[name, db] = {
                "tsb": tsb_block(spec, ch, terms=terms),
                "itsb": itsb(spec, ch, terms=terms),
                "ahp": ahp(spec, ch, terms=terms),
                "psi": psi(spec, ch, terms=terms),
                "mc": simulate_ml(g, ch, trials=MC_TRIALS, seed=MC_SEED, threads=4),
            }
    return out


@pytest.fixture(scope="module")
def coincidence_rows():
    """Finite-length exponents of both exponential assemblies over block
    lengths, per (rate, channel) point, plus the closed-form limit."""
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for rate, cs in [
            (0.5, (0.6, 0.7, 0.8, 0.9, 1.0)),
            (0.9, (2.4, 2.6, 2.8, 3.0, 3.2)),
        ]:
            gr = GrowthRate.from_spectrum(random_ensemble_spectrum(64, rate))
            for c in cs:
                limit = tsb_exponent(gr, c).exponent
                per_n = {}
                for n in (64, 128, 256, 512):
                    spec = random_ensemble_spectrum(n, rate)
                    per_n[n] = (
                        finite_n_exponent(chernoff_tsb(n, c, spec), n),
                        finite_n_exponent(chernoff_psi(n, c, spec), n),
                    )
                rows.append((rate, c, limit, per_n))
    return rows


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_bounds_dominate_simulation(finite_grid):
    failures = []
    for (name, db), data in finite_grid.items():
        est = data["mc"]
        floor = est.block_error_rate - 3.0 * est.std_error
        for bound in ("tsb", "itsb", "ahp"):
            if data[bound].value < floor:
                failures.append(
                    f"{name} {db} dB: {bound}={data[bound].value:.3e} < "
                    f"mc-3se={floor:.3e}"
                )
    report(1, "TSB/ITSB/AHP above Monte-Carlo ML minus three sigma", failures)


def test_criterion_02_conditioning_never_hurts(finite_grid):
    failures = []
    for (name, db), data in finite_grid.items():
        t, i = data["tsb"], data["itsb"]
        slack = t.value * 1e-9 + t.error_estimate + i.error_estimate
        if i.value > t.value + slack:
            failures.append(f"{name} {db} dB: itsb {i.value:.6e} > tsb {t.value:.6e}")
    report(2, "ITSB at most TSB everywhere on the grid", failures)


def test_criterion_03_envelope_sandwich(finite_grid):
    failures = []
    for (name, db), data in finite_grid.items():
        p = data["psi"]
        for upper in ("itsb", "ahp"):
            u = data[upper]
            slack = u.value * 1e-9 + u.error_estimate + p.error_estimate
            if p.value > u.value + slack:
                failures.append(
                    f"{name} {db} dB: psi {p.value:.6e} > {upper} {u.value:.6e}"
                )
    report(3, "envelope below both conditioned bounds", failures)


def test_criterion_04_exponent_coincidence(coincidence_rows):
    failures = []
    for rate, c, limit, per_n in coincidence_rows:
        if limit <= 0.0:
            failures.append(f"R={rate} c={c}: limit exponent {limit:.4f} <= 0")
            continue
        diffs = [abs(per_n[n][1] - per_n[n][0]) for n in (64, 128, 256, 512)]
        for a, b in zip(diffs, diffs[1:]):
            if b > a + 1e-12:
                failures.append(f"R={rate} c={c}: assembly gap grew {a:.2e}->{b:.2e}")
        if diffs[-1] >= 0.01:
            failures.append(f"R={rate} c={c}: gap at n=512 is {diffs[-1]:.4f}")
        for n, (ft, fp) in per_n.items():
            if abs(ft - limit) >= 0.02 or abs(fp - limit) >= 0.02:
                failures.append(
                    f"R={rate} c={c} n={n}: exponents ({ft:.4f},{fp:.4f}) "
                    f"not within 0.02 of limit {limit:.4f}"
                )
    report(4, "both assemblies converge to the closed-form exponent", failures)


def test_criterion_05_multiplier_face_degeneracy():
    failures = []
    rng = np.random.default_rng(5)
    spec = random_ensemble_spectrum(48, 0.5)
    shapes = ["below"] * 33 + ["equal"] * 33 + ["above"] * 34
    for shape in shapes:
        c = float(rng.uniform(0.2, 3.0))
        eta = float(np.exp(rng.uniform(-2.0, 2.0)))
        t = -float(rng.uniform(0.05, 0.95)) * 0.5 / eta
        if shape == "equal":
            w = int(rng.integers(1, 48))
            h = w
        elif shape == "below":  # conditioned weight below the reference
            h = int(rng.integers(1, 47))
            w = int(rng.integers(h + 1, 48))
        else:
            h = int(rng.integers(2, 48))
            w = int(rng.integers(1, h))
        k_star, _, _ = verify_kstar_zero(c, eta, w, h, 48, spec, t=t)
        if k_star > 1e-6:
            failures.append(f"k*={k_star:.2e} at w={w} h={h} c={c:.2f} eta={eta:.2f}")
    # closed-form stationary points kill the finite-difference gradients
    eps = 1e-6
    for _ in range(100):
        c = float(rng.uniform(0.2, 3.0))
        eta = float(np.exp(rng.uniform(-2.0, 2.0)))
        t = -float(rng.uniform(0.05, 0.95)) * 0.5 / eta
        w = int(rng.integers(1, 48))
        xi = _xi_star(c, t, eta, w, 48)
        tau = _tau_star(xi, w, 48)
        g_tau = (_g1(c, t, xi, tau + eps, eta, w, 48)
                 - _g1(c, t, xi, tau - eps, eta, w, 48)) / (2 * eps)
        g_xi = (_g2(c, t, xi + eps, eta, w, 48)
                - _g2(c, t, xi - eps, eta, w, 48)) / (2 * eps)
        if abs(g_tau) > 1e-6 or abs(g_xi) > 1e-6:
            failures.append(f"gradients ({g_tau:.2e},{g_xi:.2e}) at w={w} c={c:.2f}")
    report(5, "maximizer sits on the k = 0 face; stationary points exact", failures)


def test_criterion_06_kernel_monotone_in_correlation():
    failures = []
    rng = np.random.default_rng(6)
    done = 0
    attempts = 0
    while done < 20 and attempts < 400:
        attempts += 1
        n = int(rng.integers(8, 33))
        h = int(rng.integers(1, n))
        w = int(rng.integers(1, n))
        z1 = float(rng.uniform(-1.0, 0.8 * math.sqrt(n)))
        db = float(rng.uniform(0.0, 8.0))
        try:
            r_star = solve_cone_radius(random_ensemble_spectrum(n, 0.5))
        except ValueError:
            continue
        geo = ConeGeometry(n, r_star)
        ch = ChannelPoint.from_eb_n0_db(db, 0.5)
        lo, hi = rho_bounds(w, h, n)
        grid = np.linspace(max(lo, -0.95), hi - 1e-9, 7)
        beta_ref = (math.sqrt(n) - z1) * delta_slope(w, n)
        logs = [log_kernel(h, beta_ref, float(rho), geo, ch, z1) for rho in grid]
        if any(lv == NEG_INF for lv in logs):
            continue  # weight excluded at this z1; resample
        done += 1
        vals = [math.exp(lv) for lv in logs]
        for j in range(len(grid) - 1):
            slope = (vals[j + 1] - vals[j]) / (grid[j + 1] - grid[j])
            if slope > 1e-10:
                failures.append(
                    f"n={n} h={h} w={w} z1={z1:.2f} {db:.1f} dB: slope {slope:.2e}"
                )
    if done < 20:
        failures.append(f"only {done} admissible tuples found in {attempts} attempts")
    report(6, "conditioned kernel nonincreasing in the correlation", failures)


def _radius_residual(spec, r: float) -> float:
    """Log-domain residual of the radius equation, independent assembly."""
    geo = ConeGeometry(spec.n, r)
    terms = []
    for h in range(1, spec.n):
        if spec.log_a[h] == NEG_INF:
            continue
        _, theta = alpha_theta(h, geo)
        if theta is not None and theta > 0.0:
            terms.append(
                float(spec.log_a[h]) + sin_power_integral(spec.n - 3, theta)
            )
    if not terms:
        return NEG_INF
    return float(logsumexp(terms)) - (math.log(2.0) + wallis(spec.n - 3))


def test_criterion_07_cone_radius_equation(hamming_spec, golay_spec, finite_grid):
    failures = []
    for name, spec in [("hamming", hamming_spec), ("golay", golay_spec)]:
        r_star = solve_cone_radius(spec)
        resid = _radius_residual(spec, r_star)
        if abs(resid) >= 1e-10:
            failures.append(f"{name}: residual {resid:.2e} at r*={r_star:.6f}")
        # channel independence: every grid evaluation used the same radius
        radii = {finite_grid[name, db]["tsb"].cone_radius for db in DB_GRID}
        if radii != {r_star}:
            failures.append(f"{name}: radius varied with the channel: {radii}")
        # numeric uniqueness evidence: exactly one sign change on a dense scan
        grid = np.linspace(0.05 * math.sqrt(spec.n), 4.0 * math.sqrt(spec.n), 10_000)
        signs = [_radius_residual(spec, float(r)) > 0.0 for r in grid]
        flips = [i for i in range(1, len(signs)) if signs[i] != signs[i - 1]]
        if len(flips) != 1:
            failures.append(f"{name}: {len(flips)} sign changes on the radius scan")
        elif not grid[flips[0] - 1] <= r_star <= grid[flips[0]]:
            failures.append(f"{name}: root {r_star:.6f} outside the flip interval")
    report(7, "radius equation: tiny residual, channel-free, single root", failures)


def test_criterion_08_exponent_ordering_and_rate_gap():
    failures = []
    max_gap = {}
    for rate, grid in [(0.5, np.linspace(0.45, 0.85, 9)), (0.9, np.linspace(0.28, 0.40, 9))]:
        gr = GrowthRate.from_spectrum(random_ensemble_spectrum(64, rate))
        gaps = []
        for inv in grid:
            c = rate / float(inv)
            e_ub = union_exponent(gr, c).exponent
            e_tsb = tsb_exponent(gr, c).exponent
            e_rce = gallager_rce(rate, c)
            if e_ub > e_tsb + 1e-6:
                failures.append(f"R={rate} inv={inv:.2f}: e_ub {e_ub:.6f} > e_tsb {e_tsb:.6f}")
            if e_tsb > e_rce + 1e-6:
                failures.append(f"R={rate} inv={inv:.2f}: e_tsb {e_tsb:.6f} > e_rce {e_rce:.6f}")
            gaps.append(e_rce - e_tsb)
        max_gap[rate] = max(gaps)
    if not max_gap[0.9] > max_gap[0.5]:
        failures.append(
            f"random-coding gap did not grow with rate: "
            f"{max_gap[0.9]:.6f} <= {max_gap[0.5]:.6f}"
        )
    report(8, "exponent curves ordered; random-coding gap grows with rate", failures)


def test_criterion_09_numeric_kernel_oracles():
    failures = []
    rng = np.random.default_rng(9)
    for _ in range(500):
        a = float(rng.uniform(0.5, 60.0))
        x = float(rng.uniform(1e-6, 4.0 * a))
        # the bounds' chi-square masses: scipy's lower and upper kernels
        for name, mine, oracle in (
            ("P", float(gammainc(a, x)), float(mp.gammainc(a, 0, x, regularized=True))),
            ("Q", float(gammaincc(a, x)), float(mp.gammainc(a, x, mp.inf, regularized=True))),
        ):
            if abs(mine - oracle) > 1e-10 * max(abs(oracle), 1e-300):
                failures.append(f"gamma {name}({a:.3f},{x:.3f}): {mine!r} vs {oracle!r}")
    for i in range(500):
        m = int(rng.integers(0, 62))
        theta = float(rng.uniform(0.3, math.pi / 2.0))
        mine = math.exp(sin_power_integral(m, theta))
        # beta-function oracle; direct tanh-sinh quadrature at dps 30 can
        # itself be off ~1e-10 on the sin^m boundary layer, so it is used
        # only as a high-precision spot check of the oracle
        x = mp.sin(mp.mpf(theta)) ** 2
        oracle = float(mp.betainc((m + 1) / mp.mpf(2), mp.mpf(1) / 2, 0, x) / 2)
        if abs(mine - oracle) > 1e-10 * abs(oracle):
            failures.append(f"sin^{m} to {theta:.3f}: {mine!r} vs {oracle!r}")
        if i % 20 == 0:
            mp.dps = 50
            quad_oracle = float(mp.quad(lambda t: mp.sin(t) ** m, [0, theta]))
            mp.dps = 30
            if abs(oracle - quad_oracle) > 1e-13 * abs(quad_oracle):
                failures.append(
                    f"oracle cross-check sin^{m} to {theta:.3f}: "
                    f"{oracle!r} vs {quad_oracle!r}"
                )
    # the three noise-conditioning chi-square densities integrate to one;
    # substituting y = u^2 removes the integrable endpoint singularity
    sigma_sq = 0.6
    tol = Tolerance(abs_tol=1e-13, rel_tol=1e-12, max_iter=300)
    for n in range(4, 65):
        for k in (n - 1, n - 2, n - 3):
            log_norm = 0.5 * k * math.log(2.0 * sigma_sq) + math.lgamma(0.5 * k)

            def integrand(u, k=k, log_norm=log_norm):
                u = np.asarray(u)
                out = np.zeros_like(u, dtype=float)
                pos = u > 0.0
                up = u[pos]
                out[pos] = 2.0 * np.exp(
                    (k - 1.0) * np.log(up) - up * up / (2.0 * sigma_sq) - log_norm
                )
                return out

            hi = math.sqrt(sigma_sq * (k + 45.0 * math.sqrt(2.0 * k) + 120.0))
            quad = adaptive_integrate(integrand, 0.0, hi, tol)
            if not quad.converged or abs(quad.value - 1.0) > 1e-9:
                failures.append(f"chi-square dof {k} (n={n}): mass {quad.value!r}")
    report(9, "gamma/sin-power kernels match mpmath; densities normalized", failures)


def test_criterion_10_bit_error_sandwich(hamming_spec, hamming_bit_spec, finite_grid):
    failures = []
    for db in DB_GRID:
        ch = ChannelPoint.from_eb_n0_db(db, 4 / 7)
        bit = tsb_block(hamming_bit_spec, ch)
        block = finite_grid["hamming", db]["tsb"]
        if bit.value > block.value * (1 + 1e-12):
            failures.append(f"{db} dB: bit {bit.value:.6e} > block {block.value:.6e}")
    k = 4
    for h in range(1, hamming_spec.n + 1):
        a_h = math.exp(float(hamming_spec.log_a[h]))
        a_bit = math.exp(float(hamming_bit_spec.log_a[h]))
        if a_h == 0.0:
            if a_bit != 0.0:
                failures.append(f"h={h}: reweighted count {a_bit} for empty weight")
            continue
        if not a_h / k * (1 - 1e-12) <= a_bit <= a_h * (1 + 1e-12):
            failures.append(f"h={h}: A'={a_bit:.6f} outside [{a_h / k:.6f}, {a_h:.6f}]")
    report(10, "bit-error bound below block bound; reweighting bracketed", failures)


def test_criterion_11_integrated_tsb_exponent():
    # The paper's theorem on the integrated bound: -ln(tsb)/n falls strictly
    # toward the closed-form exponent from above, while the Chernoff
    # assembly's exponent rises strictly toward it from below, so the
    # bracket narrows with n.
    failures = []
    for rate, c in ((0.5, 0.8), (0.5, 1.0), (0.9, 2.8)):
        gr = GrowthRate.from_spectrum(random_ensemble_spectrum(64, rate))
        limit = tsb_exponent(gr, c).exponent
        ch = ChannelPoint(c=c, rate=rate)
        upper, lower = [], []
        for n in (64, 128, 256, 512):
            spec = random_ensemble_spectrum(n, rate)
            res = tsb_block(spec, ch)
            if not res.converged:
                failures.append(f"R={rate} c={c} n={n}: tsb did not converge")
            upper.append(finite_n_exponent(res.log_value, n))
            lower.append(finite_n_exponent(chernoff_tsb(n, c, spec), n))
        where = f"R={rate} c={c}"
        if not all(b < a for a, b in zip(upper, upper[1:])):
            failures.append(f"{where}: tsb exponents not decreasing {upper}")
        if not all(b > a for a, b in zip(lower, lower[1:])):
            failures.append(f"{where}: chernoff exponents not increasing {lower}")
        if not lower[-1] < limit < upper[-1]:
            failures.append(
                f"{where}: limit {limit:.4f} outside [{lower[-1]:.4f}, {upper[-1]:.4f}]"
            )
    report(11, "integrated TSB exponent falls to the limit, Chernoff rises to it", failures)


def test_criterion_12_bounds_above_exact_lower_limit(finite_grid):
    # Criterion 1's floor p - 3se is 0 or below once errors are rare; the
    # Clopper-Pearson lower limit stays positive while any trial errs.
    failures = []
    for (name, db), data in finite_grid.items():
        lower, _ = data["mc"].block_error_ci()
        for bound in ("tsb", "itsb", "ahp"):
            if data[bound].value < lower:
                failures.append(
                    f"{name} {db} dB: {bound}={data[bound].value:.3e} < cp-lower={lower:.3e}"
                )
    report(12, "TSB/ITSB/AHP above the exact lower confidence limit of ML", failures)


def test_criterion_13_bounds_above_exact_ml_error():
    # Simplex, first-order Reed-Muller and repetition codes have an exact ML
    # block error, so the bounds are checked at every SNR, where simulation
    # resolves nothing.  At 10 dB tsb is within ~2e-4 relative of the truth,
    # far above its error budget, so a dropped or halved term shows.
    grid = (0.0, 3.0, 6.0, 10.0)
    cases = [(f"simplex({m})", simplex(m), lambda c, m=m: simplex_error(m, c), db)
             for m in (3, 4, 5) for db in grid]
    cases += [(f"rm1({m})", rm1(m), lambda c, m=m: rm1_error(m, c), db)
              for m in (3, 4, 5) for db in grid]
    cases += [("rm1(6)", rm1(6), lambda c: rm1_error(6, c), 3.0)]
    cases += [(f"repetition({n})", repetition(n), lambda c, n=n: repetition_error(n, c), db)
              for n in (3, 8) for db in grid]
    failures, psi_ratios = [], []
    for label, g, exact_fn, db in cases:
        spec, _ = enumerate_spectrum(g)
        ch = ChannelPoint.from_eb_n0_db(db, g.rate)
        exact = exact_fn(ch.c)
        cache = Plan(spec).at(ch)
        for name, bound in (("tsb", tsb_block), ("itsb", itsb), ("ahp", ahp)):
            value = bound(spec, ch, terms=cache).value
            if not value >= exact:
                failures.append(f"{label} {db} dB: {name}={value:.6e} < exact={exact:.6e}")
            if name == "tsb" and value > TSB_EXACT_CEILING * exact:
                failures.append(f"{label} {db} dB: tsb/exact={value / exact:.4f} "
                                f"> {TSB_EXACT_CEILING}")
        psi_ratios.append(psi(spec, ch, terms=cache).value / exact)
    print(f"[criterion 13] psi/exact over {len(cases)} points: "
          f"{min(psi_ratios):.4g} .. {max(psi_ratios):.4g} (not asserted)")
    report(13, "TSB/ITSB/AHP above the exact ML error; tsb within "
           f"{TSB_EXACT_CEILING} of it", failures)


def test_shared_terms_match_separate_calls(hamming74, golay2312, hamming_spec, golay_spec,
                                           finite_grid):
    # The grid's bounds share one plan and one term cache per SNR; called on
    # its own, each bound returns the same BoundResult in every field, bit
    # for bit.
    for name, g, spec in [("hamming", hamming74, hamming_spec), ("golay", golay2312, golay_spec)]:
        for db in (2.0, 4.0):
            ch = ChannelPoint.from_eb_n0_db(db, g.rate)
            for key, bound in (("tsb", tsb_block), ("itsb", itsb), ("ahp", ahp), ("psi", psi)):
                assert bound(spec, ch) == finite_grid[name, db][key], (name, db, key)

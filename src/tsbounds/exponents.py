"""Asymptotic exponents and exponential versions of the cone bounds.

The machinery in bounds.py integrates exact conditional densities; here the
same events are bounded through moment generating functions instead, which
collapses every term to a closed-form exponent at the price of constant-factor
looseness.  The payoff is the asymptotic picture: a closed-form common error
exponent E(c) shared by the block bounds, plus the union-bound and
random-coding comparators.

Conventions: c = Es/N0, delta = h/n is a normalized Hamming weight, Delta^2 =
delta/(1-delta), r(delta) = ln(A_{delta n})/n is the spectrum growth rate, and
eta = tan^2(theta) > 0 parameterizes the cone half-angle.  Exponents are in
nats per channel symbol; "log" values are natural logs of probabilities.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .codes import DistanceSpectrum, GrowthRate
# adaptive_integrate is imported for benchmarks/layertrace.py, which counts
# the integrals this module runs by hooking this name; it runs none.
from .numerics import Tolerance, adaptive_integrate, gk15_rule, minimize_1d  # noqa: F401

__all__ = [
    "ExponentResult",
    "chernoff_tsb",
    "chernoff_psi",
    "tsb_exponent",
    "union_exponent",
    "gallager_rce",
    "finite_n_exponent",
]

_LN2 = math.log(2.0)
# Slope parameter search box (in ln eta) and the relative margin kept between
# any tilt and the poles of its admissible interval.
_ETA_LOG_LO, _ETA_LOG_HI = -6.0, 6.0
_TILT_EDGE = 1.0 - 1e-9
_GALLAGER_TOL = Tolerance(abs_tol=1e-13, rel_tol=1e-11)


@dataclass(frozen=True)
class ExponentResult:
    """Outcome of an asymptotic exponent minimization over the normalized
    weight.

    exponent is in nats per channel symbol.  delta_star is the minimizing
    normalized weight, gamma_star and c0_star the tilt and threshold
    parameters of the closed form evaluated there; gamma_star is +inf on the
    zero-growth boundary, where the threshold c0 collapses to 0 and the
    zero-tilt branch is exact.
    """

    exponent: float
    delta_star: float
    gamma_star: float
    c0_star: float

    def __post_init__(self) -> None:
        if not 0.0 < self.delta_star <= 1.0:
            raise ValueError(
                f"delta_star must lie in (0,1], got {self.delta_star}"
            )

    @property
    def vacuous(self) -> bool:
        """True when the minimized objective is negative, i.e. the bound
        certifies no exponential decay at this channel parameter."""
        return self.exponent < 0.0


# ---------------------------------------------------------------------------
# Elementary exponent functions
# ---------------------------------------------------------------------------


def _check_channel(c: float) -> None:
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"channel parameter must be positive and finite, got c={c}")


def _moment_exponent(c, q, dsq, eta):
    """Exponent of the moment bound on one pair event at tilt q in
    [-1/(2 eta), 0], the linear multiplier at its stationary value:

        c (2 q eta + (1-2q) dsq) / (1 + 2 q eta + (1-2q) dsq) + ln(1-2q) / 2,

    dsq = Delta^2.  dsq = 0 with q in [0, 1/2) is the exponent of the
    outside-the-cone event.  Elementwise over arrays; no input checks."""
    denom = 1.0 + 2.0 * q * eta + (1.0 - 2.0 * q) * dsq
    return c * (1.0 - 1.0 / denom) + 0.5 * np.log1p(-2.0 * q)


# ---------------------------------------------------------------------------
# Finite-n exponential assemblies
# ---------------------------------------------------------------------------


def _tilt_slope(q, n, c, u, eta, with_dg: bool = True):
    """g = p f'(q) and dg/dq (g alone without with_dg), elementwise, for the
    per-weight tilt objective f(q) = ln sqrt((1-2q)/p) - n E(q),
    p = 1 + 2 q eta, E the moment exponent at Delta^2 = (1-u)/u with
    u = 1 - h/n (finite at h = n).  f is strictly convex on its box: with
    D = 1 + 2 q eta + (1-2q) Delta^2 > 0,
    f'' = 2(n-1)/(1-2q)^2 + 2 eta^2/p^2 + 8 n c (eta - Delta^2)^2/D^3 > 0,
    so its minimum is a box end or the one root of f'.  The factor p > 0
    keeps the sign of f' and clears its pole at q = -1/(2 eta) for Newton."""
    p, r = 1.0 + 2.0 * q * eta, 1.0 - 2.0 * q
    k = u * (eta + 1.0) - 1.0
    e = r + 2.0 * q * u * (eta + 1.0)  # u D
    w = 2.0 * n * c * u * k
    g = (n - 1) * p / r - eta - w * p / e**2
    if not with_dg:
        return g
    dg = 2.0 * (n - 1) * (eta + 1.0) / r**2 - 2.0 * w * (eta * e - 2.0 * p * k) / e**3
    return g, dg


def _term_slopes(q, n, c, u, eta):
    """d term_h / d ln eta at the solved tilts q, elementwise.  By the
    envelope theorem this is eta times the partial of the tilt objective in
    eta at fixed q, -q/p - 2 n c q/D^2 (with 1/D = u/(u D), 0 at h = n): the
    tilt minimizes the objective at an interior root of f' or at a box end
    that does not move with eta (0 or 1/2 for the cap, 0 for h >= 1; f' < 0
    at the moving end -1/(2 eta), so the minimum is never there)."""
    p = 1.0 + 2.0 * q * eta
    e = 1.0 - 2.0 * q + 2.0 * q * u * (eta + 1.0)  # u D
    return -eta * q * (1.0 / p + 2.0 * n * c * (u / e) ** 2)


_TILTS = threading.local()


def _tilt_rows(n: int, c: float, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tilts and minima terms of _solve_tilts(n, c, eta), rows of n+1 per
    slope in the 1-D array eta, as new arrays.  Rows are kept per thread for
    the latest (n, c) only, and the slopes not yet kept are solved in one
    batch: chernoff_tsb and chernoff_psi at one (n, c) search the same
    slopes, and a slope's derivative needs the tilts of its value."""
    if getattr(_TILTS, "nc", None) != (n, c):
        _TILTS.nc, _TILTS.by_eta = (n, c), {}
    kept, keys = _TILTS.by_eta, eta.tolist()
    missing = [e for e in dict.fromkeys(keys) if e not in kept]
    if missing:
        kept.update(zip(missing, np.stack(_solve_tilts(n, c, np.array(missing)), axis=1)))
    rows = np.array([kept[e] for e in keys])
    return rows[:, 0], rows[:, 1]


def _tilt_seed(n, c, u, eta):
    """The root of the cubic C(q) = g r e^2 of _solve_tilts that the tilt
    box can hold, elementwise and in closed form.

    For k != 0, C has three real roots (its signs at the poles of p, r and e
    show it): two lie at or below -1/(2 eta) where k > 0 (the cap included),
    and two above 1/2 where k < 0 (a double root at 1/2 for h = n).  So the box
    can hold only the largest root where k > 0 and the smallest where k < 0,
    and the trigonometric form gives either one.  At k = 0, C is linear with
    root -alpha, alpha = (n-1-eta)/(2 n eta).  Divided by a3 = 8 n eta k^2,
    with v = 1/k, C's q^2, q and 1 coefficients are alpha + (1 + c u) v,
    v (alpha - c u (eta-1)/(2 eta) + v/4) and v (alpha v - c u/eta)/4.
    Rounding grows like 1/|k| near k = 0; the Newton steps absorb it."""
    k = u * (eta + 1.0) - 1.0
    cu = c * u
    alpha = (n - 1.0 - eta) / (2.0 * n * eta)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the depressed cubic t^3 + P t + Q in t = q + s
        v = 1.0 / k
        s = (alpha + (1.0 + cu) * v) / 3.0
        b1 = v * (alpha - cu * ((eta - 1.0) / (2.0 * eta)) + 0.25 * v)
        b0 = 0.25 * v * (alpha * v - cu / eta)
        ss = s * s
        big_p = b1 - 3.0 * ss
        big_q = s * (2.0 * ss - b1) + b0
        # roots m cos(phi - 2 pi j/3): j = 0 the largest, j = 2 the smallest;
        # the clip absorbs rounding at the double root
        m = np.sqrt(-4.0 / 3.0 * big_p)
        phi = np.arccos(np.clip(3.0 * big_q / (big_p * m), -1.0, 1.0)) / 3.0
        t = m * np.cos(phi + (2.0 * np.pi / 3.0) * (k < 0.0))
    return np.where(k == 0.0, -alpha, t - s)


def _solve_tilts(n: int, c: float, eta) -> tuple[np.ndarray, np.ndarray]:
    """Per-weight tilts q[..., h] and minima terms[..., h] = min over q of
    ln sqrt((1-2q)/(1+2q eta)) - n E: the cap at h = 0 (Delta^2 = 0, tilt in
    [0, 1/2)), the weight-h pair term for h >= 1 (tilt in [-1/(2 eta), 0];
    Delta^2 = +inf at h = n).  eta is one slope (rows of n+1) or a 1-D array
    of m slopes ((m, n+1) arrays).

    Exact: the box end where f' keeps one sign (g at the two ends, one
    pass), else the root of f'.  With p = 1 + 2 eta q, r = 1 - 2q,
    k = u (eta + 1) - 1 and e = 1 + 2 k q (_tilt_slope's e and w = 2 n c u k),
    g r e^2 = C(q) = (n-1) p e^2 - eta r e^2 - w p r, a cubic with
    a3 = 8 n eta k^2, and r e^2 > 0 on the box, so the root is C's one root
    there (_tilt_seed, in closed form).  Newton steps on _tilt_slope, kept
    inside the sign bracket (else bisecting it), confirm it to 1e-12 of the
    box; a seed that is not finite or leaves the box starts them at the
    midpoint.  A row stops stepping once all its tilts settle, so each row
    is what solving its slope alone gives."""
    eta = np.asarray(eta, dtype=float)[..., None]
    hs = np.arange(n + 1)
    lo = np.where(hs == 0, 0.0, -0.5 / eta * _TILT_EDGE)
    hi = np.where(hs == 0, 0.5 * _TILT_EDGE, 0.0)
    u = 1.0 - hs / n
    g_lo, g_hi = _tilt_slope(np.stack(np.broadcast_arrays(lo, hi)), n, c, u, eta, with_dg=False)
    # a = b = the box end holding the minimum where f' keeps one sign
    inside = (g_lo <= 0.0) & (g_hi > 0.0)
    a = np.where(g_hi <= 0.0, hi, lo)
    b = np.where(inside, hi, a)
    seed = _tilt_seed(n, c, u, eta)
    x = np.where(inside & (lo <= seed) & (seed <= hi), seed, 0.5 * (a + b))
    settled = np.zeros(eta.shape[:-1], dtype=bool)
    for _ in range(60):  # each step at worst halves the bracket
        g, dg = _tilt_slope(x, n, c, u, eta)
        a, b = np.where(g < 0.0, x, a), np.where(g > 0.0, x, b)
        step = x - np.divide(g, dg, out=np.full_like(x, np.inf), where=dg != 0.0)
        nxt = np.where((a <= step) & (step <= b), step, 0.5 * (a + b))
        done = np.all(np.abs(nxt - x) <= 1e-12 * (hi - lo), axis=-1)
        x = np.where(settled[..., None], x, nxt)
        settled = settled | done
        if np.all(settled):
            break
    dsq = np.where(hs < n, hs / np.maximum(n - hs, 1), np.inf)
    pref = 0.5 * (np.log1p(-2.0 * x) - np.log1p(2.0 * x * eta))
    return x, pref - n * _moment_exponent(c, x, dsq, eta)


def _chernoff_log_total(
    n: int, c: float, spec: DistanceSpectrum, eta: np.ndarray, layered: bool = False,
    with_slope: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Log of the assembled exponential bound at each slope of the 1-D array
    eta, and its derivative in ln eta (None without with_slope, so that
    value-only reads skip the term slopes): cap term plus the
    spectrum pair terms, plus (for the layered variant) the cheapest unit
    reference pair term over the layers w = 1..n-1.  The derivative weighs
    each term's _term_slopes by its share of the sum, and the layered one
    mixes the cheapest layer's slope in by its logaddexp weight."""
    q, terms = _tilt_rows(n, c, eta)
    log_a = np.asarray(spec.log_a, dtype=float)
    ws = np.nonzero(np.isfinite(log_a[1:]))[0] + 1
    parts = np.concatenate([log_a[ws] + terms[:, ws], terms[:, :1]], axis=1)
    top = parts.max(axis=1)  # finite: every term is
    shares = np.exp(parts - top[:, None])
    whole = shares.sum(axis=1)
    base = np.log(whole) + top
    if with_slope:
        slopes = _term_slopes(q, n, c, 1.0 - np.arange(n + 1) / n, eta[:, None])
        dbase = (shares * slopes[:, np.append(ws, 0)]).sum(axis=1) / whole
    if not layered:
        return base, dbase if with_slope else None
    rows = np.arange(eta.size)
    mixed = np.logaddexp(base[:, None], terms[:, 1:n])
    w = np.argmin(mixed, axis=1) + 1
    total = mixed[rows, w - 1]
    if not with_slope:
        return total, None
    # The layer's logaddexp weight.  One under 1e-12 moves the minimum's
    # value by a second-order amount, far below rounding, and is left out:
    # where the layer is that small, chernoff_psi's search then takes
    # chernoff_tsb's steps (slopes solved once) and ends no lower.
    share = np.exp(terms[rows, w] - total)
    share[share < 1e-12] = 0.0
    return total, dbase + share * (slopes[rows, w] - dbase)


def _check_assembly_args(n: int, c: float, spec: DistanceSpectrum) -> None:
    if spec.n != n:
        raise ValueError(f"spectrum is for n={spec.n}, not n={n}")
    _check_channel(c)
    if not np.isfinite(np.asarray(spec.log_a)[1:]).any():
        raise ValueError("spectrum has no nonzero weights to bound")


def _optimize_eta(n: int, c: float, spec: DistanceSpectrum, layered: bool, cell: str) -> float:
    """Minimize the log assembly over ln eta in the slope box, given its
    slope there; a clipped optimum warns, naming the cell (bound, n and c)."""

    def total(x: np.ndarray) -> np.ndarray:
        return _chernoff_log_total(n, c, spec, np.exp(x), layered, False)[0]

    x, val = minimize_1d(
        total, _ETA_LOG_LO, _ETA_LOG_HI, grid_points=33,
        slope=lambda x: _chernoff_log_total(n, c, spec, np.exp(x), layered)[1],
    )
    if min(x - _ETA_LOG_LO, _ETA_LOG_HI - x) < 0.1:
        # Pinning at the box edge is routine at low SNR (the assembly
        # flattens into the union of pairwise terms); only a still-steep
        # descent at the edge signals a meaningfully clipped optimum.
        edge = _ETA_LOG_LO if x - _ETA_LOG_LO < _ETA_LOG_HI - x else _ETA_LOG_HI
        inward = edge + 0.5 if edge == _ETA_LOG_LO else edge - 0.5
        at_edge, inside = total(np.array([edge, inward]))
        if inside - at_edge > 1e-3:
            warnings.warn(
                f"{cell}: slope-parameter search pinned at the box edge while "
                "still descending; the bound is valid but loose",
                RuntimeWarning,
                stacklevel=3,
            )
    return val


def chernoff_tsb(n: int, c: float, spec: DistanceSpectrum) -> float:
    """Log of the exponential block bound: the outside-the-cone term plus one
    optimized pair term per spectrum weight, minimized over the cone slope.

    Looser than tsb_block at any finite n but with identical asymptotics;
    each term's tilt is optimized separately and exactly, prefactors
    included, and the slope is searched over ln eta in [-6, 6].
    """
    _check_assembly_args(n, c, spec)
    return _optimize_eta(n, c, spec, False, f"chernoff_tsb(n={n}, c={c:.17g})")


def chernoff_psi(n: int, c: float, spec: DistanceSpectrum) -> float:
    """Log of the exponential envelope bound: chernoff_tsb's terms plus a
    unit-coefficient reference pair term, minimized over the reference layer
    w in {1, ..., n-1} and the cone slope.

    The conditioned terms are evaluated on the k = 0 face of their multiplier
    box: the unconstrained stationary point always has k < 0 (acceptance
    criterion 5 checks it), and on that face the stationary linear
    multiplier collapses each conditioned exponent to the matching pair
    exponent, so the spectrum terms and their exact tilts are shared with
    chernoff_tsb.
    """
    _check_assembly_args(n, c, spec)
    if n < 2:
        raise ValueError(f"need n >= 2 for a reference layer, got n={n}")
    return _optimize_eta(n, c, spec, True, f"chernoff_psi(n={n}, c={c:.17g})")


# ---------------------------------------------------------------------------
# Asymptotic closed forms
# ---------------------------------------------------------------------------


def _closed_form(c: float, delta, r):
    """Per-delta objective of the common-exponent closed form, with its
    (gamma, c0) diagnostics, elementwise over arrays.  Requires r >= 0.

    The interior saddle value applies while gamma stays in [0, 1]; outside
    that window the zero-tilt boundary value c delta - r is the true per-delta
    exponent (the two branches meet at gamma = 1).  Evaluation goes through
    x = gamma Delta^2, which stays finite as delta -> 1.  At delta = 1 (the
    antipodal limit) the objective is c, with gamma = c0 = 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        c0 = (1.0 - np.exp(-2.0 * r)) * (1.0 - delta) / (2.0 * delta)
        x = np.sqrt(c / c0 + (1.0 + c) ** 2 - 1.0) - (1.0 + c)
        gamma = x * (1.0 - delta) / delta  # +inf at zero growth: the boundary
        inner = 0.5 * np.log1p(-2.0 * c0 * x) + c * x / (1.0 + x)
    obj = np.where((gamma >= 0.0) & (gamma <= 1.0), inner, c * delta - r)
    at_one = delta >= 1.0
    return np.where(at_one, c, obj), np.where(at_one, 0.0, gamma), c0


def _minimize_exponent(rate_fn: GrowthRate, c: float, per_delta) -> ExponentResult:
    """Minimize per_delta(delta, r), elementwise over arrays, over the
    admissible normalized weights {delta in (0, 1] : r(delta) >= 0}; every
    other weight scores +inf.  Finite code spectra are scanned at their
    exact weights h/n; analytic growth rates on a 4,096-point grid, then
    minimize_1d refines around its minimum on the neighboring grid
    interval.  Ties resolve to the smallest delta.  The result carries the
    closed form's (gamma, c0) at the minimizing delta."""
    _check_channel(c)
    code = rate_fn.kind == "code" and rate_fn.n
    m = rate_fn.n if code else 4096

    def objective(ds: np.ndarray) -> np.ndarray:
        rs = np.broadcast_to(np.asarray(rate_fn(ds), dtype=float), ds.shape)
        adm = rs >= 0.0
        vals = np.full(ds.shape, np.inf)
        vals[adm] = per_delta(ds[adm], rs[adm])
        return vals

    ds = np.arange(1, m + 1) / m
    vals = objective(ds)
    i = int(np.argmin(vals))
    if vals[i] == np.inf:
        why = "every weight has a negative log count" if code else (
            "the growth rate is negative everywhere on (0, 1]")
        raise ValueError(f"no admissible normalized weight: {why}")
    if code:
        d, v = float(ds[i]), float(vals[i])
    else:
        d, v = minimize_1d(
            objective, float(ds[max(i - 1, 0)]), float(ds[min(i + 1, m - 1)]),
            grid_points=17,
        )
    _, gamma, c0 = _closed_form(c, d, rate_fn(d))
    return ExponentResult(v, d, float(gamma), float(c0))


def tsb_exponent(rate_fn: GrowthRate, c: float) -> ExponentResult:
    """Common asymptotic error exponent of the cone bounds for an ensemble
    with growth rate r(delta), in nats per channel symbol.

    Minimizes the closed-form objective over the admissible weights; the
    result carries the minimizing delta and the (gamma, c0) parameters there.
    A negative exponent is reported as-is and flagged vacuous.
    """
    return _minimize_exponent(rate_fn, c, lambda dd, rr: _closed_form(c, dd, rr)[0])


def union_exponent(rate_fn: GrowthRate, c: float) -> ExponentResult:
    """Union-bound exponent min over admissible delta of {c delta - r(delta)},
    the exponential decay certified by summing pairwise error bounds.

    Reported with the same (gamma, c0) diagnostics as tsb_exponent so the two
    results line up (they describe the closed form at delta_star, not the
    union objective)."""
    return _minimize_exponent(rate_fn, c, lambda dd, rr: c * dd - rr)


def _gallager_e0(rho: float, c: float, d_plus, d_minus, kron, gauss) -> tuple[float, float]:
    """E0(rho) and dE0/drho at c on gk15_rule's half-line nodes, given by
    their squared distances d_plus, d_minus to the signal points +-a.  With
    g+- = exp(-d+- / (2 s)), m = (g+ + g-)/2 and s = 1 + rho, the integrands
    are m^s and d(m^s)/drho = m^s [ln m + (g+ d+ + g- d-) / (2 s (g+ + g-))],
    both taken through ln m so that an underflowed m never meets its
    logarithm.  Raises RuntimeError naming rho and c where the Kronrod-Gauss
    error estimate of the integral of m^s misses _GALLAGER_TOL."""
    s = 1.0 + rho
    l_plus, l_minus = -0.5 * d_plus / s, -0.5 * d_minus / s
    log_g = np.logaddexp(l_plus, l_minus)
    log_m = log_g - _LN2
    f = np.exp(s * log_m)
    mean_d = np.exp(l_plus - log_g) * d_plus + np.exp(l_minus - log_g) * d_minus
    total = float((f @ kron).sum())
    error = float(np.abs(f @ (kron - gauss)).sum())
    if not error <= max(_GALLAGER_TOL.abs_tol, _GALLAGER_TOL.rel_tol * total):
        raise RuntimeError(
            f"gallager_rce: E0 quadrature at rho={rho!r}, c={c!r} missed "
            f"its tolerance (error estimate {error:.3g})"
        )
    d_total = float((f * (log_m + mean_d / (2.0 * s)) @ kron).sum())
    # the (2 pi)^{-1/(2(1+rho))} normalization of each tilted density
    # reassembles to exactly (2 pi)^{-1/2} after the outer power
    return 0.5 * math.log(2.0 * math.pi) - math.log(2.0 * total), -d_total / total


def gallager_rce(rate: float, c: float) -> float:
    """Random-coding error exponent of the binary-input AWGN channel, in nats
    per channel symbol: max over rho in [0, 1] of E0(rho) - rho * rate * ln 2.

    E0 and dE0/drho come from one fixed composite Gauss-Kronrod 15 rule over
    the (1+rho)-power of the tilted two-mass output density and its rho
    derivative, truncated twelve standard deviations past the signal points,
    with panels no wider than one standard deviation.  The integrand is even
    in the output (negating u swaps the two exponentials), so it is
    integrated over the positive half and doubled.  The maximizing rho is the
    root of the objective's slope (minimize_1d's slope search), and each rho
    is evaluated once for both value and slope.  E0(0) = 0 is exact, so a
    rate above capacity gives exactly 0.  An E0 integral that misses
    _GALLAGER_TOL raises RuntimeError naming rho and c (see _gallager_e0)."""
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate must lie in (0,1), got {rate}")
    _check_channel(c)
    a = math.sqrt(2.0 * c)
    u, kron, gauss = gk15_rule(0.0, a + 12.0, math.ceil(a + 12.0))
    rule = ((u - a) ** 2, (u + a) ** 2, kron, gauss)
    memo: dict[float, tuple[float, float]] = {}

    def e0(rho: float) -> tuple[float, float]:
        if rho not in memo:
            memo[rho] = _gallager_e0(rho, c, *rule)
        return memo[rho]

    def objective(rhos: np.ndarray) -> np.ndarray:
        # E0(0) = 0 exactly; its quadrature gives rounding noise
        return np.array([rho * rate * _LN2 - e0(rho)[0] if rho else 0.0
                         for rho in rhos.tolist()])

    def slope(rhos: np.ndarray) -> np.ndarray:
        return np.array([rate * _LN2 - e0(rho)[1] for rho in rhos.tolist()])

    # E0 is concave in rho (Gallager, IEEE Trans. IT, 1965), so the
    # objective is convex: its minimum lies next to the least grid point.
    _, neg = minimize_1d(objective, 0.0, 1.0, grid_points=3, slope=slope)
    return 0.0 - neg  # +0.0 where rho* = 0


def finite_n_exponent(log_bound: float, n: int) -> float:
    """Normalized exponent -ln(bound)/n of a finite-n log-domain bound."""
    if not math.isfinite(log_bound):
        raise ValueError(f"log bound must be finite, got {log_bound}")
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    return -log_bound / n

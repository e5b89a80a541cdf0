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
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize as _box_minimize
from scipy.special import logsumexp

from .codes import DistanceSpectrum, GrowthRate
from .geometry import rho_max_wh, rho_ww, zeta_wh
from .numerics import Tolerance, adaptive_integrate, minimize_1d

__all__ = [
    "ExponentResult",
    "e1",
    "e2",
    "g_fn",
    "verify_kstar_zero",
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
_GALLAGER_TOL = Tolerance(abs_tol=1e-13, rel_tol=1e-11, max_iter=200)


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


def _moment_exponent(c, q, dsq, eta):
    """e2's moment-bound exponent at tilt q with Delta^2 = dsq; dsq = 0 with
    q >= 0 is e1.  Elementwise over arrays; no input checks."""
    denom = 1.0 + 2.0 * q * eta + (1.0 - 2.0 * q) * dsq
    return c * (1.0 - 1.0 / denom) + 0.5 * np.log1p(-2.0 * q)


def e1(c: float, p: float, eta: float) -> float:
    """Exponent of the moment bound on the outside-the-cone event:
    2 p eta c / (1 + 2 p eta) + ln(1 - 2p) / 2."""
    if c <= 0.0:
        raise ValueError(f"channel parameter must be positive, got c={c}")
    if not 0.0 <= p < 0.5:
        raise ValueError(f"p must lie in [0, 1/2), got {p}")
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    return float(_moment_exponent(c, p, 0.0, eta))


def e2(c: float, q: float, delta: float, eta: float) -> float:
    """Exponent of the moment bound on one pair event at normalized weight
    delta, with the linear multiplier already at its stationary value:

        c * (2 q eta + (1-2q) Delta^2) / (1 + 2 q eta + (1-2q) Delta^2)
          + ln(1 - 2q) / 2,    Delta^2 = delta / (1 - delta).
    """
    if c <= 0.0:
        raise ValueError(f"channel parameter must be positive, got c={c}")
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    if not -0.5 / eta <= q <= 0.0:
        raise ValueError(f"q={q} outside [-1/(2 eta), 0] for eta={eta}")
    return float(_moment_exponent(c, q, delta / (1.0 - delta), eta))


def g_fn(
    c: float,
    t: float,
    k: float,
    s: float,
    eta: float,
    w: int,
    h: int,
    n: int,
    spec: DistanceSpectrum,
) -> float:
    """Unnormalized exponent (n times nats) of the moment bound on one
    conditioned spectrum term: the noise stays inside the cone section, its
    second coordinate exits past the weight-h threshold, and its third
    coordinate violates the half-plane cut tied to the reference weight w.

    The count A_h enters as -ln A_h; a weight carrying no words returns +inf
    (the term is absent).  The tilt box is -1/(2 eta) < t <= 0, k >= 0,
    s >= 0.
    """
    if spec.n != n:
        raise ValueError(f"spectrum is for n={spec.n}, not n={n}")
    if c <= 0.0:
        raise ValueError(f"channel parameter must be positive, got c={c}")
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not -0.5 / eta < t <= 0.0:
        raise ValueError(f"t={t} outside (-1/(2 eta), 0] for eta={eta}")
    if k < 0.0 or s < 0.0:
        raise ValueError(f"multipliers must be nonnegative, got k={k}, s={s}")
    rho = rho_ww(w, n) if h == w else rho_max_wh(w, h, n)
    zeta = 1.0 if h == w else zeta_wh(w, h, n)
    log_count = float(spec.log_a[h])
    if not math.isfinite(log_count):
        return math.inf
    root = math.sqrt(1.0 - rho * rho)
    xi = s - k * zeta / root
    tau = s - k * rho / root
    dh = math.sqrt(h / (n - h))
    a1 = 1.0 + 2.0 * t * eta
    b1 = 1.0 - 2.0 * t
    sq = math.sqrt(2.0 * n * c)
    quad = (4.0 * t * eta * n * c + 2.0 * sq * xi * dh - (dh * xi) ** 2) / (
        2.0 * a1
    )
    return (
        quad
        - tau * tau / (2.0 * b1)
        - k * k / (2.0 * b1)
        + 0.5 * n * math.log(b1)
        - log_count
    )


def _s_face(c: float, t: float, eta: float, h: int, n: int) -> float:
    """Stationary linear multiplier on the k = 0 face, where the conditioned
    exponent collapses to the pair exponent with the growth rate folded in."""
    dsq = h / (n - h)
    b1 = 1.0 - 2.0 * t
    a1 = 1.0 + 2.0 * t * eta
    return math.sqrt(2.0 * n * c * dsq) * b1 / (dsq * b1 + a1)


def verify_kstar_zero(
    c: float,
    eta: float,
    w: int,
    h: int,
    n: int,
    spec: DistanceSpectrum,
    t: float | None = None,
) -> tuple[float, float, float]:
    """Numerically maximize the conditioned-term exponent over the
    nonnegative multipliers (k, s) at a fixed tilt; returns (k*, s*, max g).

    The exponent is a concave quadratic whose unconstrained stationary point
    has k < 0 for every weight pair, so the constrained maximizer must land
    on the k = 0 face; this routine demonstrates that numerically instead of
    assuming it.  t defaults to -1/(4 eta), the midpoint of the admissible
    tilt range.
    """
    if t is None:
        t = -0.25 / eta
    if not (eta > 0.0 and -0.5 / eta < t < 0.5):
        raise ValueError(f"tilt {t} outside (-1/(2 eta), 1/2) for eta={eta}")
    if spec.n != n:
        raise ValueError(f"spectrum is for n={spec.n}, not n={n}")
    if not math.isfinite(float(spec.log_a[h])):
        raise ValueError(f"weight {h} carries no words; nothing to maximize")

    def neg_g(x: np.ndarray) -> float:
        return -g_fn(c, t, float(x[0]), float(x[1]), eta, w, h, n, spec)

    s0 = _s_face(c, t, eta, h, n)
    res = _box_minimize(
        neg_g,
        x0=np.array([1.0, s0 + 1.0]),
        bounds=[(0.0, None), (0.0, None)],
        method="L-BFGS-B",
    )
    if not res.success:
        raise RuntimeError(f"multiplier search did not converge: {res.message}")
    k_star, s_star, best = float(res.x[0]), float(res.x[1]), -float(res.fun)
    face = g_fn(c, t, 0.0, s0, eta, w, h, n, spec)
    if face > best:
        # polish with the exact face stationary point
        k_star, s_star, best = 0.0, s0, face
    return k_star, s_star, best


# ---------------------------------------------------------------------------
# Finite-n exponential assemblies
# ---------------------------------------------------------------------------


def _tilt_slope(q, n, c, u, eta):
    """g = p f'(q) and dg/dq, elementwise, for the per-weight tilt objective
    f(q) = ln sqrt((1-2q)/p) - n E(q), p = 1 + 2 q eta, E the moment exponent
    at Delta^2 = (1-u)/u with u = 1 - h/n (finite at h = n).  f is strictly
    convex on its box: with D = 1 + 2 q eta + (1-2q) Delta^2 > 0,
    f'' = 2(n-1)/(1-2q)^2 + 2 eta^2/p^2 + 8 n c (eta - Delta^2)^2/D^3 > 0,
    so its minimum is a box end or the one root of f'.  The factor p > 0
    keeps the sign of f' and clears its pole at q = -1/(2 eta) for Newton."""
    p, r = 1.0 + 2.0 * q * eta, 1.0 - 2.0 * q
    k = u * (eta + 1.0) - 1.0
    e = r + 2.0 * q * u * (eta + 1.0)  # u D
    w = 2.0 * n * c * u * k
    g = (n - 1) * p / r - eta - w * p / e**2
    dg = 2.0 * (n - 1) * (eta + 1.0) / r**2 - 2.0 * w * (eta * e - 2.0 * p * k) / e**3
    return g, dg


def _tilt_terms(n: int, c: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-weight tilts q[h] and minima terms[h] = min over q of
    ln sqrt((1-2q)/(1+2q eta)) - n E: the cap at h = 0 (Delta^2 = 0, tilt in
    [0, 1/2)), the weight-h pair term for h >= 1 (tilt in [-1/(2 eta), 0];
    Delta^2 = +inf at h = n).  Exact: the box end where f' keeps one sign,
    else the root of f' by Newton steps on _tilt_slope, kept inside the sign
    bracket [a, b] found by one pass over five tilts (else bisecting it)."""
    hs = np.arange(n + 1)
    lo = np.where(hs == 0, 0.0, -0.5 / eta * _TILT_EDGE)
    hi = np.where(hs == 0, 0.5 * _TILT_EDGE, 0.0)
    u = 1.0 - hs / n
    qs = lo + np.linspace(0.0, 1.0, 5)[:, None] * (hi - lo)
    gs, _ = _tilt_slope(qs, n, c, u, eta)
    # a = b = the box end holding the minimum where f' keeps one sign
    j = np.argmax(gs > 0.0, axis=0)
    a = np.where(gs[-1] > 0.0, np.choose(np.maximum(j - 1, 0), qs), hi)
    b = np.where(gs[-1] > 0.0, np.choose(j, qs), hi)
    x = 0.5 * (a + b)
    for _ in range(60):  # each step at worst halves the bracket
        g, dg = _tilt_slope(x, n, c, u, eta)
        a, b = np.where(g < 0.0, x, a), np.where(g > 0.0, x, b)
        step = x - np.divide(g, dg, out=np.full_like(x, np.inf), where=dg != 0.0)
        x, last = np.where((a <= step) & (step <= b), step, 0.5 * (a + b)), x
        if np.all(np.abs(x - last) <= 1e-12 * (hi - lo)):
            break
    dsq = np.where(hs < n, hs / np.maximum(n - hs, 1), np.inf)
    pref = 0.5 * (np.log1p(-2.0 * x) - np.log1p(2.0 * x * eta))
    return x, pref - n * _moment_exponent(c, x, dsq, eta)


def _chernoff_log_total(
    n: int, c: float, spec: DistanceSpectrum, eta: float, layered: bool = False
) -> float:
    """Log of the assembled exponential bound at one slope: cap term plus the
    spectrum pair terms, plus (for the layered variant) the cheapest unit
    reference pair term over the layers w = 1..n-1."""
    _, terms = _tilt_terms(n, c, eta)
    log_a = np.asarray(spec.log_a, dtype=float)
    ws = np.nonzero(np.isfinite(log_a[1:]))[0] + 1
    base = float(logsumexp(np.append(log_a[ws] + terms[ws], terms[0])))
    if not layered:
        return base
    return float(np.min(np.logaddexp(base, terms[1:n])))


def _check_assembly_args(n: int, c: float, spec: DistanceSpectrum) -> None:
    if spec.n != n:
        raise ValueError(f"spectrum is for n={spec.n}, not n={n}")
    if c <= 0.0:
        raise ValueError(f"channel parameter must be positive, got c={c}")
    if not np.isfinite(np.asarray(spec.log_a)[1:]).any():
        raise ValueError("spectrum has no nonzero weights to bound")


def _optimize_eta(total, cell: str) -> float:
    """Minimize total over ln eta in the slope box; a clipped optimum warns,
    naming the cell (bound, n and c)."""
    x, val = minimize_1d(total, _ETA_LOG_LO, _ETA_LOG_HI, grid_points=33)
    if min(x - _ETA_LOG_LO, _ETA_LOG_HI - x) < 0.1:
        # Pinning at the box edge is routine at low SNR (the assembly
        # flattens into the union of pairwise terms); only a still-steep
        # descent at the edge signals a meaningfully clipped optimum.
        edge = _ETA_LOG_LO if x - _ETA_LOG_LO < _ETA_LOG_HI - x else _ETA_LOG_HI
        inward = edge + 0.5 if edge == _ETA_LOG_LO else edge - 0.5
        if total(inward) - total(edge) > 1e-3:
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
    return _optimize_eta(
        lambda x: _chernoff_log_total(n, c, spec, math.exp(x)),
        f"chernoff_tsb(n={n}, c={c:.17g})",
    )


def chernoff_psi(n: int, c: float, spec: DistanceSpectrum) -> float:
    """Log of the exponential envelope bound: chernoff_tsb's terms plus a
    unit-coefficient reference pair term, minimized over the reference layer
    w in {1, ..., n-1} and the cone slope.

    The conditioned terms are evaluated on the k = 0 face of their multiplier
    box: the unconstrained stationary point always has k < 0 (see
    verify_kstar_zero), and on that face the stationary linear multiplier
    collapses each conditioned exponent to the matching pair exponent, so the
    spectrum terms and their exact tilts are shared with chernoff_tsb.
    """
    _check_assembly_args(n, c, spec)
    if n < 2:
        raise ValueError(f"need n >= 2 for a reference layer, got n={n}")
    return _optimize_eta(
        lambda x: _chernoff_log_total(n, c, spec, math.exp(x), layered=True),
        f"chernoff_psi(n={n}, c={c:.17g})",
    )


# ---------------------------------------------------------------------------
# Asymptotic closed forms
# ---------------------------------------------------------------------------


def _closed_form_pieces(
    c: float, delta: float, r: float
) -> tuple[float, float, float]:
    """Per-delta objective of the common-exponent closed form, with its
    (gamma, c0) diagnostics.  Requires r >= 0.

    The interior saddle value applies while gamma stays in [0, 1]; outside
    that window the zero-tilt boundary value c delta - r is the true per-delta
    exponent (the two branches meet at gamma = 1).  Evaluation goes through
    x = gamma Delta^2, which stays finite as delta -> 1.
    """
    if delta >= 1.0:
        # antipodal limit: gamma -> 0 and the objective -> c
        return c, 0.0, 0.0
    c0 = (1.0 - math.exp(-2.0 * r)) * (1.0 - delta) / (2.0 * delta)
    if c0 == 0.0:
        # zero growth: the interior tilt diverges; the boundary is exact
        return c * delta - r, math.inf, 0.0
    x = math.sqrt(c / c0 + (1.0 + c) ** 2 - 1.0) - (1.0 + c)
    gamma = x * (1.0 - delta) / delta
    if 0.0 <= gamma <= 1.0:
        obj = 0.5 * math.log1p(-2.0 * c0 * x) + c * x / (1.0 + x)
    else:
        obj = c * delta - r
    return obj, gamma, c0


def _minimize_exponent(rate_fn: GrowthRate, c: float, per_delta) -> ExponentResult:
    """Minimize per_delta(delta, r) over the admissible normalized weights
    {delta in (0, 1] : r(delta) >= 0}.  Finite code spectra are scanned at
    their exact weights; analytic growth rates get a dense grid plus a golden
    refinement around the seed.  Ties resolve to the smallest delta.  The
    result carries the closed form's (gamma, c0) at the minimizing delta."""
    if c <= 0.0:
        raise ValueError(f"channel parameter must be positive, got c={c}")
    if rate_fn.kind == "code" and rate_fn.n:
        best: tuple[float, float] | None = None
        for h in range(1, rate_fn.n + 1):
            d = h / rate_fn.n
            r = rate_fn(d)
            if r < 0.0:
                continue
            v = per_delta(d, r)
            if best is None or v < best[0]:
                best = (v, d)
        if best is None:
            raise ValueError(
                "no admissible normalized weight: every weight has a "
                "negative log count"
            )
        v, d = best
    else:
        m = 4096
        ds = np.linspace(0.0, 1.0, m + 1)[1:]
        rs = np.array([rate_fn(float(d)) for d in ds])
        adm = np.nonzero(rs >= 0.0)[0]
        if adm.size == 0:
            raise ValueError(
                "no admissible normalized weight: the growth rate is negative "
                "everywhere on (0, 1]"
            )
        vals = np.full(m, np.inf)
        for i in adm:
            vals[i] = per_delta(float(ds[i]), float(rs[i]))
        i = int(np.argmin(vals))

        def wrapped(d: float) -> float:
            r = rate_fn(d)
            return per_delta(d, r) if r >= 0.0 else math.inf

        d, v = minimize_1d(
            wrapped, float(ds[max(i - 1, 0)]), float(ds[min(i + 1, m - 1)]),
            grid_points=17,
        )
        if not v < vals[i]:
            d, v = float(ds[i]), float(vals[i])
    _, gamma, c0 = _closed_form_pieces(c, d, rate_fn(d))
    return ExponentResult(exponent=v, delta_star=d, gamma_star=gamma, c0_star=c0)


def tsb_exponent(rate_fn: GrowthRate, c: float) -> ExponentResult:
    """Common asymptotic error exponent of the cone bounds for an ensemble
    with growth rate r(delta), in nats per channel symbol.

    Minimizes the closed-form objective over the admissible weights; the
    result carries the minimizing delta and the (gamma, c0) parameters there.
    A negative exponent is reported as-is and flagged vacuous.
    """
    return _minimize_exponent(
        rate_fn, c, lambda dd, rr: _closed_form_pieces(c, dd, rr)[0]
    )


def union_exponent(rate_fn: GrowthRate, c: float) -> ExponentResult:
    """Union-bound exponent min over admissible delta of {c delta - r(delta)},
    the exponential decay certified by summing pairwise error bounds.

    Reported with the same (gamma, c0) diagnostics as tsb_exponent so the two
    results line up (they describe the closed form at delta_star, not the
    union objective)."""
    return _minimize_exponent(rate_fn, c, lambda dd, rr: c * dd - rr)


def gallager_rce(rate: float, c: float) -> float:
    """Random-coding error exponent of the binary-input AWGN channel, in nats
    per channel symbol: max over rho in [0, 1] of E0(rho) - rho * rate * ln 2.

    E0 comes from quadrature of the (1+rho)-power of the tilted two-mass
    output density, truncated twelve standard deviations past the signal
    points."""
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate must lie in (0,1), got {rate}")
    if c <= 0.0:
        raise ValueError(f"channel parameter must be positive, got c={c}")
    a = math.sqrt(2.0 * c)

    def e0(rho: float) -> float:
        ex = 1.0 / (1.0 + rho)

        def f(u: np.ndarray) -> np.ndarray:
            g_plus = np.exp(-0.5 * ex * (u - a) ** 2)
            g_minus = np.exp(-0.5 * ex * (u + a) ** 2)
            return (0.5 * (g_plus + g_minus)) ** (1.0 + rho)

        # the (2 pi)^{-1/(2(1+rho))} normalization of each tilted density
        # reassembles to exactly (2 pi)^{-1/2} after the outer power
        quad = adaptive_integrate(f, -(a + 12.0), a + 12.0, _GALLAGER_TOL)
        return 0.5 * math.log(2.0 * math.pi) - math.log(quad.value)

    _, neg = minimize_1d(
        lambda rho: rho * rate * _LN2 - e0(rho), 0.0, 1.0, grid_points=33
    )
    return -neg


def finite_n_exponent(log_bound: float, n: int) -> float:
    """Normalized exponent -ln(bound)/n of a finite-n log-domain bound."""
    if not math.isfinite(log_bound):
        raise ValueError(f"log bound must be finite, got {log_bound}")
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    return -log_bound / n

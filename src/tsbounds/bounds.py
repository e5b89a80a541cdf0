"""Finite-length upper bounds on ML decoding error probability over the
binary-input AWGN channel: the tangential-sphere bound (block and bit error),
its conditioned improvement, the added-hyper-plane bound, and the lower
envelope shared by the last two.

Geometry: the received vector is decomposed into a radial component z1 along
the transmitted signal, a tangential component z2 in the plane of the
competing codeword, and (for the conditioned bounds) a third component z3.
Every bound integrates Gaussian densities against chi-square tail masses
inside a circular cone whose radius is optimized once per spectrum.

A Plan holds that channel-free part (radius, geometry, included weights);
plan.at(ch, tol) is the term cache for one channel point.  Bounds passed the
same cache as `terms=` share every term integral, so a sweep solves the cone
once and computes the terms common to several bounds once per point.  Each
bound, and each layer of ahp and psi, is one term list over that cache,
summed by one assembly.

All per-weight terms are accumulated in log domain; individual term
integrals are evaluated in linear double precision (their magnitudes are
probability-sized) and logged afterwards.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain
from typing import NamedTuple

import numpy as np
from scipy.special import gammainc, gammaincc, logsumexp, ndtr, owens_t

from .codes import DistanceSpectrum
from .geometry import ConeGeometry, alpha_theta, beta_h, l_line, rho_max_wh, rho_min_h, rho_ww
from .numerics import (QuadratureResult, Tolerance, adaptive_integrate, brentq,
                       log_q_function, sin_power_integral, wallis)

__all__ = [
    "ChannelPoint",
    "BoundResult",
    "NoSolutionError",
    "Plan",
    "solve_cone_radius",
    "tsb_block",
    "itsb",
    "ahp",
    "psi",
]

_NEG_INF = -math.inf

# Default accuracy for the term integrals: relative-error driven, with a
# floor far below any probability of interest.
BOUND_TOL = Tolerance(abs_tol=1e-300, rel_tol=1e-10, max_iter=260)

# Loose cone for spectra where the radius equation has no solution (fewer
# than two effective interior codewords): the bound holds for every radius,
# and a very wide cone recovers union-bound behavior (its cap leakage decays
# like 1/radius).
_FALLBACK_RADIUS_FACTOR = 400.0

# Relative margin of Plan.key's tests: far above the rounding of any z1 row.
_CLEAR = 1e-9

# Coarse relative tolerances each term run meets before its exact one; the
# layer search prunes on their lower estimates (see _best_layer).
_LADDER = (1e-2, 1e-5)
_KAPPA = 10.0

# A bracket run stops at the first level's relative tolerance or once its
# error is below this fraction of the term's pair term, a scale no layer
# decision resolves (see _Engine._bracket).
_BRACKET_FLOOR = 1e-14

# scipy's Owen's T stays within 2e-13 relative of mpmath's up to h = 12
# (h being its first argument) and loses digits past it (6e-8 at h = 17),
# so _orthant_hi takes the marginal bound past _OWEN_MAX; its allowance on
# each piece, _OWEN_SLACK relative, covers that error, ndtr's and the
# rounding of the sum many times over.
_OWEN_MAX = 12.0
_OWEN_SLACK = 1e-10

_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_LOG_Q10 = log_q_function(10.0)


class NoSolutionError(ValueError):
    """Raised when the cone-radius equation has no root (thin spectra)."""


@dataclass(frozen=True)
class ChannelPoint:
    """BPSK-AWGN operating point: c = Es/N0 (linear) and the code rate."""

    c: float
    rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"need finite c > 0, got c={self.c}")
        if not 0 < self.rate <= 1:
            raise ValueError(f"need 0 < rate <= 1, got rate={self.rate}")

    @property
    def sigma_sq(self) -> float:
        return 1.0 / (2.0 * self.c)

    @property
    def eb_n0(self) -> float:
        return self.c / self.rate

    @property
    def eb_n0_db(self) -> float:
        return 10.0 * math.log10(self.eb_n0)

    @classmethod
    def from_eb_n0_db(cls, db: float, rate: float) -> "ChannelPoint":
        try:
            c = rate * 10.0 ** (db / 10.0)
        except OverflowError:
            c = math.inf
        try:
            return cls(c=c, rate=rate)
        except ValueError as exc:
            raise ValueError(f"E_b/N_0 = {db} dB: {exc}") from None


@dataclass(frozen=True)
class BoundResult:
    """A bound evaluation: the probability (may exceed 1, in which case the
    bound is vacuous but still well defined), its natural log, per-weight
    log-domain contributions, the cone radius used, the two tail terms
    (log domain), and an additive error budget for the quadrature plus the
    outer-integral truncation.

    ahp and psi also report their layer search: the chosen layer, how many
    layers were assembled in full and how many were pruned unassembled, and
    whether the chosen layer opens inside the cone (None for tsb and itsb).
    vacuous_terms: how many conditioned parts are pair terms (None for tsb)."""

    value: float
    log_value: float
    per_weight: dict[int, float] = field(repr=False)
    cone_radius: float
    tail_terms: dict[str, float]
    error_estimate: float
    converged: bool
    ahp_layer: int | None = None
    layers_assembled: int | None = None
    layers_pruned: int | None = None
    layer_in_cone: bool | None = None
    vacuous_terms: int | None = None


def _interior_weights(spec: DistanceSpectrum) -> list[int]:
    return [h for h in range(1, spec.n) if spec.log_a[h] > _NEG_INF]


def solve_cone_radius(spec: DistanceSpectrum) -> float:
    """Radius r* balancing the per-weight angular masses against the full
    sphere: sum_h A_h * integral_0^theta_h sin^(n-3) = sqrt(pi)
    Gamma((n-2)/2) / Gamma((n-1)/2).

    The left side is continuous and strictly increasing in r, so the root is
    unique; it depends only on the spectrum, never on the noise level.
    Raises NoSolutionError when the spectrum's interior weights cannot reach
    the right side (total effective count <= 2).
    """
    n = spec.n
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    weights = _interior_weights(spec)
    if not weights:
        raise NoSolutionError("spectrum has no interior weights 0 < h < n")
    log_rhs = math.log(2.0) + wallis(n - 3)
    total = logsumexp([float(spec.log_a[h]) for h in weights])
    if total <= math.log(2.0):
        raise NoSolutionError(
            "interior spectrum mass sum(A_h) <= 2: the angular equation has no root"
        )

    def resid(r: float) -> float:
        geo = ConeGeometry(n, r)
        terms = []
        for h in weights:
            _, theta = alpha_theta(h, geo)
            if theta is not None and theta > 0.0:
                terms.append(
                    float(spec.log_a[h]) + sin_power_integral(n - 3, theta)
                )
        if not terms:
            return -1e6  # below any attainable residual; keeps the sign
        return max(logsumexp(terms) - log_rhs, -1e6)

    hi = math.sqrt(n)
    for _ in range(200):
        if resid(hi) > 0:
            break
        hi *= 2.0
    else:  # pragma: no cover - excluded by the mass check above
        raise NoSolutionError("could not bracket the cone-radius equation")
    lo = hi / 2.0
    while resid(lo) > 0:
        lo /= 2.0
    return brentq(resid, lo, hi, xtol=1e-12, rtol=1e-14, maxiter=300)


def _cone_radius_or_fallback(spec: DistanceSpectrum) -> float:
    try:
        return solve_cone_radius(spec)
    except NoSolutionError:
        return _FALLBACK_RADIUS_FACTOR * math.sqrt(spec.n)


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else _NEG_INF


def _low(res: QuadratureResult) -> float:
    # A run's lower estimate max(0, value - _KAPPA * error), 0 if unconverged.
    return max(res.value - _KAPPA * res.error, 0.0) if res.converged else 0.0


def _orthant_hi(x: float, y: float, r: float) -> float:
    """An upper bound on Pr(X >= x, Y >= y) for standard normals X, Y at
    correlation -1 < r < 1 and x, y > 0: Owen's (Ann. Math. Statist.
    27(4), 1956) form Q(x)/2 + Q(y)/2 - T(x, a_x) - T(y, a_y), a_x = (y -
    r x) / (x sqrt(1 - r^2)) and a_y likewise, plus _OWEN_SLACK times the
    sum of its pieces' magnitudes, and at most the marginal Q(max(x, y)).  The
    pieces cancel where x and y lie far apart, down to an orthant far
    below Q(min(x, y)), so the allowance scales with the pieces, not with
    their sum.  Past _OWEN_MAX the marginal alone is taken."""
    top = max(x, y)
    marginal = float(ndtr(-top)) * (1.0 + _OWEN_SLACK)
    if top > _OWEN_MAX:
        return marginal
    s = math.sqrt(1.0 - r * r)
    pieces = (0.5 * float(ndtr(-x)), 0.5 * float(ndtr(-y)),
              -float(owens_t(x, (y - r * x) / (x * s))), -float(owens_t(y, (x - r * y) / (y * s))))
    return min(marginal, math.fsum(pieces) + _OWEN_SLACK * sum(map(abs, pieces)))


def _log_minus_one(log_a: float) -> float:
    # ln(max(A - 1, 0)) from ln A, stable for large A.
    if log_a <= 0.0:
        return _NEG_INF
    return log_a + math.log1p(-math.exp(-log_a))


@dataclass(frozen=True)
class _Term:
    log_value: float
    log_error: float
    log_tail: float
    converged: bool
    label: str

    def scaled(self, log_coeff: float) -> "_Term":
        """The term multiplied by a coefficient given in log domain."""
        return _Term(
            log_coeff + self.log_value,
            log_coeff + self.log_error,
            log_coeff + self.log_tail,
            self.converged,
            self.label,
        )


class _Layer(NamedTuple):
    """A bound's term list: the anchor weight w, the cache key of the anchor
    term pair_term(w) or None, and the parts (h, log_coeff, key) in
    assembly order, each the term under key, of weight h, times its
    multiplicity exp(log_coeff).  tsb and the layers outside the cone have
    no anchor; itsb lists its anchor as a part (see _Engine.assemble)."""

    w: int
    anchor: tuple | None
    parts: list


def _same_spectrum(a: DistanceSpectrum, b: DistanceSpectrum) -> bool:
    return a is b or (
        a.n == b.n and a.d_min == b.d_min and np.array_equal(a.log_a, b.log_a)
    )


class Plan:
    """The channel-free part of every bound on one spectrum: the cone radius
    r* (solved once), its geometry, the interior weights, and the weights
    whose codeword circles open inside the cone.  Read-only once built, so
    one plan serves any number of channel points and threads."""

    def __init__(self, spec: DistanceSpectrum):
        self.spec = spec
        self.geo = ConeGeometry(spec.n, _cone_radius_or_fallback(spec))
        self.geom_included = frozenset(
            h
            for h in range(1, spec.n)
            if (t := alpha_theta(h, self.geo)[1]) is not None and t > 0.0
        )
        self.included = tuple(
            h for h in _interior_weights(spec) if h in self.geom_included
        )

    def key(self, h: int, w: int, rho: float) -> tuple:
        """The cache key of the conditioned term of weight h against anchor
        w at correlation rho: ("pair", h) where the line clears the pair
        event's disk section, else ("triple", h, w, rho).  All limits scale
        with sqrt(n) - z1, so one test at sqrt(n) - z1 = 1 holds at every
        z1: the line's crossings of +-s (if any) lie below beta_h and it is
        above s at beta_h, each by _CLEAR.  The kernel then builds the pair
        kernel's nodes and cuts none, bit for bit; rho = -1 is one case."""
        n, rz, q = self.geo.n, self.geo.eta**0.5, 1.0 - rho * rho
        b, b_ref = math.sqrt(h / (n - h)), math.sqrt(w / (n - w))
        cross = b_ref * rho + math.sqrt(max(q * (rz * rz - b_ref * b_ref), 0.0))
        below = b_ref > rz * (1.0 + _CLEAR) or cross < b * (1.0 - _CLEAR)
        above = b_ref - rho * b > math.sqrt(max(rz * rz - b * b, 0.0) * q) * (1.0 + _CLEAR)
        return ("pair", h) if below and above else ("triple", h, w, rho)

    def at(self, ch: ChannelPoint, tol: Tolerance = BOUND_TOL) -> "_Engine":
        """A fresh term cache for one channel point.  Pass it as `terms=` to
        the bounds on this spectrum (on a bit spectrum: to tsb_block) so
        they share the term integrals; a cache is not thread-safe, so each
        thread needs its own."""
        return _Engine(self.geo, ch, tol, self)


class _Engine:
    """Quadrature state and term cache for one (plan, channel point): every
    pair, conditioned and cap integral is computed once and reused by each
    bound assembled over the cache."""

    def __init__(
        self, geo: ConeGeometry, ch: ChannelPoint, tol: Tolerance, plan: Plan | None = None
    ):
        self.geo = geo
        self.ch = ch
        self.tol = tol
        self.plan = plan
        self.n = geo.n
        self.sqrt_n = math.sqrt(geo.n)
        self.sigma = math.sqrt(ch.sigma_sq)
        self.z1_lo = -10.0 * self.sigma
        self.log_q_term = log_q_function(math.sqrt(2.0 * geo.n * ch.c))
        self._cache: dict[tuple, _Term] = {}
        self.levels = [replace(tol, rel_tol=r) for r in _LADDER if r > tol.rel_tol] + [tol]
        self._runs: dict[tuple, list] = {}
        self._brackets: dict[tuple, QuadratureResult] = {}
        self.trouble: list[str] = []

    def begin(self, spec: DistanceSpectrum, ch: ChannelPoint, tol: Tolerance) -> "_Engine":
        """Check that the cache was built for this bound call's inputs and
        start the call's record of unconverged terms."""
        if self.plan is None or not _same_spectrum(self.plan.spec, spec):
            raise ValueError("term cache was built for a different spectrum")
        if self.ch != ch:
            raise ValueError(f"term cache was built for {self.ch}, not {ch}")
        if self.tol != tol:
            raise ValueError(f"term cache was built for {self.tol}, not {tol}")
        self.trouble = []
        return self

    # -- scalar densities -------------------------------------------------

    def _phi(self, x):
        s = self.sigma
        return np.exp(-0.5 * (x / s) ** 2) / (s * math.sqrt(2.0 * math.pi))

    def _g(self, dof_half: float, x):
        # Regularized lower-gamma mass; dof 0 is a point mass at the origin.
        if dof_half <= 0.0:
            return np.ones_like(np.asarray(x, dtype=float))
        return gammainc(dof_half, np.maximum(x, 0.0))

    # -- composite Gauss-Legendre panels ----------------------------------

    def _panel_nodes(self, edges: list, ksub: int):
        # Composite Gauss-Legendre nodes/weights (m, segments*ksub*24) on
        # the z2 segments between consecutive (m,) edges that have positive
        # width in some row, segment by segment in one build.
        keep = [i for i in range(len(edges) - 1) if np.any(edges[i + 1] > edges[i])]
        a = np.stack([edges[i] for i in keep], axis=1)
        b = np.stack([edges[i + 1] for i in keep], axis=1)
        frac = np.linspace(0.0, 1.0, ksub + 1)
        width = (b - a)[..., None] / ksub
        lo = a[..., None] + (b - a)[..., None] * frac[:-1]
        mid = lo + 0.5 * width
        half = 0.5 * width
        z = mid[..., None] + half[..., None] * _GL_X
        w = np.broadcast_to(half[..., None] * _GL_W, z.shape)
        m = a.shape[0]
        return z.reshape(m, -1), w.reshape(m, -1)

    def _ksub(self, span: float) -> int:
        return int(np.clip(math.ceil(span / (4.0 * self.sigma)), 1, 8))

    # -- conditional (given z1) kernels -----------------------------------

    def _cap_given_z1(self, z1: np.ndarray) -> np.ndarray:
        rz = np.asarray(self.geo.r_z1(z1), dtype=float)
        return gammaincc(0.5 * (self.n - 1), rz**2 / (2.0 * self.ch.sigma_sq))

    def _triple_given_z1(
        self, z1: np.ndarray, h: int, beta_ref: np.ndarray | None = None,
        rho: float | None = None, bracket: bool = False,
    ):
        """Pr(beta_h <= z2 <= r_z1, z3 <= l(z2), chi2_(n-3) mass below
        r^2 - z2^2 - z3^2): the one kernel of every term but the cap, for
        -1 < rho < 1.  With no line (beta_ref None) it is the pair kernel
        Pr(beta_h <= z2 <= r_z1, chi2_(n-2) mass below r^2 - z2^2) on the
        one segment [beta_h, r_z1], where 2 * (half-disk) is that mass
        exactly.  Plan.key gives every rho = -1 term the pair key.

        With a line, the z2 range splits where the line crosses +-s, and
        only segments of positive width get nodes, all in one build.
        beta_h, r_z1, beta_ref and so both crossings all scale with
        sqrt(n) - z1, so a segment is empty in every z1 row or in none: no
        node carries zero weight.

        gammainc runs only where its value is read.  The pair kernel takes
        the (n-2)-dof mass at every node and does no line work.  With a
        line, that mass runs at live nodes (l > -s; bracket mode: l < s,
        where the wedge is not empty), and the 24-node z3 rule with (n-3)
        dof at cut nodes (-s < l < s).  The mass is the full disk where
        l >= s and zero where l <= -s.  Every node's arithmetic is the same
        in each mode, so a sum does not depend on which nodes a mode skips.

        bracket=True replaces the z3 rule by W_hi, an upper bracket of the
        wedge, the pair kernel's mass above the line.  At a cut node the
        smaller side lies on [|l|, s]: the wedge where l > 0, the full disk
        less the wedge where l < 0.  On each piece [a, b] of that range
        integral_a^b phi(z3) G_(n-3)((s^2 - z3^2)/2 sigma^2) dz3 lies
        between G(b) dPhi and G(a) dPhi, since G falls as |z3| grows.  Two
        pieces split at the midpoint m cost gammainc at |l| and m; one piece
        would make the lower bound G(s) dPhi = 0."""
        rz = np.asarray(self.geo.r_z1(z1), dtype=float)
        a = np.minimum(beta_h(z1, h, self.geo), rz)  # empty once beta_h passes the cone
        span = float(np.max(rz - a, initial=0.0))
        if span <= 0.0:
            return np.zeros_like(rz)
        edges = [a, rz]
        if beta_ref is not None:
            # The regime of the z3 limit changes where the line crosses +-s;
            # those crossings are roots of a quadratic in z2.
            disc = (1.0 - rho * rho) * (rz**2 - beta_ref**2)
            root = np.sqrt(np.maximum(disc, 0.0))
            c_lo = np.where(disc >= 0.0, np.clip(beta_ref * rho - root, a, rz), a)
            c_hi = np.where(disc >= 0.0, np.clip(beta_ref * rho + root, a, rz), a)
            edges = [a, c_lo, c_hi, rz]
        z2, w2 = self._panel_nodes(edges, self._ksub(span))

        two_ss = 2.0 * self.ch.sigma_sq
        s_sq = np.maximum(rz[:, None] ** 2 - z2**2, 0.0)
        weight = w2 * self._phi(z2)
        if beta_ref is None:  # twice the half-disk mass, as the line's kernel sums it
            mass = 2.0 * (0.5 * self._g(0.5 * (self.n - 2), s_sq / two_ss))
            return np.sum(weight * mass, axis=1)
        s = np.sqrt(s_sq)
        line = l_line(z2, beta_ref[:, None], rho)
        live = (w2 > 0.0) & (line > -s)
        cut = live & (line < s)
        if bracket:
            below = (w2 > 0.0) & (line < s)
            w_hi = np.zeros_like(z2)  # the full disk where l <= -s, none where l >= s
            w_hi[below] = self._g(0.5 * (self.n - 2), s_sq[below] / two_ss)
            if np.any(cut):
                l_cut, s_cut, f = line[cut], s[cut], w_hi[cut]
                u = np.abs(l_cut)
                ends = np.stack([u, 0.5 * (u + s_cut), s_cut], axis=1)
                g = self._g(0.5 * (self.n - 3), (s_sq[cut][:, None] - ends[:, :2] ** 2) / two_ss)
                q = ndtr(-ends / self.sigma)  # upper tails: both ends >= 0
                d_phi = q[:, :2] - q[:, 1:]
                side_hi = np.minimum(g[:, 0] * d_phi[:, 0] + g[:, 1] * d_phi[:, 1], f)
                w_hi[cut] = np.where(l_cut > 0.0, side_hi, f - g[:, 1] * d_phi[:, 0])
            return np.sum(weight * w_hi, axis=1)
        half_disk = np.zeros_like(z2)
        half_disk[live] = 0.5 * self._g(0.5 * (self.n - 2), s_sq[live] / two_ss)
        hmass = 2.0 * half_disk
        if np.any(cut):
            # Odd part over [0, |l|] of the even z3 integrand, |l| < s here.
            l_cut, s_sq_cut = line[cut], s_sq[cut]
            u = np.abs(l_cut)
            z3 = u[:, None] * (0.5 * (_GL_X + 1.0))
            w3 = (0.5 * u)[:, None] * _GL_W
            inner3 = np.sum(
                w3 * self._phi(z3)
                * self._g(0.5 * (self.n - 3), (s_sq_cut[:, None] - z3**2) / two_ss),
                axis=1,
            )
            hmass[cut] = half_disk[cut] + np.sign(l_cut) * inner3
        return np.sum(weight * hmass, axis=1)

    # -- outer z1 integrals ------------------------------------------------

    def _integrand(self, key: tuple, bracket: bool = False):
        # The Gaussian density of z1 times the kernel of term key given z1,
        # or the wedge's upper bracket W_hi of a conditioned key.
        if key[0] == "cap":
            inner = self._cap_given_z1
        elif key[0] == "pair":
            inner = lambda z1: self._triple_given_z1(z1, key[1])
        else:
            _, h, w_ref, rho = key
            inner = lambda z1: self._triple_given_z1(
                z1, h, beta_h(z1, w_ref, self.geo), rho, bracket=bracket)
        return lambda z1: self._phi(z1) * inner(np.asarray(z1, dtype=float))

    def _refined(self, key: tuple, level: int):
        """Term key's run refined to self.levels[level].  Started through
        adaptive_integrate, the run meets every level in turn and keeps its
        result as of each, so that result depends on the term alone."""
        done = self._runs.setdefault(key, [])
        while len(done) <= level:
            tol = self.levels[len(done)]
            done.append(done[-1].run.refine(tol) if done else adaptive_integrate(
                self._integrand(key), self.z1_lo, self.sqrt_n, tol))
            if len(done) == len(self.levels):  # finished: free its heap and integrand
                done[:] = [replace(res, run=None) for res in done]
        return done[level]

    def lower(self, key: tuple, level: int) -> float:
        """Log of a lower estimate of term key as of a coarse level: its
        run's max(0, value - _KAPPA * error), 0 if unconverged."""
        return _log(_low(self._refined(key, level)))

    def _bracket(self, key: tuple) -> QuadratureResult:
        """The bracket run of conditioned term key: W_hi integrated over z1,
        to the first level's relative tolerance or an absolute error of
        _BRACKET_FLOOR times the term's pair term, whichever is looser.
        Never recorded as trouble."""
        res = self._brackets.get(key)
        if res is None:
            first = self.levels[0]
            floor = _BRACKET_FLOOR * self._pair_value(key[1])
            tol = replace(first, abs_tol=max(first.abs_tol, floor))
            run = adaptive_integrate(self._integrand(key, True), self.z1_lo, self.sqrt_n, tol)
            res = self._brackets[key] = replace(run, run=None)
        return res

    def _pair_value(self, h: int) -> float:
        # Exact where tsb reads it, else a prune-only anchor's first level.
        if h not in self.plan.included:
            return self._refined(("pair", h), 0).value
        self.pair_term(h)
        return self._refined(("pair", h), len(self.levels) - 1).value

    def _pair_low(self, h: int) -> float:
        # Every partial sum's pair term: exact for an included weight, its
        # first level's estimate (see lower) for a prune-only one.
        if h in self.plan.included:
            return self._pair_value(h)
        return _low(self._refined(("pair", h), 0))

    def orthant(self, key: tuple) -> float:
        """Log of a lower estimate of conditioned term key = ("triple", h,
        w, rho) that integrates nothing: the layer search's first rung.  It
        is P (1 - _KAPPA rel_tol) - L_hi, P the pair term as _pair_low reads
        it and L_hi an upper bound on the orthant L = Pr(X >= sqrt(2hc), Y
        >= sqrt(2wc)) of standard normals X, Y at correlation (sqrt(hw) +
        rho sqrt((n-h)(n-w))) / n (see _orthant_hi).

        The wedge W, the pair event's mass above the anchor line, is at
        most L.  With z1, z2, z3 the independent N(0, sigma^2) noise
        coordinates and b_h = sqrt(h/(n-h)), h's pair event lies in h's
        half-space z2 + b_h z1 >= sqrt(n) b_h, and its part above the line,
        rho z2 + sqrt(1 - rho^2) z3 >= beta_w(z1), lies in w's half-space
        rho z2 + sqrt(1 - rho^2) z3 + b_w z1 >= sqrt(n) b_w.  The two sides,
        scaled by sigma sqrt(n/(n-h)) and sigma sqrt(n/(n-w)), are X and Y,
        and the thresholds become sqrt(h)/sigma = sqrt(2hc) and sqrt(2wc).
        So T = P - W >= P - L, above z1_lo too, where the terms stop.  The
        factor 1 - _KAPPA rel_tol covers the quadrature error of P and of
        the exact term, as _KAPPA times the error does on the other rungs."""
        _, h, w, rho = key
        pair = self._pair_low(h)
        n, c = self.n, self.ch.c
        corr = (math.sqrt(h * w) + rho * math.sqrt((n - h) * (n - w))) / n
        wedge_hi = _orthant_hi(math.sqrt(2.0 * h * c), math.sqrt(2.0 * w * c), corr)
        return _log(pair * (1.0 - _KAPPA * self.tol.rel_tol) - wedge_hi)

    def bracketed(self, key: tuple) -> float:
        """Log of a lower estimate of conditioned term key that integrates
        no z3 rule: the layer search's second rung, in difference form.  A
        conditioned term is T(h, w, rho) = P(h) - W(h, w, rho), W the wedge,
        so layer w less tsb is its added terms (the anchor P(w), ahp's
        extension self-term, less A_w P(w)) less its savings, the sum of
        A_h W(h, w) over h != w; on in-cone layers the added terms outweigh
        the savings many times over.

        The estimate is P - (W_hi + _KAPPA * error + the pair event's mass
        below z1_lo), P as _pair_low reads it.  The bracket bounds the
        wedge inside the cone, where the orthant rung bounds it by two whole
        half-spaces, so it drops the layers whose savings that rung
        overstates.  An unconverged bracket run gives no estimate."""
        pair = self._pair_low(key[1])
        wedge = self._bracket(key)
        wedge_hi = wedge.value + _KAPPA * wedge.error + math.exp(self._log_tail(key[1]))
        return _log(pair - wedge_hi if wedge.converged else 0.0)

    def _log_tail(self, h: int) -> float:
        # Bound on a pair event's mass below z1_lo: z2 past beta_h there.
        return _LOG_Q10 + log_q_function(float(beta_h(self.z1_lo, h, self.geo)) / self.sigma)

    def _outer(self, key: tuple) -> _Term:
        # The exact term; below z1_lo, the cap's tail or z2's past beta_h.
        res = self._refined(key, len(self.levels) - 1)
        if key[0] == "cap":
            cut = self._cap_given_z1(np.array([self.z1_lo]))[0]
            tail, label = _LOG_Q10 + _log(cut), "cap"
        else:
            tail = self._log_tail(key[1])
            label = (f"pair(h={key[1]})" if key[0] == "pair"
                     else f"conditioned(h={key[1]}, ref={key[2]})")
        return _Term(_log(res.value), _log(res.error), tail, res.converged, label)

    def term(self, key: tuple) -> _Term:
        """The exact term under key, ("cap",), ("pair", h) or ("triple", h,
        w_ref, rho), computed on first use.  Every use of an unconverged term
        is recorded, so each bound call names all the unconverged terms it
        used, whichever call computed them."""
        term = self._cache.get(key)
        if term is None:
            term = self._cache[key] = self._outer(key)
        if not term.converged:
            self.trouble.append(term.label)
        return term

    def pair_term(self, h: int) -> _Term:
        """Pr(beta_h <= z2 <= r_z1, inside the cone): the conditioned kernel
        with no z3 line, integrated over z1."""
        return self.term(("pair", h))

    def cap_term(self) -> _Term:
        return self.term(("cap",))

    # -- assembly ----------------------------------------------------------

    def assemble(
        self, layer: _Layer, include_q: bool, ahp_layer: int | None = None,
        vacuous_terms: int | None = None,
    ) -> BoundResult:
        """The bound of one term list: its weighted spectrum logs summed
        with the cap (and optionally the apex tail), and the error budgets
        of its terms.  The terms of one weight are summed at that weight's
        first place, in part order.  An anchor term leads the error budget,
        and its weight, with the self-term of that weight, is summed last.
        itsb, whose anchor is summed after its self-term at its first
        weight, lists the anchor as a part instead."""
        cap = self.cap_term()
        terms = [] if layer.anchor is None else [self.term(layer.anchor)]
        by_weight: dict[int, list[float]] = {}
        for h, log_coeff, key in layer.parts:
            terms.append(self.term(key).scaled(log_coeff))
            by_weight.setdefault(h, []).append(terms[-1].log_value)
        if layer.anchor is not None:
            by_weight[layer.w] = [terms[0].log_value] + by_weight.pop(layer.w, [])
        weighted = {h: v[0] if len(v) == 1 else float(logsumexp(v)) for h, v in by_weight.items()}
        logs = list(weighted.values()) + [cap.log_value]
        tail_terms = {"cap": cap.log_value, "q": self.log_q_term if include_q else _NEG_INF}
        if include_q:
            logs.append(self.log_q_term)
        log_value = float(logsumexp(logs))
        err_logs = [t.log_error for t in terms] + [t.log_tail for t in terms]
        err_logs += [cap.log_error, cap.log_tail]
        error = float(np.exp(logsumexp(err_logs)))
        converged = cap.converged and all(t.converged for t in terms)
        return BoundResult(
            value=float(np.exp(log_value)),
            log_value=log_value,
            per_weight=weighted,
            cone_radius=self.geo.r,
            tail_terms=tail_terms,
            error_estimate=error,
            converged=converged,
            ahp_layer=ahp_layer, vacuous_terms=vacuous_terms,
        )

    def finish(self, result: BoundResult) -> BoundResult:
        """Return result after one warning naming every unconverged term."""
        if self.trouble:
            warnings.warn(
                "quadrature did not converge for: " + ", ".join(sorted(set(self.trouble))),
                RuntimeWarning,
                stacklevel=3,
            )
        return result


def _terms_for(
    spec: DistanceSpectrum, ch: ChannelPoint, tol: Tolerance, terms: _Engine | None
) -> _Engine:
    """The caller's term cache, checked against this call's inputs, or a
    fresh cache on a fresh plan.  Every bound takes `terms=plan.at(ch, tol)`
    for its spectrum; bounds sharing one cache compute each term once."""
    if terms is None:
        return Plan(spec).at(ch, tol)
    return terms.begin(spec, ch, tol)


def tsb_block(
    spec: DistanceSpectrum, ch: ChannelPoint, tol: Tolerance = BOUND_TOL, *, terms=None
) -> BoundResult:
    """Tangential-sphere bound on the block error probability; on a "bit"
    spectrum (enumerate_spectrum's second result) it bounds the bit error
    probability, with that spectrum's own cone radius.

    Sums the per-weight pair terms inside the optimized cone, the chi-square
    cap leakage, and the Gaussian tail beyond the apex.
    """
    eng = _terms_for(spec, ch, tol, terms)
    # Layer n conditions nothing: its terms are the plain pair terms.
    return eng.finish(eng.assemble(_layer(eng, spec, spec.n, extend=False), include_q=True))


def itsb(
    spec: DistanceSpectrum, ch: ChannelPoint, tol: Tolerance = BOUND_TOL, *, terms=None
) -> BoundResult:
    """Conditioned tangential-sphere bound: one minimum-weight codeword
    anchors the error events and every other pairwise event is intersected
    with the anchor's complement, shrinking each term by a z3 wedge.  Each
    weight h takes rho_min_h(h, d_min, n), the most negative correlation
    admissible against the anchor weight.

    Weights below d_min are skipped, not bounded (open item 1 in
    ROADMAP.md).  So on an ensemble spectrum, whose d_min is the effective
    one, the result is not an upper bound on the ensemble-average error.
    """
    eng = _terms_for(spec, ch, tol, terms)
    d, parts, vacuous = spec.d_min, [], 0
    for h in eng.plan.included:
        if h < d:
            continue
        coeff = float(spec.log_a[h]) if h != d else _log_minus_one(float(spec.log_a[h]))
        if coeff > _NEG_INF:
            parts.append((h, coeff, eng.plan.key(h, d, rho_min_h(h, d, spec.n))))
            vacuous += parts[-1][2][0] == "pair"
        if h == d:  # the anchor, after its self-term
            parts.append((d, 0.0, ("pair", d)))
    return eng.finish(eng.assemble(_Layer(d, None, parts), include_q=True, vacuous_terms=vacuous))


def _layer(eng: _Engine, spec: DistanceSpectrum, w: int, extend: bool) -> _Layer:
    """Layer w of ahp (extend) or psi; layer n is tsb_block's.  A layer
    inside the cone has the anchor pair_term(w), the extension self-term
    when extend is set, then one conditioned term per included weight
    h != w, each inside the pair event of pair_term(h).

    A layer outside the cone (w not in plan.geom_included, as for w = n)
    conditions nothing: it has no anchor and no extension pair, and each
    conditioned term is its pair term, so its parts are tsb's pair terms.
    Proof: beta_w(z1) = (sqrt(n) - z1) sqrt(w/(n-w)) and r(z1) =
    (sqrt(n) - z1) r/sqrt(n) both scale with sqrt(n) - z1, so w lies
    outside the cone exactly when beta_w(z1) >= r(z1) for every z1; their
    ratio is sqrt(w)/alpha_w, the ratio alpha_theta tests.  On the
    cross-section disk z2^2 + z3^2 <= r(z1)^2, Cauchy-Schwarz gives
    rho z2 + sqrt(1 - rho^2) z3 <= r(z1) <= beta_w(z1), so the anchor
    half-plane holds the whole disk: the anchor and extension pair events
    are empty, and each line z3 <= l(z2) cuts nothing from a pair event.
    """
    n = spec.n
    if w not in eng.plan.geom_included:
        return _Layer(w, None, [(h, float(spec.log_a[h]), ("pair", h)) for h in eng.plan.included])
    # The extension pairs exist whether or not the code has weight-w words;
    # only the cone geometry can zero them out.
    parts = [(w, math.log(math.comb(n, w)), eng.plan.key(w, w, rho_ww(w, n)))] if extend else []
    parts += [(h, float(spec.log_a[h]), eng.plan.key(h, w, rho_max_wh(w, h, n)))
              for h in eng.plan.included if h != w]
    return _Layer(w, ("pair", w), parts)


# A layer is pruned once a partial sum of its terms exceeds the best
# assembled layer by this much in log: far more than the rounding of either
# sum (a few ulps of |log value| < 1e3), so no layer that would win or tie
# is ever pruned.
_PRUNE_MARGIN = 1e-12


def _exceeds(eng: _Engine, head: list, ranked: list, rung, bound: float) -> bool:
    """The one pruning test: whether a partial sum of _estimates, drawn in
    order and lazily, passes bound + _PRUNE_MARGIN (kept relative to bound,
    in linear scale).  Drawing stops once the terms drawn and the ceilings
    of the rest cannot pass, so a ceiling below its part (see _ranked) can
    stop a sum early, never make it pass."""
    limit = math.exp(_PRUNE_MARGIN)
    rel = lambda x: math.exp(min(x - bound, 700.0)) if x > _NEG_INF else 0.0  # no overflow
    caps = [rel(x) for x in head + [top for top, *_ in ranked]]
    reach, total = sum(caps), 0.0
    for cap, log_term in zip(caps, _estimates(eng, head, ranked, rung)):  # drawn while it can pass
        part = rel(log_term)
        total += part
        reach -= cap - part
        if total > limit or reach <= limit:
            return total > limit
    return False


def _ranked(eng: _Engine, layer: _Layer) -> list:
    """The parts of every partial sum over layer as (ceiling, h, log_coeff,
    key): the anchor, then the rest largest ceiling first.  A ceiling,
    log_coeff plus the log of _Engine._pair_value(h), bounds its part (a
    conditioned term lies inside its pair event), but for a prune-only
    anchor (no codewords of its weight) and its extension self-term it is a
    first-level estimate, not a bound.  An underestimate can only stop a
    sum early and leave a layer unpruned; it never changes a result."""
    ranked = sorted(((c + _log(eng._pair_value(h)), h, c, key) for h, c, key in layer.parts),
                    key=lambda p: (-p[0], p[1]))
    if layer.anchor is not None:
        ranked.insert(0, (_log(eng._pair_value(layer.w)), layer.w, 0.0, layer.anchor))
    return ranked


def _estimates(eng: _Engine, head: list, ranked: list, rung):
    """Lazily, the logs of lower estimates of the head terms and the ranked
    parts: a pair part at _Engine._pair_low, a conditioned part at rung."""
    return chain(head, (c + (_log(eng._pair_low(key[1])) if key[0] == "pair" else rung(key))
                        for _, _, c, key in ranked))


def _start(eng: _Engine, spec: DistanceSpectrum, extend: bool, head: list) -> int:
    """The layer the search assembles first.  For ahp, layer n: tsb's term
    list, whose pair terms a shared cache holds.  For psi, the layer its
    estimates predict: from d_min the walk moves to w + 1, up to layer n,
    until layer w + 1 passes a sum of layer w in _exceeds: its ceiling sum,
    which costs nothing, on orthants and then on brackets, else its
    bracket sum on brackets.  Every start gives the search's one result
    (see _best_layer), so the prediction orders the visits and nothing
    else."""
    if extend:
        return spec.n
    w = spec.d_min
    ranked = _ranked(eng, _layer(eng, spec, w, extend))
    while w < spec.n:
        above = _ranked(eng, _layer(eng, spec, w + 1, extend))
        tops = float(logsumexp(head + [top for top, *_ in ranked]))
        if (any(_exceeds(eng, head, above, rung, tops) for rung in (eng.orthant, eng.bracketed))
                or _exceeds(eng, head, above, eng.bracketed,
                            float(logsumexp(list(_estimates(eng, head, ranked, eng.bracketed)))))):
            break
        w, ranked = w + 1, above
    return w


def _best_layer(eng: _Engine, spec: DistanceSpectrum, extend: bool) -> BoundResult:
    """Minimize the per-layer assembly over the layers 1..n, of the
    added-hyper-plane bound (self-term, apex tail) when extend is set, else
    of the envelope.

    Branch and bound: the incumbent layer, given by _start (n for ahp; for
    psi the layer its estimates predict), is assembled first.  Every term
    of a layer is nonnegative, so a partial sum of lower estimates of its
    terms bounds the layer's value from below; a layer is pruned once such
    a sum passes the best assembled value by _PRUNE_MARGIN, more than the
    rounding of either sum, so no layer that could win or tie is pruned.
    One test, _exceeds, decides every prune: the sum runs over the cap, the
    apex tail, the anchor, then the other parts largest ceiling first (see
    _ranked).  Pair parts enter at _Engine._pair_low, conditioned parts at
    one rung's estimate, the rungs tried cheapest first: orthants, which
    integrate nothing (_Engine.orthant: each wedge is at most the
    bivariate-normal orthant of its two codewords' half-spaces), brackets,
    which integrate no z3 rule (_Engine.bracketed), then the term runs'
    coarse estimates, level by level (_Engine.lower).  An estimate is below
    its term when the run's true error is within _KAPPA times its GK15
    error estimate, which overstates it by orders of magnitude here.

    A layer that no rung drops is assembled in full, and the smallest
    value wins, ties going to the smallest layer, exactly as when every
    layer is assembled.  The layers outside the cone are one term list,
    tsb's (see _layer), so they are searched once, as their smallest
    member; when it is assembled, its tied copies count as pruned, being
    skipped unassembled.
    Which layers are pruned depends only on term values and the start,
    never on what the cache held before: an orthant or a bracket depends
    on its term alone, and an estimate is taken as of its level, not from
    the run's state.  The start changes which layers are pruned, never the
    result."""
    head = [eng.cap_term().log_value] + ([eng.log_q_term] if extend else [])
    inside = eng.plan.geom_included
    outside = [w for w in range(1, spec.n + 1) if w not in inside]
    layers = [w for w in range(1, spec.n + 1) if w in inside or w == outside[0]]
    first = _start(eng, spec, extend, head)
    first = first if first in inside else outside[0]
    rungs = [eng.orthant, eng.bracketed]
    rungs += [partial(eng.lower, level=k) for k in range(len(eng.levels) - 1)]
    found: dict[int, BoundResult] = {}
    best = math.inf
    for w in [first] + [w for w in layers if w != first]:
        layer = _layer(eng, spec, w, extend)
        if w != first:
            ranked = _ranked(eng, layer)
            if any(_exceeds(eng, head, ranked, rung, best) for rung in rungs):
                continue
        vacuous = sum(key[0] == "pair" for _, _, key in layer.parts)
        found[w] = eng.assemble(layer, include_q=extend, ahp_layer=w, vacuous_terms=vacuous)
        best = min(best, found[w].log_value)
    win = min(found, key=lambda w: (found[w].log_value, w))
    return replace(
        found[win],
        layers_assembled=len(found),
        layers_pruned=spec.n - len(found),
        layer_in_cone=win in inside,
    )


def ahp(
    spec: DistanceSpectrum, ch: ChannelPoint, tol: Tolerance = BOUND_TOL, *, terms=None
) -> BoundResult:
    """Added-hyper-plane bound: extend the code with every weight-w word,
    anchor on that layer, and keep the best layer w = 1..n.

    A layer outside the cone, w = n among them, conditions nothing and is
    the plain tangential-sphere assembly (see _layer), so ahp never
    exceeds tsb_block.  The search starts from layer n, whose pair terms
    tsb_block shares, and assembles in full only the layers its estimates
    cannot drop (see _best_layer): the result is the one an exhaustive search
    returns, ties going to the smallest layer, and
    layers_assembled/layers_pruned report the work.  The layers outside
    the cone are one term list, assembled once and reported as the
    smallest of them when they win (layer 14 on Golay at 4 dB); their tied
    copies count as pruned.
    """
    eng = _terms_for(spec, ch, tol, terms)
    return eng.finish(_best_layer(eng, spec, extend=True))


def psi(
    spec: DistanceSpectrum, ch: ChannelPoint, tol: Tolerance = BOUND_TOL, *, terms=None
) -> BoundResult:
    """Lower envelope of the two conditioned bounds: the per-layer anchor and
    spectrum terms with neither the extension pair term nor the apex tail,
    minimized over ahp's layers w = 1..n, so it is at most ahp layer by
    layer.  Not itself an upper bound on the error probability; it
    sandwiches the conditioned bounds from below.  A layer outside the
    cone, layer n among them, is tsb's pair terms without the apex tail.

    The search starts from the layer its brackets predict: from d_min it
    steps up while the next layer's bracket sum is lower (see _start), so
    on the n=12 ensemble, where layer 3 beats d_min = 2, it assembles
    layer 3 alone and prunes layer 2 on brackets it already holds.  It
    prunes like ahp's, by psi's own values, and since pruning never drops
    a layer that could win or tie, the start moves no value and no layer
    choice.  After ahp on one cache it reuses ahp's brackets and continues
    the term runs that ahp's pruning left at a coarse level."""
    eng = _terms_for(spec, ch, tol, terms)
    return eng.finish(_best_layer(eng, spec, extend=False))


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
once and computes the terms common to several bounds once per point.

All per-weight terms are accumulated in log domain; individual term
integrals are evaluated in linear double precision (their magnitudes are
probability-sized) and logged afterwards.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammainc, gammaincc, logsumexp

from .codes import DistanceSpectrum, Iowef, bit_weight_transform
from .geometry import ConeGeometry, alpha_theta, beta_h, l_line, rho_max_wh, rho_min_h, rho_ww
from .numerics import Tolerance, adaptive_integrate, log_q_function, sin_power_integral, wallis

__all__ = [
    "ChannelPoint",
    "BoundResult",
    "NoSolutionError",
    "Plan",
    "solve_cone_radius",
    "tsb_block",
    "tsb_bit",
    "itsb",
    "ahp",
    "psi",
    "triple_term",
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
        if not self.c > 0:
            raise ValueError(f"need c > 0, got c={self.c}")
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
        return cls(c=rate * 10.0 ** (db / 10.0), rate=rate)


@dataclass(frozen=True)
class BoundResult:
    """A bound evaluation: the probability (may exceed 1, in which case the
    bound is vacuous but still well defined), its natural log, per-weight
    log-domain contributions, the cone radius used, the two tail terms
    (log domain), and an additive error budget for the quadrature plus the
    outer-integral truncation.

    ahp and psi also report their layer search: the chosen layer, how many
    layers were assembled in full and how many were pruned unassembled, and
    whether the chosen layer opens inside the cone (None for tsb and itsb)."""

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
    log_rhs = math.log(2.0) + wallis(n - 3, log=True)
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
                    float(spec.log_a[h]) + sin_power_integral(n - 3, theta, log=True)
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

    def at(self, ch: ChannelPoint, tol: Tolerance = BOUND_TOL) -> "_Engine":
        """A fresh term cache for one channel point.  Pass it as `terms=` to
        the bounds on this spectrum (tsb_bit: on its bit spectrum) so they
        share the term integrals; a cache is not thread-safe, so each
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

    def _panel_nodes(self, a, b, ksub: int):
        # (m,) bounds -> nodes/weights (m, ksub*24); zero-length rows give
        # zero weights and contribute nothing.
        frac = np.linspace(0.0, 1.0, ksub + 1)
        width = (b - a)[:, None] / ksub
        lo = a[:, None] + (b - a)[:, None] * frac[:-1][None, :]
        mid = lo + 0.5 * width
        half = 0.5 * width
        z = mid[:, :, None] + half[:, :, None] * _GL_X[None, None, :]
        w = np.broadcast_to(half[:, :, None] * _GL_W[None, None, :], z.shape)
        m = a.shape[0]
        return z.reshape(m, -1), w.reshape(m, -1)

    def _ksub(self, span: float) -> int:
        return int(np.clip(math.ceil(span / (4.0 * self.sigma)), 1, 8))

    # -- conditional (given z1) kernels -----------------------------------

    def _z2_range(self, z1: np.ndarray, h: int):
        """Per-z1 z2 limits [a, rz] = [beta_h(z1), r_z1] (empty once beta_h
        passes the cone) and the widest span among them."""
        rz = np.asarray(self.geo.r_z1(z1), dtype=float)
        a = np.minimum(beta_h(z1, h, self.geo), rz)
        return rz, a, float(np.max(rz - a, initial=0.0))

    def _pair_given_z1(self, z1: np.ndarray, h: int) -> np.ndarray:
        """Pr(beta_h(z1) <= z2 <= r_z1, chi2_(n-2) mass below r^2 - z2^2)."""
        rz, a, span = self._z2_range(z1, h)
        if span <= 0.0:
            return np.zeros_like(rz)
        z2, w2 = self._panel_nodes(a, rz, self._ksub(span))
        mass = self._g(0.5 * (self.n - 2), (rz[:, None] ** 2 - z2**2) / (2.0 * self.ch.sigma_sq))
        return np.sum(w2 * self._phi(z2) * mass, axis=1)

    def _cap_given_z1(self, z1: np.ndarray) -> np.ndarray:
        rz = np.asarray(self.geo.r_z1(z1), dtype=float)
        return gammaincc(0.5 * (self.n - 1), rz**2 / (2.0 * self.ch.sigma_sq))

    def _triple_given_z1(
        self, z1: np.ndarray, h: int, beta_ref: np.ndarray, rho: float
    ) -> np.ndarray:
        """Pr(beta_h <= z2 <= r_z1, z3 <= l(z2), chi2_(n-3) mass below
        r^2 - z2^2 - z3^2), the conditioned kernel shared by the improved
        bounds.  rho at the -1 crossover makes the z3 constraint vacuous and
        the kernel degenerates to the pair kernel.

        gammainc runs only where its value is used: the (n-2)-dof half-disk
        mass at live nodes (positive weight, l > -s), the 24-node z3 rule
        with (n-3) dof at cut nodes (-s < l < s).  The mass is the full
        disk where l >= s and zero where l <= -s or the weight is zero."""
        if rho <= -1.0 + 1e-12:
            return self._pair_given_z1(z1, h)
        rz, a, span = self._z2_range(z1, h)
        if span <= 0.0:
            return np.zeros_like(rz)
        # The regime of the z3 limit changes where the line crosses +-s;
        # those crossings are roots of a quadratic in z2.
        disc = (1.0 - rho * rho) * (rz**2 - beta_ref**2)
        root = np.sqrt(np.maximum(disc, 0.0))
        c_lo = np.clip(beta_ref * rho - root, a, rz)
        c_hi = np.clip(beta_ref * rho + root, a, rz)
        c_lo = np.where(disc >= 0.0, c_lo, a)
        c_hi = np.where(disc >= 0.0, c_hi, a)
        ksub = self._ksub(span)
        segs = [
            self._panel_nodes(a, c_lo, ksub),
            self._panel_nodes(c_lo, c_hi, ksub),
            self._panel_nodes(c_hi, rz, ksub),
        ]
        z2 = np.concatenate([s[0] for s in segs], axis=1)
        w2 = np.concatenate([s[1] for s in segs], axis=1)

        two_ss = 2.0 * self.ch.sigma_sq
        s_sq = np.maximum(rz[:, None] ** 2 - z2**2, 0.0)
        s = np.sqrt(s_sq)
        line = l_line(z2, beta_ref[:, None], rho)
        live = (w2 > 0.0) & (line > -s)
        cut = live & (line < s)
        half_disk = np.zeros_like(z2)
        half_disk[live] = 0.5 * self._g(0.5 * (self.n - 2), s_sq[live] / two_ss)
        hmass = 2.0 * half_disk
        # Odd part over [0, |l|] of the even z3 integrand, |l| < s here.
        l_cut, s_sq_cut = line[cut], s_sq[cut]
        u = np.abs(l_cut)
        z3 = u[:, None] * (0.5 * (_GL_X + 1.0))
        w3 = (0.5 * u)[:, None] * _GL_W
        inner3 = np.sum(
            w3 * self._phi(z3) * self._g(0.5 * (self.n - 3), (s_sq_cut[:, None] - z3**2) / two_ss),
            axis=1,
        )
        hmass[cut] = half_disk[cut] + np.sign(l_cut) * inner3
        return np.sum(w2 * self._phi(z2) * hmass, axis=1)

    # -- outer z1 integrals ------------------------------------------------

    def _outer(self, inner, tail_log_bound: float, label: str) -> _Term:
        f = lambda z1: self._phi(z1) * inner(np.asarray(z1, dtype=float))
        res = adaptive_integrate(f, self.z1_lo, self.sqrt_n, self.tol)
        log_value = math.log(res.value) if res.value > 0.0 else _NEG_INF
        log_error = math.log(res.error) if res.error > 0.0 else _NEG_INF
        return _Term(log_value, log_error, _LOG_Q10 + tail_log_bound, res.converged, label)

    def _cached(self, key: tuple, compute) -> _Term:
        """The cached term under key, computed on first use.  Every use of
        an unconverged term is recorded, so each bound call names all the
        unconverged terms it used, whichever call computed them."""
        term = self._cache.get(key)
        if term is None:
            term = self._cache[key] = compute()
        if not term.converged:
            self.trouble.append(term.label)
        return term

    def _tail_beyond(self, h: int) -> float:
        # Log Gaussian mass of z2 past the weight-h threshold at z1_lo.
        return log_q_function(float(beta_h(self.z1_lo, h, self.geo)) / self.sigma)

    def pair_term(self, h: int) -> _Term:
        return self._cached(("pair", h), lambda: self._outer(
            lambda z1: self._pair_given_z1(z1, h), self._tail_beyond(h), f"pair(h={h})"
        ))

    def triple_term(self, h: int, w_ref: int, rho: float) -> _Term:
        return self._cached(("triple", h, w_ref, rho), lambda: self._outer(
            lambda z1: self._triple_given_z1(z1, h, beta_h(z1, w_ref, self.geo), rho),
            self._tail_beyond(h),
            f"conditioned(h={h}, ref={w_ref})",
        ))

    def cap_term(self) -> _Term:
        def compute():
            cut = self._cap_given_z1(np.array([self.z1_lo]))[0]
            tail = math.log(cut) if cut > 0.0 else _NEG_INF
            return self._outer(self._cap_given_z1, tail, "cap")

        return self._cached(("cap",), compute)

    # -- assembly ----------------------------------------------------------

    def assemble(
        self,
        weighted: dict[int, float],
        terms: list[_Term],
        include_q: bool = True,
        ahp_layer: int | None = None,
    ) -> BoundResult:
        """Sum the weighted spectrum logs with the cap (and optionally the
        apex tail); terms carry the error budgets behind the weighted logs."""
        cap = self.cap_term()
        logs = list(weighted.values()) + [cap.log_value]
        tail_terms = {"cap": cap.log_value, "q": self.log_q_term if include_q else _NEG_INF}
        if include_q:
            logs.append(self.log_q_term)
        log_value = float(logsumexp(logs)) if logs else _NEG_INF
        err_logs = [t.log_error for t in terms] + [t.log_tail for t in terms]
        err_logs += [cap.log_error, cap.log_tail]
        error = float(np.exp(logsumexp(err_logs))) if err_logs else 0.0
        converged = cap.converged and all(t.converged for t in terms)
        return BoundResult(
            value=float(np.exp(log_value)),
            log_value=log_value,
            per_weight=weighted,
            cone_radius=self.geo.r,
            tail_terms=tail_terms,
            error_estimate=error,
            converged=converged,
            ahp_layer=ahp_layer,
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
    """Tangential-sphere bound on the block error probability.

    Sums the per-weight pair terms inside the optimized cone, the chi-square
    cap leakage, and the Gaussian tail beyond the apex.
    """
    eng = _terms_for(spec, ch, tol, terms)
    # Layer n conditions nothing: its terms are the plain pair terms.
    return eng.finish(eng.assemble(*_layer_terms(eng, spec, spec.n, extend=False)))


def tsb_bit(
    io: Iowef, ch: ChannelPoint, tol: Tolerance = BOUND_TOL, *, terms=None
) -> BoundResult:
    """Tangential-sphere bound on the bit error probability: the block
    pipeline run on the information-bit reweighted spectrum, with that
    spectrum's own cone radius; terms must come from a plan on it."""
    return tsb_block(bit_weight_transform(io), ch, tol, terms=terms)


def itsb(
    spec: DistanceSpectrum, ch: ChannelPoint, tol: Tolerance = BOUND_TOL, *, terms=None
) -> BoundResult:
    """Conditioned tangential-sphere bound: one minimum-weight codeword
    anchors the error events and every other pairwise event is intersected
    with the anchor's complement, shrinking each term by a z3 wedge.  Each
    weight h takes rho_min_h(h, d_min, n), the most negative correlation
    admissible against the anchor weight.
    """
    eng = _terms_for(spec, ch, tol, terms)
    d = spec.d_min
    weighted: dict[int, float] = {}
    used: list[_Term] = []
    anchor = eng.pair_term(d) if d < spec.n else None
    for h in eng.plan.included:
        if h < d:
            # Weights below the effective d_min are skipped, not bounded
            # (open item 5a in ROADMAP.md).
            continue
        coeff = float(spec.log_a[h]) if h != d else _log_minus_one(float(spec.log_a[h]))
        parts = []
        if coeff > _NEG_INF:
            t = eng.triple_term(h, d, rho_min_h(h, d, spec.n)).scaled(coeff)
            parts.append(t.log_value)
            used.append(t)
        if h == d and anchor is not None:
            parts.append(anchor.log_value)
            used.append(anchor)
        if parts:
            weighted[h] = float(logsumexp(parts))
    return eng.finish(eng.assemble(weighted, used))


def _layer_parts(
    eng: _Engine, spec: DistanceSpectrum, w: int, extend: bool
) -> tuple[_Term | None, list]:
    """Layer w's anchor term and its other terms in assembly order.  Each
    part is (h, log_coeff, term): term() computes a term of weight h that
    lies inside the pair event of pair_term(h), and log_coeff is its
    multiplicity.  A layer inside the cone has the anchor pair_term(w), the
    extension self-term when extend is set, then one conditioned term per
    included weight h != w.

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
        return None, [(h, float(spec.log_a[h]), lambda h=h: eng.pair_term(h))
                      for h in eng.plan.included]
    # The extension pairs exist whether or not the code has weight-w words;
    # only the cone geometry can zero them out.
    parts = []
    if extend:
        parts.append((w, math.log(math.comb(n, w)), lambda: eng.triple_term(w, w, rho_ww(w, n))))
    for h in eng.plan.included:
        if h != w:
            parts.append((h, float(spec.log_a[h]),
                          lambda h=h: eng.triple_term(h, w, rho_max_wh(w, h, n))))
    return eng.pair_term(w), parts


def _layer_terms(
    eng: _Engine, spec: DistanceSpectrum, w: int, extend: bool
) -> tuple[dict[int, float], list[_Term]]:
    """Weighted logs and error terms of layer w: the anchor and spectrum
    terms (the envelope), plus the extension self-term when extend is set.
    Layer n, like every layer outside the cone, is the plain pair terms
    A_h P_h of tsb_block."""
    anchor, parts = _layer_parts(eng, spec, w, extend)
    terms = [] if anchor is None else [anchor]
    weighted: dict[int, float] = {}
    self_term = None
    for h, log_coeff, term in parts:
        t = term().scaled(log_coeff)
        terms.append(t)
        if h == w:
            self_term = t
        else:
            weighted[h] = t.log_value
    if anchor is not None:
        weighted[w] = anchor.log_value
        if self_term is not None:
            weighted[w] = float(logsumexp([anchor.log_value, self_term.log_value]))
    return weighted, terms


# A layer is pruned once a partial sum of its terms exceeds the best
# assembled layer by this much in log: far more than the rounding of either
# sum (a few ulps of |log value| < 1e3), so no layer that would win or tie
# is ever pruned.
_PRUNE_MARGIN = 1e-12


def _layer_exceeds(
    eng: _Engine, spec: DistanceSpectrum, w: int, extend: bool, bound: float
) -> bool:
    """Whether layer w's assembly provably exceeds the log value bound.
    Its terms are nonnegative, so every partial sum is a lower bound.  The
    sum takes the cap, the apex tail and the anchor first, then the other
    terms largest upper bound first, and stops as soon as it passes
    bound + _PRUNE_MARGIN; it is kept relative to bound, in linear scale."""
    limit = math.exp(_PRUNE_MARGIN)
    total = 0.0

    def passes(log_term: float) -> bool:
        nonlocal total
        if log_term > _NEG_INF:
            total += math.exp(min(log_term - bound, 700.0))  # no overflow
        return total > limit

    anchor, parts = _layer_parts(eng, spec, w, extend)
    if (passes(eng.cap_term().log_value) or (extend and passes(eng.log_q_term))
            or (anchor is not None and passes(anchor.log_value))):
        return True
    parts.sort(key=lambda p: (-(p[1] + eng.pair_term(p[0]).log_value), p[0]))
    return any(passes(c + term().log_value) for _, c, term in parts)


def _best_layer(eng: _Engine, spec: DistanceSpectrum, extend: bool) -> BoundResult:
    """Minimize the per-layer assembly over the layers 1..n when extend
    selects the added-hyper-plane bound (self-term, apex tail), else over
    the envelope's layers 1..n-1.

    Branch and bound, exact: the incumbent layer (n for ahp; d_min for psi,
    or 1 when d_min = n) is assembled first.  Every term of a layer is
    nonnegative, so a partial sum bounds the layer's value from below; a
    layer is pruned once that bound exceeds the best assembled value by
    _PRUNE_MARGIN, more than the rounding of either sum, so no layer that
    could win or tie is pruned.  The others are assembled in full and the
    smallest value wins, ties going to the smallest layer, exactly as when
    every layer is assembled.  Which layers are pruned depends only on term
    values, never on what the cache held before."""
    top = spec.n if extend else spec.n - 1
    first = top if extend else (spec.d_min if spec.d_min <= top else 1)
    found: dict[int, BoundResult] = {}
    best = math.inf
    for w in [first] + [w for w in range(1, top + 1) if w != first]:
        if w != first and _layer_exceeds(eng, spec, w, extend, best):
            continue
        weighted, terms = _layer_terms(eng, spec, w, extend)
        found[w] = eng.assemble(weighted, terms, include_q=extend, ahp_layer=w)
        best = min(best, found[w].log_value)
    win = min(found, key=lambda w: (found[w].log_value, w))
    return replace(
        found[win],
        layers_assembled=len(found),
        layers_pruned=top - len(found),
        layer_in_cone=win in eng.plan.geom_included,
    )


def ahp(
    spec: DistanceSpectrum, ch: ChannelPoint, tol: Tolerance = BOUND_TOL, *, terms=None
) -> BoundResult:
    """Added-hyper-plane bound: extend the code with every weight-w word,
    anchor on that layer, and keep the best layer w = 1..n.

    A layer outside the cone, w = n among them, conditions nothing and is
    the plain tangential-sphere assembly (see _layer_parts), so ahp never
    exceeds tsb_block.  The search starts from layer n, whose pair terms
    tsb_block shares, and assembles in full only the layers that can still
    win (see _best_layer): the result is the one an exhaustive search
    returns, ties going to the smallest layer, and
    layers_assembled/layers_pruned report the work.
    """
    eng = _terms_for(spec, ch, tol, terms)
    return eng.finish(_best_layer(eng, spec, extend=True))


def psi(
    spec: DistanceSpectrum, ch: ChannelPoint, tol: Tolerance = BOUND_TOL, *, terms=None
) -> BoundResult:
    """Lower envelope of the two conditioned bounds: the per-layer anchor and
    spectrum terms with neither the extension pair term nor the apex tail,
    minimized over the layer w = 1..n-1.  Not itself an upper bound on the
    error probability; it sandwiches the conditioned bounds from below.
    A layer outside the cone is tsb's pair terms without the apex tail.

    The search starts from layer d_min and prunes like ahp's, by psi's own
    values, so psi after ahp on one cache may integrate terms of layers
    that ahp pruned."""
    eng = _terms_for(spec, ch, tol, terms)
    return eng.finish(_best_layer(eng, spec, extend=False))


def triple_term(
    h: int,
    beta_ref: float,
    rho: float,
    geo: ConeGeometry,
    ch: ChannelPoint,
    z1: float,
    tol: Tolerance = BOUND_TOL,
) -> float:
    """Log of the conditioned kernel at a single z1: the probability that z2
    lands in [beta_h(z1), r_z1], z3 stays below the correlation line through
    beta_ref, and the residual chi-square mass fits inside the cone section.

    This is the building block the improved bounds integrate over z1; it is
    exposed for direct inspection (monotonicity in rho, oracle comparisons).
    """
    if not 0 < h < geo.n:
        raise ValueError(f"need 0 < h < n, got h={h}")
    if rho >= 1.0:
        raise ValueError(f"need rho < 1, got rho={rho}")
    if z1 >= math.sqrt(geo.n):
        return _NEG_INF
    eng = _Engine(geo, ch, tol)
    z1_arr = np.array([float(z1)])
    ref_arr = np.array([float(beta_ref)])
    value = float(eng._triple_given_z1(z1_arr, h, ref_arr, float(rho))[0])
    return math.log(value) if value > 0.0 else _NEG_INF

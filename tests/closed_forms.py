"""Closed forms and search routines that only the tests use as references:
the kernel's limits as the engine forms them inline (the cone's section
radius r_z1, the half-distance threshold beta_h with its slope delta_slope
and the z3 line l_line), the admissible correlation interval between two
weights, the slope ratio zeta_wh, the conditioned-term exponent g_fn with its k = 0 face multiplier
and the multiplier search verify_kstar_zero (the k = 0 face degeneracy that
chernoff_psi relies on, acceptance criterion 5), the same-weight sheared
exponent profile whose stationary points the same check verifies, the
conditioned kernel at one z1 (log_kernel), the vector grid-plus-golden
minimizer that minimize_1d and the exact Chernoff tilt solve are checked
against, the scalar closed-form exponent and weight scan that the
exponents' array scan is checked against, and three code families with an
exact ML block error: the simplex codes, the first-order Reed-Muller codes
and the repetition codes (acceptance criterion 13)."""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize as _box_minimize
from scipy.special import log_ndtr, ndtr

from tsbounds import bounds
from tsbounds.codes import GeneratorMatrix
from tsbounds.exponents import _check_channel
from tsbounds.geometry import _check_interior_weight, rho_max_wh, rho_ww
from tsbounds.numerics import DEFAULT_TOL, Tolerance, minimize_1d

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def rho_bounds(di: int, dj: int, n: int) -> tuple[float, float]:
    """Admissible correlation interval between codewords of weights di, dj."""
    for name, value in (("di", di), ("dj", dj)):
        if not 0 < value < n:
            raise ValueError(f"{name} must satisfy 0 < {name} < n={n}, got {value}")
    s = math.sqrt((di * dj) / ((n - di) * (n - dj)))
    lower = -min(s, 1.0 / s)
    upper = (min(di, dj) * (n - max(di, dj))) / math.sqrt(
        di * dj * (n - di) * (n - dj)
    )
    return lower, upper


def r_z1(geo, z1):
    """Cross-section radius of the cone after a radial noise displacement
    z1: linear, decreasing, and zero at the apex z1 = sqrt(n)."""
    sqrt_n = math.sqrt(geo.n)
    return (sqrt_n - np.asarray(z1, dtype=float)) * (geo.r / sqrt_n)


def delta_slope(h: int, n: int) -> float:
    """Slope sqrt(h/(n-h)) of the half-distance line for weight h."""
    _check_interior_weight(h, n, "h")
    return math.sqrt(h / (n - h))


def beta_h(z1, h: int, geo):
    """Half-distance threshold (sqrt(n) - z1) * sqrt(h/(n-h)) in the
    cross-section plane at radial displacement z1."""
    slope = delta_slope(h, geo.n)
    return (math.sqrt(geo.n) - np.asarray(z1, dtype=float)) * slope


def l_line(z2, beta_ref, rho: float):
    """Conditional threshold (beta_ref - rho * z2) / sqrt(1 - rho^2) for the
    third noise coordinate, given the second lies at z2.  |rho| = 1 is a
    genuine singularity and is rejected."""
    if abs(rho) >= 1.0:
        raise ValueError(f"correlation must satisfy |rho| < 1, got {rho}")
    return (beta_ref - rho * np.asarray(z2, dtype=float)) / math.sqrt(1.0 - rho * rho)


def zeta_wh(w: int, h: int, n: int) -> float:
    """Slope ratio sqrt(w(n-h)/(h(n-w))) = delta_slope(w)/delta_slope(h)."""
    _check_interior_weight(w, n, "w")
    _check_interior_weight(h, n, "h")
    return math.sqrt((w * (n - h)) / (h * (n - w)))


def log_kernel(h, beta_ref, rho, geo, ch, z1) -> float:
    """Log of the conditioned kernel at a single z1, -inf where it is 0: the
    probability that z2 lands in [beta_h(z1), r_z1], z3 stays below the
    correlation line through beta_ref, and the residual chi-square mass fits
    inside the cone section.  The engine's kernel on one z1 row."""
    eng = bounds._Engine(geo, ch, bounds.BOUND_TOL)
    row = eng._triple_given_z1(np.array([float(z1)]), h, np.array([float(beta_ref)]),
                               float(rho))
    return math.log(row[0]) if row[0] > 0.0 else -math.inf


def g_fn(c: float, t: float, k: float, s: float, eta: float, w: int, h: int, n: int,
         spec) -> float:
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
    _check_channel(c)
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


def verify_kstar_zero(c: float, eta: float, w: int, h: int, n: int, spec,
                      t: float | None = None) -> tuple[float, float, float]:
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


def _alpha_same_weight(w: int, n: int) -> float:
    rho = rho_ww(w, n)
    return math.sqrt((1.0 + rho) / (1.0 - rho))


def _g1(
    c: float, t: float, xi: float, tau: float, eta: float, w: int, n: int
) -> float:
    """Same-weight conditioned exponent in the sheared multiplier
    coordinates xi = s - k/sqrt(1-rho^2), tau = s - k rho/sqrt(1-rho^2)
    (spectrum constant dropped; only the stationary geometry matters)."""
    al2 = _alpha_same_weight(w, n) ** 2
    dw = math.sqrt(w / (n - w))
    a1 = 1.0 + 2.0 * t * eta
    b1 = 1.0 - 2.0 * t
    sq = math.sqrt(2.0 * n * c)
    return (
        (4.0 * t * eta * n * c + 2.0 * sq * xi * dw - (dw * xi) ** 2) / (2.0 * a1)
        - tau * tau / (2.0 * b1)
        - (xi - tau) ** 2 * al2 / (2.0 * b1)
        + 0.5 * n * math.log(b1)
    )


def _tau_star(xi: float, w: int, n: int) -> float:
    al2 = _alpha_same_weight(w, n) ** 2
    return al2 * xi / (1.0 + al2)


def _g2(c: float, t: float, xi: float, eta: float, w: int, n: int) -> float:
    """_g1 with tau eliminated at its stationary value."""
    al2 = _alpha_same_weight(w, n) ** 2
    eps = al2 / (1.0 + al2)
    dw = math.sqrt(w / (n - w))
    a1 = 1.0 + 2.0 * t * eta
    b1 = 1.0 - 2.0 * t
    sq = math.sqrt(2.0 * n * c)
    return (
        (4.0 * t * eta * n * c + 2.0 * sq * xi * dw - (dw * xi) ** 2) / (2.0 * a1)
        - eps * xi * xi / (2.0 * b1)
        + 0.5 * n * math.log(b1)
    )


def _xi_star(c: float, t: float, eta: float, w: int, n: int) -> float:
    """_g2's stationary xi: the k = 0 face multiplier with the same-weight
    shear eps = alpha^2 / (1 + alpha^2) in place of 1."""
    al2 = _alpha_same_weight(w, n) ** 2
    eps = al2 / (1.0 + al2)
    dsq = w / (n - w)
    b1 = 1.0 - 2.0 * t
    a1 = 1.0 + 2.0 * t * eta
    return math.sqrt(2.0 * n * c * dsq) * b1 / (dsq * b1 + eps * a1)


def minimize_componentwise(f, lo, hi, tol: Tolerance = DEFAULT_TOL, grid_points: int = 129):
    """Minimize each component of f over its own interval [lo[i], hi[i]];
    component i of f's value vector may depend on abscissa i alone.

    Per component: an evenly spaced grid scan, whose minimum (ties broken
    toward the smallest argument) seeds a golden-section search on its
    neighboring grid interval, stopped once the bracket meets tol or after
    tol.max_iter steps.  Returns the minimizing abscissae and values.
    """
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    if not np.all(lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    xs = np.linspace(lo, hi, grid_points)
    fs = np.array([f(x) for x in xs])
    best = np.argmin(fs, axis=0)  # argmin returns the first (smallest-x) minimum
    idx = np.arange(lo.size)
    a = xs[np.maximum(best - 1, 0), idx]
    b = xs[np.minimum(best + 1, grid_points - 1), idx]
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = np.array(f(x1), dtype=float), np.array(f(x2), dtype=float)
    for _ in range(tol.max_iter):
        live = b - a > tol.abs_tol + tol.rel_tol * (np.abs(a) + np.abs(b))
        if not live.any():
            break
        take = f1 <= f2
        left, right = live & take, live & ~take
        b[left], x2[left], f2[left] = x2[left], x1[left], f1[left]
        a[right], x1[right], f1[right] = x1[right], x2[right], f2[right]
        x1[left] = b[left] - _GOLDEN * (b[left] - a[left])
        x2[right] = a[right] + _GOLDEN * (b[right] - a[right])
        fx = f(np.where(left, x1, x2))
        f1[left] = fx[left]
        f2[right] = fx[right]
    xm = 0.5 * (a + b)
    fm = f(xm)
    seed = fs[best, idx] <= fm
    return np.where(seed, xs[best, idx], xm), np.where(seed, fs[best, idx], fm)


def closed_form(c: float, delta: float, r: float) -> tuple[float, float, float]:
    """Per-delta objective of the common-exponent closed form, with its
    (gamma, c0) diagnostics, in scalar math-module arithmetic.  Requires
    r >= 0.

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


def scalar_scan_exponent(rate_fn, per_delta):
    """The asymptotic exponents' minimization over normalized weights with
    every weight evaluated alone, in scalar arithmetic; per_delta(d, r) takes
    floats.  A finite code spectrum is looped over its weights h/n, keeping
    the first minimum.  An analytic rate gets a 4096-point scan of the
    admissible weights (r >= 0; the rates taken in one call), then
    minimize_1d over the neighboring grid interval of its first minimum, 17
    points, each evaluated alone too.
    Returns (value, delta)."""

    def one(d):
        r = rate_fn(d)
        return per_delta(d, r) if r >= 0.0 else math.inf

    if rate_fn.kind == "code" and rate_fn.n:
        best = (math.inf, None)
        for h in range(1, rate_fn.n + 1):
            v = one(h / rate_fn.n)
            if v < best[0]:
                best = (v, h / rate_fn.n)
        return best
    m = 4096
    ds = np.linspace(0.0, 1.0, m + 1)[1:]
    rs = np.broadcast_to(rate_fn(ds), ds.shape).tolist()
    vals = [per_delta(d, r) if r >= 0.0 else math.inf for d, r in zip(ds.tolist(), rs)]
    i = int(np.argmin(vals))
    d, v = minimize_1d(lambda x: np.array([one(d) for d in x.tolist()]),
                       float(ds[max(i - 1, 0)]), float(ds[min(i + 1, m - 1)]),
                       grid_points=17)
    return (v, d) if v < vals[i] else (vals[i], float(ds[i]))


# ---------------------------------------------------------------------------
# codes with an exact ML block error
# ---------------------------------------------------------------------------

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_EXACT_TOL = {"epsabs": 0.0, "epsrel": 1e-12, "limit": 200}


def simplex(m: int) -> GeneratorMatrix:
    """The (2^m - 1, m) simplex code: its columns are the nonzero m-bit
    vectors, so every nonzero codeword has weight 2^(m-1)."""
    cols = np.arange(1, 1 << m)
    bits = (cols[None, :] >> np.arange(m)[:, None]) & 1
    return GeneratorMatrix(k=m, n=(1 << m) - 1, bits=bits)


def rm1(m: int) -> GeneratorMatrix:
    """The first-order Reed-Muller code RM(1, m), (2^m, m + 1): the all-ones
    row over the m coordinate functions of the points of F_2^m."""
    cols = np.arange(1 << m)
    bits = np.vstack([np.ones(1 << m, dtype=int), (cols[None, :] >> np.arange(m)[:, None]) & 1])
    return GeneratorMatrix(k=m + 1, n=1 << m, bits=bits)


def repetition(n: int) -> GeneratorMatrix:
    """The (n, 1) repetition code."""
    return GeneratorMatrix(k=1, n=n, bits=np.ones((1, n), dtype=np.uint8))


def _density(x: float, mean: float) -> float:
    return math.exp(-0.5 * (x - mean) ** 2) / _SQRT_2PI


def simplex_error(m: int, c: float) -> float:
    """Exact ML block error of simplex(m) at Es/N0 = c.  Under BPSK its
    M = 2^m codewords form a regular simplex, whose error is that of M
    orthogonal signals of M/(M-1) times the energy (Proakis):
    1 - int phi(x - mu) Phi(x)^(M-1) dx with mu = sqrt(2 n c M/(M-1)) =
    sqrt(2 c M), the integrand's 1 - Phi^(M-1) taken as
    -expm1((M-1) log Phi) so that no digits cancel at high SNR."""
    big_m = 1 << m
    mu = math.sqrt(2.0 * c * big_m)
    def f(x):
        return _density(x, mu) * -math.expm1((big_m - 1) * float(log_ndtr(x)))
    return quad(f, -12.0, mu + 12.0, points=(0.5 * mu, mu), **_EXACT_TOL)[0]


def rm1_error(m: int, c: float) -> float:
    """Exact ML block error of rm1(m) at Es/N0 = c.  Under BPSK its codewords
    form a biorthogonal set of n = 2^m antipodal pairs (Proakis):
    Q(mu) + int_0^inf phi(x - mu) [1 - (1 - 2 Q(x))^(n-1)] dx with
    mu = sqrt(2 n c), the bracket taken as -expm1((n-1) log1p(-2 Q(x)))."""
    n = 1 << m
    mu = math.sqrt(2.0 * n * c)
    def f(x):
        return _density(x, mu) * -math.expm1((n - 1) * math.log1p(-2.0 * float(ndtr(-x))))
    tail = quad(f, 0.0, mu + 12.0, points=(0.5 * mu, mu), **_EXACT_TOL)[0]
    return float(ndtr(-mu)) + tail


def repetition_error(n: int, c: float) -> float:
    """Exact ML block error of repetition(n) at Es/N0 = c: Q(sqrt(2 n c))."""
    return float(ndtr(-math.sqrt(2.0 * n * c)))

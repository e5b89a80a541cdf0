"""Monte-Carlo maximum-likelihood decoding over the BPSK-AWGN channel.

Ground-truth oracle for the analytic bounds: exact ML decoding, with
counter-based random numbers so the estimate is bit-identical for a fixed
seed regardless of worker count or scheduling.  A trial whose d smallest
agreements with the sent codeword (d the minimum weight) sum past a rounding
margin cannot err, and is decided without the codebook: the soft-decision
optimality test of Taipale & Pursley (IEEE Trans. IT, 1991), made exact in
floating point.  Only the other trials are correlated against all 2^k
codeword images.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from .bounds import ChannelPoint
from .codes import EnumerationCapError, GeneratorMatrix

__all__ = [
    "CI_ALPHA",
    "McEstimate",
    "clopper_pearson",
    "simulate_ml",
    "DECODING_CAP",
]

# A full decode, for each trial the screen cannot settle, evaluates 2^k
# correlations; the codebook of images is 2^k * n doubles.
DECODING_CAP = 16

# Two-sided miss probability of the reported block-error interval (95 %).
CI_ALPHA = 0.05

_CHUNK = 8192
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class McEstimate:
    """Estimate from `trials` independent ML-decoded transmissions.

    std_error applies the binomial formula sqrt(p(1-p)/trials) to each rate
    with the trial count as denominator: `std_error` belongs to the block
    error rate and `bit_std_error` to the bit error rate.  It is 0 when no
    trial erred; block_error_ci() is the interval that stays informative
    there.

    full_decodes counts the trials that reached the correlation decoder,
    the ones the exact screen could not settle; like the rates it depends
    only on the inputs and the seed, not on the thread count.
    """

    block_error_rate: float
    bit_error_rate: float
    trials: int
    std_error: float
    bit_std_error: float
    seed: int
    full_decodes: int

    def __post_init__(self) -> None:
        for p in (self.block_error_rate, self.bit_error_rate):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"rate outside [0, 1]: {p}")

    def block_error_ci(self) -> tuple[float, float]:
        """Exact two-sided 1 - CI_ALPHA interval for the block error rate."""
        return clopper_pearson(round(self.block_error_rate * self.trials), self.trials, CI_ALPHA)


def clopper_pearson(errors: int, trials: int, alpha: float = CI_ALPHA) -> tuple[float, float]:
    """Clopper-Pearson interval for a binomial rate seen as `errors` in
    `trials`: the alpha/2 and 1 - alpha/2 beta quantiles, exact at every
    count.  With no error the lower end is 0 and the upper end
    1 - (alpha/2)^(1/trials); with every trial in error, symmetrically."""
    if not 0 <= errors <= trials or trials < 1:
        raise ValueError(f"need 0 <= errors <= trials and trials >= 1, got {errors}, {trials}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"need 0 < alpha < 1, got {alpha}")
    lo = 0.0 if errors == 0 else float(betaincinv(errors, trials - errors + 1, alpha / 2))
    hi = 1.0 if errors == trials else float(betaincinv(errors + 1, trials - errors, 1 - alpha / 2))
    return lo, hi


def _codeword_images(g: GeneratorMatrix) -> np.ndarray:
    msgs = np.arange(1 << g.k, dtype=np.uint32)
    bits = ((msgs[:, None] >> np.arange(g.k, dtype=np.uint32)[None, :]) & 1).astype(np.uint8)
    cw = (bits @ g.bits) & 1
    return 2.0 * cw.astype(np.float64) - 1.0


def _min_weight(images: np.ndarray) -> int:
    # Image bit +1 is a codeword 1; image 0 is the zero codeword.
    return int(np.min(np.count_nonzero(images[1:] > 0.0, axis=1)))


def _decide(
    y: np.ndarray, sent: np.ndarray, images: np.ndarray, d: int
) -> tuple[int, int, int]:
    """Block errors, bit errors and full decodes of ML decoding the
    received words y (m, n), sent as the images indexed by `sent`, of a
    code of minimum weight d (d >= 1, as the generator has full rank).

    Screen.  Let v_j = y_j * s_j be the agreement with the sent image s
    (exact, as s_j = +-1) and S_d the sum of the d smallest v_j.  For any
    rival image c, corr(s) - corr(c) = 2 * (sum of v_j over the positions D
    where they differ), and |D| >= d by linearity.  When S_d > 0 the d-th
    smallest v_j is positive, so that sum is at least S_d.

    Rounding, with u = eps/2 and gamma_m = m*u / (1 - m*u).  Each computed
    correlation is within gamma_(n-1) * sum|y_j| of its exact value in any
    summation order (the products by +-1 are exact), so every computed
    rival stays strictly below the computed sent correlation once the exact
    S_d exceeds gamma_(n-1) * sum|y_j|.  The computed S_d is within
    gamma_(d-1) * sum|y_j| of the exact one, and the two errors together,
    (gamma_(n-1) + gamma_(d-1)) * sum|y_j| < 2 * n * eps * sum|y_j|, are
    below half the margin 4 * n * eps * sum|y_j| (taken on the computed
    sum, low by a factor of at most 1 - gamma_(n-1)).  So on a trial whose
    computed S_d exceeds the margin, the full decoder's `>=` test below is
    False for every rival: it is decoded error-free without the codebook.

    Only the other trials, the full decodes, are correlated against all
    2^k images, sub-chunked; ties there go to the rival and count as
    errors."""
    v = y * images[sent]
    s_d = np.sum(np.partition(v, d - 1, axis=1)[:, :d], axis=1)
    margin = 4.0 * y.shape[1] * np.finfo(np.float64).eps * np.sum(np.abs(y), axis=1)
    full = np.flatnonzero(~(s_d > margin))
    y, sent = y[full], sent[full]
    k = images.shape[0].bit_length() - 1
    block_errors = 0
    bit_errors = 0
    # Sub-chunk the correlation GEMM to keep the (m_sub, 2^k) block modest.
    m_sub = max(32, min(2048, (1 << 24) >> k))
    for lo in range(0, len(full), m_sub):
        hi = min(lo + m_sub, len(full))
        corr = y[lo:hi] @ images.T
        r = np.arange(hi - lo)
        corr_sent = corr[r, sent[lo:hi]].copy()
        corr[r, sent[lo:hi]] = -np.inf
        rival = np.argmax(corr, axis=1)
        # Ties go to the rival: decoding that lands on the boundary counts
        # as an error.
        err = corr[r, rival] >= corr_sent
        block_errors += int(np.count_nonzero(err))
        flips = np.bitwise_xor(rival[err], sent[lo:hi][err])
        bit_errors += int(np.sum(np.bitwise_count(flips.astype(np.uint64))))
    return block_errors, bit_errors, len(full)


def _chunk_counts(
    chunk_idx: int,
    m: int,
    images: np.ndarray,
    d: int,
    sigma: float,
    seed: int,
    random_transmit: bool,
) -> tuple[int, int, int]:
    rng = np.random.Generator(
        np.random.Philox(key=[seed & _MASK64, chunk_idx & _MASK64])
    )
    n = images.shape[1]
    noise = rng.normal(0.0, sigma, size=(m, n))
    if random_transmit:
        sent = rng.integers(0, images.shape[0], size=m, dtype=np.int64)
    else:
        sent = np.zeros(m, dtype=np.int64)
    return _decide(noise + images[sent], sent, images, d)


def simulate_ml(
    g: GeneratorMatrix,
    ch: ChannelPoint,
    trials: int,
    seed: int,
    transmit: str = "zero",
    threads: int = 1,
) -> McEstimate:
    """Estimate ML block and bit error rates by direct simulation.

    Transmits the all-zero codeword (the channel and decoder are symmetric,
    so this loses no generality; transmit="random" draws a uniform message
    per trial as a linearity sanity check), adds white Gaussian noise with
    sigma^2 = 1/(2c), and decodes by maximum correlation over all 2^k
    codeword images, skipping the correlations on trials that an exact
    screen proves error-free (`_decide`).  Bit errors are counted on the
    information bits of the decoded codeword.

    Randomness is counter-based, keyed by (seed, chunk index), so results
    are reproducible and independent of the thread count.
    """
    if g.k > DECODING_CAP:
        raise EnumerationCapError(
            f"full ML decoding needs k <= {DECODING_CAP}, got k={g.k}"
        )
    if trials < 10_000:
        raise ValueError(f"need trials >= 10000 for a stable estimate, got {trials}")
    if transmit not in ("zero", "random"):
        raise ValueError(f"transmit must be 'zero' or 'random', got {transmit!r}")
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")

    images = _codeword_images(g)
    d = _min_weight(images)
    sigma = math.sqrt(ch.sigma_sq)
    random_transmit = transmit == "random"
    sizes = [
        (idx, min(_CHUNK, trials - start))
        for idx, start in enumerate(range(0, trials, _CHUNK))
    ]
    work = lambda job: _chunk_counts(
        job[0], job[1], images, d, sigma, seed, random_transmit
    )
    if threads == 1:
        counts = [work(job) for job in sizes]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = list(pool.map(work, sizes))
    block_errors = sum(c[0] for c in counts)
    bit_errors = sum(c[1] for c in counts)
    full_decodes = sum(c[2] for c in counts)

    p_block = block_errors / trials
    p_bit = bit_errors / (trials * g.k)
    return McEstimate(
        block_error_rate=p_block,
        bit_error_rate=p_bit,
        trials=trials,
        std_error=math.sqrt(p_block * (1.0 - p_block) / trials),
        bit_std_error=math.sqrt(p_bit * (1.0 - p_bit) / trials),
        seed=seed,
        full_decodes=full_decodes,
    )

"""Monte-Carlo maximum-likelihood decoding over the BPSK-AWGN channel.

Ground-truth oracle for the analytic bounds: exhaustive correlation decoding
against all 2^k codeword images, with counter-based random numbers so the
estimate is bit-identical for a fixed seed regardless of worker count or
scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from .bounds import ChannelPoint
from .codes import EnumerationCapError, GeneratorMatrix
from .numerics import q_function

__all__ = [
    "CI_ALPHA",
    "McEstimate",
    "clopper_pearson",
    "simulate_ml",
    "exact_single_pairwise",
    "DECODING_CAP",
]

# Full ML decoding evaluates 2^k correlations per trial.
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
    """

    block_error_rate: float
    bit_error_rate: float
    trials: int
    std_error: float
    bit_std_error: float
    seed: int

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


def _chunk_counts(
    chunk_idx: int,
    m: int,
    images: np.ndarray,
    sigma: float,
    seed: int,
    k: int,
    random_transmit: bool,
) -> tuple[int, int]:
    rng = np.random.Generator(
        np.random.Philox(key=[seed & _MASK64, chunk_idx & _MASK64])
    )
    n = images.shape[1]
    noise = rng.normal(0.0, sigma, size=(m, n))
    if random_transmit:
        sent = rng.integers(0, images.shape[0], size=m, dtype=np.int64)
    else:
        sent = np.zeros(m, dtype=np.int64)
    rows = np.arange(m)
    block_errors = 0
    bit_errors = 0
    # Sub-chunk the correlation GEMM to keep the (m_sub, 2^k) block modest.
    m_sub = max(32, min(2048, (1 << 24) >> k))
    for lo in range(0, m, m_sub):
        hi = min(lo + m_sub, m)
        y = noise[lo:hi] + images[sent[lo:hi]]
        corr = y @ images.T
        r = rows[: hi - lo]
        corr_sent = corr[r, sent[lo:hi]].copy()
        corr[r, sent[lo:hi]] = -np.inf
        rival = np.argmax(corr, axis=1)
        # Ties go to the rival: decoding that lands on the boundary counts
        # as an error.
        err = corr[r, rival] >= corr_sent
        block_errors += int(np.count_nonzero(err))
        flips = np.bitwise_xor(rival[err], sent[lo:hi][err])
        bit_errors += int(np.sum(np.bitwise_count(flips.astype(np.uint64))))
    return block_errors, bit_errors


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
    codeword images.  Bit errors are counted on the information bits of the
    decoded codeword.

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
    sigma = math.sqrt(ch.sigma_sq)
    random_transmit = transmit == "random"
    sizes = [
        (idx, min(_CHUNK, trials - start))
        for idx, start in enumerate(range(0, trials, _CHUNK))
    ]
    work = lambda job: _chunk_counts(
        job[0], job[1], images, sigma, seed, g.k, random_transmit
    )
    if threads == 1:
        counts = [work(job) for job in sizes]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = list(pool.map(work, sizes))
    block_errors = sum(c[0] for c in counts)
    bit_errors = sum(c[1] for c in counts)

    p_block = block_errors / trials
    p_bit = bit_errors / (trials * g.k)
    return McEstimate(
        block_error_rate=p_block,
        bit_error_rate=p_bit,
        trials=trials,
        std_error=math.sqrt(p_block * (1.0 - p_block) / trials),
        bit_std_error=math.sqrt(p_bit * (1.0 - p_bit) / trials),
        seed=seed,
    )


def exact_single_pairwise(h: int, n: int, ch: ChannelPoint) -> float:
    """Exact ML block error probability of a code whose only nonzero
    codeword has weight h: Q(sqrt(2hc)).  The two signals differ in h
    positions, at Euclidean distance 2*sqrt(h)."""
    if not 0 < h <= n:
        raise ValueError(f"need 0 < h <= n, got h={h}, n={n}")
    return q_function(math.sqrt(2.0 * h * ch.c))

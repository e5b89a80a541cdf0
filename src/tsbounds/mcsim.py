"""Monte-Carlo maximum-likelihood decoding over the BPSK-AWGN channel.

Ground-truth oracle for the analytic bounds: exact ML decoding, each chunk
of trials drawn from its own SFC64 stream keyed by (seed, chunk index), so
the estimate is bit-identical for a fixed seed regardless of worker count
or scheduling.  A rival codeword at Hamming distance w from the sent one
can tie or win only if the w smallest agreements with the sent codeword
sum to at most a rounding margin: the soft-decision optimality test of
Taipale & Pursley (IEEE Trans. IT, 1991), made exact in floating point.
A trial whose d smallest agreements (d the minimum weight) sum past the
margin cannot err and is decided without the codebook; each other trial is
correlated only against the codewords within its distance bound, as in the
candidate pruning of ordered-statistics decoding (Fossorier & Lin, IEEE
Trans. IT, 1995).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from .bounds import ChannelPoint
from .codes import EnumerationCapError, GeneratorMatrix, _encode

__all__ = [
    "CI_ALPHA",
    "McEstimate",
    "clopper_pearson",
    "simulate_ml",
    "DECODING_CAP",
]

# A full decode, for each trial the screen cannot settle, evaluates up to
# 2^k correlations; the codebook of images is 2^k * n doubles, held twice.
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

    full_decodes counts the trials that the first, minimum-distance screen
    could not settle, each of which is correlated against the codewords
    within its distance bound (none, when that bound is below d); like the
    rates it depends only on the inputs and the seed, not on the thread
    count.
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
    _, cw = _encode(g, np.arange(1 << g.k, dtype=np.uint32))
    return 2.0 * cw.astype(np.float64) - 1.0


@dataclass(frozen=True)
class _Codebook:
    """A code's images by message index, and its codewords in weight order
    for candidate decoding.  Built once per simulate_ml call and shared
    read-only by the worker threads."""

    images: np.ndarray  # (2^k, n), +1 at a codeword 1; row 0 is the zero codeword
    d: int  # minimum weight, >= 1 as the generator has full rank
    msgs: np.ndarray  # message indices by (weight, index), the zero codeword first
    agree: np.ndarray  # -images[msgs]: row i turns agreements into corr(s xor msgs[i])
    within: np.ndarray  # within[t]: the number of codewords of weight <= t


def _codebook(g: GeneratorMatrix) -> _Codebook:
    images = _codeword_images(g)
    weights = np.count_nonzero(images > 0.0, axis=1)
    msgs = np.argsort(weights, kind="stable")
    within = np.cumsum(np.bincount(weights, minlength=g.n + 1))
    return _Codebook(images, int(weights[msgs[1]]), msgs, -images[msgs], within)


def _decode_block(
    v: np.ndarray, sent: np.ndarray, book: _Codebook, size: int
) -> tuple[int, int]:
    """Block and bit errors of the trials with agreements v, sent as the
    messages `sent`, decoded against the first `size` codewords in weight
    order, the zero codeword (the sent word itself) among them."""
    corr = v @ book.agree[:size].T
    best = np.max(corr[:, 1:], axis=1)
    # Ties go to the rival: decoding that lands on the boundary counts as
    # an error.
    err = best >= corr[:, 0]
    if not err.any():
        return 0, 0
    # The rival is the first best one in weight order, unless rivals tie
    # each other: the full decoder's argmax then takes the smallest
    # message index, sent xor c by linearity.
    sent = sent[err]
    hit = corr[err, 1:] == best[err, None]
    first = np.argmax(hit, axis=1)
    rival = sent ^ book.msgs[1 + first]
    hit[np.arange(len(sent)), first] = False
    tied = np.flatnonzero(np.any(hit, axis=1))
    row, col = np.nonzero(hit[tied])
    np.minimum.at(rival, tied[row], sent[tied[row]] ^ book.msgs[1 + col])
    flips = np.bitwise_xor(rival, sent)
    return int(np.count_nonzero(err)), int(np.sum(np.bitwise_count(flips.astype(np.uint64))))


def _decide(v: np.ndarray, sent: np.ndarray, book: _Codebook) -> tuple[int, int, int]:
    """Block errors, bit errors and full decodes of ML decoding the
    received words y (m, n), sent as the images indexed by `sent`, given
    as their agreements v (m, n) with the sent images.

    Distance bound.  Let v_j = y_j * s_j be the agreement with the sent
    image s (exact, as s_j = +-1, so |v_j| = |y_j|) and S_w the sum of the
    w smallest v_j.  For a rival image c at Hamming distance w from s, corr(s) - corr(c) =
    2 * (sum of v_j over the w positions where they differ) >= 2 * S_w.

    Rounding, with u = eps/2 and gamma_m = m*u / (1 - m*u).  Each computed
    correlation is within gamma_(n-1) * sum|y_j| of its exact value in any
    summation order (the products by +-1 are exact), so every computed
    rival at distance w stays strictly below the computed sent correlation
    once the exact S_w exceeds gamma_(n-1) * sum|y_j|.  A sum of w of the
    v_j, computed in any order, is within gamma_(w-1) * sum|y_j| of the
    exact one, and the two errors together, (gamma_(n-1) + gamma_(w-1)) *
    sum|y_j| < 2 * n * eps * sum|y_j| for every w <= n, are below half the
    margin 4 * n * eps * sum|y_j| (taken on the computed sum, low by a
    factor of at most 1 - gamma_(n-1)).  So a rival at distance w whose
    computed S_w exceeds the margin never passes the `>=` test of
    correlation decoding: the decoder can skip it.

    Screen.  Every rival is at distance w >= d, the minimum weight, by
    linearity; when S_d > 0 the d-th smallest v_j is positive, so S_w >=
    S_d for every such w, and the bound at w = d covers them all.  A trial
    whose computed S_d (a partition sum) exceeds the margin is decoded
    error-free without the codebook.  The screen runs in two stages, and
    settles the same trials as the row margins alone: first against one
    margin for the whole chunk, 8 * n^2 * eps * max|v|, then against each
    row's own margin for the rows the first stage left.  The chunk margin
    is twice 4 * n * eps * n * max|v|, and n * max|v| >= sum|y_j|; the
    factor 2 covers the computed sum's rounding (below gamma_(n-1) of it),
    so, rounding being monotone, no computed row margin exceeds the
    computed chunk margin while the row sums of |v| are finite (as they are
    for any draw at a finite sigma^2).

    Candidates.  Each other trial, a full decode, takes t, the largest w
    whose computed cumulative sum of sorted agreements S_w is within the
    margin (0 if none), and is decoded against the codewords c of weight
    <= t only: in agreement space corr(s xor c) = -sum_j v_j * img(c)_j,
    each product being y_j * img(s xor c)_j exactly, so one candidate
    matrix serves every sent word.  The set is empty, and the trial error-
    free, when t < d.  Trials are grouped by candidate count and decoded in
    blocks of rows; ties go to the rival and count as errors."""
    d, n = book.d, v.shape[1]
    eps = np.finfo(np.float64).eps
    s_d = np.sum(np.partition(v, d - 1, axis=1)[:, :d], axis=1)
    top = np.maximum(v.max(), -v.min())
    rows = np.flatnonzero(~(s_d > 8.0 * n * n * eps * top))
    v, sent = v[rows], sent[rows]
    margin = 4.0 * n * eps * np.sum(np.abs(v), axis=1)
    full = np.flatnonzero(~(s_d[rows] > margin))
    v, sent, margin = v[full], sent[full], margin[full]
    s_w = np.cumsum(np.sort(v, axis=1), axis=1)
    t = np.max(np.where(s_w <= margin[:, None], np.arange(1, n + 1), 0), axis=1)
    sizes = book.within[t]
    block_errors = 0
    bit_errors = 0
    for size in np.unique(sizes[sizes > 1]).tolist():
        rows = np.flatnonzero(sizes == size)
        # 2^19 doubles (4 MB) a correlation block: the fastest measured on
        # Golay and on a dense k = 16 code (CHANGES.md).
        step = max(1, (1 << 19) // size)
        for lo in range(0, len(rows), step):
            r = rows[lo:lo + step]
            b, e = _decode_block(v[r], sent[r], book, size)
            block_errors += b
            bit_errors += e
    return block_errors, bit_errors, len(full)


def _chunk_rng(seed: int, chunk_idx: int) -> np.random.Generator:
    """Chunk `chunk_idx`'s stream under `seed`: SFC64 seeded by a SeedSequence
    with the chunk index as spawn key, whichever thread draws it."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(seed & _MASK64, spawn_key=(chunk_idx,)))
    )


def _chunk_counts(
    chunk_idx: int,
    m: int,
    book: _Codebook,
    sigma: float,
    seed: int,
    random_transmit: bool,
) -> tuple[int, int, int]:
    rng = _chunk_rng(seed, chunk_idx)
    images = book.images
    n = images.shape[1]
    noise = rng.normal(0.0, sigma, size=(m, n))
    if random_transmit:
        sent = rng.integers(0, images.shape[0], size=m, dtype=np.int64)
        signs = images[sent]
    else:
        sent = np.zeros(m, dtype=np.int64)
        signs = images[0]  # broadcast: every row sent the zero codeword
    # The agreements in place: for s = +-1, fl(s + e) * s = fl(1 + s * e).
    noise *= signs
    noise += 1.0
    return _decide(noise, sent, book)


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
    codeword images, skipping the trials that an exact screen proves
    error-free and the rivals that a distance bound proves losing
    (`_decide`).  Bit errors are counted on the information bits of the
    decoded codeword.

    Each chunk of trials draws from its own SFC64 stream, keyed by (seed,
    chunk index) through a SeedSequence spawn key (`_chunk_rng`), so results
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

    book = _codebook(g)
    sigma = math.sqrt(ch.sigma_sq)
    random_transmit = transmit == "random"
    sizes = [
        (idx, min(_CHUNK, trials - start))
        for idx, start in enumerate(range(0, trials, _CHUNK))
    ]
    work = lambda job: _chunk_counts(
        job[0], job[1], book, sigma, seed, random_transmit
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

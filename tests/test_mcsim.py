"""Monte-Carlo ML simulator: exactness anchors, determinism, symmetry."""

import math

import numpy as np
import pytest
from mpmath import mp

from tsbounds.bounds import ChannelPoint
from tsbounds.codes import EnumerationCapError, GeneratorMatrix
from tsbounds.mcsim import McEstimate, clopper_pearson, simulate_ml
from tsbounds.numerics import q_function


def exact_single_pairwise(h: int, n: int, ch: ChannelPoint) -> float:
    """Exact ML block error probability of a code whose only nonzero
    codeword has weight h: Q(sqrt(2hc)).  The two signals differ in h
    positions, at Euclidean distance 2*sqrt(h)."""
    if not 0 < h <= n:
        raise ValueError(f"need 0 < h <= n, got h={h}, n={n}")
    return q_function(math.sqrt(2.0 * h * ch.c))


@pytest.fixture(scope="module")
def repetition3():
    return GeneratorMatrix(1, 3, np.array([[1, 1, 1]], dtype=np.uint8))


def test_repetition_matches_exact_pairwise(repetition3):
    # Two antipodal signals: the ML error probability is exactly Q(sqrt(2nc)).
    ch = ChannelPoint.from_eb_n0_db(2.0, 1 / 3)
    est = simulate_ml(repetition3, ch, trials=200_000, seed=7)
    exact = exact_single_pairwise(3, 3, ch)
    assert abs(est.block_error_rate - exact) <= 3.0 * est.std_error
    # one information bit: every block error is a bit error
    assert est.bit_error_rate == est.block_error_rate


def test_high_snr_error_free(hamming74):
    ch = ChannelPoint.from_eb_n0_db(15.0, 4 / 7)
    est = simulate_ml(hamming74, ch, trials=100_000, seed=3)
    assert est.block_error_rate == 0.0
    assert est.bit_error_rate == 0.0
    assert est.std_error == 0.0
    # the exact interval still bounds the rate from above
    lo, hi = est.block_error_ci()
    assert lo == 0.0
    assert hi == pytest.approx(-math.expm1(math.log(0.025) / 100_000), rel=1e-14)


def test_deterministic_across_runs_and_threads(hamming74):
    ch = ChannelPoint.from_eb_n0_db(4.0, 4 / 7)
    a = simulate_ml(hamming74, ch, trials=1_000_000, seed=42)
    b = simulate_ml(hamming74, ch, trials=1_000_000, seed=42)
    c = simulate_ml(hamming74, ch, trials=1_000_000, seed=42, threads=4)
    assert a == b == c
    d = simulate_ml(hamming74, ch, trials=1_000_000, seed=43)
    assert d.block_error_rate != a.block_error_rate


def test_all_zero_symmetry(hamming74):
    # Linearity: conditioning on the all-zero codeword loses no generality,
    # so a uniformly random transmitted message gives the same rates.
    ch = ChannelPoint.from_eb_n0_db(2.0, 4 / 7)
    zero = simulate_ml(hamming74, ch, trials=400_000, seed=11)
    rand = simulate_ml(hamming74, ch, trials=400_000, seed=12, transmit="random")
    combined = math.hypot(zero.std_error, rand.std_error)
    assert abs(zero.block_error_rate - rand.block_error_rate) <= 3.0 * combined


def test_bit_errors_at_most_block_scaled(hamming74):
    ch = ChannelPoint.from_eb_n0_db(3.0, 4 / 7)
    est = simulate_ml(hamming74, ch, trials=100_000, seed=5)
    # each block error flips between 1 and k information bits
    assert est.bit_error_rate <= est.block_error_rate
    assert est.bit_error_rate >= est.block_error_rate / hamming74.k
    assert est.std_error == pytest.approx(
        math.sqrt(est.block_error_rate * (1 - est.block_error_rate) / est.trials)
    )


def test_exact_single_pairwise_values():
    ch = ChannelPoint(c=1.0, rate=1 / 3)
    assert exact_single_pairwise(3, 3, ch) == pytest.approx(
        q_function(math.sqrt(6.0)), rel=1e-15
    )
    tiny = ChannelPoint(c=1e-12, rate=0.5)
    assert exact_single_pairwise(2, 4, tiny) == pytest.approx(0.5, abs=1e-5)
    with pytest.raises(ValueError):
        exact_single_pairwise(0, 3, ch)
    with pytest.raises(ValueError):
        exact_single_pairwise(4, 3, ch)


def test_validation_errors(hamming74):
    ch = ChannelPoint.from_eb_n0_db(4.0, 4 / 7)
    with pytest.raises(ValueError):
        simulate_ml(hamming74, ch, trials=5_000, seed=1)
    with pytest.raises(ValueError):
        simulate_ml(hamming74, ch, trials=100_000, seed=1, transmit="flip")
    with pytest.raises(ValueError):
        simulate_ml(hamming74, ch, trials=100_000, seed=1, threads=0)
    big = GeneratorMatrix(
        17, 18, np.hstack([np.eye(17, dtype=np.uint8), np.ones((17, 1), np.uint8)])
    )
    with pytest.raises(EnumerationCapError):
        simulate_ml(big, ch, trials=100_000, seed=1)


def test_estimate_validation():
    with pytest.raises(ValueError):
        McEstimate(1.5, 0.0, 10_000, 0.0, 0.0, 1)


@pytest.mark.parametrize("trials", [1, 10, 1000, 1_000_000])
@pytest.mark.parametrize("alpha", [0.05, 0.01])
def test_clopper_pearson_edges(trials, alpha):
    # no errors: [0, 1 - (alpha/2)^(1/N)]; all errors: [(alpha/2)^(1/N), 1]
    root = math.log(alpha / 2) / trials
    lo, hi = clopper_pearson(0, trials, alpha)
    assert lo == 0.0
    assert hi == pytest.approx(-math.expm1(root), rel=1e-14)
    lo, hi = clopper_pearson(trials, trials, alpha)
    assert lo == pytest.approx(math.exp(root), rel=1e-14)
    assert hi == 1.0


def test_clopper_pearson_interior_matches_mpmath():
    # 9 errors in 1e6 trials, the 6 dB Golay count where p - 3 se is ~0.
    # The oracle inverts the binomial tails, finite sums of k + 1 terms:
    # Pr(X >= k | lower) = alpha/2 and Pr(X <= k | upper) = alpha/2.
    k, n, alpha = 9, 1_000_000, 0.05
    lo, hi = clopper_pearson(k, n, alpha)
    with mp.workdps(40):
        def cdf(x, m):
            return mp.fsum(mp.binomial(n, j) * x**j * (1 - x) ** (n - j) for j in range(m + 1))

        want_lo = mp.findroot(lambda x: 1 - cdf(x, k - 1) - alpha / 2, (1e-6, 1e-5),
                               solver="illinois")
        want_hi = mp.findroot(lambda x: cdf(x, k) - alpha / 2, (1e-5, 1e-4), solver="illinois")
    assert lo == pytest.approx(float(want_lo), rel=1e-10)
    assert hi == pytest.approx(float(want_hi), rel=1e-10)
    assert lo < k / n < hi


def test_clopper_pearson_validation():
    with pytest.raises(ValueError):
        clopper_pearson(-1, 10)
    with pytest.raises(ValueError):
        clopper_pearson(11, 10)
    with pytest.raises(ValueError):
        clopper_pearson(0, 0)
    with pytest.raises(ValueError):
        clopper_pearson(1, 10, alpha=1.0)

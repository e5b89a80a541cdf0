"""Monte-Carlo ML simulator: exactness anchors, determinism, symmetry, and
the full correlation decoder as the oracle of the screened one."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from tsbounds import mcsim
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


def oracle_decide(y: np.ndarray, sent: np.ndarray, images: np.ndarray) -> tuple[int, int]:
    """Block and bit errors of the full correlation decoder: every received
    word against all 2^k images, ties going to the rival."""
    rows = np.arange(len(y))
    corr = y @ images.T
    corr_sent = corr[rows, sent].copy()
    corr[rows, sent] = -np.inf
    rival = np.argmax(corr, axis=1)
    err = corr[rows, rival] >= corr_sent
    flips = np.bitwise_xor(rival[err], sent[err])
    return int(np.count_nonzero(err)), int(np.sum(np.bitwise_count(flips.astype(np.uint64))))


def oracle_estimate(g: GeneratorMatrix, ch: ChannelPoint, trials: int, seed: int,
                    transmit: str) -> McEstimate:
    """simulate_ml with every trial fully decoded: the same draws per chunk,
    each from the chunk's keyed SFC64 stream (mcsim._chunk_rng), decided by
    oracle_decide in sub-chunks of 32 (a (32, 2^16) correlation block stays
    in cache)."""
    images = mcsim._codeword_images(g)
    sigma = math.sqrt(ch.sigma_sq)
    block_errors = bit_errors = 0
    for idx, start in enumerate(range(0, trials, mcsim._CHUNK)):
        m = min(mcsim._CHUNK, trials - start)
        rng = mcsim._chunk_rng(seed, idx)
        noise = rng.normal(0.0, sigma, size=(m, g.n))
        if transmit == "random":
            sent = rng.integers(0, 1 << g.k, size=m, dtype=np.int64)
        else:
            sent = np.zeros(m, dtype=np.int64)
        for lo in range(0, m, 32):
            b, e = oracle_decide(noise[lo:lo + 32] + images[sent[lo:lo + 32]],
                                 sent[lo:lo + 32], images)
            block_errors += b
            bit_errors += e
    p_block = block_errors / trials
    p_bit = bit_errors / (trials * g.k)
    return McEstimate(
        block_error_rate=p_block,
        bit_error_rate=p_bit,
        trials=trials,
        std_error=math.sqrt(p_block * (1.0 - p_block) / trials),
        bit_std_error=math.sqrt(p_bit * (1.0 - p_bit) / trials),
        seed=seed,
        full_decodes=trials,
    )


@pytest.fixture(scope="module")
def repetition3():
    return GeneratorMatrix(1, 3, np.array([[1, 1, 1]], dtype=np.uint8))


ORACLE_CODES = ("repetition3", "hamming74", "golay2312", "identity4", "random16_20")
ORACLE_DB = (-2.0, 0.0, 2.0, 4.0, 6.0, 8.0)


@pytest.fixture(scope="module")
def oracle_codes(repetition3, hamming74, golay2312):
    # d = 3, 3, 7, 1 and 2: the identity code has no screen to speak of
    # (d = 1), and the random code is dense with 2^16 images.
    dense = np.random.default_rng(4).integers(0, 2, size=(16, 20), dtype=np.uint8)
    return {
        "repetition3": repetition3,
        "hamming74": hamming74,
        "golay2312": golay2312,
        "identity4": GeneratorMatrix(4, 4, np.eye(4, dtype=np.uint8)),
        "random16_20": GeneratorMatrix(16, 20, dense),
    }


@pytest.fixture(scope="module")
def oracle_grid(oracle_codes):
    cache = {}

    def get(name, db, transmit):
        key = name, db, transmit
        if key not in cache:
            g = oracle_codes[name]
            ch = ChannelPoint.from_eb_n0_db(db, g.rate)
            trials = 10_000 if g.k > 8 else 20_000
            cache[key] = oracle_estimate(g, ch, trials, 101, transmit)
        return cache[key]

    return get


@pytest.mark.parametrize("name,threads", [
    (name, threads) for name in ORACLE_CODES for threads in (1, 2)
    # Chunks are drawn and decided alike in any thread; the dense code's
    # 2^16-wide full decodes run once, in one thread.
    if (name, threads) != ("random16_20", 2)
])
@pytest.mark.parametrize("transmit", ["zero", "random"])
def test_screened_decoder_matches_full_decoder(oracle_codes, oracle_grid, name, threads,
                                               transmit):
    # The screen only skips trials the full decoder would decode error-free,
    # so every field but full_decodes is the full decoder's, bit for bit.
    g = oracle_codes[name]
    for db in ORACLE_DB:
        want = oracle_grid(name, db, transmit)
        ch = ChannelPoint.from_eb_n0_db(db, g.rate)
        est = simulate_ml(g, ch, want.trials, want.seed, transmit=transmit, threads=threads)
        assert est == dataclasses.replace(want, full_decodes=est.full_decodes), (name, db)
        assert 0 <= est.full_decodes <= est.trials
        if est.block_error_rate > 0.0:
            assert est.full_decodes > 0


def _crafted_word(images: np.ndarray, d: int, sent: int, delta: float):
    """A received word that agrees with image `sent` by 1 everywhere except
    on the support of a weight-d difference, where the agreements are
    1, -1/2 and -1/2 + delta and 1 beyond: the rival at distance d loses by
    exactly 2 * delta."""
    diff = np.count_nonzero(images != images[sent], axis=1)
    rival = int(np.flatnonzero(diff == d)[0])
    support = np.flatnonzero(images[rival] != images[sent])
    v = np.ones(images.shape[1])
    v[support[1]] = -0.5
    v[support[2]] = -0.5 + delta
    return v * images[sent], rival


@pytest.mark.parametrize("sent", [0, 5])
def test_screen_boundary_matches_full_decoder(hamming74, sent):
    book = mcsim._codebook(hamming74)
    images, d = book.images, book.d
    assert d == 3
    eps = np.finfo(np.float64).eps
    margin = 4.0 * 7 * eps * 6.0  # sum|y| = 4 + 1 + 1/2 + 1/2 at delta = 0
    cases = [
        # (delta, full decodes, block errors)
        (0.0, 1, 1),               # exact tie: the rival wins
        (-margin / 4, 1, 1),       # near-tie that the rival wins by a hair
        (margin / 4, 1, 0),        # near-tie inside the margin: decoded in full
        (4 * margin, 0, 0),        # just outside the margin: screened
        (1.0, 0, 0),
    ]
    words = []
    for delta, full, block in cases:
        y, rival = _crafted_word(images, d, sent, delta)
        words.append(y)
        got = mcsim._decide((y * images[sent])[None, :], np.array([sent]), book)
        want = oracle_decide(y[None, :], np.array([sent]), images)
        assert got == want + (full,), delta
        assert got[0] == block, delta
        if block:
            assert got[1] == int(np.bitwise_count(np.uint64(rival ^ sent)))
    # the same words in one batch, so the gathered rows keep their order
    y = np.array(words)
    sents = np.full(len(words), sent)
    batch = mcsim._decide(y * images[sents], sents, book)
    assert batch == oracle_decide(y, sents, images) + (3,)


@pytest.fixture
def decoded_blocks(monkeypatch):
    """(rows, candidates) of every block that _decide correlates."""
    blocks = []
    decode = mcsim._decode_block

    def spy(v, sent, book, size):
        blocks.append((len(v), size))
        return decode(v, sent, book, size)

    monkeypatch.setattr(mcsim, "_decode_block", spy)
    return blocks


def _far_word(images: np.ndarray, w: int, sent: int, delta: float, off: float):
    """A received word whose agreements with image `sent` are `off` outside
    the support of the first difference of weight w, and 1, -1, 1, ... on
    it, the last one set so that the support sums to delta: that rival
    loses by exactly 2 * delta, and each other rival by at least 2 as long
    as it meets the support in fewer positions than it has outside it
    times `off`."""
    diff = np.count_nonzero(images != images[sent], axis=1)
    rival = int(np.flatnonzero(diff == w)[0])
    support = np.flatnonzero(images[rival] != images[sent])
    v = np.full(images.shape[1], off)
    v[support] = (-1.0) ** np.arange(w)
    v[support[-1]] = delta - np.sum(v[support[:-1]])
    return v * images[sent], rival


@pytest.mark.parametrize("code,w,off,sent", [
    ("hamming74", 4, 3.0, 0), ("hamming74", 4, 3.0, 5),
    ("golay2312", 8, 8.0, 0), ("golay2312", 11, 8.0, 1234), ("golay2312", 12, 8.0, 77),
])
def test_rival_beyond_min_distance_matches_full_decoder(request, decoded_blocks, code, w,
                                                        off, sent):
    # The rival that ties or wins sits at distance w > d.  With S_w within
    # the margin the candidates reach weight w; just past it they stop
    # short of w, and the rival, which loses there, is never correlated.
    g = request.getfixturevalue(code)
    book = mcsim._codebook(g)
    assert book.d < w
    eps = np.finfo(np.float64).eps
    y0, _ = _far_word(book.images, w, sent, 0.0, off)
    margin = 4.0 * g.n * eps * np.sum(np.abs(y0))
    for delta, block, reach in [
        (0.0, 1, True),              # exact tie: the rival wins
        (-margin / 4, 1, True),      # the rival wins by a hair
        (margin / 4, 0, True),       # S_w just inside the margin
        (4 * margin, 0, False),      # S_w just outside: the rival is skipped
    ]:
        y, rival = _far_word(book.images, w, sent, delta, off)
        decoded_blocks.clear()
        got = mcsim._decide((y * book.images[sent])[None, :], np.array([sent]), book)
        assert got == oracle_decide(y[None, :], np.array([sent]), book.images) + (1,), delta
        assert got[0] == block, delta
        if block:
            assert got[1] == int(np.bitwise_count(np.uint64(rival ^ sent)))
        assert (decoded_blocks[0][1] >= book.within[w]) == reach, delta


def test_rivals_tied_beyond_min_distance(hamming74):
    # Agreement -1 on the union of two weight-4 supports and 3 on the one
    # position outside it: the two rivals and their sum, all at distance 4,
    # gain 8 on the sent word and tie each other; every other rival gains at
    # most 6.  The full decoder takes the smallest message index among them.
    book = mcsim._codebook(hamming74)
    weights = np.count_nonzero(book.images > 0.0, axis=1)
    a, b = np.flatnonzero(weights == 4)[:2]
    v = np.where((book.images[a] > 0.0) | (book.images[b] > 0.0), -1.0, 3.0)
    sent = np.arange(1 << hamming74.k)
    y = v * book.images[sent]
    got = mcsim._decide(y * book.images[sent], sent, book)
    assert got == oracle_decide(y, sent, book.images) + (len(sent),)
    assert got[0] == len(sent)
    # all-zero received words tie every rival with the sent word
    y = np.zeros((len(sent), hamming74.n))
    got = mcsim._decide(y * book.images[sent], sent, book)
    assert got == oracle_decide(y, sent, book.images) + (len(sent),)


_REPETITION8 = GeneratorMatrix(1, 8, np.ones((1, 8), dtype=np.uint8))


def _screen_miss_word() -> np.ndarray:
    """The agreements of test_screen_miss_with_no_candidates."""
    eps = np.finfo(np.float64).eps
    return np.array([-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3 * eps, 1.0 + 64 * eps])


def test_screen_miss_with_no_candidates(decoded_blocks):
    # Length-8 repetition code, d = 8: np.sum adds the partition's eight
    # agreements pairwise, the cumulative sum adds them in sorted order.
    # Agreements -1, 0 (5 times), u = 0.3 ulp(1) and 1 + L: pairwise, u is
    # lost in 1 + L and S_8 = L, at the margin, so the screen fails; in
    # order, -1 + u rounds to -1 + ulp(1)/2 and S_8 = L + ulp(1)/2, past the
    # margin.  No weight is left to correlate: decoded error-free.
    book = mcsim._codebook(_REPETITION8)
    eps = np.finfo(np.float64).eps
    v = _screen_miss_word()
    assert 64 * eps <= 4.0 * 8 * eps * np.sum(np.abs(v)) < 64.5 * eps
    for sent in (0, 1):
        y = v * book.images[sent]
        got = mcsim._decide(v[None, :], np.array([sent]), book)
        assert got == oracle_decide(y[None, :], np.array([sent]), book.images) + (1,)
    assert decoded_blocks == []


def one_stage_decide(v: np.ndarray, sent: np.ndarray, book) -> tuple[int, int, int]:
    """mcsim._decide as it was before its two-stage screen: every row is
    screened against its own margin 4 * n * eps * sum|v|."""
    d, n = book.d, v.shape[1]
    s_d = np.sum(np.partition(v, d - 1, axis=1)[:, :d], axis=1)
    margin = 4.0 * n * np.finfo(np.float64).eps * np.sum(np.abs(v), axis=1)
    full = np.flatnonzero(~(s_d > margin))
    v, sent, margin = v[full], sent[full], margin[full]
    s_w = np.cumsum(np.sort(v, axis=1), axis=1)
    t = np.max(np.where(s_w <= margin[:, None], np.arange(1, n + 1), 0), axis=1)
    sizes = book.within[t]
    block_errors = 0
    bit_errors = 0
    for size in np.unique(sizes[sizes > 1]).tolist():
        rows = np.flatnonzero(sizes == size)
        step = max(1, (1 << 19) // size)
        for lo in range(0, len(rows), step):
            r = rows[lo:lo + step]
            b, e = mcsim._decode_block(v[r], sent[r], book, size)
            block_errors += b
            bit_errors += e
    return block_errors, bit_errors, len(full)


def _margin_rows(book, code: str) -> tuple[list, list]:
    """Agreement rows at the screen's and the candidates' margins, with
    their sent messages: test_screen_miss_with_no_candidates' word on the
    repetition code, and _crafted_word's and _far_word's margin cases on
    Hamming and Golay."""
    eps = np.finfo(np.float64).eps
    images, n = book.images, book.images.shape[1]
    if code == "repetition8":
        # Four agreements -1 beside four near 1, so that S_8 = 252 eps lies
        # just inside the margin 4 * 8 * eps * (8 + S_8) ~ 256 eps: sum|v| is
        # n max|v| less S_8, as close to n max|v| as a row at the margin gets
        balanced = np.array([-1.0] * 4 + [1.0] * 3 + [1.0 + 252 * eps])
        return [_screen_miss_word(), _screen_miss_word(), balanced, balanced], [0, 1, 0, 1]
    rows, sents = [], []
    words = [lambda delta, s: _crafted_word(images, book.d, s, delta)]
    words += [lambda delta, s, w=w, off=off: _far_word(images, w, s, delta, off)
              for w, off in ({"hamming74": [(4, 3.0)],
                              "golay2312": [(8, 8.0), (11, 8.0), (12, 8.0)]}[code])]
    for word in words:
        for sent in (0, 5):
            margin = 4.0 * n * eps * np.sum(np.abs(word(0.0, sent)[0]))
            for delta in (0.0, -margin / 4, margin / 4, 63 / 64 * margin, 4 * margin):
                rows.append(word(delta, sent)[0] * images[sent])
                sents.append(sent)
    return rows, sents


@pytest.fixture(scope="module")
def screen_books(hamming74, golay2312):
    return {"hamming74": mcsim._codebook(hamming74),
            "golay2312": mcsim._codebook(golay2312),
            "repetition8": mcsim._codebook(_REPETITION8)}


@given(code=st.sampled_from(["hamming74", "golay2312", "repetition8"]),
       seed=st.integers(0, 2**32 - 1), noise_rows=st.integers(0, 48),
       ulp_k=st.integers(1, 2**20), big=st.one_of(st.none(), st.integers(0, 1000)))
@settings(max_examples=150, deadline=None)
def test_two_stage_screen_matches_one_stage(screen_books, code, seed, noise_rows, ulp_k,
                                            big):
    # One chunk: noisy rows scaled by 2^-1060 .. 2^60, so that the chunk
    # margin 8 n^2 eps max|v| is far above most rows' own margins; rows at
    # the screen's and the candidates' margins; rows whose every |v| is
    # 1 + k ulp(1), where the computed sum |v| can round above n max|v|;
    # and, in some chunks, one row of magnitude 2^big beside them all.
    # The triple is the one-stage screen's, and the errors the full
    # decoder's.
    book = screen_books[code]
    images, n = book.images, book.images.shape[1]
    rng = np.random.default_rng(seed)
    rows, sents = _margin_rows(book, code)
    eps = np.finfo(np.float64).eps
    for k in range(ulp_k, ulp_k + 8):
        v = np.full(n, 1.0 + k * eps) * rng.choice([-1.0, 1.0], size=n)
        rows.append(v)
        sents.append(int(rng.integers(0, len(images))))
    scale = np.ldexp(1.0, rng.integers(-1060, 61, size=noise_rows))
    noisy = (1.0 + rng.normal(0.0, rng.uniform(0.3, 1.5), size=(noise_rows, n))) * scale[:, None]
    rows.extend(noisy)
    sents.extend(rng.integers(0, len(images), size=noise_rows).tolist())
    if big is not None:
        rows.append(np.ldexp(1.0 + rng.normal(0.0, 1.0, size=n), big))
        sents.append(0)
    order = rng.permutation(len(rows))
    v = np.array(rows)[order]
    sent = np.array(sents, dtype=np.int64)[order]
    got = mcsim._decide(v, sent, book)
    assert got == one_stage_decide(v, sent, book)
    assert got[:2] == oracle_decide(v * images[sent], sent, images)


def test_ulp_rows_sum_above_n_max():
    # The 1 + k ulp(1) rows above are a real case: in Golay's n = 23 the
    # computed sum of 23 equal magnitudes can exceed 23 times the magnitude,
    # and the chunk margin still covers the row margin.
    eps = np.finfo(np.float64).eps
    above = 0
    for k in range(1, 64):
        v = np.full(23, 1.0 + k * eps)
        total = np.sum(np.abs(v))
        above += Fraction(float(total)) > 23 * Fraction(float(v[0]))
        assert 8.0 * 23 * 23 * eps * v[0] >= 4.0 * 23 * eps * total
    assert above > 0


def test_chunk_streams_differ_by_chunk_and_seed():
    # Each chunk's stream depends on (seed, chunk index) only: one draw is
    # repeatable, and two chunks of one seed and two seeds draw apart.
    draw = lambda seed, idx: mcsim._chunk_rng(seed, idx).normal(size=(4, 23))
    assert np.array_equal(draw(7, 0), draw(7, 0))
    assert np.array_equal(draw(-1, 3), draw(2**64 - 1, 3))
    pairs = [((7, 0), (7, 1)), ((7, 1), (7, 2)), ((7, 0), (8, 0)), ((0, 5), (1, 5)),
             ((7, 1), (1, 7))]
    for a, b in pairs:
        assert not np.any(draw(*a) == draw(*b)), (a, b)


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8), extra=st.integers(0, 8),
       db=st.floats(-2.0, 8.0), transmit=st.sampled_from(["zero", "random"]))
@settings(max_examples=100, deadline=None)
def test_candidate_decoder_matches_full_decoder(seed, k, extra, db, transmit):
    # A random full-rank code with k <= 8 and n <= 16: block and bit errors
    # are the full decoder's, and the full decodes the first screen's.
    rng = np.random.default_rng(seed)
    n = k + extra
    while True:
        try:
            g = GeneratorMatrix(k, n, rng.integers(0, 2, size=(k, n), dtype=np.uint8))
            break
        except ValueError:
            pass
    book = mcsim._codebook(g)
    assert book.d == np.min(np.count_nonzero(book.images[1:] > 0.0, axis=1))
    ch = ChannelPoint.from_eb_n0_db(db, g.rate)
    m = 256
    sent = (rng.integers(0, 1 << k, size=m) if transmit == "random"
            else np.zeros(m, dtype=np.int64))
    y = rng.normal(0.0, math.sqrt(ch.sigma_sq), size=(m, n)) + book.images[sent]
    v = y * book.images[sent]
    got = mcsim._decide(v, sent, book)
    assert got[:2] == oracle_decide(y, sent, book.images)
    s_d = np.sum(np.partition(v, book.d - 1, axis=1)[:, :book.d], axis=1)
    margin = 4.0 * n * np.finfo(np.float64).eps * np.sum(np.abs(y), axis=1)
    assert got[2] == np.count_nonzero(~(s_d > margin))


def test_golay_candidates_are_a_fraction_of_the_codebook(golay2312, decoded_blocks):
    # At 3 dB the unsettled trials need about 15 % of the 2^k correlations.
    ch = ChannelPoint.from_eb_n0_db(3.0, golay2312.rate)
    est = simulate_ml(golay2312, ch, trials=20_000, seed=1)
    correlations = sum(rows * size for rows, size in decoded_blocks)
    assert correlations <= 0.2 * (1 << golay2312.k) * est.full_decodes


def test_golay_high_snr_rarely_reaches_full_decoder(golay2312):
    ch = ChannelPoint.from_eb_n0_db(8.0, 12 / 23)
    est = simulate_ml(golay2312, ch, trials=100_000, seed=9)
    assert est.full_decodes < 1_000


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
        McEstimate(1.5, 0.0, 10_000, 0.0, 0.0, 1, 0)


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

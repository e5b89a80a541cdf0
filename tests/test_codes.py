"""Tests for spectrum enumeration, ensemble spectra, and spectrum I/O."""

import math
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import repetition
from tsbounds import codes
from tsbounds.codes import (
    DistanceSpectrum,
    EnumerationCapError,
    GeneratorMatrix,
    GrowthRate,
    enumerate_spectrum,
    growth_rate,
    load_spectrum,
    parse_generator,
    random_ensemble_spectrum,
    save_spectrum,
)
from tsbounds.exponents import tsb_exponent

LN2 = math.log(2.0)


def counts_by_hand(gen: GeneratorMatrix) -> dict[tuple[int, int], int]:
    """Independent pure-python enumeration oracle (XOR of row tuples)."""
    rows = [tuple(int(b) for b in r) for r in gen.bits]
    out: dict[tuple[int, int], int] = {}
    for msg in product((0, 1), repeat=gen.k):
        cw = [0] * gen.n
        for mbit, row in zip(msg, rows):
            if mbit:
                cw = [a ^ b for a, b in zip(cw, row)]
        key = (sum(msg), sum(cw))
        out[key] = out.get(key, 0) + 1
    return out


def test_repetition_code_spectrum():
    spec, bit_spec = enumerate_spectrum(repetition(3))
    assert spec.d_min == 3
    assert spec.log_a[0] == 0.0
    assert spec.log_a[3] == 0.0
    assert all(spec.log_a[h] == -math.inf for h in (1, 2))
    assert bit_spec.log_a.tolist() == [-math.inf, -math.inf, -math.inf, 0.0]


def test_hamming_spectrum(hamming_spec):
    expected = {0: 1, 3: 7, 4: 7, 7: 1}
    for h in range(8):
        if h in expected:
            assert hamming_spec.log_a[h] == pytest.approx(math.log(expected[h]), abs=1e-14)
        else:
            assert hamming_spec.log_a[h] == -math.inf
    assert hamming_spec.d_min == 3


def test_golay_spectrum(golay_spec):
    expected = {0: 1, 7: 253, 8: 506, 11: 1288, 12: 1288, 15: 506, 16: 253, 23: 1}
    for h in range(24):
        if h in expected:
            assert golay_spec.log_a[h] == pytest.approx(math.log(expected[h]), rel=1e-14)
        else:
            assert golay_spec.log_a[h] == -math.inf
    assert golay_spec.d_min == 7


def oracle_sums(gen: GeneratorMatrix) -> tuple[list[int], list[int]]:
    """Per Hamming weight h, the hand count's sum_w A_wh and sum_w w A_wh."""
    block, bit = [0] * (gen.n + 1), [0] * (gen.n + 1)
    for (w, h), cnt in counts_by_hand(gen).items():
        block[h] += cnt
        bit[h] += w * cnt
    return block, bit


def test_enumeration_matches_pure_python_oracle(hamming74, golay2312):
    # Both spectra are the hand count's marginals, weight by weight: A_h and
    # A'_h = sum_w w A_wh / k, with -inf exactly where the count is 0.
    for gen in (hamming74, golay2312):
        spec, bit_spec = enumerate_spectrum(gen)
        block, bit = oracle_sums(gen)
        for h in range(gen.n + 1):
            for got, count in ((spec.log_a[h], block[h]), (bit_spec.log_a[h], bit[h] / gen.k)):
                if count == 0:
                    assert got == -math.inf
                else:
                    assert got == pytest.approx(math.log(count), rel=1e-14, abs=1e-15)


def test_bit_spectrum_is_the_exact_rational_log(hamming74, golay2312):
    # every ln A'_h is the correctly rounded log of the exact rational
    # sum_w w A_wh / k, not a log-sum-exp of per-(w, h) logs
    for gen in (hamming74, golay2312):
        _, bit_spec = enumerate_spectrum(gen)
        _, bit = oracle_sums(gen)
        want = [math.log(Fraction(s, gen.k)) if s else -math.inf for s in bit]
        assert bit_spec.log_a.tolist() == want


def test_total_codeword_count(hamming_spec, golay_spec):
    for spec, k in ((hamming_spec, 4), (golay_spec, 12)):
        total = np.exp(spec.log_a[spec.log_a > -math.inf]).sum()
        assert total == pytest.approx(2.0**k, rel=1e-12)


def test_spectra_totals_match_the_hand_count(hamming74, golay2312):
    # summed over h, the block spectrum counts all 2^k messages and the bit
    # spectrum averages their information weight: 2^k / 2 = 2^(k-1)
    for gen in (hamming74, golay2312):
        spec, bit_spec = enumerate_spectrum(gen)
        block, bit = oracle_sums(gen)
        assert sum(block) == 2**gen.k and Fraction(sum(bit), gen.k) == 2 ** (gen.k - 1)
        for got, want in ((spec, 2**gen.k), (bit_spec, 2 ** (gen.k - 1))):
            total = math.fsum(math.exp(v) for v in got.log_a if v > -math.inf)
            assert total == pytest.approx(want, rel=1e-13)


def test_row_equivalent_generators_share_spectrum(golay2312):
    rng = np.random.default_rng(11)
    bits = golay2312.bits.copy()
    for _ in range(40):
        i, j = rng.integers(0, 12, size=2)
        if i != j:
            bits[j] ^= bits[i]
    spec_a, _ = enumerate_spectrum(golay2312)
    spec_b, _ = enumerate_spectrum(GeneratorMatrix(k=12, n=23, bits=bits))
    assert np.array_equal(spec_a.log_a, spec_b.log_a)


def test_enumeration_cap():
    bits = np.eye(25, dtype=np.uint8)
    gen = GeneratorMatrix(k=25, n=25, bits=bits)
    with pytest.raises(EnumerationCapError):
        enumerate_spectrum(gen)


def test_rank_deficiency_rejected():
    bits = np.array([[1, 0, 1], [1, 0, 1]], dtype=np.uint8)
    with pytest.raises(ValueError, match="linearly dependent"):
        GeneratorMatrix(k=2, n=3, bits=bits)


def test_parse_generator_round_trip(hamming74):
    text = "4 7\n" + "\n".join("".join(str(b) for b in row) for row in hamming74.bits)
    gen = parse_generator(text)
    assert gen.k == 4 and gen.n == 7
    assert np.array_equal(gen.bits, hamming74.bits)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "4\n1111",
        "x y\n11",
        "1 3\n11",      # wrong row length
        "1 3\n012",     # bad character
        "2 3\n111",     # missing row
    ],
)
def test_parse_generator_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_generator(text)


def test_bit_spectrum_hamming(hamming74, hamming_spec, hamming_bit_spec):
    spec, bit_spec = hamming_spec, hamming_bit_spec
    assert bit_spec.kind == "bit"
    assert (bit_spec.d_min, bit_spec.rate) == (spec.d_min, spec.rate)
    assert bit_spec.log_a[0] == -math.inf
    # Exact rational oracle from the independent enumeration.
    oracle = counts_by_hand(hamming74)
    for h in range(1, 8):
        terms = [Fraction(w, 4) * cnt for (w, hh), cnt in oracle.items() if hh == h and w > 0]
        expected = sum(terms, Fraction(0))
        if expected == 0:
            assert bit_spec.log_a[h] == -math.inf
        else:
            assert bit_spec.log_a[h] == pytest.approx(math.log(float(expected)), rel=1e-12)
            # Reweighting sandwich: A_h / (nR) <= A'_h <= A_h.
            a_h = math.exp(spec.log_a[h])
            a_bit = math.exp(bit_spec.log_a[h])
            assert a_h / 4 - 1e-12 <= a_bit <= a_h + 1e-12


def test_bit_spectrum_of_repetition_code_is_its_block_spectrum():
    # the one nonzero message has w = k = 1: A'_h = (1/1) A_h for h = 1..n
    for n in (3, 5, 8):
        spec, bit_spec = enumerate_spectrum(repetition(n))
        assert bit_spec.log_a[1:].tolist() == spec.log_a[1:].tolist()
        assert bit_spec.log_a[0] == -math.inf


def test_random_ensemble_spectrum_values():
    spec = random_ensemble_spectrum(64, 0.5)
    assert spec.kind == "ensemble"
    assert spec.log_a[0] == pytest.approx(-64 * 0.5 * LN2, rel=1e-14)
    assert np.allclose(spec.log_a, spec.log_a[::-1])
    # Independent lgamma oracle for the central binomial.
    oracle = math.lgamma(65) - 2 * math.lgamma(33) - 32 * LN2
    assert spec.log_a[32] == pytest.approx(oracle, rel=1e-10)
    # Total expected count is 2^{nR}.
    m = spec.log_a.max()
    total_log = m + math.log(np.exp(spec.log_a - m).sum())
    assert total_log == pytest.approx(64 * 0.5 * LN2, rel=1e-9)


@pytest.mark.parametrize("n", [2, 3, 12, 64, 513, 4096])
def test_random_ensemble_binomials_are_exact(n):
    # The log counts are those of the exact big-integer binomials, bit for
    # bit, at even and odd n.
    offset = n * 0.5 * LN2
    want = [math.log(math.comb(n, h)) - offset for h in range(n + 1)]
    assert random_ensemble_spectrum(n, 0.5).log_a.tolist() == want


def _listed_binomial_log_a(n, rate):
    # The binomials held in one list, then logged: the reference for the
    # streamed logs.
    offset = n * (1.0 - rate) * LN2
    comb = [1]
    for h in range(n // 2):
        comb.append(comb[-1] * (n - h) // (h + 1))
    comb += comb[: (n + 1) // 2][::-1]
    return [math.log(c) - offset for c in comb]


def test_streamed_binomial_logs_match_the_listed_ones():
    # Each log taken as the recurrence runs is the float the list form
    # gives, at even and odd n up to 2048.
    sizes = list(range(2, 130)) + [255, 256, 511, 512, 1023, 1024, 2047, 2048]
    for n in sizes:
        for rate in (0.3, 0.5, 0.8):
            assert codes._binomial_log_a(n, rate).tolist() == _listed_binomial_log_a(n, rate)


def test_ensemble_block_length_cap():
    # The exact binomials cost time ~ n^2, so n is capped, and a longer
    # ensemble is refused before any binomial is computed.
    cap = codes.ENSEMBLE_CAP
    for n in (cap + 1, 4_000_000):
        with pytest.raises(ValueError, match=f"n <= {cap}"):
            random_ensemble_spectrum(n, 0.5)


def test_random_ensemble_effective_dmin():
    spec = random_ensemble_spectrum(128, 0.5)
    below = [h for h in range(1, spec.d_min) if spec.log_a[h] >= 0]
    assert not below
    assert spec.log_a[spec.d_min] >= 0.0
    with pytest.raises(ValueError):
        random_ensemble_spectrum(64, 1.5)
    with pytest.raises(ValueError):
        random_ensemble_spectrum(1, 0.5)


def test_growth_rate_finite(hamming_spec):
    assert growth_rate(hamming_spec, 3 / 7) == pytest.approx(math.log(7) / 7, rel=1e-14)
    assert growth_rate(hamming_spec, 1.0) == 0.0  # A_7 = 1
    assert growth_rate(hamming_spec, 1 / 7) == -math.inf
    with pytest.raises(ValueError):
        growth_rate(hamming_spec, 0.0)


def test_growth_rate_ensemble_matches_stirling_limit():
    # Finite-n normalized counts at delta = 1/2 approach H(1/2) - (1-R) ln 2.
    limit = 0.5 * LN2
    errs = []
    for n in (64, 256, 1024, 4096):
        spec = random_ensemble_spectrum(n, 0.5)
        errs.append(abs(spec.log_a[n // 2] / n - limit))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1.5e-3  # Stirling correction ~ ln(pi n / 2) / (2n)
    # The closed-form evaluator sits at the limit exactly.
    spec = random_ensemble_spectrum(64, 0.5)
    assert growth_rate(spec, 0.5) == pytest.approx(limit, rel=1e-14)


@given(delta=st.floats(1e-6, 1.0))
@settings(max_examples=200, deadline=None)
def test_growth_rate_bounded_by_ln2(delta):
    spec = random_ensemble_spectrum(128, 0.5)
    assert growth_rate(spec, delta) <= LN2 + 1e-12


def test_growth_rate_on_arrays(hamming_spec):
    # An array of normalized weights is evaluated elementwise, each value
    # the float call's: the code kind's nearest-weight lookup (empty
    # weights -inf, delta = 1, and n * delta = 3.5 rounded half to even),
    # and the ensemble's closed form, which agrees with the math module's
    # to rounding and has zero entropy at delta = 1.  Weights outside
    # (0, 1] are rejected as for a float.
    ds = np.array([1 / 7, 0.2, 3 / 7, 0.5, 4 / 7, 1.0])
    got = growth_rate(hamming_spec, ds)
    assert got.tolist() == [growth_rate(hamming_spec, float(d)) for d in ds]
    assert got[0] == -math.inf and got[3] == got[4] and got[-1] == 0.0
    assert got[2] == math.log(7) / 7
    ens = random_ensemble_spectrum(64, 0.5)
    ds = np.linspace(0.0, 1.0, 4097)[1:]
    got = growth_rate(ens, ds)
    assert got.tolist() == [growth_rate(ens, d) for d in ds.tolist()]
    want = np.array([-d * math.log(d) - (1 - d) * math.log1p(-d) - 0.5 * LN2
                     for d in ds[:-1].tolist()])
    assert np.all(np.abs(got[:-1] - want) <= 1e-15)
    assert got[-1] == -0.5 * LN2
    assert GrowthRate.from_spectrum(ens)(ds).tolist() == got.tolist()
    for spec in (hamming_spec, ens):
        for bad in ([0.5, 0.0], [1.5], [-0.25, 0.5]):
            with pytest.raises(ValueError, match="delta must lie in"):
                growth_rate(spec, np.array(bad))


def test_growth_rate_wrapper(hamming_spec):
    r = GrowthRate.from_spectrum(hamming_spec)
    assert r.kind == "code"
    assert r.n == 7
    assert r(3 / 7) == growth_rate(hamming_spec, 3 / 7)
    r_ens = GrowthRate.from_spectrum(random_ensemble_spectrum(64, 0.5))
    assert r_ens.kind == "ensemble"
    assert r_ens(0.5) == pytest.approx(0.5 * LN2, rel=1e-14)


def test_spectrum_io_round_trip(tmp_path, hamming_spec, golay_spec):
    for spec in (hamming_spec, golay_spec):
        path = tmp_path / "spec.json"
        save_spectrum(spec, str(path))
        loaded = load_spectrum(str(path))
        assert loaded.n == spec.n
        assert loaded.d_min == spec.d_min
        assert loaded.kind == spec.kind
        assert np.array_equal(loaded.log_a, spec.log_a)


def test_spectrum_io_ensemble_round_trip(tmp_path):
    spec = random_ensemble_spectrum(96, 0.75)
    path = tmp_path / "ens.json"
    save_spectrum(spec, str(path))
    loaded = load_spectrum(str(path))
    assert loaded.rate == spec.rate
    assert np.array_equal(loaded.log_a, spec.log_a)


def test_spectrum_io_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind":"code","n":2,"d_min":1,"log_a":[0.5,0.0,0.0]}')
    with pytest.raises(ValueError, match="A_0"):
        load_spectrum(str(path))
    path.write_text('{"kind":"code","n":2,"log_a":[0.0,0.0,0.0]}')
    with pytest.raises(ValueError, match="d_min"):
        load_spectrum(str(path))
    path.write_text("not json")
    with pytest.raises(ValueError, match="JSON"):
        load_spectrum(str(path))


def test_spectrum_rejects_rate_outside_unit_interval(hamming_spec):
    for rate in (0.0, -1.0, 1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=re.escape("rate must lie in (0, 1]")):
            DistanceSpectrum(n=7, log_a=hamming_spec.log_a, d_min=3, rate=rate)
    assert DistanceSpectrum(n=7, log_a=hamming_spec.log_a, d_min=3, rate=1.0).rate == 1.0


def test_load_spectrum_rejects_non_integral_sizes(tmp_path, hamming_spec):
    path = tmp_path / "ham.json"
    save_spectrum(hamming_spec, str(path))
    good = path.read_text()
    for field, value in (("n", "7.9"), ("d_min", "3.5"), ("n", '"7"'), ("d_min", "true")):
        path.write_text(good.replace(f'"{field}": {getattr(hamming_spec, field)}',
                                     f'"{field}": {value}'))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {field} must be an integer")):
            load_spectrum(str(path))
    # an integral float is an integer
    path.write_text(good.replace('"n": 7', '"n": 7.0'))
    assert load_spectrum(str(path)).n == 7


def test_spectrum_validation_direct():
    with pytest.raises(ValueError):
        DistanceSpectrum(n=2, log_a=np.array([0.0, 0.0]), d_min=1)  # wrong length
    with pytest.raises(ValueError):
        DistanceSpectrum(n=2, log_a=np.array([0.0, np.nan, 0.0]), d_min=1)
    with pytest.raises(ValueError):
        DistanceSpectrum(n=2, log_a=np.zeros(3), d_min=1, kind="mystery")


def test_spectrum_rejects_d_min_above_least_weight(tmp_path, hamming_spec, hamming_bit_spec):
    # A d_min above the least nonzero weight would let itsb drop the terms
    # below it and fall under the code's error probability.
    for d_min in (2, 4):
        with pytest.raises(ValueError, match=f"d_min={d_min} is not the least nonzero weight 3"):
            DistanceSpectrum(n=7, log_a=hamming_spec.log_a, d_min=d_min, rate=4 / 7)
    with pytest.raises(ValueError, match="least nonzero weight 3"):
        DistanceSpectrum(n=7, log_a=hamming_bit_spec.log_a, d_min=4, kind="bit", rate=4 / 7)
    # no word of weight >= 1: any d_min in range; ensembles keep their
    # effective d_min
    DistanceSpectrum(n=4, log_a=np.array([0.0] + [-math.inf] * 4), d_min=1)
    ens = random_ensemble_spectrum(12, 0.5)
    assert ens.d_min > 1 and math.isfinite(ens.log_a[1])
    path = tmp_path / "ham.json"
    save_spectrum(hamming_spec, str(path))
    path.write_text(path.read_text().replace('"d_min": 3', '"d_min": 4'))
    with pytest.raises(ValueError, match=re.escape(f"{path}: d_min=4")):
        load_spectrum(str(path))


def test_growth_rate_reads_non_binomial_ensemble_file(tmp_path, monkeypatch):
    # An ensemble spectrum that is not the binomial one of its (n, rate),
    # here every A_h scaled by e^-5, is read weight by weight as a code's;
    # the binomial one keeps the closed form, bit for bit, after a file
    # round trip.  Which one it is is decided once per spectrum, not per
    # rate evaluation.
    binom = random_ensemble_spectrum(64, 0.5)
    scaled = DistanceSpectrum(n=64, log_a=binom.log_a - 5.0, d_min=binom.d_min,
                              kind="ensemble", rate=0.5)
    want = tsb_exponent(GrowthRate.from_spectrum(binom), 1.0)
    code_log_a = scaled.log_a.copy()
    code_log_a[0] = 0.0
    as_code = tsb_exponent(GrowthRate.from_spectrum(
        DistanceSpectrum(n=64, log_a=code_log_a, d_min=1, rate=0.5)), 1.0)
    for spec, name in ((binom, "binom.json"), (scaled, "scaled.json")):
        save_spectrum(spec, str(tmp_path / name))
    calls = []
    check = codes._binomial_log_a
    monkeypatch.setattr(codes, "_binomial_log_a", lambda n, rate: calls.append(n) or check(n, rate))
    r_binom = GrowthRate.from_spectrum(load_spectrum(str(tmp_path / "binom.json")))
    r_scaled = GrowthRate.from_spectrum(load_spectrum(str(tmp_path / "scaled.json")))
    assert (r_binom.kind, r_scaled.kind) == ("ensemble", "code")
    assert tsb_exponent(r_binom, 1.0) == want
    assert r_binom(0.25) == growth_rate(binom, 0.25) == pytest.approx(0.2158, abs=1e-4)
    assert r_scaled(0.25) == (binom.log_a[16] - 5.0) / 64 == pytest.approx(0.1038, abs=1e-4)
    got = tsb_exponent(r_scaled, 1.0)
    assert got == as_code and got.exponent == pytest.approx(0.1456, abs=1e-4)
    assert calls == [64, 64]

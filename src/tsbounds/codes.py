"""Distance spectra (block and bit error) of binary linear block codes, plus
the binomial spectrum of the fully random code ensemble.

Spectra are kept in natural-log domain throughout (counts for long ensembles
overflow doubles), with -inf encoding an absent weight.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "EnumerationCapError",
    "GeneratorMatrix",
    "DistanceSpectrum",
    "GrowthRate",
    "parse_generator",
    "load_generator",
    "enumerate_spectrum",
    "random_ensemble_spectrum",
    "growth_rate",
    "save_spectrum",
    "load_spectrum",
]

_LN2 = math.log(2.0)

ENUMERATION_CAP = 24  # 2^24 codewords, desk-scale exactness bound
# Largest ensemble block length: the exact binomials cost time ~ n^2
# (about 0.5 s at this n on a 2-vCPU Xeon, 1.9 s at twice it).
ENSEMBLE_CAP = 1 << 16


class EnumerationCapError(ValueError):
    """Raised when a code is too large for exhaustive enumeration."""


def _gf2_rank(bits: np.ndarray) -> int:
    m = bits.copy()
    rank = 0
    rows, cols = m.shape
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if m[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        below = m[:, col].astype(bool).copy()
        below[rank] = False
        m[below] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


@dataclass(frozen=True)
class GeneratorMatrix:
    """Full-rank k x n binary generator matrix."""

    k: int
    n: int
    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.ascontiguousarray(np.asarray(self.bits, dtype=np.uint8))
        object.__setattr__(self, "bits", bits)
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if bits.shape != (self.k, self.n):
            raise ValueError(f"bits shape {bits.shape} does not match ({self.k}, {self.n})")
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("generator entries must be 0 or 1")
        if _gf2_rank(bits) != self.k:
            raise ValueError("generator rows are linearly dependent over GF(2)")

    @property
    def rate(self) -> float:
        return self.k / self.n


def parse_generator(text: str) -> GeneratorMatrix:
    """Parse the generator text format: a "k n" header line, then k rows of
    n characters in {0,1} (blank lines ignored)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty generator description")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"header must be 'k n', got {lines[0]!r}")
    try:
        k, n = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError(f"header must contain two integers, got {lines[0]!r}") from exc
    if len(lines) - 1 != k:
        raise ValueError(f"expected {k} matrix rows, found {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        if len(ln) != n or set(ln) - {"0", "1"}:
            raise ValueError(f"line {i}: expected {n} characters in {{0,1}}, got {ln!r}")
        rows.append([int(ch) for ch in ln])
    return GeneratorMatrix(k=k, n=n, bits=np.array(rows, dtype=np.uint8))


def load_generator(path: str) -> GeneratorMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_generator(fh.read())


@dataclass(frozen=True)
class DistanceSpectrum:
    """Weight distribution in natural-log domain.

    log_a[h] = ln A_h for h = 0..n, with -inf marking A_h = 0.  kind is
    "code" for exact enumerations, "ensemble" for average spectra of code
    ensembles (rate set), and "bit" for the bit-error reweighting of a code
    spectrum (log_a[0] = -inf there, since the all-zero word carries no
    information-bit errors).  A code or bit spectrum with a word of weight
    h >= 1 has d_min equal to the least such h.  A rate, when set, lies in
    (0, 1].
    """

    n: int
    log_a: np.ndarray
    d_min: int
    kind: str = "code"
    rate: float | None = None

    def __post_init__(self) -> None:
        log_a = np.asarray(self.log_a, dtype=float)
        log_a.setflags(write=False)
        object.__setattr__(self, "log_a", log_a)
        if self.n < 1:
            raise ValueError(f"block length must be positive, got n={self.n}")
        if log_a.shape != (self.n + 1,):
            raise ValueError(f"log_a must have {self.n + 1} entries, got {log_a.shape}")
        if np.any(np.isnan(log_a)) or np.any(log_a == math.inf):
            raise ValueError("log_a entries must be finite or -inf")
        if self.kind not in ("code", "ensemble", "bit"):
            raise ValueError(f"unknown spectrum kind {self.kind!r}")
        if self.kind == "code" and log_a[0] != 0.0:
            raise ValueError("code spectrum must have A_0 = 1 (log_a[0] = 0)")
        if self.kind == "ensemble" and self.rate is None:
            raise ValueError("ensemble spectrum requires a rate")
        if self.rate is not None and not 0 < self.rate <= 1:
            raise ValueError(f"rate must lie in (0, 1], got {self.rate}")
        if not 1 <= self.d_min <= self.n:
            raise ValueError(f"d_min must lie in [1, n], got {self.d_min}")
        words = np.flatnonzero(log_a[1:] > -math.inf) + 1
        if self.kind in ("code", "bit") and words.size and self.d_min != words[0]:
            raise ValueError(f"d_min={self.d_min} is not the least nonzero weight {words[0]}")

    @cached_property
    def binomial(self) -> bool:
        """Whether this is the binomial spectrum of the random ensemble at
        (n, rate): kind "ensemble", each ln A_h within 1e-9 (or 1e-12
        relative) of ln C(n,h) - n(1-R) ln 2.  Computed once per spectrum."""
        return self.kind == "ensemble" and np.allclose(
            self.log_a, _binomial_log_a(self.n, self.rate), rtol=1e-12, atol=1e-9)


def _binomial_log_a(n: int, rate: float) -> np.ndarray:
    # ln C(n, h) - n(1-R) ln 2 from the exact big-integer binomials, each
    # logged as the recurrence reaches it (h <= n/2) and mirrored for the
    # rest: one big integer is held at a time.
    offset = n * (1.0 - rate) * _LN2
    half = np.empty(n // 2 + 1)
    comb = 1
    for h in range(n // 2 + 1):
        half[h] = math.log(comb) - offset
        comb = comb * (n - h) // (h + 1)
    return np.concatenate([half, half[: (n + 1) // 2][::-1]])


@dataclass(frozen=True)
class GrowthRate:
    """Normalized log spectrum evaluator r(delta) = ln A_{delta n} / n.

    fn maps a normalized weight to r, and a 1-D array of them to the array
    of r elementwise (a value that broadcasts to it, such as a constant, is
    accepted); growth_rate is such a function.  kind tags the provenance:
    "code" (a finite spectrum, or an ensemble spectrum that is not binomial;
    n is set and the evaluator is a step lookup), "ensemble" (the binomial
    closed form), or any user-defined tag for a custom analytic r(delta).
    """

    fn: Callable
    kind: str
    n: int | None = None

    def __call__(self, delta):
        return self.fn(delta)

    @classmethod
    def from_spectrum(cls, spec: DistanceSpectrum) -> "GrowthRate":
        return cls(
            fn=lambda d, _s=spec: growth_rate(_s, d),
            kind="ensemble" if spec.binomial else "code",
            n=spec.n,
        )


def _encode(g: GeneratorMatrix, msgs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bits (k per row) and codewords (n) of uint32 message indices."""
    bits = ((msgs[:, None] >> np.arange(g.k, dtype=np.uint32)[None, :]) & 1).astype(np.uint8)
    return bits, (bits @ g.bits) & 1  # row sums <= k <= 24, no uint8 overflow


def enumerate_spectrum(g: GeneratorMatrix) -> tuple[DistanceSpectrum, DistanceSpectrum]:
    """Exact block and bit spectra by enumerating all 2^k codewords.

    Every codeword is counted by information weight w and Hamming weight h
    in one exact int64 table A_wh (messages in chunks of 2^16).  The block
    spectrum is A_h = sum_w A_wh; the bit spectrum (kind "bit") is
    A'_h = sum_w w A_wh / k, an exact integer sum divided once, with the
    code's d_min and rate.
    """
    if g.k > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"k={g.k} exceeds the 2^{ENUMERATION_CAP} enumeration cap"
        )
    counts = np.zeros((g.k + 1, g.n + 1), dtype=np.int64)
    total = 1 << g.k
    chunk = 1 << 16
    for base in range(0, total, chunk):
        bits, cw = _encode(g, np.arange(base, min(base + chunk, total), dtype=np.uint32))
        w = bits.sum(axis=1).astype(np.int64)
        h = cw.sum(axis=1).astype(np.int64)
        np.add.at(counts, (w, h), 1)
    a_h = counts.sum(axis=0)
    log_a = np.where(a_h > 0, np.log(np.maximum(a_h, 1)), -math.inf)
    nz = np.nonzero(a_h[1:])[0]
    if nz.size == 0:
        raise ValueError("degenerate code: only the all-zero codeword")
    d_min = int(nz[0]) + 1
    # a nonzero codeword has a nonzero message, so A'_h > 0 exactly where
    # A_h > 0 for h >= 1, and the bit spectrum shares d_min
    bit_sums = np.arange(g.k + 1) @ counts
    log_bit = [math.log(int(s) / g.k) if s else -math.inf for s in bit_sums]
    return (DistanceSpectrum(n=g.n, log_a=log_a, d_min=d_min, kind="code", rate=g.rate),
            DistanceSpectrum(n=g.n, log_a=log_bit, d_min=d_min, kind="bit", rate=g.rate))


def random_ensemble_spectrum(n: int, rate: float) -> DistanceSpectrum:
    """Binomial average spectrum of the fully random ensemble:
    A_h = C(n,h) 2^{-n(1-R)}, exact big-integer binomials under the log.

    d_min is the effective minimum distance: the smallest h >= 1 whose
    expected count is at least one (falling back to the most populated
    weight when no expected count reaches one).  n may not exceed
    ENSEMBLE_CAP.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate must lie in (0,1), got {rate}")
    if not 2 <= n <= ENSEMBLE_CAP:
        raise ValueError(f"need 2 <= n <= {ENSEMBLE_CAP}, got n={n}")
    log_a = _binomial_log_a(n, rate)
    at_least_one = np.nonzero(log_a[1:] >= 0.0)[0]
    if at_least_one.size:
        d_min = int(at_least_one[0]) + 1
    else:
        d_min = int(np.argmax(log_a[1:])) + 1
    return DistanceSpectrum(n=n, log_a=log_a, d_min=d_min, kind="ensemble", rate=rate)


def growth_rate(spec: DistanceSpectrum, delta):
    """Normalized log spectrum r(delta) = ln A_h / n at h = delta * n.

    The binomial ensemble spectrum (DistanceSpectrum.binomial) uses the
    closed form H(delta) - (1-R) ln 2 with H the natural-log binary entropy;
    every other spectrum, ensemble or not, uses the nearest weight.
    Returns -inf where the spectrum is empty.  delta is a float (a float is
    returned) or a 1-D array (an array is returned, elementwise); both are
    evaluated in the same numpy arithmetic.
    """
    d = np.asarray(delta, dtype=float)
    outside = ~((0.0 < d) & (d <= 1.0))
    if outside.any():
        raise ValueError(f"delta must lie in (0,1], got {d[outside][0]}")
    if spec.binomial:
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = -d * np.log(d) - (1.0 - d) * np.log1p(-d)
        r = np.where(d == 1.0, 0.0, ent) - (1.0 - spec.rate) * _LN2
    else:
        r = np.asarray(spec.log_a, dtype=float)[np.rint(d * spec.n).astype(int)] / spec.n
    return float(r) if np.ndim(delta) == 0 else r


def save_spectrum(spec: DistanceSpectrum, path: str) -> None:
    payload = {
        "kind": spec.kind,
        "n": spec.n,
        "d_min": spec.d_min,
        "log_a": [("-inf" if v == -math.inf else float(v)) for v in spec.log_a],
    }
    if spec.rate is not None:
        payload["rate"] = spec.rate
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_spectrum(path: str) -> DistanceSpectrum:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    for key in ("kind", "n", "d_min", "log_a"):
        if key not in payload:
            raise ValueError(f"{path}: missing field {key!r}")
    for key in ("n", "d_min"):
        v = payload[key]
        if not (type(v) is int or isinstance(v, float) and v.is_integer()):
            raise ValueError(f"{path}: {key} must be an integer, got {v!r}")
    raw = payload["log_a"]
    if not isinstance(raw, list):
        raise ValueError(f"{path}: log_a must be a list")
    log_a = np.empty(len(raw))
    for i, v in enumerate(raw):
        if v == "-inf":
            log_a[i] = -math.inf
        elif isinstance(v, (int, float)):
            log_a[i] = float(v)
        else:
            raise ValueError(f"{path}: log_a[{i}] must be a number or '-inf', got {v!r}")
    try:
        return DistanceSpectrum(
            n=int(payload["n"]),
            log_a=log_a,
            d_min=int(payload["d_min"]),
            kind=str(payload["kind"]),
            rate=(float(payload["rate"]) if payload.get("rate") is not None else None),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc

"""Shared fixtures: small reference codes used across the test suite."""

import numpy as np
import pytest

from tsbounds.codes import GeneratorMatrix, enumerate_spectrum


@pytest.fixture(scope="session")
def hamming74():
    """Systematic (7,4) Hamming generator [I | P]."""
    p = np.array(
        [
            [1, 1, 0],
            [0, 1, 1],
            [1, 1, 1],
            [1, 0, 1],
        ],
        dtype=np.uint8,
    )
    bits = np.hstack([np.eye(4, dtype=np.uint8), p])
    return GeneratorMatrix(k=4, n=7, bits=bits)


@pytest.fixture(scope="session")
def golay2312():
    """(23,12) binary Golay code: cyclic shifts of the degree-11 generator
    polynomial 1 + x + x^5 + x^6 + x^7 + x^9 + x^11."""
    g_coeffs = [1, 1, 0, 0, 0, 1, 1, 1, 0, 1, 0, 1]
    bits = np.zeros((12, 23), dtype=np.uint8)
    for i in range(12):
        bits[i, i : i + 12] = g_coeffs
    return GeneratorMatrix(k=12, n=23, bits=bits)


@pytest.fixture(scope="session")
def hamming_spec(hamming74):
    spec, _ = enumerate_spectrum(hamming74)
    return spec


@pytest.fixture(scope="session")
def hamming_bit_spec(hamming74):
    _, bit_spec = enumerate_spectrum(hamming74)
    return bit_spec


@pytest.fixture(scope="session")
def golay_spec(golay2312):
    spec, _ = enumerate_spectrum(golay2312)
    return spec

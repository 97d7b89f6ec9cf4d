"""BPSK over AWGN with log-likelihood-ratio demodulation.

Bit 0 maps to +1 and bit 1 to -1, so a positive LLR means bit 0 is the
more likely value.  Noise levels are set from Eb/N0 in dB, adjusted by the
code rate: sigma = sqrt(1 / (2 * rate * 10^(snr_db / 10))).
"""

from __future__ import annotations

import math

import numpy as np

from ._checks import all_either


def bpsk_modulate(bits) -> np.ndarray:
    """Map bits to antipodal symbols: 0 -> +1.0, 1 -> -1.0."""
    b = np.asarray(bits)
    if not all_either(b, 0, 1):
        raise ValueError("bits must be 0 or 1")
    return 1.0 - 2.0 * b.astype(np.float64)


def noise_sigma(snr_db: float, rate: float = 1.0) -> float:
    """Noise standard deviation for a given Eb/N0 in dB and code rate.

    Raises ValueError for an snr_db whose sigma is not a finite positive
    float, or whose LLR scale 2 / sigma^2 (see llr_from_channel) overflows:
    nan, +-inf, or a magnitude of about 3077-3083 dB or more, depending
    on the rate.
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    snr_db = float(snr_db)
    try:
        sigma = math.sqrt(1.0 / (2.0 * rate * 10.0 ** (snr_db / 10.0)))
        llr_scale = 2.0 / (sigma * sigma)
    except (OverflowError, ZeroDivisionError):
        sigma = llr_scale = math.nan
    if not (math.isfinite(sigma) and math.isfinite(llr_scale)):
        raise ValueError(f"snr_db={snr_db!r} gives no finite positive noise "
                         "sigma with finite LLRs")
    return sigma


def awgn(symbols, snr_db: float, seed, rate: float = 1.0):
    """Add white Gaussian noise at the requested Eb/N0.

    Returns (received, sigma).  seed may be an integer or a Generator; a
    fixed integer seed gives a reproducible noise draw.
    """
    s = np.asarray(symbols, dtype=np.float64)
    sigma = noise_sigma(snr_db, rate)
    return s + sigma * np.random.default_rng(seed).standard_normal(s.shape), sigma


def llr_from_channel(received, sigma) -> np.ndarray:
    """Exact AWGN bit LLRs: 2 y / sigma^2 under the 0 -> +1 mapping.
    sigma may also broadcast against received, e.g. as a per-frame column."""
    if np.any(np.asarray(sigma) <= 0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    return 2.0 * np.asarray(received, dtype=np.float64) / (sigma * sigma)

"""Channel model checks: mapping, noise calibration, LLR orientation."""

import numpy as np
import pytest

from codedhash import channel


def test_bpsk_mapping():
    np.testing.assert_array_equal(
        channel.bpsk_modulate([0, 1, 0, 0, 1]),
        np.array([1.0, -1.0, 1.0, 1.0, -1.0]))


def test_bpsk_rejects_nonbinary():
    with pytest.raises(ValueError):
        channel.bpsk_modulate([0, 2, 1])


def test_sigma_formula():
    # rate 1/2 at 3 dB: sigma^2 = 1 / (2 * 0.5 * 10^0.3)
    expected = np.sqrt(1.0 / 10.0 ** 0.3)
    assert channel.noise_sigma(3.0, rate=0.5) == pytest.approx(expected, rel=1e-12)
    # higher SNR means less noise
    assert channel.noise_sigma(6.0) < channel.noise_sigma(0.0)


# 3081 dB has a finite sigma whose LLR scale 2 / sigma^2 overflows
@pytest.mark.parametrize("snr_db", [float("-inf"), -4000.0, 4000.0,
                                    float("nan"), float("inf"), 3081.0])
def test_sigma_rejects_snr_without_finite_positive_sigma(snr_db):
    with pytest.raises(ValueError, match="snr_db"):
        channel.noise_sigma(snr_db, rate=30 / 63)


def test_sigma_at_extreme_but_valid_snr():
    for snr_db in (-3000.0, 3000.0):
        sigma = channel.noise_sigma(snr_db, rate=30 / 63)
        assert np.isfinite(sigma) and sigma > 0.0


def test_awgn_calibration():
    symbols = np.zeros(1_000_000)
    received, sigma = channel.awgn(symbols, snr_db=2.0, seed=123, rate=7 / 15)
    assert np.std(received) == pytest.approx(sigma, rel=0.01)
    assert np.mean(received) == pytest.approx(0.0, abs=5e-3)


def test_awgn_deterministic_for_fixed_seed():
    symbols = np.ones(64)
    a, _ = channel.awgn(symbols, 4.0, seed=9)
    b, _ = channel.awgn(symbols, 4.0, seed=9)
    np.testing.assert_array_equal(a, b)


def test_llr_sign_recovers_bits_at_low_noise():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=200)
    received, sigma = channel.awgn(channel.bpsk_modulate(bits), 20.0, seed=1)
    llr = channel.llr_from_channel(received, sigma)
    np.testing.assert_array_equal((llr < 0).astype(np.uint8), bits)


def test_llr_scale():
    llr = channel.llr_from_channel(np.array([0.5, -1.0]), sigma=0.5)
    np.testing.assert_allclose(llr, [4.0, -8.0], rtol=1e-15)


def test_llr_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        channel.llr_from_channel(np.ones(3), 0.0)


def test_llr_sigma_column_matches_scalar_rows():
    rng = np.random.default_rng(5)
    received = rng.normal(size=(4, 7))
    sigmas = np.array([0.3, 0.7, 1.1, 0.7])
    llr = channel.llr_from_channel(received, sigmas[:, None])
    rows = [channel.llr_from_channel(r, s) for r, s in zip(received, sigmas)]
    np.testing.assert_array_equal(llr, np.array(rows))


def test_llr_rejects_zero_in_sigma_column():
    with pytest.raises(ValueError, match="sigma must be positive"):
        channel.llr_from_channel(np.ones((3, 2)), np.array([[0.5], [0.0], [1.0]]))

"""Unit tests for the real-valued DFT basis and spectrum shapes."""

import numpy as np
import pytest

from repro.exceptions import GenerationError
from repro.tomborg.spectral import (
    band_limited_spectrum,
    flat_spectrum,
    named_spectrum,
    peaked_spectrum,
    power_law_spectrum,
    real_inverse_dft,
    real_synthesis_matrix,
)


class TestRealDFTBasis:
    @pytest.mark.parametrize("length", [2, 3, 8, 17, 64, 101])
    def test_synthesis_matrix_is_orthonormal(self, length):
        basis = real_synthesis_matrix(length)
        assert basis.shape == (length, length)
        assert np.allclose(basis.T @ basis, np.eye(length), atol=1e-10)

    @pytest.mark.parametrize("length", [4, 9, 32, 50])
    def test_round_trip(self, rng, length):
        coefficients = rng.normal(size=(3, length))
        series = real_inverse_dft(coefficients)
        recovered = series @ real_synthesis_matrix(length)
        assert np.allclose(recovered, coefficients, atol=1e-10)

    def test_inner_products_preserved(self, rng):
        """The Parseval property the paper's step (2) relies on."""
        coefficients = rng.normal(size=(4, 60))
        series = real_inverse_dft(coefficients)
        assert np.allclose(series @ series.T, coefficients @ coefficients.T, atol=1e-9)

    def test_dc_coefficient_controls_mean(self):
        length = 16
        coefficients = np.zeros(length)
        coefficients[0] = 4.0
        series = real_inverse_dft(coefficients)
        assert np.allclose(series, 4.0 / np.sqrt(length))

    def test_single_pair_produces_sinusoid(self):
        length = 64
        coefficients = np.zeros(length)
        coefficients[1] = 1.0  # first cosine coefficient
        series = real_inverse_dft(coefficients)
        t = np.arange(length)
        expected = np.sqrt(2.0 / length) * np.cos(2 * np.pi * t / length)
        assert np.allclose(series, expected, atol=1e-10)

    def test_too_short_length_rejected(self):
        with pytest.raises(GenerationError):
            real_synthesis_matrix(1)

    def test_sine_column_follows_its_cosine(self):
        length = 32
        t = np.arange(length)
        basis = real_synthesis_matrix(length)
        expected = -np.sqrt(2.0 / length) * np.sin(2 * np.pi * 3 * t / length)
        assert np.allclose(basis[:, 6], expected, atol=1e-12)

    def test_even_length_ends_with_the_nyquist_column(self):
        basis = real_synthesis_matrix(8)
        assert np.allclose(basis[:, -1], [1, -1, 1, -1, 1, -1, 1, -1] / np.sqrt(8))
        odd = real_synthesis_matrix(9)
        last_sine = -np.sqrt(2.0 / 9) * np.sin(2 * np.pi * 4 * np.arange(9) / 9)
        assert np.allclose(odd[:, -1], last_sine)

    @pytest.mark.parametrize("length", [8, 9])
    def test_every_column_but_dc_has_zero_mean(self, length):
        means = real_synthesis_matrix(length).mean(axis=0)
        assert means[0] == pytest.approx(1.0 / np.sqrt(length))
        assert np.allclose(means[1:], 0.0, atol=1e-12)


class TestSpectrumShapes:
    @pytest.mark.parametrize(
        "shape",
        [flat_spectrum(), power_law_spectrum(1.0), band_limited_spectrum(0.0, 0.1),
         peaked_spectrum(0.05, 0.01)],
        ids=lambda s: s.describe(),
    )
    def test_envelope_contract(self, shape):
        for length in (16, 63, 128):
            envelope = shape.envelope(length)
            assert envelope.shape == (length,)
            assert np.all(envelope >= 0)
            assert np.any(envelope > 0)
            assert envelope[0] == 0.0  # DC suppressed -> zero-mean series

    def test_flat_spectrum_is_flat(self):
        envelope = flat_spectrum().envelope(32)
        assert np.all(envelope[1:] == 1.0)

    def test_power_law_decays(self):
        envelope = power_law_spectrum(1.5).envelope(64)
        assert envelope[1] > envelope[21] > envelope[61]

    def test_band_limited_zero_outside_band(self):
        envelope = band_limited_spectrum(0.1, 0.2).envelope(200)
        freqs = np.zeros(200)
        freqs[1:199:2] = np.repeat(np.arange(1, 100), 2)[: len(freqs[1:199:2])]
        # Just verify that some coefficients are zero and some are one.
        assert set(np.unique(envelope)) <= {0.0, 1.0}
        assert envelope.sum() > 0
        assert (envelope == 0).sum() > 0

    def test_band_limited_short_series_fallback(self):
        envelope = band_limited_spectrum(0.4, 0.45).envelope(8)
        assert envelope.sum() > 0

    def test_peaked_concentrates_energy(self):
        envelope = peaked_spectrum(center=0.1, width=0.005).envelope(256)
        total = (envelope**2).sum()
        top = np.sort(envelope**2)[::-1][:10].sum()
        assert top / total > 0.8

    def test_validation(self):
        with pytest.raises(GenerationError):
            power_law_spectrum(-1.0)
        with pytest.raises(GenerationError):
            band_limited_spectrum(0.3, 0.2)
        with pytest.raises(GenerationError):
            peaked_spectrum(center=0.0)
        with pytest.raises(GenerationError):
            peaked_spectrum(width=0.0)

    def test_named_factory(self):
        assert named_spectrum("flat").describe() == "flat"
        assert "alpha=2" in named_spectrum("power_law", alpha=2).describe()
        with pytest.raises(GenerationError):
            named_spectrum("wavelet")

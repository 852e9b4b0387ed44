"""Transform correctness against the naive DFT, PSD scaling, band powers."""

import numpy as np
import pytest

from oracles import naive_dft

from fome.errors import ConfigError
from fome.preprocess import PatchGrid
from fome.spectral import (
    band_masks,
    band_powers,
    dft,
    psd,
    psd_frequencies,
)


def tone_patch(freq, length=1500, rate=250.0, amp=1.0, phase=0.0):
    t = np.arange(length) / rate
    return amp * np.sin(2 * np.pi * freq * t + phase)


class TestDft:
    def test_delta_is_flat(self):
        np.testing.assert_allclose(dft(np.array([1.0, 0, 0, 0])), np.ones(4), atol=1e-15)

    def test_constant_concentrates_at_dc(self):
        c = 3.25
        out = dft(np.full(8, c))
        assert abs(out[0] - 8 * c) < 1e-12
        assert np.max(np.abs(out[1:])) < 1e-12

    def test_matches_naive_oracle_at_1500(self, rng):
        x = rng.standard_normal(1500)
        diff = np.max(np.abs(dft(x) - naive_dft(x)))
        assert diff < 1e-8 * np.linalg.norm(x)

    @pytest.mark.parametrize("length", [3, 100, 1500])
    def test_parseval(self, rng, length):
        x = rng.standard_normal(length)
        lhs = np.sum(np.abs(dft(x)) ** 2)
        rhs = length * np.sum(x**2)
        assert abs(lhs - rhs) < 1e-9 * rhs

    def test_batched_equals_rowwise(self, rng):
        x = rng.standard_normal((3, 5, 60))
        batched = dft(x)
        for c in range(3):
            for p in range(5):
                np.testing.assert_array_equal(batched[c, p], dft(x[c, p]))


class TestPsd:
    def test_zero_patch(self):
        assert np.all(psd(np.zeros(100), 250.0) == 0.0)

    def test_exact_bin_tone(self):
        spectrum = psd(tone_patch(25.0), 250.0)
        peak = int(np.argmax(spectrum))
        assert peak == 150
        rest = np.delete(spectrum, peak)
        assert np.max(rest) < 1e-6 * spectrum[peak]

    def test_full_spectrum_power_identity(self, rng):
        # sum over the full two-sided spectrum of |X|^2/T == (L/T) * sum(x^2)
        x = rng.standard_normal(300)
        length, rate = 300, 250.0
        duration = length / rate
        lhs = np.sum(np.abs(dft(x)) ** 2) / duration
        rhs = (length / duration) * np.sum(x**2)
        assert abs(lhs - rhs) < 1e-9 * rhs

    def test_nonnegative_and_quadratic_scaling(self, rng):
        x = rng.standard_normal(200)
        base = psd(x, 250.0)
        assert np.all(base >= 0.0)
        np.testing.assert_allclose(psd(3.0 * x, 250.0), 9.0 * base, rtol=1e-12)

    def test_one_sided_length_and_frequencies(self):
        out = psd(np.ones(1500), 250.0)
        assert out.shape == (751,)
        freqs = psd_frequencies(1500, 250.0)
        assert freqs[0] == 0.0 and freqs[-1] == 125.0
        assert abs(freqs[60] - 10.0) < 1e-12

    @pytest.mark.parametrize("length", [8, 100, 1500])
    def test_matches_naive_oracle_one_sided(self, rng, length):
        x = rng.standard_normal((2, length))
        duration = length / 250.0
        expected = np.abs(naive_dft(x)[..., : length // 2 + 1]) ** 2 / duration
        # the oracle's |X| bound (1e-8 * |x|) carried through |X|^2 <= L * |x|^2
        tol = 1e-8 * length * np.max(np.sum(x**2, axis=-1)) / duration
        assert np.max(np.abs(psd(x, 250.0) - expected)) < tol

    def test_hann_taper_runs(self, rng):
        x = rng.standard_normal(128)
        tapered = psd(x, 250.0, taper="hann")
        assert tapered.shape == (65,)
        with pytest.raises(ConfigError):
            psd(x, 250.0, taper="boxcar")


def grid_of(patches, rate=250.0):
    patches = np.asarray(patches, dtype=np.float64)
    return PatchGrid(patches, patches.shape[-1], rate)


class TestBandPowers:
    def test_zero_patch_gives_zero_bands(self):
        out = band_powers(grid_of(np.zeros((1, 1, 1500))))
        assert np.array_equal(out, np.zeros((1, 1, 8)))

    def test_alpha_tone_wins(self):
        out = band_powers(grid_of(tone_patch(10.0).reshape(1, 1, 1500)))
        values = out[0, 0]
        assert int(np.argmax(values)) == 2  # 8-13 Hz band
        assert values[2] > np.max(np.delete(values, 2))

    def test_two_tone_top_bands(self):
        patch = tone_patch(25.0) + tone_patch(60.0)
        values = band_powers(grid_of(patch.reshape(1, 1, 1500)))[0, 0]
        top_two = set(np.argsort(values)[-2:].tolist())
        assert top_two == {3, 5}  # beta (13-30) and gamma2 (50-70)

    def test_time_reversal_invariance(self, rng):
        patch = rng.standard_normal(1500)
        fwd = band_powers(grid_of(patch.reshape(1, 1, 1500)))
        rev = band_powers(grid_of(patch[::-1].reshape(1, 1, 1500)))
        np.testing.assert_allclose(fwd, rev, rtol=1e-9, atol=1e-12)

    def test_log_bookkeeping_lossless(self, rng):
        patch = rng.standard_normal(1500)
        grid = grid_of(patch.reshape(1, 1, 1500))
        values = band_powers(grid)[0, 0]
        spectrum = psd(patch, 250.0)
        masks = band_masks(1500, 250.0)
        in_band = sum(spectrum[m].sum() for m in masks)
        recovered = np.sum(10.0**values - 1.0)
        assert abs(recovered - in_band) < 1e-9 * in_band

    def test_shared_edge_goes_to_upper_band(self):
        # 4 Hz sits exactly on the delta/theta edge: theta owns it
        values = band_powers(grid_of(tone_patch(4.0).reshape(1, 1, 1500)))[0, 0]
        assert int(np.argmax(values)) == 1

    def test_final_band_inclusive_at_100(self):
        values = band_powers(grid_of(tone_patch(100.0).reshape(1, 1, 1500)))[0, 0]
        assert int(np.argmax(values)) == 7

    def test_band_above_nyquist_rejected(self):
        grid = grid_of(np.zeros((1, 1, 64)), rate=150.0)
        with pytest.raises(ConfigError):
            band_powers(grid)

    def test_values_nonnegative(self, rng):
        patches = rng.standard_normal((2, 3, 1500))
        assert np.all(band_powers(grid_of(patches)) >= 0.0)

"""Fourier analysis of patches: spectra, power density, and band powers.

Transforms are numpy's FFT (pocketfft), which handles any length exactly,
including the canonical 1500-sample patch (2^2 * 3 * 5^3), without padding.
Band powers are a plain (C, P, N_BANDS) float64 array over the paper's
eight fixed bands, the shape the model's frequency embedding takes; this
module is the one owner of the band table and its count.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .preprocess import PatchGrid


def dft(x: np.ndarray) -> np.ndarray:
    """Discrete Fourier transform along the last axis.

    Unnormalized convention: X_k = sum_n x_n * exp(-2i*pi*k*n/L), so the
    inverse divides by L and Parseval reads sum|X|^2 = L * sum|x|^2.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[-1] < 1:
        raise ConfigError("dft needs at least one sample")
    return np.fft.fft(x, axis=-1)


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann taper."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def psd(patch: np.ndarray, rate_hz: float, taper: str = "none") -> np.ndarray:
    """One-sided power spectral density of a patch (last axis).

    P(k) = |X_k|^2 / T with T the patch duration in seconds; bins 0..L//2
    are retained (real-input symmetry) with no one-sided doubling factor.
    """
    patch = np.asarray(patch, dtype=np.float64)
    length = patch.shape[-1]
    if length < 2:
        raise ConfigError("psd needs at least two samples")
    if taper == "hann":
        patch = patch * hann_window(length)
    elif taper != "none":
        raise ConfigError(f"unknown taper {taper!r}")
    duration_s = length / rate_hz
    return np.abs(np.fft.rfft(patch, axis=-1)) ** 2 / duration_s


def psd_frequencies(length: int, rate_hz: float) -> np.ndarray:
    """Center frequency in Hz of each one-sided PSD bin."""
    return np.arange(length // 2 + 1, dtype=np.float64) * (rate_hz / length)


# The eight bands of the fusion embedding, in Hz.  A bin at frequency f
# belongs to band [lo, hi) when lo <= f < hi, so a shared edge goes to the
# upper band; the last band also includes its upper edge.
_BANDS: tuple[tuple[float, float], ...] = (
    (1.0, 4.0),    # delta
    (4.0, 8.0),    # theta
    (8.0, 13.0),   # alpha
    (13.0, 30.0),  # beta
    (30.0, 50.0),  # gamma1
    (50.0, 70.0),  # gamma2
    (70.0, 90.0),  # gamma3
    (90.0, 100.0), # gamma4
)
N_BANDS = len(_BANDS)


def band_masks(length: int, rate_hz: float) -> list[np.ndarray]:
    """Boolean masks selecting each band's one-sided PSD bins."""
    freqs = psd_frequencies(length, rate_hz)
    nyquist = rate_hz / 2.0
    masks = []
    for lo, hi in _BANDS:
        if hi > nyquist:
            raise ConfigError(f"band ({lo}, {hi}) exceeds Nyquist {nyquist} Hz")
        masks.append((freqs >= lo) & (freqs < hi))
    masks[-1] |= freqs == _BANDS[-1][1]
    return masks


def band_powers(grid: PatchGrid, taper: str = "none") -> np.ndarray:
    """Log-compressed in-band PSD sums for every patch: (C, P, N_BANDS).

    Per patch and band: log10(1 + sum of P(f) over the band's bins), which
    is always >= 0 and exactly invertible via 10**v - 1.
    """
    spectra = psd(grid.patches, grid.source_rate_hz, taper=taper)
    masks = band_masks(grid.patch_len, grid.source_rate_hz)
    c, p = grid.patches.shape[:2]
    values = np.empty((c, p, N_BANDS), dtype=np.float64)
    for i, mask in enumerate(masks):
        values[:, :, i] = np.log10(spectra[:, :, mask].sum(axis=-1) + 1.0)
    return values

"""Signal conditioning pipeline and patch segmentation.

Fixed stage order: notch -> band-pass -> resample -> detrend -> window ->
per-window exponential-moving standardization -> patching.  Filters are
causal (forward-only) IIR biquads; resampling is `scipy.signal.resample_poly`
with a Kaiser-windowed low-pass (beta 8.6, 64 taps per phase) over the reduced
rate ratio up/down.  Its bits are those of fome's hand-framed `upfirdn` when
up is a power of two; at 200, 160, 256, 300, 512 and 128 -> 250 Hz they moved
by at most 1.4e-15 on unit-variance noise.

`preprocess_pipeline` filters and resamples one channel at a time into a
single (C, T_out) array and runs the later stages on that array in place,
so its memory is about three arrays of the resampled signal's size.  Each
channel's result is bitwise that of the stage chain: `notch_filter`,
`bandpass_filter` and `resample` on the whole recording, then the
least-squares detrend, the cut into windows and patches, and
`standardize_ema` on each window.  Those four functions each run one stage
on a whole `Recording`; the pipeline calls none of them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.signal import butter, iirnotch, lfilter, resample_poly, sosfilt

from .errors import ConfigError, DataError, EmptyError, FormatError
from .signal_store import Recording, f32_blob

_KAISER_BETA = 8.6
_TAPS_PER_PHASE = 64


@dataclass
class PreprocessConfig:
    """Pipeline parameters; defaults match the 250 Hz / 6 s patch regime."""

    notch_hz: float = 50.0
    notch_q: float = 35.0
    band_lo_hz: float = 0.5
    band_hi_hz: float = 100.5
    target_rate_hz: float = 250.0
    window_len_samples: int = 1500
    ema_alpha: float = 0.05
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.notch_hz not in (50.0, 60.0):
            raise ConfigError(f"notch_hz must be 50 or 60, got {self.notch_hz}")
        if not 0 < self.band_lo_hz < self.band_hi_hz:
            raise ConfigError(f"invalid band ({self.band_lo_hz}, {self.band_hi_hz})")
        if self.window_len_samples < 2:
            raise ConfigError("window_len_samples must be >= 2")
        if not 0 < self.ema_alpha <= 1:
            raise ConfigError(f"ema_alpha must be in (0, 1], got {self.ema_alpha}")
        if self.eps <= 0:
            raise ConfigError("eps must be positive")


@dataclass
class StandardizerState:
    """Final per-channel running statistics after a standardization pass."""

    ema: np.ndarray
    esd: np.ndarray


@dataclass(eq=False)
class PatchGrid:
    """Standardized signal cut into (channels, patches, patch_len)."""

    patches: np.ndarray
    patch_len: int
    source_rate_hz: float

    def __post_init__(self) -> None:
        self.patches = np.asarray(self.patches, dtype=np.float64)
        if self.patches.ndim != 3:
            raise DataError(f"patches must be 3-D, got shape {self.patches.shape}")
        if 0 in self.patches.shape:
            raise DataError(f"need at least one channel, patch and sample, got {self.patches.shape}")
        if self.patches.shape[2] != self.patch_len:
            raise DataError(
                f"patch_len {self.patch_len} != trailing dim {self.patches.shape[2]}"
            )
        if not (np.isfinite(self.source_rate_hz) and self.source_rate_hz > 0):
            raise DataError(f"sample rate must be finite and positive, got {self.source_rate_hz} Hz")
        if not np.all(np.isfinite(self.patches)):
            raise DataError("patch values must be finite")

    @property
    def n_channels(self) -> int:
        return self.patches.shape[0]

    @property
    def n_patches(self) -> int:
        return self.patches.shape[1]


# ---------------------------------------------------------------------------
# filtering
# ---------------------------------------------------------------------------


def _notch_sos(rate_hz: float, f0_hz: float, q: float) -> np.ndarray:
    """The notch biquad as one second-order section; f0 must lie below Nyquist."""
    nyquist = rate_hz / 2.0
    if not 0 < f0_hz < nyquist:
        raise ConfigError(f"notch frequency {f0_hz} Hz outside (0, {nyquist}) Hz")
    b, a = iirnotch(f0_hz, q, fs=rate_hz)
    return np.hstack([b, a]).reshape(1, 6)


def _bandpass_sos(rate_hz: float, lo_hz: float, hi_hz: float) -> np.ndarray:
    """The Butterworth band-pass as two second-order sections."""
    nyquist = rate_hz / 2.0
    if not 0 < lo_hz < hi_hz < nyquist:
        raise ConfigError(
            f"band ({lo_hz}, {hi_hz}) Hz invalid for Nyquist {nyquist} Hz"
        )
    return butter(2, [lo_hz, hi_hz], btype="bandpass", output="sos", fs=rate_hz)


def notch_filter(r: Recording, f0_hz: float, q: float = PreprocessConfig.notch_q) -> Recording:
    """Second-order IIR notch at f0, applied causally per channel."""
    out = sosfilt(_notch_sos(r.sample_rate_hz, f0_hz, q), r.data, axis=1)
    return Recording(out, r.sample_rate_hz, r.channel_labels, r.id)


def bandpass_filter(r: Recording, lo_hz: float, hi_hz: float) -> Recording:
    """4th-order Butterworth band-pass as cascaded biquads, causal."""
    out = sosfilt(_bandpass_sos(r.sample_rate_hz, lo_hz, hi_hz), r.data, axis=1)
    return Recording(out, r.sample_rate_hz, r.channel_labels, r.id)


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------


def _rate_ratio(target_hz: float, source_hz: float) -> tuple[int, int]:
    ratio = target_hz / source_hz
    frac = Fraction(target_hz / source_hz).limit_denominator(1_000_000)
    if abs(float(frac) - ratio) > 1e-9 * ratio:
        raise ConfigError(
            f"rate ratio {target_hz}/{source_hz} has no rational form within 1e-9"
        )
    return frac.numerator, frac.denominator


def _kaiser_lowpass(up: int, down: int, source_hz: float) -> np.ndarray:
    """Anti-alias/anti-image FIR for the polyphase stage, gain `up` at DC."""
    n_taps = _TAPS_PER_PHASE * up
    cutoff_hz = min(source_hz, source_hz * up / down) / 2.0
    frac = cutoff_hz / (source_hz * up)
    n = np.arange(n_taps, dtype=np.float64)
    delay = (n_taps - 1) / 2.0
    taps = 2.0 * frac * np.sinc(2.0 * frac * (n - delay)) * np.kaiser(n_taps, _KAISER_BETA)
    return taps * (up / taps.sum())


def _polyphase(source_hz: float, target_hz: float, n_samples: int):
    """``(n_out, convert)`` for a conversion of `n_samples` from `source_hz`
    to `target_hz`; `convert` maps a (..., n_samples) array to (..., n_out)
    along its last axis, and is None when the rates match."""
    if not (np.isfinite(target_hz) and target_hz > 0):
        raise ConfigError(f"target rate must be finite and positive, got {target_hz}")
    up, down = _rate_ratio(target_hz, source_hz)
    if up == down:
        return n_samples, None
    n_out = int(round(n_samples * up / down))
    if n_out < 1:
        raise EmptyError("resampled signal would be empty")
    window = _kaiser_lowpass(up, down, source_hz) / up  # resample_poly scales it by up

    def convert(x: np.ndarray) -> np.ndarray:
        return resample_poly(x, up, down, axis=-1, window=window)[..., :n_out]

    return n_out, convert


def resample(r: Recording, target_hz: float) -> Recording:
    """Polyphase rational-rate conversion; exact identity when rates match.

    Output length is round(T * target / source); the FIR group delay is
    compensated so output sample m sits at time m / target.
    """
    _, convert = _polyphase(r.sample_rate_hz, target_hz, r.n_samples)
    if convert is None:
        return Recording(r.data.copy(), r.sample_rate_hz, r.channel_labels, r.id)
    return Recording(convert(r.data), target_hz, r.channel_labels, r.id)


# ---------------------------------------------------------------------------
# detrend + standardization
# ---------------------------------------------------------------------------


def _detrend(x: np.ndarray) -> None:
    """Remove the least-squares line from each row of the 2-D array x, in place."""
    if x.shape[1] < 2:
        raise ConfigError("detrend needs at least two samples")
    t = np.arange(x.shape[1], dtype=np.float64)
    tc = t - t.mean()
    slope = (x @ tc) / (tc @ tc)
    intercept = x.mean(axis=1) - slope * t.mean()
    x -= intercept[:, None] + slope[:, None] * t


def _standardize(x: np.ndarray, alpha: float, eps: float) -> StandardizerState:
    """`standardize_ema` along the last axis of x, in place, every leading
    index on its own; returns the final running statistics."""
    b, a = [alpha], [1.0, alpha - 1.0]
    ema, _ = lfilter(b, a, x, axis=-1, zi=(1.0 - alpha) * x[..., :1])
    x -= ema
    last_ema = ema[..., -1].copy()
    var, _ = lfilter(b, a, np.square(x, out=ema), axis=-1, zi=np.zeros_like(x[..., :1]))
    del ema
    esd = np.sqrt(var, out=var)
    state = StandardizerState(ema=last_ema, esd=esd[..., -1].copy())
    esd += eps
    x /= esd
    return state


def standardize_ema(
    r: Recording, cfg: PreprocessConfig
) -> tuple[Recording, StandardizerState]:
    """Exponential moving standardization, strictly left-to-right in time.

    With smoothing factor a, running stats initialized to ema = first
    sample and esd = 0, each step computes

        ema_t = a*x_t + (1-a)*ema_{t-1}
        esd_t = sqrt(a*(x_t - ema_t)^2 + (1-a)*esd_{t-1}^2)
        out_t = (x_t - ema_t) / (esd_t + eps)

    Both recurrences run as first-order IIR filters; esd is filtered as the
    variance esd_t^2 and square-rooted afterwards.
    """
    out = r.data.copy()
    state = _standardize(out, cfg.ema_alpha, cfg.eps)
    return Recording(out, r.sample_rate_hz, r.channel_labels, r.id), state


# ---------------------------------------------------------------------------
# windowing + patching
# ---------------------------------------------------------------------------


def _windowed_length(n_samples: int, cfg: PreprocessConfig, patch_len: int) -> int:
    """Samples kept by whole windows; checks that patches tile a window."""
    window = cfg.window_len_samples
    if patch_len < 1:
        raise ConfigError("patch_len must be >= 1")
    if window % patch_len != 0:
        raise ConfigError(f"patch_len {patch_len} must divide window {window}")
    n_windows = n_samples // window
    if n_windows == 0:
        raise EmptyError(
            f"signal of {n_samples} samples is shorter than one window ({window})"
        )
    return n_windows * window


def preprocess_pipeline(
    r: Recording, cfg: PreprocessConfig, patch_len: int | None = None
) -> PatchGrid:
    """Full conditioning chain ending in a standardized PatchGrid.

    The notch and the band-pass run as one cascaded `sosfilt` over their
    three sections.  `sosfilt` takes each sample through the sections in
    turn, so the result is bitwise `bandpass_filter(notch_filter(r))`.
    Filtering and resampling run one channel at a time into a single
    (C, T_out) array; detrend, windowing and standardization then work on
    that array in place.  The pipeline drops its reference to ``r`` once
    every channel is filtered, so a caller that passes a recording it does
    not keep (as the CLI does) frees the input before detrend.
    """
    patch_len = cfg.window_len_samples if patch_len is None else patch_len
    sos = np.vstack([_notch_sos(r.sample_rate_hz, cfg.notch_hz, cfg.notch_q),
                     _bandpass_sos(r.sample_rate_hz, cfg.band_lo_hz, cfg.band_hi_hz)])
    n_out, convert = _polyphase(r.sample_rate_hz, cfg.target_rate_hz, r.n_samples)
    x = np.empty((r.channels, n_out), dtype=np.float64)
    for c in range(r.channels):
        filtered = sosfilt(sos, r.data[c])
        x[c] = filtered if convert is None else convert(filtered)
    del r
    _detrend(x)
    total = _windowed_length(n_out, cfg, patch_len)
    x = x[:, :total].reshape(x.shape[0], -1, cfg.window_len_samples)
    _standardize(x, cfg.ema_alpha, cfg.eps)
    return PatchGrid(x.reshape(x.shape[0], -1, patch_len), patch_len, cfg.target_rate_hz)


# ---------------------------------------------------------------------------
# FEGP v1 grid file format
# ---------------------------------------------------------------------------

_GRID_MAGIC = b"FEGP"
_GRID_HEADER = struct.Struct("<4sIIId")


def grid_to_bytes(grid: PatchGrid) -> bytearray:
    c, p, length = grid.patches.shape
    return f32_blob(_GRID_HEADER.pack(_GRID_MAGIC, c, p, length, grid.source_rate_hz),
                    grid.patches)


def grid_from_bytes(buf: bytes, source: str = "<bytes>") -> PatchGrid:
    if len(buf) < _GRID_HEADER.size:
        raise FormatError(f"{source}: truncated grid header")
    magic, c, p, length, rate = _GRID_HEADER.unpack_from(buf, 0)
    if magic != _GRID_MAGIC:
        raise FormatError(f"{source}: bad magic {magic!r}, expected {_GRID_MAGIC!r}")
    expected = _GRID_HEADER.size + 4 * c * p * length
    if len(buf) != expected:
        raise FormatError(f"{source}: payload is {len(buf)} bytes, expected {expected}")
    flat = np.frombuffer(buf, dtype="<f4", offset=_GRID_HEADER.size)
    patches = flat.astype(np.float64).reshape(c, p, length)
    return PatchGrid(patches=patches, patch_len=length, source_rate_hz=rate)

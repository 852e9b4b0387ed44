"""Shared fixtures and tone-measurement harness."""

from __future__ import annotations

import os
import shutil
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from fome.signal_store import Recording

# the same examples on every run, and no example database on disk
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    """Keep hypothesis's cache of source constants out of the working tree:
    it goes to a temporary directory removed when the session ends."""
    scratch = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(scratch, ignore_errors=True))
    os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", scratch)


def pytest_report_header(config):
    """Name the numpy and BLAS build the bitwise contracts were checked on:
    BLAS picks its kernel, and so a product's bits, by the call's shape."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas = {}
    return f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}"


def make_tone(freq_hz: float, fs: float, duration_s: float, channels: int = 1,
              amplitude: float = 1.0, phase: float = 0.0) -> Recording:
    t = np.arange(int(round(duration_s * fs))) / fs
    x = amplitude * np.sin(2 * np.pi * freq_hz * t + phase)
    return Recording(np.tile(x, (channels, 1)), fs)


def rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.asarray(x) ** 2)))


def steady_state_db(processed: Recording, original: Recording, settle_s: float = 2.0) -> float:
    """Level change in dB after discarding the filter transient."""
    skip = int(settle_s * original.sample_rate_hz)
    return 20.0 * np.log10(
        rms(processed.data[:, skip:]) / rms(original.data[:, skip:])
    )


def interior_tone_amplitude(x: np.ndarray, fs: float, freq_hz: float) -> tuple[int, float]:
    """(peak bin, amplitude) from the middle half of a real tone signal.

    The trim keeps filter edge transients out of the estimate; callers
    arrange durations so the tone lands exactly on a bin.
    """
    n = x.shape[-1]
    seg = x[n // 4 : n - n // 4]
    spectrum = np.abs(np.fft.rfft(seg))
    peak = int(np.argmax(spectrum[1:])) + 1
    return peak, 2.0 * spectrum[peak] / seg.size


def traced_peak(fn) -> tuple[object, int]:
    """``(fn(), bytes)``: the result, and the traced peak of the allocations
    `fn` made above what was allocated when it started."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


MiB = 1 << 20


def fckp_bytes(records: dict) -> bytes:
    """An FCKP file built from its documented layout: magic `FCKP`, u32
    record count, then per record a u16 name length and the UTF-8 name, a u8
    dtype tag (0 for a float64 array, 2 for a str as UTF-8 text), u8 rank,
    u64 dims and the little-endian data."""
    blob = b"FCKP" + struct.pack("<I", len(records))
    for name, value in records.items():
        if isinstance(value, str):
            tag, data = 2, np.frombuffer(value.encode("utf-8"), np.uint8)
        else:
            tag, data = 0, np.asarray(value, dtype="<f8")
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded)) + encoded + struct.pack("<BB", tag, data.ndim)
        blob += struct.pack(f"<{data.ndim}Q", *data.shape) + data.tobytes()
    return blob


@pytest.fixture
def rng():
    return np.random.default_rng(42)

"""Desk-scale EEG foundation model with temporal-lateral attention scaling.

Submodules are loaded lazily so the CLI can pin thread-count environment
variables before numpy initializes its BLAS backend.  Importing the package
fixes glibc's malloc thresholds once for the process.
"""

import ctypes
import importlib

__version__ = "0.1.0"

# glibc mallopt parameters and the fixed thresholds: blocks under 32 MiB
# come from the heap, and the heap top is returned to the system only above
# 128 MiB free.  Under glibc's default dynamic thresholds each training step
# trims its freed activations off the heap top and faults them back in at
# the next step.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 128 << 20


def _fix_malloc_thresholds() -> None:
    """Set the thresholds once; a C library without mallopt is left alone."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


_fix_malloc_thresholds()

_SUBMODULES = (
    "cli",
    "errors",
    "model",
    "numerics",
    "preprocess",
    "rng",
    "signal_store",
    "spectral",
    "trainer",
)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SUBMODULES))

"""Process-wide settings made at `import fome`."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fome

resource = pytest.importorskip("resource")

# 4 rounds of allocating and freeing 48 arrays of 2 MiB each (under numpy's
# 4 MiB huge-page cut); prints each round's minor page faults
_ROUNDS = """
import resource
import fome
import numpy as np

for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(2 << 17) for _ in range(48)]
    del arrays
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_freed_heap_is_reused_without_page_faults():
    src = str(Path(fome.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", _ROUNDS], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    faults = [int(line) for line in done.stdout.split()]
    assert len(faults) == 4
    # the first round maps the memory; later rounds reuse the heap the frees
    # left in place (glibc's default thresholds return it each round)
    assert all(f < 1000 for f in faults[1:]), faults

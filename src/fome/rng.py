"""Deterministic, portable random-number engine.

All stochastic behaviour in this package (synthetic noise, weight
initialization, mask sampling, data shuffling) flows through `Rng` so that
a seed fully determines every output on every platform.

The engine is the counter-based splitmix64 generator: output ``i`` of a
stream seeded with ``s`` is ``mix64(s + (i + 1) * GOLDEN)`` where ``mix64``
is the splitmix64 finalizer and ``GOLDEN = 0x9E3779B97F4A7C15``.  Gaussian
variates are produced from consecutive output pairs with the Box-Muller
transform.  These choices are frozen; recorded test vectors depend on them.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SPLIT_XOR = np.uint64(0xA5A5B2B2C4C4D8D8)
_U64_MASK = (1 << 64) - 1
_INV_2_53 = float(2.0**-53)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        z = z ^ (z >> np.uint64(30))
        z = z * _MIX1
        z = z ^ (z >> np.uint64(27))
        z = z * _MIX2
        return z ^ (z >> np.uint64(31))


class Rng:
    """A named, seedable stream of raw words, uniforms, and normals.

    State is just (seed, counter), so streams are trivially reproducible
    and cheap to fork with `split`.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(int(seed) & _U64_MASK)
        self._count = 0

    def split(self, tag: int) -> "Rng":
        """Derive an independent child stream; same (seed, tag) -> same child."""
        base = np.uint64((int(self._seed) ^ int(_SPLIT_XOR)) & _U64_MASK)
        child = _mix64(np.uint64((int(base) + (int(tag) + 1) * int(_GOLDEN)) & _U64_MASK))
        return Rng(int(child))

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 words."""
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            return _mix64(self._seed + idx * _GOLDEN)

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on [0, 1), 53-bit resolution."""
        return (self.raw(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normals via Box-Muller on consecutive word pairs.

        Pair ``(u1, u2)`` yields ``r*cos(2*pi*u2)`` then ``r*sin(2*pi*u2)``
        with ``r = sqrt(-2*ln(u1))`` and ``u1`` shifted into (0, 1].
        """
        pairs = (n + 1) // 2
        words = self.raw(2 * pairs)
        u1 = ((words[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = (words[1::2] >> np.uint64(11)).astype(np.float64) * _INV_2_53
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(2.0 * np.pi * u2)
        out[1::2] = r * np.sin(2.0 * np.pi * u2)
        return out[:n]

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        """``k`` distinct integers from [0, n), by partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ConfigError(f"cannot draw {k} from {n}")
        arr = np.arange(n, dtype=np.int64)
        words = self.raw(k)
        for i in range(k):
            j = i + int(words[i] % np.uint64(n - i))
            arr[i], arr[j] = arr[j], arr[i]
        return arr[:k]

    def shuffle(self, values: list) -> list:
        """Return a new list with the elements in Fisher-Yates order."""
        n = len(values)
        order = self.sample_without_replacement(n, n)
        return [values[i] for i in order]

"""Deterministic, portable random-number engine.

All stochastic behaviour in this package (synthetic noise, weight
initialization, mask sampling, data shuffling) flows through `Rng` so that
a seed fully determines every output on every platform.

The engine is the counter-based splitmix64 generator: output ``i`` of a
stream seeded with ``s`` is ``mix64(s + (i + 1) * GOLDEN)`` where ``mix64``
is the splitmix64 finalizer and ``GOLDEN = 0x9E3779B97F4A7C15``.  Gaussian
variates are produced from consecutive output pairs with the Box-Muller
transform.  These choices are frozen; recorded test vectors depend on them.

A draw fills its output in blocks of `_BLOCK` words: each block's words
are mixed in place and turned into uniforms or Box-Muller pairs through a
few block-sized scratch arrays, so a draw of any size costs its output
plus one block of scratch.  The result is bitwise what the whole-array
formulas give (`tests/oracles.py` keeps them).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SPLIT_XOR = 0xA5A5B2B2C4C4D8D8
_U64_MASK = (1 << 64) - 1
_INV_2_53 = float(2.0**-53)
_TWO_PI = 2.0 * np.pi
_MIX_STEPS = ((np.uint64(30), _MIX1), (np.uint64(27), _MIX2), (np.uint64(31), None))
_SHIFT_53 = np.uint64(11)  # keeps a word's top 53 bits

_BLOCK = 1 << 13  # words per block (even, so a block holds whole Box-Muller pairs)
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * _GOLDEN  # (k + 1) * GOLDEN, wrapped


def _draw_size(n: int) -> int:
    """`n` as a draw size; a negative count is a `ConfigError` that draws nothing."""
    if n < 0:
        raise ConfigError(f"cannot draw a negative count ({n})")
    return n


def _mix64(z: np.ndarray, scratch: np.ndarray) -> None:
    """splitmix64 finalizer on a uint64 array, in place (wrapping arithmetic);
    `scratch` is a uint64 array of z's shape."""
    for shift, factor in _MIX_STEPS:
        np.right_shift(z, shift, out=scratch)
        np.bitwise_xor(z, scratch, out=z)
        if factor is not None:
            np.multiply(z, factor, out=z)


class Rng:
    """A named, seedable stream of raw words, uniforms, and normals.

    State is just (seed, counter), so streams are trivially reproducible
    and cheap to fork with `split`.
    """

    def __init__(self, seed: int):
        self._seed = int(seed) & _U64_MASK
        self._count = 0

    def split(self, tag: int) -> "Rng":
        """Derive an independent child stream; same (seed, tag) -> same child."""
        z = np.array([((self._seed ^ _SPLIT_XOR) + (int(tag) + 1) * int(_GOLDEN)) & _U64_MASK],
                     dtype=np.uint64)
        _mix64(z, np.empty_like(z))
        return Rng(int(z[0]))

    def _blocks(self, n: int):
        """The next `n` raw words as ``(lo, words)``: words ``lo`` onwards of
        the draw, at most `_BLOCK` at a time, in one buffer reused per block."""
        buffer, scratch = (np.empty(min(n, _BLOCK), dtype=np.uint64) for _ in range(2))
        for lo in range(0, n, _BLOCK):
            m = min(_BLOCK, n - lo)
            words = buffer[:m]
            np.add(_STEPS[:m], np.uint64((self._seed + self._count * int(_GOLDEN)) & _U64_MASK),
                   out=words)
            _mix64(words, scratch[:m])
            self._count += m
            yield lo, words

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 words."""
        out = np.empty(_draw_size(n), dtype=np.uint64)
        for lo, words in self._blocks(n):
            out[lo : lo + words.size] = words
        return out

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on [0, 1), 53-bit resolution."""
        out = np.empty(_draw_size(n), dtype=np.float64)
        for lo, words in self._blocks(n):
            words >>= _SHIFT_53
            np.multiply(words, _INV_2_53, out=out[lo : lo + words.size])
        return out

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normals via Box-Muller on consecutive word pairs.

        Pair ``(u1, u2)`` yields ``r*cos(2*pi*u2)`` then ``r*sin(2*pi*u2)``
        with ``r = sqrt(-2*ln(u1))`` and ``u1`` shifted into (0, 1].  An odd
        ``n`` still consumes the last pair whole.
        """
        pairs = (_draw_size(n) + 1) // 2
        out = np.empty(2 * pairs, dtype=np.float64)
        buffers = [np.empty(min(pairs, _BLOCK // 2)) for _ in range(3)]
        for lo, words in self._blocks(2 * pairs):
            words >>= _SHIFT_53
            m = words.size // 2
            r, theta, cos = (b[:m] for b in buffers)
            np.add(words[0::2], 1.0, out=r)  # u1
            r *= _INV_2_53
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            np.multiply(words[1::2], _INV_2_53, out=theta)  # u2
            theta *= _TWO_PI
            np.multiply(r, np.cos(theta, out=cos), out=out[lo : lo + 2 * m : 2])
            np.multiply(r, np.sin(theta, out=theta), out=out[lo + 1 : lo + 2 * m : 2])
        return out[:n]

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        """``k`` distinct integers from [0, n), by partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ConfigError(f"cannot draw {k} from {n}")
        arr = list(range(n))
        for i, word in enumerate(self.raw(k).tolist()):
            j = i + word % (n - i)
            arr[i], arr[j] = arr[j], arr[i]
        return np.array(arr[:k], dtype=np.int64)

    def shuffle(self, values: list) -> list:
        """Return a new list with the elements in Fisher-Yates order."""
        n = len(values)
        order = self.sample_without_replacement(n, n)
        return [values[i] for i in order]

"""Corrupted copies of a valid file, drawn by hypothesis, for the tests
that every input either parses or raises its documented typed error."""

from __future__ import annotations

from hypothesis import strategies as st


def mutated(data, blob: bytes) -> bytes:
    """`blob` truncated, with one byte's bits flipped, or replaced by up to
    300 random bytes; `data` is a hypothesis `st.data()` draw."""
    kind = data.draw(st.sampled_from(["truncate", "flip", "random"]))
    if kind == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        i = data.draw(st.integers(0, len(blob) - 1))
        bits = data.draw(st.sampled_from([0x01, 0x80, 0xFF]))
        return blob[:i] + bytes([blob[i] ^ bits]) + blob[i + 1:]
    return data.draw(st.binary(max_size=300))

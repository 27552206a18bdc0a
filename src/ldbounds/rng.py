"""Deterministic random streams.

All randomness in the package flows through counter-based Philox4x64-10
generators (numpy's ``Philox`` bit generator), keyed by 64-bit seeds.
Philox is stateless-per-counter, so streams are reproducible across
machines and across chunked execution orders.

Independent substreams (one per experiment cell, one per training batch,
...) are derived with :func:`mix64`, the SplitMix64 output function applied
to ``seed + (index + 1) * GOLDEN_GAMMA mod 2**64``.  The mixing function is
spelled out here so the streams can be regenerated outside this package:

    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) mod 2**64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9   mod 2**64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB   mod 2**64
    x = x ^ (x >> 31)
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def mix64(seed: int, index: int) -> int:
    """Derive substream key `index` from `seed` (SplitMix64 finalizer)."""
    x = (seed + (index + 1) * GOLDEN_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def make_generator(seed: int) -> np.random.Generator:
    """Philox4x64-10 generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def rand_below(gen: np.random.Generator, bound: int) -> int:
    """Uniform integer in [0, bound) for arbitrarily large `bound`.

    Draws ceil(k/64) raw 64-bit words, the same words and generator state
    as ``gen.integers(0, 1 << 64, size=words, dtype=np.uint64)``, keeps the
    top k = bound.bit_length() bits, rejects values >= bound.  Acceptance
    probability is always > 1/2.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    k = bound.bit_length()
    words = (k + 63) // 64
    while True:
        draw = 0
        for w in gen.bit_generator.random_raw(words).tolist():
            draw = (draw << 64) | w
        draw >>= words * 64 - k
        if draw < bound:
            return draw


def stable_text_hash(text: str) -> int:
    """64-bit FNV-1a of UTF-8 bytes; stable across runs and platforms.

    Used to fold cell coordinate strings into seeds (Python's builtin hash
    is salted per process and unusable for that).
    """
    h = 0xCBF29CE484222325
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h

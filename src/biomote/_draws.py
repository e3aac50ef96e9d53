"""Seeded draws from raw PCG64 words.

The Monte Carlo studies draw their random bits, and ALOHA its slot picks,
from the raw 64-bit outputs of PCG64 streams instead of through
``Generator.integers``, which builds an int64 array for every draw.  The
results are numpy's own: its bounded draws on 32-bit ranges take one
uint32 half of a PCG64 output at a time, low half first, and keep the
other half buffered in the bit generator's state (``has_uint32``,
``uinteger``) for the next 32-bit draw.  For ``integers(0, 2)``, Lemire's
method (ACM TOMACS 29(1), 2019) never rejects a word, so a bit is the top
bit of one half.  NEP 19 does not promise numpy's bounded-integer path
across releases, so the tests that pin these draws to ``integers`` on
fresh streams, and the recorded CSV digests, are the guard.
"""

from __future__ import annotations

import numpy as np


def stream(seed: int, n: int, t: int) -> np.random.PCG64:
    """The bit generator of trial t of point (seed, n), at its start."""
    return np.random.PCG64(np.random.SeedSequence((seed, n, t)))


def raw_words(bit_gen: np.random.PCG64, raw: int) -> np.ndarray:
    """The next ``2 * raw`` uint32 words of a PCG64 stream, low half of each
    64-bit output first, as numpy's 32-bit draws consume them."""
    return bit_gen.random_raw(raw).astype("<u8", copy=False).view("<u4")


def random_bits(rng: np.random.Generator, shape) -> np.ndarray:
    """``rng.integers(0, 2, size=shape).astype(np.uint8)`` from the raw words
    of ``rng``'s PCG64 stream, leaving the stream where that call would.

    A half word the stream holds buffered is the first bit; an odd count of
    the words after it leaves the last word's high half buffered.
    """
    bits = np.empty(shape, dtype=np.uint8)
    if bits.size == 0:
        return bits
    bit_gen = rng.bit_generator
    flat = bits.reshape(-1)
    state = bit_gen.state
    held = state["has_uint32"]
    if held:
        flat[0] = state["uinteger"] >> 31
    words = raw_words(bit_gen, (bits.size - held + 1) // 2)
    np.greater_equal(words[:bits.size - held], 1 << 31, out=flat[held:].view(np.bool_))
    spare = words.size - (bits.size - held)
    if held or spare:
        state = bit_gen.state
        state["has_uint32"] = spare
        if spare:
            state["uinteger"] = int(words[-1])
        bit_gen.state = state
    return bits

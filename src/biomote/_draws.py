"""Every seeded draw the CSV bytes rest on.

A Monte Carlo row is a function of (config, seed) through three numpy
algorithms that NEP 19 does not promise across releases:

* **SeedSequence keying of PCG64.**  :func:`stream` is the one place a
  stream is keyed: a MAC trial by (seed, n, trial) and a PHY point by
  (seed, snr key).  :func:`sub_seed` derives each BER sweep point's seed
  from the same hashing, through ``generate_state``.
* **The bounded-integer path.**  numpy's bounded draws on 32-bit ranges
  take one uint32 half of a PCG64 output at a time, low half first, and
  keep the other half buffered in the bit generator's state
  (``has_uint32``, ``uinteger``) for the next 32-bit draw.  Lemire's method
  (ACM TOMACS 29(1), 2019) maps a half u into [0, r) as the high half of
  ``u * r``, and rejects u when the low half is below ``2**32 mod r``.
* **The ziggurat normal**, ``Generator.standard_normal``: the PHY's noise.

Bits (:func:`random_bits`, numpy's ``integers(0, 2)``) and ALOHA's slot
picks (:func:`bounded`, ``integers(0, frame)``) are reproduced here from
raw words, so no int64 array holds them.  :func:`random_bits` reads its
words in pieces of at most :data:`_PIECE` (512 KiB), so a draw holds its
uint8 result and one piece.  Only the PHY noise still comes from a
``Generator`` method.  ``tests/test_draws.py`` pins each algorithm
to literal golden values recorded with numpy 2.4.6 and to numpy's own
methods, and CI pins the CSV digests.
"""

from __future__ import annotations

import numpy as np


#: the master seed of every seeded routine and of the CLI when none is given
DEFAULT_SEED = 0xB10B10

#: most 64-bit raw words :func:`random_bits` holds at once: 512 KiB
_PIECE = 1 << 16


def stream(*key: int) -> np.random.PCG64:
    """The PCG64 bit generator keyed by the integers ``key``, at its start."""
    return np.random.PCG64(np.random.SeedSequence(key))


def sub_seed(master: int, index: int) -> int:
    """Point ``index``'s seed under ``master``, so a point's draws do not
    depend on how points are split across workers."""
    return int(np.random.SeedSequence((master, index)).generate_state(1, np.uint64)[0])


def raw_words(bit_gen: np.random.PCG64, raw: int) -> np.ndarray:
    """The next ``2 * raw`` uint32 words of a PCG64 stream, low half of each
    64-bit output first, as numpy's 32-bit draws consume them."""
    return bit_gen.random_raw(raw).astype("<u8", copy=False).view("<u4")


def random_bits(bit_gen: np.random.PCG64, shape) -> np.ndarray:
    """``Generator(bit_gen).integers(0, 2, size=shape).astype(np.uint8)``
    from the raw words of ``bit_gen``, leaving the stream where that call
    would.

    Lemire's method never rejects a word for two values, so a bit is the
    top bit of one half word.  A half word the stream holds buffered is the
    first bit; an odd count of the words after it leaves the last word's
    high half buffered.  The words are read in pieces of at most
    :data:`_PIECE` raw words, each written straight into the result, so
    the draw holds its result and at most 512 KiB of words.
    """
    bits = np.empty(shape, dtype=np.uint8)
    if bits.size == 0:
        return bits
    flat = bits.reshape(-1)
    state = bit_gen.state
    held = state["has_uint32"]
    if held:
        flat[0] = state["uinteger"] >> 31
    # every piece but the last uses all its halves, so only the last can
    # leave one spare
    spare = 0
    for start in range(held, bits.size, 2 * _PIECE):
        words = raw_words(bit_gen, min(_PIECE, (bits.size - start + 1) // 2))
        stop = min(start + words.size, bits.size)
        np.greater_equal(words[:stop - start], 1 << 31,
                         out=flat[start:stop].view(np.bool_))
        spare, last = words.size - (stop - start), int(words[-1])
        del words                        # freed before the next piece
    if held or spare:
        state = bit_gen.state
        state["has_uint32"] = spare
        if spare:
            state["uinteger"] = last
        bit_gen.state = state
    return bits


def bounded(words: np.ndarray, frame: int) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's method on each uint32 word for ``integers(0, frame)``:
    (values, accepted), each the shape of ``words``.  An accepted word is
    one draw of ``values``; numpy rejects the others and takes the next
    word.  Whether a word is accepted depends only on the word and the
    frame, so calls of ``integers(0, frame)`` one after another draw the
    accepted values of the stream's words in order, however many each
    call takes.  A frame of one slot draws no word at all."""
    # the products u * frame as (low, high) halves
    halves = np.multiply(words, frame, dtype="<u8").view("<u4")
    return halves[..., 1::2], halves[..., 0::2] >= (1 << 32) % frame


def rejections(picks: int, frame: int) -> int:
    """The words Lemire's method rejects on average while it draws
    ``picks`` values in [0, frame), rounded down."""
    return picks * ((1 << 32) % frame) // ((1 << 32) - (1 << 32) % frame)

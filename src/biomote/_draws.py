"""Every seeded draw the CSV bytes rest on.

A Monte Carlo row is a function of (config, seed) through three numpy
algorithms that NEP 19 does not promise across releases:

* **SeedSequence keying of PCG64.**  A stream is keyed by a tuple of
  integers: a MAC trial by (seed, n, trial) and a PHY point by (seed, snr
  key).  numpy's SeedSequence hash is reproduced here, once, on uint32
  arrays (:func:`_generate_state`), and every key goes through
  :func:`seed_words`, which hashes a batch of keys that differ in their
  last integer at once: a batch of one for :func:`stream` and
  :func:`sub_seed` (a BER sweep point's seed), a point's trials for
  :func:`streams` (CDMA) and :func:`first_words` (ALOHA prefixes).  A
  stream's seed words, the four uint64 words ``generate_state(4,
  np.uint64)`` gives, are handed to numpy's ``PCG64``, which seeds itself
  from them.
* **The bounded-integer path.**  numpy's bounded draws on 32-bit ranges
  take one uint32 half of a PCG64 output at a time, low half first, and
  keep the other half buffered in the bit generator's state
  (``has_uint32``, ``uinteger``) for the next 32-bit draw.  Lemire's method
  (ACM TOMACS 29(1), 2019) maps a half u into [0, r) as the high half of
  ``u * r``, and rejects u when the low half is below ``2**32 mod r``.
* **The ziggurat normal**, ``Generator.standard_normal``: the PHY's noise.

PCG64 (O'Neill 2014) is a 128-bit LCG whose output is XSL-RR of the state
after each step, and numpy seeds it (``srandom``) from the seed words.
:func:`first_words` reproduces both for prefixes of up to :data:`_NARROW`
raw words, so an ALOHA study at the defaults never loads ``numpy.random``:
word k of a stream is the output of the LCG state k steps on, a jump in
closed form (Brown 1994) from the seed words, computed for a batch of
keys and words at once.  Wider prefixes, CDMA trials and the PHY's
streams come from numpy's ``PCG64``.

Bits (:func:`random_bits`, numpy's ``integers(0, 2)``) and ALOHA's slot
picks (:func:`bounded`, ``integers(0, frame)``) are reproduced here from
raw words, so no int64 array holds them.  :func:`random_bits` reads its
words in pieces of at most :data:`_PIECE` (512 KiB), so a draw holds its
uint8 result and one piece.  Only the PHY noise still comes from a
``Generator`` method.  ``tests/test_draws.py`` pins each algorithm
to literal golden values recorded with numpy 2.4.6 and to numpy's own
methods, and ``tests/csv_digests.json`` pins the CLI's CSV digests.
"""

from __future__ import annotations

from functools import cache

import numpy as np


#: the master seed of every seeded routine and of the CLI when none is given
DEFAULT_SEED = 0xB10B10

#: most 64-bit raw words :func:`random_bits` holds at once: 512 KiB
_PIECE = 1 << 16

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1

#: SeedSequence's hash constants: the entropy hash, the output hash and
#: the pool mix (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

#: most keys :func:`streams` and :func:`first_words` hash at once, and the
#: most rows :func:`_jumped` computes at once
_KEYS = 1 << 10


def _entropy(key) -> list[int]:
    """The 32-bit entropy words of the non-negative ints ``key``, as
    SeedSequence reads them: each int's words least significant first, 0
    as one word."""
    words = []
    for value in key:
        if value < 0:
            raise ValueError(f"a stream key must be non-negative, not {value}")
        words.append(value & _M32)
        while value := value >> 32:
            words.append(value & _M32)
    return words


def _hashmix(value, const: int, mult: int) -> tuple:
    """SeedSequence's ``hashmix`` of the uint32 words ``value`` with the
    running hash constant ``const``: (the hashed words, the next
    constant)."""
    step = const * mult & _M32
    value = (value ^ const) * step
    return value ^ value >> 16, step


def _mix(x, y):
    """SeedSequence's ``mix`` of two uint32 words."""
    value = _MIX_MULT_L * x - _MIX_MULT_R * y
    return value ^ value >> 16


def _generate_state(entropy: list) -> list:
    """``SeedSequence(entropy).generate_state(8)``, word for word, for a
    batch of keys: the at least four ``entropy`` words are uint32 arrays
    that broadcast together, a key to a column, and wrap as the C does."""
    const, pool = _INIT_A, []
    for value in entropy[:4]:
        value, const = _hashmix(value, const, _MULT_A)
        pool.append(value)
    # mix every pool word into every other, then every entropy word beyond
    # the fourth into each pool word
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[4:]:
        for dst in range(4):
            value, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    const, state = _INIT_B, []
    for i in range(8):
        value, const = _hashmix(pool[i % 4], const, _MULT_B)
        state.append(value)
    return state


def seed_words(key: tuple[int, ...], first: int, stop: int) -> np.ndarray:
    """``SeedSequence(key + (t,)).generate_state(4, np.uint64)`` for each t
    from ``first`` to ``stop - 1``, one row each: the words PCG64 seeds
    stream (key, t) from.

    A t below 2**32 is one entropy word, a larger one its low word and then
    the words of ``t >> 32``, so each run of t that shares ``t >> 32`` is
    hashed at once, every entropy word a uint32 array: the low words'
    runs over the run, and the others, the zeros that pad the pool
    included, hold one word each."""
    table = np.empty((stop - first, 8), "<u4")
    fixed = _entropy(key)
    start = first
    while start < stop:
        high, low = divmod(start, 1 << 32)
        size = min(stop - start, (1 << 32) - low)
        entropy = fixed + [low] + (_entropy([high]) if high else [])
        entropy = list(np.array(entropy + [0] * (4 - len(entropy)), dtype=np.uint32)[:, None])
        entropy[len(fixed)] = entropy[len(fixed)] + np.arange(size, dtype=np.uint32)
        table[start - first:start - first + size] = np.array(_generate_state(entropy)).T
        start += size
    return table.view("<u8")


@cache
def _pcg64():
    """numpy's PCG64 from a row of :func:`seed_words`, seeded as numpy seeds
    it from a SeedSequence; ``numpy.random`` loads at the first call."""
    from numpy.random import PCG64
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """The seed words of one key, which PCG64 asks for as four uint64."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, np.dtype(dtype)) != (4, np.dtype(np.uint64)):
                raise ValueError("only PCG64's four uint64 seed words are held")
            return self.words

    return lambda words: PCG64(SeedWords(words))


def stream(*key: int) -> np.random.PCG64:
    """The PCG64 bit generator keyed by the integers ``key``, at its start."""
    return _pcg64()(seed_words(key[:-1], key[-1], key[-1] + 1)[0])


def streams(key: tuple[int, ...], trials: int):
    """``stream(*key, t)`` for each t below ``trials``, in turn, keyed in
    batches of :data:`_KEYS`."""
    for first in range(0, trials, _KEYS):
        for words in seed_words(key, first, min(first + _KEYS, trials)):
            yield _pcg64()(words)


def sub_seed(master: int, index: int) -> int:
    """Point ``index``'s seed under ``master``, so a point's draws do not
    depend on how points are split across workers: the first uint64 of
    ``SeedSequence((master, index)).generate_state``."""
    return int(seed_words((master,), index, index + 1)[0, 0])


#: PCG64's LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: most raw words a prefix :func:`first_words` computes without
#: ``numpy.random`` (every default ALOHA prefix, at most about 103)
_NARROW = 128


def _jumps(width: int) -> tuple[np.ndarray, ...]:
    """(A_hi, A_lo, C_hi, C_lo), the 64-bit halves of the constants of
    output words 1 to ``width``: word k is the output of the LCG state
    ``A x + C inc mod 2**128`` for the seed state x and increment inc that
    ``srandom`` takes.  ``srandom`` starts from state 0, steps, adds x and
    steps again, and each output steps once more, so A = M**(k+1) and C =
    M**(k+1) + ... + M + 1 for the multiplier M: each LCG jump in closed
    form."""
    steps, power, total = [], 1, 1
    for _ in range(width + 1):
        power = power * _PCG_MULT % (1 << 128)
        total = (total + power) % (1 << 128)
        steps.append((power, total))
    columns = [(a >> 64, a & _M64, c >> 64, c & _M64) for a, c in steps[1:]]
    return tuple(np.array(half, dtype=np.uint64) for half in zip(*columns))


_A_HI, _A_LO, _C_HI, _C_LO = _jumps(_NARROW)


def _wide_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(low, high) 64-bit halves of each ``a * b``, from 32-bit halves."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
    low_low, low_high, high_low = a0 * b0, a0 * b1, a1 * b0
    carry = (low_low >> 32) + (low_high & _M32) + (high_low & _M32)
    return a * b, a1 * b1 + (low_high >> 32) + (high_low >> 32) + (carry >> 32)


def _jumped(seeds: np.ndarray, out: np.ndarray) -> None:
    """The first ``out.shape[1]`` (at most :data:`_NARROW`) PCG64 outputs of
    each row of :func:`seed_words` ``seeds``, into the rows of ``out``.

    A row seeds the LCG with x = (words 0, 1) and inc = 2 (words 2, 3) + 1,
    each (high, low); every 128-bit product wraps in uint64 halves.  The
    rows are computed together, one uint64 grid the shape of ``out`` per
    temporary: at most :data:`_KEYS` rows of :data:`_NARROW` words, 1 MiB,
    as :func:`first_words` calls it."""
    raw = out.shape[1]
    a_hi, a_lo, c_hi, c_lo = _A_HI[:raw], _A_LO[:raw], _C_HI[:raw], _C_LO[:raw]
    x_hi, x_lo = seeds[:, 0:1], seeds[:, 1:2]
    inc_hi = seeds[:, 2:3] << 1 | seeds[:, 3:4] >> 63
    inc_lo = seeds[:, 3:4] << 1 | 1
    low, high = _wide_product(a_lo, x_lo)
    inc_low, inc_high = _wide_product(c_lo, inc_lo)
    low += inc_low
    high += inc_high + (low < inc_low)
    high += a_hi * x_lo + a_lo * x_hi + c_hi * inc_lo + c_lo * inc_hi
    # XSL-RR: the two halves xor-ed, rotated right by the top six bits
    turn = high >> 58
    low ^= high
    out[:] = low >> turn | low << (-turn & 63)


def first_words(key: tuple[int, ...], first: int, stop: int, raw: int) -> np.ndarray:
    """``raw_words(stream(*key, t), raw)`` for each t from ``first`` to
    ``stop - 1``, one row each.  Up to :data:`_NARROW` raw words the rows
    are computed here (:func:`_jumped`), without ``numpy.random``; wider
    ones are drawn from a PCG64 seeded with each row's seed words."""
    table = np.empty((stop - first, raw), "<u8")
    for start in range(first, stop, _KEYS):
        seeds = seed_words(key, start, min(start + _KEYS, stop))
        rows = table[start - first:start - first + len(seeds)]
        if raw <= _NARROW:
            _jumped(seeds, rows)
        else:
            for row, words in zip(rows, seeds):
                row[:] = _pcg64()(words).random_raw(raw)
    return table.view("<u4")


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

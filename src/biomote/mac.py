"""Multi-mote medium access simulation.

Three schemes sized for a transmit-only micro implant:

* binary-tree selection — only the closed-form iteration count, the
  command-heavy protocol itself is not simulated;
* framed slotted ALOHA — each unread mote draws one slot per frame,
  singleton slots succeed and those motes go quiet, collided motes retry
  next frame, no acknowledgment airtime, failures are collisions only;
* synchronous CDMA — chip-level spreading with either mutually orthogonal
  Walsh rows (distinct assignment) or per-mote random +-1 codes; the
  receiver despreads the summed chip stream and a mote counts as read only
  if its whole packet demodulates error-free (multi-access interference is
  the only impairment).

Scenario sweeps read a whole deployment within a time window.  The window
is carved into frames of ``frame_slots``; scenario runs use a single frame
spanning the window (each mote transmits its one packet at a random
offset).  A deployment counts as fully read when the mean shortfall is at
most ``FULL_READ_SHORTFALL`` motes (about one collision pair).

CDMA despreading is exact integer arithmetic done in floating point.
Random codes go through the Gram matrix C C^T in float32 when n * L <=
2**24 (every partial sum is then an integer float32 holds exactly) and in
float64 above that; the bits are despread in blocks of 64 columns, and a
trial stops at the first block after which no mote is still error-free.
Walsh codes use the closed form of C C^T and need no matmul; with n <= L
every mote has its own row, so all n are read and nothing is drawn.

Every routine is deterministic in (seed, parameters): per-trial generator
streams derive from a seed sequence keyed by (seed, point, trial), so
results are independent of any chunking of trials across workers.

ALOHA runs all trials of a point together as arrays.  A trial's slot picks
are numpy's bounded-integer draws, ``Generator.integers(0, frame)``,
reproduced from the raw PCG64 words of its stream (:mod:`biomote._draws`
says why that is exact and what guards it): Lemire's method on 32-bit
words, with numpy's rare rejections replayed word by word.  CDMA draws its
codes and packet bits the same way (:func:`~biomote._draws.random_bits`).
The first words of each (seed, n, trial) stream, about the n that
its first frame reads, are memoised per process within 4 MiB
(:data:`_WORD_MEMO`), so a scan that revisits a deployment at another read
time seeds no stream again.  A trial that reads past its memoised words,
in later frames or through rejected words, has its stream seeded again and
advanced past them.
"""

from __future__ import annotations

import math
import operator
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from biomote import _draws

__all__ = [
    "MacScenario", "DeploymentGeometry", "ZoneShape",
    "binary_tree_iterations", "aloha_simulate", "aloha_mean_successes",
    "scenario1_sweep", "scenario2_sweep", "max_fully_read",
    "global_recommendation", "walsh_codes", "cdma_simulate", "cdma_sweep",
    "compare_schemes", "FULL_READ_SHORTFALL", "MAX_ALOHA_SLOTS", "MAX_CDMA_MOTES",
    "MAX_CDMA_DRAW_BYTES", "COMPARE_RATE_BPS", "COMPARE_PACKET_BYTES",
    "COMPARE_CODE_LEN",
]

#: mean unread motes tolerated by the "fully read" criterion (one collision
#: pair on average)
FULL_READ_SHORTFALL = 2.25

#: most slots an ALOHA window or frame may hold: a mote's slot is one
#: bounded 32-bit draw
MAX_ALOHA_SLOTS = 2**32 - 1


@dataclass(frozen=True)
class MacScenario:
    """One multi-access run: deployment size, radio parameters, window."""

    n_motes: int
    rate: float                 # [bit/s]
    packet_bytes: int
    read_time: float            # [s]
    frame_slots: int | None = None   # None: one frame spanning the window
    trials: int = 100
    seed: int = 0xB10B10

    def __post_init__(self):
        for name in ("n_motes", "frame_slots", "trials"):
            value = getattr(self, name)
            if value is None and name == "frame_slots":
                continue
            try:
                # held as a Python int: a numpy integer would overflow the
                # 2**32 slot arithmetic of the ALOHA draws
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, not {value!r}") from None
        if self.n_motes < 0:
            raise ValueError("n_motes must be non-negative")
        for name in ("rate", "packet_bytes", "read_time"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")
        if self.frame_slots is not None and self.frame_slots < 1:
            raise ValueError("frame_slots must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # the draws follow numpy's bounded-integer path for 32-bit ranges
        if self.frame_slots is not None and self.frame_slots > MAX_ALOHA_SLOTS:
            raise ValueError(f"a frame of {self.frame_slots} slots is above "
                             f"the {MAX_ALOHA_SLOTS} an ALOHA run supports")
        if self.slots_available > MAX_ALOHA_SLOTS:
            raise ValueError(f"a read window of {self.slots_available} slots is "
                             f"above the {MAX_ALOHA_SLOTS} an ALOHA run supports")

    # computed once per scenario, not once per ALOHA trial
    @cached_property
    def slot_duration(self) -> float:
        return self.packet_bytes * 8 / self.rate

    @cached_property
    def slots_available(self) -> int:
        return int(self.read_time / self.slot_duration)

    @cached_property
    def effective_frame_slots(self) -> int:
        return self.slots_available if self.frame_slots is None else self.frame_slots


class ZoneShape:
    HEMISPHERE = "hemisphere"
    SPHERE = "sphere"


@dataclass(frozen=True)
class DeploymentGeometry:
    """Body volume and the reader's interrogation zone."""

    body_volume_cm3: float = 6.643e5
    zone_radius_cm: float = 5.0
    zone_shape: str = ZoneShape.HEMISPHERE

    @property
    def zone_volume_cm3(self) -> float:
        r3 = self.zone_radius_cm ** 3
        if self.zone_shape == ZoneShape.HEMISPHERE:
            return 2.0 / 3.0 * math.pi * r3
        if self.zone_shape == ZoneShape.SPHERE:
            return 4.0 / 3.0 * math.pi * r3
        raise ValueError(f"unknown zone shape {self.zone_shape!r}")

    @property
    def zones(self) -> float:
        return self.body_volume_cm3 / self.zone_volume_cm3


def binary_tree_iterations(n: int) -> float:
    """Average reader iterations to single out one mote of n: log2(n) + 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.log(n) / math.log(2) + 1.0


# ---------------------------------------------------------------------------
# slotted ALOHA
# ---------------------------------------------------------------------------

def _trial_rng(seed: int, n: int, t: int) -> np.random.Generator:
    return np.random.Generator(_draws.stream(seed, n, t))


def _raw_for(picks: int, frame: int) -> int:
    """64-bit outputs to draw for ``picks`` draws in [0, frame): a word a
    pick, the words numpy rejects among them on average and a quarter more,
    and two words to spare."""
    rejected = picks * ((1 << 32) % frame) // ((1 << 32) - (1 << 32) % frame)
    return (picks + rejected + rejected // 4 + 3) // 2


#: bytes of words :data:`_WORD_MEMO` holds at most
_WORD_MEMO_BYTES = 4 << 20

#: the first words of each (seed, n, trial) stream, about the n its first
#: frame reads, memoised per process in blocks of trials keyed by (seed, n,
#: first trial, stop), least recently used first (for one thread at a
#: time).  A ``max_fully_read`` scan or a ``scenario2_sweep`` reuses every
#: key at each read time.
_WORD_MEMO: OrderedDict[tuple, np.ndarray] = OrderedDict()


def _first_words(seed: int, n: int, first: int, stop: int, raw: int) -> np.ndarray:
    """The first words of trials ``first`` to ``stop - 1`` of (seed, n), one
    row each: ``2 * raw`` of them, or as many as :data:`_WORD_MEMO` already
    holds for these trials, which may have been sized for another frame."""
    key = (seed, n, first, stop)
    table = _WORD_MEMO.get(key)
    if table is not None:
        _WORD_MEMO.move_to_end(key)
        return table
    table = np.stack([_draws.raw_words(_draws.stream(seed, n, t), raw)
                      for t in range(first, stop)])
    table.flags.writeable = False       # shared by every later caller
    _WORD_MEMO[key] = table
    held = sum(words.nbytes for words in _WORD_MEMO.values())
    while held > _WORD_MEMO_BYTES:
        held -= _WORD_MEMO.popitem(last=False)[1].nbytes
    return table


#: words one block of ALOHA trials holds per frame (256 KiB as uint32); a
#: point runs its trials in blocks of this many words, or of one trial
_BLOCK_WORDS = 1 << 16


class _TrialStreams:
    """The word streams of a block of trials, each read from its own offset.

    Row i holds words ``pos[i]:end[i]`` of its trial's stream that are not
    yet consumed.  A row that runs past its memoised words drops what it
    consumed, and its stream is seeded again and advanced past the words
    drawn so far.
    """

    def __init__(self, seed: int, n: int, first: int, stop: int, frame: int):
        self.seed, self.n = seed, n
        self.trials = np.arange(first, stop)
        self.words = _first_words(seed, n, first, stop, _raw_for(n, frame))
        self.pos = np.zeros(stop - first, dtype=np.int64)
        self.end = np.full(stop - first, self.words.shape[1], dtype=np.int64)
        self.drawn = self.end.copy()    # words drawn from each stream so far

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the rows where ``rows`` is true."""
        self.trials, self.words = self.trials[rows], self.words[rows]
        self.pos, self.end, self.drawn = self.pos[rows], self.end[rows], self.drawn[rows]

    def _window(self, width: int) -> np.ndarray:
        """Each row's next ``width`` words; past a row's end, any words."""
        if (self.pos == self.pos[0]).all():
            return self.words[:, self.pos[0]:self.pos[0] + width]
        cols = self.pos[:, None] + np.arange(width)
        return np.take_along_axis(
            self.words, np.minimum(cols, self.words.shape[1] - 1), axis=1)

    def _ensure(self, need: np.ndarray, frame: int, ahead: int) -> None:
        """Give every row at least ``need`` unconsumed words.  A row that
        runs short seeds its stream again, advances it past the words drawn
        so far and draws what it lacks with room for the words numpy rejects
        (:func:`_raw_for`), and ``ahead`` words for later frames."""
        short = np.flatnonzero(self.pos + need > self.end).tolist()
        if not short:
            return
        held = self.end - self.pos
        extra = {}
        for i in short:
            bit_gen = _draws.stream(self.seed, self.n, int(self.trials[i]))
            bit_gen.advance(int(self.drawn[i]) // 2)
            raw = _raw_for(int(need[i] - held[i]), frame) + ahead // 2
            extra[i] = _draws.raw_words(bit_gen, raw)
        end = held.copy()
        for i, words in extra.items():
            end[i] += words.size
            self.drawn[i] += words.size
        # drop the consumed words, moving each row to column 0
        words = np.empty((len(end), end.max()), dtype=np.uint32)
        words[:, :held.max()] = self._window(int(held.max()))
        for i, drawn in extra.items():
            words[i, held[i]:end[i]] = drawn
        self.words, self.pos, self.end = words, np.zeros_like(self.pos), end

    def picks(self, counts: np.ndarray, frame: int, ahead: int) -> np.ndarray:
        """Row i's next ``counts[i]`` draws of ``integers(0, frame)``, padded
        with ``frame`` to a (rows, width) uint32 array in no particular order.

        numpy draws them by Lemire's method on 32-bit words: a word u gives
        ``(u * frame) >> 32`` unless ``(u * frame) mod 2**32`` is below
        ``2**32 mod frame``, when numpy rejects it and takes the next word.
        A frame of one slot draws no word.
        """
        if frame == 1:
            return (np.arange(int(counts.max())) >= counts[:, None]).astype(np.uint32)
        threshold = (1 << 32) % frame
        # Each pass reads, per row, as many words as it still needs picks, so
        # a row consumes exactly the words numpy would: its picks and the
        # words rejected among them.
        parts = []
        need = counts
        while need.any():
            self._ensure(need, frame, ahead)
            width = int(need.max())
            words = self._window(width)
            # the products u * frame as (low, high) halves
            halves = np.multiply(words, frame, dtype="<u8").view("<u4")
            accepted = halves[:, 0::2] >= threshold
            if need.min() < width:
                accepted &= np.arange(width) < need[:, None]
            parts.append(np.where(accepted, halves[:, 1::2], frame))
            self.pos += need
            need = need - np.count_nonzero(accepted, axis=1)
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _singletons(picks: np.ndarray, span: int) -> np.ndarray:
    """Per row, how many values below ``span`` occur exactly once in
    ``picks``; sorts each row in place."""
    picks.sort(axis=1)
    # differs[:, j]: element j differs from element j - 1; both ends count
    differs = np.ones((picks.shape[0], picks.shape[1] + 1), dtype=bool)
    np.not_equal(picks[:, 1:], picks[:, :-1], out=differs[:, 1:-1])
    return np.count_nonzero(differs[:, :-1] & differs[:, 1:] & (picks < span), axis=1)


def _aloha_trials(sc: MacScenario, first: int, stop: int) -> tuple[int, int]:
    """(motes read, slots used) summed over trials ``first`` to ``stop - 1``,
    all run together: every unread mote of every trial picks its slot of a
    frame in one array, and the trials move through their frames in step.
    Each trial starts on its memoised first words (:func:`_first_words`); a
    trial that reads past them has its stream seeded again and advanced."""
    frame, budget = sc.effective_frame_slots, sc.slots_available
    if sc.n_motes == 0 or budget < 1:
        return 0, 0
    streams = _TrialStreams(sc.seed, sc.n_motes, first, stop, frame)
    # how many later frames' words a row that runs short draws at once
    per_draw = max(1, _BLOCK_WORDS // ((stop - first) * sc.n_motes))
    remaining = np.full(stop - first, sc.n_motes)
    reads = slots = used = 0
    while remaining.size and used < budget:
        span = min(frame, budget - used)
        later = min(-(-(budget - used) // frame) - 1, per_draw)
        read = _singletons(streams.picks(remaining, frame, sc.n_motes * later), span)
        reads += int(read.sum())
        slots += span * remaining.size
        used += span
        remaining -= read
        unread = remaining > 0
        if not unread.all():
            streams.keep(unread)
            remaining = remaining[unread]
    return reads, slots


def aloha_simulate(sc: MacScenario) -> tuple[int, int]:
    """Framed ALOHA over all ``sc.trials`` trials; returns (motes read,
    slots consumed), each summed over the trials.

    Trial t picks from the stream of ``_trial_rng(sc.seed, sc.n_motes, t)``
    exactly what ``integers(0, frame, size=unread)`` would draw there, one
    call per frame, but from the stream's raw words (see the module
    docstring for why that is exact and what guards it).  A trailing partial
    frame is truncated: draws landing past the window are lost with the
    window.  Trials run in blocks of about :data:`_BLOCK_WORDS` words, so
    memory does not grow with ``sc.trials``; a block holds one trial at
    least, so one trial of a very large deployment may exceed it.
    """
    rows = max(1, _BLOCK_WORDS // (sc.n_motes + 1))
    reads = slots = 0
    for first in range(0, sc.trials, rows):
        block = _aloha_trials(sc, first, min(first + rows, sc.trials))
        reads += block[0]
        slots += block[1]
    return reads, slots


def aloha_mean_successes(sc: MacScenario) -> float:
    """Mean motes read over ``sc.trials`` independent runs."""
    return aloha_simulate(sc)[0] / sc.trials


def max_fully_read(rate: float, read_time: float, packet_bytes: int,
                   trials: int = 100, seed: int = 0xB10B10) -> int:
    """Largest deployment, scanned in steps of 10 motes in one frame
    spanning the window, whose mean read count stays within
    :data:`FULL_READ_SHORTFALL` of everyone."""
    best = 0
    n = 10
    while True:
        sc = MacScenario(n_motes=n, rate=rate, packet_bytes=packet_bytes,
                         read_time=read_time, trials=trials, seed=seed)
        if (sc.slots_available < 1
                or aloha_mean_successes(sc) < n - FULL_READ_SHORTFALL):
            return best
        best = n
        n += 10


def _axes(*axes) -> list[list]:
    """Each axis of a sweep grid as a list, taken once; none may be empty."""
    axes = [list(axis) for axis in axes]
    if not all(axes):
        raise ValueError("sweep lists must be non-empty")
    return axes


def scenario1_sweep(rate: float, read_times, packet_bytes: int,
                    trials: int = 100, seed: int = 0xB10B10) -> list[tuple]:
    """Deployment-sizing question: the largest fully read deployment for
    each read window (:func:`max_fully_read`).

    Returns ``(rate_bps, read_time_s, packet_bytes, max_motes)`` rows.
    """
    [read_times] = _axes(read_times)
    for rt in read_times:       # every window, before the first scan
        MacScenario(0, rate, packet_bytes, rt, trials=trials, seed=seed)
    return [(rate, rt, packet_bytes, max_fully_read(rate, rt, packet_bytes, trials, seed))
            for rt in read_times]


def scenario2_sweep(n_motes_list, rates, read_times, packet_bytes: int,
                    trials: int = 100, seed: int = 0xB10B10) -> list[tuple]:
    """Local-deployment question: mean successful motes at fixed sizes.

    Returns ``(n_motes, rate_bps, read_time_s, mean_successes)`` rows.
    """
    n_motes_list, rates, read_times = _axes(n_motes_list, rates, read_times)
    # every point is checked before the first one runs
    points = [MacScenario(n_motes=n, rate=rate, packet_bytes=packet_bytes,
                          read_time=rt, trials=trials, seed=seed)
              for rate in rates for rt in read_times for n in n_motes_list]
    return [(sc.n_motes, sc.rate, sc.read_time, aloha_mean_successes(sc))
            for sc in points]


def global_recommendation(zone_successes: int, geom: DeploymentGeometry) -> int:
    """Whole-body deployment implied by one interrogation zone's capacity."""
    if zone_successes < 0:
        raise ValueError("zone_successes must be non-negative")
    return round(zone_successes * geom.zones)


# ---------------------------------------------------------------------------
# CDMA
# ---------------------------------------------------------------------------

def _check_walsh_length(length: int) -> None:
    if length < 1 or length & (length - 1):
        raise ValueError("Walsh code length must be a power of two")


def walsh_codes(length: int) -> np.ndarray:
    """Sylvester-Hadamard rows: ``length`` mutually orthogonal +-1 chips."""
    _check_walsh_length(length)
    h = np.array([[1]], dtype=np.int8)
    while h.shape[0] < length:
        h = np.block([[h, h], [h, -h]])
    return h


#: most motes a CDMA run may hold: their float64 Gram matrix, n x n, stays
#: within 64 MiB (every CDMA point is checked before anything is drawn)
MAX_CDMA_MOTES = math.isqrt(64 * 2**20 // 8)

#: most bytes one CDMA trial may draw, counted at 8 bytes for each of its
#: n x L code chips and n x bits packet bits (checked with
#: :data:`MAX_CDMA_MOTES`).  A trial holds less: a bit is half a raw 64-bit
#: word (4 bytes) while it is drawn and a uint8 after, and a chip a float32
#: or float64 +-1
MAX_CDMA_DRAW_BYTES = 64 * 2**20

#: bit columns despread per block; a random-code trial stops after the
#: first block in which every mote has already mis-decoded a bit
_DESPREAD_BLOCK = 64


def _gram_dtype(n: int, code_len: int) -> type:
    """The float dtype that despreads n motes with length-``code_len`` codes
    exactly: every Gram entry is an integer of magnitude <= L and every
    partial sum of ``(C C^T) @ bits`` one of magnitude <= n * L, so float32
    is exact up to n * L = 2**24 in any BLAS summation order."""
    return np.float32 if n * code_len <= 1 << 24 else np.float64


def _cdma_trial(n: int, code_len: int, family: str, packet_bits: int,
                rng: np.random.Generator) -> int:
    # All motes transmit chip-synchronously and the reader correlates the
    # plain chip sum with each code, so the correlations are (C C^T) @ bits
    # for the n x L code matrix C and the n x packet_bits +-1 matrix bits.
    # Mote j decides 1 where its correlation is >= 0 and is read only if
    # every decision matches its bit.
    if family == "walsh":
        # Mote i carries Walsh row i mod L, so C C^T = L * [i == j (mod L)]:
        # mote j correlates to L times the summed bits of every mote sharing
        # its row (L > 0 leaves the sign, so the factor is dropped).  With
        # n <= L every row is its own, so all n are read; the trial's
        # generator is discarded afterwards, so skipping its draws changes
        # no other trial.
        if n <= code_len:
            return n
        groups = -(-n // code_len)
        # the narrowest signed type holding +-groups, the largest row sum
        padded = np.zeros((groups * code_len, packet_bits),
                          dtype=np.min_scalar_type(-groups - 1))
        # +-1 in the padded dtype: uint8 bits * 2 - 1 would wrap 0 to 255
        bits = _draws.random_bits(rng, (n, packet_bits))
        padded[:n] = bits.astype(padded.dtype) * 2 - 1
        stacked = padded.reshape(groups, code_len, packet_bits)
        decided = stacked.sum(axis=0, dtype=padded.dtype) >= 0
        read = np.all(decided == (stacked > 0), axis=2).reshape(-1)[:n]
        return int(np.count_nonzero(read))
    dtype = _gram_dtype(n, code_len)
    chips = _draws.random_bits(rng, (n, code_len)).astype(dtype) * 2 - 1
    # drawn after the codes: the draw order is part of the seeded output
    draws = _draws.random_bits(rng, (n, packet_bits))
    gram = chips @ chips.T
    # Despread block by block over the motes still error-free; most trials
    # of a crowded channel lose every mote in the first block.
    alive = np.arange(n)
    for start in range(0, packet_bits, _DESPREAD_BLOCK):
        block = draws[:, start:start + _DESPREAD_BLOCK] > 0
        correlations = gram[alive] @ (block.astype(dtype) * 2 - 1)
        alive = alive[np.all((correlations >= 0) == block[alive], axis=1)]
        if alive.size == 0:
            break
    return alive.size


def _check_cdma(n_motes: int, code_len: int, family: str, packet_bytes: int,
                trials: int) -> None:
    """Reject a CDMA point, before anything is drawn, that is malformed or
    whose trial would not fit in memory (:data:`MAX_CDMA_MOTES`,
    :data:`MAX_CDMA_DRAW_BYTES`).  The messages name the CLI's keys."""
    if family == "walsh":
        _check_walsh_length(code_len)
    elif family != "random":
        raise ValueError(f"unknown spreading family {family!r}")
    if min(n_motes, code_len, packet_bytes, trials) < 1:
        raise ValueError("n_motes, code_len, packet_bytes and trials must be >= 1")
    if n_motes > MAX_CDMA_MOTES:
        raise ValueError(f"mac_n_motes above {MAX_CDMA_MOTES} "
                         f"is too large for a CDMA run")
    # the cap counts 8 bytes for each code chip and packet bit of a trial,
    # which bounds what one holds: a float64 chip, or a bit's 4 bytes of raw
    # word and its uint8
    if 8 * n_motes * (code_len + 8 * packet_bytes) > MAX_CDMA_DRAW_BYTES:
        raise ValueError(f"mac_n_motes, mac_code_lens and mac_packet_bytes draw more "
                         f"than {MAX_CDMA_DRAW_BYTES} bytes in one CDMA trial")


def cdma_simulate(n_motes: int, code_len: int, family: str = "random",
                  packet_bytes: int = 8, trials: int = 100,
                  seed: int = 0xB10B10) -> float:
    """Mean motes whose whole packet survives the multi-access interference."""
    _check_cdma(n_motes, code_len, family, packet_bytes, trials)
    bits = packet_bytes * 8
    total = 0
    for t in range(trials):
        total += _cdma_trial(n_motes, code_len, family, bits,
                             _trial_rng(seed, n_motes, t))
    return total / trials


def cdma_sweep(n_motes, code_lens, packet_bytes: int, trials: int = 100,
               seed: int = 0xB10B10) -> list[tuple]:
    """Random-code CDMA over every (code length, deployment) pair.

    Returns ``(n_motes, code_len, "random", mean_successes)`` rows, every n
    for each code length in turn.  The whole grid is checked before the
    first point runs: the caps grow with n and L, so every n is checked at
    the largest L and every L at the largest n.
    """
    n_motes, code_lens = _axes(n_motes, code_lens)
    for n in n_motes:
        _check_cdma(n, max(code_lens), "random", packet_bytes, trials)
    for c in code_lens:
        _check_cdma(max(n_motes), c, "random", packet_bytes, trials)
    return [(n, c, "random", cdma_simulate(n, c, "random", packet_bytes, trials, seed))
            for c in code_lens for n in n_motes]


# ---------------------------------------------------------------------------
# scheme comparison
# ---------------------------------------------------------------------------

#: link rate and packet size of the scheme comparison
COMPARE_RATE_BPS = 20e3
COMPARE_PACKET_BYTES = 64
#: its Walsh code length, which is also its ALOHA frame in slots
COMPARE_CODE_LEN = 128


def compare_schemes(n_motes_list, duration_slots, trials: int = 100,
                    seed: int = 0xB10B10) -> list[tuple]:
    """ALOHA (frames of :data:`COMPARE_CODE_LEN` slots over the window)
    against CDMA with Walsh codes of that length, whose one spread packet
    fills the same airtime as a frame.

    ``duration_slots`` is one window length in slots or an iterable of
    them; neither it nor ``n_motes_list`` may be empty.  Returns
    ``(n_motes, duration_slots, scheme, mean_successes)`` rows, ALOHA then
    CDMA for each n, for each duration in turn.  CDMA rows depend only on
    (n, seed), never on the duration, so each n is simulated once.
    """
    n_motes_list, durations = _axes(n_motes_list, duration_slots
                                    if np.iterable(duration_slots) else [duration_slots])
    # every deployment and window is checked before the first point runs
    for n in n_motes_list:
        _check_cdma(n, COMPARE_CODE_LEN, "walsh", COMPARE_PACKET_BYTES, trials)
    slot = COMPARE_PACKET_BYTES * 8 / COMPARE_RATE_BPS
    aloha = [(n, d, MacScenario(n_motes=n, rate=COMPARE_RATE_BPS,
                                packet_bytes=COMPARE_PACKET_BYTES,
                                read_time=slot * d, frame_slots=COMPARE_CODE_LEN,
                                trials=trials, seed=seed))
             for d in durations for n in n_motes_list]
    cdma = {n: cdma_simulate(n, COMPARE_CODE_LEN, "walsh", COMPARE_PACKET_BYTES,
                             trials, seed)
            for n in dict.fromkeys(n_motes_list)}
    return [row for n, d, sc in aloha
            for row in ((n, d, "aloha", aloha_mean_successes(sc)),
                        (n, d, "cdma", cdma[n]))]

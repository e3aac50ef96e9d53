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

ALOHA runs in slots of one packet's airtime: a :class:`MacScenario` holds
its read window and frame as slot counts.  :func:`read_window_slots` is the
one conversion of a window in seconds, at a link rate and packet size, to
whole slots; the two scenario sweeps take their windows in seconds and
convert each once, and :func:`max_fully_read` and :func:`compare_schemes`
take theirs in slots.  The window is carved into frames of
``frame_slots``; scenario runs use a single frame spanning the window (each
mote transmits its one packet at a random offset).  A deployment counts as
fully read when the mean shortfall is at most ``FULL_READ_SHORTFALL`` motes
(about one collision pair).

CDMA despreading is exact integer arithmetic done in float32.  Random
codes go through the Gram matrix C C^T; every partial sum of a despread is
an integer of magnitude at most n * L, and the draw cap
(:data:`MAX_CDMA_DRAW_BYTES`) keeps n * L below 2**23, within the 2**24 up
to which float32 holds every integer.  The bits are despread in blocks of
64 columns, and a trial stops at the first block after which no mote is
still error-free.
Walsh codes use the closed form of C C^T and need no matmul; with n <= L
every mote has its own row, so all n are read, and the point draws nothing
and keys no stream.

Every routine is deterministic in (seed, parameters): each trial draws
from its own stream keyed by (seed, n, trial), so results are
independent of any chunking of trials across workers.  :mod:`biomote._draws`
keys the streams, a point's trials in batches, and holds numpy's draw
rules; this module holds the frames and the despreading, and for ALOHA how
much of each stream a block of trials holds: the prefix margin
(:func:`_words_for`), the prefix memo and the widening cap, below.

ALOHA runs all trials of a point together as arrays.  A trial's slot picks
are numpy's ``Generator.integers(0, frame)`` draws, reproduced from the raw
words of its stream (:func:`~biomote._draws.bounded`); CDMA draws its codes
and packet bits the same way (:func:`~biomote._draws.random_bits`).
The frame size of a point never changes, and numpy accepts or rejects a
word for ``integers(0, frame)`` whatever call it falls in, so a trial's
picks are one ordered sequence: the accepted draws of its (seed, n,
trial) stream from the first word.  Its first frame takes the first n of
them, each later frame the next ones, one for each mote still unread.  A
block of trials keeps one row per trial for the whole run: the rows stay
fixed, a fully read trial picks only padding, and a frame's slots count
only for the trials still unread.  A trial holds a prefix of its stream:
at first the words its first frame reads, with room for rejected words
and six to spare.  A block's
prefixes come from :func:`~biomote._draws.first_words`, which computes
those of at most 128 raw words without ``numpy.random``, every prefix of
the default ``mac-scenario1`` and ``mac-scenario2`` grids among them.
The prefixes are memoised per process within 4 MiB in blocks of trials
(:data:`_WORD_MEMO`), so a scan that revisits a deployment at another
read time keys no stream again.  When a trial still unread needs more
picks than its prefix holds, the block's streams are all drawn again at
least four times as wide, and the wider block replaces the narrower one
in the memo.  A block's prefixes hold every pick a trial reads, so they
grow with the frames a crowded window runs: a run stops with a
``ValueError`` before they would pass :data:`MAX_ALOHA_PREFIX_BYTES`, and
a deployment holds at most :data:`MAX_ALOHA_MOTES` motes.
"""

from __future__ import annotations

import math
from collections import OrderedDict, namedtuple
from dataclasses import dataclass

import numpy as np

from biomote import _draws
from biomote._checks import axes, count, fields, positive

__all__ = [
    "MacScenario", "read_window_slots", "DeploymentGeometry",
    "binary_tree_iterations", "aloha_simulate", "aloha_mean_successes",
    "Scenario1Row", "scenario1_sweep", "Scenario2Row", "scenario2_sweep",
    "max_fully_read", "global_recommendation", "cdma_simulate", "CdmaRow",
    "cdma_sweep", "CompareRow", "compare_schemes", "FULL_READ_SHORTFALL",
    "MAX_ALOHA_SLOTS", "MAX_ALOHA_MOTES", "MAX_ALOHA_PREFIX_BYTES", "MAX_CDMA_MOTES",
    "MAX_CDMA_DRAW_BYTES", "COMPARE_PACKET_BYTES", "COMPARE_CODE_LEN",
]

#: mean unread motes tolerated by the "fully read" criterion (one collision
#: pair on average)
FULL_READ_SHORTFALL = 2.25

#: most slots an ALOHA window or frame may hold: a mote's slot is one
#: bounded 32-bit draw
MAX_ALOHA_SLOTS = 2**32 - 1

#: most motes an ALOHA deployment may hold, about 28 bytes each in a trial;
#: one frame of MAX_ALOHA_SLOTS slots fully reads fewer than 10**5
MAX_ALOHA_MOTES = 10**6

#: most bytes of stream words a block of ALOHA trials may draw for its
#: prefixes; a widening holds about 4.5 times that at its peak
MAX_ALOHA_PREFIX_BYTES = 64 * 2**20


def read_window_slots(rate: float, packet_bytes: int, read_time: float) -> int:
    """Whole slots of ``packet_bytes``-byte packets at ``rate`` bit/s in a
    read window of ``read_time`` seconds: the one conversion of a window
    from seconds to slots.  ``rate`` and ``read_time`` must be finite and
    positive, ``packet_bytes`` a count."""
    slot = count("packet_bytes", packet_bytes) * 8 / positive("rate", rate)
    return int(positive("read_time", read_time) / slot)


@dataclass(frozen=True)
class MacScenario:
    """One framed-ALOHA run: deployment size, read window and frame, in
    slots of one packet's airtime.

    Every field is a count held as a Python int: ``n_motes``,
    ``window_slots`` and ``seed`` from 0, ``frame_slots`` and ``trials``
    from 1; a deployment holds at most :data:`MAX_ALOHA_MOTES` motes, and a
    window or frame at most :data:`MAX_ALOHA_SLOTS` slots.  A
    ``frame_slots`` of None is stored as ``window_slots``, one frame
    spanning the window, which may then be 0.
    """

    n_motes: int
    window_slots: int
    frame_slots: int | None = None
    trials: int = 100
    seed: int = _draws.DEFAULT_SEED

    def __post_init__(self):
        fields(self, count, "n_motes", "window_slots", "seed", low=0)
        fields(self, count, "trials")
        if self.n_motes > MAX_ALOHA_MOTES:
            raise ValueError(f"mac_n_motes above {MAX_ALOHA_MOTES} is too many for ALOHA")
        # the draws follow numpy's bounded-integer path for 32-bit ranges
        if self.window_slots > MAX_ALOHA_SLOTS:
            raise ValueError(f"a read window of {self.window_slots} slots is "
                             f"above the {MAX_ALOHA_SLOTS} an ALOHA run supports")
        if self.frame_slots is None:
            object.__setattr__(self, "frame_slots", self.window_slots)
        else:
            fields(self, count, "frame_slots")
        if self.frame_slots > MAX_ALOHA_SLOTS:
            raise ValueError(f"a frame of {self.frame_slots} slots is above "
                             f"the {MAX_ALOHA_SLOTS} an ALOHA run supports")


@dataclass(frozen=True)
class DeploymentGeometry:
    """Body volume and the reader's interrogation zone, a hemisphere."""

    body_volume_cm3: float = 6.643e5
    zone_radius_cm: float = 5.0

    def __post_init__(self):
        fields(self, positive, "body_volume_cm3", "zone_radius_cm")

    @property
    def zone_volume_cm3(self) -> float:
        return 2.0 / 3.0 * math.pi * self.zone_radius_cm ** 3

    @property
    def zones(self) -> float:
        return self.body_volume_cm3 / self.zone_volume_cm3


def binary_tree_iterations(n: int) -> float:
    """Average reader iterations to single out one mote of n: log2(n) + 1."""
    return math.log(count("n", n)) / math.log(2) + 1.0


# ---------------------------------------------------------------------------
# slotted ALOHA
# ---------------------------------------------------------------------------

def _words_for(picks: int, frame: int) -> int:
    """Words to hold for ``picks`` draws in [0, frame): a word a pick, the
    words numpy rejects among them on average and a quarter more, and six
    words to spare."""
    rejected = _draws.rejections(picks, frame)
    return picks + rejected + rejected // 4 + 6


#: bytes of words :data:`_WORD_MEMO` holds at most
_WORD_MEMO_BYTES = 4 << 20

#: a prefix of each (seed, n, trial) stream, from its first word, memoised
#: per process in blocks of trials keyed by (seed, n, first trial, stop),
#: least recently used first (for one thread at a time).  A prefix holds
#: raw words, not picks, so one serves every frame size: a
#: ``max_fully_read`` scan or a ``scenario2_sweep`` reuses every key at
#: each read time.
_WORD_MEMO: OrderedDict[tuple, np.ndarray] = OrderedDict()


def _first_words(seed: int, n: int, first: int, stop: int, words: int) -> np.ndarray:
    """At least the first ``words`` words of trials ``first`` to ``stop - 1``
    of (seed, n), one row each; a narrower block :data:`_WORD_MEMO` holds is
    drawn again and replaced there."""
    key = (seed, n, first, stop)
    table = _WORD_MEMO.pop(key, None)
    if table is None or table.shape[1] < words:
        table = _draws.first_words((seed, n), first, stop, -(-words // 2))
        table.flags.writeable = False       # shared by every later caller
    _WORD_MEMO[key] = table
    held = sum(t.nbytes for t in _WORD_MEMO.values())
    while held > _WORD_MEMO_BYTES:
        held -= _WORD_MEMO.popitem(last=False)[1].nbytes
    return table


#: words one block of ALOHA trials holds per frame (256 KiB as uint32); a
#: point runs its trials in blocks of this many words, or of one trial
_BLOCK_WORDS = 1 << 16


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
    all run together: each trial of the block keeps its row for the whole
    run, every row picks its slots of a frame in one array, and the trials
    move through their frames in step.  A fully read trial keeps its row,
    picks only padding and counts no more slots.

    A trial's picks are one ordered sequence, the ``integers(0, frame)``
    draws its memoised stream prefix holds (:func:`_first_words`,
    :func:`~biomote._draws.bounded`), and each frame takes the next ones,
    one for each unread mote.  When a trial still unread needs more picks
    than its prefix holds, every prefix of the block is widened."""
    frame, budget = sc.frame_slots, sc.window_slots
    block = (sc.seed, sc.n_motes, first, stop)
    remaining = np.full(stop - first, sc.n_motes)
    # a frame of one slot draws no word: every pick is this one 0
    draws = np.zeros(1, dtype=np.uint32)
    start, held, taken = np.zeros((3, stop - first), dtype=np.int64)
    words = reads = slots = used = 0
    while remaining.any() and used < budget:
        while frame > 1 and (taken + remaining > held).any():
            # widen every prefix at least fourfold, so a block that reads
            # on through many frames is drawn again only a few times
            words = max(_words_for(int((taken + remaining).max()), frame), 4 * words)
            # the bytes of the raw 64-bit words _first_words would draw
            if 8 * -(-words // 2) * (stop - first) > MAX_ALOHA_PREFIX_BYTES:
                raise ValueError(f"mac_n_motes={sc.n_motes} in a window of {budget} slots "
                                 f"reads past {MAX_ALOHA_PREFIX_BYTES} bytes of stream words")
            # bounded never writes its words, so the memoised prefix is read
            # in place; row i's draws follow those of row i - 1
            prefix = _first_words(*block, words)
            values, accepted = _draws.bounded(prefix, frame)
            held = np.count_nonzero(accepted, axis=1)
            draws, start, words = values[accepted], np.cumsum(held) - held, prefix.shape[1]
        # row i takes its next remaining[i] picks, padded with the frame;
        # clipping keeps the padding's indices in range, and turns every
        # index into 0 for a frame of one slot
        cols = np.arange(int(remaining.max()))
        picks = draws.take((start + taken)[:, None] + cols, mode="clip")
        picks[cols >= remaining[:, None]] = frame
        span = min(frame, budget - used)
        read = _singletons(picks, span)
        reads += int(read.sum())
        slots += span * int(np.count_nonzero(remaining))
        used += span
        taken += remaining
        remaining -= read
    return reads, slots


def aloha_simulate(sc: MacScenario) -> tuple[int, int]:
    """Framed ALOHA over all ``sc.trials`` trials; returns (motes read,
    slots consumed), each summed over the trials.

    Trial t picks from its stream, ``_draws.stream(sc.seed, sc.n_motes, t)``,
    exactly what ``integers(0, frame, size=unread)`` would draw there, one
    call per frame: the frames read one sequence of draws in turn, taken
    from the stream's raw words (:func:`~biomote._draws.bounded`).  A
    trailing partial frame is truncated: draws landing past the window are
    lost with the window.

    Trials run in blocks of about :data:`_BLOCK_WORDS` words, so memory
    does not grow with ``sc.trials``; a block holds one trial at least, so
    one trial of a very large deployment may exceed it.
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


def max_fully_read(window_slots: int, trials: int = 100,
                   seed: int = _draws.DEFAULT_SEED) -> int:
    """Largest deployment, scanned in steps of 10 motes in one frame
    spanning a window of ``window_slots`` slots, whose mean read count stays
    within :data:`FULL_READ_SHORTFALL` of everyone; 0 for an empty window.
    Each probe is a :class:`MacScenario`, which checks the counts."""
    best = 0
    n = 10
    while True:
        sc = MacScenario(n, window_slots, trials=trials, seed=seed)
        if aloha_mean_successes(sc) < n - FULL_READ_SHORTFALL:
            return best
        best = n
        n += 10


#: one row of :func:`scenario1_sweep`; the field names are its CSV columns
Scenario1Row = namedtuple("Scenario1Row", "rate_bps read_time_s packet_bytes max_motes")


def scenario1_sweep(rate: float, read_times, packet_bytes: int,
                    trials: int = 100, seed: int = _draws.DEFAULT_SEED) -> list[Scenario1Row]:
    """Deployment-sizing question: the largest fully read deployment for
    each read window (:func:`max_fully_read`), one :class:`Scenario1Row`
    each.  Each read time is converted to slots once, and every window is
    checked before the first scan."""
    [read_times] = axes(read_times)
    windows = [MacScenario(0, read_window_slots(rate, packet_bytes, rt), trials=trials,
                           seed=seed).window_slots for rt in read_times]
    return [Scenario1Row(rate, rt, packet_bytes, max_fully_read(window, trials, seed))
            for rt, window in zip(read_times, windows)]


#: one row of :func:`scenario2_sweep`; the field names are its CSV columns
Scenario2Row = namedtuple("Scenario2Row", "n_motes rate_bps read_time_s mean_successes")


def scenario2_sweep(n_motes_list, rate: float, read_times, packet_bytes: int,
                    trials: int = 100, seed: int = _draws.DEFAULT_SEED) -> list[Scenario2Row]:
    """Local-deployment question: mean successful motes at fixed sizes, one
    :class:`Scenario2Row` for each deployment, for each read window in turn.
    """
    n_motes_list, read_times = axes(n_motes_list, read_times)
    # every point is checked before the first one runs
    windows = [read_window_slots(rate, packet_bytes, rt) for rt in read_times]
    points = [(rt, MacScenario(n, window, trials=trials, seed=seed))
              for rt, window in zip(read_times, windows) for n in n_motes_list]
    return [Scenario2Row(sc.n_motes, rate, rt, aloha_mean_successes(sc))
            for rt, sc in points]


def global_recommendation(zone_successes: int, geom: DeploymentGeometry) -> int:
    """Whole-body deployment implied by one interrogation zone's capacity."""
    return round(count("zone_successes", zone_successes, low=0) * geom.zones)


# ---------------------------------------------------------------------------
# CDMA
# ---------------------------------------------------------------------------

#: most motes a CDMA run may hold: a random-code trial holds its n x n
#: float32 Gram matrix and, in its first despread block, a copy of it
#: (``gram[alive]``), 8 bytes an entry together, within 64 MiB; its n x L
#: chips are freed before the copy (every CDMA point is checked before
#: anything is drawn)
MAX_CDMA_MOTES = math.isqrt(64 * 2**20 // 8)

#: most bytes one CDMA trial may draw, counted at 8 bytes for each of its
#: n x L code chips and n x bits packet bits (checked with
#: :data:`MAX_CDMA_MOTES`), which keeps n x L below 2**23.  A trial holds
#: less: a bit is a uint8, drawn through raw words in pieces of at most
#: 512 KiB, and a chip a float32 +-1
MAX_CDMA_DRAW_BYTES = 64 * 2**20

#: bit columns despread per block; a random-code trial stops after the
#: first block in which every mote has already mis-decoded a bit
_DESPREAD_BLOCK = 64


def _cdma_trial(n: int, code_len: int, family: str, packet_bits: int,
                bit_gen: np.random.BitGenerator) -> int:
    # All motes transmit chip-synchronously and the reader correlates the
    # plain chip sum with each code, so the correlations are (C C^T) @ bits
    # for the n x L code matrix C and the n x packet_bits +-1 matrix bits.
    # Mote j decides 1 where its correlation is >= 0 and is read only if
    # every decision matches its bit.
    if family == "walsh":
        # Mote i carries Walsh row i mod L, so C C^T = L * [i == j (mod L)]:
        # mote j correlates to L times the summed bits of every mote sharing
        # its row (L > 0 leaves the sign, so the factor is dropped).
        groups = -(-n // code_len)
        # the narrowest signed type holding +-groups, the largest row sum
        padded = np.zeros((groups * code_len, packet_bits),
                          dtype=np.min_scalar_type(-groups - 1))
        # +-1 in the padded dtype: uint8 bits * 2 - 1 would wrap 0 to 255
        bits = _draws.random_bits(bit_gen, (n, packet_bits))
        padded[:n] = bits.astype(padded.dtype) * 2 - 1
        stacked = padded.reshape(groups, code_len, packet_bits)
        decided = stacked.sum(axis=0, dtype=padded.dtype) >= 0
        read = np.all(decided == (stacked > 0), axis=2).reshape(-1)[:n]
        return int(np.count_nonzero(read))
    chips = _draws.random_bits(bit_gen, (n, code_len)).astype(np.float32) * 2 - 1
    gram = chips @ chips.T
    del chips                # the despread reads gram alone; free it before gram[alive]
    # drawn after the codes: the draw order is part of the seeded output
    draws = _draws.random_bits(bit_gen, (n, packet_bits))
    # Despread block by block over the motes still error-free; most trials
    # of a crowded channel lose every mote in the first block.
    alive = np.arange(n)
    for start in range(0, packet_bits, _DESPREAD_BLOCK):
        block = draws[:, start:start + _DESPREAD_BLOCK] > 0
        correlations = gram[alive] @ (block.astype(np.float32) * 2 - 1)
        alive = alive[np.all((correlations >= 0) == block[alive], axis=1)]
        if alive.size == 0:
            break
    return alive.size


def _check_cdma(n_motes: int, code_len: int, family: str, packet_bytes: int,
                trials: int) -> None:
    """Reject a CDMA point, before anything is drawn, that is malformed or
    whose trial would not fit in memory (:data:`MAX_CDMA_MOTES`,
    :data:`MAX_CDMA_DRAW_BYTES`); the caps' messages name the CLI's keys."""
    if family == "walsh":
        # an integer power of two, which 0 is not
        if count("code_len", code_len, low=0).bit_count() != 1:
            raise ValueError("Walsh code length must be a power of two")
    elif family != "random":
        raise ValueError(f"unknown spreading family {family!r}")
    n_motes, code_len, packet_bytes, trials = map(
        count, ("n_motes", "code_len", "packet_bytes", "trials"),
        (n_motes, code_len, packet_bytes, trials))
    if n_motes > MAX_CDMA_MOTES:
        raise ValueError(f"mac_n_motes above {MAX_CDMA_MOTES} "
                         f"is too large for a CDMA run")
    # the cap counts 8 bytes for each code chip and packet bit of a trial,
    # which bounds what one holds: a float32 chip, or a uint8 bit, whose raw
    # words are drawn in pieces of at most 512 KiB
    if 8 * n_motes * (code_len + 8 * packet_bytes) > MAX_CDMA_DRAW_BYTES:
        raise ValueError(f"mac_n_motes, mac_code_lens and mac_packet_bytes draw more "
                         f"than {MAX_CDMA_DRAW_BYTES} bytes in one CDMA trial")


def cdma_simulate(n_motes: int, code_len: int, family: str = "random",
                  packet_bytes: int = 8, trials: int = 100,
                  seed: int = _draws.DEFAULT_SEED) -> float:
    """Mean motes whose whole packet survives the multi-access interference."""
    _check_cdma(n_motes, code_len, family, packet_bytes, trials)
    count("seed", seed, low=0)
    if family == "walsh" and n_motes <= code_len:
        # every mote has a Walsh row of its own, so all n are read: no
        # trial draws, and no stream is keyed
        return float(n_motes)
    bits = packet_bytes * 8
    total = sum(_cdma_trial(n_motes, code_len, family, bits, bit_gen)
                for bit_gen in _draws.streams((seed, n_motes), trials))
    return total / trials


#: one row of :func:`cdma_sweep`; the field names are its CSV columns
CdmaRow = namedtuple("CdmaRow", "n_motes code_len family mean_successes")


def cdma_sweep(n_motes, code_lens, packet_bytes: int, trials: int = 100,
               seed: int = _draws.DEFAULT_SEED) -> list[CdmaRow]:
    """Random-code CDMA over every (code length, deployment) pair.

    Returns one :class:`CdmaRow` of family ``"random"`` for every n, for
    each code length in turn.  Every point is checked before the first
    one runs.
    """
    n_motes, code_lens = axes(n_motes, code_lens)
    points = [(n, c) for c in code_lens for n in n_motes]
    for n, c in points:
        _check_cdma(n, c, "random", packet_bytes, trials)
    return [CdmaRow(n, c, "random", cdma_simulate(n, c, "random", packet_bytes, trials, seed))
            for n, c in points]


# ---------------------------------------------------------------------------
# scheme comparison
# ---------------------------------------------------------------------------

#: packet size of the scheme comparison's CDMA motes
COMPARE_PACKET_BYTES = 64
#: its Walsh code length, which is also its ALOHA frame in slots
COMPARE_CODE_LEN = 128


#: one row of :func:`compare_schemes`; the field names are its CSV columns
CompareRow = namedtuple("CompareRow", "n_motes duration_slots scheme mean_successes")


def compare_schemes(n_motes_list, duration_slots, trials: int = 100,
                    seed: int = _draws.DEFAULT_SEED) -> list[CompareRow]:
    """ALOHA (frames of :data:`COMPARE_CODE_LEN` slots over the window)
    against CDMA with Walsh codes of that length, whose one spread packet
    fills the same airtime as a frame.

    ``duration_slots`` is an iterable of window lengths in slots, each the
    ALOHA window as given; neither it nor ``n_motes_list`` may be empty.
    Returns one :class:`CompareRow` a point, ALOHA then CDMA for each n, for
    each duration in turn.  CDMA rows depend only on (n, seed), never on the
    duration, so each n is simulated once.
    """
    n_motes_list, durations = axes(n_motes_list, duration_slots)
    durations = [count("duration_slots", d) for d in durations]
    # every deployment and window is checked before the first point runs
    for n in n_motes_list:
        _check_cdma(n, COMPARE_CODE_LEN, "walsh", COMPARE_PACKET_BYTES, trials)
    aloha = [(n, d, MacScenario(n, d, COMPARE_CODE_LEN, trials, seed))
             for d in durations for n in n_motes_list]
    cdma = {n: cdma_simulate(n, COMPARE_CODE_LEN, "walsh", COMPARE_PACKET_BYTES,
                             trials, seed)
            for n in dict.fromkeys(n_motes_list)}
    return [row for n, d, sc in aloha
            for row in (CompareRow(n, d, "aloha", aloha_mean_successes(sc)),
                        CompareRow(n, d, "cdma", cdma[n]))]

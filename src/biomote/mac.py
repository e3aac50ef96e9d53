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
results are independent of any chunking of trials across workers.  The
ALOHA routines memoise each key's PCG64 start state per process, in a
bounded cache (:data:`_SEED_MEMO_SIZE` keys); a trial restored from the
memo draws exactly the numbers a freshly seeded generator would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "MacScenario", "DeploymentGeometry", "ZoneShape",
    "binary_tree_iterations", "aloha_simulate", "aloha_mean_successes",
    "scenario2_sweep", "max_fully_read",
    "global_recommendation", "walsh_codes", "cdma_simulate",
    "compare_schemes", "FULL_READ_SHORTFALL", "MAX_CDMA_MOTES",
    "MAX_CDMA_DRAW_BYTES", "COMPARE_RATE_BPS", "COMPARE_PACKET_BYTES",
    "COMPARE_CODE_LEN",
]

#: mean unread motes tolerated by the "fully read" criterion (one collision
#: pair on average)
FULL_READ_SHORTFALL = 2.25


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
        if self.n_motes < 0:
            raise ValueError("n_motes must be non-negative")
        if self.rate <= 0 or self.packet_bytes <= 0 or self.read_time <= 0:
            raise ValueError("rate, packet_bytes and read_time must be positive")
        if self.frame_slots is not None and self.frame_slots < 1:
            raise ValueError("frame_slots must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

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

def _trial_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, *key)))


#: most keys whose PCG64 start state is memoised per process (about 264 B
#: each).  A ``max_fully_read`` scan or a ``scenario2_sweep`` reuses every
#: (seed, n, trial) key at each read time.
_SEED_MEMO_SIZE = 4096


@lru_cache(maxsize=_SEED_MEMO_SIZE)
def _pcg64_start(seed: int, *key: int) -> tuple[int, int]:
    """The PCG64 ``(state, inc)`` that ``_trial_rng(seed, *key)`` starts at."""
    start = _trial_rng(seed, *key).bit_generator.state["state"]
    return start["state"], start["inc"]


def _singletons(picks: np.ndarray) -> int:
    """How many values occur exactly once in ``picks``; sorts it in place."""
    picks.sort()
    # differs[i]: element i differs from element i - 1; both ends count
    differs = np.ones(picks.size + 1, dtype=bool)
    np.not_equal(picks[1:], picks[:-1], out=differs[1:-1])
    return int(np.count_nonzero(differs[:-1] & differs[1:]))


def aloha_simulate(sc: MacScenario, rng: np.random.Generator) -> tuple[int, int]:
    """One framed-ALOHA run; returns (motes read, slots consumed).

    A trailing partial frame is truncated: draws landing past the window
    are lost with the window.
    """
    frame = sc.effective_frame_slots
    budget = sc.slots_available
    remaining = sc.n_motes
    successes = 0
    used = 0
    while remaining > 0 and used < budget:
        span = min(frame, budget - used)
        picks = rng.integers(0, frame, size=remaining)
        if span < frame:
            picks = picks[picks < span]
        s = _singletons(picks)
        successes += s
        remaining -= s
        used += span
    return successes, used


def aloha_mean_successes(sc: MacScenario) -> float:
    """Mean motes read over ``sc.trials`` independent runs.

    Trial t draws from the stream of ``_trial_rng(sc.seed, sc.n_motes, t)``.
    Its start state comes from a bounded per-process memo, so a key seen
    before (the same point at another read time) is not seeded again; the
    drawn numbers are the same either way.
    """
    if sc.n_motes == 0:
        return 0.0
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)
    total = 0
    for t in range(sc.trials):
        state, inc = _pcg64_start(sc.seed, sc.n_motes, t)
        # the whole state, so no half-used 32-bit word carries over
        bit_gen.state = {"bit_generator": "PCG64",
                         "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        total += aloha_simulate(sc, rng)[0]
    return total / sc.trials


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


def scenario2_sweep(n_motes_list, rates, read_times, packet_bytes: int,
                    trials: int = 100, seed: int = 0xB10B10) -> list[tuple]:
    """Local-deployment question: mean successful motes at fixed sizes.

    Returns ``(n_motes, rate_bps, read_time_s, mean_successes)`` rows.
    """
    if not list(n_motes_list) or not list(rates) or not list(read_times):
        raise ValueError("sweep lists must be non-empty")
    rows = []
    for rate in rates:
        for rt in read_times:
            for n in n_motes_list:
                sc = MacScenario(n_motes=n, rate=rate, packet_bytes=packet_bytes,
                                 read_time=rt, trials=trials, seed=seed)
                rows.append((n, rate, rt, aloha_mean_successes(sc)))
    return rows


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
#: within 64 MiB (the CLI rejects larger ``mac_n_motes`` before any work)
MAX_CDMA_MOTES = math.isqrt(64 * 2**20 // 8)

#: most bytes one CDMA trial may draw: its n x L code and n x bits packet
#: matrices, both int64 (the CLI rejects a larger grid before any work)
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
        padded[:n] = rng.integers(0, 2, size=(n, packet_bits)) * 2 - 1
        stacked = padded.reshape(groups, code_len, packet_bits)
        decided = stacked.sum(axis=0, dtype=padded.dtype) >= 0
        read = np.all(decided == (stacked > 0), axis=2).reshape(-1)[:n]
        return int(np.count_nonzero(read))
    dtype = _gram_dtype(n, code_len)
    chips = rng.integers(0, 2, size=(n, code_len)).astype(dtype) * 2 - 1
    # drawn after the codes: the draw order is part of the seeded output
    draws = rng.integers(0, 2, size=(n, packet_bits))
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


def cdma_simulate(n_motes: int, code_len: int, family: str = "random",
                  packet_bytes: int = 8, trials: int = 100,
                  seed: int = 0xB10B10) -> float:
    """Mean motes whose whole packet survives the multi-access interference."""
    if n_motes < 1:
        raise ValueError("n_motes must be >= 1")
    if family == "walsh":
        _check_walsh_length(code_len)
    elif family != "random":
        raise ValueError(f"unknown spreading family {family!r}")
    if code_len < 1 or packet_bytes < 1 or trials < 1:
        raise ValueError("code_len, packet_bytes and trials must be >= 1")
    bits = packet_bytes * 8
    total = 0
    for t in range(trials):
        total += _cdma_trial(n_motes, code_len, family, bits,
                             _trial_rng(seed, n_motes, t))
    return total / trials


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

    ``duration_slots`` is one window length in slots or a sequence of
    them.  Returns ``(n_motes, duration_slots, scheme, mean_successes)``
    rows, ALOHA then CDMA for each n, for each duration in turn.  CDMA rows
    depend only on (n, seed), never on the duration, so each n is simulated
    once.
    """
    n_motes_list = list(n_motes_list)
    durations = [duration_slots] if np.ndim(duration_slots) == 0 else duration_slots
    cdma = {n: cdma_simulate(n, COMPARE_CODE_LEN, "walsh", COMPARE_PACKET_BYTES,
                             trials, seed)
            for n in dict.fromkeys(n_motes_list)}
    slot = COMPARE_PACKET_BYTES * 8 / COMPARE_RATE_BPS
    rows = []
    for d in durations:
        for n in n_motes_list:
            sc = MacScenario(n_motes=n, rate=COMPARE_RATE_BPS,
                             packet_bytes=COMPARE_PACKET_BYTES,
                             read_time=slot * d, frame_slots=COMPARE_CODE_LEN,
                             trials=trials, seed=seed)
            rows.append((n, d, "aloha", aloha_mean_successes(sc)))
            rows.append((n, d, "cdma", cdma[n]))
    return rows

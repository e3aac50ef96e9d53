"""Baseband Monte Carlo of the mote's modulation schemes over an AWGN body
channel, chained with the FEC codecs and the inductive link budget.

Conventions
-----------
Symbols are real baseband amplitudes, one bit per symbol, with unit mean
amplitude.  BPSK maps 0 -> -1, 1 -> +1; ASK is on-off keying 0 -> 0,
1 -> 2.  The channel's ``snr_db`` argument is the ratio of the stream's
average symbol energy to the per-sample noise variance, so a stream's own
transmit power sets its noise scale: BPSK at snr gamma sees bit error
rate Q(sqrt(gamma)) and ASK Q(sqrt(gamma/2)), reproducing the classic 3 dB
gap at equal average power.

For energy-per-information-bit accounting, gamma = 2 (Eb/N0) R with R the
code rate (uncoded R = 1): `ebn0_to_channel_snr` converts.  Distance
curves take the link SNR from the budget (signal over total noise in the
Nyquist bandwidth of the symbol rate), which maps to gamma = SNR + 3.01 dB
and is common to all schemes at a given range because the radiated power,
not the per-information-bit energy, is what the link fixes.
:func:`ber_sweep` is the ``ber-sweep`` study: one such curve for each
pair of :data:`BER_CURVES`, its points run on a thread pool that the call
opens, one worker per core this process may use.  The call queues all 24
default points, in curve and distance order, before it reads a row.  Each
point draws from its own seeded stream, so the rows never depend on the
worker count.

Tiles
-----
The Monte Carlo runs in chunks of at most :data:`_CHUNK_CAP` samples; the
chunk schedule fixes the seeded stream.  :mod:`biomote._draws` keys each
point's stream and derives each sweep point's seed; this module holds the
channel, the codecs and the Monte Carlo loop.  A chunk's information bits
are ``integers(0, 2)`` draws rebuilt from the raw words of the point's
stream (:func:`biomote._draws.random_bits`), read in pieces of at most
512 KiB, so no int64 array holds them and no word array the chunk's size
exists; its noise is the stream's ``standard_normal``.  The RS codec
carries the chunk's uint8 bits as uint8 symbols (see :mod:`biomote.fec`).
Each chunk is modulated, noised and sliced in tiles of :data:`_TILE`
samples, so a chunk's float64 tx and rx arrays never exist whole: each
tile's are 256 KiB, a size the allocator hands back from the tiles freed
before it.  Every tile's noise scale is the
energy of its whole chunk, so the draws and the noisy values are those of
one :func:`awgn` call over the chunk: the thread count and the tile size
never change a result.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterator, NamedTuple

import numpy as np

from biomote import _draws, fec
from biomote._checks import count, fields, finite
from biomote.link import LinkConfig, check_distances, link_budget

__all__ = [
    "Modulation", "CodeScheme", "PhyConfig", "BerEstimate",
    "modulate", "awgn", "demodulate", "ber_theory",
    "ebn0_to_channel_snr", "ber_monte_carlo", "BerRow", "ber_vs_distance",
    "BER_CURVES", "MAX_SWEEP_BITS", "ber_sweep",
]


class Modulation(str, Enum):
    ASK = "ask"
    BPSK = "bpsk"


class CodeScheme(str, Enum):
    NONE = "none"
    HAMMING_15_11 = "hamming15_11"
    RS_31_26 = "rs31_26"

    @property
    def rate(self) -> float:
        codec = _CODECS[self]
        return codec.k / codec.n


class _Codec(NamedTuple):
    """Block shape and bit-array codec of one :class:`CodeScheme`."""

    k: int                                        # info bits per block
    n: int                                        # coded bits per block
    encode: Callable[[np.ndarray], np.ndarray]    # (m, k) -> (m, n) bits
    decode: Callable[[np.ndarray], np.ndarray]    # (m, n) -> (m, k) bits


# The lambdas look up ``fec.<name>`` at call time, so rebinding a module
# attribute (as a tracer or a test double does) reaches the Monte Carlo.
_CODECS = {
    CodeScheme.NONE: _Codec(1000, 1000, lambda b: b, lambda b: b),
    CodeScheme.HAMMING_15_11: _Codec(
        fec.HAMMING_K, fec.HAMMING_N,
        lambda b: fec.hamming_encode(b),
        lambda b: fec.hamming_decode(b)[0]),
    CodeScheme.RS_31_26: _Codec(
        5 * fec.RS_K, 5 * fec.RS_N,
        lambda b: fec.symbols_to_bits(fec.rs_encode(fec.bits_to_symbols(b))),
        lambda b: fec.symbols_to_bits(fec.rs_decode(fec.bits_to_symbols(b))[0])),
}


@dataclass(frozen=True)
class PhyConfig:
    """Monte Carlo stopping policy: run at least ``trials`` information bits
    and at least ``min_errors`` bit errors, capped at ``max_bits``.

    ``modulation`` and ``code`` are held as their enums, so their values
    (``"bpsk"``, ``"rs31_26"``) are accepted too.  ``trials``,
    ``min_errors``, ``max_bits`` and ``seed`` are counts, held as Python
    ints: ``trials`` at least 1, ``max_bits`` at least ``trials``, and
    ``min_errors`` and ``seed`` at least 0.

    Bits are simulated in whole codewords of k information bits, so a run
    that reaches the cap ends between ``max_bits`` and ``max_bits + k - 1``
    bits: 2,000,009 for Hamming (k = 11) and 2,000,050 for RS (k = 130) at
    the ``ber-sweep`` default cap of 2,000,000.
    """

    modulation: Modulation = Modulation.BPSK
    code: CodeScheme = CodeScheme.NONE
    trials: int = 100_000
    min_errors: int = 100
    max_bits: int = 10_000_000
    seed: int = _draws.DEFAULT_SEED

    def __post_init__(self):
        for name, enum in (("modulation", Modulation), ("code", CodeScheme)):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, enum(value))
            except ValueError:
                raise ValueError(f"{name} must be one of "
                                 f"{[m.value for m in enum]}, not {value!r}") from None
        fields(self, count, "trials")
        fields(self, count, "min_errors", "seed", low=0)
        fields(self, count, "max_bits", low=self.trials)


@dataclass(frozen=True)
class BerEstimate:
    ber: float
    bits_simulated: int
    errors: int
    low_confidence: bool      # budget ran out before min_errors was reached


def modulate(bits, scheme: Modulation | str) -> np.ndarray:
    """Map bits to symbol amplitudes (BPSK -1/+1, ASK 0/2)."""
    bits = np.asarray(bits)
    if bits.size == 0:
        raise ValueError("bit sequence must be non-empty")
    symbols = np.multiply(bits > 0, 2.0, dtype=float)    # ASK: 0 / 2
    if Modulation(scheme) is Modulation.BPSK:
        symbols -= 1.0                                  # -1 / +1
    return symbols


def awgn(symbols, snr_db: float, rng: np.random.Generator,
         energy: float | None = None) -> np.ndarray:
    """Add white Gaussian noise with variance = mean symbol energy / snr.

    Deterministic for a given generator state; infinite snr returns a copy
    of the input.

    ``energy``, when given, replaces the mean symbol energy of ``symbols``:
    a slice of a longer stream then gets the noise scale of the whole
    stream, and consecutive slices draw the values of one call over it.
    """
    symbols = np.asarray(symbols, dtype=float)
    if symbols.size == 0:
        raise ValueError("symbol sequence must be non-empty")
    if not math.isfinite(snr_db):
        if snr_db > 0:
            return symbols.copy()
        raise ValueError("snr_db must be finite or +inf")
    if energy is None:
        energy = float(np.mean(np.square(symbols)))
    elif finite("energy", energy) < 0:
        raise ValueError("energy must be >= 0")
    sigma = math.sqrt(energy / 10.0 ** (snr_db / 10.0))
    # the draws and the arithmetic of symbols + rng.normal(0, sigma), which
    # computes 0 + sigma * z; the draws fill a C-contiguous array
    noisy = rng.standard_normal(symbols.shape)
    noisy *= sigma
    noisy += symbols
    return noisy


def demodulate(symbols, scheme: Modulation | str) -> np.ndarray:
    """Threshold receiver: BPSK slices at 0, ASK at the midpoint 1; ties
    decide 1."""
    symbols = np.asarray(symbols, dtype=float)
    thresh = 0.0 if Modulation(scheme) is Modulation.BPSK else 1.0
    return (symbols >= thresh).view(np.uint8)


def ber_theory(scheme: Modulation | str, ebn0_db: float) -> float:
    """Closed-form AWGN bit error rate at a given Eb/N0.

    BPSK: Q(sqrt(2 Eb/N0)); coherent on-off ASK at equal average power:
    Q(sqrt(Eb/N0)).
    """
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    arg = 2.0 * ebn0 if Modulation(scheme) is Modulation.BPSK else ebn0
    return 0.5 * math.erfc(math.sqrt(arg / 2.0))


def ebn0_to_channel_snr(ebn0_db: float, code: CodeScheme | str = CodeScheme.NONE) -> float:
    """Channel snr_db carrying the stated energy per information bit."""
    return ebn0_db + 10.0 * math.log10(2.0 * CodeScheme(code).rate)


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------

#: most samples in one Monte Carlo chunk.  Every codeword is far shorter,
#: and every chunk at the ``ber-sweep`` defaults is smaller, the largest
#: being 18,181 Hamming blocks = 272,715 samples.  The cap shapes the chunk
#: schedule and so the seeded stream.
_CHUNK_CAP = 1 << 19

#: samples in one tile of a chunk (256 KiB of float64)
_TILE = 1 << 15


def _chunk_energy(coded: np.ndarray, scheme: Modulation) -> float:
    """Mean symbol energy of the 0/1 bits ``coded`` once modulated, equal
    to ``np.mean(np.square(modulate(coded, scheme)))`` to the last bit.

    The squares are 1 (BPSK) or 0 and 4 (ASK), so their float64 sum is an
    exact integer and the mean is one correctly rounded division.
    """
    if scheme is Modulation.BPSK:
        return 1.0
    return 4 * int(np.count_nonzero(coded)) / coded.size


def _run_blocks(cfg: PhyConfig, snr_db: float, n_blocks: int,
                rng: np.random.Generator) -> tuple[int, int]:
    """Simulate ``n_blocks`` codewords; returns (info bit errors, info bits)."""
    codec = _CODECS[cfg.code]
    info = _draws.random_bits(rng.bit_generator, (n_blocks, codec.k))
    coded = codec.encode(info).reshape(-1)
    energy = _chunk_energy(coded, cfg.modulation)
    hard = np.empty(coded.size, dtype=np.uint8)
    for start in range(0, coded.size, _TILE):
        bits = coded[start:start + _TILE]
        rx = awgn(modulate(bits, cfg.modulation), snr_db, rng, energy=energy)
        hard[start:start + bits.size] = demodulate(rx, cfg.modulation)
    decoded = codec.decode(hard.reshape(n_blocks, codec.n))
    errors = int(np.count_nonzero(decoded != info))
    return errors, n_blocks * codec.k


def ber_monte_carlo(cfg: PhyConfig, snr_db: float) -> BerEstimate:
    """Estimate the information-bit error rate at a channel snr.

    Reproducible for a given (cfg.seed, snr_db); the generator stream is
    derived from both so points of a sweep are independent.  The bit cap
    may be overshot by up to k - 1 bits (see :class:`PhyConfig`); counting
    whole codewords keeps every decoded block in the estimate.

    Each chunk holds at most :data:`_CHUNK_CAP` samples, and its samples
    go through the channel one tile at a time (see the module docstring).
    """
    finite("snr_db", snr_db)
    rng = np.random.Generator(_draws.stream(cfg.seed, _snr_key(snr_db)))
    codec = _CODECS[cfg.code]
    k = codec.k
    errors = bits = 0
    while True:
        need_bits = bits < cfg.trials
        need_errs = errors < cfg.min_errors
        if not (need_bits or need_errs) or bits >= cfg.max_bits:
            break
        chunk = max((cfg.trials if need_bits else cfg.max_bits // 10) // k, 1)
        chunk = min(chunk, max((cfg.max_bits - bits) // k, 1),
                    _CHUNK_CAP // codec.n)
        e, b = _run_blocks(cfg, snr_db, chunk, rng)
        errors += e
        bits += b
    return BerEstimate(ber=errors / bits, bits_simulated=bits, errors=errors,
                       low_confidence=errors < cfg.min_errors)


def _snr_key(snr_db: float) -> int:
    return int(round(snr_db * 1e6)) & 0xFFFFFFFFFFFF


LINK_SNR_TO_CHANNEL_DB = 10.0 * math.log10(2.0)

#: one row of :func:`ber_vs_distance`; the field names are its CSV columns
BerRow = namedtuple("BerRow", "distance_m scheme code ber bits")


def ber_vs_distance(link: LinkConfig, noise_dbm: float, cfg: PhyConfig,
                    distances, mapper: Callable = map) -> Iterator[BerRow]:
    """BER curve over reader-mote separations.

    Per distance the budget against a receiver noise floor of
    ``noise_dbm`` (total, in dBm) fixes the symbol SNR; every scheme sees
    the same channel (same radiated power).  Returns an iterator of
    :class:`BerRow` in distance order, the scheme named by
    ``cfg.modulation.value`` and the code by ``cfg.code.value``.

    ``mapper`` runs the Monte Carlo points: a callable with the signature
    of the builtin ``map`` (the default, which runs each point as its row
    is read), such as an executor's ``map``, which queues them all at
    once.  The call itself checks the distances
    (:func:`~biomote.link.check_distances`), computes the budgets in
    the calling thread and hands every point to ``mapper`` in one call;
    the rows come as the caller reads the iterator.  Each point draws from
    its own seed, so no ``mapper`` changes a result.
    """
    distances = check_distances(distances)
    snrs = [link_budget(replace(link, separation=d), noise_dbm).snr_db
            + LINK_SNR_TO_CHANNEL_DB for d in distances]
    cfgs = [replace(cfg, seed=_draws.sub_seed(cfg.seed, i))
            for i in range(len(distances))]
    return (BerRow(d, cfg.modulation.value, cfg.code.value, est.ber, est.bits_simulated)
            for d, est in zip(distances, mapper(ber_monte_carlo, cfgs, snrs)))


#: the (modulation, code) pair of each :func:`ber_sweep` curve, in row order
BER_CURVES = ((Modulation.ASK, CodeScheme.NONE), (Modulation.BPSK, CodeScheme.NONE),
              (Modulation.BPSK, CodeScheme.HAMMING_15_11), (Modulation.BPSK, CodeScheme.RS_31_26))


#: most information bits a :func:`ber_sweep` may budget, ``max_bits`` for
#: each of its points: a coded point that sees no error runs its whole cap,
#: at 26-37 ns an information bit on a 2-core Xeon, so a sweep at the cap
#: takes at most about 40 s of CPU
MAX_SWEEP_BITS = 10**9


def _usable_cores() -> int:
    """Number of cores this process may run on: all of them on a platform
    with no affinity call."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def ber_sweep(link: LinkConfig, noise_dbm: float, distances, *, trials: int, min_errors: int,
              max_bits: int, seed: int) -> list[BerRow]:
    """The ``ber-sweep`` study: a :func:`ber_vs_distance` curve for each
    pair of :data:`BER_CURVES`, the k-th with seed ``seed + k`` and the
    stopping policy of :class:`PhyConfig`.

    The points run on a thread pool of one worker per core this process
    may use.  Each curve hands its points to the pool's ``map`` before the
    next curve is built and before any row is read, so the pool takes
    every point in curve and distance order; a point that raises cancels
    the points still queued.  A sweep whose points budget more than
    :data:`MAX_SWEEP_BITS` bits in all raises ``ValueError`` before any
    point runs; the message names the CLI's keys.  Returns the rows of
    every curve, curve by curve.
    """
    distances = check_distances(distances)
    cfgs = [PhyConfig(mod, code, trials, min_errors, max_bits, seed + k)
            for k, (mod, code) in enumerate(BER_CURVES)]
    if len(cfgs) * len(distances) * cfgs[0].max_bits > MAX_SWEEP_BITS:
        raise ValueError(f"ber_max_bits={max_bits} at {len(distances)} ber_distances_m on "
                         f"{len(cfgs)} curves budgets more than {MAX_SWEEP_BITS} bits")
    # imported here: at module level they would load in every CLI run.
    # numpy.random, loaded before the workers start, allocates in the
    # calling thread's malloc arena and not in a worker's (about 0.5 MB
    # less peak RSS)
    from concurrent.futures import ThreadPoolExecutor
    import numpy.random  # noqa: F401

    # numpy releases the GIL in the noise draws and the large array
    # operations; a worker that is done takes the next point of any curve
    pool = ThreadPoolExecutor(max_workers=_usable_cores())
    try:
        curves = [ber_vs_distance(link, noise_dbm, cfg, distances, pool.map) for cfg in cfgs]
        return [row for rows in curves for row in rows]
    finally:
        pool.shutdown(cancel_futures=True)       # a failed point stops the rest

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

Workspace
---------
The Monte Carlo writes each chunk's transmitted and received samples into
two float64 buffers that it keeps between chunks, one pair per thread, so
a sweep does not map fresh multi-megabyte arrays for every chunk.  The
pair is allocated on first use and grows to the largest chunk seen.  A
chunk holds at most :data:`_WORKSPACE_CAP` samples (4 MiB a buffer), so
every chunk fits the workspace and a large run is split into more chunks
rather than into larger ones.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from biomote import fec
from biomote.link import LinkConfig, NoiseModel, link_budget

__all__ = [
    "Modulation", "CodeScheme", "PhyConfig", "BerEstimate",
    "modulate", "awgn", "demodulate", "ber_theory",
    "ebn0_to_channel_snr", "ber_monte_carlo", "ber_vs_distance",
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
    seed: int = 0xB10B10

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.min_errors < 0:
            raise ValueError("min_errors must be >= 0")
        if self.max_bits < self.trials:
            raise ValueError("max_bits must be >= trials")


@dataclass(frozen=True)
class BerEstimate:
    ber: float
    bits_simulated: int
    errors: int
    low_confidence: bool      # budget ran out before min_errors was reached


def _check_out(out: np.ndarray, shape: tuple[int, ...]) -> None:
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.shape == shape and out.flags.c_contiguous
            and out.flags.writeable):
        raise ValueError(f"out must be a writeable C-contiguous float64 array "
                         f"of shape {shape}")


def modulate(bits, scheme: Modulation, out: np.ndarray | None = None) -> np.ndarray:
    """Map bits to symbol amplitudes (BPSK -1/+1, ASK 0/2).

    With ``out`` (a writeable C-contiguous float64 array of the shape of
    ``bits``) the symbols are written there and ``out`` is returned.
    """
    bits = np.asarray(bits)
    if bits.size == 0:
        raise ValueError("bit sequence must be non-empty")
    if out is not None:
        _check_out(out, bits.shape)
    symbols = np.multiply(bits > 0, 2.0, out=out, dtype=float)   # ASK: 0 / 2
    if scheme is Modulation.BPSK:
        symbols -= 1.0                                           # -1 / +1
    return symbols


def awgn(symbols, snr_db: float, rng: np.random.Generator,
         out: np.ndarray | None = None) -> np.ndarray:
    """Add white Gaussian noise with variance = mean symbol energy / snr.

    Deterministic for a given generator state; infinite snr returns a copy
    of the input.  With ``out`` (a writeable C-contiguous float64 array of
    the shape of ``symbols`` that shares no memory with it) the noisy
    symbols are written there and ``out`` is returned; the values and the
    generator state are those of the call without ``out``.
    """
    symbols = np.asarray(symbols, dtype=float)
    if symbols.size == 0:
        raise ValueError("symbol sequence must be non-empty")
    if out is not None:
        _check_out(out, symbols.shape)
        if np.shares_memory(out, symbols):
            raise ValueError("out must not share memory with symbols")
    if not math.isfinite(snr_db):
        if snr_db > 0:
            if out is None:
                return symbols.copy()
            out[...] = symbols
            return out
        raise ValueError("snr_db must be finite or +inf")
    # the squares take the layout of symbols, which fixes the summation
    # order of their mean; only a C-contiguous input squares into out
    squares = np.square(symbols, out=out if symbols.flags.c_contiguous else None)
    sigma = math.sqrt(float(np.mean(squares)) / 10.0 ** (snr_db / 10.0))
    if out is None:                      # draws fill a C-contiguous buffer
        out = squares if squares.flags.c_contiguous else np.empty(symbols.shape)
    # the draws and the arithmetic of symbols + rng.normal(0, sigma), which
    # computes 0 + sigma * z
    rng.standard_normal(out=out)
    out *= sigma
    out += symbols
    return out


def demodulate(symbols, scheme: Modulation) -> np.ndarray:
    """Threshold receiver: BPSK slices at 0, ASK at the midpoint 1; ties
    decide 1."""
    symbols = np.asarray(symbols, dtype=float)
    thresh = 0.0 if scheme is Modulation.BPSK else 1.0
    return (symbols >= thresh).view(np.uint8)


def ber_theory(scheme: Modulation, ebn0_db: float) -> float:
    """Closed-form AWGN bit error rate at a given Eb/N0.

    BPSK: Q(sqrt(2 Eb/N0)); coherent on-off ASK at equal average power:
    Q(sqrt(Eb/N0)).
    """
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    arg = 2.0 * ebn0 if scheme is Modulation.BPSK else ebn0
    return 0.5 * math.erfc(math.sqrt(arg / 2.0))


def ebn0_to_channel_snr(ebn0_db: float, code: CodeScheme = CodeScheme.NONE) -> float:
    """Channel snr_db carrying the stated energy per information bit."""
    return ebn0_db + 10.0 * math.log10(2.0 * code.rate)


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------

#: most samples in one Monte Carlo chunk, and so in a retained workspace
#: buffer (4 MiB of float64).  Every codeword is far shorter, and every
#: chunk at the ``ber-sweep`` defaults is smaller, the largest being 18,181
#: Hamming blocks = 272,715 samples.
_WORKSPACE_CAP = 1 << 19

_workspace = threading.local()


def _chunk_buffers(size: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's tx and rx buffers of ``size`` <= :data:`_WORKSPACE_CAP`
    samples."""
    held = getattr(_workspace, "buffers", None)
    if held is None or held.shape[1] < size:
        held = _workspace.buffers = np.empty((2, size))
    return held[0, :size], held[1, :size]


def _run_blocks(cfg: PhyConfig, snr_db: float, n_blocks: int,
                rng: np.random.Generator) -> tuple[int, int]:
    """Simulate ``n_blocks`` codewords; returns (info bit errors, info bits)."""
    codec = _CODECS[cfg.code]
    info = rng.integers(0, 2, size=(n_blocks, codec.k)).astype(np.uint8)
    coded = codec.encode(info).reshape(-1)
    tx_buf, rx_buf = _chunk_buffers(coded.size)
    tx = modulate(coded, cfg.modulation, out=tx_buf)
    rx = awgn(tx, snr_db, rng, out=rx_buf)
    hard = demodulate(rx, cfg.modulation).reshape(n_blocks, codec.n)
    errors = int(np.count_nonzero(codec.decode(hard) != info))
    return errors, n_blocks * codec.k


def ber_monte_carlo(cfg: PhyConfig, snr_db: float) -> BerEstimate:
    """Estimate the information-bit error rate at a channel snr.

    Reproducible for a given (cfg.seed, snr_db); the generator stream is
    derived from both so points of a sweep are independent.  The bit cap
    may be overshot by up to k - 1 bits (see :class:`PhyConfig`); counting
    whole codewords keeps every decoded block in the estimate.

    Each chunk holds at most :data:`_WORKSPACE_CAP` samples, and its
    samples go through this thread's retained workspace (see the module
    docstring).
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(cfg.seed, _snr_key(snr_db))))
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
                    _WORKSPACE_CAP // codec.n)
        e, b = _run_blocks(cfg, snr_db, chunk, rng)
        errors += e
        bits += b
    return BerEstimate(ber=errors / bits, bits_simulated=bits, errors=errors,
                       low_confidence=errors < cfg.min_errors)


def _snr_key(snr_db: float) -> int:
    return int(round(snr_db * 1e6)) & 0xFFFFFFFFFFFF


LINK_SNR_TO_CHANNEL_DB = 10.0 * math.log10(2.0)


def ber_vs_distance(link: LinkConfig, noise: NoiseModel, cfg: PhyConfig,
                    distances) -> list[tuple[float, float, int]]:
    """BER curve over reader-mote separations.

    Per distance the budget fixes the symbol SNR; every scheme sees the
    same channel (same radiated power).  Returns (distance, ber, bits).
    """
    distances = list(distances)
    if any(b <= a for a, b in zip(distances, distances[1:])):
        raise ValueError("distances must be strictly ascending")
    out = []
    for i, d in enumerate(distances):
        budget = link_budget(replace(link, separation=d), noise)
        snr = budget.snr_db + LINK_SNR_TO_CHANNEL_DB
        est = ber_monte_carlo(replace(cfg, seed=_sub_seed(cfg.seed, i)), snr)
        out.append((d, est.ber, est.bits_simulated))
    return out


def _sub_seed(master: int, index: int) -> int:
    """Deterministic per-point seed: results do not depend on how points are
    split across workers."""
    ss = np.random.SeedSequence(entropy=(master, index))
    return int(ss.generate_state(1, np.uint64)[0])

"""Forward error correction for the biomote downlink: Hamming(15,11) and
Reed-Solomon(31,26) over GF(2^5).

Both codes are systematic and cheap to encode (the mote only encodes;
decoding happens at the reader).  Two encoder forms are provided for each
code: a table form used by the simulator, and a bit/symbol-serial
shift-register form (``*_lfsr``) mirroring the hardware realisation, which
stays the reference.  They are required to agree bit-for-bit.

The table forms rest on linearity.  Hamming packs the 11 message bits of a
word into an index of a 2048-entry parity table; decoding recomputes parity
the same way, XORs it with the received parity into a syndrome, and flips
the bit a 16-entry syndrome table names.  RS parity and the syndromes
S_1..S_5 are XORs over symbol positions of per-position 32-entry tables,
each entry packing five 5-bit field elements into one word: the parity of
v x^i, and v a^(ik) for k = 1..5.

Conventions
-----------
Hamming(15,11) is the cyclic code generated by g(x) = x^4 + x + 1.  A
codeword is the coefficient vector of c(x) = x^4 m(x) + (x^4 m(x) mod g),
index 0 first: parity in positions 0..3, message in positions 4..14.

RS(31,26) uses GF(32) built on the primitive polynomial x^5 + x^2 + 1
(``GF32_PRIMITIVE_POLY``), the conventional narrow-sense generator
g(x) = prod_{i=1..5} (x - a^i) with a the primitive element, and parity =
x^5 m(x) mod g(x) in coefficients 0..4.  Symbols pack to bits 5 at a time,
most-significant bit first.

RS decoding is bounded-distance: every pattern of at most two symbol
errors is corrected, and every other word is flagged as a failure and its
message symbols pass through raw.  With minimum distance 6 a flagged word
never lies within two symbols of a codeword, and a pattern of three errors
is always flagged; four or more errors can land within two symbols of
another codeword, and are then miscorrected to it.

The four codecs, ``hamming_encode``, ``hamming_decode``, ``rs_encode`` and
``rs_decode``, take one word, a 1-D array of the codec's input length, or a
batch, an (m, length) array of m words.  One word gives one word back, with
its counts and flags as Python scalars; a batch gives (m, ...) arrays.  Any
other shape or length raises ``ValueError``.  The shift-register encoders
take one word only; the packing functions take any leading shape.  Every
encoder, decoder and packing function rejects bits outside {0, 1} and
symbols outside [0, 31] with ``ValueError``.

Dtypes
------
GF(32) symbols keep the integer dtype they arrive in: ``bits_to_symbols``
returns its bits' dtype, ``rs_encode`` and ``rs_decode`` their input's,
so the uint8 bits of the PHY travel as uint8 symbols and int64 callers
get int64.  Input of any other dtype converts to int64.  Bits are uint8.
The product and inverse tables are uint8, so ``gf_mul`` returns uint8
arrays (scalars stay Python ints).  The shift-register reference
``rs_encode_lfsr`` and ``rs_generator_poly`` return int64.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GF32_PRIMITIVE_POLY",
    "HAMMING_N", "HAMMING_K", "RS_N", "RS_K",
    "gf_mul", "gf_pow",
    "hamming_encode", "hamming_encode_lfsr", "hamming_decode",
    "rs_encode", "rs_encode_lfsr", "rs_decode", "rs_generator_poly",
    "symbols_to_bits", "bits_to_symbols",
]

HAMMING_N, HAMMING_K = 15, 11
RS_N, RS_K = 31, 26

#: primitive polynomial of GF(2^5): x^5 + x^2 + 1
GF32_PRIMITIVE_POLY = 0b100101


# ---------------------------------------------------------------------------
# GF(32) arithmetic
# ---------------------------------------------------------------------------

def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    exp = np.zeros(62, dtype=np.int64)
    log = np.zeros(32, dtype=np.int64)
    x = 1
    for i in range(31):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0b100000:
            x ^= GF32_PRIMITIVE_POLY
    exp[31:62] = exp[0:31]  # doubled so exponents up to 61 need no modulo
    return exp, log


_EXP, _LOG = _build_tables()

#: full 32x32 product table; row and column 0 stay zero
_MUL = np.zeros((32, 32), dtype=np.uint8)
_MUL[1:, 1:] = _EXP[_LOG[1:, None] + _LOG[None, 1:]]
#: inverse table, zero-safe for the decoder: entry 0 maps to 0
_INV = np.zeros(32, dtype=np.uint8)
_INV[1:] = _EXP[31 - _LOG[1:]]


def gf_mul(a, b):
    """Field product; accepts scalars or broadcastable integer arrays.

    Arrays give a uint8 array, scalars a Python int."""
    out = _MUL[a, b]
    return int(out) if out.ndim == 0 else out


def gf_pow(a: int, n: int) -> int:
    if a == 0:
        return 0 if n else 1
    return int(_EXP[(_LOG[a] * n) % 31])


def _as_symbols(values) -> np.ndarray:
    """``values`` as an array: an integer dtype stays, any other is int64."""
    values = np.asarray(values)
    return values if values.dtype.kind in "iu" else values.astype(np.int64)


def _check_alphabet(values: np.ndarray, top: int, what: str) -> None:
    """Reject entries outside [0, top]: bits have top 1, symbols top 31."""
    if values.size and (values.min() < 0 or values.max() > top):
        raise ValueError(f"{what} must lie in [0, {top}]")


def _codec_input(values, length: int, top: int) -> tuple[np.ndarray, bool]:
    """A codec's input as an (m, length) batch over [0, top], and whether it
    was one word: the rule the module docstring states."""
    values = _as_symbols(values)
    if values.ndim not in (1, 2) or values.shape[-1] != length:
        raise ValueError(f"need a length-{length} word or (m, {length}) batch, got {values.shape}")
    _check_alphabet(values, top, "bits" if top == 1 else "symbols")
    return np.atleast_2d(values), values.ndim == 1


# ---------------------------------------------------------------------------
# Hamming(15,11)
# ---------------------------------------------------------------------------

_HAMMING_G = 0b10011  # x^4 + x + 1


def _build_hamming_tables() -> tuple[np.ndarray, np.ndarray]:
    # parity of an 11-bit message index: XOR of x^(4+i) mod g over its set
    # bits; indices with bit i set are the upper half after step i
    parity = [0]
    for i in range(HAMMING_K):
        r = _poly_mod_gf2(1 << (4 + i), _HAMMING_G)
        parity += [p ^ r for p in parity]
    # syndrome of a single error in position p: x^p mod g
    pos_of_syndrome = np.full(16, -1, dtype=np.int64)
    for p in range(HAMMING_N):
        pos_of_syndrome[_poly_mod_gf2(1 << p, _HAMMING_G)] = p
    return np.array(parity, dtype=np.uint8), pos_of_syndrome


def _poly_mod_gf2(num: int, den: int) -> int:
    dd = den.bit_length()
    while num.bit_length() >= dd:
        num ^= den << (num.bit_length() - dd)
    return num


#: packed parity nibble (bit j = parity position j) of each 11-bit message
#: index (bit i = message bit i), and the error position of each syndrome
_HAMMING_PARITY, _HAMMING_POS_OF_SYNDROME = _build_hamming_tables()
#: bit j of each nibble, for unpacking parity
_NIBBLE_BITS = np.array([[(v >> j) & 1 for j in range(4)] for v in range(16)], dtype=np.uint8)


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """(..., w <= 16) 0/1 array -> (...) uint16 words, bit j = column j."""
    padded = np.zeros(bits.shape[:-1] + (16,), dtype=np.uint8)
    padded[..., :bits.shape[-1]] = bits
    return np.packbits(padded, bitorder="little").view("<u2").reshape(bits.shape[:-1])


def hamming_encode(msg) -> np.ndarray:
    """Encode 11 message bits into a systematic 15-bit codeword.

    Returns uint8 codewords, one per message, with parity in positions 0..3.
    """
    msg, single = _codec_input(msg, HAMMING_K, 1)
    out = np.empty((msg.shape[0], HAMMING_N), dtype=np.uint8)
    out[:, :4] = np.take(_NIBBLE_BITS, np.take(_HAMMING_PARITY, _pack_rows(msg)), axis=0)
    out[:, 4:] = msg
    return out[0] if single else out


def hamming_encode_lfsr(msg) -> np.ndarray:
    """Shift-register encoder: 11 clocks of a 4-stage division register.

    Bit-serial form of :func:`hamming_encode`; used to pin the hardware
    realisation against the matrix form.
    """
    msg = np.asarray(msg, dtype=np.int64)
    if msg.ndim != 1 or msg.shape[0] != HAMMING_K:
        raise ValueError(f"message must have length {HAMMING_K}")
    _check_alphabet(msg, 1, "bits")
    reg = [0, 0, 0, 0]
    for bit in msg[::-1]:          # high-order message coefficient first
        fb = int(bit) ^ reg[3]
        reg = [fb, reg[0] ^ fb, reg[1], reg[2]]   # g = x^4 + x + 1
    return np.concatenate([np.array(reg, dtype=np.uint8), msg.astype(np.uint8)])


def hamming_decode(word):
    """Syndrome-decode 15-bit words.

    Returns ``(msg, corrected)``: the uint8 messages and the 0 or 1 bits
    flipped in each word (int64; an int for one word).  Exactly one bit
    error is corrected.  The (15,11) code is perfect, so every syndrome
    points at some position and no error is ever detected without being
    corrected: two errors miscorrect to a third position.
    """
    word, single = _codec_input(word, HAMMING_N, 1)
    # syndrome = parity recomputed from data xor received parity
    packed = _pack_rows(word)
    syn = np.take(_HAMMING_PARITY, packed >> 4) ^ (packed & 0xF)
    fixed = word.astype(np.uint8)
    rows = np.nonzero(syn)[0]
    fixed[rows, _HAMMING_POS_OF_SYNDROME[syn[rows]]] ^= 1
    corrected = (syn != 0).astype(np.int64)
    if single:
        return fixed[0, 4:], int(corrected[0])
    return fixed[:, 4:], corrected


# ---------------------------------------------------------------------------
# Reed-Solomon(31,26) over GF(32)
# ---------------------------------------------------------------------------

def rs_generator_poly() -> np.ndarray:
    """Coefficients (index 0 first) of g(x) = prod_{i=1..5} (x - a^i)."""
    g = np.array([1], dtype=np.int64)
    for i in range(1, 6):
        root = gf_pow(2, i)
        nxt = np.zeros(len(g) + 1, dtype=np.int64)
        nxt[1:] ^= g                     # x * g
        nxt[:-1] ^= gf_mul(g, np.full(len(g), root))
        g = nxt
    return g


_RS_G = rs_generator_poly()          # degree 5, 6 coefficients
_RS_SHIFT = 5                        # parity block width: x^5 m(x)
_RS_NSYN = 5                         # syndromes S_1..S_5

#: five field elements pack into one word, element j in bits 5j..5j+4
_FIELD_SHIFTS = 5 * np.arange(5)


def _packed_multiples(coeffs: np.ndarray) -> np.ndarray:
    """(n, 5) field elements -> (n, 32) uint32: [i, v] packs v * coeffs[i]."""
    return (_MUL[:, coeffs] << _FIELD_SHIFTS).sum(axis=-1).T.astype(np.uint32)


def _rs_parity_rows() -> np.ndarray:
    """Row i: coefficients of x^(5+i) mod g, the parity of message x^i."""
    rows = np.zeros((RS_K, _RS_SHIFT), dtype=np.int64)
    r = _RS_G[:5].copy()                 # x^5 = g_0 + ... + g_4 x^4 mod g
    for i in range(RS_K):
        rows[i] = r
        r = np.concatenate(([0], r[:4])) ^ gf_mul(int(r[4]), _RS_G[:5])
    return rows


# Parity and syndromes are GF(32)-linear in the symbols: each is the XOR over
# positions i of what symbol v at i contributes, tabulated per position.  The
# parity of v x^i is v (x^(5+i) mod g); S_k of v x^i is v a^(ik).
_RS_PARITY_WORDS = _packed_multiples(_rs_parity_rows())                     # (26, 32)
_RS_SYNDROME_WORDS = _packed_multiples(
    _EXP[(np.arange(RS_N)[:, None] * np.arange(1, _RS_NSYN + 1)) % 31])    # (31, 32)


def _xor_lookup(table: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """XOR over positions i of table[i, symbols[:, i]], as (m,) packed words.

    The offsets are intp, the index dtype ``np.take`` converts any other
    index to, so uint8 symbols widen once, into the index itself."""
    flat_index = symbols + 32 * np.arange(table.shape[0])
    return np.bitwise_xor.reduce(np.take(table, flat_index), axis=1)


def _unpack_fields(words: np.ndarray) -> np.ndarray:
    """(m,) packed words -> (m, 5) field elements."""
    return (words[:, None] >> _FIELD_SHIFTS) & 31


def rs_encode(msg) -> np.ndarray:
    """Encode 26 GF(32) symbols into a systematic 31-symbol codeword.

    Codeword coefficients: parity in 0..4, message in 5..30.  Every
    codeword evaluates to zero at a^1..a^5.  The codeword has the message's
    integer dtype (int64 for any other input).
    """
    msg, single = _codec_input(msg, RS_K, 31)
    out = np.empty((msg.shape[0], RS_N), dtype=msg.dtype)
    out[:, :_RS_SHIFT] = _unpack_fields(_xor_lookup(_RS_PARITY_WORDS, msg))
    out[:, _RS_SHIFT:] = msg
    return out[0] if single else out


def rs_encode_lfsr(msg) -> np.ndarray:
    """Symbol-serial shift-register encoder (5-stage feedback register with
    g-coefficient multipliers); must agree with :func:`rs_encode`."""
    msg = np.asarray(msg, dtype=np.int64)
    if msg.ndim != 1 or msg.shape[0] != RS_K:
        raise ValueError(f"message must have length {RS_K}")
    _check_alphabet(msg, 31, "symbols")
    reg = [0, 0, 0, 0, 0]
    for sym in msg[::-1]:                    # high-order coefficient first
        fb = int(sym) ^ reg[4]
        reg = [gf_mul(fb, int(_RS_G[0])),
               reg[0] ^ gf_mul(fb, int(_RS_G[1])),
               reg[1] ^ gf_mul(fb, int(_RS_G[2])),
               reg[2] ^ gf_mul(fb, int(_RS_G[3])),
               reg[3] ^ gf_mul(fb, int(_RS_G[4]))]
    out = np.zeros(RS_N, dtype=np.int64)
    out[:5] = reg
    out[_RS_SHIFT:] = msg
    return out


def _rs_syndromes(word: np.ndarray) -> np.ndarray:
    """S_i = r(a^i) for i = 1..5, vectorised: shape (m, 5)."""
    return _unpack_fields(_xor_lookup(_RS_SYNDROME_WORDS, word))


#: a^-p for each position p; row v of the two Chien tables holds v a^-p and
#: v a^-2p, the terms of sigma(a^-p)
_RS_INV_POWERS = _EXP[(31 - np.arange(RS_N)) % 31]
_CHIEN_1 = _MUL[:, _RS_INV_POWERS]
_CHIEN_2 = _MUL[:, _MUL[_RS_INV_POWERS, _RS_INV_POWERS]]


def rs_decode(word):
    """Decode a 31-symbol word (or an (m, 31) batch) correcting up to two
    symbol errors.

    Peterson-Chien-Forney over the words with a nonzero syndrome: the error
    locator sigma(x) = 1 + s1 x + s2 x^2 from Peterson's 2x2 syndrome
    system, its roots a^-p by Chien search over the 31 positions, and the
    error value at each root by Forney's formula.  A correction stands only
    if the corrected word has all-zero syndromes; any other word is flagged
    and its message symbols are returned as received.

    Returns ``(msg, corrected, failure)``; ``corrected`` counts the symbols
    changed, 0 for a flagged word.  ``msg`` has the word's integer dtype
    (int64 for any other input), ``corrected`` is int64.
    """
    word, single = _codec_input(word, RS_N, 31)
    fixed = word.copy()
    corrected = np.zeros(word.shape[0], dtype=np.int64)
    failure = np.zeros(word.shape[0], dtype=bool)

    S = _rs_syndromes(word)
    rows = np.nonzero(S.any(axis=1))[0]
    S1, S2, S3, S4 = S[rows, :4].T
    # Peterson: S3 = s1 S2 + s2 S1 and S4 = s1 S3 + s2 S2.  A singular system
    # leaves at most one error, a^p = S2 / S1, and the zero-safe inverse
    # makes s2 = 0 there.
    det = _MUL[S1, S3] ^ _MUL[S2, S2]
    s1 = np.where(det != 0, _MUL[_MUL[S1, S4] ^ _MUL[S2, S3], _INV[det]],
                  _MUL[S2, _INV[S1]])
    s2 = _MUL[_MUL[S3, S3] ^ _MUL[S2, S4], _INV[det]]
    # Chien search: an error at p makes sigma(a^-p) = 1 + s1 a^-p + s2 a^-2p = 0
    r, p = np.nonzero((_CHIEN_1[s1] ^ _CHIEN_2[s2]) == 1)
    # Forney at each root: e_p = Omega(a^-p) / sigma'(a^-p), with
    # Omega(x) = S1 + (S2 + S1 s1) x and sigma'(x) = s1 in characteristic 2
    s1_r, S1_r = s1[r], S1[r]
    omega = S1_r ^ _MUL[S2[r] ^ _MUL[S1_r, s1_r], _RS_INV_POWERS[p]]
    trial = word[rows]
    trial[r, p] ^= _MUL[omega, _INV[s1_r]]
    ok = (s1 != 0) & ~_rs_syndromes(trial).any(axis=1)
    fixed[rows[ok]] = trial[ok]
    corrected[rows[ok]] = np.bincount(r, minlength=len(rows))[ok]
    failure[rows[~ok]] = True
    if single:
        return fixed[0, _RS_SHIFT:], int(corrected[0]), bool(failure[0])
    return fixed[:, _RS_SHIFT:], corrected, failure


# ---------------------------------------------------------------------------
# symbol <-> bit packing (5 bits per symbol, MSB first)
# ---------------------------------------------------------------------------

#: row v: the 5 bits of symbol v, most-significant first
_SYMBOL_BITS = np.array([[(v >> j) & 1 for j in range(4, -1, -1)] for v in range(32)],
                        dtype=np.uint8)


def symbols_to_bits(symbols) -> np.ndarray:
    """(..., s) symbols -> (..., 5 s) uint8 bits, most-significant first."""
    symbols = _as_symbols(symbols)
    _check_alphabet(symbols, 31, "symbols")
    bits = np.take(_SYMBOL_BITS, symbols, axis=0)
    return bits.reshape(symbols.shape[:-1] + (symbols.shape[-1] * 5,))


def bits_to_symbols(bits) -> np.ndarray:
    """(..., 5 s) bits -> (..., s) symbols in the bits' integer dtype (int64
    for bool bits)."""
    bits = np.asarray(bits)
    if bits.shape[-1] % 5:
        raise ValueError("bit count must be a multiple of 5")
    _check_alphabet(bits, 1, "bits")
    grouped = bits.reshape(bits.shape[:-1] + (bits.shape[-1] // 5, 5))
    symbols = grouped[..., 0] << 4
    for i in range(1, 5):
        symbols |= grouped[..., i] << (4 - i)
    return symbols

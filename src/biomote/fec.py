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
x^5 m(x) mod g(x) in coefficients 0..4.  Minimum distance 6: corrects two
symbol errors and never silently miscorrects a three-error pattern (any
applied correction is re-verified against the full syndrome set).
Symbols pack to bits 5 at a time, most-significant bit first.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GF32_PRIMITIVE_POLY",
    "HAMMING_N", "HAMMING_K", "RS_N", "RS_K",
    "hamming_code_rate", "rs_code_rate",
    "gf_mul", "gf_inv", "gf_pow",
    "hamming_encode", "hamming_encode_lfsr", "hamming_decode",
    "rs_encode", "rs_encode_lfsr", "rs_decode", "rs_generator_poly",
    "symbols_to_bits", "bits_to_symbols",
]

HAMMING_N, HAMMING_K = 15, 11
RS_N, RS_K = 31, 26

#: primitive polynomial of GF(2^5): x^5 + x^2 + 1
GF32_PRIMITIVE_POLY = 0b100101


def hamming_code_rate() -> float:
    return HAMMING_K / HAMMING_N


def rs_code_rate() -> float:
    return RS_K / RS_N


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
_MUL = np.zeros((32, 32), dtype=np.int64)
_MUL[1:, 1:] = _EXP[_LOG[1:, None] + _LOG[None, 1:]]


def gf_mul(a, b):
    """Field product; accepts scalars or broadcastable integer arrays."""
    out = _MUL[a, b]
    return int(out) if out.ndim == 0 else out


def gf_inv(a):
    """Multiplicative inverse of nonzero field elements."""
    a = np.asarray(a, dtype=np.int64)
    if np.any(a == 0):
        raise ZeroDivisionError("zero has no inverse in GF(32)")
    out = _EXP[31 - _LOG[a]]
    return int(out) if out.ndim == 0 else out


def gf_pow(a: int, n: int) -> int:
    if a == 0:
        return 0 if n else 1
    return int(_EXP[(_LOG[a] * n) % 31])


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

    Accepts a length-11 sequence or an (m, 11) array; returns the matching
    (…, 15) uint8 array with parity in positions 0..3.
    """
    msg = np.asarray(msg)
    single = msg.ndim == 1
    msg = np.atleast_2d(msg)
    if msg.shape[-1] != HAMMING_K:
        raise ValueError(f"message must have length {HAMMING_K}, got {msg.shape[-1]}")
    out = np.empty(msg.shape[:-1] + (HAMMING_N,), dtype=np.uint8)
    out[..., :4] = np.take(_NIBBLE_BITS, np.take(_HAMMING_PARITY, _pack_rows(msg)), axis=0)
    out[..., 4:] = msg
    return out[0] if single else out


def hamming_encode_lfsr(msg) -> np.ndarray:
    """Shift-register encoder: 11 clocks of a 4-stage division register.

    Bit-serial form of :func:`hamming_encode`; used to pin the hardware
    realisation against the matrix form.
    """
    msg = np.asarray(msg, dtype=np.int64)
    if msg.ndim != 1 or msg.shape[0] != HAMMING_K:
        raise ValueError(f"message must have length {HAMMING_K}")
    reg = [0, 0, 0, 0]
    for bit in msg[::-1]:          # high-order message coefficient first
        fb = int(bit) ^ reg[3]
        reg = [fb, reg[0] ^ fb, reg[1], reg[2]]   # g = x^4 + x + 1
    return np.concatenate([np.array(reg, dtype=np.uint8), msg.astype(np.uint8)])


def hamming_decode(word):
    """Syndrome-decode a 15-bit word (or an (m, 15) batch).

    Returns ``(msg, corrected, detected_uncorrectable)``.  Exactly one bit
    error is corrected; ``corrected`` counts 0 or 1 flips per word.  The
    (15,11) code is perfect, so every syndrome points at some position and
    the uncorrectable flag is structurally always False (double errors
    miscorrect to a third position rather than being detected).
    """
    word = np.asarray(word)
    single = word.ndim == 1
    word = np.atleast_2d(word)
    if word.shape[-1] != HAMMING_N:
        raise ValueError(f"word must have length {HAMMING_N}, got {word.shape[-1]}")
    # syndrome = parity recomputed from data xor received parity
    packed = _pack_rows(word)
    syn = np.take(_HAMMING_PARITY, packed >> 4) ^ (packed & 0xF)
    fixed = word.astype(np.uint8)
    rows = np.nonzero(syn)[0]
    fixed[rows, _HAMMING_POS_OF_SYNDROME[syn[rows]]] ^= 1
    msg = fixed[:, 4:]
    corrected = (syn != 0).astype(np.int64)
    if single:
        return msg[0], int(corrected[0]), False
    return msg, corrected, np.zeros(word.shape[0], dtype=bool)


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
    """XOR over positions i of table[i, symbols[:, i]], as (m,) packed words."""
    flat_index = symbols + 32 * np.arange(table.shape[0])
    return np.bitwise_xor.reduce(np.take(table, flat_index), axis=1)


def _unpack_fields(words: np.ndarray) -> np.ndarray:
    """(m,) packed words -> (m, 5) field elements."""
    return (words[:, None] >> _FIELD_SHIFTS) & 31


def _check_symbols(symbols: np.ndarray) -> None:
    if symbols.size and (symbols.min() < 0 or symbols.max() > 31):
        raise ValueError("symbols must lie in [0, 31]")


def rs_encode(msg) -> np.ndarray:
    """Encode 26 GF(32) symbols into a systematic 31-symbol codeword.

    Codeword coefficients: parity in 0..4, message in 5..30.  Every
    codeword evaluates to zero at a^1..a^5.
    """
    msg = np.asarray(msg, dtype=np.int64)
    single = msg.ndim == 1
    msg = np.atleast_2d(msg)
    if msg.shape[-1] != RS_K:
        raise ValueError(f"message must have length {RS_K}, got {msg.shape[-1]}")
    _check_symbols(msg)
    out = np.empty((msg.shape[0], RS_N), dtype=np.int64)
    out[:, :_RS_SHIFT] = _unpack_fields(_xor_lookup(_RS_PARITY_WORDS, msg))
    out[:, _RS_SHIFT:] = msg
    return out[0] if single else out


def rs_encode_lfsr(msg) -> np.ndarray:
    """Symbol-serial shift-register encoder (5-stage feedback register with
    g-coefficient multipliers); must agree with :func:`rs_encode`."""
    msg = np.asarray(msg, dtype=np.int64)
    if msg.ndim != 1 or msg.shape[0] != RS_K:
        raise ValueError(f"message must have length {RS_K}")
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


def rs_decode(word):
    """Decode a 31-symbol word (or an (m, 31) batch) correcting up to two
    symbol errors.

    Peterson-Gorenstein-Zierler for t = 2: locate via the 2x2 syndrome
    system, solve the error values directly, then verify every remaining
    syndrome; any inconsistency raises the failure flag and the received
    message symbols are returned uncorrected.  With minimum distance 6 and
    full syndrome verification, a pattern of three errors can never be
    silently decoded into a wrong message.

    Returns ``(msg, corrected, failure)``.
    """
    word = np.asarray(word, dtype=np.int64)
    single = word.ndim == 1
    word = np.atleast_2d(word)
    if word.shape[-1] != RS_N:
        raise ValueError(f"word must have length {RS_N}, got {word.shape[-1]}")
    _check_symbols(word)
    m = word.shape[0]
    S = _rs_syndromes(word)
    S1, S2, S3, S4, S5 = (S[:, i] for i in range(_RS_NSYN))

    corrected = np.zeros(m, dtype=np.int64)
    failure = np.zeros(m, dtype=bool)
    fixed = word.copy()

    clean = (S1 | S2 | S3 | S4 | S5) == 0
    det = gf_mul(S1, S3) ^ gf_mul(S2, S2)
    two = (~clean) & (det != 0)
    one = (~clean) & (det == 0)

    # --- single error: S_i = v a^(i p); consistency of the geometric ratios
    if np.any(one):
        idx = np.nonzero(one)[0]
        s = [Sk[idx] for Sk in (S1, S2, S3, S4, S5)]
        ok = (s[0] != 0) & (s[1] != 0)   # a true single error makes every S_i nonzero
        pos = np.zeros(len(idx), dtype=np.int64)
        val = np.zeros(len(idx), dtype=np.int64)
        sub = np.nonzero(ok)[0]
        if len(sub):
            ratio = gf_mul(s[1][sub], gf_inv(s[0][sub]))    # a^p
            pos[sub] = _LOG[ratio]
            val[sub] = gf_mul(s[0][sub], gf_inv(ratio))     # v = S1 / a^p
            good = np.ones(len(sub), dtype=bool)
            for i in (3, 4, 5):
                chk = gf_mul(val[sub], _EXP[(i * pos[sub]) % 31])
                good &= chk == s[i - 1][sub]
            ok_rows = idx[sub[good]]
            fixed[ok_rows, pos[sub[good]]] ^= val[sub[good]]
            corrected[ok_rows] = 1
            failure[idx[sub[~good]]] = True
        failure[idx[~ok]] = True

    # --- two errors: sigma from the 2x2 system, roots by Chien search
    if np.any(two):
        idx = np.nonzero(two)[0]
        s1, s2 = S1[idx], S2[idx]
        s3, s4, s5 = S3[idx], S4[idx], S5[idx]
        inv = gf_inv(det[idx])
        sig1 = gf_mul(gf_mul(s1, s4) ^ gf_mul(s2, s3), inv)
        sig2 = gf_mul(gf_mul(s3, s3) ^ gf_mul(s2, s4), inv)
        # sigma(x) = 1 + sig1 x + sig2 x^2, roots at x = a^-p
        powers = _EXP[np.arange(31)]
        inv_powers = _EXP[(31 - np.arange(31)) % 31]
        t1 = gf_mul(sig1[:, None], inv_powers)
        t2 = gf_mul(sig2[:, None], gf_mul(inv_powers, inv_powers))
        sig_eval = 1 ^ t1 ^ t2
        roots = sig_eval == 0                        # (rows, 31): position p is a root
        good2 = roots.sum(axis=1) == 2
        failure[idx[~good2]] = True
        if np.any(good2):
            sub = np.nonzero(good2)[0]
            p1 = np.argmax(roots[sub], axis=1)
            rest = roots[sub].copy()
            rest[np.arange(len(sub)), p1] = False
            p2 = np.argmax(rest, axis=1)
            x1, x2 = powers[p1], powers[p2]
            # v1 x1 + v2 x2 = S1 ; v1 x1^2 + v2 x2^2 = S2  (x1 != x2 => d != 0)
            x1sq, x2sq = gf_mul(x1, x1), gf_mul(x2, x2)
            d = gf_mul(x1, x2sq) ^ gf_mul(x2, x1sq)
            di = gf_inv(d)
            t_s1, t_s2 = s1[sub], s2[sub]
            v1 = gf_mul(gf_mul(t_s1, x2sq) ^ gf_mul(t_s2, x2), di)
            v2 = gf_mul(gf_mul(t_s2, x1) ^ gf_mul(t_s1, x1sq), di)
            consistent = (v1 != 0) & (v2 != 0)
            l1, l2 = _LOG[x1], _LOG[x2]
            for i, sk in ((3, s3), (4, s4), (5, s5)):
                ck = (gf_mul(v1, _EXP[(l1 * i) % 31])
                      ^ gf_mul(v2, _EXP[(l2 * i) % 31]))
                consistent &= ck == sk[sub]
            ok_rows = idx[sub[consistent]]
            fixed[ok_rows, p1[consistent]] ^= v1[consistent]
            fixed[ok_rows, p2[consistent]] ^= v2[consistent]
            corrected[ok_rows] = 2
            failure[idx[sub[~consistent]]] = True

    corrected[failure] = 0
    fixed[failure] = word[failure]                   # failed blocks pass through raw
    msg = fixed[:, _RS_SHIFT:]
    if single:
        return msg[0], int(corrected[0]), bool(failure[0])
    return msg, corrected, failure


# ---------------------------------------------------------------------------
# symbol <-> bit packing (5 bits per symbol, MSB first)
# ---------------------------------------------------------------------------

#: row v: the 5 bits of symbol v, most-significant first
_SYMBOL_BITS = np.array([[(v >> j) & 1 for j in range(4, -1, -1)] for v in range(32)],
                        dtype=np.uint8)


def symbols_to_bits(symbols) -> np.ndarray:
    symbols = np.asarray(symbols, dtype=np.int64)
    bits = np.take(_SYMBOL_BITS, symbols & 31, axis=0)
    return bits.reshape(symbols.shape[:-1] + (symbols.shape[-1] * 5,))


def bits_to_symbols(bits) -> np.ndarray:
    bits = np.asarray(bits)
    if bits.shape[-1] % 5:
        raise ValueError("bit count must be a multiple of 5")
    grouped = bits.reshape(bits.shape[:-1] + (bits.shape[-1] // 5, 5))
    symbols = grouped[..., 0] << 4
    for i in range(1, 5):
        symbols |= grouped[..., i] << (4 - i)
    return symbols.astype(np.int64, copy=False)

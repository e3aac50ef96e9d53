"""FEC tests: exhaustive Hamming oracles, independent RS division oracle,
randomized error-pattern trials, and the table-driven kernels checked
against the arithmetic forms they replaced."""

from fractions import Fraction

import numpy as np
import pytest

from biomote import fec
from biomote.fec import (
    GF32_PRIMITIVE_POLY,
    bits_to_symbols,
    gf_mul,
    gf_pow,
    hamming_decode,
    hamming_encode,
    hamming_encode_lfsr,
    rs_decode,
    rs_encode,
    rs_encode_lfsr,
    rs_generator_poly,
    symbols_to_bits,
)

RNG = np.random.default_rng(0xFEC)


def all_messages_11() -> np.ndarray:
    """All 2^11 Hamming messages as a (2048, 11) bit array."""
    vals = np.arange(2048)
    return ((vals[:, None] >> np.arange(11)) & 1).astype(np.int64)


# ---------------------------------------------------------------------------
# GF(32)
# ---------------------------------------------------------------------------

def test_primitive_poly_pinned():
    assert GF32_PRIMITIVE_POLY == 0b100101  # x^5 + x^2 + 1


def test_gf_alpha_has_order_31():
    seen = set()
    x = 1
    for _ in range(31):
        seen.add(x)
        x = gf_mul(x, 2)
    assert x == 1
    assert len(seen) == 31


def test_gf_inverse_property():
    # rs_decode divides through the inverse table, whose entry 0 is 0 so
    # that a zero divisor yields 0 instead of an error
    for a in range(1, 32):
        assert gf_mul(a, fec._INV[a]) == 1
    assert fec._INV[0] == 0


def test_gf_pow_consistency():
    assert gf_pow(2, 0) == 1
    assert gf_pow(2, 31) == 1   # alpha has multiplicative order 31
    assert gf_pow(2, 32) == 2
    assert gf_pow(0, 0) == 1
    assert gf_pow(0, 3) == 0


def _gf_mul_shift_xor(a: int, b: int) -> int:
    """Reference product: carry-less multiply, then reduce modulo the
    primitive polynomial one high bit at a time."""
    prod = 0
    for i in range(5):
        if (b >> i) & 1:
            prod ^= a << i
    for bit in range(8, 4, -1):
        if (prod >> bit) & 1:
            prod ^= GF32_PRIMITIVE_POLY << (bit - 5)
    return prod


def test_gf_mul_matches_shift_xor_exhaustive():
    expected = np.array([[_gf_mul_shift_xor(a, b) for b in range(32)]
                         for a in range(32)])
    # one broadcast call over all 1,024 pairs, then the scalar path
    assert np.array_equal(gf_mul(np.arange(32)[:, None], np.arange(32)), expected)
    assert all(gf_mul(a, b) == expected[a, b] for a in range(32) for b in range(32))


# ---------------------------------------------------------------------------
# Hamming(15,11)
# ---------------------------------------------------------------------------

def test_hamming_zero_message():
    assert not hamming_encode(np.zeros(11, dtype=int)).any()


def test_hamming_rate_exact():
    assert Fraction(11, 15) == Fraction(fec.HAMMING_K, fec.HAMMING_N)


def test_hamming_wrong_length_rejected():
    with pytest.raises(ValueError):
        hamming_encode(np.zeros(12, dtype=int))
    with pytest.raises(ValueError):
        hamming_decode(np.zeros(14, dtype=int))


def test_hamming_roundtrip_and_min_weight_exhaustive():
    msgs = all_messages_11()
    words = hamming_encode(msgs)
    dec, corrected = hamming_decode(words)
    assert np.array_equal(dec, msgs)
    assert not corrected.any()
    weights = words.sum(axis=1)
    assert weights[1:].min() >= 3       # linear code: min weight = min distance
    assert weights[0] == 0


def test_hamming_single_error_exhaustive():
    """Every single-bit flip of every codeword decodes back: 2^11 x 15 cases."""
    msgs = all_messages_11()
    words = hamming_encode(msgs).astype(np.int64)
    for pos in range(15):
        corrupted = words.copy()
        corrupted[:, pos] ^= 1
        dec, corrected = hamming_decode(corrupted)
        assert np.array_equal(dec, msgs)
        assert (corrected == 1).all()


def test_hamming_double_error_never_claims_two():
    word = hamming_encode(np.zeros(11, dtype=int)).astype(np.int64)
    for i in range(15):
        for j in range(i + 1, 15):
            w = word.copy()
            w[i] ^= 1
            w[j] ^= 1
            _, corrected = hamming_decode(w)
            assert corrected <= 1


def test_hamming_lfsr_matches_matrix_form():
    msgs = all_messages_11()
    words = hamming_encode(msgs)
    for k in range(0, 2048, 97):        # sampled; full loop is slow in python
        assert np.array_equal(hamming_encode_lfsr(msgs[k]), words[k])


def test_hamming_linearity():
    for _ in range(200):
        a = RNG.integers(0, 2, size=11)
        b = RNG.integers(0, 2, size=11)
        assert np.array_equal(hamming_encode(a ^ b),
                              hamming_encode(a) ^ hamming_encode(b))


# ---------------------------------------------------------------------------
# Reed-Solomon(31,26)
# ---------------------------------------------------------------------------

def poly_mod_oracle(msg: np.ndarray) -> np.ndarray:
    """Independent long division: remainder of x^5 m(x) mod g(x), schoolbook
    coefficient-at-a-time with table-free shift/xor multiplication."""

    def mul(a, b):
        # carry-less multiply then reduce by the primitive polynomial
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            if a & 0b100000:
                a ^= GF32_PRIMITIVE_POLY
            b >>= 1
        return r

    g = [int(c) for c in rs_generator_poly()]
    dividend = [0] * 5 + [int(s) for s in msg]
    for k in range(len(dividend) - 1, 4, -1):
        lead = dividend[k]
        if lead == 0:
            continue
        for j in range(6):
            dividend[k - 5 + j] ^= mul(lead, g[j])
    return np.array(dividend[:5], dtype=np.int64)


def test_rs_generator_poly_degree_and_roots():
    g = rs_generator_poly()
    assert len(g) == 6 and g[5] == 1
    for i in range(1, 6):
        acc = 0
        a_i = gf_pow(2, i)
        for c in g[::-1]:
            acc = gf_mul(acc, a_i) ^ int(c)
        assert acc == 0


def test_rs_zero_message():
    assert not rs_encode(np.zeros(26, dtype=int)).any()


def test_rs_rate_exact():
    assert Fraction(26, 31) == Fraction(fec.RS_K, fec.RS_N)


def test_rs_wrong_length_rejected():
    with pytest.raises(ValueError):
        rs_encode(np.zeros(25, dtype=int))
    with pytest.raises(ValueError):
        rs_decode(np.zeros(30, dtype=int))


def test_rs_encoder_matches_division_oracle():
    for _ in range(300):
        msg = RNG.integers(0, 32, size=26)
        word = rs_encode(msg)
        assert np.array_equal(word[:5], poly_mod_oracle(msg))
        assert np.array_equal(word[5:], msg)


def test_rs_codeword_roots():
    """Codewords vanish at a^1..a^4 (and at a^5, the full generator set)."""
    for _ in range(100):
        word = rs_encode(RNG.integers(0, 32, size=26))
        for i in range(1, 6):
            acc = 0
            a_i = gf_pow(2, i)
            for c in word[::-1]:
                acc = gf_mul(acc, a_i) ^ int(c)
            assert acc == 0


def test_rs_lfsr_matches_polynomial_form():
    for _ in range(100):
        msg = RNG.integers(0, 32, size=26)
        assert np.array_equal(rs_encode_lfsr(msg), rs_encode(msg))


def test_rs_linearity():
    for _ in range(100):
        a = RNG.integers(0, 32, size=26)
        b = RNG.integers(0, 32, size=26)
        assert np.array_equal(rs_encode(a ^ b), rs_encode(a) ^ rs_encode(b))


def test_rs_clean_decode():
    msg = RNG.integers(0, 32, size=26)
    out, corrected, failure = rs_decode(rs_encode(msg))
    assert np.array_equal(out, msg)
    assert corrected == 0 and not failure


def test_rs_single_error_full_enumeration():
    """All 31 positions x 31 magnitudes on the zero codeword, as int64 and
    as uint8 words."""
    words = np.zeros((31 * 31, 31), dtype=np.int64)
    k = 0
    for pos in range(31):
        for val in range(1, 32):
            words[k, pos] = val
            k += 1
    for batch in (words, words.astype(np.uint8)):
        out, corrected, failure = rs_decode(batch)
        assert out.dtype == batch.dtype and not out.any()
        assert (corrected == 1).all()
        assert not failure.any()


def test_rs_double_errors_randomized():
    """Every two-error pattern (465 position pairs x 31^2 values), each on a
    random codeword, decodes to the sent message."""
    values = np.stack(np.divmod(np.arange(31 * 31), 31), axis=1) + 1
    for p1 in range(30):
        p2 = np.repeat(np.arange(p1 + 1, 31), 31 * 31)
        v = np.tile(values, (30 - p1, 1))
        msgs = RNG.integers(0, 32, size=(len(p2), 26))
        words = rs_encode(msgs)
        rows = np.arange(len(p2))
        words[rows, p1] ^= v[:, 0]
        words[rows, p2] ^= v[:, 1]
        out, corrected, failure = rs_decode(words)
        assert np.array_equal(out, msgs)
        assert (corrected == 2).all()
        assert not failure.any()


def test_rs_triple_errors_never_silently_wrong_without_flag():
    """Three errors exceed capability: the decoder must flag the block, never
    silently return a wrong message as a <=2-symbol correction (d = 6 plus
    full syndrome verification makes that impossible).  The measured
    miscorrection rate is reported and must be zero."""
    trials = 4000
    msgs = RNG.integers(0, 32, size=(trials, 26))
    words = rs_encode(msgs)
    rows = np.arange(trials)
    pos = np.array([RNG.choice(31, size=3, replace=False) for _ in range(trials)])
    for k in range(3):
        words[rows, pos[:, k]] ^= RNG.integers(1, 32, size=trials)
    out, corrected, failure = rs_decode(words)
    assert corrected.max() <= 2
    wrong = ~(out == msgs).all(axis=1)
    silent_wrong = wrong & ~failure
    rate = silent_wrong.mean()
    print(f"\nRS 3-error silent miscorrection rate: {rate:.4f} over {trials} trials")
    assert rate == 0.0
    # flagged blocks pass the received message through unmodified
    assert (out[failure] == words[failure][:, 5:]).all()


# ---------------------------------------------------------------------------
# packing and alphabets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("entry, length, bad", [
    ("hamming_encode", 11, 2), ("hamming_encode", 11, -1),
    ("hamming_encode_lfsr", 11, 2), ("hamming_encode_lfsr", 11, -1),
    ("hamming_decode", 15, 2), ("hamming_decode", 15, -1),
    ("bits_to_symbols", 5, 2), ("bits_to_symbols", 5, -1),
    ("symbols_to_bits", 5, 32), ("symbols_to_bits", 5, -1),
    ("rs_encode", 26, 32), ("rs_encode", 26, -1),
    ("rs_encode_lfsr", 26, 32), ("rs_encode_lfsr", 26, -1),
    ("rs_decode", 31, 32), ("rs_decode", 31, -1),
])
def test_out_of_alphabet_rejected(entry, length, bad):
    values = np.zeros(length, dtype=np.int64)
    values[-1] = bad
    with pytest.raises(ValueError, match="must lie in"):
        getattr(fec, entry)(values)


@pytest.mark.parametrize("entry, length", [
    ("hamming_encode", 11), ("hamming_decode", 15), ("rs_encode", 26), ("rs_decode", 31),
])
@pytest.mark.parametrize("case", ["0-d", "3-D batch", "wrong-width word", "wrong-width batch"])
def test_codec_takes_one_word_or_a_2d_batch(entry, length, case):
    shape = {"0-d": (), "3-D batch": (2, 20, length), "wrong-width word": (length + 1,),
             "wrong-width batch": (3, length + 1)}[case]
    values = np.zeros(shape, dtype=np.int64)
    with pytest.raises(ValueError, match=f"length-{length} word"):
        getattr(fec, entry)(values)


@pytest.mark.parametrize("entry, length, message", [
    ("bits_to_symbols", 7, "multiple of 5"),
    ("hamming_encode_lfsr", 10, "length 11"), ("hamming_encode_lfsr", 12, "length 11"),
    ("rs_encode_lfsr", 25, "length 26"), ("rs_encode_lfsr", 27, "length 26"),
])
def test_wrong_length_rejected(entry, length, message):
    with pytest.raises(ValueError, match=message):
        getattr(fec, entry)(np.zeros(length, dtype=np.int64))


def test_one_word_gives_python_scalars():
    msg, corrected = hamming_decode(hamming_encode(np.ones(11, dtype=np.uint8)))
    assert msg.shape == (11,) and type(corrected) is int
    msg, corrected, failure = rs_decode(rs_encode(np.arange(26)))
    assert msg.shape == (26,) and type(corrected) is int and type(failure) is bool


def test_symbol_bit_roundtrip():
    syms = RNG.integers(0, 32, size=(7, 31))
    assert np.array_equal(bits_to_symbols(symbols_to_bits(syms)), syms)


def test_packing_msb_first():
    assert np.array_equal(symbols_to_bits(np.array([0b10011])),
                          np.array([1, 0, 0, 1, 1]))


# ---------------------------------------------------------------------------
# table-driven kernels against the arithmetic forms they replaced
# ---------------------------------------------------------------------------

def _poly_mod_gf2(num: int, den: int) -> int:
    while num.bit_length() >= den.bit_length():
        num ^= den << (num.bit_length() - den.bit_length())
    return num


# rows: remainder of x^(4+i) mod g(x) = x^4 + x + 1, bit j of the remainder
_REF_HAMMING_PARITY = np.array(
    [[(_poly_mod_gf2(1 << (4 + i), 0b10011) >> j) & 1 for j in range(4)]
     for i in range(11)], dtype=np.int64)
_REF_HAMMING_POS = np.full(16, -1, dtype=np.int64)
for _p in range(15):
    _REF_HAMMING_POS[_poly_mod_gf2(1 << _p, 0b10011)] = _p


def ref_hamming_encode(msg: np.ndarray) -> np.ndarray:
    """Generator-matrix encoder in int64 arithmetic."""
    msg = np.asarray(msg, dtype=np.int64)
    return np.concatenate([(msg @ _REF_HAMMING_PARITY) % 2, msg], axis=1)


def ref_hamming_decode(word: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int64 syndrome decoder: recompute parity, look the syndrome's error
    position up, flip it.  Returns (msg, corrected)."""
    word = np.asarray(word, dtype=np.int64)
    syn_bits = ((word[:, 4:] @ _REF_HAMMING_PARITY) % 2) ^ word[:, :4]
    syn = syn_bits @ (1 << np.arange(4))
    fixed = word.copy()
    rows = np.nonzero(syn)[0]
    fixed[rows, _REF_HAMMING_POS[syn[rows]]] ^= 1
    return fixed[:, 4:], (syn != 0).astype(np.int64)


def ref_rs_encode(msg: np.ndarray) -> np.ndarray:
    """Masked long division of x^5 m(x) by g(x), vectorised over blocks."""
    msg = np.asarray(msg, dtype=np.int64)
    g = rs_generator_poly()
    rem = np.zeros((msg.shape[0], 31), dtype=np.int64)
    rem[:, 5:] = msg
    for k in range(30, 4, -1):
        lead = rem[:, k].copy()
        nz = lead != 0
        rem[nz, k - 5:k + 1] ^= gf_mul(lead[nz, None], g)
    return np.concatenate([rem[:, :5], msg], axis=1)


def ref_rs_syndromes(word: np.ndarray) -> np.ndarray:
    """Horner evaluation of S_i = r(a^i), i = 1..5."""
    acc = np.zeros((word.shape[0], 5), dtype=np.int64)
    alphas = np.array([gf_pow(2, i) for i in range(1, 6)])
    for k in range(30, -1, -1):
        acc = gf_mul(acc, alphas) ^ word[:, k:k + 1]
    return acc


def bounded_distance_oracle(words: np.ndarray):
    """Reference RS decode by syndrome table: the syndrome of every error
    pattern of weight 1 or 2, from Horner evaluation, keyed by its five
    packed fields.  Minimum distance 6 makes the keys distinct.  A word
    whose syndrome is in the table is corrected by its pattern; any other
    word with a nonzero syndrome fails and passes through raw.
    Returns (msg, corrected, failure) as rs_decode does."""
    pos, val = np.divmod(np.arange(31 * 31), 31)
    val = val + 1
    unit = np.zeros((31 * 31, 31), dtype=np.int64)
    unit[np.arange(31 * 31), pos] = val
    pack = 1 << (5 * np.arange(5))
    unit_keys = ref_rs_syndromes(unit) @ pack
    a, b = np.nonzero(pos[:, None] < pos[None, :])   # weight-2: two units
    keys = np.concatenate([unit_keys, unit_keys[a] ^ unit_keys[b]])
    p1, v1 = np.concatenate([pos, pos[a]]), np.concatenate([val, val[a]])
    p2 = np.concatenate([pos, pos[b]])
    v2 = np.concatenate([np.zeros_like(val), val[b]])
    order = np.argsort(keys)
    sorted_keys = keys[order]
    # 447,826 distinct nonzero keys: no two patterns share a syndrome
    assert len(keys) == 31 * 31 + 465 * 31 * 31
    assert (np.diff(sorted_keys, prepend=0) > 0).all()

    word_keys = ref_rs_syndromes(words) @ pack
    i = order[np.minimum(np.searchsorted(sorted_keys, word_keys), len(keys) - 1)]
    found = keys[i] == word_keys
    fixed = words.copy()
    rows = np.nonzero(found)[0]
    fixed[rows, p1[i[rows]]] ^= v1[i[rows]]
    fixed[rows, p2[i[rows]]] ^= v2[i[rows]]
    corrected = np.where(found, 1 + (v2[i] != 0), 0)
    return fixed[:, 5:], corrected, (word_keys != 0) & ~found


def test_rs_decode_matches_bounded_distance_oracle():
    """Heavy error patterns and random words: every word within two symbols
    of a codeword (a miscorrection, from weight 4 on) is decoded to it, and
    every other word fails."""
    rng = np.random.default_rng(0x5EED)
    batches = [rng.integers(0, 32, size=(20_000, 31)),
               np.zeros((0, 31), dtype=np.int64)]
    for weight in (3, 4, 5, 6, 31):
        words = rs_encode(rng.integers(0, 32, size=(20_000, 26)))
        pos = np.argsort(rng.random((20_000, 31)), axis=1)[:, :weight]
        words[np.arange(20_000)[:, None], pos] ^= rng.integers(
            1, 32, size=(20_000, weight))
        batches.append(words)
    accepted = 0
    for words in batches:
        expected = bounded_distance_oracle(words)
        # the message keeps the word's dtype; the counts are int64
        for dtype in (np.int64, np.uint8):
            got = rs_decode(words.astype(dtype))
            for x, y in zip(got, expected):
                assert np.array_equal(x, y)
            assert got[0].dtype == dtype and got[1].dtype == np.int64
            assert got[2].dtype == bool
        accepted += int(np.count_nonzero(got[1]))
    assert accepted > 0


def all_words_15() -> np.ndarray:
    vals = np.arange(1 << 15)
    return ((vals[:, None] >> np.arange(15)) & 1).astype(np.uint8)


def test_hamming_encode_matches_matrix_form_exhaustive():
    msgs = all_messages_11()
    words = hamming_encode(msgs)
    assert words.dtype == np.uint8
    assert np.array_equal(words, ref_hamming_encode(msgs))
    assert np.array_equal(hamming_encode(msgs[5]), words[5])


def test_hamming_decode_matches_syndrome_form_exhaustive():
    """All 2^15 received words, codewords or not."""
    words = all_words_15()
    msg, corrected = hamming_decode(words)
    ref_msg, ref_corrected = ref_hamming_decode(words)
    assert msg.dtype == np.uint8 and corrected.dtype == np.int64
    assert np.array_equal(msg, ref_msg)
    assert np.array_equal(corrected, ref_corrected)
    # int64 input and the single-word form take the same path
    assert np.array_equal(hamming_decode(words.astype(np.int64))[0], msg)
    one = hamming_decode(words[12345])
    assert np.array_equal(one[0], msg[12345]) and one[1] == corrected[12345]


def unit_messages_26() -> np.ndarray:
    """Every v * x^j, v in 1..31, j in 0..25: a spanning set of the code."""
    msgs = np.zeros((31 * 26, 26), dtype=np.int64)
    j, v = np.divmod(np.arange(31 * 26), 31)
    msgs[np.arange(31 * 26), j] = v + 1
    return msgs


def test_rs_encode_matches_division_and_lfsr():
    units = unit_messages_26()
    words = rs_encode(units)
    assert words.dtype == np.int64
    assert np.array_equal(words, ref_rs_encode(units))
    # a uint8 message gives the same codeword in uint8
    words_u8 = rs_encode(units.astype(np.uint8))
    assert words_u8.dtype == np.uint8 and np.array_equal(words_u8, words)
    for msg, word in zip(units, words):
        assert np.array_equal(rs_encode_lfsr(msg), word)
    msgs = RNG.integers(0, 32, size=(10_000, 26))
    words = rs_encode(msgs)
    assert np.array_equal(words, ref_rs_encode(msgs))
    for msg, word in zip(msgs, words):
        assert np.array_equal(rs_encode_lfsr(msg), word)


@pytest.mark.parametrize("n_errors", [0, 1, 2, 3])
def test_rs_syndromes_match_horner(n_errors):
    trials = 3_000
    words = rs_encode(RNG.integers(0, 32, size=(trials, 26)))
    rows = np.arange(trials)
    pos = np.argsort(RNG.random((trials, 31)), axis=1)[:, :n_errors]
    for k in range(n_errors):
        words[rows, pos[:, k]] ^= RNG.integers(1, 32, size=trials)
    syn = fec._rs_syndromes(words)
    assert np.array_equal(syn, ref_rs_syndromes(words))
    assert np.array_equal(fec._rs_syndromes(words.astype(np.uint8)), syn)
    assert (syn.any(axis=1) == (n_errors > 0)).all()


def test_symbol_packing_matches_arithmetic_form():
    """Bits are uint8 from symbols of either dtype; symbols take the bits'
    dtype."""
    syms = RNG.integers(0, 32, size=(50, 31))
    bits = symbols_to_bits(syms)
    ref = ((syms[..., None] >> np.arange(4, -1, -1)) & 1).reshape(50, 155)
    assert bits.dtype == np.uint8 and np.array_equal(bits, ref)
    bits_u8 = symbols_to_bits(syms.astype(np.uint8))
    assert bits_u8.dtype == np.uint8 and np.array_equal(bits_u8, ref)
    for dtype in (np.uint8, np.int64):
        back = bits_to_symbols(bits.astype(dtype))
        assert back.dtype == dtype and np.array_equal(back, syms)

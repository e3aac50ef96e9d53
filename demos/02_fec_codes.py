"""Error-correction walkthrough: the two shift-register-friendly block codes
the mote can afford to encode.

Hamming(15,11) corrects one bit per block; RS(31,26) over GF(32) corrects
two symbols (up to ten consecutive bits) per block.  Encoding is all the
implant does — both codecs also expose the serial LFSR encoder form the
hardware would use, and the demo shows it matches the matrix/polynomial
form bit for bit.
"""

import numpy as np

from biomote import fec
from biomote.phy import CodeScheme

rng = np.random.default_rng(7)

print("=== Hamming(15,11) ===")
msg = rng.integers(0, 2, size=11)
word = fec.hamming_encode(msg)
print(f"message  {''.join(map(str, msg))}")
print(f"codeword {''.join(map(str, word))}  (parity in the first 4 bits)")
print(f"LFSR encoder agrees: {np.array_equal(word, fec.hamming_encode_lfsr(msg))}")

corrupted = word.copy()
corrupted[9] ^= 1
decoded, corrected = fec.hamming_decode(corrupted)
print(f"flip bit 9 -> decoder fixes {corrected} bit, message intact: "
      f"{np.array_equal(decoded, msg)}")

two = word.copy()
two[2] ^= 1
two[11] ^= 1
decoded2, corrected2 = fec.hamming_decode(two)
print(f"two flips exceed the single-error budget: decoder reports "
      f"corrected={corrected2} and returns a wrong block "
      f"(recovered={np.array_equal(decoded2, msg)}) — rate 11/15 = "
      f"{CodeScheme.HAMMING_15_11.rate:.3f}")

print("\n=== Reed-Solomon(31,26) over GF(32) ===")
msg_syms = rng.integers(0, 32, size=26)
cw = fec.rs_encode(msg_syms)
print(f"26 message symbols -> 31-symbol codeword, rate {CodeScheme.RS_31_26.rate:.4f}")
print(f"LFSR encoder agrees: {np.array_equal(cw, fec.rs_encode_lfsr(msg_syms))}")
print(f"generator polynomial coefficients: {list(map(int, fec.rs_generator_poly()))}")

hit = cw.copy()
hit[3] ^= 21
hit[17] ^= 9
out, corrected, failure = fec.rs_decode(hit)
print(f"two symbol errors -> corrected={corrected}, failure={failure}, "
      f"message intact: {np.array_equal(out, msg_syms)}")

three = cw.copy()
for pos, val in ((1, 5), (8, 30), (22, 11)):
    three[pos] ^= val
out3, corrected3, failure3 = fec.rs_decode(three)
print(f"three symbol errors exceed t=2: failure flag = {failure3} "
      f"(the decoder never silently fakes a correction)")

bits = fec.symbols_to_bits(cw)
print(f"\npacking: 31 symbols x 5 bits = {bits.size} channel bits, "
      f"round trip ok: {np.array_equal(fec.bits_to_symbols(bits), cw)}")

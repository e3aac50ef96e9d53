"""Bit-error-rate studies: Monte Carlo against the Q-function, then the
full link chain — how each modulation/coding pair degrades with distance.

Writes ber_curves.csv next to the script with the distance sweep, the
rows of one ``ber_sweep`` call in the columns of ``biomote ber-sweep``.
"""

import csv
from pathlib import Path

from biomote.link import reference_link_config
from biomote.phy import (
    BER_CURVES,
    BerRow,
    CodeScheme,
    Modulation,
    PhyConfig,
    ber_monte_carlo,
    ber_sweep,
    ber_theory,
    ebn0_to_channel_snr,
)

print("=== Monte Carlo vs closed form (uncoded, AWGN) ===")
print("Eb/N0 dB   BPSK theory   BPSK sim      ASK theory    ASK sim")
for ebn0 in (0.0, 2.0, 4.0, 6.0, 8.0):
    row = [f"{ebn0:6.1f}"]
    for scheme in (Modulation.BPSK, Modulation.ASK):
        cfg = PhyConfig(modulation=scheme, trials=200_000, min_errors=100,
                        seed=11 + int(ebn0))
        est = ber_monte_carlo(cfg, ebn0_to_channel_snr(ebn0))
        row.append(f"{ber_theory(scheme, ebn0):12.3e} {est.ber:12.3e}")
    print("  ".join(row))
print("The on-off scheme runs 3 dB behind antipodal signalling at equal "
      "average power, exactly as the closed form says.")

print("\n=== BER vs distance through the inductive link ===")
link = reference_link_config()
noise_dbm = -105.0                  # receiver noise floor
distances = [0.045, 0.05, 0.055, 0.06, 0.065, 0.07]
rows = ber_sweep(link, noise_dbm, distances, trials=150_000, min_errors=100,
                 max_bits=2_000_000, seed=100)
names = [f"{mod.value}+{code.value}" if code is not CodeScheme.NONE else mod.value
         for mod, code in BER_CURVES]

print("cm    " + "".join(f"{name:>18}" for name in names))
for i, d in enumerate(distances):
    cells = "".join(f"{row.ber:18.3e}" for row in rows[i::len(distances)])
    print(f"{d*100:4.1f}  {cells}")
print("Inside ~5.5 cm the coded links are effectively error-free; past "
      "6 cm every combination is above 1e-2 and the link is gone.  The "
      "usable band for a 1e-3 target sits between 5 and 6 cm.")

out = Path(__file__).parent / "ber_curves.csv"
with out.open("w", newline="") as fh:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(BerRow._fields)
    writer.writerows(rows)
print(f"\nwrote {out}")

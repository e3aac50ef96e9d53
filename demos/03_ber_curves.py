"""Bit-error-rate studies: Monte Carlo against the Q-function, then the
full link chain — how each modulation/coding pair degrades with distance.

Writes ber_curves.csv next to the script with the distance sweep, one
``ber_vs_distance`` row per line, in the columns of ``biomote ber-sweep``.
"""

import csv
from pathlib import Path

from biomote.link import NoiseModel, reference_link_config
from biomote.phy import (
    CodeScheme,
    Modulation,
    PhyConfig,
    ber_monte_carlo,
    ber_theory,
    ber_vs_distance,
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
noise = NoiseModel.from_total_dbm(-105.0)
distances = [0.045, 0.05, 0.055, 0.06, 0.065, 0.07]
schemes = [
    ("ask", Modulation.ASK, CodeScheme.NONE),
    ("bpsk", Modulation.BPSK, CodeScheme.NONE),
    ("bpsk+hamming", Modulation.BPSK, CodeScheme.HAMMING_15_11),
    ("bpsk+rs", Modulation.BPSK, CodeScheme.RS_31_26),
]
curves = {}
for k, (name, mod, code) in enumerate(schemes):
    cfg = PhyConfig(modulation=mod, code=code, trials=150_000, min_errors=100,
                    max_bits=2_000_000, seed=100 + k)
    curves[name] = list(ber_vs_distance(link, noise, cfg, distances))

header = "cm    " + "".join(f"{name:>14}" for name, *_ in schemes)
print(header)
for i, d in enumerate(distances):
    cells = "".join(f"{curves[name][i][3]:14.3e}" for name, *_ in schemes)
    print(f"{d*100:4.1f}  {cells}")
print("Inside ~5.5 cm the coded links are effectively error-free; past "
      "6 cm every combination is above 1e-2 and the link is gone.  The "
      "usable band for a 1e-3 target sits between 5 and 6 cm.")

out = Path(__file__).parent / "ber_curves.csv"
with out.open("w", newline="") as fh:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["distance_m", "scheme", "code", "ber", "bits"])
    for name, *_ in schemes:
        writer.writerows(curves[name])
print(f"\nwrote {out}")

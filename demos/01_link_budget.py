"""Tour of the inductive link budget.

Walks the reference reader/mote pair through the operating points of the
design study: coil parasitics vs frequency, the ferrite-loading knob, and
the backscatter power the reader actually sees as the implant moves away.
"""

from biomote.link import (
    ac_resistance,
    backscatter_sweep,
    mutual_inductance,
    reference_link_config,
    self_inductance,
    skin_depth,
    table1_sweep,
)

noise_dbm = -105.0                  # receiver noise floor

print("=== Coil parasitics ===")
cfg = reference_link_config()
for f in (1e6, 13.56e6, 100e6):
    d_cu = skin_depth(f, cfg.reader.resistivity) * 1e6
    print(f"f = {f/1e6:6.2f} MHz: copper skin depth {d_cu:6.1f} um, "
          f"R_reader = {ac_resistance(cfg.reader, f):6.3f} ohm, "
          f"R_mote = {ac_resistance(cfg.mote, f):6.4f} ohm")
print(f"L_reader = {self_inductance(cfg.reader)*1e3:.3f} mH, "
      f"L_mote = {self_inductance(cfg.mote)*1e9:.1f} nH, "
      f"M(6 cm) = {mutual_inductance(cfg.reader, cfg.mote, 0.06)*1e12:.2f} pH")

print("\n=== Operating table: carrier and core loading ===")
print("fc MHz   mu   P_tx dBm   PL dB    A_s dB   P_re dBm")
for row in table1_sweep(reference_link_config(), noise_dbm):
    print(f"{row.fc_mhz:6.2f}  {row.mu:4.0f}   {row.p_tx_dbm:8.2f} {row.pl_db:8.2f} "
          f"{row.a_s_db:8.2f} {row.p_re_dbm:10.2f}")
print("Higher carrier lowers the path loss; ferrite loading (mu) lowers it "
      "further but sharpens the tank, so the subcarrier sideband pays more "
      "attenuation — the budget balances the two.")

print("\n=== Range: backscatter power vs separation (13.56 MHz, mu = 1) ===")
rows = backscatter_sweep(reference_link_config(), noise_dbm,
                         [0.01 + 0.005 * k for k in range(14)])
prev = 0.0
for d, p_re, snr in rows:
    marker = " <- detection floor -100 dBm" if p_re <= -100 < prev else ""
    print(f"r = {d*100:5.1f} cm: P_re = {p_re:8.2f} dBm, SNR = {snr:6.2f} dB{marker}")
    prev = p_re
print("The returned sideband crosses a -100 dBm reader sensitivity a little "
      "before 6 cm; that boundary is what sizes the interrogation zone.")

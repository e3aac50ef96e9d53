"""Inductive link between an external reader coil and an implanted mote coil.

Both sides are series-resonant loops: coil resistance R (skin effect
included), self inductance L, and a tuning capacitor chosen analytically so
each tank resonates at the carrier, C = 1 / ((2 pi f_c)^2 L).  The coupled
pair is treated with the standard transformed-impedance model: the mote
appears at the reader as Z_br = (w M)^2 / (Z_b + Z_L), and the reader at the
mote as Z_rb = (w M)^2 / Z_r.

The backscatter budget at the carrier is

    P_t  = Re{ V_r^2 / (Z_br + Z_r) }                 drive power
    P_r  = Re{ Z_L V_rb^2 / (Z_rb + Z_b + Z_L)^2 }    power caught by the mote
    PL   = 10 log10(P_t / P_r)                        one-way path loss
    A_s  = 10 log10(1 + (2 Q f_s / f_c)^2)            sideband attenuation
    P_re = P_tx(dBm) - 2 PL - A_s                     returned sideband power

with Q the unloaded series quality factor of the reader tank and
f_s = f_c / 2^n the load-switching subcarrier.  The sideband sits f_s away
from resonance and pays the tank's second-order selectivity once; the path
loss is paid in both directions.

All computation is SI; dB/dBm appear only in the reported budget and in
the receiver noise floor, which a caller gives as one total in dBm.
"""

from __future__ import annotations

import cmath
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, replace

from biomote._checks import axes, count, fields, finite, positive

__all__ = [
    "MU0", "Coil", "LinkConfig", "MAX_SUBCARRIER_DIVIDER", "LinkBudget",
    "SingularityError",
    "skin_depth", "ac_resistance", "self_inductance", "mutual_inductance",
    "resonance_capacitance", "reflected_impedance", "link_budget",
    "check_distances", "SweepRow", "backscatter_sweep",
    "TABLE1_CARRIERS", "Table1Row", "table1_sweep",
    "REFERENCE_READER", "REFERENCE_MOTE", "reference_link_config",
]

MU0 = 4.0e-7 * math.pi          # vacuum permeability [H/m]

MOTE_MAX_DIAMETER = 250e-6      # implant envelope: diameter and height caps
MOTE_MAX_HEIGHT = 250e-6


class SingularityError(ArithmeticError):
    """Raised when the coupled-circuit denominators vanish (lossless short)."""


# ---------------------------------------------------------------------------
# coils
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Coil:
    """One antenna coil, reader or mote.

    ``core_rel_permeability`` scales the self inductance (ferrite core);
    the wire itself is assumed non-magnetic, so skin depth uses mu_r = 1.
    """

    turns: int
    loop_radius: float          # [m]
    wire_diameter: float        # [m]
    coil_height: float          # [m]
    resistivity: float          # [ohm m]
    core_rel_permeability: float = 1.0

    def __post_init__(self):
        fields(self, count, "turns")
        fields(self, positive, "loop_radius", "wire_diameter", "coil_height",
               "resistivity", "core_rel_permeability")

    @property
    def wire_length(self) -> float:
        """Total wound wire length, turns x circumference [m]."""
        return self.turns * 2.0 * math.pi * self.loop_radius


def skin_depth(freq: float, resistivity: float) -> float:
    """Skin depth delta = sqrt(rho / (pi f mu0)) [m] of a non-magnetic wire."""
    positive("freq", freq)
    positive("resistivity", resistivity)
    return math.sqrt(resistivity / (math.pi * freq * MU0))


def ac_resistance(coil: Coil, freq: float) -> float:
    """Coil series resistance at ``freq``, with skin effect.

    Below the crossover (delta >= d/2) the full cross-section conducts and
    R is the DC value; above it the current is confined to a surface
    annulus of depth delta, area pi (d delta - delta^2).  The two branches
    meet continuously at delta = d/2.  0 Hz is the DC case; any other
    ``freq`` must be finite and positive (:func:`skin_depth` checks it).
    """
    d = coil.wire_diameter
    full_area = math.pi * (d / 2.0) ** 2
    if freq == 0:
        area = full_area
    else:
        delta = skin_depth(freq, coil.resistivity)
        area = full_area if delta >= d / 2.0 else math.pi * (d * delta - delta * delta)
    return coil.resistivity * coil.wire_length / area


def self_inductance(coil: Coil) -> float:
    """Current-sheet (Wheeler) short-solenoid inductance
    L = mu0 mur N^2 pi a^2 / (h + 0.9 a) [H]."""
    return (MU0 * coil.core_rel_permeability * coil.turns ** 2
            * math.pi * coil.loop_radius ** 2
            / (coil.coil_height + 0.9 * coil.loop_radius))


def mutual_inductance(reader: Coil, mote: Coil, separation: float,
                      medium_mu: float = 1.0) -> float:
    """Coaxial magnetic-dipole mutual inductance [H].

    M = mu0 mu_med pi N1 N2 a1^2 a2^2 / (2 (a1^2 + a2^2 + r^2)^(3/2))

    The kernel keeps both radii so the function is exactly reciprocal under
    swapping the coils; with one radius much smaller than the other it
    reduces to the usual on-axis dipole form.  Valid for coaxial alignment.
    """
    positive("separation", separation)
    positive("medium_mu", medium_mu)
    a1, a2 = reader.loop_radius, mote.loop_radius
    return (MU0 * medium_mu * math.pi * reader.turns * mote.turns
            * a1 ** 2 * a2 ** 2
            / (2.0 * (a1 ** 2 + a2 ** 2 + separation ** 2) ** 1.5))


def resonance_capacitance(inductance: float, freq: float) -> float:
    """Tuning capacitance C = 1 / ((2 pi f)^2 L) [F]."""
    return 1.0 / ((2.0 * math.pi * freq) ** 2 * inductance)


# ---------------------------------------------------------------------------
# link configuration
# ---------------------------------------------------------------------------

#: longest subcarrier divider register, in bits
MAX_SUBCARRIER_DIVIDER = 64


@dataclass(frozen=True)
class LinkConfig:
    """A reader/mote coil pair plus drive and tuning parameters.

    ``mote`` must fit the implant envelope, 250 um in diameter and in
    height.  ``load_impedance`` is the mote's load, a finite complex value;
    ``None`` selects a resistive load matched to the mote coil resistance
    at the carrier (the maximum backscatter operating point).  Subcarrier
    f_s = f_c / 2^n with n the divider register length.
    """

    reader: Coil
    mote: Coil
    separation: float                   # [m]
    drive_voltage: float                # [V]
    resonance_freq: float               # [Hz]
    subcarrier_divider: int             # n; f_s = f_c / 2^n
    load_impedance: complex | None = None
    medium_rel_permeability: float = 1.0

    def __post_init__(self):
        for name in ("reader", "mote"):
            if not isinstance(getattr(self, name), Coil):
                raise ValueError(f"{name} must be a Coil, not {getattr(self, name)!r}")
        if 2 * self.mote.loop_radius > MOTE_MAX_DIAMETER:
            raise ValueError("mote coil diameter exceeds 250 um envelope")
        if self.mote.coil_height > MOTE_MAX_HEIGHT:
            raise ValueError("mote coil height exceeds 250 um envelope")
        fields(self, positive, "separation", "drive_voltage", "resonance_freq",
               "medium_rel_permeability")
        load = self.load_impedance
        if load is not None and not (isinstance(load, numbers.Complex) and cmath.isfinite(load)):
            raise ValueError(f"load_impedance must be None or a finite complex number, "
                             f"not {load!r}")
        fields(self, count, "subcarrier_divider")
        # 2^n is an exact int, so an unbounded n would build an unbounded one
        if self.subcarrier_divider > MAX_SUBCARRIER_DIVIDER:
            raise ValueError(f"subcarrier_divider must be at most {MAX_SUBCARRIER_DIVIDER}")
        contact = (self.reader.wire_diameter + self.mote.wire_diameter) / 2.0
        if self.separation <= contact:
            raise ValueError(
                f"separation {self.separation} m is inside the coil contact "
                f"distance {contact:.3g} m")

    @property
    def subcarrier_freq(self) -> float:
        return self.resonance_freq / 2 ** self.subcarrier_divider

    def coil_impedance(self, coil: Coil, freq: float) -> complex:
        """Series tank impedance R + jwL + 1/(jwC) with C tuned at f_c."""
        r = ac_resistance(coil, freq)
        ind = self_inductance(coil)
        cap = resonance_capacitance(ind, self.resonance_freq)
        w = 2.0 * math.pi * freq
        return complex(r, w * ind - 1.0 / (w * cap))

    def effective_load(self) -> complex:
        """The mote's load, or the matched load when it is None."""
        if self.load_impedance is None:
            return complex(ac_resistance(self.mote, self.resonance_freq), 0.0)
        return complex(self.load_impedance)

    def mutual(self) -> float:
        return mutual_inductance(self.reader, self.mote, self.separation,
                                 self.medium_rel_permeability)


@dataclass(frozen=True)
class LinkBudget:
    """Computed budget at the carrier; powers in dBm, losses in dB."""

    p_tx_dbm: float
    p_re_dbm: float
    path_loss_db: float
    sideband_attenuation_db: float
    quality_factor: float
    reader_resistance: float
    mote_resistance: float
    snr_db: float


# ---------------------------------------------------------------------------
# coupled-circuit quantities
# ---------------------------------------------------------------------------

def reflected_impedance(config: LinkConfig, freq: float) -> complex:
    """Mote impedance transformed into the reader loop:
    Z_br = (w M)^2 / (Z_b + Z_L)."""
    zb = config.coil_impedance(config.mote, freq)
    zl = config.effective_load()
    den = zb + zl
    if den == 0:
        raise SingularityError("mote loop is a lossless short at this frequency")
    w = 2.0 * math.pi * freq
    return (w * config.mutual()) ** 2 / den


def link_budget(config: LinkConfig, noise_dbm: float) -> LinkBudget:
    """Evaluate the full backscatter budget at the carrier against a
    receiver noise floor of ``noise_dbm`` in total, which must be finite."""
    finite("noise_dbm", noise_dbm)
    fc = config.resonance_freq
    w = 2.0 * math.pi * fc
    zr = config.coil_impedance(config.reader, fc)
    zb = config.coil_impedance(config.mote, fc)
    zl = config.effective_load()
    m = config.mutual()

    zbr = reflected_impedance(config, fc)
    if zr + zbr == 0:
        raise SingularityError("reader loop is a lossless short at resonance")
    zrb = (w * m) ** 2 / zr

    v = config.drive_voltage
    i_r = v / (zbr + zr)
    p_t = (v * v / (zbr + zr)).real
    v_rb = w * m * abs(i_r)
    den = zrb + zb + zl
    if den == 0:
        raise SingularityError("mote loop is a lossless short at resonance")
    p_r = zl.real * v_rb ** 2 / abs(den) ** 2
    if p_r <= 0:
        raise SingularityError("no real power reaches the mote load")

    path_loss = 10.0 * math.log10(p_t / p_r)
    r_r = zr.real
    q = w * self_inductance(config.reader) / r_r
    x = 2.0 * q * config.subcarrier_freq / fc
    a_s = 10.0 * math.log10(1.0 + x * x)
    p_tx_dbm = 10.0 * math.log10(p_t / 1e-3)
    p_re_dbm = p_tx_dbm - 2.0 * path_loss - a_s
    return LinkBudget(
        p_tx_dbm=p_tx_dbm,
        p_re_dbm=p_re_dbm,
        path_loss_db=path_loss,
        sideband_attenuation_db=a_s,
        quality_factor=q,
        reader_resistance=r_r,
        mote_resistance=zb.real,
        snr_db=p_re_dbm - noise_dbm,
    )


def check_distances(distances) -> list[float]:
    """``distances`` as a list, which must be non-empty and strictly
    ascending; every separation sweep takes its grid through here."""
    [distances] = axes(distances)
    if any(b <= a for a, b in zip(distances, distances[1:])):
        raise ValueError("distances must be strictly ascending")
    return distances


#: one row of :func:`backscatter_sweep`; the field names are its CSV columns
SweepRow = namedtuple("SweepRow", "distance_m p_re_dbm snr_db")


def backscatter_sweep(config: LinkConfig, noise_dbm: float,
                      distances) -> list[SweepRow]:
    """Budget per separation, one :class:`SweepRow` each.

    ``distances`` must be a non-empty ascending sequence.
    """
    out = []
    for d in check_distances(distances):
        b = link_budget(replace(config, separation=d), noise_dbm)
        out.append(SweepRow(d, b.p_re_dbm, b.snr_db))
    return out


#: carriers of the reference operating table: (f_c Hz, mu values, divider)
TABLE1_CARRIERS = [
    (1e6, (1.0, 10.0, 50.0), 4),
    (13.56e6, (1.0, 10.0), 6),
    (100e6, (1.0,), 7),
]

#: one row of :func:`table1_sweep`; the field names are its CSV columns
Table1Row = namedtuple("Table1Row",
                       "fc_mhz mu r_r_ohm r_b_ohm p_tx_dbm pl_db a_s_db p_re_dbm")


def table1_sweep(config: LinkConfig, noise_dbm: float) -> list[Table1Row]:
    """The operating table: the budget of ``config`` at each carrier and
    divider of :data:`TABLE1_CARRIERS`, ferrite-loaded with each of its mu
    values, one :class:`Table1Row` each."""
    rows = []
    for fc, mus, divider in TABLE1_CARRIERS:
        carrier = replace(config, resonance_freq=fc, subcarrier_divider=divider)
        for mu in mus:
            b = link_budget(_ferrite(carrier, mu), noise_dbm)
            rows.append(Table1Row(fc / 1e6, mu, b.reader_resistance, b.mote_resistance,
                                  b.p_tx_dbm, b.path_loss_db,
                                  b.sideband_attenuation_db, b.p_re_dbm))
    return rows


# ---------------------------------------------------------------------------
# reference geometry
# ---------------------------------------------------------------------------
# Copper reader, gold mote.  Radii: reader 5 cm; mote at the 250 um implant
# diameter envelope.  Turn counts and wire diameters were fitted once (see
# demos/fit_reference_geometry.py) so that ac_resistance lands within the
# regression bands at 1, 13.56 and 100 MHz and the resulting budgets
# reproduce the reference backscatter powers; heights keep the closed-form
# L and M within 5% of the filament-loop oracles.

COPPER_RESISTIVITY = 1.68e-8
GOLD_RESISTIVITY = 2.44e-8

REFERENCE_READER = Coil(
    turns=81,
    loop_radius=0.05,
    wire_diameter=470e-6,
    coil_height=0.030,
    resistivity=COPPER_RESISTIVITY,
)

REFERENCE_MOTE = Coil(
    turns=38,
    loop_radius=125e-6,
    wire_diameter=38e-6,
    coil_height=50e-6,
    resistivity=GOLD_RESISTIVITY,
)

REFERENCE_DRIVE_VOLTAGE = 3.8       # handset-class reader drive


def _ferrite(config: LinkConfig, mu: float) -> LinkConfig:
    """``config`` as a ferrite-loaded design of relative permeability
    ``mu``: the same material fills both coil cores and the medium seen by
    the coupling, so it multiplies M, L_r and L_b together."""
    return replace(config, reader=replace(config.reader, core_rel_permeability=mu),
                   mote=replace(config.mote, core_rel_permeability=mu),
                   medium_rel_permeability=mu)


def reference_link_config(resonance_freq: float = 13.56e6,
                          subcarrier_divider: int = 6,
                          separation: float = 0.06,
                          mu: float = 1.0) -> LinkConfig:
    """Reference pair at the given carrier, ferrite-loaded with ``mu``."""
    return _ferrite(LinkConfig(
        reader=REFERENCE_READER,
        mote=REFERENCE_MOTE,
        separation=separation,
        drive_voltage=REFERENCE_DRIVE_VOLTAGE,
        resonance_freq=resonance_freq,
        subcarrier_divider=subcarrier_divider,
    ), mu)

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

All computation is SI; dB/dBm appear only in the reported budget.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

__all__ = [
    "MU0", "K_BOLTZMANN",
    "Coil", "LinkConfig", "LinkBudget", "NoiseModel", "SingularityError",
    "skin_depth", "ac_resistance", "self_inductance", "mutual_inductance",
    "resonance_capacitance", "reflected_impedance", "link_budget",
    "check_distances", "backscatter_sweep",
    "REFERENCE_READER", "REFERENCE_MOTE", "reference_link_config",
]

MU0 = 4.0e-7 * math.pi          # vacuum permeability [H/m]
K_BOLTZMANN = 1.380649e-23      # Boltzmann constant [J/K]

MOTE_MAX_DIAMETER = 250e-6      # implant envelope: diameter and height caps
MOTE_MAX_HEIGHT = 250e-6


class SingularityError(ArithmeticError):
    """Raised when the coupled-circuit denominators vanish (lossless short)."""


def _check_positive(obj, *names: str) -> None:
    """Reject an attribute of ``obj`` that is nan, infinite or not above 0."""
    for name in names:
        value = getattr(obj, name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and strictly positive")


def _check_finite(obj, *names: str) -> None:
    """Reject an attribute of ``obj`` that is nan or infinite; None passes."""
    for name in names:
        value = getattr(obj, name)
        if value is not None and not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite")


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
    is_mote: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.turns) and self.turns >= 1):
            raise ValueError("turns must be finite and >= 1")
        _check_positive(self, "loop_radius", "wire_diameter", "coil_height",
                        "resistivity", "core_rel_permeability")
        if self.is_mote:
            if 2 * self.loop_radius > MOTE_MAX_DIAMETER:
                raise ValueError("mote coil diameter exceeds 250 um envelope")
            if self.coil_height > MOTE_MAX_HEIGHT:
                raise ValueError("mote coil height exceeds 250 um envelope")

    @property
    def wire_length(self) -> float:
        """Total wound wire length, turns x circumference [m]."""
        return self.turns * 2.0 * math.pi * self.loop_radius


def skin_depth(freq: float, resistivity: float, rel_permeability: float = 1.0) -> float:
    """Skin depth delta = sqrt(rho / (pi f mu0 mur)) [m]."""
    if freq <= 0 or resistivity <= 0 or rel_permeability <= 0:
        raise ValueError("skin_depth arguments must be strictly positive")
    return math.sqrt(resistivity / (math.pi * freq * MU0 * rel_permeability))


def ac_resistance(coil: Coil, freq: float) -> float:
    """Coil series resistance at ``freq``, with skin effect.

    Below the crossover (delta >= d/2) the full cross-section conducts and
    R is the DC value; above it the current is confined to a surface
    annulus of depth delta, area pi (d delta - delta^2).  The two branches
    meet continuously at delta = d/2.
    """
    if freq < 0:
        raise ValueError("frequency must be non-negative")
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
    if separation <= 0:
        raise ValueError("separation must be strictly positive")
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

@dataclass(frozen=True)
class LinkConfig:
    """A reader/mote coil pair plus drive and tuning parameters.

    ``load_impedance`` is the mote's load; ``None`` selects a resistive
    load matched to the mote coil resistance at the carrier (the maximum
    backscatter operating point).  Subcarrier f_s = f_c / 2^n with n the
    divider register length.
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
        _check_positive(self, "separation", "drive_voltage", "resonance_freq",
                        "medium_rel_permeability")
        _check_finite(self, "load_impedance")
        contact = (self.reader.wire_diameter + self.mote.wire_diameter) / 2.0
        if self.separation <= contact:
            raise ValueError(
                f"separation {self.separation} m is inside the coil contact "
                f"distance {contact:.3g} m")
        if not self.subcarrier_divider >= 1:
            raise ValueError("subcarrier_divider must be >= 1")

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

    def matched_load(self) -> complex:
        return complex(ac_resistance(self.mote, self.resonance_freq), 0.0)

    def effective_load(self) -> complex:
        return self.matched_load() if self.load_impedance is None else complex(self.load_impedance)

    def mutual(self) -> float:
        return mutual_inductance(self.reader, self.mote, self.separation,
                                 self.medium_rel_permeability)


@dataclass(frozen=True)
class NoiseModel:
    """Receiver noise floor: thermal noise in ``bandwidth`` plus noise figure."""

    temperature: float = 290.0          # [K]
    bandwidth: float = 200e3            # [Hz]
    noise_figure: float = 15.0          # [dB]
    total_override_dbm: float | None = None

    def __post_init__(self):
        _check_positive(self, "temperature", "bandwidth")
        _check_finite(self, "noise_figure", "total_override_dbm")

    @property
    def total_dbm(self) -> float:
        if self.total_override_dbm is not None:
            return self.total_override_dbm
        p = K_BOLTZMANN * self.temperature * self.bandwidth
        return 10.0 * math.log10(p / 1e-3) + self.noise_figure

    @classmethod
    def from_total_dbm(cls, total: float) -> "NoiseModel":
        return cls(total_override_dbm=total)


@dataclass(frozen=True)
class LinkBudget:
    """Computed budget at the carrier; powers in dBm, losses in dB."""

    p_tx_dbm: float
    p_re_dbm: float
    path_loss_db: float
    sideband_attenuation_db: float
    quality_factor: float
    bandwidth_hz: float
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


def link_budget(config: LinkConfig, noise: NoiseModel) -> LinkBudget:
    """Evaluate the full backscatter budget at the carrier."""
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
        bandwidth_hz=fc / q,
        reader_resistance=r_r,
        mote_resistance=zb.real,
        snr_db=p_re_dbm - noise.total_dbm,
    )


def check_distances(distances) -> list[float]:
    """``distances`` as a list, which must be non-empty and strictly
    ascending; every separation sweep takes its grid through here."""
    distances = list(distances)
    if not distances:
        raise ValueError("distances must be non-empty")
    if any(b <= a for a, b in zip(distances, distances[1:])):
        raise ValueError("distances must be strictly ascending")
    return distances


def backscatter_sweep(config: LinkConfig, noise: NoiseModel,
                      distances) -> list[tuple[float, float, float]]:
    """Budget per separation: list of (distance m, P_re dBm, SNR dB).

    ``distances`` must be a non-empty ascending sequence.
    """
    out = []
    for d in check_distances(distances):
        b = link_budget(replace(config, separation=d), noise)
        out.append((d, b.p_re_dbm, b.snr_db))
    return out


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
    is_mote=True,
)

REFERENCE_DRIVE_VOLTAGE = 3.8       # handset-class reader drive


def reference_link_config(resonance_freq: float = 13.56e6,
                          subcarrier_divider: int = 6,
                          separation: float = 0.06,
                          mu: float = 1.0) -> LinkConfig:
    """Reference pair at the given carrier.

    ``mu`` models a ferrite-loaded design: it scales the medium seen by the
    coupling *and* both coil cores (the same material fills them), so it
    multiplies M, L_r and L_b together.
    """
    reader = replace(REFERENCE_READER, core_rel_permeability=mu)
    mote = replace(REFERENCE_MOTE, core_rel_permeability=mu)
    return LinkConfig(
        reader=reader,
        mote=mote,
        separation=separation,
        drive_voltage=REFERENCE_DRIVE_VOLTAGE,
        resonance_freq=resonance_freq,
        subcarrier_divider=subcarrier_divider,
        medium_rel_permeability=mu,
    )

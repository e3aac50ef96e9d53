"""Plain-text run configuration: ``key = value`` lines, ``#`` comments,
units encoded in key names.

Unknown keys, malformed lines and out-of-range values raise
:class:`ConfigError` carrying the offending line number.  An empty file
yields the shipped defaults (the reference geometry at the physical-layer
simulation point: 13.56 MHz, permeability 1, 6 cm separation, -105 dBm
noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from biomote.link import (
    Coil,
    LinkConfig,
    NoiseModel,
    REFERENCE_MOTE,
    REFERENCE_READER,
    REFERENCE_DRIVE_VOLTAGE,
)

__all__ = ["ConfigError", "RunParameters", "load_config", "default_parameters",
           "packaged_config_path"]


class ConfigError(ValueError):
    """Configuration problem; ``line`` is 1-based when tied to file text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_int(text: str) -> int:
    value = _parse_float(text)
    if not value.is_integer():
        raise ValueError("must be a whole number")
    return int(value)


#: most values one list may expand to; a longer grid is a typo, not a study
MAX_LIST_POINTS = 100_000


def _parse_float_list(text: str) -> list[float]:
    """Comma list, each item a number or an a:b:c inclusive range.

    Range points are a + i*c, rounded to 12 decimals, up to b with a
    tolerance of 1e-9 steps.  A list of more than :data:`MAX_LIST_POINTS`
    values is rejected before any point is built.
    """
    out: list[float] = []
    for item in text.split(","):
        item = item.strip()
        if ":" in item:
            a, b, c = (_parse_float(x) for x in item.split(":"))
            if c <= 0:
                raise ValueError("range step must be positive")
            steps = (b - a) / c
            # checked before any point is built; an overflowed span (inf) fails too
            if not steps < MAX_LIST_POINTS - len(out):
                raise ValueError(f"more than {MAX_LIST_POINTS} values")
            out.extend(round(a + i * c, 12) for i in range(math.floor(steps + 1e-9) + 1))
        elif item:
            out.append(_parse_float(item))
    if not out:
        raise ValueError("empty list")
    if len(out) > MAX_LIST_POINTS:
        raise ValueError(f"more than {MAX_LIST_POINTS} values")
    return out


def _parse_int_list(text: str) -> list[int]:
    values = _parse_float_list(text)
    if not all(v.is_integer() for v in values):
        raise ValueError("entries must be whole numbers")
    return [int(v) for v in values]


# field annotation -> parser; with postponed annotations these are strings
_PARSERS = {
    "float": _parse_float,
    "float | None": _parse_float,
    "int": _parse_int,
    "list[float]": _parse_float_list,
    "list[int]": _parse_int_list,
}


@dataclass
class RunParameters:
    """Parsed configuration; field names match config keys."""

    resonance_freq_hz: float = 13.56e6
    subcarrier_divider: int = 6
    separation_m: float = 0.06
    drive_voltage_v: float = REFERENCE_DRIVE_VOLTAGE
    noise_dbm: float = field(default=-105.0, metadata={"any_sign": True})
    medium_rel_permeability: float = 1.0
    load_ohm: float | None = None            # None: matched to the mote coil

    reader_radius_m: float = REFERENCE_READER.loop_radius
    reader_turns: int = REFERENCE_READER.turns
    reader_wire_diameter_m: float = REFERENCE_READER.wire_diameter
    reader_height_m: float = REFERENCE_READER.coil_height
    reader_resistivity_ohm_m: float = REFERENCE_READER.resistivity
    reader_core_rel_permeability: float = 1.0

    mote_radius_m: float = REFERENCE_MOTE.loop_radius
    mote_turns: int = REFERENCE_MOTE.turns
    mote_wire_diameter_m: float = REFERENCE_MOTE.wire_diameter
    mote_height_m: float = REFERENCE_MOTE.coil_height
    mote_resistivity_ohm_m: float = REFERENCE_MOTE.resistivity
    mote_core_rel_permeability: float = 1.0

    link_distances_m: list[float] = field(default_factory=lambda: [round(0.01 + 0.005 * k, 4) for k in range(19)])
    ber_distances_m: list[float] = field(default_factory=lambda: [0.045, 0.05, 0.055, 0.06, 0.065, 0.07])
    ber_trials: int = 200_000
    ber_min_errors: int = 100
    ber_max_bits: int = 2_000_000

    mac_rate_bps: float = 200e3
    mac_packet_bytes: int = 64
    mac_read_times_s: list[float] = field(default_factory=lambda: [2.0, 4.0, 6.0, 8.0, 10.0])
    mac_n_motes: list[int] = field(default_factory=lambda: list(range(10, 201, 10)))
    mac_trials: int = 100
    mac_code_lens: list[int] = field(default_factory=lambda: [16, 32, 64, 128, 256])
    mac_durations_slots: list[int] = field(default_factory=lambda: [128, 1280])

    # ------------------------------------------------------------------
    def reader_coil(self, mu: float | None = None) -> Coil:
        return Coil(turns=self.reader_turns, loop_radius=self.reader_radius_m,
                    wire_diameter=self.reader_wire_diameter_m,
                    coil_height=self.reader_height_m,
                    resistivity=self.reader_resistivity_ohm_m,
                    core_rel_permeability=mu if mu is not None
                    else self.reader_core_rel_permeability)

    def mote_coil(self, mu: float | None = None) -> Coil:
        return Coil(turns=self.mote_turns, loop_radius=self.mote_radius_m,
                    wire_diameter=self.mote_wire_diameter_m,
                    coil_height=self.mote_height_m,
                    resistivity=self.mote_resistivity_ohm_m,
                    core_rel_permeability=mu if mu is not None
                    else self.mote_core_rel_permeability, is_mote=True)

    def link_config(self, mu: float | None = None,
                    resonance_freq_hz: float | None = None,
                    subcarrier_divider: int | None = None) -> LinkConfig:
        """Build the coupled-coil configuration; ``mu`` overrides core and
        medium permeability together (ferrite-loaded design point)."""
        return LinkConfig(
            reader=self.reader_coil(mu),
            mote=self.mote_coil(mu),
            separation=self.separation_m,
            drive_voltage=self.drive_voltage_v,
            resonance_freq=resonance_freq_hz or self.resonance_freq_hz,
            subcarrier_divider=subcarrier_divider or self.subcarrier_divider,
            load_impedance=self.load_ohm,
            medium_rel_permeability=mu if mu is not None
            else self.medium_rel_permeability,
        )

    def noise(self) -> NoiseModel:
        return NoiseModel.from_total_dbm(self.noise_dbm)


_FIELDS = {spec.name: spec for spec in fields(RunParameters)}


def default_parameters() -> RunParameters:
    return RunParameters()


def apply_setting(params: RunParameters, key: str, value: str,
                  line: int | None = None) -> None:
    """Parse ``value`` by the annotation of field ``key`` and store it.

    Numbers must be finite, counts whole, and every value strictly positive
    unless the field is marked ``any_sign``.
    """
    spec = _FIELDS.get(key)
    if spec is None:
        raise ConfigError(f"unknown key {key!r}", line)
    try:
        parsed = _PARSERS[spec.type](value)
        values = parsed if isinstance(parsed, list) else [parsed]
        if not spec.metadata.get("any_sign") and any(v <= 0 for v in values):
            raise ValueError("must be strictly positive")
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}", line) from exc
    setattr(params, key, parsed)


def load_config(path: str | Path) -> RunParameters:
    """Parse a config file into :class:`RunParameters`."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    params = default_parameters()
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, _, value = text.partition("=")
        apply_setting(params, key.strip(), value.strip(), lineno)
    return params


def packaged_config_path(name: str = "table3.cfg") -> Path:
    """Path of a config shipped inside the package."""
    return Path(__file__).parent / "configs" / name

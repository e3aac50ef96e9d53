"""Plain-text run configuration: ``key = value`` lines, ``#`` comments,
units encoded in key names.

Unknown keys, malformed lines and out-of-range values raise
:class:`ConfigError` carrying the offending line number.  The defaults
live only in :class:`RunParameters`.  Each link key names the link field it
sets once, and its default is that field of the reference link of
:func:`biomote.link.reference_link_config` (13.56 MHz, permeability 1,
6 cm separation); the noise floor is one total in dBm, -105 by default.
A file sets the keys it names, and an empty one, like the packaged
``table3.cfg``, yields the defaults; :func:`load_config` applies a run's
``--set`` items after the file's lines, through the same reader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path

from biomote.link import LinkConfig, reference_link_config

__all__ = ["ConfigError", "RunParameters", "load_config", "packaged_config_path"]


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


#: the reference link, whose carrier, geometry and drive are the defaults of
#: :class:`RunParameters`
_REFERENCE = reference_link_config()


def _link(path: str):
    """A link key: it sets the field at ``path`` of the link, a
    :class:`~biomote.link.LinkConfig` field or ``reader.``/``mote.`` and a
    :class:`~biomote.link.Coil` field, and defaults to the reference link's
    value there."""
    return field(default=attrgetter(path)(_REFERENCE), metadata={"link": path})


@dataclass
class RunParameters:
    """Parsed configuration; field names match config keys, and the field
    defaults are the only statement of the shipped defaults, the link's
    taken from :func:`~biomote.link.reference_link_config`."""

    resonance_freq_hz: float = _link("resonance_freq")
    subcarrier_divider: int = _link("subcarrier_divider")
    separation_m: float = _link("separation")
    drive_voltage_v: float = _link("drive_voltage")
    # total receiver noise: 290 K over 200 kHz plus a 15 dB noise figure
    # gives -105.97 dBm
    noise_dbm: float = field(default=-105.0, metadata={"any_sign": True})
    medium_rel_permeability: float = _link("medium_rel_permeability")
    load_ohm: float | None = _link("load_impedance")   # None: matched to the mote coil

    reader_radius_m: float = _link("reader.loop_radius")
    reader_turns: int = _link("reader.turns")
    reader_wire_diameter_m: float = _link("reader.wire_diameter")
    reader_height_m: float = _link("reader.coil_height")
    reader_resistivity_ohm_m: float = _link("reader.resistivity")
    reader_core_rel_permeability: float = _link("reader.core_rel_permeability")

    mote_radius_m: float = _link("mote.loop_radius")
    mote_turns: int = _link("mote.turns")
    mote_wire_diameter_m: float = _link("mote.wire_diameter")
    mote_height_m: float = _link("mote.coil_height")
    mote_resistivity_ohm_m: float = _link("mote.resistivity")
    mote_core_rel_permeability: float = _link("mote.core_rel_permeability")

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
    def link_config(self) -> LinkConfig:
        """The coupled-coil configuration these parameters describe: the
        reference link with each link key's value at its path."""
        changes = {"reader": {}, "mote": {}, "": {}}
        for spec in _FIELDS.values():
            if "link" in spec.metadata:
                coil, _, name = spec.metadata["link"].rpartition(".")
                changes[coil][name] = getattr(self, spec.name)
        return replace(_REFERENCE, reader=replace(_REFERENCE.reader, **changes["reader"]),
                       mote=replace(_REFERENCE.mote, **changes["mote"]), **changes[""])

    def noise(self) -> float:
        """The receiver noise floor in dBm, as
        :func:`~biomote.link.link_budget` takes it."""
        return self.noise_dbm


_FIELDS = {spec.name: spec for spec in fields(RunParameters)}


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


def load_config(path: str | Path, settings=()) -> RunParameters:
    """Parse a config file into :class:`RunParameters`, then apply each
    ``key=value`` item of ``settings`` (the CLI's ``--set``) over it.

    A file line and an item are read alike, except that only a file line
    may be blank or hold a ``#`` comment, and only its errors carry a line
    number.
    """
    path = Path(path)
    try:
        # utf-8-sig drops the byte-order mark some editors write first
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    lines = [(lineno, item) for lineno, raw in enumerate(text.splitlines(), start=1)
             if (item := raw.split("#", 1)[0].strip())]
    params = RunParameters()
    for line, item in lines + [(None, item.strip()) for item in settings]:
        if "=" not in item:
            raise ConfigError(f"expected 'key = value', got {item!r}", line)
        key, _, value = item.partition("=")
        apply_setting(params, key.strip(), value.strip(), line)
    return params


def packaged_config_path() -> Path:
    """Path of the config shipped inside the package, ``table3.cfg``."""
    return Path(__file__).parent / "configs" / "table3.cfg"

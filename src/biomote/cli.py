"""Command-line experiment runner.

Each subcommand runs one study and writes a CSV artifact.  Runs are
reproducible: identical (config, seed) means byte-identical output, and
seeds for inner Monte Carlo points derive deterministically from the
master seed, so results are also invariant to any trial chunking.

Each subcommand is one entry of :data:`SUBCOMMANDS`: its row type, whose
field names are its CSV columns, and its study.  Every study is one call
into the layer that owns its points, which checks the whole grid before
the first point runs and returns rows of that type:
:class:`~biomote.link.SweepRow`, :class:`~biomote.link.Table1Row`,
:class:`~biomote.phy.BerRow`, :class:`~biomote.mac.Scenario1Row`,
:class:`~biomote.mac.Scenario2Row`, :class:`~biomote.mac.CdmaRow` and
:class:`~biomote.mac.CompareRow`.  A study reads the
:class:`~biomote.config.RunParameters` that
:func:`~biomote.config.load_config` builds from the ``--config`` file (the
packaged ``table3.cfg`` by default, which sets no key, so every key keeps
its dataclass default) and then each ``--set``.

Exit codes: 0 success, 2 configuration problem, 3 runtime failure.  An
``--out`` whose directory does not exist, or that is itself a directory,
exits 3 before any work.  A layer's ``ValueError`` exits 2: among them the
grid checks of the :mod:`biomote.mac` sweeps, which guard library callers
too, and the caps that :mod:`biomote.mac` and :mod:`biomote.phy` state
(their ``MAX_*`` constants).

numpy's BLAS runs on one thread unless the caller sets
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``:
the CDMA products (at most 200 x 256 at the shipped defaults) are too
small for a second thread to help.  CSV bytes never depend on that
thread count, because the despreading is exact integer arithmetic in any
summation order.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Set before numpy loads: a second OpenBLAS thread costs a core and saves no
# wall time on these small products.  A count the caller sets wins.
if not any(var in os.environ for var in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from biomote import link, mac, phy
from biomote._draws import DEFAULT_SEED
from biomote.config import ConfigError, load_config, packaged_config_path

SEED_ENV_VAR = "BIOLINK_SEED"
#: the seeds that ``--seed`` and ``$BIOLINK_SEED`` accept
SEED_FORMS = "a non-negative integer, decimal or 0x/0o/0b-prefixed"


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _write_csv(path: Path, row_type, rows) -> None:
    lines = [",".join(row_type._fields)] + [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


#: subcommand -> (row type, study(params, seed) -> rows of it).  The lambdas
#: look up ``link.<name>``, ``phy.<name>`` and ``mac.<name>`` when they run,
#: so rebinding a module attribute (as a tracer or a test double does)
#: reaches the study.
SUBCOMMANDS = {
    "link-sweep": (link.SweepRow, lambda p, seed:
                   link.backscatter_sweep(p.link_config(), p.noise_dbm, p.link_distances_m)),
    "table1": (link.Table1Row, lambda p, seed: link.table1_sweep(p.link_config(), p.noise_dbm)),
    "ber-sweep": (phy.BerRow, lambda p, seed:
                  phy.ber_sweep(p.link_config(), p.noise_dbm, p.ber_distances_m,
                                trials=p.ber_trials, min_errors=p.ber_min_errors,
                                max_bits=p.ber_max_bits, seed=seed)),
    "mac-scenario1": (mac.Scenario1Row, lambda p, seed:
                      mac.scenario1_sweep(p.mac_rate_bps, p.mac_read_times_s,
                                          p.mac_packet_bytes, trials=p.mac_trials, seed=seed)),
    "mac-scenario2": (mac.Scenario2Row, lambda p, seed:
                      mac.scenario2_sweep(p.mac_n_motes, p.mac_rate_bps, p.mac_read_times_s,
                                          p.mac_packet_bytes, trials=p.mac_trials, seed=seed)),
    "mac-cdma": (mac.CdmaRow, lambda p, seed:
                 mac.cdma_sweep(p.mac_n_motes, p.mac_code_lens, p.mac_packet_bytes,
                                trials=p.mac_trials, seed=seed)),
    "mac-compare": (mac.CompareRow, lambda p, seed:
                    mac.compare_schemes(p.mac_n_motes, p.mac_durations_slots,
                                        trials=p.mac_trials, seed=seed)),
}

#: subcommand -> CSV header, its row type's field names
CSV_SCHEMAS = {name: ",".join(row_type._fields) for name, (row_type, _) in SUBCOMMANDS.items()}


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biomote",
        description="Reproducible biomote link/PHY/MAC studies, one CSV per run.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, schema in CSV_SCHEMAS.items():
        p = sub.add_parser(name, help=f"write CSV with columns: {schema}",
                           description=f"CSV schema: {schema}")
        p.add_argument("--config", type=Path, default=None,
                       help="config file; a key it omits keeps its default "
                            "(default: the packaged table3.cfg, which sets none)")
        p.add_argument("--out", type=Path, default=Path(f"{name}.csv"),
                       help="output CSV path")
        p.add_argument("--seed", type=parse_seed, default=None,
                       help=f"master seed, {SEED_FORMS} (fallback: "
                            f"${SEED_ENV_VAR}, read the same way, then {DEFAULT_SEED:#x})")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
    return parser


def parse_seed(text: str) -> int:
    """A seed as ``--seed`` and ``$BIOLINK_SEED`` give it, in any form that
    ``int(text, 0)`` or ``int(text)`` reads: 0x/0o/0b-prefixed
    (``0xB10B10``) or decimal, leading zeros included (``010``).  Decimal
    text goes to base 10, which reads all that base 0 reads of it and
    leading zeros too; any other text goes to base 0.

    Unreadable text raises ``argparse.ArgumentTypeError`` naming the
    accepted forms, the one error whose message argparse prints as given
    (for a ``ValueError`` it names the type's function instead)."""
    try:
        return int(text, 10 if text.strip().lstrip("+-").replace("_", "").isdigit() else 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {SEED_FORMS}, got {text!r}") from None


def resolve_seed(flag_value: int | None) -> int:
    env = os.environ.get(SEED_ENV_VAR, hex(DEFAULT_SEED))
    try:
        seed = parse_seed(env) if flag_value is None else flag_value
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"bad {SEED_ENV_VAR} value {env!r}") from exc
    if seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    return seed


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = load_config(args.config or packaged_config_path(), args.set)
        seed = resolve_seed(args.seed)
        if not args.out.parent.is_dir():     # fail before the study, not after
            raise NotADirectoryError(f"{args.out.parent} is not an existing directory")
        if args.out.is_dir():
            raise IsADirectoryError(f"{args.out} is a directory")
        row_type, study = SUBCOMMANDS[args.subcommand]
        _write_csv(args.out, row_type, study(params, seed))
    except ValueError as exc:                # ConfigError is one
        print(f"biomote {args.subcommand}: config error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, OSError) as exc:      # SingularityError is one
        print(f"biomote {args.subcommand}: runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

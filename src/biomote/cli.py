"""Command-line experiment runner.

Each subcommand runs one study and writes a CSV artifact.  Runs are
reproducible: identical (config, seed) means byte-identical output, and
seeds for inner Monte Carlo points derive deterministically from the
master seed, so results are also invariant to any trial chunking.

Every subcommand but ``table1`` is one call into the layer that owns its
points, which checks the whole grid before the first point runs and
returns the rows in :data:`CSV_SCHEMAS` column order.

Exit codes: 0 success, 2 configuration problem, 3 runtime failure.  An
``--out`` whose directory does not exist, or that is itself a directory,
exits 3 before any work.  A layer's ``ValueError`` exits 2: the grid checks
of :func:`~biomote.mac.scenario1_sweep`, :func:`~biomote.mac.scenario2_sweep`,
:func:`~biomote.mac.cdma_sweep` and :func:`~biomote.mac.compare_schemes`,
which guard library callers too, reject a read window above
:data:`biomote.mac.MAX_ALOHA_SLOTS` slots and a CDMA point above
:data:`biomote.mac.MAX_CDMA_MOTES` motes or whose trial would draw more
than :data:`biomote.mac.MAX_CDMA_DRAW_BYTES` bytes.

``ber-sweep`` runs its four BER curves' points on one thread pool with
one worker per core this process may use: each curve's
:func:`~biomote.phy.ber_vs_distance` call queues its points before it
returns the iterator of its rows, so all points are queued in scheme and
distance order before a row is read.  Each point has its own seed.  numpy's
BLAS still runs on one thread unless the caller sets
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``:
the CDMA products (at most 200 x 256 at the shipped defaults) are too
small for a second thread to help.  CSV bytes never
depend on either thread count, because the despreading is exact integer
arithmetic in any summation order and each BER point draws from its own
seeded stream.
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

from biomote import mac
from biomote.config import (
    ConfigError,
    RunParameters,
    apply_setting,
    load_config,
    packaged_config_path,
)
from biomote.link import SingularityError, backscatter_sweep, link_budget
from biomote.phy import CodeScheme, Modulation, PhyConfig, ber_vs_distance

DEFAULT_SEED = 0xB10B10
SEED_ENV_VAR = "BIOLINK_SEED"

#: carrier rows of the reference operating table: (f_c Hz, mu values, divider)
TABLE1_ROWS = [
    (1e6, (1.0, 10.0, 50.0), 4),
    (13.56e6, (1.0, 10.0), 6),
    (100e6, (1.0,), 7),
]

CSV_SCHEMAS = {
    "link-sweep": "distance_m,p_re_dbm,snr_db",
    "table1": "fc_mhz,mu,r_r_ohm,r_b_ohm,p_tx_dbm,pl_db,a_s_db,p_re_dbm",
    "ber-sweep": "distance_m,scheme,code,ber,bits",
    "mac-scenario1": "rate_bps,read_time_s,packet_bytes,max_motes",
    "mac-scenario2": "n_motes,rate_bps,read_time_s,mean_successes",
    "mac-cdma": "n_motes,code_len,family,mean_successes",
    "mac-compare": "n_motes,duration_slots,scheme,mean_successes",
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header] + [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def run_link_sweep(params: RunParameters, seed: int):
    return backscatter_sweep(params.link_config(), params.noise(),
                             params.link_distances_m)


def run_table1(params: RunParameters, seed: int):
    rows = []
    for fc, mus, divider in TABLE1_ROWS:
        for mu in mus:
            cfg = params.link_config(mu=mu, resonance_freq_hz=fc,
                                     subcarrier_divider=divider)
            b = link_budget(cfg, params.noise())
            rows.append((fc / 1e6, mu, b.reader_resistance, b.mote_resistance,
                         b.p_tx_dbm, b.path_loss_db,
                         b.sideband_attenuation_db, b.p_re_dbm))
    return rows


def _usable_cores() -> int:
    """Number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:               # no affinity call on this platform
        return os.cpu_count() or 1


def run_ber_sweep(params: RunParameters, seed: int):
    # imported here: at module level its ~6 ms would delay every subcommand
    from concurrent.futures import ThreadPoolExecutor

    link, noise = params.link_config(), params.noise()
    schemes = [
        (Modulation.ASK, CodeScheme.NONE),
        (Modulation.BPSK, CodeScheme.NONE),
        (Modulation.BPSK, CodeScheme.HAMMING_15_11),
        (Modulation.BPSK, CodeScheme.RS_31_26),
    ]
    n_points = len(schemes) * len(params.ber_distances_m)
    # numpy releases the GIL in the noise draws and the large array
    # operations; a worker that is done takes the next point of any curve.
    pool = ThreadPoolExecutor(max_workers=min(n_points, _usable_cores()))
    try:
        curves = []
        for k, (mod, code) in enumerate(schemes):
            cfg = PhyConfig(modulation=mod, code=code, trials=params.ber_trials,
                            min_errors=params.ber_min_errors,
                            max_bits=params.ber_max_bits, seed=seed + k)
            curves.append(ber_vs_distance(link, noise, cfg, params.ber_distances_m,
                                          mapper=pool.map))
        return [row for rows in curves for row in rows]
    finally:
        pool.shutdown(cancel_futures=True)       # a failed point stops the rest


def run_mac_scenario1(params: RunParameters, seed: int):
    return mac.scenario1_sweep(params.mac_rate_bps, params.mac_read_times_s,
                               params.mac_packet_bytes, trials=params.mac_trials,
                               seed=seed)


def run_mac_scenario2(params: RunParameters, seed: int):
    return mac.scenario2_sweep(params.mac_n_motes, [params.mac_rate_bps],
                               params.mac_read_times_s, params.mac_packet_bytes,
                               trials=params.mac_trials, seed=seed)


def run_mac_cdma(params: RunParameters, seed: int):
    return mac.cdma_sweep(params.mac_n_motes, params.mac_code_lens,
                          params.mac_packet_bytes, trials=params.mac_trials,
                          seed=seed)


def run_mac_compare(params: RunParameters, seed: int):
    return mac.compare_schemes(params.mac_n_motes, params.mac_durations_slots,
                               trials=params.mac_trials, seed=seed)


RUNNERS = {
    "link-sweep": run_link_sweep,
    "table1": run_table1,
    "ber-sweep": run_ber_sweep,
    "mac-scenario1": run_mac_scenario1,
    "mac-scenario2": run_mac_scenario2,
    "mac-cdma": run_mac_cdma,
    "mac-compare": run_mac_compare,
}


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
                       help="config file (default: packaged table3.cfg)")
        p.add_argument("--out", type=Path, default=Path(f"{name}.csv"),
                       help="output CSV path")
        p.add_argument("--seed", type=int, default=None,
                       help=f"master seed (fallback: ${SEED_ENV_VAR}, then "
                            f"{DEFAULT_SEED:#x})")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
    return parser


def resolve_seed(flag_value: int | None) -> int:
    seed = flag_value
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            return DEFAULT_SEED
        try:
            seed = int(env, 0)
        except ValueError as exc:
            raise ConfigError(f"bad {SEED_ENV_VAR} value {env!r}") from exc
    if seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    return seed


def load_parameters(args) -> RunParameters:
    if args.config is not None:
        params = load_config(args.config)
    else:
        params = load_config(packaged_config_path())
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        apply_setting(params, key.strip(), value.strip())
    return params


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = load_parameters(args)
        seed = resolve_seed(args.seed)
    except ConfigError as exc:
        print(f"biomote {args.subcommand}: config error: {exc}", file=sys.stderr)
        return 2
    try:
        if not args.out.parent.is_dir():     # fail before the study, not after
            raise NotADirectoryError(f"{args.out.parent} is not an existing directory")
        if args.out.is_dir():
            raise IsADirectoryError(f"{args.out} is a directory")
        rows = RUNNERS[args.subcommand](params, seed)
        _write_csv(args.out, CSV_SCHEMAS[args.subcommand], rows)
    except (ConfigError, ValueError) as exc:
        print(f"biomote {args.subcommand}: config error: {exc}", file=sys.stderr)
        return 2
    except (SingularityError, ArithmeticError, OSError) as exc:
        print(f"biomote {args.subcommand}: runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Correctness checks on the CSVs the benchmark's CLI runs write.

Every check returns a list of problems (empty when the output is correct)
and the number of Monte Carlo samples the CSV reports: information bits
for ``ber-sweep`` (its ``bits`` column), (mote x trial) pairs for the MAC
subcommands.  Samples are counted from the rows delivered, not from the
program's internal work, so an algorithm that reaches the same rows with
fewer probes is a real speedup, while one that runs fewer trials is not.

The oracles are independent of the Monte Carlo code: the Q-function for
uncoded BPSK/ASK, the single-frame ALOHA occupancy law for
``mac-scenario2``, and Walsh orthogonality for ``mac-compare``.  Each
statistical check allows 4 sigma of the row's own Monte Carlo error.
"""

from __future__ import annotations

import math
from dataclasses import replace

from biomote.config import RunParameters
from biomote.link import link_budget

SIGMAS = 4.0
#: spreading length of the Walsh codes ``mac.compare_schemes`` uses
COMPARE_WALSH_LEN = 128
COMPARE_SCHEMES = 2


def q_function(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def uncoded_ber(modulation: str, link_snr_db: float) -> float:
    """Closed-form BER at a link SNR: symbol SNR gamma = 2 SNR (the symbol
    rate's Nyquist bandwidth); BPSK Q(sqrt(gamma)), on-off ASK at equal
    average power Q(sqrt(gamma / 2))."""
    gamma = 2.0 * 10.0 ** (link_snr_db / 10.0)
    return q_function(math.sqrt(gamma if modulation == "bpsk" else gamma / 2.0))


def aloha_single_frame(n: int, slots: int) -> tuple[float, float]:
    """Mean and variance of the motes read when ``n`` motes each pick one of
    ``slots`` slots: the count of singleton slots."""
    p1 = (1.0 - 1.0 / slots) ** (n - 1)
    mean = n * p1
    pair = n * (n - 1) * (1.0 - 1.0 / slots) * (1.0 - 2.0 / slots) ** (n - 2)
    return mean, max(mean + pair - mean * mean, 0.0)


def _within(value: float, expected: float, sigma: float) -> bool:
    return abs(value - expected) <= SIGMAS * sigma


def _check_ber_sweep(rows, params: RunParameters, problems: list[str]) -> int:
    if len(rows) != 4 * len(params.ber_distances_m):
        problems.append(f"ber-sweep: {len(rows)} rows")
    link, noise = params.link_config(), params.noise()
    samples = 0
    for distance, modulation, code, ber, bits in rows:
        ber, bits = float(ber), int(bits)
        samples += bits
        if not 0.0 <= ber <= 1.0 or bits < params.ber_trials:
            problems.append(f"ber-sweep: bad row ber={ber} bits={bits}")
            continue
        if code != "none":
            continue
        snr = link_budget(replace(link, separation=float(distance)), noise).snr_db
        p = uncoded_ber(modulation, snr)
        # sigma never below one error's worth, for rows expecting < 1 error
        if not _within(ber, p, math.sqrt(max(p, 1.0 / bits) * (1.0 - p) / bits)):
            problems.append(f"ber-sweep: {modulation} at {distance} m: ber {ber} "
                            f"vs Q-function {p:.4g} over {bits} bits")
    return samples


def _check_scenario1(rows, params: RunParameters, problems: list[str]) -> int:
    if len(rows) != len(params.mac_read_times_s):
        problems.append(f"mac-scenario1: {len(rows)} rows")
    samples = 0
    for _, _, _, max_motes in rows:
        if int(max_motes) < 0:
            problems.append(f"mac-scenario1: max_motes {max_motes}")
        samples += int(max_motes) * params.mac_trials
    return samples


def _check_scenario2(rows, params: RunParameters, problems: list[str]) -> int:
    if len(rows) != len(params.mac_n_motes) * len(params.mac_read_times_s):
        problems.append(f"mac-scenario2: {len(rows)} rows")
    slot_s = params.mac_packet_bytes * 8 / params.mac_rate_bps
    samples = 0
    for n, _, read_time, mean_successes in rows:
        n, m = int(n), float(mean_successes)
        samples += n * params.mac_trials
        expected, var = aloha_single_frame(n, int(float(read_time) / slot_s))
        if not _within(m, expected, math.sqrt(var / params.mac_trials)):
            problems.append(f"mac-scenario2: n={n} window {read_time} s: "
                            f"{m} vs analytic {expected:.4f}")
    return samples


def _check_cdma(rows, params: RunParameters, problems: list[str]) -> int:
    if len(rows) != len(params.mac_code_lens) * len(params.mac_n_motes):
        problems.append(f"mac-cdma: {len(rows)} rows")
    samples = 0
    for n, _, _, mean_successes in rows:
        samples += int(n) * params.mac_trials
        if not 0.0 <= float(mean_successes) <= int(n):
            problems.append(f"mac-cdma: n={n} mean {mean_successes}")
    return samples


def _check_compare(rows, params: RunParameters, problems: list[str]) -> int:
    expected_rows = (COMPARE_SCHEMES * len(params.mac_n_motes)
                     * len(params.mac_durations_slots))
    if len(rows) != expected_rows:
        problems.append(f"mac-compare: {len(rows)} rows")
    samples = 0
    for n, duration, scheme, mean_successes in rows:
        n, m = int(n), float(mean_successes)
        samples += n * params.mac_trials
        if not 0.0 <= m <= n:
            problems.append(f"mac-compare: n={n} {scheme} mean {m}")
        if scheme == "cdma" and n <= COMPARE_WALSH_LEN and m != n:
            problems.append(f"mac-compare: Walsh n={n} <= {COMPARE_WALSH_LEN} "
                            f"read {m} motes in {duration} slots")
    return samples


_CHECKS = {
    "ber-sweep": _check_ber_sweep,
    "mac-scenario1": _check_scenario1,
    "mac-scenario2": _check_scenario2,
    "mac-cdma": _check_cdma,
    "mac-compare": _check_compare,
}


def check_csv(subcommand: str, text: str, params: RunParameters,
              schema: str) -> tuple[list[str], int]:
    """Problems found in one CSV, and the samples it reports; ``schema`` is
    ``cli.CSV_SCHEMAS[subcommand]``."""
    lines = text.splitlines()
    if not lines or lines[0] != schema:
        return [f"{subcommand}: header {lines[:1]}"], 0
    rows = [line.split(",") for line in lines[1:]]
    width = len(schema.split(","))
    problems = []
    for row in rows:
        if len(row) != width:
            return [f"{subcommand}: row {row}"], 0
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue          # a label column: scheme, code or family
            if not math.isfinite(value):
                problems.append(f"{subcommand}: non-finite value in {row}")
    if problems:
        return problems, 0
    samples = _CHECKS[subcommand](rows, params, problems)
    return problems, samples

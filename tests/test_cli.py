"""CLI harness tests: config parsing contract, CSV schemas, reproducibility,
exit codes."""

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import fields

import pytest

from biomote import cli, mac, phy
from biomote.cli import CSV_SCHEMAS, main, resolve_seed
from biomote.config import (
    ConfigError,
    RunParameters,
    apply_setting,
    default_parameters,
    load_config,
    packaged_config_path,
)
from biomote.link import backscatter_sweep
from biomote.phy import CodeScheme, Modulation, PhyConfig, ber_vs_distance


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("BIOLINK_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "biomote.cli", *args],
                          capture_output=True, text=True, env=env)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_shipped_table3_values():
    params = load_config(packaged_config_path())
    assert params.reader_radius_m == 0.05
    assert params.mote_radius_m == 125e-6
    assert params.noise_dbm == -105.0
    assert params.resonance_freq_hz == 13.56e6
    assert params.medium_rel_permeability == 1.0
    assert params.subcarrier_divider == 6


def test_empty_file_gives_defaults(tmp_path):
    p = tmp_path / "empty.cfg"
    p.write_text("")
    assert load_config(p) == default_parameters()


def test_comments_and_blank_lines(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# top comment\n\nseparation_m = 0.05  # inline\n")
    assert load_config(p).separation_m == 0.05


def test_unknown_key_names_line(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("# ok\nbogus_key = 3\n")
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert err.value.line == 2
    assert "bogus_key" in str(err.value)


def test_malformed_line_rejected(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("separation_m 0.05\n")
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert err.value.line == 1


def test_out_of_range_names_key_and_line(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("\nresonance_freq_hz = -1\n")
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert err.value.line == 2
    assert "resonance_freq_hz" in str(err.value)


def test_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/nowhere.cfg")


def test_list_and_range_syntax(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("mac_n_motes = 10:40:10\nlink_distances_m = 0.05, 0.06\n")
    params = load_config(p)
    assert params.mac_n_motes == [10, 20, 30, 40]
    assert params.link_distances_m == [0.05, 0.06]


def _typed(value):
    """Value with its type, element-wise for lists (10 == 10.0 in Python)."""
    if isinstance(value, list):
        return [(v, type(v)) for v in value]
    return value, type(value)


@pytest.mark.parametrize("spec", fields(RunParameters), ids=lambda f: f.name)
def test_every_field_round_trips(spec):
    default = getattr(RunParameters(), spec.name)
    if default is None:      # load_ohm: None (matched load) has no text form
        default = 50.0
    text = ",".join(map(repr, default)) if isinstance(default, list) else repr(default)
    params = RunParameters()
    apply_setting(params, spec.name, text)
    assert _typed(getattr(params, spec.name)) == _typed(default)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_schema_headers_match_contract(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["table1", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == CSV_SCHEMAS["table1"]
    # every other subcommand's rows come whole from one layer sweep, whose
    # rows are as wide as the schema
    params = default_parameters()
    link, noise = params.link_config(), params.noise()
    cfg = PhyConfig(trials=1_000, min_errors=1, max_bits=2_000)
    sweeps = {
        "link-sweep": backscatter_sweep(link, noise, [0.05, 0.06]),
        "ber-sweep": ber_vs_distance(link, noise, cfg, [0.05, 0.06]),
        "mac-scenario1": mac.scenario1_sweep(200e3, [0.1, 0.2], 64, trials=2),
        "mac-scenario2": mac.scenario2_sweep([2, 4], [200e3], [0.1], 64, trials=2),
        "mac-cdma": mac.cdma_sweep([2, 4], [16], 8, trials=2),
        "mac-compare": mac.compare_schemes([2, 4], [128], trials=2),
    }
    assert sweeps.keys() == CSV_SCHEMAS.keys() - {"table1"}
    for subcommand, rows in sweeps.items():
        widths = {len(row) for row in rows}
        assert widths == {len(CSV_SCHEMAS[subcommand].split(","))}, subcommand


def test_table1_brackets_reference_rows(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["table1", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    pre = {(float(r[0]), float(r[1])): float(r[7]) for r in rows}
    assert abs(pre[(1.0, 1.0)] - (-128.37)) <= 3.0
    assert abs(pre[(1.0, 10.0)] - (-108.38)) <= 3.0
    assert abs(pre[(1.0, 50.0)] - (-95.47)) <= 3.0
    assert abs(pre[(13.56, 1.0)] - (-98.82)) <= 3.0


def test_link_sweep_monotone(tmp_path):
    out = tmp_path / "l.csv"
    assert main(["link-sweep", "--out", str(out)]) == 0
    vals = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["mac-compare", "--seed", "7", "--set", "mac_n_motes=10,30",
            "--set", "mac_trials=10"]
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["mac-scenario2", "--set", "mac_n_motes=500", "--set", "mac_trials=20",
            "--set", "mac_read_times_s=2"]
    assert main([*base, "--seed", "1", "--out", str(a)]) == 0
    assert main([*base, "--seed", "2", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_env_seed_fallback(tmp_path):
    out_env = tmp_path / "env.csv"
    out_flag = tmp_path / "flag.csv"
    args = ["mac-scenario2", "--set", "mac_n_motes=40", "--set", "mac_trials=10",
            "--set", "mac_read_times_s=2"]
    r = run_cli([*args, "--out", str(out_env)], env_extra={"BIOLINK_SEED": "123"})
    assert r.returncode == 0
    assert main([*args, "--seed", "123", "--out", str(out_flag)]) == 0
    assert out_env.read_bytes() == out_flag.read_bytes()


@pytest.mark.parametrize("subcommand", ["ber-sweep", "mac-cdma", "link-sweep"])
def test_negative_seed_flag_exits_2(tmp_path, capsys, monkeypatch, subcommand):
    def no_work(*args, **kwargs):
        raise AssertionError("the study ran before the seed was checked")

    monkeypatch.setitem(cli.RUNNERS, subcommand, no_work)
    out = tmp_path / "x.csv"
    assert main([subcommand, "--seed", "-1", "--out", str(out)]) == 2
    assert "config error: seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


def test_negative_env_seed_exits_2(tmp_path):
    out = tmp_path / "x.csv"
    r = run_cli(["link-sweep", "--out", str(out)], env_extra={"BIOLINK_SEED": "-5"})
    assert r.returncode == 2
    assert "config error: seed must be a non-negative integer" in r.stderr
    assert "Traceback" not in r.stderr
    assert not out.exists()


def test_zero_seed_accepted(monkeypatch):
    monkeypatch.setenv("BIOLINK_SEED", "0")
    assert resolve_seed(None) == 0
    assert resolve_seed(0) == 0


def test_set_override(tmp_path):
    out = tmp_path / "l.csv"
    assert main(["link-sweep", "--set", "link_distances_m=0.06", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.06,")


def test_unknown_set_key_exits_2(tmp_path, capsys):
    rc = main(["link-sweep", "--set", "nope=1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "nope" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("drive_voltage_v = -3\n")
    rc = main(["table1", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "drive_voltage_v" in err and "line 1" in err


@pytest.mark.parametrize("setting", [
    "noise_dbm=nan",
    "separation_m=nan",
    "separation_m=inf",
    "mote_turns=2.7",
    "mac_n_motes=10.5",
])
def test_non_finite_or_fractional_exits_2(tmp_path, capsys, setting):
    out = tmp_path / "x.csv"
    rc = main(["link-sweep", "--set", setting, "--out", str(out)])
    assert rc == 2
    assert setting.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["mac-cdma", "mac-compare"])
def test_oversized_cdma_grid_exits_2(tmp_path, capsys, monkeypatch, subcommand):
    def no_work(*args, **kwargs):
        raise AssertionError("a point ran before the grid was checked")

    for name in ("cdma_simulate", "aloha_mean_successes"):
        monkeypatch.setattr(mac, name, no_work)
    out = tmp_path / "x.csv"
    rc = main([subcommand, "--set", f"mac_n_motes=10,{mac.MAX_CDMA_MOTES + 1}",
               "--out", str(out)])
    assert rc == 2
    assert "mac_n_motes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand,setting", [
    ("mac-scenario1", "mac_read_times_s=2e7"),
    ("mac-scenario1", "mac_read_times_s=2,2e7"),
    ("mac-scenario2", "mac_read_times_s=2e7"),
    ("mac-scenario2", "mac_read_times_s=2,2e7"),
    ("mac-compare", "mac_durations_slots=4294967296"),
    ("mac-compare", "mac_durations_slots=128,4294967296"),
])
def test_oversized_aloha_window_exits_2(tmp_path, capsys, monkeypatch, subcommand,
                                        setting):
    # 2e7 s is about 7.8e9 slots of 2.56 ms; a window of 2**32 slots or more
    # is rejected before any point runs
    def no_work(*args, **kwargs):
        raise AssertionError("a point ran before the windows were checked")

    for name in ("aloha_simulate", "cdma_simulate"):
        monkeypatch.setattr(mac, name, no_work)
    out = tmp_path / "x.csv"
    rc = main([subcommand, "--set", setting, "--out", str(out)])
    assert rc == 2
    assert "slots" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["mac_packet_bytes=100000000",
                                     "mac_code_lens=10000000000"])
def test_oversized_cdma_draws_exit_2(tmp_path, setting):
    out = tmp_path / "x.csv"
    r = run_cli(["mac-cdma", "--set", setting, "--set", "mac_n_motes=200",
                 "--set", "mac_trials=1", "--out", str(out)])
    assert r.returncode == 2
    assert "config error" in r.stderr
    assert "Traceback" not in r.stderr
    assert not out.exists()


def test_cdma_draw_cap_boundary():
    params = default_parameters()
    for n in params.mac_n_motes:
        for code_len in params.mac_code_lens:
            mac._check_cdma(n, code_len, "random", params.mac_packet_bytes,
                            params.mac_trials)
    # one mote, L = 64 and packets that fill the cap exactly, then 8 chips more
    packet_bytes = (mac.MAX_CDMA_DRAW_BYTES // 8 - 64) // 8
    mac._check_cdma(1, 64, "random", packet_bytes, 1)
    with pytest.raises(ValueError, match="mac_code_lens"):
        mac._check_cdma(1, 72, "random", packet_bytes, 1)


def test_cdma_cap_leaves_aloha_alone(tmp_path):
    out = tmp_path / "x.csv"
    rc = main(["mac-scenario2", "--set", f"mac_n_motes={mac.MAX_CDMA_MOTES + 1}",
               "--set", "mac_read_times_s=2", "--set", "mac_trials=1",
               "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 2


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def blas_env_after_import(module, preset):
    """The BLAS thread variables a child sees after importing ``module``,
    started with none of them set except ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset)
    code = (f"import json, os, {module}\n"
            f"print(json.dumps({{k: os.environ.get(k) for k in {BLAS_THREAD_VARS!r}}}))")
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                       text=True, check=True)
    return json.loads(r.stdout)


def test_cli_defaults_blas_to_one_thread():
    assert blas_env_after_import("biomote.cli", {}) == {
        "OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None}


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                 "OMP_NUM_THREADS"])
def test_cli_keeps_callers_blas_threads(var):
    expected = dict.fromkeys(BLAS_THREAD_VARS, None) | {var: "3"}
    assert blas_env_after_import("biomote.cli", {var: "3"}) == expected


def test_library_import_leaves_blas_threads_alone():
    assert blas_env_after_import("biomote.mac", {}) == dict.fromkeys(BLAS_THREAD_VARS)


def test_unwritable_output_exits_3(capsys):
    rc = main(["table1", "--out", "/nonexistent-dir/x.csv"])
    assert rc == 3
    assert "runtime error" in capsys.readouterr().err


def test_missing_output_directory_exits_3_before_the_study(tmp_path, capsys,
                                                          monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the study ran before the output was checked")

    monkeypatch.setitem(cli.RUNNERS, "mac-cdma", no_work)
    out = tmp_path / "missing" / "x.csv"
    assert main(["mac-cdma", "--out", str(out)]) == 3
    assert "runtime error" in capsys.readouterr().err
    assert not out.parent.exists()
    # an --out that names an existing directory fails the same way
    out.mkdir(parents=True)
    assert main(["mac-cdma", "--out", str(out)]) == 3
    assert "runtime error" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_cli_help_documents_schema():
    r = run_cli(["table1", "--help"])
    assert r.returncode == 0
    assert CSV_SCHEMAS["table1"] in r.stdout


def test_range_points_are_exact_multiples():
    params = RunParameters()
    apply_setting(params, "ber_distances_m", "0.01:0.07:0.005")
    assert params.ber_distances_m == [
        0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04,
        0.045, 0.05, 0.055, 0.06, 0.065, 0.07]


def test_range_point_cap():
    from biomote.config import MAX_LIST_POINTS
    params = RunParameters()
    apply_setting(params, "mac_n_motes", f"1:{MAX_LIST_POINTS}:1")
    assert len(params.mac_n_motes) == MAX_LIST_POINTS
    for text in (f"1:{MAX_LIST_POINTS + 1}:1", f"1:{MAX_LIST_POINTS}:1, 7",
                 "1:60000:1, 1:60000:1", "1e-300:1e300:1e-300"):
        with pytest.raises(ConfigError, match="more than"):
            apply_setting(params, "mac_n_motes", text)


def test_oversized_range_exits_2_before_work(tmp_path, capsys):
    out = tmp_path / "x.csv"
    start = time.perf_counter()
    rc = main(["link-sweep", "--set", "link_distances_m=0:1e12:1", "--out", str(out)])
    assert rc == 2
    assert time.perf_counter() - start < 5.0   # the 1e12 points are never built
    assert "link_distances_m" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# ber-sweep thread pool
# ---------------------------------------------------------------------------

def small_ber_params():
    params = default_parameters()
    for setting in ("ber_distances_m=0.05,0.065", "ber_trials=2000",
                    "ber_min_errors=20", "ber_max_bits=20000"):
        apply_setting(params, *setting.split("="))
    return params


@pytest.mark.parametrize("cores", [1, 4])
def test_ber_sweep_rows_independent_of_core_count(monkeypatch, cores):
    """On one worker or on four, and with the interpreter switching threads
    as often as it can, the points give the rows of a serial loop over the
    schemes, in scheme order, and none runs on the calling thread."""
    params = small_ber_params()
    seed = 31
    serial = []
    schemes = [(Modulation.ASK, CodeScheme.NONE), (Modulation.BPSK, CodeScheme.NONE),
               (Modulation.BPSK, CodeScheme.HAMMING_15_11),
               (Modulation.BPSK, CodeScheme.RS_31_26)]
    for k, (mod, code) in enumerate(schemes):
        cfg = PhyConfig(modulation=mod, code=code, trials=params.ber_trials,
                        min_errors=params.ber_min_errors,
                        max_bits=params.ber_max_bits, seed=seed + k)
        serial += ber_vs_distance(params.link_config(), params.noise(), cfg,
                                  params.ber_distances_m)
    workers = set()
    point = phy.ber_monte_carlo

    def recording(*args):
        workers.add(threading.get_ident())
        return point(*args)

    monkeypatch.setattr(phy, "ber_monte_carlo", recording)
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)          # switch threads as often as it can
    try:
        rows = cli.run_ber_sweep(params, seed)
    finally:
        sys.setswitchinterval(interval)
    assert rows == serial
    assert threading.get_ident() not in workers
    assert 1 <= len(workers) <= cores


def test_ber_sweep_queues_points_in_scheme_and_distance_order(monkeypatch):
    """One worker takes the points of every curve in the order of the rows:
    each curve queues its points only after the curve before it."""
    params = small_ber_params()
    order = []

    def point(cfg, snr_db):
        order.append((cfg.code, snr_db))
        time.sleep(0.002)                # let later curves try to jump ahead
        return phy.BerEstimate(ber=0.0, bits_simulated=1, errors=0,
                               low_confidence=False)

    monkeypatch.setattr(phy, "ber_monte_carlo", point)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
    rows = cli.run_ber_sweep(params, 31)
    assert [code for code, _ in order] == [CodeScheme(row[2]) for row in rows]
    assert len(order) == 4 * len(params.ber_distances_m)
    for k in range(4):
        snrs = [snr for _, snr in order[2 * k:2 * k + 2]]
        assert snrs == sorted(snrs, reverse=True)    # nearer point first


def test_failed_ber_point_exits_2_and_cancels_the_rest(tmp_path, capsys, monkeypatch):
    """A point that raises ValueError ends the run with exit 2, and the
    points not yet started never run."""
    started = []

    def point(cfg, snr_db):
        started.append((cfg.modulation, snr_db))
        if cfg.modulation is Modulation.ASK and len(started) == 1:
            raise ValueError("point failed")
        time.sleep(0.2)
        return phy.BerEstimate(ber=0.0, bits_simulated=1, errors=0,
                               low_confidence=False)

    monkeypatch.setattr(phy, "ber_monte_carlo", point)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
    out = tmp_path / "x.csv"
    assert main(["ber-sweep", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: point failed" in err
    assert "Traceback" not in err
    assert not out.exists()
    # the one worker may take the second point before the pool shuts down
    assert 1 <= len(started) <= 2


def test_ber_curve_failing_before_its_points_exits_2(tmp_path, capsys):
    """A curve that fails before it queues a point (unsorted distances)
    ends the run with exit 2 and writes no CSV."""
    out = tmp_path / "x.csv"
    assert main(["ber-sweep", "--out", str(out),
                 "--set", "ber_distances_m=0.06,0.05"]) == 2
    err = capsys.readouterr().err
    assert "config error: distances must be strictly ascending" in err
    assert not out.exists()

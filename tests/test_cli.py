"""CLI harness tests: config parsing contract, CSV schemas, reproducibility,
exit codes."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from biomote import cli, link, mac, phy
from biomote.cli import CSV_SCHEMAS, main, resolve_seed
from biomote.config import (
    ConfigError,
    RunParameters,
    apply_setting,
    load_config,
    packaged_config_path,
)
from biomote.link import link_budget


SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_cli(args, env_extra=None, preexec_fn=None):
    """Run ``python -m biomote.cli`` on this checkout's ``src`` in a child
    that sees neither the caller's ``BIOLINK_SEED`` nor its BLAS thread
    variables, then ``env_extra``; ``preexec_fn`` runs in the child before
    the CLI starts."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("BIOLINK_SEED", *BLAS_THREAD_VARS)}
    env["PYTHONPATH"] = str(SRC)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "biomote.cli", *args],
                          capture_output=True, text=True, env=env,
                          preexec_fn=preexec_fn)


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


def test_packaged_config_sets_no_key():
    # RunParameters is the one statement of the defaults
    assert load_config(packaged_config_path()) == RunParameters()


def test_reference_link_has_one_source(tmp_path, monkeypatch):
    # link.reference_link_config and RunParameters.link_config both state
    # the reference carrier, divider, separation and ferrite rule; the
    # defaults and every table1 point, built by the CLI's link sweep, agree
    assert RunParameters().link_config() == link.reference_link_config()
    built = []

    def recording(config, noise):
        built.append(config)
        return link_budget(config, noise)

    monkeypatch.setattr(link, "link_budget", recording)
    assert main(["table1", "--out", str(tmp_path / "t.csv")]) == 0
    assert built == [link.reference_link_config(fc, divider, 0.06, mu)
                     for fc, mus, divider in link.TABLE1_CARRIERS for mu in mus]


#: link key -> a valid value, distinct from its default and from every other
#: key's, and the link field it sets (a coil's under ``reader.`` or ``mote.``)
_LINK_KEYS = {
    "resonance_freq_hz": ("1e6", "resonance_freq"),
    "subcarrier_divider": ("4", "subcarrier_divider"),
    "separation_m": ("0.05", "separation"),
    "drive_voltage_v": ("2.5", "drive_voltage"),
    "medium_rel_permeability": ("1.5", "medium_rel_permeability"),
    "load_ohm": ("7", "load_impedance"),
    "reader_radius_m": ("0.04", "reader.loop_radius"),
    "reader_turns": ("60", "reader.turns"),
    "reader_wire_diameter_m": ("4e-4", "reader.wire_diameter"),
    "reader_height_m": ("0.02", "reader.coil_height"),
    "reader_resistivity_ohm_m": ("1.7e-8", "reader.resistivity"),
    "reader_core_rel_permeability": ("2", "reader.core_rel_permeability"),
    "mote_radius_m": ("1e-4", "mote.loop_radius"),
    "mote_turns": ("30", "mote.turns"),
    "mote_wire_diameter_m": ("3e-5", "mote.wire_diameter"),
    "mote_height_m": ("6e-5", "mote.coil_height"),
    "mote_resistivity_ohm_m": ("2.5e-8", "mote.resistivity"),
    "mote_core_rel_permeability": ("3", "mote.core_rel_permeability"),
}


def _link_fields(config) -> dict:
    """Every field of a link by its path, its coils' under ``reader.`` and
    ``mote.``."""
    flat = {}
    for spec in fields(config):
        value = getattr(config, spec.name)
        if isinstance(value, link.Coil):
            flat.update({f"{spec.name}.{f.name}": getattr(value, f.name)
                         for f in fields(value)})
        else:
            flat[spec.name] = value
    return flat


@pytest.mark.parametrize("key", list(_LINK_KEYS))
def test_each_link_key_sets_only_its_field(key):
    # a key wired to the wrong field or coil still gives a valid link, and
    # at the defaults no digest would show it
    value, path = _LINK_KEYS[key]
    params = RunParameters()
    apply_setting(params, key, value)
    reference, built = _link_fields(link.reference_link_config()), _link_fields(params.link_config())
    assert [p for p in built if built[p] != reference[p]] == [path]
    assert built[path] == float(value)


def test_link_keys_set_every_link_field_at_once():
    params = RunParameters()
    for key, (value, _) in _LINK_KEYS.items():
        apply_setting(params, key, value)
    apply_setting(params, "noise_dbm", "-98")
    built = _link_fields(params.link_config())
    assert {path: built[path] for _, path in _LINK_KEYS.values()} == {
        path: float(value) for value, path in _LINK_KEYS.values()}
    # every field has its key
    assert sorted(path for _, path in _LINK_KEYS.values()) == sorted(built)
    assert params.noise() == -98.0


def test_empty_file_gives_defaults(tmp_path):
    p = tmp_path / "empty.cfg"
    p.write_text("")
    assert load_config(p) == RunParameters()


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


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_unreadable_config_exits_2(tmp_path, capsys, kind):
    # each used to end the run with exit 1 and a traceback
    cfg = tmp_path / "run.cfg"
    if kind == "directory":
        cfg.mkdir()
    else:
        cfg.write_bytes(b"separation_m = 0.05 # \xff\xfe\n")
    with pytest.raises(ConfigError, match="run.cfg"):
        load_config(cfg)
    out = tmp_path / "x.csv"
    rc = main(["link-sweep", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert str(cfg) in capsys.readouterr().err
    assert not out.exists()


def test_config_with_byte_order_mark(tmp_path):
    # a UTF-8 byte-order mark, as some editors write, used to make the first
    # key unknown and the run exit 2
    text = b"separation_m = 0.05\n"
    csvs = []
    for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text),
                       ("default", b"")):
        cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
        cfg.write_bytes(data)
        assert main(["table1", "--config", str(cfg), "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert load_config(tmp_path / "bom.cfg").separation_m == 0.05
    assert csvs[1] == csvs[0] != csvs[2]


def test_list_and_range_syntax(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("mac_n_motes = 10:40:10\nlink_distances_m = 0.05, 0.06\n")
    params = load_config(p)
    assert params.mac_n_motes == [10, 20, 30, 40]
    assert params.link_distances_m == [0.05, 0.06]


def test_settings_apply_after_the_file(tmp_path):
    # the CLI's --set items go through the file's reader, after its lines
    p = tmp_path / "c.cfg"
    p.write_text("separation_m = 0.05\nmac_trials = 7\n")
    params = load_config(p, ["separation_m=0.04", " mac_n_motes = 10:30:10 "])
    assert (params.separation_m, params.mac_trials, params.mac_n_motes) == (0.04, 7, [10, 20, 30])
    with pytest.raises(ConfigError, match="mac_trials") as err:
        load_config(p, ["mac_trials=0"])
    assert err.value.line is None


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
    # every study returns rows of its row type, whose field names are the
    # CSV header; small grids keep each study fast
    params = RunParameters(link_distances_m=[0.05, 0.06], ber_distances_m=[0.05, 0.06],
                           ber_trials=1_000, ber_min_errors=1, ber_max_bits=2_000,
                           mac_read_times_s=[0.1, 0.2], mac_n_motes=[2, 4],
                           mac_trials=2, mac_code_lens=[16], mac_packet_bytes=8,
                           mac_durations_slots=[128])
    for subcommand, (row_type, study) in cli.SUBCOMMANDS.items():
        rows = list(study(params, 5))
        assert rows, subcommand
        assert all(type(row) is row_type for row in rows), subcommand
        assert ",".join(row_type._fields) == CSV_SCHEMAS[subcommand]


@pytest.mark.parametrize("subcommand,module,name", [
    ("link-sweep", link, "backscatter_sweep"),
    ("table1", link, "table1_sweep"),
    ("ber-sweep", phy, "ber_sweep"),
    ("mac-scenario1", mac, "scenario1_sweep"),
    ("mac-scenario2", mac, "scenario2_sweep"),
    ("mac-cdma", mac, "cdma_sweep"),
    ("mac-compare", mac, "compare_schemes"),
])
def test_study_looks_up_its_layer_sweep_when_it_runs(tmp_path, monkeypatch,
                                                     subcommand, module, name):
    # a tracer rebinds the layers' module attributes after the CLI is imported
    width = len(CSV_SCHEMAS[subcommand].split(","))
    monkeypatch.setattr(module, name, lambda *args, **kwargs: [(7,) * width])
    out = tmp_path / "x.csv"
    assert main([subcommand, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == [",".join(["7"] * width)]


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

    monkeypatch.setitem(cli.SUBCOMMANDS, subcommand, (cli.SUBCOMMANDS[subcommand][0], no_work))
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


@pytest.mark.parametrize("text, seed", [
    ("0xB10B10", 0xB10B10), ("0b101", 5), ("0o17", 15), ("010", 10), ("1_000", 1000),
    (" +7 ", 7), ("0_10", 10),
])
def test_seed_flag_and_env_read_the_same_forms(monkeypatch, text, seed):
    # the union of int(text, 0) and int(text): the help prints the default
    # in hex, and int(text, 0) alone rejects decimal leading zeros
    assert cli.build_parser().parse_args(["mac-scenario2", "--seed", text]).seed == seed
    monkeypatch.setenv("BIOLINK_SEED", text)
    assert resolve_seed(None) == seed


@pytest.mark.parametrize("text", ["abc", "1.5", "0x", "0b2", "08x"])
def test_unreadable_seed_exits_2(tmp_path, capsys, monkeypatch, text):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:          # argparse exits itself
        main(["link-sweep", "--seed", text, "--out", str(out)])
    assert exc.value.code == 2
    # the message names the forms a seed may take, not a function
    assert (f"argument --seed: expected a non-negative integer, decimal or "
            f"0x/0o/0b-prefixed, got {text!r}") in capsys.readouterr().err
    monkeypatch.setenv("BIOLINK_SEED", text)
    assert main(["link-sweep", "--out", str(out)]) == 2
    assert f"config error: bad BIOLINK_SEED value {text!r}" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("setting,message", [
    ("mote_radius_m=2e-4", "mote coil diameter exceeds 250 um envelope"),
    ("separation_m", "expected 'key = value', got 'separation_m'"),
    ("link_distances_m=0.1:0.2:0", "'link_distances_m': range step must be positive"),
    ("link_distances_m=0.2:0.1:0.01", "'link_distances_m': empty list"),
])
def test_out_of_envelope_or_malformed_set_exits_2(tmp_path, capsys, setting, message):
    # the link checks its mote's envelope; a --set item is read like a
    # config line
    out = tmp_path / "x.csv"
    assert main(["link-sweep", "--set", setting, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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
    params = RunParameters()
    for n in params.mac_n_motes:
        for code_len in params.mac_code_lens:
            mac._check_cdma(n, code_len, "random", params.mac_packet_bytes,
                            params.mac_trials)
    # one mote, L = 64 and packets that fill the cap exactly, then 8 chips more
    packet_bytes = (mac.MAX_CDMA_DRAW_BYTES // 8 - 64) // 8
    mac._check_cdma(1, 64, "random", packet_bytes, 1)
    with pytest.raises(ValueError, match="mac_code_lens"):
        mac._check_cdma(1, 72, "random", packet_bytes, 1)


@pytest.mark.parametrize("subcommand", ["mac-scenario2", "mac-compare"])
def test_oversized_aloha_deployment_exits_2(tmp_path, capsys, monkeypatch, subcommand):
    # one trial holds about 28 bytes a mote: a billion motes asked for
    # about 28 GB before any check stopped them
    def no_work(*args, **kwargs):
        raise AssertionError("a point ran before the deployments were checked")

    for name in ("aloha_simulate", "cdma_simulate"):
        monkeypatch.setattr(mac, name, no_work)
    out = tmp_path / "x.csv"
    rc = main([subcommand, "--set", "mac_n_motes=10,1000000000", "--out", str(out)])
    assert rc == 2
    assert "mac_n_motes" in capsys.readouterr().err
    assert not out.exists()


def test_cdma_cap_leaves_aloha_alone(tmp_path):
    out = tmp_path / "x.csv"
    rc = main(["mac-scenario2", "--set", f"mac_n_motes={mac.MAX_CDMA_MOTES + 1}",
               "--set", "mac_read_times_s=2", "--set", "mac_trials=1",
               "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 2


@pytest.mark.parametrize("subcommand", ["mac-scenario1", "mac-scenario2"])
def test_default_aloha_runs_leave_numpy_random_unloaded(subcommand, tmp_path):
    """Every prefix a default ALOHA study reads is narrow, so ``_draws``
    keys and computes it without ``numpy.random``, whose import costs
    about 6 MB of RSS.  The same child then loads it by keying one stream,
    so the check can see the module when it is there."""
    code = ("import sys\n"
            "from biomote import _draws\n"
            "from biomote.cli import main\n"
            f"assert main([{subcommand!r}, '--out', {str(tmp_path / 'x.csv')!r}]) == 0\n"
            "print('numpy.random' in sys.modules)\n"
            "_draws.stream(1, 2)\n"
            "print('numpy.random' in sys.modules)\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       check=True)
    assert r.stdout.split() == ["False", "True"]


def test_cli_import_leaves_pool_and_numpy_random_unloaded():
    """Only ``phy.ber_sweep`` needs a thread pool and ``numpy.random``, so it
    imports them when it runs: at import they would cost every other
    subcommand's child CPU and RSS."""
    code = ("import sys, biomote.cli\n"
            "print('concurrent.futures' in sys.modules, 'numpy.random' in sys.modules)\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       check=True)
    assert r.stdout.split() == ["False", "False"]


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

    monkeypatch.setitem(cli.SUBCOMMANDS, "mac-cdma", (mac.CdmaRow, no_work))
    out = tmp_path / "missing" / "x.csv"
    assert main(["mac-cdma", "--out", str(out)]) == 3
    assert "runtime error" in capsys.readouterr().err
    assert not out.parent.exists()
    # an --out that names an existing directory fails the same way
    out.mkdir(parents=True)
    assert main(["mac-cdma", "--out", str(out)]) == 3
    assert "runtime error" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("subcommand", CSV_SCHEMAS)
def test_cli_help_documents_schema(capsys, subcommand):
    with pytest.raises(SystemExit) as done:
        main([subcommand, "--help"])
    assert done.value.code == 0
    assert CSV_SCHEMAS[subcommand] in capsys.readouterr().out


def test_readme_command_table_matches_schemas():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = {}
    for line in readme.splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 2:
            table[cells[0]] = cells[1]
    assert table == CSV_SCHEMAS
    assert list(table) == list(CSV_SCHEMAS)


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


@pytest.mark.parametrize("setting", ["ber_max_bits=1e13",
                                     "ber_distances_m=0.02:0.2:0.0001"])
def test_oversized_ber_budget_exits_2_before_work(tmp_path, capsys, monkeypatch, setting):
    """A bit budget past ``phy.MAX_SWEEP_BITS``, from a large cap or a long
    range, ends the run with exit 2 before any point runs."""
    def no_work(*args):
        raise AssertionError("a point ran")

    monkeypatch.setattr(phy, "ber_monte_carlo", no_work)
    out = tmp_path / "x.csv"
    assert main(["ber-sweep", "--set", setting, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ber_max_bits" in err and "ber_distances_m" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# pinned CSV digests
# ---------------------------------------------------------------------------

# The byte contract: each entry runs the CLI with its ``args`` (and its
# ``env``, and on one core if ``one_core``) and names the SHA-256 digest of
# the CSV, and ``why`` that run is pinned.  The digests rest on numpy's
# seeded streams, its bounded-integer path and its normals (see
# biomote._draws), so they hold for the numpy release named in the table.
CSV_DIGESTS = json.loads((Path(__file__).parent / "csv_digests.json").read_text())


@pytest.mark.parametrize("pin", CSV_DIGESTS["pins"], ids=lambda pin: pin["name"])
def test_pinned_csv_digest(pin, tmp_path):
    out = tmp_path / f"{pin['name']}.csv"
    # only this child is pinned, to the lowest core it may use
    one_core = (partial(os.sched_setaffinity, 0, {min(os.sched_getaffinity(0))})
                if pin.get("one_core") else None)
    r = run_cli([*pin["args"], "--out", str(out)], pin.get("env"), one_core)
    assert r.returncode == 0, r.stderr
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == pin["sha256"], (
        f"pin {pin['name']}: the CSV's SHA-256 is {digest}, the table's "
        f"{pin['sha256']} (numpy {np.__version__} here, "
        f"{CSV_DIGESTS['numpy']} when the table was recorded)")


def test_csv_digest_table_is_complete():
    """Every study is pinned at its defaults, and every entry is well formed."""
    pins = CSV_DIGESTS["pins"]
    names = [pin["name"] for pin in pins]
    assert len(set(names)) == len(names)
    required = {"name", "args", "sha256", "why"}
    at_defaults = {pin["args"][0] for pin in pins
                   if len(pin["args"]) == 1 and set(pin) == required}
    assert set(cli.SUBCOMMANDS) <= at_defaults
    for pin in pins:
        assert required <= set(pin) <= required | {"env", "one_core"}, pin["name"]
        assert re.fullmatch("[0-9a-f]{64}", pin["sha256"]), pin["name"]
        assert pin["why"].strip(), pin["name"]


# ---------------------------------------------------------------------------
# ber-sweep failures
# ---------------------------------------------------------------------------

def test_failed_ber_point_exits_2(tmp_path, capsys, monkeypatch):
    """A point that raises ValueError ends the run with exit 2 and its
    message, and writes no CSV."""
    def point(cfg, snr_db):
        raise ValueError("point failed")

    monkeypatch.setattr(phy, "ber_monte_carlo", point)
    out = tmp_path / "x.csv"
    assert main(["ber-sweep", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: point failed" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_ber_curve_failing_before_its_points_exits_2(tmp_path, capsys):
    """A curve that fails before it queues a point (unsorted distances)
    ends the run with exit 2 and writes no CSV."""
    out = tmp_path / "x.csv"
    assert main(["ber-sweep", "--out", str(out),
                 "--set", "ber_distances_m=0.06,0.05"]) == 2
    err = capsys.readouterr().err
    assert "config error: distances must be strictly ascending" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# any setting: exit codes and finite output
# ---------------------------------------------------------------------------

#: the small grid each subcommand runs on before the drawn settings
_SMALL_RUNS = {
    "link-sweep": ["link_distances_m=0.05,0.06"],
    "table1": [],
    "ber-sweep": ["ber_distances_m=0.05", "ber_trials=200", "ber_min_errors=5",
                  "ber_max_bits=2000"],
    "mac-scenario1": ["mac_read_times_s=0.02", "mac_trials=3"],
    "mac-scenario2": ["mac_read_times_s=0.02", "mac_n_motes=5,20", "mac_trials=3"],
    "mac-cdma": ["mac_n_motes=3,9", "mac_code_lens=16", "mac_trials=3",
                 "mac_packet_bytes=8"],
    "mac-compare": ["mac_n_motes=5,150", "mac_durations_slots=49", "mac_trials=3"],
}

#: values any key may be given: no number, not finite, not positive,
#: fractional, or beyond float range
_ANY_VALUES = ["x", "", "nan", "inf", "-inf", "0", "-1", "2.5", "1e400"]

#: oversized values a run does not grow with: a window past
#: ``mac.MAX_ALOHA_SLOTS``, a CDMA point past its caps, huge link and
#: packet figures, a trial count above the bit cap
_OVERSIZED = {
    "mac_read_times_s": "2e7", "mac_durations_slots": "4294967296",
    "mac_code_lens": "10000000000", "mac_packet_bytes": "100000000",
    "mac_n_motes": str(mac.MAX_CDMA_MOTES + 1), "mac_rate_bps": "1e300",
    "reader_turns": "1e300", "mote_turns": "1e300", "subcarrier_divider": "1e300",
    "ber_trials": "1e300",
}


@st.composite
def _settings(draw):
    """One ``KEY=VALUE`` for any config key: a value of _ANY_VALUES, a small
    valid one (a count up to 6, a number from 1e-3 to 1e3, or for a list two
    of them or a range), an extreme float, or the key's oversized value."""
    spec = draw(st.sampled_from(fields(RunParameters)))
    integer = "int" in spec.type
    small = (st.integers(1, 6).map(str) if integer
             else st.floats(1e-3, 1e3).map(repr))
    if spec.name == "noise_dbm":
        small = st.floats(-200, 30).map(repr)
    choices = [st.sampled_from(_ANY_VALUES), small]
    if spec.type.startswith("list"):
        choices += [st.tuples(small, small).map(",".join),
                    st.just("1:3:1"), st.just("0:1e12:1")]
    if not integer:
        choices.append(st.sampled_from(["1e300", "1e-300", "-1e300"]))
    if spec.name in _OVERSIZED:
        choices.append(st.just(_OVERSIZED[spec.name]))
    return f"{spec.name}={draw(st.one_of(choices))}"


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(subcommand=st.sampled_from(list(_SMALL_RUNS)),
       drawn=st.lists(_settings(), min_size=1, max_size=2))
# f_c / 2^n once built 2^n as an exact int, however many bits n asked for
@example(subcommand="link-sweep", drawn=["subcarrier_divider=1e300"])
@example(subcommand="table1", drawn=["subcarrier_divider=65"])
def test_any_setting_exits_0_2_or_3_with_finite_output(subcommand, drawn):
    """Through ``main``, a small run with any one or two settings exits 0,
    2 or 3, and a run that exits 0 writes only finite numbers."""
    sets = [arg for setting in _SMALL_RUNS[subcommand] + drawn
            for arg in ("--set", setting)]
    with tempfile.TemporaryDirectory() as out_dir:
        out = Path(out_dir) / "x.csv"
        rc = main([subcommand, "--seed", "7", "--out", str(out), *sets])
        assert rc in (0, 2, 3)
        assert out.exists() == (rc == 0)
        if rc == 0:
            for line in out.read_text().splitlines()[1:]:
                for cell in line.split(","):
                    try:
                        value = float(cell)
                    except ValueError:          # a scheme or code name
                        continue
                    assert math.isfinite(value), (line, drawn)

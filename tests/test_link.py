"""Inductive-link tests: closed forms against independent circuit/field oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ellipe, ellipk

from biomote.link import (
    MAX_SUBCARRIER_DIVIDER,
    MU0,
    TABLE1_CARRIERS,
    Coil,
    LinkConfig,
    SingularityError,
    ac_resistance,
    backscatter_sweep,
    check_distances,
    link_budget,
    mutual_inductance,
    reference_link_config,
    reflected_impedance,
    resonance_capacitance,
    self_inductance,
    skin_depth,
    table1_sweep,
    REFERENCE_MOTE,
    REFERENCE_READER,
)

NOISE = -105.0                  # receiver noise floor [dBm]

# coil-resistance regression targets for the fitted reference geometry
RR_TARGETS = {1e6: 5.881, 13.56e6: 19.64, 100e6: 52.13}
RB_TARGETS = {1e6: 0.7533, 13.56e6: 0.7542, 100e6: 0.8577}


# ---------------------------------------------------------------------------
# field-level oracles
# ---------------------------------------------------------------------------

def loop_mutual(a, b, z, mu=1.0):
    """Neumann-integral mutual inductance of two coaxial circular filaments
    (closed form in complete elliptic integrals)."""
    k2 = 4 * a * b / ((a + b) ** 2 + z ** 2)
    k = np.sqrt(k2)
    return mu * MU0 * np.sqrt(a * b) * ((2 / k - k) * ellipk(k2) - (2 / k) * ellipe(k2))


def neumann_coil_mutual(c1: Coil, c2: Coil, r, mu=1.0):
    """Discretize each coil into one filament loop per turn, spread evenly
    over its height, and sum pairwise loop mutuals."""
    z1 = np.linspace(-c1.coil_height / 2, c1.coil_height / 2, c1.turns)
    z2 = r + np.linspace(-c2.coil_height / 2, c2.coil_height / 2, c2.turns)
    dz = z2[None, :] - z1[:, None]
    return float(np.sum(loop_mutual(c1.loop_radius, c2.loop_radius, dz, mu)))


def filament_self_inductance(coil: Coil):
    """Filament-loop summation: pairwise Neumann mutuals between turns plus
    the round-wire self term per turn."""
    n, a = coil.turns, coil.loop_radius
    z = np.linspace(-coil.coil_height / 2, coil.coil_height / 2, n)
    self_term = n * MU0 * a * (math.log(16 * a / coil.wire_diameter) - 1.75)
    iu = np.triu_indices(n, 1)
    dz = np.abs(z[:, None] - z[None, :])[iu]
    return self_term + 2.0 * float(np.sum(loop_mutual(a, a, dz)))


def mesh_solve(config: LinkConfig, freq):
    """Independent two-mesh complex solve of the coupled loops.

    Returns (Z_in as seen by the source, P_t, P_r)."""
    w = 2 * math.pi * freq
    zr = config.coil_impedance(config.reader, freq)
    zb = config.coil_impedance(config.mote, freq) + config.effective_load()
    m = config.mutual()
    zm = 1j * w * m
    A = np.array([[zr, zm], [zm, zb]], dtype=complex)
    I = np.linalg.solve(A, np.array([config.drive_voltage, 0.0], dtype=complex))
    p_t = (config.drive_voltage * np.conj(I[0])).real
    p_r = abs(I[1]) ** 2 * config.effective_load().real
    return config.drive_voltage / I[0], p_t, p_r


# ---------------------------------------------------------------------------
# skin depth
# ---------------------------------------------------------------------------

def test_skin_depth_copper_1mhz():
    assert skin_depth(1e6, 1.68e-8) == pytest.approx(65.2e-6, rel=1e-3)


def test_skin_depth_gold_13p56mhz():
    assert skin_depth(13.56e6, 2.44e-8) == pytest.approx(21.35e-6, rel=1e-3)


def test_skin_depth_quarter_freq_scaling():
    d1 = skin_depth(2.5e6, 1.68e-8)
    d4 = skin_depth(1e7, 1.68e-8)
    assert d4 == pytest.approx(d1 / 2, rel=1e-12)


def test_skin_depth_rejects_nonpositive():
    with pytest.raises(ValueError):
        skin_depth(0.0, 1.68e-8)
    with pytest.raises(ValueError):
        skin_depth(1e6, -1.0)


@pytest.mark.parametrize("call,field", [
    pytest.param(lambda: skin_depth(math.nan, 1.68e-8), "freq", id="skin_depth-freq"),
    pytest.param(lambda: skin_depth(1e6, math.nan), "resistivity",
                 id="skin_depth-resistivity"),
    pytest.param(lambda: ac_resistance(REFERENCE_READER, math.nan), "freq",
                 id="ac_resistance-nan"),
    pytest.param(lambda: ac_resistance(REFERENCE_READER, -1e6), "freq",
                 id="ac_resistance-negative"),
    pytest.param(lambda: ac_resistance(REFERENCE_READER, math.inf), "freq",
                 id="ac_resistance-inf"),
    pytest.param(lambda: mutual_inductance(REFERENCE_READER, REFERENCE_MOTE, math.nan),
                 "separation", id="mutual_inductance-separation"),
    pytest.param(lambda: mutual_inductance(REFERENCE_READER, REFERENCE_MOTE, 0.06,
                                           math.nan),
                 "medium_mu", id="mutual_inductance-medium_mu"),
])
def test_link_functions_reject_nan(call, field):
    # a nan argument used to return nan
    with pytest.raises(ValueError, match=field):
        call()


# ---------------------------------------------------------------------------
# coil resistance
# ---------------------------------------------------------------------------

def test_dc_resistance_is_bulk_value():
    c = REFERENCE_READER
    area = math.pi * (c.wire_diameter / 2) ** 2
    assert ac_resistance(c, 0.0) == pytest.approx(c.resistivity * c.wire_length / area)


def test_ac_resistance_continuous_at_crossover():
    c = REFERENCE_MOTE
    # crossover where skin depth equals the wire radius
    f_cross = c.resistivity / (math.pi * MU0 * (c.wire_diameter / 2) ** 2)
    below = ac_resistance(c, f_cross * 0.999)
    above = ac_resistance(c, f_cross * 1.001)
    assert above == pytest.approx(below, rel=5e-3)
    assert ac_resistance(c, f_cross * 4) > above


@pytest.mark.parametrize("freq,target", sorted(RR_TARGETS.items()))
def test_reference_reader_resistance_bands(freq, target):
    assert ac_resistance(REFERENCE_READER, freq) == pytest.approx(target, rel=0.15)


@pytest.mark.parametrize("freq,target", sorted(RB_TARGETS.items()))
def test_reference_mote_resistance_bands(freq, target):
    assert ac_resistance(REFERENCE_MOTE, freq) == pytest.approx(target, rel=0.15)


# ---------------------------------------------------------------------------
# inductances
# ---------------------------------------------------------------------------

def test_self_inductance_turns_squared():
    c1 = replace(REFERENCE_READER, turns=40)
    c2 = replace(REFERENCE_READER, turns=80)
    assert self_inductance(c2) == pytest.approx(4 * self_inductance(c1))


def test_self_inductance_linear_in_core_mu():
    c1 = replace(REFERENCE_MOTE, core_rel_permeability=1.0)
    c10 = replace(REFERENCE_MOTE, core_rel_permeability=10.0)
    assert self_inductance(c10) == pytest.approx(10 * self_inductance(c1), rel=1e-12)


def test_reference_mote_self_inductance_vs_filament_oracle():
    assert self_inductance(REFERENCE_MOTE) == pytest.approx(
        filament_self_inductance(REFERENCE_MOTE), rel=0.05)


def test_mutual_reciprocity_exact():
    m1 = mutual_inductance(REFERENCE_READER, REFERENCE_MOTE, 0.04)
    m2 = mutual_inductance(REFERENCE_MOTE, REFERENCE_READER, 0.04)
    assert m1 == m2


def test_mutual_monotone_to_zero():
    ds = np.geomspace(1e-3, 10.0, 60)
    ms = [mutual_inductance(REFERENCE_READER, REFERENCE_MOTE, d) for d in ds]
    assert all(a > b for a, b in zip(ms, ms[1:]))
    assert ms[-1] < 1e-15


def test_mutual_vs_neumann_oracle_at_6cm():
    m = mutual_inductance(REFERENCE_READER, REFERENCE_MOTE, 0.06)
    oracle = neumann_coil_mutual(REFERENCE_READER, REFERENCE_MOTE, 0.06)
    assert m == pytest.approx(oracle, rel=0.05)


def test_mutual_scales_with_medium_mu():
    m1 = mutual_inductance(REFERENCE_READER, REFERENCE_MOTE, 0.06, 1.0)
    m10 = mutual_inductance(REFERENCE_READER, REFERENCE_MOTE, 0.06, 10.0)
    assert m10 == pytest.approx(10 * m1, rel=1e-12)


# ---------------------------------------------------------------------------
# reflected impedance and the mesh oracle
# ---------------------------------------------------------------------------

def test_reflected_impedance_zero_when_uncoupled():
    cfg = reference_link_config(separation=50.0)  # effectively uncoupled
    assert abs(reflected_impedance(cfg, cfg.resonance_freq)) < 1e-18


def test_reflected_impedance_open_load_limit():
    cfg = reference_link_config()
    z_matched = reflected_impedance(cfg, cfg.resonance_freq)
    z_open = reflected_impedance(replace(cfg, load_impedance=1e12), cfg.resonance_freq)
    assert abs(z_open) < abs(z_matched) * 1e-9


def test_reflected_impedance_matches_mesh_solve():
    cfg = reference_link_config(resonance_freq=1e6, subcarrier_divider=4)
    fc = cfg.resonance_freq
    zin, _, _ = mesh_solve(cfg, fc)
    closed = cfg.coil_impedance(cfg.reader, fc) + reflected_impedance(cfg, fc)
    assert abs(closed - zin) <= 0.01 * abs(zin)


def test_reflected_impedance_singularity():
    # a load that exactly cancels the mote loop resistance leaves the
    # secondary a perfect short at resonance
    cfg = reference_link_config(1e6, 4)
    cancel = -ac_resistance(cfg.mote, 1e6)
    cfg = replace(cfg, load_impedance=complex(cancel, 0.0))
    with pytest.raises(SingularityError):
        reflected_impedance(cfg, 1e6)


def test_budget_mote_loop_singularity():
    # a load of -(Z_rb + Z_b) at the carrier cancels the mote loop as the
    # budget drives it; the reader loop, Z_r + Z_br, is left only nearly
    # cancelled, so the mote guard is the one that fires
    cfg = reference_link_config(1e6, 4)
    fc = cfg.resonance_freq
    w = 2.0 * math.pi * fc
    zr = cfg.coil_impedance(cfg.reader, fc)
    zrb = (w * cfg.mutual()) ** 2 / zr
    cfg = replace(cfg, load_impedance=-(zrb + cfg.coil_impedance(cfg.mote, fc)))
    assert zr + reflected_impedance(cfg, fc) != 0
    with pytest.raises(SingularityError, match="mote loop is a lossless short at resonance"):
        link_budget(cfg, NOISE)


def test_budget_powers_match_mesh_solve():
    for fc, nd in [(1e6, 4), (13.56e6, 6)]:
        cfg = reference_link_config(fc, nd)
        b = link_budget(cfg, NOISE)
        _, p_t, p_r = mesh_solve(cfg, fc)
        p_t_closed = 1e-3 * 10 ** (b.p_tx_dbm / 10)
        pl_mesh = 10 * math.log10(p_t / p_r)
        assert p_t_closed == pytest.approx(p_t, rel=0.01)
        assert b.path_loss_db == pytest.approx(pl_mesh, abs=10 * math.log10(1.01))


# ---------------------------------------------------------------------------
# link budget regression anchors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mu,p_re,pl", [(1, -128.37, 61.14), (10, -108.38, 41.14),
                                        (50, -95.47, 27.17)])
def test_budget_1mhz_rows(mu, p_re, pl):
    b = link_budget(reference_link_config(1e6, 4, 0.06, mu), NOISE)
    assert b.p_re_dbm == pytest.approx(p_re, abs=3.0)
    assert b.path_loss_db == pytest.approx(pl, abs=3.0)


def test_budget_13p56mhz_row():
    b = link_budget(reference_link_config(13.56e6, 6, 0.06, 1.0), NOISE)
    assert b.p_re_dbm == pytest.approx(-98.82, abs=3.0)


def test_budget_monotone_in_separation():
    cfg = reference_link_config()
    prev = None
    for d in np.linspace(1e-3, 0.2, 40):
        b = link_budget(replace(cfg, separation=float(d)), NOISE)
        if prev is not None:
            assert b.p_re_dbm < prev
        prev = b.p_re_dbm


def test_path_loss_decreases_with_medium_mu():
    pls = [link_budget(reference_link_config(1e6, 4, 0.06, mu), NOISE).path_loss_db
           for mu in (1, 10, 50)]
    assert pls[0] > pls[1] > pls[2] > 0


def test_sideband_attenuation_3db_point():
    # choose a divider and carrier so that 2 Q fs/fc lands at 1 within…
    # easier: synthesize directly from the formula through a config whose Q
    # is known, then check A_s(x=1) = 3.01 by rescaling the subcarrier.
    cfg = reference_link_config(1e6, 4)
    b = link_budget(cfg, NOISE)
    q = b.quality_factor
    # find integer divider n with 2 Q / 2^n closest to 1: n = round(log2(2Q))
    n = round(math.log2(2 * q))
    b2 = link_budget(replace(cfg, subcarrier_divider=n), NOISE)
    x = 2 * q / 2 ** n
    assert b2.sideband_attenuation_db == pytest.approx(10 * math.log10(1 + x * x), abs=1e-9)
    # and the definitional 3 dB point
    assert 10 * math.log10(1 + 1.0) == pytest.approx(3.0, abs=0.1)


def test_sideband_attenuation_increases_with_q():
    # same fs/fc, mu scales L hence Q
    b1 = link_budget(reference_link_config(1e6, 4, 0.06, 1.0), NOISE)
    b10 = link_budget(reference_link_config(1e6, 4, 0.06, 10.0), NOISE)
    assert b10.quality_factor > b1.quality_factor
    assert b10.sideband_attenuation_db > b1.sideband_attenuation_db


def test_total_loss_identity():
    for fc, nd, mu in [(1e6, 4, 1), (1e6, 4, 10), (1e6, 4, 50), (13.56e6, 6, 1),
                       (13.56e6, 6, 10), (100e6, 7, 1)]:
        b = link_budget(reference_link_config(fc, nd, 0.06, mu), NOISE)
        rebuilt = b.p_tx_dbm - 2 * b.path_loss_db - b.sideband_attenuation_db
        assert b.p_re_dbm == pytest.approx(rebuilt, abs=0.1)


def test_snr_is_p_re_minus_noise():
    b = link_budget(reference_link_config(), NOISE)
    assert b.snr_db == pytest.approx(b.p_re_dbm + 105.0, abs=1e-9)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_crossover_around_6cm():
    cfg = reference_link_config()
    rows = backscatter_sweep(cfg, NOISE, [0.05, 0.06, 0.065])
    assert rows[0][1] > -100.0          # 5 cm still detectable
    assert rows[1][1] <= -100.0         # 6 cm at or below the floor
    assert rows[2][1] <= -100.0


def test_sweep_single_distance_matches_budget():
    cfg = reference_link_config()
    rows = backscatter_sweep(cfg, NOISE, [0.06])
    b = link_budget(cfg, NOISE)
    assert rows[0][1] == pytest.approx(b.p_re_dbm)
    assert rows[0][2] == pytest.approx(b.snr_db)


def test_sweep_rejects_empty_and_unsorted():
    cfg = reference_link_config()
    with pytest.raises(ValueError):
        backscatter_sweep(cfg, NOISE, [])
    with pytest.raises(ValueError):
        backscatter_sweep(cfg, NOISE, [0.06, 0.05])


def test_table1_sweep_keeps_the_configs_other_fields():
    # each point takes the carrier, divider and ferrite mu of its table
    # entry; separation, drive and load stay those of the config given
    drive_and_load = dict(drive_voltage=2.0, load_impedance=10.0)
    rows = table1_sweep(replace(reference_link_config(separation=0.05), **drive_and_load),
                        NOISE)
    points = [(fc, mu, replace(reference_link_config(fc, divider, 0.05, mu), **drive_and_load))
              for fc, mus, divider in TABLE1_CARRIERS for mu in mus]
    assert len(rows) == len(points) == 6
    for row, (fc, mu, cfg) in zip(rows, points):
        b = link_budget(cfg, NOISE)
        assert row == (fc / 1e6, mu, b.reader_resistance, b.mote_resistance, b.p_tx_dbm,
                       b.path_loss_db, b.sideband_attenuation_db, b.p_re_dbm)


@pytest.mark.parametrize("distances,message", [
    ([], "non-empty"), (iter([]), "non-empty"),
    ([0.06, 0.05], "ascending"), ([0.05, 0.05], "ascending"),
])
def test_check_distances_rejects(distances, message):
    with pytest.raises(ValueError, match=message):
        check_distances(distances)


def test_check_distances_takes_an_iterator_once():
    assert check_distances(iter([0.05, 0.06])) == [0.05, 0.06]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_coil_invariants():
    with pytest.raises(ValueError):
        Coil(turns=0, loop_radius=0.01, wire_diameter=1e-3, coil_height=0.01,
             resistivity=1.68e-8)
    with pytest.raises(ValueError):
        Coil(turns=5, loop_radius=-0.01, wire_diameter=1e-3, coil_height=0.01,
             resistivity=1.68e-8)


BAD_VALUES = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", BAD_VALUES + ["0.05"])
@pytest.mark.parametrize("field", ["turns", "loop_radius", "wire_diameter",
                                   "coil_height", "resistivity",
                                   "core_rel_permeability"])
def test_coil_rejects_non_finite(field, value):
    # a str used to raise a TypeError that named no field
    with pytest.raises(ValueError, match=field):
        replace(REFERENCE_READER, **{field: value})


@pytest.mark.parametrize("value", BAD_VALUES + ["50"])
@pytest.mark.parametrize("field", ["separation", "drive_voltage", "resonance_freq",
                                   "medium_rel_permeability", "load_impedance"])
def test_link_config_rejects_non_finite(field, value):
    # each of these, nan or infinite, used to give a budget with snr_db = nan;
    # a str used to raise a TypeError that named no field
    with pytest.raises(ValueError, match=field):
        replace(reference_link_config(), **{field: value})


@pytest.mark.parametrize("field", ["reader", "mote"])
@pytest.mark.parametrize("value", ["1", None, 0.05])
def test_link_config_rejects_non_coil(field, value):
    # reader="1" used to raise an AttributeError from the contact-gap check
    with pytest.raises(ValueError, match=f"^{field} must be a Coil"):
        replace(reference_link_config(), **{field: value})


@pytest.mark.parametrize("load", [complex(math.nan, 0.0), complex(50.0, math.inf),
                                  complex(-math.inf, 1.0)])
def test_link_config_rejects_non_finite_complex_load(load):
    with pytest.raises(ValueError, match="load_impedance"):
        replace(reference_link_config(), load_impedance=load)


@pytest.mark.parametrize("value", BAD_VALUES + [None, 1j, "x"])
def test_link_budget_rejects_non_finite_noise(value):
    # a nan or infinite floor would give a nan or infinite snr_db; 1j used
    # to give a complex snr_db, and None a TypeError that named no field
    with pytest.raises(ValueError, match="noise_dbm"):
        link_budget(reference_link_config(), value)


def test_link_budget_takes_a_complex_load():
    # the load alone may be complex: a reactance detunes the mote loop, and
    # the budget stays real
    cfg = reference_link_config()
    matched = cfg.effective_load()
    assert matched.imag == 0
    tuned, detuned = (link_budget(replace(cfg, load_impedance=matched + 1j * x), NOISE)
                      for x in (0.0, 5.0))
    assert tuned == link_budget(cfg, NOISE)
    assert type(detuned.snr_db) is float and detuned.p_re_dbm < tuned.p_re_dbm


def test_link_config_rejects_nan_divider():
    for divider in (math.nan, 2.5, 6.0, 0):
        with pytest.raises(ValueError, match="subcarrier_divider"):
            replace(reference_link_config(), subcarrier_divider=divider)


def test_link_config_caps_the_divider():
    # f_s = f_c / 2^n builds 2^n exactly: an n of 10^300 asked for
    # unbounded memory
    cfg = replace(reference_link_config(), subcarrier_divider=MAX_SUBCARRIER_DIVIDER)
    assert cfg.subcarrier_freq == 13.56e6 / 2**64
    for divider in (MAX_SUBCARRIER_DIVIDER + 1, 10**300):
        with pytest.raises(ValueError, match="subcarrier_divider must be at most 64"):
            replace(reference_link_config(), subcarrier_divider=divider)


@pytest.mark.parametrize("turns", [2.5, 81.0, 0])
def test_coil_rejects_non_integer_turns(turns):
    # Coil(turns=2.5) used to give a budget; the config parser rejects it
    with pytest.raises(ValueError, match="turns"):
        replace(REFERENCE_READER, turns=turns)


def test_counts_take_numpy_integers():
    coil = replace(REFERENCE_READER, turns=np.int64(REFERENCE_READER.turns))
    cfg = replace(reference_link_config(), reader=coil,
                  subcarrier_divider=np.int32(6))
    assert type(coil.turns) is int and type(cfg.subcarrier_divider) is int
    assert link_budget(cfg, NOISE) == link_budget(reference_link_config(), NOISE)


def test_mote_envelope_enforced():
    # the link checks its mote; the same coil may be a reader
    wide = Coil(turns=5, loop_radius=130e-6, wire_diameter=1e-5, coil_height=1e-4,
                resistivity=2.44e-8)
    tall = Coil(turns=5, loop_radius=100e-6, wire_diameter=1e-5, coil_height=3e-4,
                resistivity=2.44e-8)
    for coil, message in ((wide, "diameter"), (tall, "height")):
        with pytest.raises(ValueError, match=f"mote coil {message} exceeds 250 um envelope"):
            replace(reference_link_config(), mote=coil)
        assert replace(reference_link_config(), reader=coil).reader == coil
    # the reference mote sits exactly on the diameter envelope
    assert 2 * REFERENCE_MOTE.loop_radius <= 250e-6
    assert REFERENCE_MOTE.coil_height <= 250e-6


def test_wire_length_derived():
    c = REFERENCE_MOTE
    assert c.wire_length == pytest.approx(c.turns * 2 * math.pi * c.loop_radius)


def test_contact_distance_rejected():
    with pytest.raises(ValueError):
        reference_link_config(separation=1e-8)


def test_subcarrier_relation_exact():
    cfg = reference_link_config(13.56e6, 6)
    assert cfg.subcarrier_freq == 13.56e6 / 64


def test_resonance_capacitor_tunes_out_reactance():
    cfg = reference_link_config(1e6, 4)
    z = cfg.coil_impedance(cfg.mote, cfg.resonance_freq)
    assert abs(z.imag) < 1e-9 * abs(z.real) + 1e-12
    c = resonance_capacitance(self_inductance(cfg.mote), 1e6)
    assert c > 0

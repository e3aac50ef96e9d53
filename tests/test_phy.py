"""PHY tests: mapping contracts, channel statistics, Monte Carlo vs the
closed-form oracle."""

import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from biomote import _draws, phy
from biomote.link import reference_link_config
from biomote.phy import (
    BerEstimate,
    CodeScheme,
    Modulation,
    PhyConfig,
    awgn,
    ber_monte_carlo,
    ber_sweep,
    ber_theory,
    ber_vs_distance,
    demodulate,
    ebn0_to_channel_snr,
    modulate,
)


def mc_std_errs(est: BerEstimate, p: float) -> float:
    """How many binomial standard errors the estimate sits from p."""
    se = math.sqrt(p * (1 - p) / est.bits_simulated)
    return abs(est.ber - p) / se


# ---------------------------------------------------------------------------
# modulation / demodulation
# ---------------------------------------------------------------------------

def test_bpsk_mapping():
    assert np.allclose(modulate([0, 1], Modulation.BPSK), [-1.0, 1.0])


def test_ask_mapping():
    assert np.allclose(modulate([0, 1], Modulation.ASK), [0.0, 2.0])


def test_empty_bits_rejected():
    with pytest.raises(ValueError):
        modulate([], Modulation.BPSK)
    with pytest.raises(ValueError):
        awgn(np.empty(0), 3.0, np.random.default_rng(0))


def test_stream_energies():
    """With the pinned mappings the ASK stream carries twice the BPSK mean
    energy: 0/2 around the same mean amplitude 1.  The channel normalises
    to each stream's own energy, which is what keeps the 3 dB theory gap."""
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, size=200_000)
    e_bpsk = np.mean(modulate(bits, Modulation.BPSK) ** 2)
    e_ask = np.mean(modulate(bits, Modulation.ASK) ** 2)
    assert e_bpsk == pytest.approx(1.0, rel=1e-9)
    assert e_ask == pytest.approx(2.0, rel=0.01)
    # equal mean amplitude
    assert np.mean(np.abs(modulate(bits, Modulation.ASK))) == pytest.approx(1.0, rel=0.01)


def test_noiseless_roundtrip():
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, size=1000)
    for scheme in Modulation:
        assert np.array_equal(demodulate(modulate(bits, scheme), scheme), bits)


def test_bpsk_threshold_and_ask_tie():
    assert demodulate(np.array([-0.001]), Modulation.BPSK)[0] == 0
    assert demodulate(np.array([0.0]), Modulation.BPSK)[0] == 1
    assert demodulate(np.array([1.0]), Modulation.ASK)[0] == 1   # tie at A -> 1


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

def test_awgn_infinite_snr_passthrough():
    x = np.linspace(-1, 1, 100)
    y = awgn(x, math.inf, np.random.default_rng(0))
    assert np.array_equal(x, y)
    assert not np.shares_memory(x, y)
    with pytest.raises(ValueError, match=r"finite or \+inf"):
        awgn(x, -math.inf, np.random.default_rng(0))


def test_awgn_variance_within_one_percent():
    rng = np.random.default_rng(3)
    x = modulate(rng.integers(0, 2, size=1_000_000), Modulation.BPSK)
    snr_db = 5.0
    noise = awgn(x, snr_db, np.random.default_rng(4)) - x
    target = 1.0 / 10 ** (snr_db / 10)
    assert np.var(noise) == pytest.approx(target, rel=0.01)


def _layouts(a):
    """a (20,000 elements) in the layouts the channel must handle."""
    return [a[::3],                                        # strided view
            a.reshape(100, 200).T]                         # Fortran order


def _awgn_inputs():
    bits = np.random.default_rng(5).integers(0, 2, size=20_000)
    streams = [modulate(bits, scheme) for scheme in Modulation]
    return streams + [
        _layouts(streams[0])[0],
        _layouts(streams[1])[1],
        np.random.default_rng(7).normal(size=(40, 50)),    # non-integer energy
        # non-integer in Fortran order, whose mean square differs in the
        # last bit when summed in C order
        np.random.default_rng(23).normal(size=(50, 40)).T,
    ]


@pytest.mark.parametrize("case", range(6))
@pytest.mark.parametrize("snr_db", [-3.0, 4.0, 12.5])
def test_awgn_bit_identical_to_normal_draw(case, snr_db):
    """awgn is symbols + rng.normal(0, sigma) to the last bit, in every array
    layout, and leaves the generator where that draw leaves it."""
    symbols = _awgn_inputs()[case]
    ref_rng = np.random.default_rng(6)
    sigma = math.sqrt(float(np.mean(symbols ** 2)) / 10.0 ** (snr_db / 10.0))
    ref = symbols + ref_rng.normal(0.0, sigma, size=symbols.shape)
    rng = np.random.default_rng(6)
    out = awgn(symbols, snr_db, rng)
    assert out.dtype == np.float64
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(symbols, _awgn_inputs()[case])   # input untouched


@pytest.mark.parametrize("case", range(6))
@pytest.mark.parametrize("snr_db", [-3.0, 4.0, 12.5])
def test_awgn_energy_of_own_mean_changes_nothing(case, snr_db):
    """Passing the input's own mean square as ``energy`` gives the bits and
    the generator state of the call that computes it."""
    symbols = _awgn_inputs()[case]
    ref_rng = np.random.default_rng(6)
    ref = awgn(symbols, snr_db, ref_rng)
    energy = float(np.mean(np.square(symbols)))
    rng = np.random.default_rng(6)
    out = awgn(symbols, snr_db, rng, energy=energy)
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(symbols, _awgn_inputs()[case])


def test_awgn_rejects_bad_energy():
    x = modulate(np.ones(100), Modulation.BPSK)
    for energy in (-1.0, math.nan, math.inf, 1j, "x"):
        with pytest.raises(ValueError, match="energy"):
            awgn(x, 3.0, np.random.default_rng(0), energy=energy)


@pytest.mark.parametrize("scheme", list(Modulation))
# shorter than one tile, whole tiles, and a short last tile
@pytest.mark.parametrize("size", [phy._TILE - 5, 2 * phy._TILE, 3 * phy._TILE + 123])
def test_tiled_awgn_equals_whole_chunk(scheme, size):
    """Tile by tile with the chunk's energy, the channel gives the bits and
    the generator state of one call over the whole chunk."""
    bits = np.random.default_rng(size).integers(0, 2, size=size).astype(np.uint8)
    tx = modulate(bits, scheme)
    ref_rng = np.random.default_rng(9)
    whole = awgn(tx, 2.5, ref_rng)
    energy = phy._chunk_energy(bits, scheme)
    rng = np.random.default_rng(9)
    tiled = np.concatenate([awgn(tx[start:start + phy._TILE], 2.5, rng, energy=energy)
                            for start in range(0, size, phy._TILE)])
    assert np.array_equal(tiled.view(np.uint64), whole.view(np.uint64))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("scheme", list(Modulation))
def test_chunk_energy_exact(scheme):
    """The chunk energy is the float64 mean square of the modulated chunk to
    the last bit, at every size and density of ones."""
    rng = np.random.default_rng(10)
    sizes = [1, 2, 3, 7, 11, 15, 155, 1000, 4097, phy._TILE + 1,
             272_715, phy._CHUNK_CAP - 120]
    for size in sizes:
        for density in (0.0, 0.003, 0.1, 1 / 3, 0.5, 0.77, 0.999, 1.0):
            bits = (rng.random(size) < density).astype(np.uint8)
            energy = phy._chunk_energy(bits, scheme)
            expected = float(np.mean(np.square(modulate(bits, scheme))))
            assert type(energy) is float
            assert energy == expected, (size, density)


def test_awgn_deterministic_per_seed():
    x = np.ones(1000)
    a = awgn(x, 3.0, np.random.default_rng(42))
    b = awgn(x, 3.0, np.random.default_rng(42))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# theory oracle
# ---------------------------------------------------------------------------

def test_ber_theory_bpsk_at_0db():
    assert ber_theory(Modulation.BPSK, 0.0) == pytest.approx(0.0786, abs=2e-4)


def test_ber_theory_ask_gap():
    for e in np.linspace(-2, 10, 13):
        assert ber_theory(Modulation.ASK, e) >= ber_theory(Modulation.BPSK, e)
        # the on-off scheme at equal average power is exactly 3 dB behind
        assert ber_theory(Modulation.ASK, e + 10 * math.log10(2)) == pytest.approx(
            ber_theory(Modulation.BPSK, e), rel=1e-9)


def test_ber_theory_vanishes():
    assert ber_theory(Modulation.BPSK, 60.0) < 1e-30


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ebn0_db", [0.0, 2.0, 4.0, 6.0, 8.0])
@pytest.mark.parametrize("modulation, seed", [(Modulation.BPSK, 99),
                                              (Modulation.ASK, 98)],
                         ids=["bpsk", "ask"])
def test_uncoded_matches_theory(modulation, seed, ebn0_db):
    cfg = PhyConfig(modulation=modulation, trials=200_000, min_errors=200, seed=seed)
    est = ber_monte_carlo(cfg, ebn0_to_channel_snr(ebn0_db))
    assert mc_std_errs(est, ber_theory(modulation, ebn0_db)) <= 3.0


def test_high_snr_error_free():
    cfg = PhyConfig(trials=10_000, min_errors=1, max_bits=10_000, seed=1)
    est = ber_monte_carlo(cfg, 60.0)
    assert est.ber == 0.0
    assert est.low_confidence        # budget exhausted without min_errors


def test_determinism_bit_identical():
    cfg = PhyConfig(trials=50_000, min_errors=50, seed=7)
    a = ber_monte_carlo(cfg, 6.0)
    b = ber_monte_carlo(cfg, 6.0)
    assert a == b


def test_coding_gain_at_7db():
    """At Eb/N0 = 7 dB both codes beat uncoded BPSK, with the rate penalty
    charged per information bit."""
    base = PhyConfig(trials=400_000, min_errors=150, seed=5)
    uncoded = ber_monte_carlo(base, ebn0_to_channel_snr(7.0))
    for code in (CodeScheme.HAMMING_15_11, CodeScheme.RS_31_26):
        cfg = PhyConfig(code=code, trials=400_000, min_errors=150, seed=5)
        coded = ber_monte_carlo(cfg, ebn0_to_channel_snr(7.0, code))
        assert coded.ber <= uncoded.ber


def test_ber_monotone_in_snr():
    cfg = PhyConfig(trials=150_000, min_errors=150, seed=11)
    bers = [ber_monte_carlo(cfg, s).ber for s in (1.0, 4.0, 7.0, 10.0)]
    assert all(a >= b for a, b in zip(bers, bers[1:]))


def test_ber_vs_distance_band_properties():
    link = reference_link_config()
    noise = -105.0
    cfg = PhyConfig(trials=60_000, min_errors=60, max_bits=400_000, seed=21)
    curve = list(ber_vs_distance(link, noise, cfg, [0.05, 0.06, 0.07]))
    assert [row[:3] for row in curve] == [(d, "bpsk", "none") for d in (0.05, 0.06, 0.07)]
    bers = [row[3] for row in curve]
    assert bers[0] <= bers[1] <= bers[2]
    assert bers[2] > 0.01            # far side of the range is unusable


def test_ber_vs_distance_points_worker_independent():
    """Each sweep point derives its own seed from (master, index): computing
    a point alone must reproduce the full sweep's value at that index."""
    link = reference_link_config()
    noise = -105.0
    cfg = PhyConfig(trials=30_000, min_errors=30, max_bits=200_000, seed=77)
    full = list(ber_vs_distance(link, noise, cfg, [0.055, 0.06, 0.065]))
    from biomote._draws import sub_seed
    from biomote.phy import ber_monte_carlo as mc
    from biomote.link import link_budget
    from dataclasses import replace
    b = link_budget(replace(link, separation=0.06), noise)
    alone = mc(replace(cfg, seed=sub_seed(77, 1)),
               b.snr_db + 10 * math.log10(2))
    assert (alone.ber, alone.bits_simulated) == full[1][3:]


def test_ber_vs_distance_mapper_changes_no_point():
    """Points run through a thread pool, or in reverse order, give the
    curve of the builtin map."""
    link = reference_link_config()
    noise = -105.0
    cfg = PhyConfig(trials=20_000, min_errors=20, max_bits=100_000, seed=78)
    distances = [0.05, 0.055, 0.06, 0.065]
    serial = list(ber_vs_distance(link, noise, cfg, distances))

    def backwards(fn, *iterables):
        return reversed([fn(*args) for args in reversed(list(zip(*iterables)))])

    with ThreadPoolExecutor(max_workers=3) as pool:
        pooled = list(ber_vs_distance(link, noise, cfg, distances,
                                      mapper=pool.map))
    assert pooled == serial
    assert list(ber_vs_distance(link, noise, cfg, distances,
                                mapper=backwards)) == serial


def test_ber_vs_distance_maps_every_point_before_a_row_is_read():
    """The call hands all points to ``mapper`` at once, in distance order,
    and returns before any row is read: a caller can queue several curves
    on one pool before it waits for the first."""
    link = reference_link_config()
    noise = -105.0
    cfg = PhyConfig(trials=2_000, min_errors=5, max_bits=10_000, seed=79)
    distances = [0.05, 0.055, 0.06]
    calls = []

    def recording(fn, cfgs, snrs):
        calls.append((list(cfgs), list(snrs)))
        return map(fn, calls[-1][0], calls[-1][1])

    rows = ber_vs_distance(link, noise, cfg, distances, mapper=recording)
    assert len(calls) == 1
    cfgs, snrs = calls[0]
    assert [c.seed for c in cfgs] == [_draws.sub_seed(79, i) for i in range(3)]
    assert snrs == [phy.link_budget(replace(link, separation=d), noise).snr_db
                    + phy.LINK_SNR_TO_CHANNEL_DB for d in distances]
    assert [row[0] for row in rows] == distances
    assert len(calls) == 1


BER_PAIRS = [(Modulation.ASK, CodeScheme.NONE), (Modulation.BPSK, CodeScheme.NONE),
             (Modulation.BPSK, CodeScheme.HAMMING_15_11), (Modulation.BPSK, CodeScheme.RS_31_26)]

#: a stopping policy small enough for a test of the whole sweep
SMALL_POLICY = dict(trials=2_000, min_errors=20, max_bits=20_000)


def serial_curves(link, noise, distances, seed):
    """The rows of ASK, BPSK, BPSK+Hamming and BPSK+RS curves, curve k
    seeded ``seed + k``, each run by the builtin map."""
    return [row for k, (mod, code) in enumerate(BER_PAIRS)
            for row in ber_vs_distance(link, noise, PhyConfig(mod, code, seed=seed + k,
                                                              **SMALL_POLICY), distances)]


def test_ber_sweep_is_four_seeded_curves(monkeypatch):
    """``ber_sweep`` gives the rows of ASK, BPSK, BPSK+Hamming and BPSK+RS
    curves, curve k seeded ``seed + k``, curve after curve.  All four
    curves share one pool's ``map`` and are queued before a row is read,
    and the distances are taken once, so an iterator serves all four."""
    link = reference_link_config()
    noise = -105.0
    distances = [0.05, 0.06]
    expected = serial_curves(link, noise, distances, 40)
    curve = phy.ber_vs_distance
    events = []

    def recording(link, noise_dbm, cfg, distances, mapper):
        events.append(("queue", mapper))
        rows = curve(link, noise_dbm, cfg, distances, mapper)

        def read():
            events.append(("read", None))
            yield from rows
        return read()

    monkeypatch.setattr(phy, "ber_vs_distance", recording)
    assert ber_sweep(link, noise, iter(distances), seed=40, **SMALL_POLICY) == expected
    assert [kind for kind, _ in events] == ["queue"] * 4 + ["read"] * 4
    mappers = [mapper for _, mapper in events[:4]]
    assert isinstance(mappers[0].__self__, ThreadPoolExecutor)
    assert all(mapper == mappers[0] for mapper in mappers)     # one pool's map


@pytest.mark.parametrize("cores", [1, 4])
def test_ber_sweep_rows_independent_of_core_count(monkeypatch, cores):
    """On one worker or on four, and with the interpreter switching threads
    as often as it can, the points give the rows of a serial loop over the
    curves, in curve order, and none runs on the calling thread."""
    link = reference_link_config()
    noise = -105.0
    distances = [0.05, 0.065]
    serial = serial_curves(link, noise, distances, 31)
    workers = set()
    point = phy.ber_monte_carlo

    def recording(*args):
        workers.add(threading.get_ident())
        return point(*args)

    monkeypatch.setattr(phy, "ber_monte_carlo", recording)
    monkeypatch.setattr(phy, "_usable_cores", lambda: cores)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)          # switch threads as often as it can
    try:
        rows = ber_sweep(link, noise, distances, seed=31, **SMALL_POLICY)
    finally:
        sys.setswitchinterval(interval)
    assert rows == serial
    assert threading.get_ident() not in workers
    assert 1 <= len(workers) <= cores


def test_ber_sweep_queues_points_in_scheme_and_distance_order(monkeypatch):
    """One worker takes the points of every curve in the order of the rows:
    each curve queues its points only after the curve before it."""
    distances = [0.05, 0.065]
    order = []

    def point(cfg, snr_db):
        order.append((cfg.code, snr_db))
        time.sleep(0.002)                # let later curves try to jump ahead
        return BerEstimate(ber=0.0, bits_simulated=1, errors=0, low_confidence=False)

    monkeypatch.setattr(phy, "ber_monte_carlo", point)
    monkeypatch.setattr(phy, "_usable_cores", lambda: 1)
    rows = ber_sweep(reference_link_config(), -105.0, distances, seed=31, **SMALL_POLICY)
    assert [code for code, _ in order] == [CodeScheme(row[2]) for row in rows]
    assert len(order) == 4 * len(distances)
    for k in range(4):
        snrs = [snr for _, snr in order[2 * k:2 * k + 2]]
        assert snrs == sorted(snrs, reverse=True)    # nearer point first


def test_failed_ber_point_cancels_the_rest(monkeypatch):
    """A point that raises ends the sweep with its error, and the points
    not yet started never run."""
    started = []

    def point(cfg, snr_db):
        started.append((cfg.modulation, snr_db))
        if cfg.modulation is Modulation.ASK and len(started) == 1:
            raise ValueError("point failed")
        time.sleep(0.2)
        return BerEstimate(ber=0.0, bits_simulated=1, errors=0, low_confidence=False)

    monkeypatch.setattr(phy, "ber_monte_carlo", point)
    monkeypatch.setattr(phy, "_usable_cores", lambda: 1)
    with pytest.raises(ValueError, match="point failed"):
        ber_sweep(reference_link_config(), -105.0, [0.045, 0.05, 0.055, 0.06, 0.065, 0.07],
                  seed=31, **SMALL_POLICY)
    # the one worker may take the second point before the pool shuts down
    assert 1 <= len(started) <= 2


def test_ber_sweep_bit_budget_cap(monkeypatch):
    """``max_bits`` summed over every point of the four curves may reach
    ``MAX_SWEEP_BITS`` but not pass it; past it no point runs."""
    def point(cfg, snr_db):
        return BerEstimate(ber=0.0, bits_simulated=cfg.max_bits, errors=0,
                           low_confidence=True)

    monkeypatch.setattr(phy, "ber_monte_carlo", point)
    link = reference_link_config()
    policy = dict(trials=1, min_errors=0, seed=1)
    at_cap = phy.MAX_SWEEP_BITS // 8
    assert len(ber_sweep(link, -105.0, [0.05, 0.06], max_bits=at_cap, **policy)) == 8

    def no_work(*args):
        raise AssertionError("a point ran")

    monkeypatch.setattr(phy, "ber_monte_carlo", no_work)
    with pytest.raises(ValueError, match="ber_max_bits=.*ber_distances_m"):
        ber_sweep(link, -105.0, [0.05, 0.06], max_bits=at_cap + 1, **policy)


def test_ber_vs_distance_rejects_unsorted():
    link = reference_link_config()
    with pytest.raises(ValueError):
        ber_vs_distance(link, -105.0, PhyConfig(),
                        [0.06, 0.05])


def test_ber_vs_distance_rejects_empty_before_any_point():
    """No distances is an error, as for ``backscatter_sweep``, raised by the
    call itself before ``mapper`` sees a point."""
    def no_work(*args):
        raise AssertionError("a point was mapped")

    for distances in ([], iter([])):
        with pytest.raises(ValueError, match="non-empty"):
            ber_vs_distance(reference_link_config(), -105.0,
                            PhyConfig(), distances, mapper=no_work)


def test_ber_vs_distance_rows_name_the_scheme():
    """Each row carries the modulation and code values of ``cfg``."""
    cfg = PhyConfig(modulation=Modulation.ASK, code=CodeScheme.RS_31_26,
                    trials=1_000, min_errors=1, max_bits=2_000, seed=80)
    [row] = ber_vs_distance(reference_link_config(),
                            -105.0, cfg, [0.06])
    assert row[:3] == (0.06, "ask", "rs31_26")
    assert isinstance(row[3], float) and isinstance(row[4], int)


def test_phyconfig_validation():
    with pytest.raises(ValueError):
        PhyConfig(trials=0)
    with pytest.raises(ValueError):
        PhyConfig(trials=100, max_bits=10)
    with pytest.raises(ValueError):
        PhyConfig(min_errors=-5)
    assert PhyConfig(min_errors=0).min_errors == 0
    # trials=nan used to pass and simulate 524,000 bits; each now fails
    # naming its field
    for field, value in [("trials", math.nan), ("trials", 2.5),
                         ("min_errors", math.nan), ("max_bits", math.inf),
                         ("max_bits", 2e6), ("seed", 1.5), ("seed", -1)]:
        with pytest.raises(ValueError, match=field):
            PhyConfig(**{field: value})


def test_phyconfig_takes_enum_values():
    # modulation="bpsk" used to simulate ASK (BER 0.10275 at 5 dB, against
    # 0.037 for Modulation.BPSK), and code="1" failed later with a KeyError
    cfg = PhyConfig(modulation="bpsk", code="rs31_26", trials=2_000,
                    max_bits=2_000)
    assert cfg.modulation is Modulation.BPSK and cfg.code is CodeScheme.RS_31_26
    enums = PhyConfig(modulation=Modulation.BPSK, code=CodeScheme.RS_31_26,
                      trials=2_000, max_bits=2_000)
    assert ber_monte_carlo(cfg, 5.0) == ber_monte_carlo(enums, 5.0)
    for field, value in [("modulation", "1"), ("modulation", "BPSK"),
                         ("modulation", CodeScheme.NONE), ("code", "1"),
                         ("code", None), ("code", Modulation.ASK)]:
        with pytest.raises(ValueError, match=f"^{field} must be one of"):
            PhyConfig(**{field: value})


@pytest.mark.parametrize("as_value", [False, True], ids=["enum", "str"])
@pytest.mark.parametrize("scheme", list(Modulation))
def test_modulation_functions_take_enum_values(scheme, as_value):
    # ber_theory("bpsk", 5.0) used to give ASK's 0.03768, and
    # demodulate([0.5, -0.5], "bpsk") to slice at ASK's midpoint
    bpsk = scheme is Modulation.BPSK
    given = scheme.value if as_value else scheme
    assert modulate([0, 1, 1], given).tolist() == ([-1.0, 1.0, 1.0] if bpsk
                                                   else [0.0, 2.0, 2.0])
    assert demodulate([0.5, -0.5, 1.0], given).tolist() == ([1, 0, 1] if bpsk
                                                             else [0, 0, 1])
    ebn0 = 10.0 ** 0.5
    assert ber_theory(given, 5.0) == 0.5 * math.erfc(math.sqrt(ebn0 if bpsk
                                                               else ebn0 / 2))


@pytest.mark.parametrize("as_value", [False, True], ids=["enum", "str"])
@pytest.mark.parametrize("code", list(CodeScheme))
def test_channel_snr_takes_code_values(code, as_value):
    # ebn0_to_channel_snr(5.0, "hamming15_11") used to raise AttributeError
    given = code.value if as_value else code
    assert ebn0_to_channel_snr(5.0, given) == 5.0 + 10.0 * math.log10(2.0 * code.rate)


@pytest.mark.parametrize("call", [
    lambda: modulate([0, 1], "qam"),
    lambda: demodulate([0.5, -0.5], "BPSK"),
    lambda: ber_theory(CodeScheme.NONE, 5.0),
    lambda: ebn0_to_channel_snr(5.0, "hamming7_4"),
], ids=["modulate", "demodulate", "ber_theory", "ebn0_to_channel_snr"])
def test_scheme_functions_reject_unknown_schemes(call):
    # modulate([0, 1], "qam") used to map as ASK, to [0, 2]
    with pytest.raises(ValueError, match="is not a valid"):
        call()


@pytest.mark.parametrize("code,rate", [(CodeScheme.NONE, 1.0),
                                       (CodeScheme.HAMMING_15_11, 11 / 15),
                                       (CodeScheme.RS_31_26, 26 / 31)])
def test_code_scheme_rate(code, rate):
    # the one statement of each code's rate: information over coded bits
    assert code.rate == rate


def test_phyconfig_takes_numpy_counts():
    cfg = PhyConfig(trials=np.int64(1_000), min_errors=np.int32(5),
                    max_bits=np.uint32(4_000), seed=np.uint64(3))
    for name in ("trials", "min_errors", "max_bits", "seed"):
        assert type(getattr(cfg, name)) is int
    plain = PhyConfig(trials=1_000, min_errors=5, max_bits=4_000, seed=3)
    assert ber_monte_carlo(cfg, 4.0) == ber_monte_carlo(plain, 4.0)


@pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf, None, 1j, "x"])
def test_ber_monte_carlo_rejects_non_finite_snr(snr_db):
    # these used to fail in _snr_key with a ValueError, an OverflowError or
    # a TypeError that did not name the input
    with pytest.raises(ValueError, match="snr_db"):
        ber_monte_carlo(PhyConfig(trials=100, max_bits=1_000), snr_db)


# (modulation, code, channel snr_db) -> (errors, bits_simulated) with the
# PhyConfig of test_seeded_stream_pinned.  Recorded from the int64-matmul
# codecs; any change to a random draw, the chunk schedule or a codec's bits
# moves these.  Points that stop on min_errors past the trials floor (ASK
# uncoded at 11 dB, BPSK uncoded at 7 dB) and points that run to the bit cap
# (every 14 dB point) are both present.
PINNED_STREAM = {
    ("ask", "none", 2.0): (3701, 20000),
    ("ask", "none", 7.0): (1094, 20000),
    ("ask", "none", 11.0): (310, 50000),
    ("ask", "none", 14.0): (50, 300000),
    ("ask", "hamming15_11", 2.0): (8487, 39996),
    ("ask", "hamming15_11", 7.0): (1756, 39996),
    ("ask", "hamming15_11", 11.0): (201, 300003),
    ("ask", "hamming15_11", 14.0): (0, 300003),
    ("ask", "rs31_26", 2.0): (7490, 39780),
    ("ask", "rs31_26", 7.0): (2246, 39780),
    ("ask", "rs31_26", 11.0): (361, 249080),
    ("ask", "rs31_26", 14.0): (0, 300040),
    ("bpsk", "none", 2.0): (2133, 20000),
    ("bpsk", "none", 7.0): (625, 50000),
    ("bpsk", "none", 11.0): (51, 300000),
    ("bpsk", "none", 14.0): (0, 300000),
    ("bpsk", "hamming15_11", 2.0): (4382, 39996),
    ("bpsk", "hamming15_11", 7.0): (349, 129987),
    ("bpsk", "hamming15_11", 11.0): (0, 300003),
    ("bpsk", "hamming15_11", 14.0): (0, 300003),
    ("bpsk", "rs31_26", 2.0): (4258, 39780),
    ("bpsk", "rs31_26", 7.0): (442, 69680),
    ("bpsk", "rs31_26", 11.0): (0, 300040),
    ("bpsk", "rs31_26", 14.0): (0, 300040),
}


@pytest.mark.parametrize("mod,code,snr_db", sorted(PINNED_STREAM))
def test_seeded_stream_pinned(mod, code, snr_db):
    """The seeded Monte Carlo gives exactly the recorded counts, so a faster
    codec or channel cannot change a draw or a decoded bit unnoticed."""
    cfg = PhyConfig(modulation=Modulation(mod), code=CodeScheme(code),
                    trials=20_000, min_errors=300, max_bits=300_000, seed=2024)
    est = ber_monte_carlo(cfg, snr_db)
    assert (est.errors, est.bits_simulated) == PINNED_STREAM[(mod, code, snr_db)]
    assert type(est.errors) is int and type(est.low_confidence) is bool
    assert est.low_confidence == (est.errors < cfg.min_errors)


@pytest.mark.parametrize("code", list(CodeScheme))
def test_bit_cap_overshoot_below_one_codeword(code):
    """Whole codewords are simulated, so a capped run stops within k - 1
    bits past max_bits (documented, not clamped: clamping moves CSVs)."""
    k = {CodeScheme.NONE: 1000, CodeScheme.HAMMING_15_11: 11,
         CodeScheme.RS_31_26: 130}[code]
    cfg = PhyConfig(code=code, trials=10_000, min_errors=10**9,
                    max_bits=123_457, seed=3)
    est = ber_monte_carlo(cfg, 3.0)
    assert est.low_confidence
    assert cfg.max_bits <= est.bits_simulated < cfg.max_bits + k
    assert est.bits_simulated % k == 0


def test_repeat_run_reuses_chunk_buffers():
    """A repeated run maps no fresh pages for its samples: 10 Hamming chunks
    of 18,181 blocks, the largest chunk of a default ber-sweep, each in 9
    tiles whose tx and rx arrays the allocator hands back from the tiles
    freed before them (with whole-chunk tx and rx arrays, glibc's allocator
    took about 14,000 minor faults on this run)."""
    resource = pytest.importorskip("resource")
    cfg = PhyConfig(code=CodeScheme.HAMMING_15_11, trials=200_000,
                    max_bits=2_000_000, min_errors=10**9, seed=5)
    first = ber_monte_carlo(cfg, 6.0)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    second = ber_monte_carlo(cfg, 6.0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert second == first
    assert faults < 1000


def _recording_chunks_and_tiles(monkeypatch):
    """Lists that fill with the samples of each Monte Carlo chunk and of each
    tile modulated, as ber_monte_carlo runs."""
    chunks, tiles = [], []

    def recording_run_blocks(cfg, snr_db, n_blocks, rng):
        chunks.append(n_blocks * phy._CODECS[cfg.code].n)
        return run_blocks(cfg, snr_db, n_blocks, rng)

    def recording_modulate(bits, scheme):
        tiles.append(bits.size)
        return modulate(bits, scheme)

    run_blocks = phy._run_blocks
    monkeypatch.setattr(phy, "_run_blocks", recording_run_blocks)
    monkeypatch.setattr(phy, "modulate", recording_modulate)
    return chunks, tiles


def test_workspace_bounded_and_order_free(monkeypatch):
    """Estimates do not depend on which chunk sizes ran before, and a point
    with more samples than the chunk cap runs in chunks of at most the cap,
    each in tiles of at most one tile size."""
    points = {
        # 40,000 Hamming blocks = 600,000 samples, past the cap: chunks of
        # 34,952 blocks (524,280 samples) and 5,048 blocks
        "above": PhyConfig(code=CodeScheme.HAMMING_15_11, trials=440_000,
                           min_errors=1, max_bits=440_000, seed=1),
        "small": PhyConfig(trials=3_000, min_errors=1, max_bits=3_000, seed=2),
        # 18,181 Hamming blocks = 272,715 samples, the largest default chunk
        "default": PhyConfig(code=CodeScheme.HAMMING_15_11, trials=200_000,
                             min_errors=1, max_bits=200_000, seed=3),
    }
    chunks, tiles = _recording_chunks_and_tiles(monkeypatch)
    forward = {name: ber_monte_carlo(points[name], 4.0)
               for name in ["above", "small", "default"]}
    backward = {name: ber_monte_carlo(points[name], 4.0)
                for name in ["default", "small", "above"]}
    assert forward == backward
    assert forward["above"].bits_simulated // 11 * 15 > phy._CHUNK_CAP
    assert max(chunks) == 34_952 * 15 <= phy._CHUNK_CAP
    assert sum(chunks) == sum(tiles)
    assert all(0 < size <= phy._TILE for size in tiles)


def test_uncoded_chunks_fit_the_workspace(monkeypatch):
    """A long uncoded point (k = n = 1000) runs in chunks of at most the
    cap, not in 2,000,000-sample chunks, and each chunk in tiles."""
    chunks, tiles = _recording_chunks_and_tiles(monkeypatch)
    cfg = PhyConfig(code=CodeScheme.NONE, trials=2_000_000, min_errors=0,
                    max_bits=2_000_000, seed=4)
    est = ber_monte_carlo(cfg, 6.0)
    assert est.bits_simulated == 2_000_000
    assert sum(chunks) == sum(tiles) == 2_000_000
    assert all(0 < size <= phy._CHUNK_CAP for size in chunks)
    assert all(0 < size <= phy._TILE for size in tiles)


# ---------------------------------------------------------------------------
# exact Hamming(15,11) oracle
# ---------------------------------------------------------------------------

def hamming_error_moments() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each channel error weight w = 0..15: the number of patterns, and
    the sums over them of decoded information-bit errors and of its square.

    The code is linear and the decoder works on syndromes, so decoding
    codeword + e errs in exactly the bits where decoding e alone does; all
    2^15 patterns e on the zero word give the exact statistics."""
    from biomote.fec import hamming_decode
    patterns = ((np.arange(1 << 15)[:, None] >> np.arange(15)) & 1).astype(np.uint8)
    weight = patterns.sum(axis=1)
    info_errors = hamming_decode(patterns)[0].sum(axis=1).astype(np.int64)
    count = np.bincount(weight, minlength=16)
    first = np.bincount(weight, weights=info_errors, minlength=16)
    second = np.bincount(weight, weights=info_errors ** 2, minlength=16)
    return count, first, second


def test_hamming_error_moments_structure():
    count, first, second = hamming_error_moments()
    assert list(count) == [math.comb(15, w) for w in range(16)]
    assert first[0] == first[1] == 0            # single errors are corrected
    # perfect code: each codeword owns 16 words, and the 2^11 codewords carry
    # 11 * 2^10 message ones between them
    assert first.sum() == 16 * 11 * 2 ** 10
    assert (second >= first).all()


@pytest.mark.parametrize("mod", list(Modulation))
# up to 8 dB, where even BPSK leaves ~150 failed blocks in 40,000, so the
# normal approximation behind the 3-sigma band holds
@pytest.mark.parametrize("snr_db", [0.0, 2.0, 4.0, 6.0, 8.0])
def test_hamming_monte_carlo_matches_exact_oracle(mod, snr_db):
    """Hard decisions make the channel a BSC with crossover p = Q(sqrt(g))
    (BPSK) or Q(sqrt(g/2)) (ASK); the decoded BER is then the polynomial
    sum_w E_w p^w (1-p)^(15-w) / 11.  The Monte Carlo lies within 3 sigma,
    sigma from the exact per-block variance of the error count."""
    count, first, second = hamming_error_moments()
    gamma = 10.0 ** (snr_db / 10.0)
    arg = gamma if mod is Modulation.BPSK else gamma / 2.0
    p = 0.5 * math.erfc(math.sqrt(arg / 2.0))
    w = np.arange(16)
    prob = p ** w * (1.0 - p) ** (15 - w)         # one pattern of weight w
    mean_block = float(np.sum(prob * first))
    var_block = float(np.sum(prob * second)) - mean_block ** 2
    cfg = PhyConfig(modulation=mod, code=CodeScheme.HAMMING_15_11,
                    trials=440_000, min_errors=1, max_bits=440_000, seed=13)
    est = ber_monte_carlo(cfg, snr_db)
    blocks = est.bits_simulated // 11
    assert blocks == 40_000
    exact = mean_block / 11
    sigma = math.sqrt(var_block / blocks) / 11
    assert abs(est.ber - exact) <= 3 * sigma, (est.ber, exact, sigma)


# ---------------------------------------------------------------------------
# RS(31,26) hard-decision law
# ---------------------------------------------------------------------------

# from 8.5 dB up, words with four or more wrong symbols are under a sixth
# as common as words with three, so the law's bracket is narrow
@pytest.mark.parametrize("snr_db", [8.5, 9.0, 9.5, 10.0])
def test_rs_monte_carlo_matches_hard_decision_law(snr_db):
    """BPSK hard decisions make each 5-bit symbol err independently with
    q = 1 - (1-p)^5, p = Q(sqrt(g)).  RS(31,26) has d = 6: a word with at
    most two wrong symbols is corrected, and one with three lies at distance
    3 or more from every other codeword, so it is flagged and passed raw,
    with 3 (26/31) 5p/q wrong information bits expected (a wrong symbol is
    a message symbol with probability 26/31 and has 5p/q wrong bits on
    average).  A word with w >= 4 wrong symbols leaves between 0 and
    5 min(26, w + 2) wrong information bits, a miscorrection changing at
    most two more symbols.  The Monte Carlo lies within 3 sigma of that
    bracket, sigma from an upper bound of the per-block second moment."""
    gamma = 10.0 ** (snr_db / 10.0)
    p = 0.5 * math.erfc(math.sqrt(gamma / 2.0))
    q = 1.0 - (1.0 - p) ** 5
    w = np.arange(32)
    weight = np.array([math.comb(31, k) for k in w]) * q ** w * (1.0 - q) ** (31 - w)
    assert weight[4:].sum() < weight[3] / 6
    # B, the wrong bits of a wrong symbol, is binomial(5, p) given B >= 1;
    # J, the message symbols among three wrong ones, is hypergeometric
    mean_b = 5 * p / q
    second_b = (5 * p * (1 - p) + (5 * p) ** 2) / q
    mean_j, falling_j = 3 * 26 / 31, 3 * 2 * 26 * 25 / (31 * 30)    # E[J], E[J(J-1)]
    cap = 5 * np.minimum(26, w[4:] + 2)
    low = weight[3] * mean_j * mean_b
    high = low + float(np.sum(weight[4:] * cap))
    second = (weight[3] * (mean_j * second_b + falling_j * mean_b ** 2)
              + float(np.sum(weight[4:] * cap ** 2.0)))
    blocks = 60_000
    cfg = PhyConfig(code=CodeScheme.RS_31_26, trials=130 * blocks, min_errors=1,
                    max_bits=130 * blocks, seed=17)
    est = ber_monte_carlo(cfg, snr_db)
    assert est.bits_simulated == 130 * blocks
    sigma = math.sqrt((second - low ** 2) / blocks) / 130
    assert low / 130 - 3 * sigma <= est.ber <= high / 130 + 3 * sigma, \
        (est.ber, low / 130, high / 130, sigma)

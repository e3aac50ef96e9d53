"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured values at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report lines.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np

from biomote import fec, mac
from biomote.cli import main as cli_main
from biomote.config import load_config, packaged_config_path
from biomote.link import NoiseModel, ac_resistance, link_budget, reference_link_config
from biomote.mac import (
    DeploymentGeometry,
    MacScenario,
    aloha_mean_successes,
    binary_tree_iterations,
    cdma_simulate,
    compare_schemes,
    global_recommendation,
    max_fully_read,
)
from biomote.phy import (
    CodeScheme,
    Modulation,
    PhyConfig,
    ber_monte_carlo,
    ber_theory,
    ber_vs_distance,
    ebn0_to_channel_snr,
)

NOISE = NoiseModel.from_total_dbm(-105.0)
SEED = 0xB10B10


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------

def test_criterion_1_table1_regression():
    """P_re anchors within 3 dB and coil resistances within 15%, in < 1 s."""
    t0 = time.perf_counter()
    anchors = [(1e6, 4, 1.0, -128.37), (1e6, 4, 10.0, -108.38),
               (1e6, 4, 50.0, -95.47), (13.56e6, 6, 1.0, -98.82)]
    devs = []
    ok = True
    for fc, nd, mu, target in anchors:
        b = link_budget(reference_link_config(fc, nd, 0.06, mu), NOISE)
        devs.append(b.p_re_dbm - target)
        ok &= abs(b.p_re_dbm - target) <= 3.0
    rr_tgt = {1e6: 5.881, 13.56e6: 19.64, 100e6: 52.13}
    rb_tgt = {1e6: 0.7533, 13.56e6: 0.7542, 100e6: 0.8577}
    cfg = reference_link_config()
    for f in rr_tgt:
        ok &= abs(ac_resistance(cfg.reader, f) / rr_tgt[f] - 1) <= 0.15
        ok &= abs(ac_resistance(cfg.mote, f) / rb_tgt[f] - 1) <= 0.15
    dt = time.perf_counter() - t0
    ok &= dt < 1.0
    report("1", ok, f"P_re deviations {[f'{d:+.2f}' for d in devs]} dB (|.|<=3), "
                    f"R bands within 15%, runtime {dt:.3f}s")


def test_criterion_2_fig5_crossover():
    """Detectability boundary: above -100 dBm at 5 cm, at/below from 6.5 cm."""
    t0 = time.perf_counter()
    params = load_config(packaged_config_path())
    noise = params.noise()
    cfg = params.link_config()
    p_at = {d: link_budget(replace(cfg, separation=d), noise).p_re_dbm
            for d in (0.05, 0.065, 0.08)}
    ok = p_at[0.05] > -100.0 and p_at[0.065] <= -100.0 and p_at[0.08] <= -100.0
    dt = time.perf_counter() - t0
    ok &= dt < 1.0
    report("2", ok, f"P_re(5cm)={p_at[0.05]:.2f} > -100, "
                    f"P_re(6.5cm)={p_at[0.065]:.2f} <= -100, runtime {dt:.3f}s")


SCHEMES = {
    "ask": (Modulation.ASK, CodeScheme.NONE),
    "bpsk": (Modulation.BPSK, CodeScheme.NONE),
    "bpsk+hamming": (Modulation.BPSK, CodeScheme.HAMMING_15_11),
    "bpsk+rs": (Modulation.BPSK, CodeScheme.RS_31_26),
}


def _curve(name, distances, trials, min_errors, max_bits, seed_shift=0):
    mod, code = SCHEMES[name]
    cfg = PhyConfig(modulation=mod, code=code, trials=trials,
                    min_errors=min_errors, max_bits=max_bits,
                    seed=SEED + seed_shift)
    link = reference_link_config()
    return list(ber_vs_distance(link, NOISE, cfg, distances))


def test_criterion_3_fig6_properties():
    """BER-vs-distance property set, <= 1e7 bits per Monte Carlo point."""
    # (a) past the range edge every scheme is unusable
    far = [0.065, 0.07, 0.075]
    worst = 1.0
    ok = True
    for name in SCHEMES:
        for _, _, _, ber, bits in _curve(name, far, 100_000, 200, 1_000_000, 1):
            worst = min(worst, ber)
            ok &= ber > 0.01
            ok &= bits <= 10_000_000
    # (b) the strongest combination reaches 1e-3 inside the working band
    band = [0.055, 0.0575, 0.06]
    rs_band = _curve("bpsk+rs", band, 200_000, 200, 4_000_000, 2)
    best_rs = min(row[3] for row in rs_band)
    ok &= best_rs <= 1e-3
    # (c) scheme ordering inside the operating band, 3 sigma on each pair
    grid = [0.045, 0.0475, 0.05]
    curves = {name: _curve(name, grid, 400_000, 100, 4_000_000, 3)
              for name in SCHEMES}
    order = ["bpsk+rs", "bpsk+hamming", "bpsk", "ask"]
    for i in range(len(grid)):
        for a, b in zip(order, order[1:]):
            pa, na = curves[a][i][3:]
            pb, nb = curves[b][i][3:]
            sigma = math.sqrt(max(pa * (1 - pa) / na, 1 / na ** 2)
                              + max(pb * (1 - pb) / nb, 1 / nb ** 2))
            ok &= pa <= pb + 3 * sigma
    report("3", ok, f"(a) min far-side BER {worst:.3g} > 0.01; "
                    f"(b) best BPSK+RS in band {best_rs:.2g} <= 1e-3; "
                    f"(c) ordering holds at {[f'{d*100:.2f}cm' for d in grid]}")


def test_criterion_4_fec_oracles():
    """Exhaustive Hamming, 1e5 RS patterns, Monte Carlo vs Q-function."""
    # Hamming: all 2^11 messages x 15 single-bit errors, under 10 s
    t0 = time.perf_counter()
    vals = np.arange(2048)
    msgs = ((vals[:, None] >> np.arange(11)) & 1).astype(np.int64)
    words = fec.hamming_encode(msgs).astype(np.int64)
    ham_ok = True
    for pos in range(15):
        w = words.copy()
        w[:, pos] ^= 1
        dec, corrected, _ = fec.hamming_decode(w)
        ham_ok &= bool(np.array_equal(dec, msgs) and (corrected == 1).all())
    t_ham = time.perf_counter() - t0
    ham_ok &= t_ham < 10.0

    # RS: 1e5 random patterns of weight <= 2, zero failures
    rng = np.random.default_rng(SEED)
    n = 100_000
    msgs_rs = rng.integers(0, 32, size=(n, 26))
    words_rs = fec.rs_encode(msgs_rs)
    weights = rng.integers(1, 3, size=n)
    rows = np.arange(n)
    pos1 = rng.integers(0, 31, size=n)
    words_rs[rows, pos1] ^= rng.integers(1, 32, size=n)
    two = weights == 2
    pos2 = (pos1 + rng.integers(1, 31, size=n)) % 31
    words_rs[rows[two], pos2[two]] ^= rng.integers(1, 32, size=int(two.sum()))
    out, corrected, failure = fec.rs_decode(words_rs)
    rs_ok = bool((out == msgs_rs).all() and not failure.any()
                 and (corrected == weights).all())

    # Monte Carlo vs closed form at Eb/N0 in {0,2,4,6,8} dB
    mc_ok = True
    sigmas = []
    for ebn0 in (0.0, 2.0, 4.0, 6.0, 8.0):
        cfg = PhyConfig(trials=300_000, min_errors=150, seed=SEED + int(ebn0))
        est = ber_monte_carlo(cfg, ebn0_to_channel_snr(ebn0))
        p = ber_theory(Modulation.BPSK, ebn0)
        z = abs(est.ber - p) / math.sqrt(p * (1 - p) / est.bits_simulated)
        sigmas.append(z)
        mc_ok &= z <= 3.0
    ok = ham_ok and rs_ok and mc_ok
    report("4", ok, f"Hamming exhaustive in {t_ham:.2f}s; RS 1e5 patterns "
                    f"clean={rs_ok}; MC z-scores {[f'{z:.2f}' for z in sigmas]}")


def test_criterion_5_binary_tree():
    vals = {n: binary_tree_iterations(n) for n in (1, 2, 1024)}
    ok = vals == {1: 1.0, 2: 2.0, 1024: 11.0}
    report("5", ok, f"L(1,2,1024) = {tuple(vals.values())}")


def test_criterion_6_scenario1_anchor():
    t0 = time.perf_counter()
    n_max = max_fully_read(200e3, 10.0, 64, trials=100, seed=SEED)
    geom = DeploymentGeometry()
    rec = global_recommendation(n_max, geom)
    ok = abs(n_max - 91) <= 0.15 * 91
    ok &= abs(rec - 230906) <= 0.16 * 230906
    dt = time.perf_counter() - t0
    ok &= dt < 30.0
    report("6", ok, f"max fully-read motes = {n_max} (91 ± 15%), "
                    f"global recommendation = {rec} (230906 ± 16%), "
                    f"runtime {dt:.1f}s")


def test_criterion_7_scenario2_anchor():
    n_opt = max_fully_read(200e3, 20.0, 64, trials=100, seed=SEED)
    ok = abs(n_opt - 130) <= 0.15 * 130
    report("7", ok, f"optimum local deployment = {n_opt} (130 ± 15%)")


def test_criterion_8_aloha_analytic_oracle():
    ok = True
    details = []
    for n, s in [(5, 16), (10, 16), (91, 128)]:
        rate, pkt = 16e3, 2
        sc = MacScenario(n_motes=n, rate=rate, packet_bytes=pkt,
                         read_time=s * pkt * 8 / rate, frame_slots=s,
                         trials=400, seed=SEED)
        mean = aloha_mean_successes(sc)
        expect = n * (1 - 1 / s) ** (n - 1)
        z = abs(mean - expect) / (math.sqrt(n) / math.sqrt(400))
        details.append(f"(n={n},S={s}): z={z:.2f}")
        ok &= z <= 3.0
    # exhaustive enumeration for n <= 4, S <= 4
    for n, s in product(range(1, 5), range(1, 5)):
        exact = 0.0
        for picks in product(range(s), repeat=n):
            exact += sum(1 for slot in range(s) if picks.count(slot) == 1)
        exact /= s ** n
        sc = MacScenario(n_motes=n, rate=16e3, packet_bytes=2,
                         read_time=s * 2 * 8 / 16e3, frame_slots=s,
                         trials=2000, seed=SEED)
        mean = aloha_mean_successes(sc)
        z = abs(mean - exact) / max(math.sqrt(n) / math.sqrt(2000), 1e-9)
        ok &= z <= 3.0 or mean == exact
    report("8", ok, "; ".join(details) + "; exhaustive n<=4,S<=4 within 3 sigma")


def test_criterion_9_cdma():
    ok = True
    # Walsh family exact up to the code length
    for n, c in [(5, 16), (16, 16), (64, 128), (128, 128)]:
        m = cdma_simulate(n, c, "walsh", packet_bytes=64, trials=10, seed=SEED)
        ok &= m == n
    # random family: rises to a peak then declines, for every length
    peaks = {}
    for c in (16, 32, 64, 128, 256):
        grid = [1, 2, 3, 5, 8, 12, 18, 27, 40, 60, 90]
        means = [cdma_simulate(n, c, "random", packet_bytes=8, trials=150,
                               seed=SEED) for n in grid]
        peak = max(means)
        peak_at = grid[means.index(peak)]
        peaks[c] = peak_at
        ok &= peak > means[0]                  # rises
        ok &= means[-1] < peak - 3 * math.sqrt(grid[-1] / 150)   # then drops
    # longer codes never reduce the mean at fixed n (3 sigma)
    for n in (4, 10, 20, 40):
        prev = -1.0
        for c in (16, 32, 64, 128, 256):
            m = cdma_simulate(n, c, "random", packet_bytes=8, trials=150,
                              seed=SEED)
            ok &= m >= prev - 3 * math.sqrt(n / 150)
            prev = m
    report("9", ok, f"Walsh exact; random-family peaks at n≈{peaks}; "
                    f"length monotone within 3 sigma")


def test_criterion_10_scheme_comparison():
    # the slot arithmetic reproduces 3.2768 s exactly
    slot = Fraction(64 * 8, 20_000)
    ok = slot * 128 == Fraction(32768, 10000)
    ns = [10, 20, 30, 40, 50, 80, 120]
    short = compare_schemes(ns, 128, trials=100, seed=SEED)
    long = compare_schemes(ns, 1280, trials=100, seed=SEED)
    s_by = {(n, scheme): m for n, _, scheme, m in short}
    l_by = {(n, scheme): m for n, _, scheme, m in long}
    for n in ns:
        if n > 20:
            ok &= s_by[(n, "cdma")] > s_by[(n, "aloha")]
        if n <= 50:
            se3 = 3 * math.sqrt(n / 100)
            ok &= l_by[(n, "aloha")] >= l_by[(n, "cdma")] - se3
        ok &= s_by[(n, "cdma")] == l_by[(n, "cdma")]
    report("10", ok, f"duration arithmetic exact (3.2768 s); short: CDMA > "
                     f"ALOHA for n>20; long: ALOHA >= CDMA for n<=50; CDMA "
                     f"duration-invariant")


def test_criterion_11_reproducibility(tmp_path):
    # byte-identical CSV reruns through the CLI
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["ber-sweep", "--seed", "42", "--set", "ber_distances_m=0.05,0.06",
            "--set", "ber_trials=20000", "--set", "ber_max_bits=100000",
            "--set", "ber_min_errors=20"]
    assert cli_main([*args, "--out", str(a)]) == 0
    assert cli_main([*args, "--out", str(b)]) == 0
    ok = a.read_bytes() == b.read_bytes()
    # worker-count invariance: per-trial seeding makes any chunking of the
    # trial budget aggregate to the same mean
    sc_full = MacScenario(n_motes=80, rate=200e3, packet_bytes=64,
                          read_time=5.0, trials=100, seed=SEED)
    full = aloha_mean_successes(sc_full)
    chunked = 0.0
    for start, stop in ((0, 37), (37, 70), (70, 100)):
        chunked += mac._aloha_trials(sc_full, start, stop)[0]
    chunked /= 100
    ok &= chunked == full
    report("11", ok, f"CSV bytes identical: {a.read_bytes() == b.read_bytes()}; "
                     f"chunked mean {chunked} == full {full}")

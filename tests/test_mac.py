"""MAC tests: analytic single-frame oracle, exhaustive small-case
enumeration, chip-level CDMA properties, scheme comparison contract."""

import math
from collections import Counter
from fractions import Fraction
from itertools import chain, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biomote import _draws, mac
from biomote.mac import (
    _DESPREAD_BLOCK,
    MAX_ALOHA_SLOTS,
    DeploymentGeometry,
    MacScenario,
    ZoneShape,
    _cdma_trial,
    _gram_dtype,
    _trial_rng,
    aloha_mean_successes,
    aloha_simulate,
    binary_tree_iterations,
    cdma_simulate,
    cdma_sweep,
    compare_schemes,
    global_recommendation,
    max_fully_read,
    scenario1_sweep,
    scenario2_sweep,
    walsh_codes,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def single_frame_mean(n, s):
    """Analytic expected singleton count: n (1 - 1/S)^(n-1)."""
    return n * (1 - 1 / s) ** (n - 1)


def enumerate_mean(n, s):
    """Exact mean successes of one frame by enumerating all S^n pick maps."""
    total = 0
    for picks in product(range(s), repeat=n):
        total += sum(1 for slot in range(s) if picks.count(slot) == 1)
    return total / s ** n


# ---------------------------------------------------------------------------
# binary tree
# ---------------------------------------------------------------------------

def test_binary_tree_values():
    assert binary_tree_iterations(1) == 1.0
    assert binary_tree_iterations(2) == 2.0
    assert binary_tree_iterations(1024) == 11.0


def test_binary_tree_monotone():
    vals = [binary_tree_iterations(n) for n in range(1, 200)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_binary_tree_rejects_zero():
    with pytest.raises(ValueError):
        binary_tree_iterations(0)


# ---------------------------------------------------------------------------
# slotted ALOHA mechanics
# ---------------------------------------------------------------------------

def test_slot_arithmetic_exact():
    sc = MacScenario(n_motes=1, rate=20e3, packet_bytes=64, read_time=3.2768)
    assert Fraction(64 * 8, 20000) == Fraction(256, 10000)      # 25.6 ms
    assert sc.slot_duration == pytest.approx(0.0256, abs=1e-15)
    assert sc.slots_available == 128
    # 128 slots at 20 kbps/64 B really is 3.2768 s
    assert Fraction(64 * 8, 20000) * 128 == Fraction(32768, 10000)


def test_single_mote_always_read():
    for seed in range(20):
        sc = MacScenario(n_motes=1, rate=20e3, packet_bytes=64, read_time=1.0,
                         trials=1, seed=seed)
        s, used = aloha_simulate(sc)
        assert s == 1
        assert used <= sc.slots_available
    sc = MacScenario(n_motes=1, rate=20e3, packet_bytes=64, read_time=1.0)
    assert aloha_simulate(sc)[0] == sc.trials


def test_successes_bounded():
    for seed in range(20):
        sc = MacScenario(n_motes=500, rate=20e3, packet_bytes=64, read_time=1.0,
                         frame_slots=16, trials=1, seed=seed)
        s, used = aloha_simulate(sc)
        assert s <= min(sc.n_motes, sc.slots_available)
        assert used <= sc.slots_available


def test_two_motes_two_slots_expected_value():
    """n=2, S=2, one frame: P(distinct) = 1/2 -> E[successes] = 1."""
    sc = MacScenario(n_motes=2, rate=16e3, packet_bytes=2, read_time=2e-3,
                     frame_slots=2, trials=4000, seed=31)
    assert sc.slots_available == 2
    mean = aloha_mean_successes(sc)
    se = math.sqrt(1.0 / sc.trials)  # var of successes is 1 here
    assert abs(mean - 1.0) <= 3 * se


@pytest.mark.parametrize("n,s", [(5, 16), (10, 16), (91, 128)])
def test_single_frame_matches_analytic(n, s):
    rate, pkt = 16e3, 2
    read_time = s * pkt * 8 / rate
    sc = MacScenario(n_motes=n, rate=rate, packet_bytes=pkt,
                     read_time=read_time, frame_slots=s, trials=400, seed=17)
    assert sc.slots_available == s
    expect = single_frame_mean(n, s)
    # success-count variance is below n for these loads; 3 sigma banding
    sd = math.sqrt(n)
    assert abs(aloha_mean_successes(sc) - expect) <= 3 * sd / math.sqrt(400)


@pytest.mark.parametrize("n,s", [(2, 2), (3, 3), (4, 4), (4, 3), (3, 4)])
def test_single_frame_matches_enumeration(n, s):
    rate, pkt = 16e3, 2
    read_time = s * pkt * 8 / rate
    sc = MacScenario(n_motes=n, rate=rate, packet_bytes=pkt,
                     read_time=read_time, frame_slots=s, trials=3000, seed=23)
    expect = enumerate_mean(n, s)
    assert expect == pytest.approx(single_frame_mean(n, s), rel=1e-12)
    sd = math.sqrt(n)
    assert abs(aloha_mean_successes(sc) - expect) <= 3 * sd / math.sqrt(3000)


def test_aloha_deterministic_per_seed():
    sc = MacScenario(n_motes=40, rate=20e3, packet_bytes=64, read_time=5.0,
                     trials=50, seed=101)
    assert aloha_mean_successes(sc) == aloha_mean_successes(sc)


def test_zero_motes():
    sc = MacScenario(n_motes=0, rate=20e3, packet_bytes=64, read_time=1.0)
    assert aloha_mean_successes(sc) == 0.0


def test_scenario_validation():
    with pytest.raises(ValueError):
        MacScenario(n_motes=-1, rate=20e3, packet_bytes=64, read_time=1.0)
    with pytest.raises(ValueError):
        MacScenario(n_motes=1, rate=0, packet_bytes=64, read_time=1.0)
    with pytest.raises(ValueError):
        MacScenario(n_motes=1, rate=20e3, packet_bytes=64, read_time=1.0,
                    frame_slots=0)
    with pytest.raises(ValueError):
        MacScenario(n_motes=1, rate=20e3, packet_bytes=64, read_time=1.0,
                    trials=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["rate", "packet_bytes", "read_time"])
def test_scenario_rejects_non_finite(field, value):
    # rate=inf used to raise ZeroDivisionError, read_time=nan fail in int()
    args = dict(n_motes=5, rate=20e3, packet_bytes=64, read_time=1.0) | {field: value}
    with pytest.raises(ValueError, match=field):
        MacScenario(**args)


@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, 10.0])
@pytest.mark.parametrize("field", ["n_motes", "frame_slots", "trials"])
def test_scenario_rejects_non_integer_counts(field, value):
    # each used to pass construction and fail in numpy with a TypeError
    args = dict(n_motes=5, rate=20e3, packet_bytes=64, read_time=1.0) | {field: value}
    with pytest.raises(ValueError, match=field):
        MacScenario(**args)


def test_scenario_takes_numpy_counts():
    sc = MacScenario(n_motes=np.int64(5), rate=20e3, packet_bytes=64, read_time=1.0,
                     frame_slots=np.int32(16), trials=np.uint16(3))
    assert aloha_simulate(sc) == aloha_simulate(
        MacScenario(n_motes=5, rate=20e3, packet_bytes=64, read_time=1.0,
                    frame_slots=16, trials=3))


@pytest.mark.parametrize("frame_slots,read_time,ok", [
    (MAX_ALOHA_SLOTS, 1.0, True),
    (MAX_ALOHA_SLOTS + 1, 1.0, False),
    # 1 ms slots: a window of 2**32 - 1 slots, then one of 2**32
    (None, (MAX_ALOHA_SLOTS + 0.5) * 1e-3, True),
    (None, (MAX_ALOHA_SLOTS + 1.5) * 1e-3, False),
])
def test_scenario_slot_cap(frame_slots, read_time, ok):
    def build():
        return MacScenario(n_motes=5, rate=16e3, packet_bytes=2, read_time=read_time,
                           frame_slots=frame_slots)
    if ok:
        sc = build()        # constructed only, never run
        assert max(sc.slots_available, sc.effective_frame_slots) <= MAX_ALOHA_SLOTS
    else:
        with pytest.raises(ValueError, match="slots"):
            build()


# ---------------------------------------------------------------------------
# ALOHA trial streams: the sort-based count and the seed memo
# ---------------------------------------------------------------------------

def _scenario(n, frame_slots, budget, trials=1, seed=0):
    """1 ms slots; a window of exactly ``budget`` slots."""
    rate, pkt = 16e3, 2
    sc = MacScenario(n_motes=n, rate=rate, packet_bytes=pkt,
                     read_time=(budget + 0.5) * pkt * 8 / rate,
                     frame_slots=frame_slots, trials=trials, seed=seed)
    assert sc.slots_available == budget
    return sc


def _aloha_simulate_unique(sc, rng):
    """The framed-ALOHA run counting singletons with ``np.unique``, kept as
    the reference for the sort-based count."""
    frame = sc.effective_frame_slots
    budget = sc.slots_available
    remaining = sc.n_motes
    successes = 0
    used = 0
    while remaining > 0 and used < budget:
        span = min(frame, budget - used)
        picks = rng.integers(0, frame, size=remaining)
        picks = picks[picks < span]
        if picks.size:
            _, counts = np.unique(picks, return_counts=True)
            s = int(np.sum(counts == 1))
            successes += s
            remaining -= s
        used += span
    return successes, used


def _reference(sc):
    """(motes read, slots used) summed over ``sc``'s trials, each run by the
    reference on its own fresh stream."""
    runs = [_aloha_simulate_unique(sc, _trial_rng(sc.seed, sc.n_motes, t))
            for t in range(sc.trials)]
    return sum(r for r, _ in runs), sum(u for _, u in runs)


def _fresh_stream_mean(sc):
    return _reference(sc)[0] / sc.trials


@pytest.mark.parametrize("s", [4, 16, 128])
def test_singleton_count_matches_unique_reference(s):
    layouts = {
        "one frame spanning the window": (None, s),
        "four full frames": (s, 4 * s),
        "truncated trailing frame": (s, 2 * s + s // 2 + 1),
        "frame longer than the window": (s, s // 2),
    }
    for layout, (frame_slots, budget) in layouts.items():
        for n in (1, 2, s - 1, s, 3 * s):
            # trial by trial: one trial per seed, so each stream is its own
            for seed in range(40):
                sc = _scenario(n, frame_slots, budget, trials=1, seed=seed)
                assert aloha_simulate(sc) == _reference(sc), (layout, n, seed)
            # and 40 trials of one seed run together
            sc = _scenario(n, frame_slots, budget, trials=40, seed=s)
            assert aloha_simulate(sc) == _reference(sc), (layout, n)


#: frames by how they draw: a frame of one slot draws no word, 2 and 16
#: never reject a word, 3 and 100 rarely do, and 2**31 + 1 rejects about
#: half of all words (2**32 mod 2**31 + 1 = 2**31 - 1)
_FRAMES = (1, 2, 3, 16, 100, 2**31 + 1)


@st.composite
def _layouts(draw):
    """(n, frame_slots, budget): a window shorter than, equal to or longer
    than the frame, whole frames or a truncated trailing one, or one frame
    spanning the window (frame_slots None)."""
    n = draw(st.integers(0, 48))
    frame = draw(st.sampled_from(_FRAMES))
    kind = draw(st.sampled_from(["spanning", "shorter", "equal", "frames",
                                 "truncated"]))
    if kind == "spanning":
        return n, None, frame
    if kind == "shorter" and frame > 1:
        return n, frame, draw(st.integers(1, frame - 1))
    if kind == "equal" or frame == 1 and kind == "shorter":
        return n, frame, frame
    whole = draw(st.integers(1 if kind == "truncated" else 2, 5))
    whole = min(whole, MAX_ALOHA_SLOTS // frame)
    if kind == "truncated" and frame > 1:
        return n, frame, whole * frame + draw(
            st.integers(1, min(frame - 1, MAX_ALOHA_SLOTS - whole * frame)))
    return n, frame, whole * frame


@settings(max_examples=150, deadline=None, derandomize=True)
@given(layout=_layouts(), seed=st.integers(0, 2**32 - 1),
       block_words=st.sampled_from([1, 40, mac._BLOCK_WORDS]))
@example(layout=(0, 16, 40), seed=1, block_words=mac._BLOCK_WORDS)
@example(layout=(9, 1, 5), seed=2, block_words=mac._BLOCK_WORDS)
@example(layout=(30, 16, 7), seed=3, block_words=40)
@example(layout=(30, 16, 16), seed=4, block_words=40)
@example(layout=(30, 16, 80), seed=5, block_words=40)
@example(layout=(30, 16, 71), seed=6, block_words=1)
@example(layout=(40, 2**31 + 1, 2**30), seed=7, block_words=mac._BLOCK_WORDS)
@example(layout=(40, 2**31 + 1, MAX_ALOHA_SLOTS), seed=8, block_words=40)
def test_batched_aloha_matches_per_trial_reference(layout, seed, block_words):
    """The batched trials equal the per-trial reference on ``_trial_rng``
    streams, trial by trial and as sums over trials, whatever the block
    size (``block_words`` of 1 runs every trial alone)."""
    n, frame_slots, budget = layout
    with mock.patch.object(mac, "_BLOCK_WORDS", block_words):
        for trial_seed in range(seed, seed + 3):
            sc = _scenario(n, frame_slots, budget, trials=1, seed=trial_seed)
            assert aloha_simulate(sc) == _reference(sc)
        sc = _scenario(n, frame_slots, budget, trials=9, seed=seed)
        assert aloha_simulate(sc) == _reference(sc)
        assert aloha_mean_successes(sc) == _fresh_stream_mean(sc)


def _count_seedings(monkeypatch):
    """Record the key of every stream ``mac`` seeds from here on."""
    seeded = []
    stream = _draws.stream

    def counted(*key):
        seeded.append(key)
        return stream(*key)

    monkeypatch.setattr(_draws, "stream", counted)
    return seeded


def _memo_bytes():
    return sum(words.nbytes for words in mac._WORD_MEMO.values())


def test_mean_successes_is_mean_over_fresh_streams(monkeypatch):
    # seeds interleaved; the second window reuses every (seed, n, trial) key
    windows = {budget: [_scenario(n, 16, budget, trials=30, seed=seed)
                        for n, seed in product((1, 7, 40), (5, 0xB10B10, 6))]
               for budget in (48, 96)}
    expect = {budget: [_fresh_stream_mean(sc) for sc in points]
              for budget, points in windows.items()}
    keys = Counter((sc.seed, sc.n_motes, t) for sc in windows[48]
                   for t in range(sc.trials))
    assert len(keys) == 9 * 30
    seeded = _count_seedings(monkeypatch)

    def run(budget):
        seeded.clear()
        for sc, mean in zip(windows[budget], expect[budget]):
            assert aloha_mean_successes(sc) == mean, (budget, sc)
        return Counter(seeded)

    mac._WORD_MEMO.clear()
    assert set(run(48)) == set(keys)
    warm = run(96)
    mac._WORD_MEMO.clear()
    # without the memo the second window seeds every key once more: with it,
    # it seeds none of them from its start, only streams read past their
    # memoised words
    assert run(96) == warm + keys


def test_seed_memo_eviction_keeps_streams(monkeypatch):
    trials = 50
    # blocks of 2 trials at n = 30 and of 16 at n = 3; one frame of 64 slots
    # rejects no word, so every stream is seeded only for its first words
    monkeypatch.setattr(mac, "_BLOCK_WORDS", 64)
    points = [_scenario(n, None, 64, trials=trials, seed=11) for n in (3, 30)]
    expect = [_fresh_stream_mean(sc) for sc in points]
    sizes = []
    for sc in points:
        mac._WORD_MEMO.clear()
        aloha_mean_successes(sc)
        sizes.append(_memo_bytes())
    # each point's words fit in the memo, but not both points' words
    mac._WORD_MEMO.clear()
    cap = max(sizes) + min(sizes) // 2
    monkeypatch.setattr(mac, "_WORD_MEMO_BYTES", cap)
    seeded = _count_seedings(monkeypatch)
    for sc, mean in zip(points * 2, expect * 2):
        assert aloha_mean_successes(sc) == mean
        assert _memo_bytes() <= cap
    counts = Counter(seeded)
    assert set(counts) <= {(11, sc.n_motes, t) for sc in points for t in range(trials)}
    assert max(counts.values()) <= 2
    assert len(seeded) > 2 * trials         # evicted keys were seeded again
    # the point just run is still held, and is not seeded again
    seeded.clear()
    assert aloha_mean_successes(points[1]) == expect[1]
    assert seeded == []


def test_memo_reuse_across_frames():
    """A (seed, n, trials) key memoised at one frame is read at another,
    with the words it holds sized for the first: every run equals the
    reference, in either order.  Frames of 16 never reject a word, and
    frames of 2**31 + 1 reject about half of them."""
    points = [_scenario(40, frame, min(4 * frame, MAX_ALOHA_SLOTS), trials=9,
                        seed=61)
              for frame in (16, 3, 100, 2**31 + 1)]
    expect = [_reference(sc) for sc in points]
    for order in (points, points[::-1]):
        mac._WORD_MEMO.clear()
        for sc in order:
            assert aloha_simulate(sc) == expect[points.index(sc)], sc
    assert len(mac._WORD_MEMO) == 1


# Recorded from the np.unique count with a SeedSequence per trial, before
# the seed memo; any change to a draw or to the count moves these.
PINNED_MAX_FULLY_READ = {2.0: 40, 4.0: 60, 6.0: 70, 8.0: 80, 10.0: 90}
PINNED_SCENARIO2 = {
    (10, 2.0): 9.96, (100, 2.0): 88.19, (200, 2.0): 155.16,
    (10, 10.0): 10.0, (100, 10.0): 97.13, (200, 10.0): 189.47,
}
PINNED_COMPARE_ALOHA = {(50, 300): 49.2, (200, 300): 103.45,
                        (50, 640): 50.0, (200, 640): 196.7}


def test_aloha_sweeps_pinned():
    for read_time, n in PINNED_MAX_FULLY_READ.items():
        assert max_fully_read(200e3, read_time, 64) == n
    assert max_fully_read(100e3, 5.0, 64, trials=40, seed=3) == 40
    rows = scenario2_sweep([10, 100, 200], [200e3], [2.0, 10.0], 64)
    assert {(n, rt): m for n, _, rt, m in rows} == PINNED_SCENARIO2
    for duration in (300, 640):
        for n, d, scheme, m in compare_schemes([50, 200], duration, trials=20,
                                               seed=41):
            assert d == duration
            if scheme == "aloha":
                assert m == PINNED_COMPARE_ALOHA[(n, duration)]
    sc = _scenario(60, 16, 100, trials=50, seed=7)
    assert aloha_mean_successes(sc) == 10.42


# ---------------------------------------------------------------------------
# exact multi-frame ALOHA oracle
# ---------------------------------------------------------------------------

def singleton_law(m, frame, span):
    """Exact P(k singleton slots among the first ``span`` of ``frame`` slots)
    when m motes each pick a slot uniformly, by inclusion-exclusion over the
    slots forced to hold exactly one mote (Schoute 1983; Vogt 2002)."""
    top = min(m, span)
    return [Fraction(sum((-1) ** (j - k) * math.comb(span, j) * math.comb(j, k)
                         * math.perm(m, j) * (frame - j) ** (m - j)
                         for j in range(k, top + 1)), frame ** m)
            for k in range(top + 1)]


def multi_frame_law(n, frame, budget):
    """Exact law of the motes read in a window of ``budget`` slots carved
    into frames of ``frame`` slots (the last one truncated), by a DP over
    the motes still unread."""
    unread = {n: Fraction(1)}
    used = 0
    while used < budget:
        span = min(frame, budget - used)
        after = {}
        for m, p in unread.items():
            for k, q in enumerate(singleton_law(m, frame, span)):
                if q:
                    after[m - k] = after.get(m - k, 0) + p * q
        unread = after
        used += span
    return {n - m: p for m, p in unread.items()}


def enumerate_law(n, frame, budget):
    """The same law by enumerating every pick map of every frame."""
    law = {}

    def run(m, used, read, p):
        if m == 0 or used >= budget:
            law[read] = law.get(read, 0) + p
            return
        span = min(frame, budget - used)
        for picks in product(range(frame), repeat=m):
            s = sum(1 for slot in range(span) if picks.count(slot) == 1)
            run(m - s, used + span, read + s, p / frame ** m)

    run(n, 0, 0, Fraction(1))
    return law


@pytest.mark.parametrize("n,frame,budget",
                         [(3, 3, 7), (4, 2, 5), (2, 4, 2), (4, 3, 3), (1, 3, 1),
                          (3, 2, 6), (4, 4, 4)])
def test_multi_frame_law_matches_enumeration(n, frame, budget):
    law = multi_frame_law(n, frame, budget)
    assert law == enumerate_law(n, frame, budget)
    assert sum(law.values()) == 1
    if budget == frame:
        mean = sum(k * p for k, p in law.items())
        assert mean == n * Fraction(frame - 1, frame) ** (n - 1)


@pytest.mark.parametrize("s", [4, 8, 16])
@pytest.mark.parametrize("n", [2, 6, 12, 20])
def test_multi_frame_matches_exact_law(n, s):
    """One to four frames, the last one truncated in two of the windows."""
    trials = 400
    for budget in (s // 2, s, 2 * s, 2 * s + s // 2, 4 * s):
        law = multi_frame_law(n, s, budget)
        mean = sum(k * p for k, p in law.items())
        var = sum(k * k * p for k, p in law.items()) - mean ** 2
        sc = _scenario(n, s, budget, trials=trials, seed=0xB10B10)
        got = aloha_mean_successes(sc)
        assert abs(got - mean) <= 3 * math.sqrt(var / trials), (budget, got, mean)


# ---------------------------------------------------------------------------
# scenario sweeps
# ---------------------------------------------------------------------------

def test_max_fully_read_monotone_in_window():
    pkt, rate = 64, 200e3
    short = max_fully_read(rate, 2.0, pkt, trials=40, seed=3)
    long = max_fully_read(rate, 8.0, pkt, trials=40, seed=3)
    assert long >= short


def test_max_fully_read_monotone_in_rate():
    pkt = 64
    slow = max_fully_read(100e3, 5.0, pkt, trials=40, seed=3)
    fast = max_fully_read(400e3, 5.0, pkt, trials=40, seed=3)
    assert fast >= slow


def test_scenario1_sweep_rows_are_max_fully_read():
    read_times = [2.0, 4.0]
    rows = scenario1_sweep(200e3, iter(read_times), 64, trials=20, seed=3)
    assert rows == [(200e3, rt, 64, max_fully_read(200e3, rt, 64, trials=20, seed=3))
                    for rt in read_times]


@pytest.mark.parametrize("read_times", [[2.0, 2e7], [], [2.0, math.nan]])
def test_scenario1_sweep_checks_every_window_first(monkeypatch, read_times):
    # 2e7 s at 2.56 ms a slot is above MAX_ALOHA_SLOTS
    def no_work(*args, **kwargs):
        raise AssertionError("a scan ran before every window was checked")

    monkeypatch.setattr(mac, "max_fully_read", no_work)
    with pytest.raises(ValueError):
        scenario1_sweep(200e3, read_times, 64, trials=20, seed=3)


def test_scenario2_rows_bounded():
    rows = scenario2_sweep([0, 20, 40], [200e3], [2.0], 64, trials=30, seed=9)
    for n, rate, read_time, mean in rows:
        sc = MacScenario(n_motes=max(n, 1), rate=rate, packet_bytes=64,
                         read_time=read_time)
        assert 0 <= mean <= min(max(n, 1), sc.slots_available)
    assert rows[0][3] == 0.0


def test_scenario2_sweep_takes_iterators():
    lists = ([10, 20], [200e3], [2.0, 4.0])
    rows = scenario2_sweep(*lists, 64, trials=20, seed=9)
    assert [row[:3] for row in rows] == [(n, 200e3, rt) for rt in lists[2]
                                         for n in lists[0]]
    assert scenario2_sweep(*map(iter, lists), 64, trials=20, seed=9) == rows
    assert scenario2_sweep(*((x for x in xs) for xs in lists), 64, trials=20,
                           seed=9) == rows
    with pytest.raises(ValueError, match="non-empty"):
        scenario2_sweep(iter([]), [200e3], [2.0], 64)


# ---------------------------------------------------------------------------
# deployment geometry
# ---------------------------------------------------------------------------

def test_global_recommendation_anchor():
    geom = DeploymentGeometry()
    assert geom.zone_volume_cm3 == pytest.approx(261.799, abs=1e-2)
    assert global_recommendation(91, geom) == 230907
    assert abs(global_recommendation(91, geom) - 230906) <= 1


def test_global_recommendation_zero_and_linearity():
    geom = DeploymentGeometry()
    assert global_recommendation(0, geom) == 0
    double = DeploymentGeometry(body_volume_cm3=2 * 6.643e5)
    assert global_recommendation(50, double) == pytest.approx(
        2 * global_recommendation(50, geom), abs=1)


def test_sphere_zone_half_of_hemisphere_zones():
    hemi = DeploymentGeometry(zone_shape=ZoneShape.HEMISPHERE)
    sphere = DeploymentGeometry(zone_shape=ZoneShape.SPHERE)
    assert sphere.zone_volume_cm3 == pytest.approx(2 * hemi.zone_volume_cm3)


# ---------------------------------------------------------------------------
# CDMA
# ---------------------------------------------------------------------------

def test_walsh_rows_orthogonal():
    for c in (16, 64):
        w = walsh_codes(c)
        gram = w.astype(int) @ w.astype(int).T
        assert np.array_equal(gram, c * np.eye(c, dtype=int))


def test_walsh_length_validation():
    with pytest.raises(ValueError):
        walsh_codes(24)
    for length in (24, 0):
        with pytest.raises(ValueError, match="power of two"):
            cdma_simulate(4, length, "walsh")


def test_walsh_family_exact_for_n_below_length():
    for n, c in [(5, 16), (16, 16), (100, 128)]:
        assert cdma_simulate(n, c, "walsh", packet_bytes=64, trials=5, seed=2) == n


def walsh_shared_row_law(n, code_len, bits):
    """Exact mean motes read of a Walsh trial, with mote i on row i mod L.

    A mote reads a bit right when its row's chip sum has the bit's sign
    (ties decide 1).  With S' the sum of the other g - 1 motes' +-1 bits on
    a row shared by g, that is S' >= -1 for a 1 and S' <= 0 for a 0, so
    q_g = (P(S' >= -1) + P(S' <= 0)) / 2 per bit; bits are independent and
    the mean is the sum over rows of g q_g^bits.
    """
    total = Fraction(0)
    for row in range(code_len):
        g = len(range(row, n, code_len))
        if g == 0:
            continue
        # S' = 2K - (g - 1) for K ~ Binomial(g - 1, 1/2)
        law = [(2 * k - (g - 1), Fraction(math.comb(g - 1, k), 2 ** (g - 1)))
               for k in range(g)]
        q = (sum(p for s, p in law if s >= -1) + sum(p for s, p in law if s <= 0)) / 2
        total += g * q ** bits
    return total


@pytest.mark.parametrize("code_len", [4, 8, 16])
def test_walsh_family_matches_shared_row_law(code_len):
    """Past n = L, motes share Walsh rows; every n of the grid is within
    3 sigma of the exact law, sigma from the per-trial counts."""
    trials, seed = 2_000, 83
    for n in (code_len + 1, 2 * code_len, 2 * code_len + 3, 3 * code_len,
              4 * code_len + 1):
        counts = [_cdma_trial(n, code_len, "walsh", 8, _trial_rng(seed, n, t))
                  for t in range(trials)]
        mean = sum(counts) / trials
        assert mean == cdma_simulate(n, code_len, "walsh", 1, trials, seed)
        sigma = float(np.std(counts, ddof=1)) / math.sqrt(trials)
        exact = float(walsh_shared_row_law(n, code_len, 8))
        assert abs(mean - exact) <= 3 * sigma, (n, mean, exact, sigma)


def test_walsh_two_shared_rows_exact():
    # 130 motes on 128 rows: 126 alone are always read, and the 4 on the
    # two shared rows each with probability (3/4)^512, about 1e-64
    assert walsh_shared_row_law(130, 128, 512) == 126 + 4 * Fraction(3, 4) ** 512
    assert cdma_simulate(130, 128, "walsh", packet_bytes=64, trials=20, seed=2) == 126


def test_random_family_peak_then_decline():
    means = {n: cdma_simulate(n, 32, "random", packet_bytes=8, trials=150, seed=13)
             for n in (1, 2, 4, 6, 10, 16, 24)}
    vals = list(means.values())
    peak = max(vals)
    assert peak > means[1]              # rises
    assert vals[-1] < peak * 0.7        # and clearly falls past the peak


def test_longer_codes_never_hurt():
    for n in (4, 10, 20):
        prev = -1.0
        for c in (16, 32, 64, 128, 256):
            m = cdma_simulate(n, c, "random", packet_bytes=8, trials=150, seed=29)
            se3 = 3 * math.sqrt(n / 150)
            assert m >= prev - se3
            prev = m


def test_cdma_validation():
    with pytest.raises(ValueError):
        cdma_simulate(0, 16)
    with pytest.raises(ValueError):
        cdma_simulate(4, 16, family="gold")


def _no_cdma_trial(*args, **kwargs):
    raise AssertionError("a CDMA trial ran before its point was checked")


def test_cdma_caps_raise_before_any_draw(monkeypatch):
    monkeypatch.setattr(mac, "_cdma_trial", _no_cdma_trial)
    monkeypatch.setattr(mac, "aloha_simulate", _no_cdma_trial)
    over = mac.MAX_CDMA_MOTES + 1
    with pytest.raises(ValueError, match="mac_n_motes"):
        cdma_simulate(over, 16)
    with pytest.raises(ValueError, match="mac_n_motes"):
        cdma_simulate(over, 16, "walsh")
    with pytest.raises(ValueError, match="mac_n_motes"):
        compare_schemes([over], [128])
    with pytest.raises(ValueError, match="mac_n_motes"):
        compare_schemes([10, over], [128])
    # one mote, but its packet alone draws more than the cap
    with pytest.raises(ValueError, match="mac_code_lens"):
        cdma_simulate(1, 16, packet_bytes=mac.MAX_CDMA_DRAW_BYTES // 64)


@pytest.mark.parametrize("n_motes,code_lens", [
    ([10, mac.MAX_CDMA_MOTES + 1], [16]),
    ([10, 2000], [16, 8192]),           # only the last point is over the draw cap
    ([10, 0], [16]),
    ([10], [16, 0]),
    ([], [16]),
])
def test_cdma_sweep_checks_every_point_first(monkeypatch, n_motes, code_lens):
    monkeypatch.setattr(mac, "_cdma_trial", _no_cdma_trial)
    with pytest.raises(ValueError):
        cdma_sweep(n_motes, code_lens, 8, trials=3, seed=5)


def test_cdma_sweep_rows():
    ns, lens = [2, 5], [16, 32]
    rows = cdma_sweep(iter(ns), iter(lens), 8, trials=5, seed=13)
    assert rows == [(n, c, "random", cdma_simulate(n, c, "random", 8, 5, 13))
                    for c in lens for n in ns]


@pytest.mark.parametrize("code_len,packet_bytes,trials",
                         [(0, 8, 3), (16, 0, 3), (16, 8, 0)])
def test_cdma_rejects_empty_arguments(code_len, packet_bytes, trials):
    with pytest.raises(ValueError):
        cdma_simulate(5, code_len, "random", packet_bytes, trials)


def _despread_int32(n, code_len, family, packet_bits, rng):
    """The two-step int32 despread (bits^T C) C^T, kept as the reference;
    returns (motes read, correlations that tie at 0, motes error-free over
    the first despread block)."""
    if family == "walsh":
        codes = walsh_codes(code_len)[np.arange(n) % code_len]
    else:
        codes = rng.integers(0, 2, size=(n, code_len)).astype(np.int8) * 2 - 1
    bits = rng.integers(0, 2, size=(n, packet_bits)).astype(np.int8) * 2 - 1
    aggregate = bits.T.astype(np.int32) @ codes.astype(np.int32)
    correlations = aggregate @ codes.T.astype(np.int32)
    decided = np.where(correlations.T >= 0, 1, -1).astype(np.int8)
    correct = decided == bits
    return (int(np.sum(np.all(correct, axis=1))),
            int(np.sum(correlations == 0)),
            int(np.sum(np.all(correct[:, :_DESPREAD_BLOCK], axis=1))))


def test_despread_matches_int32_reference():
    ties = 0
    # random-code trials, by how the block-wise despread ends
    late_failures = first_block_wipeouts = 0
    # with an odd L, an odd n * L leaves the packet bits' first one in the
    # half word the code draw buffered
    cases = chain(product(("walsh", "random"), (8, 16), (8, 64, 72, 520)),
                  product(("walsh",), (1,), (8, 72)),
                  product(("random",), (3, 7, 31), (8, 72)))
    for family, code_len, packet_bits in cases:
        # n = 1, n < L, n = L, n = L + 1, n = 2L, n = 2L + 3, n = 4L + 1
        for n in (1, code_len // 2 + 1, code_len, code_len + 1, 2 * code_len,
                  2 * code_len + 3, 4 * code_len + 1):
            for t in range(4):
                expect, zeros, first = _despread_int32(
                    n, code_len, family, packet_bits, _trial_rng(77, n, t))
                got = _cdma_trial(n, code_len, family, packet_bits,
                                  _trial_rng(77, n, t))
                assert got == expect, (family, code_len, packet_bits, n, t)
                if family == "random":
                    ties += zeros
                    if packet_bits > _DESPREAD_BLOCK:
                        late_failures += first > expect
                        first_block_wipeouts += first == 0
    assert ties > 0         # the >= 0 tie rule was exercised
    # motes that survived the first block and failed in a later one, and
    # trials that ended after the first block
    assert late_failures > 0
    assert first_block_wipeouts > 0


class _ConstantDraws:
    """A generator stub, and its own bit generator, whose every drawn bit is
    ``value``: its raw 64-bit words are all zeros or all ones."""

    def __init__(self, value):
        self.bit_generator = self
        self.state = {"has_uint32": 0, "uinteger": 0}
        self.word = (2**64 - 1) * value

    def random_raw(self, size):
        return np.full(size, self.word, dtype=np.uint64)


@pytest.mark.parametrize("value", [0, 1])
@pytest.mark.parametrize("n,code_len", [(127, 1), (128, 1), (256, 2),
                                        (32_767, 1), (32_768, 1)])
def test_walsh_row_sums_do_not_overflow(n, code_len, value):
    # equal bits on every mote sharing a row sum to +-ceil(n / L), the
    # largest row sum the Walsh path must hold; every mote then decodes
    assert _cdma_trial(n, code_len, "walsh", 8, _ConstantDraws(value)) == n


@pytest.mark.parametrize("n,code_len", [(129, 1), (300, 2), (32_768, 1)])
def test_walsh_wide_row_sums_match_int32_reference(n, code_len):
    # rows shared by more than 127 motes sum in int16 or int32, where a
    # uint8 bits * 2 - 1 would turn every 0 bit into +255 and read every mote
    for t in range(3):
        expect = _despread_int32(n, code_len, "walsh", 8, _trial_rng(5, n, t))[0]
        assert _cdma_trial(n, code_len, "walsh", 8, _trial_rng(5, n, t)) == expect


def test_gram_dtype_at_float32_bound():
    # float32 holds every integer up to 2**24, the largest partial sum at
    # n * L = 2**24; one more and the despread needs float64
    assert _gram_dtype(2**16, 2**8) is np.float32
    assert _gram_dtype(2**24, 1) is np.float32
    assert _gram_dtype(2**24 + 1, 1) is np.float64
    assert _gram_dtype(2**16 + 1, 2**8) is np.float64
    assert _gram_dtype(200, 256) is np.float32


def test_compare_schemes_takes_a_list_of_durations():
    ns, durations = [20, 60, 20], [128, 1280]
    rows = compare_schemes(ns, durations, trials=5, seed=55)
    assert rows == [row for d in durations
                    for row in compare_schemes(ns, d, trials=5, seed=55)]
    assert [row[:3] for row in rows] == [(n, d, scheme) for d in durations
                                         for n in ns
                                         for scheme in ("aloha", "cdma")]
    # iterators and generators are taken once, like lists
    assert compare_schemes(iter(ns), iter(durations), trials=5, seed=55) == rows
    assert compare_schemes((n for n in ns), (d for d in durations),
                           trials=5, seed=55) == rows


@pytest.mark.parametrize("ns, durations", [([], 128), ([], [128]), ([20], []),
                                           ([20], iter([]))])
def test_compare_schemes_rejects_empty_lists(ns, durations):
    with pytest.raises(ValueError, match="non-empty"):
        compare_schemes(ns, durations, trials=5, seed=55)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def test_compare_short_duration_cdma_wins_past_20():
    rows = compare_schemes([10, 30, 50, 80, 120], 128, trials=40, seed=41)
    by = {(n, scheme): m for n, _, scheme, m in rows}
    for n in (30, 50, 80, 120):
        assert by[(n, "cdma")] > by[(n, "aloha")]


def test_compare_long_duration_aloha_holds_to_50():
    rows = compare_schemes([10, 30, 50], 1280, trials=40, seed=41)
    by = {(n, scheme): m for n, _, scheme, m in rows}
    for n in (10, 30, 50):
        se3 = 3 * math.sqrt(n / 40)
        assert by[(n, "aloha")] >= by[(n, "cdma")] - se3


def test_compare_cdma_duration_invariant():
    short = compare_schemes([20, 60], 128, trials=20, seed=55)
    long = compare_schemes([20, 60], 1280, trials=20, seed=55)
    cd_s = [m for _, _, scheme, m in short if scheme == "cdma"]
    cd_l = [m for _, _, scheme, m in long if scheme == "cdma"]
    assert cd_s == cd_l

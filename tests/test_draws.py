"""Seeded draws: golden words for each numpy algorithm the CSV bytes rest
on, and ``random_bits`` against numpy's own ``integers(0, 2)``.

The golden values were recorded with numpy 2.4.6.  A numpy release that
changes one of these algorithms fails the test that names it here, before
any CSV digest moves.
"""

import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biomote import _draws, cli, mac, phy
from biomote._draws import (
    _NARROW,
    DEFAULT_SEED,
    bounded,
    first_words,
    random_bits,
    raw_words,
    rejections,
    seed_words,
    stream,
    streams,
    sub_seed,
)

#: the first three 64-bit outputs of trial 0 of the default seed at n = 100
_GOLDEN_RAW = [0xA05FD07AB6C2F9F1, 0x4CB5D67BF8213105, 0x56FDFD001F5AD540]


def test_golden_stream_keying():
    """SeedSequence keying of PCG64: a trial's stream, and its 32-bit words
    low half first."""
    assert stream(0xB10B10, 100, 0).random_raw(3).tolist() == _GOLDEN_RAW
    assert raw_words(stream(0xB10B10, 100, 0), 2).tolist() == [
        0xB6C2F9F1, 0xA05FD07A, 0xF8213105, 0x4CB5D67B]


def test_golden_sub_seed():
    """SeedSequence ``generate_state``: the seeds of a BER sweep's first two
    points under the default master seed."""
    assert sub_seed(0xB10B10, 0) == 4962678256578433740
    assert sub_seed(0xB10B10, 1) == 1872311813571898462


def _numpy_stream(*key):
    """numpy's own keying of stream ``key``: the reference that the keying
    ``_draws`` reproduces is checked against."""
    return np.random.PCG64(np.random.SeedSequence(key))


#: seeds whose entropy is one word at both ends of its range, two words,
#: and three
_GRID_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 5]
#: batches of trials from the first, and one that straddles t = 2**32,
#: where a trial's entropy grows from one word to two
_GRID_BATCHES = [(0, 3), (2**32 - 2, 2**32 + 2)]
#: raw words: one, the widest prefix computed without numpy.random, one
#: more, and four times as many
_GRID_RAWS = [1, _NARROW, _NARROW + 1, 4 * _NARROW]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.sampled_from(_GRID_SEEDS) | st.integers(0, 2**96),
       n=st.sampled_from([0, 100]) | st.integers(0, 2**40),
       batch=st.sampled_from(_GRID_BATCHES)
       | st.tuples(st.integers(0, 2**33), st.integers(1, 4)).map(lambda b: (b[0], sum(b))),
       raw=st.sampled_from(_GRID_RAWS) | st.integers(1, 4 * _NARROW))
@example(seed=0, n=0, batch=_GRID_BATCHES[0], raw=1)
@example(seed=2**32 - 1, n=0, batch=_GRID_BATCHES[1], raw=_NARROW)
@example(seed=2**32, n=100, batch=_GRID_BATCHES[1], raw=_NARROW + 1)
@example(seed=2**64 + 5, n=0, batch=_GRID_BATCHES[1], raw=4 * _NARROW)
@example(seed=2**64 + 5, n=100, batch=_GRID_BATCHES[0], raw=_NARROW)
def test_batch_keying_and_prefixes_match_numpy(seed, n, batch, raw):
    """SeedSequence keying and PCG64 seeding, reproduced for a batch of
    trials: the seed words and the prefixes, narrow (computed without
    ``numpy.random``) and wide, equal numpy's, row for row; and one stream
    keyed alone (``stream``, ``sub_seed``) equals numpy's too."""
    first, stop = batch
    keys = [(seed, n, t) for t in range(first, stop)]
    np.testing.assert_array_equal(
        seed_words((seed, n), first, stop),
        [np.random.SeedSequence(key).generate_state(4, np.uint64) for key in keys])
    np.testing.assert_array_equal(
        first_words((seed, n), first, stop, raw),
        [raw_words(_numpy_stream(*key), raw) for key in keys])
    assert stream(seed, n, first).state == _numpy_stream(seed, n, first).state
    assert sub_seed(seed, n) == np.random.SeedSequence((seed, n)).generate_state(1, np.uint64)[0]


def test_streams_key_each_trial_across_batches(monkeypatch):
    """``streams`` hands out ``stream(*key, t)`` for every trial in order,
    across batches of keys too."""
    monkeypatch.setattr(_draws, "_KEYS", 2)
    got = [bit_gen.state for bit_gen in streams((5, 3), 5)]
    assert got == [_numpy_stream(5, 3, t).state for t in range(5)]


def test_keys_must_be_non_negative():
    with pytest.raises(ValueError, match="non-negative"):
        stream(1, -2)
    with pytest.raises(ValueError, match="non-negative"):
        seed_words((-1,), 0, 2)


def test_narrow_prefixes_are_computed_in_pieces():
    """Narrow prefixes of 4,096 trials are computed one batch of
    ``_KEYS`` keys at a time: they peak at their table plus sixteen uint64
    grids of one batch, 1 MiB each, and 64 KiB for the keys (numpy reports
    its buffers to ``tracemalloc``), not at grids of all 4,096 rows, 4 MiB
    each."""
    tracemalloc.start()
    try:
        words = first_words((3, 40), 0, 4096, _NARROW)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words.nbytes == 4096 * _NARROW * 8
    assert peak <= words.nbytes + 16 * 8 * _draws._KEYS * _NARROW + (64 << 10)


def test_golden_bits_carry_the_buffered_half_word():
    """numpy's 32-bit bounded path: five bits take three words and leave
    the third word's high half buffered; the next six bits start from it,
    whose top bit is 0, and leave a half buffered again."""
    bit_gen = stream(0xB10B10, 100, 0)
    assert random_bits(bit_gen, 5).tolist() == [1, 1, 1, 0, 0]
    state = bit_gen.state
    assert (state["has_uint32"], state["uinteger"]) == (1, 0x56FDFD00)
    assert random_bits(bit_gen, 6).tolist() == [0, 1, 0, 1, 1, 0]
    assert bit_gen.state["has_uint32"] == 1


#: the first eight ``integers(0, 2**31 + 1)`` of the same stream, which
#: rejects eight of its first sixteen words
_GOLDEN_WIDE = [1345316925, 643492669, 1241807281, 1807685513,
                717865566, 1474000487, 71031882, 1710228266]


def test_golden_bounded_rejects_words():
    """Lemire's method: on a frame of 2**31 + 1, which rejects about half
    of all words, the accepted words of the first sixteen are the eight
    draws ``integers`` makes."""
    frame = 2**31 + 1
    values, accepted = bounded(raw_words(stream(0xB10B10, 100, 0), 8), frame)
    assert accepted.tolist() == [False, True, False, True, False, False, False, False,
                                 True, False, False, True, True, True, True, True]
    assert values[accepted].tolist() == _GOLDEN_WIDE
    rng = np.random.Generator(stream(0xB10B10, 100, 0))
    assert rng.integers(0, frame, size=8).tolist() == _GOLDEN_WIDE


@pytest.mark.parametrize("frame", [2, 3, 100, 3125, 2**31 + 1, 2**32 - 1])
def test_bounded_matches_integers(frame):
    """Lemire's method: ``bounded``'s accepted values are ``integers(0,
    frame)``'s draws, in order, and the words rejected among them are
    within 5 sigma of ``rejections``, their mean (none for a power of
    two)."""
    values, accepted = bounded(raw_words(stream(7, frame, 0), 2000), frame)
    rng = np.random.Generator(stream(7, frame, 0))
    picks = int(np.count_nonzero(accepted))
    assert values[accepted].tolist() == rng.integers(0, frame, size=picks).tolist()
    # the rejected words before each pick are geometric with ratio p
    p = (1 << 32) % frame / (1 << 32)
    sigma = math.sqrt(picks * p) / (1 - p)
    assert abs(rejections(picks, frame) - (4000 - picks)) <= 5 * sigma + 1
    assert rejections(picks, 2) == rejections(picks, 2**16) == 0


@pytest.mark.parametrize("frame", [2, 3, 100, 2**31 + 1])
@pytest.mark.parametrize("sizes", [(0, 5), (1, 1), (3, 8), (7, 13), (250, 251)])
def test_bounded_draws_do_not_depend_on_their_grouping(frame, sizes):
    """Two ``integers(0, frame)`` calls in a row on one stream draw the
    first a + b accepted values of ``bounded`` over its words, whatever
    a and b: the calls take their words one after the other, a half word
    the first leaves buffered included, so a trial's picks for one frame
    after another are runs of one sequence."""
    a, b = sizes
    values, accepted = bounded(raw_words(stream(5, frame, a), 4 * (a + b) + 16), frame)
    rng = np.random.Generator(stream(5, frame, a))
    grouped = rng.integers(0, frame, size=a).tolist() + rng.integers(0, frame, size=b).tolist()
    assert values[accepted][:a + b].tolist() == grouped


def _seed_defaults():
    """{name: default} of every dataclass field and function parameter
    called ``seed`` that has a default, in ``phy`` and ``mac``."""
    defaults = {}
    for module in (phy, mac):
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if dataclasses.is_dataclass(obj):
                defaults.update((name, f.default) for f in dataclasses.fields(obj)
                                if f.name == "seed")
            elif inspect.isfunction(obj):
                seed = inspect.signature(obj).parameters.get("seed")
                if seed is not None and seed.default is not seed.empty:
                    defaults[name] = seed.default
    return defaults


def test_default_seed_is_stated_once(monkeypatch):
    """Every seed default of the library and the CLI's fallback is
    ``DEFAULT_SEED``.  Identity, not equality: a default written as its
    own literal is another int object."""
    defaults = _seed_defaults()
    assert set(defaults) == {"PhyConfig", "MacScenario", "max_fully_read",
                             "scenario1_sweep", "scenario2_sweep", "cdma_simulate",
                             "cdma_sweep", "compare_schemes"}
    assert all(default is DEFAULT_SEED for default in defaults.values()), defaults
    assert cli.DEFAULT_SEED is DEFAULT_SEED
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    assert cli.resolve_seed(None) == DEFAULT_SEED


def test_golden_phy_noise():
    """The ziggurat normal: the first noise values of the PHY stream of
    ``PhyConfig()``'s seed at 5 dB, as ``ber_monte_carlo`` keys it."""
    rng = np.random.Generator(stream(0xB10B10, phy._snr_key(5.0)))
    assert rng.standard_normal(4).tolist() == [
        1.0887445423034066, 0.20967712523238527, 0.5696016771592118,
        -0.5141931727165652]

#: shapes by size: empty, odd and even, one- and two-dimensional
_SHAPES = st.one_of(st.integers(0, 300),
                    st.tuples(st.integers(0, 9), st.integers(0, 41)))

#: the calls that share a stream with ``random_bits``: 32-bit bounded draws
#: that take one buffered half each (2, 3, 100), one that rejects about
#: half of all words (2**31 + 1), the full 32-bit range, a 64-bit range,
#: and normals, which take whole 64-bit words
_CALLS = st.one_of(
    st.tuples(st.just("bits"), _SHAPES),
    st.tuples(st.sampled_from([2, 3, 100, 2**31 + 1, 2**32, 2**40]), st.integers(0, 9)),
    st.tuples(st.just("normal"), st.integers(0, 9)),
)


def _state(rng):
    """The parts of a PCG64 state that later draws read: ``uinteger`` only
    while ``has_uint32`` is set."""
    state = rng.bit_generator.state
    return (state["state"], state["has_uint32"],
            state["uinteger"] if state["has_uint32"] else None)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), calls=st.lists(_CALLS, max_size=12))
@example(seed=1, calls=[("bits", 0), ("bits", (0, 5)), ("bits", (3, 0))])
@example(seed=2, calls=[("bits", 1), ("bits", 1), ("bits", 1)])
@example(seed=3, calls=[("bits", 7), ("bits", (3, 5)), ("bits", 2), (2, 1)])
@example(seed=4, calls=[(3, 1), ("bits", 4), ("normal", 1), ("bits", 3), (2**32, 1)])
@example(seed=5, calls=[("bits", (31, 3)), ("bits", (31, 64))])
# draws of three pieces and more: odd from an empty buffer, then odd from
# a buffered half, then even from an empty buffer
@example(seed=6, calls=[("bits", 2**18 + 3), ("bits", 2**18 + 3), ("bits", 2**18 + 2),
                        ("bits", 1)])
# even from a buffered half, then one piece exactly from a buffered half
@example(seed=7, calls=[("bits", 1), ("bits", 2**18 + 4), ("bits", 2**17 + 1), (3, 1)])
def test_random_bits_match_integers(seed, calls):
    """Each call of ``random_bits`` equals ``integers(0, 2)`` cast to uint8,
    and leaves the stream where that call would, whatever draws come
    before and after it on the same generator; draws of more than one
    piece of raw words too."""
    raw, ref = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
    for call in calls:
        if call[0] == "bits":
            got = random_bits(raw.bit_generator, call[1])
            expect = ref.integers(0, 2, size=call[1]).astype(np.uint8)
            assert got.dtype == expect.dtype and got.shape == expect.shape
            np.testing.assert_array_equal(got, expect)
        elif call[0] == "normal":
            np.testing.assert_array_equal(raw.standard_normal(call[1]),
                                          ref.standard_normal(call[1]))
        else:
            np.testing.assert_array_equal(raw.integers(0, call[0], size=call[1]),
                                          ref.integers(0, call[0], size=call[1]))
        assert _state(raw) == _state(ref), calls


def test_random_bits_hold_one_piece_of_words():
    """Drawing 2**22 bits peaks at the uint8 result plus one 512-KiB piece
    of raw words (numpy reports its buffers to ``tracemalloc``), not at the
    16 MiB of words the whole draw takes."""
    bit_gen = np.random.PCG64(11)
    tracemalloc.start()
    try:
        bits = random_bits(bit_gen, 1 << 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bits.nbytes == 1 << 22
    assert peak <= bits.nbytes + (512 << 10) + (64 << 10)

"""Raw-word draws: ``random_bits`` against numpy's own ``integers(0, 2)``."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biomote._draws import random_bits

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
def test_random_bits_match_integers(seed, calls):
    """Each call of ``random_bits`` equals ``integers(0, 2)`` cast to uint8,
    and leaves the stream where that call would, whatever draws come
    before and after it on the same generator."""
    raw, ref = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
    for call in calls:
        if call[0] == "bits":
            got = random_bits(raw, call[1])
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

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergeforge.seeding import pcg64_states


def _assert_matches_default_rng(prefix, n):
    rng = np.random.Generator(np.random.PCG64(0))
    count = 0
    for i, state in enumerate(pcg64_states(prefix, n)):
        reference = np.random.default_rng((*prefix, i))
        assert state == reference.bit_generator.state, (prefix, i)
        rng.bit_generator.state = state
        assert [rng.random() for _ in range(3)] == [reference.random() for _ in range(3)]
        count += 1
    assert count == n


@pytest.mark.parametrize("prefix,n", [
    ((7, 101, 1), 500),
    ((0, 101, 0), 400),
    ((2**40 + 5, 101, 2), 450),
    ((2**64 + 3, 101, 2), 450),
    ((123456789012345678901234567890, 101, 3), 400),  # five words and more
    ((19, 202, 0), 500),
    ((), 40),
    ((2**32 - 1,), 40),
])
def test_states_equal_default_rng_on_fixed_prefixes(prefix, n):
    _assert_matches_default_rng(prefix, n)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**128),
    st.sampled_from([101, 202]),
    st.integers(0, 50),
    st.integers(0, 40),
)
def test_states_equal_default_rng(seed, stream, t, n):
    _assert_matches_default_rng((seed, stream, t), n)


def test_states_are_yielded_lazily():
    states = pcg64_states((7, 101, 1), 3)
    assert next(states) == np.random.default_rng((7, 101, 1, 0)).bit_generator.state
    assert len(list(states)) == 2


@pytest.mark.parametrize("n", [-1, 2**32 + 1])
def test_too_many_indices_fail_before_allocating(n):
    # Indices are uint32 words: 2**32 + 1 of them would wrap around silently.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            pcg64_states((7, 101, 1), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_negative_seed_is_rejected_like_default_rng():
    with pytest.raises(ValueError):
        np.random.default_rng((-1, 101, 1, 0))
    with pytest.raises(ValueError):
        pcg64_states((-1, 101, 1), 1)

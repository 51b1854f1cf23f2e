"""``repro.sim.pcg64.Pcg64`` against its oracle, numpy's ``default_rng``.

The fault and jitter streams were numpy ``Generator`` draws; the
simulator now computes the same draws in plain Python.  numpy is the
referee here and nowhere in the simulator.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.pcg64 import Pcg64

_DRAWS = 64
_EDGES = [0, 2**32 - 1, 2**32, 2**64]
_word = st.one_of(st.sampled_from(_EDGES), st.integers(0, 2**130 - 1))


def _same_stream(seed) -> None:
    ours, numpy_rng = Pcg64(seed), np.random.default_rng(seed)
    assert [ours.random() for _ in range(_DRAWS)] == [
        numpy_rng.random() for _ in range(_DRAWS)]


@settings(max_examples=200, deadline=None)
@given(seed=st.lists(_word, min_size=1, max_size=8).map(tuple))
@example(seed=(0,))
@example(seed=tuple(_EDGES))
@example(seed=(2**32 - 1, 2**32, 2**64, 0, 1, 2, 3, 4))
def test_every_draw_equals_numpys_bit_for_bit(seed):
    _same_stream(seed)


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64, 2**129 + 5])
def test_a_bare_int_seed_is_numpys_too(seed):
    _same_stream(seed)


def test_the_simulators_seed_shapes():
    # (seed, family, src, dst), (seed, family, rank) and the jitter
    # family's (seed, family, src, src_port, dst, dst_port).
    for seed in [(7, 1, 0, 1), (5, 2, 3), (11, 3, 0, 0, 1, 0)]:
        _same_stream(seed)


@pytest.mark.parametrize("seed", [-1, (3, -1), (0, 1, -(2**40))])
def test_a_negative_word_raises_as_numpy_does(seed):
    with pytest.raises(ValueError):
        np.random.default_rng(seed)
    with pytest.raises(ValueError, match="non-negative"):
        Pcg64(seed)

"""Tests for the counter-based streams."""

import numpy as np
import pytest

from specsum import rng
from specsum.rng import child_seed, stream

SEEDS = [0, 1, -1, 2**31 - 1, 2**32, 2**63 - 1]


class TestStream:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equal_keys_repeat(self, seed):
        a = stream(seed, 29, 3).integers(0, 2**62, size=8)
        b = stream(seed, 29, 3).integers(0, 2**62, size=8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_distinct_keys_differ(self, seed):
        # No key is another padded with trailing zeros, which SeedSequence
        # cannot tell apart: stream(s, 29) is stream(s, 29, 0).
        keys = [(seed, 1), (seed, 29), (seed, 29, 1), (seed, 29, 2), (seed, 30), (seed + 1, 29)]
        draws = {tuple(stream(*key).integers(0, 2**62, size=4)) for key in keys}
        assert len(draws) == len(keys)


class TestFixedStreams:
    """The fixed stream indices name distinct keys even after SeedSequence
    pads the pool with zeros, under which (i) and (i, 0) are one key."""

    NAMES = [name for name in rng.__all__ if name.endswith("_STREAM")]
    PER_REPETITION = {"TRACE_PRODUCT_STREAM", "INNER_PRODUCT_STREAM"}

    def _keys(self):
        """Every fixed key, with repetitions 0-2 of the per-repetition streams."""
        return [(getattr(rng, name), *rep) for name in self.NAMES
                for rep in ([(r,) for r in range(3)] if name in self.PER_REPETITION else [()])]

    def test_declared_once(self):
        assert len(self.NAMES) == 9
        assert len({getattr(rng, name) for name in self.NAMES}) == len(self.NAMES)

    def test_retired_index_stays_unused(self):
        assert 0xE not in {getattr(rng, name) for name in self.NAMES}

    def test_distinct_after_zero_padding(self):
        def padded(key):
            while key and key[-1] == 0:
                key = key[:-1]
            return key

        keys = self._keys()
        assert len({padded(key) for key in keys}) == len(keys)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_distinct_draws(self, seed):
        keys = self._keys()
        draws = {tuple(stream(seed, *key).integers(0, 2**62, size=4)) for key in keys}
        assert len(draws) == len(keys)

    def test_padding_joins_a_trailing_zero(self):
        a = stream(3, rng.TRACE_PRODUCT_STREAM, 0).integers(0, 2**62, size=4)
        assert np.array_equal(a, stream(3, rng.TRACE_PRODUCT_STREAM).integers(0, 2**62, size=4))


class TestChildSeed:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", [0, 1, 7, 2**40])
    def test_stays_in_31_bits(self, seed, k):
        assert 0 <= child_seed(seed, k) < 2**31

    def test_children_differ(self):
        assert len({child_seed(12345, k) for k in range(100)}) == 100

"""Tests for the counter-based streams."""

import numpy as np
import pytest

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


class TestChildSeed:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", [0, 1, 7, 2**40])
    def test_stays_in_31_bits(self, seed, k):
        assert 0 <= child_seed(seed, k) < 2**31

    def test_children_differ(self):
        assert len({child_seed(12345, k) for k in range(100)}) == 100

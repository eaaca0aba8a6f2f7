"""Tests for the counter-based streams and the blocked Rademacher draw."""

import numpy as np
import pytest

from specsum import baselines
from specsum.baselines import _PROBE_STREAM, ProbeConfig, _probe
from specsum.matrix_core import SymmetricMatrix, generate_spd
from specsum.reporting import report_json
from specsum.rng import rademacher_block, stream

SEEDS = [0, 1, -1, 2**31 - 1, 2**32, 2**32 + 7, 2**63 - 1]
# Ranges that start at 0, straddle the 256-probe block edge, and start at 4096.
RANGES = [(0, 5), (250, 262), (4096, 4099)]


def _stacked(n, seed, start, stop):
    """The per-probe reference: one Generator per column."""
    return np.stack([_probe(n, "rademacher", seed, i) for i in range(start, stop)], axis=1)


class TestRademacherBlock:
    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 257, 1024])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_stacked_probes(self, seed, n):
        for start, stop in RANGES:
            block = rademacher_block(n, seed, _PROBE_STREAM, start, stop)
            assert block.flags.c_contiguous
            assert np.array_equal(block, _stacked(n, seed, start, stop))

    @pytest.mark.parametrize("index", [0, 2**32 - 1])
    def test_any_sub_stream_index(self, index):
        n, seed = 11, 2**63 - 1
        block = rademacher_block(n, seed, index, 7, 10)
        ref = [2.0 * stream(seed, index, i).integers(0, 2, size=n) - 1.0 for i in range(7, 10)]
        assert np.array_equal(block, np.stack(ref, axis=1))

    def test_last_single_word_index(self):
        stop = 2**32
        assert np.array_equal(rademacher_block(6, 5, _PROBE_STREAM, stop - 2, stop),
                              _stacked(6, 5, stop - 2, stop))

    @pytest.mark.parametrize("index, start, stop", [
        (_PROBE_STREAM, 2**32, 2**32 + 1), (_PROBE_STREAM, 2**32 - 1, 2**32 + 1),
        (_PROBE_STREAM, -1, 2), (_PROBE_STREAM, 3, 2), (2**32, 0, 2), (-1, 0, 2),
    ])
    def test_rejects_indices_outside_one_word(self, index, start, stop):
        with pytest.raises(ValueError):
            rademacher_block(4, 0, index, start, stop)

    def test_empty_block(self):
        assert rademacher_block(3, 0, _PROBE_STREAM, 4, 4).shape == (3, 0)


def _classical_reports(cfg):
    A = generate_spd(9, 4.0, "log_uniform", 0.5, 1)
    rho = SymmetricMatrix(9, np.asarray(A.entries) / np.trace(A.entries), spd_flag=True)
    return [
        baselines.classical_logdet_taylor(A, 0.3, cfg),
        baselines.classical_logdet_chebyshev(A, 0.3, cfg),
        baselines.classical_entropy(rho, 0.3, cfg),
        baselines.classical_trace_inverse(A, 0.3, cfg),
        baselines.classical_schatten_p(A, 3, 0.3, cfg),
    ]


class TestClassicalReportBytes:
    """Blocked draws leave every byte of the classical reports unchanged."""

    @pytest.mark.parametrize("num_probes", [7, 600])
    def test_reports_equal_per_probe_draws(self, num_probes, monkeypatch):
        cfg = ProbeConfig(num_probes=num_probes, seed=2**32 + 7)
        blocked = [report_json(rep) for rep in _classical_reports(cfg)]
        monkeypatch.setattr(baselines, "rademacher_block",
                            lambda n, seed, index, start, stop: _stacked(n, seed, start, stop))
        per_probe = [report_json(rep) for rep in _classical_reports(cfg)]
        assert blocked == per_probe

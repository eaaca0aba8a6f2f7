"""Tests for the emulated measurement primitives."""

import math

import numpy as np
import pytest

from specsum.matrix_core import generate_spd
from specsum.measurement import (
    BRASSARD_SUCCESS,
    _contract_draw,
    ae_error_bound,
    ae_rounds_for,
    amplitude_estimate,
    hadamard_test_estimate,
    inner_product_estimate,
    median_reps,
    qmc_mean_estimate,
    trace_estimate_abs,
    trace_product_estimate,
)
from specsum.polyapprox import approx_log
from specsum.qmodel import apply_svt, qram_block_encoding
from specsum.rng import stream

from dense_views import dense, eigenbasis


class TestMedianReps:
    def test_formula(self):
        assert median_reps(0.1) == math.ceil(18 * math.log(10))

    @pytest.mark.parametrize("delta", [0.0, 0.5, 0.9])
    def test_rejects_out_of_range(self, delta):
        with pytest.raises(ValueError):
            median_reps(delta)


class TestAeRounds:
    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01, 1e-4])
    def test_minimality(self, eps):
        t = ae_rounds_for(eps)
        cost = lambda t: math.pi / t + math.pi**2 / t**2
        assert cost(t) <= eps
        assert cost(t - 1) > eps


class TestAmplitudeEstimate:
    def test_exact_mode(self):
        est = amplitude_estimate(0.3, 100)
        assert est.value == 0.3
        assert est.queries_charged == 100

    def test_adversarial_saturates_bound(self):
        est = amplitude_estimate(0.3, 100, mode="adversarial")
        assert est.value == pytest.approx(0.3 + ae_error_bound(0.3, 100))

    def test_stochastic_lands_on_sine_grid(self):
        est = amplitude_estimate(0.3, 50, mode="stochastic", seed=4)
        m = 50 * math.asin(math.sqrt(est.value)) / math.pi
        assert abs(m - round(m)) < 1e-9

    def test_stochastic_success_within_bound(self):
        bound = ae_error_bound(0.3, 100)
        for seed in range(50):
            est = amplitude_estimate(0.3, 100, mode="stochastic", seed=seed)
            if not est.failed:
                assert abs(est.value - 0.3) <= bound + 1e-12

    def test_success_probability_reported(self):
        assert amplitude_estimate(0.5, 10).success_prob == pytest.approx(8 / math.pi**2)

    @pytest.mark.parametrize("a,t", [(-0.1, 10), (1.1, 10), (0.5, 0)])
    def test_invalid_arguments(self, a, t):
        with pytest.raises(ValueError):
            amplitude_estimate(a, t)


class TestTraceEstimates:
    def setup_method(self):
        self.A = generate_spd(16, 10.0, "log_uniform", 0.5, 1)
        self.be = qram_block_encoding(self.A)

    def test_absolute_exact_mode(self):
        est = trace_estimate_abs(self.be, 1e-3, 0.05)
        true_tr = float(np.trace(self.A.entries))
        assert abs(est.value - true_tr) <= est.abs_error_bound

    def test_absolute_bound_scales_with_n(self):
        est = trace_estimate_abs(self.be, 1e-3, 0.05)
        assert est.abs_error_bound <= self.be.n * (2e-3 + 1e-12)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            trace_estimate_abs(self.be, 0.0, 0.05)


class TestTraceProduct:
    def setup_method(self):
        self.A = generate_spd(16, 10.0, "log_uniform", 0.5, 2)
        self.be = qram_block_encoding(self.A)

    def test_exact_value(self):
        est = trace_product_estimate(self.be, 0.1, 0.05)
        block = dense(self.be, eigenbasis(self.A.entries)).target
        assert est.value == pytest.approx(float(np.sum(block * block)))

    def test_adversarial_stays_relative(self):
        est = trace_product_estimate(self.be, 0.1, 0.05)
        adv = trace_product_estimate(
            qram_block_encoding(generate_spd(16, 10.0, "log_uniform", 0.5, 2),
                                mode="adversarial"), 0.1, 0.05)
        assert adv.value == pytest.approx(est.value * 1.1)

    def test_cost_scales_with_sqrt_n(self):
        est = trace_product_estimate(self.be, 0.1, 0.05)
        assert est.queries_charged == pytest.approx(
            median_reps(0.05) * self.be.use_cost * math.sqrt(16) / 0.1 * 16.0
        )


class TestInnerProduct:
    """The overlap, use cost and mode are read from the encoding measured."""

    A = generate_spd(16, 10.0, "log_uniform", 0.5, 1)

    def test_exact(self):
        be = qram_block_encoding(self.A)
        est = inner_product_estimate(be, 0.01, 0.05)
        assert est.value == be.trace() / be.n
        assert est.value == pytest.approx(np.trace(self.A.entries) / (16 * self.A.stats.mu))
        assert est.queries_charged == median_reps(0.05) * ae_rounds_for(0.01) * be.use_cost

    def test_adversarial_shift(self):
        exact = inner_product_estimate(qram_block_encoding(self.A), 0.01, 0.05).value
        est = inner_product_estimate(qram_block_encoding(self.A, "adversarial"), 0.01, 0.05)
        assert est.value == pytest.approx(exact + 0.01)

    def test_stochastic_median_within_bound(self):
        be = qram_block_encoding(self.A, "stochastic")
        overlap = be.trace() / be.n
        hits = sum(abs(inner_product_estimate(be, 0.01, 0.1, seed=s).value - overlap) <= 0.01
                   for s in range(40))
        assert hits >= 36

    def test_bound_carries_the_encoding_error(self):
        series = approx_log(1 / 4, 1e-2)
        svt = inner_product_estimate(apply_svt(qram_block_encoding(self.A), series), 0.01, 0.05)
        assert svt.abs_error_bound == 0.01 + series.evaluation_error
        assert svt.abs_error_bound - 0.01 == pytest.approx(8.58e-15, rel=1e-3)
        assert inner_product_estimate(qram_block_encoding(self.A), 0.01, 0.05).abs_error_bound == 0.01


class TestHadamardTest:
    def test_exact(self):
        est = hadamard_test_estimate(0.25, 0.01, 0.05, unit_cost=2.0, seed=0)
        n_samp = math.ceil(2 * math.log(2 / 0.05) / 0.01**2)
        assert est.value == 0.25
        assert est.queries_charged == 2 * n_samp * 2.0

    def test_adversarial_clipped(self):
        est = hadamard_test_estimate(0.999, 0.5, 0.05, unit_cost=1.0, seed=0,
                                     mode="adversarial")
        assert est.value <= 1.0

    def test_stochastic_failure_flag_consistent(self):
        for s in range(30):
            est = hadamard_test_estimate(0.3, 0.05, 0.1, 1.0, seed=s, mode="stochastic")
            assert est.failed == (abs(est.value - 0.3) > 0.05)

    def test_stochastic_mostly_in_bound(self):
        fails = sum(
            hadamard_test_estimate(0.3, 0.05, 0.1, 1.0, seed=s, mode="stochastic").failed
            for s in range(200)
        )
        assert fails <= 0.1 * 200 + 3 * math.sqrt(200 * 0.1 * 0.9)

    @pytest.mark.parametrize("overlap,eps", [(1.5, 0.1), (0.0, 0.0), (0.0, 3.0)])
    def test_invalid_arguments(self, overlap, eps):
        with pytest.raises(ValueError):
            hadamard_test_estimate(overlap, eps, 0.05, 1.0, seed=0)


class TestQmcMean:
    def test_exact_mean(self):
        vals = np.array([1.0, 2.0, 3.0])
        est = qmc_mean_estimate(vals, B=10.0, eps=0.1)
        assert est.value == pytest.approx(2.0)
        assert est.abs_error_bound == pytest.approx(0.2)

    @pytest.mark.parametrize("B, eps, calls", [(5.0, 0.1, 800), (5.0, 0.3, 267), (0.7, 0.07, 160)])
    def test_query_cost(self, B, eps, calls):
        """ceil(16 B / eps) whole sampler calls, one query each."""
        est = qmc_mean_estimate([1.0, 1.2], B=B, eps=eps)
        assert (est.reps, est.rounds, est.queries_charged) == (1, calls, float(calls))

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="nonnegative"):
            qmc_mean_estimate([-1.0, 2.0], B=10.0, eps=0.1)

    def test_rejects_variance_violation(self):
        with pytest.raises(ValueError, match="exceeds"):
            qmc_mean_estimate([1e-6, 100.0], B=0.1, eps=0.1)

    def test_stochastic_relative_error_model(self):
        vals = np.array([1.0, 2.0, 3.0])
        for s in range(30):
            est = qmc_mean_estimate(vals, B=10.0, eps=0.1, seed=s, mode="stochastic")
            if not est.failed:
                assert abs(est.value - 2.0) <= 0.2 + 1e-12


class TestReportedCounts:
    """Each primitive reports the repetitions and rounds its query charge counts."""

    def setup_method(self):
        self.be = qram_block_encoding(generate_spd(16, 10.0, "log_uniform", 0.5, 1))

    def test_amplitude_estimate(self):
        est = amplitude_estimate(0.3, 40)
        assert (est.reps, est.rounds, est.queries_charged) == (1, 40, 40.0)

    @pytest.mark.parametrize("delta", [0.2, 0.05])
    def test_trace_estimate_abs(self, delta):
        est = trace_estimate_abs(self.be, 1e-2, delta)
        assert est.reps == median_reps(delta)
        assert est.rounds == math.ceil(8.0 * self.be.alpha * math.pi / 1e-2)
        assert est.queries_charged == est.reps * est.rounds * self.be.use_cost

    def test_inner_product_estimate(self):
        est = inner_product_estimate(self.be, 0.01, 0.05)
        assert (est.reps, est.rounds) == (median_reps(0.05), ae_rounds_for(0.01))
        assert est.queries_charged == est.reps * est.rounds * self.be.use_cost

    def test_hadamard_test_estimate(self):
        est = hadamard_test_estimate(0.2, 0.1, 0.05, unit_cost=5.0, seed=0)
        assert (est.reps, est.rounds) == (1, math.ceil(2.0 * math.log(2.0 / 0.05) / 0.1**2))
        assert est.queries_charged == 2.0 * est.rounds * 5.0

    def test_trace_product_estimate(self):
        est = trace_product_estimate(self.be, 0.1, 0.05)
        assert (est.reps, est.rounds) == (median_reps(0.05), 0)


class TestContractDraw:
    def test_branches(self):
        flags = set()
        for s in range(200):
            u, failed = _contract_draw(stream(s, 5), BRASSARD_SUCCESS, 3.0)
            flags.add(failed)
            assert (1.0 <= abs(u) <= 3.0) if failed else (abs(u) <= 1.0)
        assert flags == {False, True}

    def test_draw_order(self):
        for s in range(50):
            rng = stream(s, 5)
            if rng.random() < 0.75:
                expected = (rng.uniform(-1.0, 1.0), False)
            else:
                sign = 1.0 if rng.random() < 0.5 else -1.0
                expected = (sign * rng.uniform(1.0, 2.0), True)
            assert _contract_draw(stream(s, 5), 0.75, 2.0) == expected


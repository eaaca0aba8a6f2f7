"""Tests for the block-encoding emulation layer."""

import dataclasses
import math

import numpy as np
import pytest

from specsum.matrix_core import SymmetricMatrix, generate_spd, with_spectrum
from specsum.polyapprox import ChebyshevSeries, approx_monomial
from specsum.qmodel import (
    BlockEncoding,
    CostLedger,
    apply_svt,
    matrix_power,
    polylog,
    product_preamplified,
    qram_block_encoding,
    sve_cost,
    sve_values,
)
from specsum.rng import SVE_STREAM, stream

from dense_views import dense, eigenbasis


def _contraction(n=16, kappa=10.0, seed=1):
    return generate_spd(n, kappa, "log_uniform", 0.5, seed)


def _source(n):
    """The spectrum of the n x n identity, whose eigenbasis may be taken as I."""
    return with_spectrum(np.eye(n), np.ones(n)).spectral


class TestPolylog:
    def test_values(self):
        assert polylog(2) == 1.0
        assert polylog(64) == 36.0
        assert polylog(100) == 49.0

    def test_floor_at_one(self):
        assert polylog(1) >= 1.0


class TestCostLedger:
    def test_holds_its_values(self):
        led = CostLedger(be_uses=2, sve_calls=7, ae_rounds=5, total_queries=13.0)
        assert led.total_queries == 13.0
        assert led.be_uses == 2
        assert led.sve_calls == 7
        assert led.ae_rounds == 5
        assert CostLedger().as_dict() == dict.fromkeys(led.as_dict(), 0.0)

    def test_as_dict_keys(self):
        assert set(CostLedger().as_dict()) == {
            "be_uses", "sve_calls", "ae_rounds", "total_queries"
        }


class TestEncodings:
    def test_qram_normalization(self):
        A = _contraction()
        be = qram_block_encoding(A)
        assert be.alpha == pytest.approx(A.stats.mu)
        assert np.allclose(dense(be, eigenbasis(A.entries)).target, A.entries, atol=1e-12)
        assert be.use_cost == polylog(A.n)
        assert be.eps == 0.0

    def test_qram_rejects_expansion(self):
        big = SymmetricMatrix(4, 2.0 * np.eye(4), spd_flag=True)
        with pytest.raises(ValueError, match="<= 1"):
            qram_block_encoding(big)

    def test_vectors_are_read_only_and_noise_defaults_to_zero(self):
        be = BlockEncoding(source=_source(3), payload_values=[0.25, 0.5, 1.0], alpha=1.0,
                           ancillas=1, eps=0.0, use_cost=1.0, perturbation_mode="exact",
                           seed=0)
        assert not be.perturbation_values.any()
        assert not be.payload_values.flags.writeable
        assert not be.perturbation_values.flags.writeable
        np.testing.assert_array_equal(dense(be, np.eye(3)).payload, np.diag([0.25, 0.5, 1.0]))

    def test_rejects_size_mismatch_and_free_use(self):
        kw = dict(source=_source(3), payload_values=np.ones(3), alpha=1.0, ancillas=1,
                  eps=0.0, perturbation_mode="exact", seed=0)
        with pytest.raises(ValueError, match="disagree in size"):
            BlockEncoding(**dict(kw, perturbation_values=np.zeros(2)), use_cost=1.0)
        with pytest.raises(ValueError, match="disagree in size"):
            BlockEncoding(**dict(kw, source=_source(2)), use_cost=1.0)
        with pytest.raises(ValueError, match="use_cost"):
            BlockEncoding(**kw, use_cost=0.0)

    def test_rejects_an_unknown_perturbation_mode(self):
        with pytest.raises(ValueError, match="unknown perturbation mode 'foo': choose one of"):
            qram_block_encoding(_contraction(), "foo")

    def test_is_frozen(self):
        be = qram_block_encoding(_contraction())
        with pytest.raises(dataclasses.FrozenInstanceError):
            be.alpha = 2.0

    def test_derived_encodings_share_the_source(self):
        A = _contraction()
        be = qram_block_encoding(A, "stochastic", seed=5)
        assert be.source is A.spectral
        out = apply_svt(be, ChebyshevSeries(
            degree=1, coefficients=np.array([0.0, 0.5]), target="x/2",
            certified_sup_error=0.0, certified_on=(-1.0, 1.0), global_bound=0.5))
        assert product_preamplified(out, out).source is A.spectral
        assert out.effective_trace() == pytest.approx(
            float(np.sum(out.payload_values + out.perturbation_values)))

    def test_encoding_defect_is_largest_perturbation_value(self):
        be = BlockEncoding(source=_source(3), payload_values=np.full(3, 0.5),
                           perturbation_values=[1e-4, -3e-4, 2e-4], alpha=1.0,
                           ancillas=1, eps=1e-3, use_cost=1.0,
                           perturbation_mode="stochastic", seed=0)
        assert be.encoding_defect() == pytest.approx(3e-4)


class TestApplySvt:
    def test_polynomial_applied_to_eigenvalues(self):
        A = _contraction()
        be = qram_block_encoding(A)
        mono = approx_monomial(3, 3)
        half = ChebyshevSeries(
            degree=3, coefficients=np.asarray(mono.coefficients) / 2.0,
            target="x^3/2", certified_sup_error=0.0,
            certified_on=(-1.0, 1.0), global_bound=0.5,
        )
        out = apply_svt(be, half)
        V = eigenbasis(A.entries)
        expected = np.linalg.matrix_power(dense(be, V).payload, 3) / 2.0
        assert np.allclose(dense(out, V).payload, expected, atol=1e-10)
        assert out.use_cost == (3 + 1) * be.use_cost

    def test_rejects_unbounded_polynomial(self):
        be = qram_block_encoding(_contraction())
        loud = ChebyshevSeries(degree=1, coefficients=np.array([0.0, 0.9]),
                               target="x", certified_sup_error=0.0,
                               certified_on=(-1.0, 1.0), global_bound=0.9)
        with pytest.raises(ValueError, match="1/2"):
            apply_svt(be, loud)


class TestProducts:
    def test_preamplified_product_halves(self):
        A = _contraction(seed=2)
        be = qram_block_encoding(A)
        out = product_preamplified(be, be)
        expected = (np.asarray(A.entries) @ np.asarray(A.entries)) / 2.0
        assert out.alpha == 1.0
        assert np.allclose(dense(out, eigenbasis(A.entries)).payload, expected, atol=1e-12)

    def test_preamplified_requires_contractions(self):
        big = BlockEncoding(source=_source(2), payload_values=np.ones(2), alpha=2.0,
                            ancillas=1, eps=0.0, use_cost=1.0, perturbation_mode="exact",
                            seed=0)
        with pytest.raises(ValueError, match="contraction|<= 1"):
            product_preamplified(big, big)


class TestMatrixPower:
    def _half_encoding(self):
        # I/kappa <= H <= I with H = diag spectrum, encoded exactly.
        return BlockEncoding(source=_source(8), payload_values=np.linspace(0.25, 1.0, 8),
                             alpha=1.0, ancillas=2, eps=0.0, use_cost=1.0,
                             perturbation_mode="exact", seed=0)

    def test_fractional_power_payload(self):
        be = self._half_encoding()
        out = matrix_power(be, 0.5, 4.0, 1e-6)
        expected = np.diag(np.sqrt(np.linspace(0.25, 1.0, 8))) / 2.0
        assert np.allclose(dense(out, np.eye(8)).payload, expected, atol=1e-12)

    def test_rejects_noisy_input(self):
        noisy = BlockEncoding(source=_source(8), payload_values=np.linspace(0.25, 1.0, 8),
                              alpha=1.0, ancillas=2, eps=1e-2, use_cost=1.0,
                              perturbation_mode="exact", seed=0)
        with pytest.raises(ValueError, match="budget"):
            matrix_power(noisy, 0.5, 4.0, 1e-6)

    def test_rejects_out_of_range_spectrum(self):
        be = BlockEncoding(source=_source(8), payload_values=np.linspace(0.01, 1.0, 8),
                           alpha=1.0, ancillas=2, eps=0.0, use_cost=1.0,
                           perturbation_mode="exact", seed=0)
        with pytest.raises(ValueError, match="kappa"):
            matrix_power(be, 0.5, 4.0, 1e-6)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError, match="c must"):
            matrix_power(self._half_encoding(), 1.5, 4.0, 1e-6)


class TestSveValues:
    def _sv(self):
        A = _contraction()
        return A, np.asarray(A.spectral.singular_values)

    def test_exact_mode_is_the_singular_values(self):
        A, sv = self._sv()
        np.testing.assert_array_equal(sve_values(A.spectral, 1e-3, "exact", 0), sv)

    def test_adversarial_mode_rounds_half_to_even_onto_the_grid(self):
        A, sv = self._sv()
        eps1 = 1e-3
        est = sve_values(A.spectral, eps1, "adversarial", 0)
        assert est.tolist() == [round(s / eps1) * eps1 for s in sv]
        assert np.all(np.abs(est - sv) <= eps1 / 2 + 1e-15)

    def test_stochastic_mode_draws_one_stream(self):
        A, sv = self._sv()
        eps1 = 1e-3
        est = sve_values(A.spectral, eps1, "stochastic", 9)
        assert est.tolist() == (sv + eps1 * stream(9, SVE_STREAM).uniform(-1.0, 1.0, A.n)).tolist()
        assert np.all(np.abs(est - sv) <= eps1)
        # Draw j depends on the seed and j only, whatever the dimension.
        small = with_spectrum(np.diag(sv[:5]), sv[:5], spd_flag=True)
        assert sve_values(small.spectral, eps1, "stochastic", 9).tolist() == est[:5].tolist()

    def test_unknown_mode(self):
        A, _ = self._sv()
        with pytest.raises(ValueError, match="unknown SVE mode"):
            sve_values(A.spectral, 1e-3, "grid_round", 0)

    def test_cost(self):
        A = _contraction()
        assert sve_cost(A.stats.mu, 1e-4, A.n) == pytest.approx(A.stats.mu / 1e-4 * polylog(A.n))

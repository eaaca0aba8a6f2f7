"""Tests for certified Chebyshev constructions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as cheb

from specsum import polyapprox
from specsum.polyapprox import (
    CertificationError,
    ChebyshevSeries,
    approx_inverse,
    approx_log,
    approx_monomial,
    approx_sqrt,
    chebyshev_logdet_coeffs,
    chebyshev_logdet_setup,
    entropy_poly,
    taylor_logdet_degree,
)

BETAS = [1 / 4, 1 / 10, 1 / 32]
EPSES = [1e-2, 1e-3]


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("eps", EPSES)
class TestCertifiedConstructions:
    def test_log_certified(self, beta, eps):
        s = approx_log(beta, eps)
        assert s.certified_sup_error <= eps
        assert s.global_bound <= 0.5

    def test_log_matches_target_on_domain(self, beta, eps):
        s = approx_log(beta, eps)
        x = np.linspace(beta, 1.0, 2000)
        big_l = math.log(2.0 / beta)
        err = np.max(np.abs(s(x) - np.log(x) / (2 * big_l)))
        assert err <= eps * 1.001

    def test_inverse_certified(self, beta, eps):
        s = approx_inverse(beta, eps)
        assert s.certified_sup_error <= eps
        assert s.global_bound <= 0.5

    def test_inverse_matches_target_on_domain(self, beta, eps):
        s = approx_inverse(beta, eps)
        x = np.linspace(beta, 1.0, 2000)
        err = np.max(np.abs(s(x) - 3.0 * beta / (8.0 * x)))
        assert err <= eps * 1.001

    def test_inverse_is_odd(self, beta, eps):
        s = approx_inverse(beta, eps)
        assert np.allclose(np.asarray(s.coefficients)[::2], 0.0, atol=1e-13)

    def test_sqrt_certified(self, beta, eps):
        s = approx_sqrt(beta, eps)
        assert s.certified_sup_error <= eps
        assert s.global_bound <= 0.5

    def test_entropy_certified(self, beta, eps):
        s = entropy_poly(beta, eps)
        assert s.certified_sup_error <= eps
        assert s.global_bound <= 0.5

    def test_entropy_matches_target(self, beta, eps):
        s = entropy_poly(beta, eps)
        x = np.linspace(beta, 1.0, 2000)
        big_l = math.log(2.0 / beta)
        err = np.max(np.abs(s(x) + x * np.log(x) / (2 * big_l)))
        assert err <= eps * 1.001


class TestApproxMonomial:
    @pytest.mark.parametrize("s,d", [(4, 4), (16, 8), (16, 16), (64, 24), (64, 64)])
    def test_tail_bound(self, s, d):
        series = approx_monomial(s, d)
        assert series.certified_sup_error <= 2.0 * math.exp(-(d**2) / (2.0 * s))

    def test_exact_at_full_degree(self):
        series = approx_monomial(5, 5)
        x = np.linspace(-1, 1, 500)
        assert np.allclose(series(x), x**5, atol=1e-12)

    def test_parity(self):
        series = approx_monomial(6, 4)
        assert np.allclose(np.asarray(series.coefficients)[1::2], 0.0, atol=1e-14)


class TestDegreeScaling:
    def test_log_degree_near_linear_in_inverse_beta(self):
        degs = [approx_log(b, 1e-3).degree for b in (1 / 4, 1 / 8, 1 / 16, 1 / 32)]
        slope = np.polyfit(np.log([4, 8, 16, 32]), np.log(degs), 1)[0]
        assert slope <= 1.15


class TestChebval:
    def test_clenshaw_recurrence_identity(self):
        x = np.linspace(-1, 1, 201)
        t = [np.ones_like(x), x]
        for _ in range(2, 12):
            t.append(2 * x * t[-1] - t[-2])
        for j in range(12):
            unit = np.zeros(j + 1)
            unit[j] = 1.0
            assert np.allclose(cheb.chebval(x, unit), t[j], atol=1e-12)


class TestTaylorDegree:
    def test_reference_value(self):
        assert taylor_logdet_degree(10.0, 0.1) == 47

    def test_kappa_one(self):
        assert taylor_logdet_degree(1.0, 0.5) == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            taylor_logdet_degree(0.5, 0.1)
        with pytest.raises(ValueError):
            taylor_logdet_degree(10.0, 0.0)


class TestChebyshevLogdetSetup:
    def test_k_factor_reference(self):
        delta = 0.25
        k_fac = (math.sqrt(2 - delta) + math.sqrt(delta)) / (math.sqrt(2 - delta) - math.sqrt(delta))
        assert k_fac == pytest.approx(2.2150, abs=5e-4)

    def test_degree_is_minimal(self):
        delta, eps = 0.1, 1e-3
        coeffs, d, bound = chebyshev_logdet_setup(delta, eps)
        assert bound <= eps
        k_fac = (math.sqrt(2 - delta) + math.sqrt(delta)) / (math.sqrt(2 - delta) - math.sqrt(delta))
        prev = 20 * math.log(2 / delta) / (k_fac ** (d - 1) * (k_fac - 1))
        assert prev > eps
        assert len(coeffs) == d + 1

    def test_coefficients_reproduce_log(self):
        delta = 0.1
        coeffs, d, bound = chebyshev_logdet_setup(delta, 1e-6)
        lam = np.linspace(delta, 1 - delta, 500)
        y = (2 * lam - 1) / (1 - 2 * delta)
        assert np.max(np.abs(cheb.chebval(y, coeffs) - np.log(lam))) <= bound

    def test_truncation_decays_geometrically(self):
        delta = 0.1
        lam = np.linspace(delta, 1 - delta, 200)
        y = (2 * lam - 1) / (1 - 2 * delta)
        errs = []
        for d in (5, 10, 20):
            coeffs = chebyshev_logdet_coeffs(delta, d)
            errs.append(np.max(np.abs(cheb.chebval(y, coeffs) - np.log(lam))))
        assert errs[1] < errs[0] * 0.1
        assert errs[2] < errs[1] * 0.01

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            chebyshev_logdet_setup(0.6, 0.1)
        with pytest.raises(ValueError):
            chebyshev_logdet_coeffs(0.0, 5)


class TestSeriesContainer:
    def test_serializes_to_json(self):
        s = approx_log(0.25, 1e-2)
        import json

        doc = json.loads(s.to_json())
        assert doc["degree"] == s.degree
        assert len(doc["coefficients"]) == s.degree + 1

    def test_degree_follows_coefficients(self):
        s = ChebyshevSeries(degree=0, coefficients=np.array([0.0, 1.0, 0.5]),
                            target="t", certified_sup_error=0.0,
                            certified_on=(-1.0, 1.0), global_bound=0.4)
        assert s.degree == 2


# The true target of each builder, for the property test.
def _log_target(beta):
    return lambda x: np.log(x) / (2 * math.log(2.0 / beta))


_TARGETS = {
    "log": (approx_log, _log_target),
    "inverse": (approx_inverse, lambda delta: lambda x: 3 * delta / (8 * x)),
    "sqrt": (approx_sqrt, lambda beta: lambda x: np.sqrt(x) / 3),
    "entropy": (entropy_poly, lambda beta: lambda x: -x * _log_target(beta)(x)),
}


class TestCertifiedAgainstTrueTarget:
    """Every certified series holds against its true target off the DCT grid."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(sorted(_TARGETS)),
           log_beta=st.floats(math.log(1 / 40), math.log(0.5)),
           log_eps=st.floats(math.log(1e-4), math.log(0.2)))
    def test_error_and_global_bound(self, kind, log_beta, log_eps):
        beta, eps = math.exp(log_beta), math.exp(log_eps)
        build, target = _TARGETS[kind]
        s = build(beta, eps)
        g = target(beta)
        # First-kind Chebyshev points: none coincides with the DCT-I grid.
        m = 64 * (s.degree_used + 1)
        x_cheb = np.cos((np.arange(m) + 0.5) * np.pi / m)
        x_lin = np.linspace(-1.0, 1.0, 100_001)
        for x in (x_cheb, x_lin):
            p = cheb.chebval(x, s.coefficients)
            dom = x >= beta
            assert np.max(np.abs(p[dom] - g(x[dom]))) <= eps
            assert np.max(np.abs(p)) <= s.global_bound <= 0.5
        assert s.certified_sup_error <= eps
        assert s.degree >= s.degree_used


class TestChoppedSeries:
    def test_chop_is_far_below_formula_degree(self):
        s = approx_log(0.037, 0.0028)
        assert s.degree == 1488  # the formula degree the ledger charges
        assert s.degree_used <= s.degree // 8
        assert len(s.coefficients) == s.degree_used + 1

    def test_entropy_charges_log_degree_plus_one(self):
        log = approx_log(1 / 10, 1e-3)
        ent = entropy_poly(1 / 10, 1e-3)
        assert ent.degree == log.degree + 1
        assert ent.degree_used == log.degree_used + 1

    def test_entropy_and_logdet_share_the_log_cell(self, monkeypatch):
        certified = []
        real = polyapprox._certify

        def counting(*args, **kwargs):
            certified.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(polyapprox, "_certify", counting)
        approx_log.cache_clear()
        entropy_poly.cache_clear()
        beta, eps = 0.0771, 0.00123
        ent = entropy_poly(beta, eps)
        hits = approx_log.cache_info().hits
        shared = approx_log(beta, eps)  # the call logdet_svt makes
        assert approx_log.cache_info().hits == hits + 1
        assert len(certified) == 1
        assert np.array_equal(ent.coefficients, -cheb.chebmul([0.0, 1.0], shared.coefficients))

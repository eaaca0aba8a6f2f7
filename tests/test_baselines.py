"""Tests for the classical randomized baselines."""

import math

import numpy as np
import pytest

from specsum import baselines
from specsum.baselines import (
    ProbeConfig,
    _cheb_quadform,
    _coldot,
    _probe,
    _quadform_samples,
    classical_entropy,
    classical_logdet_chebyshev,
    classical_logdet_taylor,
    classical_schatten_p,
    classical_trace_inverse,
    hutchinson_trace,
    probe_count,
)
from specsum.matrix_core import SymmetricMatrix, exact_spectral_sum, generate_spd
from specsum.polyapprox import (
    approx_inverse,
    approx_monomial,
    chebyshev_logdet_setup,
    entropy_poly,
)
from specsum.spectral_sums import AlgoConfig, vn_entropy


def _matrix(n=32, kappa=10.0, seed=1):
    return generate_spd(n, kappa, "log_uniform", 0.5, seed)


def _density(n=32, kappa=10.0, seed=1):
    A = _matrix(n, kappa, seed)
    return SymmetricMatrix(n, np.asarray(A.entries) / np.trace(A.entries),
                          spd_flag=True)


class TestProbeConfig:
    def test_defaults(self):
        cfg = ProbeConfig()
        assert cfg.num_probes == 128 and cfg.probe_kind == "rademacher"

    @pytest.mark.parametrize("kwargs", [dict(num_probes=0),
                                        dict(probe_kind="binary")])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ProbeConfig(**kwargs)


class TestProbeCount:
    def test_formula(self):
        assert probe_count(0.1, 0.05) == math.ceil(24 * math.log(40) / 0.01)

    def test_monotone_in_eps(self):
        assert probe_count(0.05, 0.1) > probe_count(0.1, 0.1)


class TestHutchinsonTrace:
    def test_identity_is_exact_with_rademacher(self):
        n = 16
        est = hutchinson_trace(lambda v: v, n, ProbeConfig(num_probes=8))
        assert est.value == pytest.approx(float(n))

    def test_diagonal_within_bound(self):
        d = np.array([1.0, 2.0, 3.0, 4.0])
        est = hutchinson_trace(lambda v: d * v, 4, ProbeConfig(num_probes=256, seed=3))
        assert abs(est.value - 10.0) <= est.abs_error_bound

    def test_rademacher_diagonal_exact(self):
        # Rademacher probes hit the diagonal exactly: z_i^2 = 1.
        d = np.array([2.0, -1.0, 5.0])
        est = hutchinson_trace(lambda v: d * v, 3, ProbeConfig(num_probes=4))
        assert est.value == pytest.approx(6.0)

    def test_gaussian_probes_unbiased(self):
        d = np.array([1.0, 2.0, 3.0])
        cfg = ProbeConfig(num_probes=4096, probe_kind="gaussian", seed=2)
        est = hutchinson_trace(lambda v: d * v, 3, cfg)
        assert est.value == pytest.approx(6.0, abs=0.5)

    def test_query_accounting_linear_in_probes(self):
        n = 8
        small = hutchinson_trace(lambda v: v, n, ProbeConfig(num_probes=10))
        big = hutchinson_trace(lambda v: v, n, ProbeConfig(num_probes=30))
        assert big.queries_charged == pytest.approx(3 * small.queries_charged)

    def test_custom_matvec_cost(self):
        est = hutchinson_trace(lambda v: v, 4, ProbeConfig(num_probes=5),
                               matvec_cost=7.0)
        assert est.queries_charged == pytest.approx(35.0)

    def test_deterministic_given_seed(self):
        d = np.arange(1.0, 9.0)
        a = hutchinson_trace(lambda v: d * v, 8, ProbeConfig(num_probes=32, seed=9))
        b = hutchinson_trace(lambda v: d * v, 8, ProbeConfig(num_probes=32, seed=9))
        assert a.value == b.value


class TestClassicalLogdet:
    def test_taylor_matches_oracle(self):
        A = _matrix()
        rep = classical_logdet_taylor(A, 0.1, ProbeConfig(num_probes=512, seed=4))
        assert rep.passed

    def test_chebyshev_matches_oracle(self):
        A = _matrix()
        rep = classical_logdet_chebyshev(A, 0.1, ProbeConfig(num_probes=512, seed=4))
        assert rep.passed

    def test_agree_with_each_other(self):
        A = _matrix(seed=6)
        cfg = ProbeConfig(num_probes=512, seed=8)
        a = classical_logdet_taylor(A, 0.1, cfg)
        b = classical_logdet_chebyshev(A, 0.1, cfg)
        assert abs(a.estimate.value - b.estimate.value) <= (
            a.guarantee_bound + b.guarantee_bound
        )

    def test_ledger_counts_matvec_operations(self):
        A = _matrix()
        rep = classical_logdet_taylor(A, 0.1, ProbeConfig(num_probes=16, seed=0))
        assert rep.ledger.total_queries == pytest.approx(
            rep.parameters["matvecs"] * A.n**2
        )

    def test_rejects_non_spd(self):
        m = SymmetricMatrix(2, np.diag([0.5, -0.1]))
        with pytest.raises(ValueError):
            classical_logdet_taylor(m, 0.1, ProbeConfig())


class TestClassicalOthers:
    def test_trace_inverse(self):
        A = _matrix()
        rep = classical_trace_inverse(A, 0.1, ProbeConfig(num_probes=512, seed=5))
        assert rep.exact == pytest.approx(exact_spectral_sum(A, "inverse"))
        assert rep.passed

    def test_entropy(self):
        rho = _density()
        rep = classical_entropy(rho, 0.2, ProbeConfig(num_probes=512, seed=5))
        assert rep.guarantee == "absolute"
        assert rep.passed

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_schatten(self, p):
        A = _matrix(seed=p)
        rep = classical_schatten_p(A, p, 0.1, ProbeConfig(num_probes=512, seed=5))
        exact = exact_spectral_sum(A, "x_pow_p", p=p) ** (1.0 / p)
        assert rep.exact == pytest.approx(exact)
        assert rep.passed

    def test_schatten_two_is_frobenius(self):
        A = _matrix(seed=11)
        rep = classical_schatten_p(A, 2, 0.05, ProbeConfig(num_probes=1024, seed=2))
        fro = float(np.linalg.norm(np.asarray(A.entries), "fro"))
        assert rep.estimate.value == pytest.approx(fro, rel=0.05)


# Per-probe reference: one plain matvec loop per probe, as the estimators
# ran before probes were blocked.  Each returns the samples z^T P z and the
# number of matvecs applied across all probes.

def _ref_probes(n, cfg):
    return [_probe(n, cfg.probe_kind, cfg.seed, i) for i in range(cfg.num_probes)]


def _ref_taylor(mat, m, probes):
    vals, matvecs = [], 0
    for z in probes:
        v, acc = z.copy(), 0.0
        for k in range(1, m + 1):
            v = v - mat @ v
            matvecs += 1
            acc += float(z @ v) / k
        vals.append(acc)
    return np.array(vals), matvecs


def _ref_chebyshev(mat, coeffs, probes):
    vals, matvecs = [], 0
    for z in probes:
        acc = coeffs[0] * float(z @ z)
        if len(coeffs) > 1:
            t_prev, t_cur = z, mat @ z
            matvecs += 1
            acc += coeffs[1] * float(z @ t_cur)
            for c in coeffs[2:]:
                t_prev, t_cur = t_cur, 2.0 * (mat @ t_cur) - t_prev
                matvecs += 1
                acc += c * float(z @ t_cur)
        vals.append(acc)
    return np.array(vals), matvecs


def _reference(name, A, eps, cfg, rep):
    """Per-probe (value, stderr, matvecs) rebuilt from a report's parameters."""
    mat = np.asarray(A.entries)
    probes = _ref_probes(A.n, cfg)
    prm = rep.parameters
    if name == "taylor":
        vals, mv = _ref_taylor(mat, prm["m"], probes)
        post = lambda mean: -mean
    elif name == "chebyshev":
        delta_c = prm["delta_margin"]
        per_dim = eps / 2.0 * math.log(1.0 / A.stats.spectral_norm)
        coeffs, _, _ = chebyshev_logdet_setup(delta_c, per_dim)
        mapped = (2.0 * mat - np.eye(A.n)) / (1.0 - 2.0 * delta_c)
        vals, mv = _ref_chebyshev(mapped, coeffs, probes)
        post = lambda mean: mean
    elif name == "entropy":
        beta = float(A.spectral.eigenvalues[-1])
        vals, mv = _ref_chebyshev(mat, entropy_poly(beta, prm["eps1"]).coefficients, probes)
        post = lambda mean: 2.0 * prm["rescale_log"] * mean
    elif name == "trace_inverse":
        vals, mv = _ref_chebyshev(
            mat, approx_inverse(prm["delta"], prm["eps1"]).coefficients, probes)
        post = lambda mean: 8.0 * mean / (3.0 * prm["delta"])
    else:
        vals, mv = _ref_chebyshev(
            mat, approx_monomial(prm["p"], prm["degree"]).coefficients, probes)
        post = lambda mean: max(mean, 0.0) ** (1.0 / prm["p"])
    stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    return post(float(np.mean(vals))), stderr, mv


_ESTIMATORS = {
    "taylor": classical_logdet_taylor,
    "chebyshev": classical_logdet_chebyshev,
    "entropy": classical_entropy,
    "trace_inverse": classical_trace_inverse,
    "schatten": lambda A, eps, cfg: classical_schatten_p(A, 3, eps, cfg),
}


class TestBlockedProbes:
    """Blocked recurrences match the per-probe reference loop."""

    @staticmethod
    def _check(name, A, eps, cfg):
        rep = _ESTIMATORS[name](A, eps, cfg)
        value, stderr, matvecs = _reference(name, A, eps, cfg, rep)
        assert rep.estimate.value == pytest.approx(value, rel=1e-10, abs=0.0)
        assert rep.parameters["stderr"] == pytest.approx(stderr, rel=1e-10, abs=0.0)
        assert rep.parameters["matvecs"] == matvecs
        assert rep.ledger.total_queries == matvecs * A.n**2
        return rep

    @pytest.mark.parametrize("num_probes", [7, 600])
    @pytest.mark.parametrize("kind", ["rademacher", "gaussian"])
    @pytest.mark.parametrize("name", sorted(_ESTIMATORS))
    def test_matches_per_probe_loop(self, name, kind, num_probes):
        A = _density(n=8, kappa=2.0) if name == "entropy" else _matrix(n=8, kappa=4.0)
        self._check(name, A, 0.3, ProbeConfig(num_probes=num_probes, probe_kind=kind, seed=3))

    @pytest.mark.parametrize("kind", ["rademacher", "gaussian"])
    @pytest.mark.parametrize("name", sorted(_ESTIMATORS))
    def test_long_series_match_per_probe_loop(self, name, kind):
        """Degrees in the hundreds and thousands (trace_inverse 281, Taylor
        m = 98, entropy 2,702), where each even moment 2<T_j z, T_j z> - mu_0
        is a difference of two terms of size ||z||^2."""
        A = _density(n=64, kappa=10.0) if name == "entropy" else _matrix(n=64, kappa=10.0)
        self._check(name, A, 0.3, ProbeConfig(num_probes=7, probe_kind=kind, seed=3))

    def test_taylor_odd_and_even_orders(self):
        A = _matrix(n=16, kappa=4.0)
        cfg = ProbeConfig(num_probes=9, seed=2)
        orders = {self._check("taylor", A, eps, cfg).parameters["m"]
                  for eps in (0.3, 0.1)}
        assert {m % 2 for m in orders} == {0, 1}

    def test_hutchinson_vector_matvec_across_blocks(self):
        n = 5
        d = np.arange(1.0, n + 1)
        seen = set()

        def matvec(v):
            seen.add(v.shape)
            return d * v

        cfg = ProbeConfig(num_probes=600, seed=4)
        est = hutchinson_trace(matvec, n, cfg)
        vals = [float(z @ (d * z)) for z in _ref_probes(n, cfg)]
        assert seen == {(n,)}
        assert est.value == float(np.mean(vals))
        assert est.abs_error_bound == 3.0 * float(np.std(vals, ddof=1) / math.sqrt(600))


class TestChebQuadform:
    """Rademacher probes read a diagonal operator's trace exactly: z_i^2 = 1."""

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 6, 7])
    def test_diagonal_trace_is_exact(self, degree):
        d = np.linspace(-0.9, 0.9, 7)
        coeffs = np.random.default_rng(degree).standard_normal(degree + 1)
        mean, stderr = _cheb_quadform(lambda V: d[:, None] * V, coeffs, d.size,
                                      ProbeConfig(num_probes=5, seed=1))
        assert mean == pytest.approx(float(np.sum(np.polynomial.chebyshev.chebval(d, coeffs))),
                                     rel=1e-12, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("degree", range(8))
    def test_half_the_block_products(self, degree):
        d = np.linspace(-0.9, 0.9, 7)
        calls = []

        def op(V):
            calls.append(V.shape)
            return d[:, None] * V

        _cheb_quadform(op, np.ones(degree + 1), d.size, ProbeConfig(num_probes=5, seed=1))
        assert calls == [(d.size, 5)] * math.ceil(degree / 2)


def _unfused_cheb_qform(op, coeffs):
    """_cheb_quadform's qform with the step written as 2.0 * op(T_j) - T_{j-1}."""
    d = len(coeffs) - 1

    def qform(Z):
        mu0 = _coldot(Z, Z)
        acc = coeffs[0] * mu0
        if d == 0:
            return acc
        t_prev, t_cur = Z, op(Z)
        mu1 = _coldot(Z, t_cur)
        acc += coeffs[1] * mu1
        for k in range(2, d + 1):
            if k % 2 == 0:
                acc += coeffs[k] * (2.0 * _coldot(t_cur, t_cur) - mu0)
            else:
                t_prev, t_cur = t_cur, 2.0 * op(t_cur) - t_prev
                acc += coeffs[k] * (2.0 * _coldot(t_prev, t_cur) - mu1)
        return acc

    return qform


# 25 cells: three estimators over n, kappa and the probe count, plus one
# entropy cell (its series runs to degree 1,329 there and beyond 3,000 in
# the others).
_IN_PLACE_CELLS = [
    (name, n, kappa, num_probes)
    for name in ("chebyshev", "schatten", "trace_inverse")
    for n in (64, 256) for kappa in (2.0, 10.0) for num_probes in (64, 256)
] + [("entropy", 64, 2.0, 64)]


class TestInPlaceStep:
    """The in-place step (op, then *= 2 and -= T_{j-1}) is bitwise the unfused one."""

    @pytest.mark.parametrize("name, n, kappa, num_probes", _IN_PLACE_CELLS)
    def test_bitwise_equal_to_unfused(self, monkeypatch, name, n, kappa, num_probes):
        pairs = []

        def both(op, coeffs, n, cfg):
            fused = _cheb_quadform(op, coeffs, n, cfg)
            pairs.append((fused, _quadform_samples(_unfused_cheb_qform(op, coeffs), n, cfg)))
            return fused

        monkeypatch.setattr(baselines, "_cheb_quadform", both)
        A = _density(n=n, kappa=kappa) if name == "entropy" else _matrix(n=n, kappa=kappa)
        _ESTIMATORS[name](A, 0.1, ProbeConfig(num_probes=num_probes, seed=5))
        assert len(pairs) == 1
        assert pairs[0][0] == pairs[0][1]


# The SPD baselines, with the contraction each requires: strict (||A|| < 1)
# for the log-determinants, ||A|| <= 1 for the others.
_SPD_ESTIMATORS = {name: _ESTIMATORS[name]
                   for name in ("taylor", "chebyshev", "trace_inverse", "schatten")}
_STRICT = {"taylor", "chebyshev"}


class TestInputChecks:
    """The baselines reject input with the quantum estimators' checks."""

    @pytest.mark.parametrize("name", sorted(_SPD_ESTIMATORS))
    def test_rejects_non_spd(self, name):
        m = SymmetricMatrix(2, np.diag([0.5, -0.1]))
        with pytest.raises(ValueError, match="SPD"):
            _SPD_ESTIMATORS[name](m, 0.1, ProbeConfig(num_probes=4))

    @pytest.mark.parametrize("name", sorted(_SPD_ESTIMATORS))
    def test_rejects_expansion(self, name):
        m = SymmetricMatrix(2, np.diag([1.5, 0.5]), spd_flag=True)
        with pytest.raises(ValueError, match="\\|\\|A\\|\\|"):
            _SPD_ESTIMATORS[name](m, 0.1, ProbeConfig(num_probes=4))

    @pytest.mark.parametrize("name", sorted(_SPD_ESTIMATORS))
    def test_unit_norm_only_where_not_strict(self, name):
        m = SymmetricMatrix(2, np.diag([1.0, 0.5]), spd_flag=True)
        cfg = ProbeConfig(num_probes=4)
        if name in _STRICT:
            with pytest.raises(ValueError, match=">= 1"):
                _SPD_ESTIMATORS[name](m, 0.1, cfg)
        else:
            assert math.isfinite(_SPD_ESTIMATORS[name](m, 0.1, cfg).estimate.value)

    @pytest.mark.parametrize("estimator", [
        lambda rho: classical_entropy(rho, 0.2, ProbeConfig(num_probes=4)),
        lambda rho: vn_entropy(rho, AlgoConfig(eps=0.2)),
    ], ids=["classical_entropy", "vn_entropy"])
    @pytest.mark.parametrize("diag, match", [
        ([0.5, 0.25], "unit trace"),
        ([0.75, 0.25, 0.0], "eigenvalue"),
    ], ids=["trace", "singular"])
    def test_density_checks_shared_with_quantum(self, estimator, diag, match):
        rho = SymmetricMatrix(len(diag), np.diag(diag), spd_flag=True)
        with pytest.raises(ValueError, match=match):
            estimator(rho)

"""Tests for the classical randomized baselines."""

import math

import numpy as np
import pytest

from specsum import baselines, reporting
from specsum.baselines import (
    ProbeConfig,
    _probe_blocks,
    _spectral_quadform,
    classical_entropy,
    classical_logdet_chebyshev,
    classical_logdet_taylor,
    classical_schatten_p,
    classical_trace_inverse,
)
from specsum.matrix_core import SymmetricMatrix, exact_spectral_sum, generate_spd
from specsum.polyapprox import (
    approx_inverse,
    approx_monomial,
    chebyshev_logdet_setup,
    entropy_poly,
)
from specsum.rng import PROBE_STREAM, stream
from specsum.spectral_sums import (
    _CLOSED_CONTRACTION,
    _CONTRACTION,
    _DENSITY,
    ALGORITHMS,
    MODES,
    AlgoConfig,
    run_algorithm,
    schatten_p,
    vn_entropy,
)


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

    def test_fractional_probe_count_names_the_cause(self):
        with pytest.raises(ValueError, match="num_probes must be an integer, got 2.5"):
            ProbeConfig(num_probes=2.5)


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

    @pytest.mark.parametrize("norm", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("n", [16, 64])
    def test_schatten_passes_or_refuses(self, n, norm):
        """No p reports a missed guarantee: each run passes or names p as too large."""
        A = generate_spd(n, 10.0, "log_uniform", norm, 0)
        for p in [*range(1, 81), *range(90, 401, 10)]:
            try:
                rep = classical_schatten_p(A, p, 0.1, ProbeConfig(num_probes=64, seed=1))
            except ValueError as exc:
                assert str(exc).startswith(f"p = {p} is too large for this input"), exc
            else:
                assert rep.passed, p

    def test_schatten_two_is_frobenius(self):
        A = _matrix(seed=11)
        rep = classical_schatten_p(A, 2, 0.05, ProbeConfig(num_probes=1024, seed=2))
        fro = float(np.linalg.norm(np.asarray(A.entries), "fro"))
        assert rep.estimate.value == pytest.approx(fro, rel=0.05)


# Per-probe reference: one plain matvec loop per probe, as the estimators
# ran before probes were blocked.  Each returns the samples z^T P z and the
# number of matvecs applied across all probes.

def _ref_probes(n, cfg):
    """The probes drawn one row at a time from the ensemble's one stream."""
    rng = stream(cfg.seed, PROBE_STREAM)
    if cfg.probe_kind == "rademacher":
        return [2.0 * rng.integers(0, 2, size=n) - 1.0 for _ in range(cfg.num_probes)]
    return [rng.standard_normal(n) for _ in range(cfg.num_probes)]


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

    def test_quadform_across_blocks(self):
        """600 probes cross two block edges; the mean and standard error are
        those of the per-probe samples z^T D z."""
        n = 5
        d = np.arange(1.0, n + 1)
        cfg = ProbeConfig(num_probes=600, seed=4)
        mean, stderr = _spectral_quadform(SymmetricMatrix(n, np.diag(d)), lambda w: w, cfg)
        vals = [float(z @ (d * z)) for z in _ref_probes(n, cfg)]
        assert mean == float(np.mean(vals))
        assert stderr == float(np.std(vals, ddof=1) / math.sqrt(600))

    @pytest.mark.parametrize("kind", ["rademacher", "gaussian"])
    def test_probe_i_depends_only_on_seed_and_i(self, kind):
        """A short run sees the first probes of a long one, whose 600 probes
        cross two block edges and equal row-by-row draws of the stream."""
        short = _seen_probes(6, ProbeConfig(7, kind, seed=5))
        long = _seen_probes(6, ProbeConfig(600, kind, seed=5))
        assert np.array_equal(short, long[:7])
        ref = _ref_probes(6, ProbeConfig(600, kind, seed=5))
        assert np.array_equal(long, np.array(ref))


def _seen_probes(n, cfg):
    """The probes _spectral_quadform applies A's eigenbasis to, in order, one per row."""
    return np.hstack(list(_probe_blocks(n, cfg))).T


class TestProbeStream:
    """Probe i is row i of stream(seed, 29) for odd and even dimensions,
    seeds at the edges of the 63-bit key, and any block size."""

    @pytest.mark.parametrize("seed", [0, -1, 2**32 + 7, 2**63 - 1])
    @pytest.mark.parametrize("n", [1, 3, 64, 257])
    @pytest.mark.parametrize("kind", ["rademacher", "gaussian"])
    def test_blocked_draws_equal_row_draws(self, kind, n, seed):
        cfg = ProbeConfig(600, kind, seed)
        assert np.array_equal(_seen_probes(n, cfg), np.array(_ref_probes(n, cfg)))

    @pytest.mark.parametrize("block", [1, 7, 1000])
    @pytest.mark.parametrize("kind", ["rademacher", "gaussian"])
    def test_independent_of_block_size(self, kind, block, monkeypatch):
        n, cfg = 5, ProbeConfig(300, kind, seed=11)
        monkeypatch.setattr(baselines, "_PROBE_BLOCK", block)
        blocks = list(_probe_blocks(n, cfg))
        assert max(Z.shape[1] for Z in blocks) == min(block, cfg.num_probes)
        assert np.array_equal(np.hstack(blocks).T, np.array(_ref_probes(n, cfg)))


class TestSpectralQuadform:
    """Rademacher probes read a diagonal operator's trace exactly: its
    eigenbasis is the identity up to order and sign, and z_i^2 = 1."""

    _W = np.random.default_rng(0).permutation(np.linspace(-0.9, 0.9, 7))

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 6, 7])
    def test_diagonal_trace_is_exact(self, degree):
        coeffs = np.random.default_rng(degree).standard_normal(degree + 1)
        D = SymmetricMatrix(self._W.size, np.diag(self._W))
        mean, stderr = _spectral_quadform(D, lambda w: np.polynomial.chebyshev.chebval(w, coeffs),
                                          ProbeConfig(num_probes=5, seed=1))
        assert mean == pytest.approx(float(np.sum(np.polynomial.chebyshev.chebval(self._W, coeffs))),
                                     rel=1e-12, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_taylor_diagonal_both_parities(self):
        w = np.linspace(0.05, 0.5, 6)
        D = SymmetricMatrix(w.size, np.diag(w), spd_flag=True)
        cfg = ProbeConfig(num_probes=5, seed=1)
        orders = set()
        for eps in (0.3, 0.29):  # m = 98 and 99
            rep = classical_logdet_taylor(D, eps, cfg)
            m = rep.parameters["m"]
            orders.add(m % 2)
            series = sum(float(np.sum((1.0 - w) ** k)) / k for k in range(1, m + 1))
            assert rep.estimate.value == pytest.approx(-series, rel=1e-12)
            assert rep.parameters["stderr"] == pytest.approx(0.0, abs=1e-12)
        assert orders == {0, 1}


class TestEntropyLongSeries:
    """classical_entropy on series of thousands of degrees, at one seed."""

    CFG = ProbeConfig(num_probes=64, seed=7)

    def test_n256_within_guarantee(self):
        rep = classical_entropy(_density(n=256, kappa=10.0), 0.2, self.CFG)
        assert rep.parameters["degree_used"] > 5000
        assert abs(rep.estimate.value - rep.exact) <= rep.guarantee_bound

    def test_n64_matches_per_probe_loop(self):
        rep = TestBlockedProbes._check("entropy", _density(n=64, kappa=10.0), 0.2, self.CFG)
        assert rep.parameters["degree_used"] > 1000


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

    @pytest.mark.parametrize("schatten", [
        lambda A, p: classical_schatten_p(A, p, 0.1, ProbeConfig(num_probes=16, seed=2)),
        lambda A, p: schatten_p(A, AlgoConfig(eps=0.1, p=p)),
    ], ids=["classical_schatten_p", "schatten_p"])
    def test_integral_float_p_is_accepted(self, schatten):
        A = _matrix()
        assert (reporting.report_json(schatten(A, 3.0))
                == reporting.report_json(schatten(A, 3)))

    @pytest.mark.parametrize("schatten", [
        lambda A, p: classical_schatten_p(A, p, 0.1, ProbeConfig(num_probes=4)),
        lambda A, p: schatten_p(A, AlgoConfig(eps=0.1, p=p)),
    ], ids=["classical_schatten_p", "schatten_p"])
    def test_fractional_p_names_the_cause(self, schatten):
        with pytest.raises(ValueError, match="p must be a positive integer, got 2.5"):
            schatten(_matrix(), 2.5)

    @pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, 2.0, -0.1])
    @pytest.mark.parametrize("name", sorted(_ESTIMATORS))
    def test_eps_outside_unit_interval(self, name, eps):
        A = _density() if name == "entropy" else _matrix()
        with pytest.raises(ValueError, match="eps must lie in \\(0, 1\\)"):
            _ESTIMATORS[name](A, eps, ProbeConfig(num_probes=4))


def _eigh_counter(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


class TestEigenbasis:
    """The baselines' cached eigenbasis, and its independence from `spectral`."""

    def test_one_eigh_per_matrix_across_requests(self, monkeypatch):
        calls = _eigh_counter(monkeypatch)
        A, rho = _matrix(n=16), _density(n=16)
        for seed in range(3):
            for name, run in _ESTIMATORS.items():
                run(rho if name == "entropy" else A, 0.3, ProbeConfig(num_probes=8, seed=seed))
        assert calls == [(16, 16), (16, 16)]

    def test_read_only_decomposition_beside_spectral(self):
        A = _matrix(n=16)
        w, Q = A.eigenbasis
        assert "spectral" not in A._cache
        assert not w.flags.writeable and not Q.flags.writeable
        np.testing.assert_allclose((Q * w) @ Q.T, A.entries, atol=1e-14)
        np.testing.assert_allclose(np.sort(w)[::-1], A.spectral.eigenvalues, rtol=1e-12)

    @staticmethod
    def _run_baselines(M, domain):
        cfg = ProbeConfig(num_probes=4, seed=1)
        if domain == "density":
            classical_entropy(M, 0.3, cfg)
        elif domain == "contraction":
            for run in _SPD_ESTIMATORS.values():
                run(M, 0.3, cfg)
        else:  # no baseline takes ||A|| >= 1: read what one would
            M.eigenbasis

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_quantum_reports_independent_of_baselines(self, name, monkeypatch):
        est = ALGORITHMS[name]
        cap = 1.0 if est.domain.name == "norm_at_least_one" else 0.5
        cold, warm = (est.domain.input(generate_spd(16, 4.0, "log_uniform", cap, 2))
                      for _ in range(2))
        self._run_baselines(warm, est.domain.name)
        assert "eigenbasis" in warm._cache
        cfg = AlgoConfig(algorithm=name, mode="stochastic", seed=3, p=3)
        calls = _eigh_counter(monkeypatch)
        assert (reporting.report_json(est.run(warm, cfg))
                == reporting.report_json(est.run(cold, cfg)))
        assert calls == [] and "eigenbasis" not in cold._cache


# Every estimator as (A, mode) -> report, with the domain it checks.
_PROBES = ProbeConfig(num_probes=16)
_RUNS = {
    **{name: (lambda A, mode, name=name: run_algorithm(
        A, AlgoConfig(eps=0.1, mode=mode, algorithm=name, p=3)), entry.domain)
       for name, entry in ALGORITHMS.items()},
    "classical_logdet_taylor": (lambda A, mode: classical_logdet_taylor(A, 0.1, _PROBES),
                                _CONTRACTION),
    "classical_logdet_chebyshev": (lambda A, mode: classical_logdet_chebyshev(A, 0.1, _PROBES),
                                   _CONTRACTION),
    "classical_entropy": (lambda A, mode: classical_entropy(A, 0.1, _PROBES), _DENSITY),
    "classical_trace_inverse": (lambda A, mode: classical_trace_inverse(A, 0.1, _PROBES),
                                _CLOSED_CONTRACTION),
    "classical_schatten_p": (lambda A, mode: classical_schatten_p(A, 3, 0.1, _PROBES),
                             _CLOSED_CONTRACTION),
}
_ONE_OR_BELOW = ["trace_inverse", "logdet_taylor", "classical_trace_inverse",
                 "classical_schatten_p"]


class TestDomainEdges:
    """Every estimator passes on its domain and refuses, naming ||A|| and the edge, outside it."""

    @pytest.mark.parametrize("c", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("name", sorted(_RUNS))
    def test_scaled_identity_passes_or_names_the_edge(self, name, c):
        run, domain = _RUNS[name]
        A = domain.input(SymmetricMatrix(4, c * np.eye(4), spd_flag=True))
        refused = name == "logdet_edge_cases" or (name == "logdet_qmc" and c > 0.5)
        if not refused:
            assert run(A, "exact").passed
            return
        with pytest.raises(ValueError) as exc:
            run(A, "exact")
        norm = A.stats.spectral_norm
        assert f"||A|| = {norm!r} " in str(exc.value)
        assert f"requires ||A|| {domain.norm}" in str(exc.value)

    @pytest.mark.parametrize("name", _ONE_OR_BELOW + ["logdet_edge_cases"])
    def test_norm_within_tolerance_of_one_counts_as_one(self, name):
        A = SymmetricMatrix(2, np.diag([1 + 5e-11, 0.5]), spd_flag=True)
        for mode in MODES:
            assert _RUNS[name][0](A, mode).passed, mode

    @pytest.mark.parametrize("name", _ONE_OR_BELOW)
    def test_norm_beyond_tolerance_of_one_is_refused(self, name):
        A = SymmetricMatrix(2, np.diag([1 + 2e-10, 0.5]), spd_flag=True)
        with pytest.raises(ValueError, match=r"> 1, but this estimator requires \|\|A\|\| <= 1"):
            _RUNS[name][0](A, "exact")

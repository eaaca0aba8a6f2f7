"""The eigenbasis block-encoding algebra against the dense algebra it replaces.

The reference below is the dense formulation: payloads as n x n matrices, polynomials applied through a fresh ``eigh`` of each
payload, products as matrix products.  Running the unchanged estimator
pipelines on it gives reference reports; every encoding the eigenbasis
algebra builds along the way, expanded in an eigenbasis of its source
that this file computes, must match its dense counterpart.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from specsum import matrix_core, spectral_sums
from specsum.matrix_core import SymmetricMatrix, compute_mu, generate_spd
from specsum.qmodel import polylog, product_preamplified, qram_block_encoding
from specsum.spectral_sums import AlgoConfig, run_algorithm

from dense_views import dense, eigenbasis

MODES = ("exact", "stochastic", "adversarial")


# ---------------------------------------------------------------- reference


@dataclass(frozen=True)
class DenseEncoding:
    """A block-encoding held as a dense payload matrix."""

    payload: np.ndarray
    alpha: float
    ancillas: int
    eps: float
    use_cost: float
    mode: str

    @property
    def n(self):
        return self.payload.shape[0]

    @property
    def target(self):
        return self.alpha * self.payload

    def trace(self):
        return float(np.trace(self.payload))

    def target_frobenius_sq(self):
        return float(np.sum(self.target * self.target))


def _matfun(sym, fn):
    w, v = np.linalg.eigh(sym)
    return (v * fn(w)) @ v.T


def dense_qram(A, mode="exact"):
    mu = A.stats.mu
    return DenseEncoding(np.asarray(A.entries) / mu, mu, max(1, math.ceil(math.log2(A.n))), 0.0,
                         polylog(A.n), mode)


def dense_svt(be, p):
    f = lambda w: np.polynomial.chebyshev.chebval(np.clip(w, -1, 1), p.coefficients)
    return DenseEncoding(_matfun(be.payload, f), 1.0, be.ancillas + 2,
                         4 * p.degree * math.sqrt(max(be.eps, 0.0) / be.alpha) + p.evaluation_error,
                         (p.degree + 1) * be.use_cost, be.mode)


def dense_product(be1, be2):
    for be in (be1, be2):
        assert np.linalg.norm(be.target, 2) <= 1 + 1e-10
    return DenseEncoding(
        (be1.target @ be2.target) / 2.0, 1.0, be1.ancillas + be2.ancillas + 2, be1.eps + be2.eps,
        be1.alpha * (be1.ancillas + be1.use_cost) + be2.alpha * (be2.ancillas + be2.use_cost),
        be1.mode)


def dense_power(be, c, kappa, eps):
    return DenseEncoding(
        _matfun(be.target, lambda vals: np.clip(vals, 1e-300, None) ** c / 2.0), 1.0,
        be.ancillas + max(1, math.ceil(math.log2(max(2.0, math.log2(1.0 / eps))))) + 2, eps,
        be.alpha * kappa * (be.ancillas + be.use_cost) * math.log(kappa / eps) ** 2, be.mode)


DENSE = {"qram_block_encoding": dense_qram, "apply_svt": dense_svt,
         "product_preamplified": dense_product, "matrix_power": dense_power}


def _recording(fn, log):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        log.append(out)
        return out
    return wrapper


def _run(monkeypatch, A, cfg, algebra):
    """Run one estimator on ``algebra`` (name -> function) and log every encoding."""
    log = []
    with monkeypatch.context() as m:
        for name, fn in algebra.items():
            m.setattr(spectral_sums, name, _recording(fn, log))
        rep = run_algorithm(A, cfg)
    return rep, log


def _eigenbasis_algebra(bases):
    """The algebra under test; ``bases`` maps id(source) to the encoded matrix's eigenbasis."""
    algebra = {name: getattr(spectral_sums, name) for name in DENSE}
    qram = algebra["qram_block_encoding"]

    def encode(A, *args, **kwargs):
        be = qram(A, *args, **kwargs)
        bases[id(be.source)] = eigenbasis(A.entries)
        return be

    algebra["qram_block_encoding"] = encode
    return algebra


# ------------------------------------------------------------------ inputs


def _inputs(n):
    A = generate_spd(n, 10.0, "log_uniform", 0.5, 40 + n)
    e = np.asarray(A.entries)
    unit = generate_spd(n, 10.0, "log_uniform", 1.0, 50 + n)
    return {
        "spd": A,
        "density": SymmetricMatrix(n, e / np.trace(e), spd_flag=True),
        "unit_norm": SymmetricMatrix(n, np.asarray(unit.entries), spd_flag=True),
        "above_one": SymmetricMatrix(n, 2.0 * np.asarray(unit.entries), spd_flag=True),
    }


_INPUTS = {n: _inputs(n) for n in (16, 64)}

# (algorithm, p, input)
CASES = (
    [("logdet_svt", 1, "spd"), ("trace_inverse", 1, "spd"), ("vn_entropy", 1, "density")]
    + [("schatten_p", p, "spd") for p in range(1, 7)]
    + [("logdet_edge_cases", 1, "unit_norm"), ("logdet_edge_cases", 1, "above_one")]
)


# Input kinds of each domain in ALGORITHMS.
_DOMAIN_INPUTS = {"contraction": ("spd",), "density": ("density",),
                  "norm_at_least_one": ("unit_norm", "above_one")}


def _case_id(case):
    algorithm, p, kind = case
    return f"{algorithm}{p if algorithm == 'schatten_p' else ''}-{kind}"


def _cfg(algorithm, p, mode):
    return AlgoConfig(eps=0.1, mode=mode, seed=3, algorithm=algorithm, p=p)


# ------------------------------------------------------------------- tests


class TestAgainstDenseReference:
    @pytest.mark.parametrize("mode", ["exact", "adversarial"])
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_estimates_ledgers_and_encodings_match(self, monkeypatch, case, n, mode):
        algorithm, p, kind = case
        A = _INPUTS[n][kind]
        cfg = _cfg(algorithm, p, mode)
        ref, ref_log = _run(monkeypatch, A, cfg, DENSE)
        bases = {}
        got, log = _run(monkeypatch, A, cfg, _eigenbasis_algebra(bases))
        if kind == "unit_norm":
            assert got.parameters["branch"] == "unit_norm"
        assert got.estimate.value == pytest.approx(ref.estimate.value, rel=1e-9, abs=0.0)
        assert got.ledger.as_dict() == ref.ledger.as_dict()
        assert got.exact == ref.exact
        assert len(log) == len(ref_log) > 0
        for be, ref_be in zip(log, ref_log):
            for attr in ("alpha", "ancillas", "eps", "use_cost", "mode"):
                assert getattr(be, attr) == getattr(ref_be, attr), attr
            view = dense(be, bases[id(be.source)])
            np.testing.assert_allclose(view.payload, ref_be.payload, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["stochastic", "adversarial"])
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("case", CASES, ids=_case_id)
    def test_encodings_do_not_depend_on_the_mode(self, monkeypatch, case, n, mode):
        # The mode acts in the measurement primitives only: every encoding an
        # estimator builds holds what the exact run's holds.
        algorithm, p, kind = case
        exact_log, log = (_run(monkeypatch, _INPUTS[n][kind], _cfg(algorithm, p, m),
                               _eigenbasis_algebra({}))[1] for m in ("exact", mode))
        assert len(log) == len(exact_log) > 0
        for be, exact in zip(log, exact_log):
            assert be.mode == mode
            assert be.payload_values.tolist() == exact.payload_values.tolist()
            for attr in ("alpha", "ancillas", "eps", "use_cost"):
                assert getattr(be, attr) == getattr(exact, attr), attr


class TestEncodingAlgebra:
    def test_products_require_a_shared_basis(self):
        be1 = qram_block_encoding(_INPUTS[16]["spd"])
        be2 = qram_block_encoding(_INPUTS[16]["density"])
        with pytest.raises(ValueError, match="eigenbasis"):
            product_preamplified(be1, be2)


def _row_power_sum_max(M, q):
    """s_q(M) = max_i sum_j |m_ij|^q over |M|, with 0^0 treated as 0."""
    with np.errstate(divide="ignore"):
        return float(np.max(np.sum(np.where(M > 0, M**q, 0.0), axis=1)))


def _full_grid_mu(A, grid_points):
    """The minimum over every grid point, as the normalization was first defined."""
    absA = np.abs(np.asarray(A.entries))
    s = _row_power_sum_max
    best = float(np.linalg.norm(absA))
    for p in np.linspace(0.0, 1.0, grid_points):
        best = min(best, math.sqrt(s(absA, 2 * p) * s(absA.T, 2 * (1 - p))))
    return best


class TestMu:
    @pytest.mark.parametrize("grid_points", [101, 51, 100, 2])
    @pytest.mark.parametrize("profile", ["log_uniform", "uniform", "clustered"])
    def test_matches_full_grid(self, profile, grid_points):
        # p = 1/2 minimizes the candidate, so mu equals the minimum over any
        # grid holding 1/2 and is no larger than the minimum over one without.
        for n in (2, 17, 64):
            for kappa in (1.0, 30.0, 1000.0):
                A = generate_spd(n, kappa, profile, 0.5, n + int(kappa))
                e = np.asarray(A.entries)
                for M in (A, SymmetricMatrix(n, e / np.trace(e), spd_flag=True)):
                    absM = np.abs(np.asarray(M.entries))
                    # Bitwise: the one-pass stats against their definitions at p = 1/2.
                    fro = float(np.linalg.norm(absM))
                    assert M.stats.frobenius_norm == fro
                    assert M.stats.mu == compute_mu(M) == min(fro, math.sqrt(
                        _row_power_sum_max(absM, 1.0) * _row_power_sum_max(absM.T, 1.0)))
                    ref = _full_grid_mu(M, grid_points)
                    assert compute_mu(M) <= ref + 2 * np.spacing(ref)
                    if grid_points % 2 == 1:
                        assert abs(compute_mu(M) - ref) <= 2 * np.spacing(ref)

    @pytest.mark.parametrize("diag", [[0.5, 0.2, 0.1], [0.5, 0.5], list(np.linspace(0.01, 0.5, 9))])
    def test_at_least_spectral_norm_on_diagonal(self, diag):
        A = SymmetricMatrix(len(diag), np.diag(diag), spd_flag=True)
        assert compute_mu(A) >= A.stats.spectral_norm


class TestNoDenseWorkOnWarmMatrices:
    """A warm run decomposes nothing: every n^3 routine is counted."""

    @pytest.fixture()
    def counters(self, monkeypatch):
        counts = Counter()
        decomposed = []
        inside = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                if not inside:
                    counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        norm = np.linalg.norm

        def counted_norm(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2 and not inside:
                counts["norm2"] += 1
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        decompose = matrix_core.spectral_decompose

        def counted_decompose(A):
            decomposed.append(A)
            inside.append(A)
            try:
                return decompose(A)
            finally:
                inside.pop()

        monkeypatch.setattr(matrix_core, "spectral_decompose", counted_decompose)
        return counts, decomposed

    @pytest.mark.parametrize("mode", MODES)
    def test_each_quantum_estimator(self, counters, mode):
        inputs = _INPUTS[64]
        cases = [(name, p, kind) for name, entry in spectral_sums.ALGORITHMS.items()
                 for kind in _DOMAIN_INPUTS[entry.domain.name]
                 for p in (range(1, 7) if name == "schatten_p" else (1,))]
        for M in inputs.values():
            M.stats
        for algorithm, p, kind in cases:  # warm the polynomial cache
            run_algorithm(inputs[kind], _cfg(algorithm, p, "exact"))
        counts, decomposed = counters
        for algorithm, p, kind in cases:
            decomposed.clear()
            run_algorithm(inputs[kind], _cfg(algorithm, p, mode))
            assert not counts, (algorithm, p, dict(counts))
            assert not decomposed, (algorithm, p)

"""Tests for matrix generation, spectra, and exact oracles."""

import math

import numpy as np
import pytest

from specsum import matrix_core
from specsum.matrix_core import (
    SymmetricMatrix,
    compute_mu,
    condition_number,
    exact_spectral_sum,
    generate_spd,
    load_matrix_market,
    save_matrix_market,
    spectral_decompose,
    unit_trace,
    with_spectrum,
)


def _reference_eigenvalues(entries):
    """This file's own eigh of ``entries``, sorted descending."""
    return np.sort(np.linalg.eigh(np.asarray(entries))[0])[::-1]


def _assert_descending_read_only(sd):
    assert np.all(np.diff(sd.eigenvalues) <= 0)
    assert not sd.eigenvalues.flags.writeable
    assert not sd.singular_values.flags.writeable


class TestSymmetricMatrix:
    def test_symmetrizes_input(self):
        a = np.array([[1.0, 2.0 + 1e-14], [2.0, 3.0]])
        m = SymmetricMatrix(2, a)
        assert np.array_equal(m.entries, m.entries.T)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            SymmetricMatrix(2, np.ones((2, 3)))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            SymmetricMatrix(3, np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        a = np.eye(3)
        a[2, 1] = bad
        with pytest.raises(ValueError, match=r"non-finite matrix entries: \[2, 1\]"):
            SymmetricMatrix(3, a)

    def test_entries_read_only(self):
        m = SymmetricMatrix(2, np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0


class TestGenerateSpd:
    @pytest.mark.parametrize("kappa", [1.0, 5.0, 50.0])
    def test_condition_number_pinned_exactly(self, kappa):
        A = generate_spd(32, kappa, "log_uniform", 0.5, 3)
        assert A.stats.kappa == pytest.approx(kappa, rel=1e-10)

    @pytest.mark.parametrize("norm_cap", [0.25, 0.5, 1.0])
    def test_spectral_norm_pinned(self, norm_cap):
        A = generate_spd(16, 10.0, "uniform", norm_cap, 0)
        assert A.stats.spectral_norm == pytest.approx(norm_cap, rel=1e-10)

    @pytest.mark.parametrize("profile", ["log_uniform", "uniform", "clustered"])
    def test_profiles_stay_in_range(self, profile):
        A = generate_spd(64, 20.0, profile, 0.5, 7)
        w = A.spectral.eigenvalues
        assert w[0] == pytest.approx(0.5)
        assert w[-1] == pytest.approx(0.025)
        assert np.all(w >= 0.025 - 1e-12) and np.all(w <= 0.5 + 1e-12)

    def test_deterministic_given_seed(self):
        a = generate_spd(16, 10.0, "log_uniform", 0.5, 11)
        b = generate_spd(16, 10.0, "log_uniform", 0.5, 11)
        assert np.array_equal(a.entries, b.entries)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=1, kappa=2.0),
            dict(n=4, kappa=0.5),
            dict(n=4, kappa=2.0, norm_cap=1.5),
            dict(n=4, kappa=2.0, profile="bogus"),
        ],
    )
    def test_invalid_arguments(self, kwargs):
        args = dict(n=4, kappa=2.0, profile="uniform", norm_cap=0.5, seed=0)
        args.update(kwargs)
        with pytest.raises(ValueError):
            generate_spd(args["n"], args["kappa"], args["profile"], args["norm_cap"], args["seed"])


class TestSpectralDecompose:
    def test_eigenvalues_match_eigh(self):
        A = generate_spd(24, 10.0, "uniform", 0.5, 5)
        sd = spectral_decompose(A)
        np.testing.assert_allclose(sd.eigenvalues, _reference_eigenvalues(A.entries),
                                   rtol=1e-13, atol=0)
        _assert_descending_read_only(sd)
        assert not hasattr(sd, "eigenvectors")

    def test_calls_no_eigh(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(a) or eigh(*a, **k))
        spectral_decompose(generate_spd(24, 10.0, "uniform", 0.5, 5))
        assert calls == []

    def test_descending_order(self):
        A = generate_spd(24, 10.0, "uniform", 0.5, 5)
        w = A.spectral.eigenvalues
        assert np.all(np.diff(w) <= 0)

    def test_singular_values_are_absolute_eigenvalues(self):
        m = SymmetricMatrix(2, np.diag([0.5, -0.7]))
        sd = spectral_decompose(m)
        assert list(sd.singular_values) == pytest.approx([0.7, 0.5])


class TestWithSpectrum:
    """Matrices derived from a cached spectrum carry it over exactly."""

    @pytest.fixture()
    def decompositions(self, monkeypatch):
        calls = []
        decompose = matrix_core.spectral_decompose
        monkeypatch.setattr(matrix_core, "spectral_decompose",
                            lambda A: calls.append(A) or decompose(A))
        return calls

    @staticmethod
    def _derived(A):
        """The rescaled, deflated and unit-trace matrices the estimators build."""
        w, e = A.spectral.eigenvalues, np.asarray(A.entries)
        alpha = A.stats.spectral_norm / 0.5
        rest = w[1:]
        return [with_spectrum(e / alpha, w / alpha, spd_flag=True),
                with_spectrum(np.diag(rest), rest, spd_flag=True),
                unit_trace(A)]

    @pytest.mark.parametrize("kappa", [10.0, 100.0])
    @pytest.mark.parametrize("n", [2, 17, 64])
    def test_spectrum_matches_eigh_of_entries(self, decompositions, n, kappa):
        A = generate_spd(n, kappa, "log_uniform", 1.0, n)
        A.stats
        decompositions.clear()
        for M in self._derived(A):
            np.testing.assert_allclose(M.spectral.eigenvalues,
                                       _reference_eigenvalues(M.entries), rtol=1e-13, atol=0)
            _assert_descending_read_only(M.spectral)
            assert M.stats.mu == compute_mu(SymmetricMatrix(M.n, M.entries))
        assert decompositions == []

    def test_eigenvalues_are_copied(self):
        w = np.array([0.5, 0.25])
        M = with_spectrum(np.diag(w), w)
        w[0] = 9.0
        assert M.spectral.eigenvalues[0] == 0.5


class TestMatrixMarketIO:
    def test_roundtrip(self, tmp_path):
        A = generate_spd(12, 5.0, "uniform", 0.5, 2)
        path = tmp_path / "a.mtx"
        save_matrix_market(path, A)
        B = load_matrix_market(path)
        assert np.allclose(B.entries, A.entries, atol=1e-12)

    def test_rejects_gross_asymmetry(self, tmp_path):
        path = tmp_path / "bad.mtx"
        with open(path, "w") as fh:
            fh.write("%%MatrixMarket matrix array real general\n2 2\n1.0\n0.5\n0.9\n1.0\n")
        with pytest.raises(ValueError, match="asymmetric"):
            load_matrix_market(path)

    @pytest.mark.parametrize("body", [
        "%%MatrixMarket matrix array real symmetric\n2 2\n1.0\nnan\n1.0\n",
        "%%MatrixMarket matrix array real general\n2 2\n1.0\nnan\nnan\n1.0\n",
        "%%MatrixMarket matrix array real general\n2 2\n1.0\ninf\n0.5\n1.0\n",
    ])
    def test_rejects_non_finite(self, tmp_path, body):
        path = tmp_path / "bad.mtx"
        path.write_text(body)
        with pytest.raises(ValueError, match="non-finite matrix entries"):
            load_matrix_market(path)


class TestExactSpectralSum:
    def setup_method(self):
        self.m = SymmetricMatrix(3, np.diag([0.1, 0.2, 0.4]), spd_flag=True)

    def test_log(self):
        expected = math.log(0.1) + math.log(0.2) + math.log(0.4)
        assert exact_spectral_sum(self.m, "log") == pytest.approx(expected)

    def test_inverse(self):
        assert exact_spectral_sum(self.m, "inverse") == pytest.approx(10 + 5 + 2.5)

    def test_power(self):
        assert exact_spectral_sum(self.m, "x_pow_p", 2.0) == pytest.approx(0.01 + 0.04 + 0.16)

    def test_neg_xlogx(self):
        expected = -sum(x * math.log(x) for x in (0.1, 0.2, 0.4))
        assert exact_spectral_sum(self.m, "neg_xlogx") == pytest.approx(expected)

    def test_log_of_singular_matrix_fails(self):
        sing = SymmetricMatrix(2, np.diag([0.5, 0.0]))
        with pytest.raises(ValueError, match="positive"):
            exact_spectral_sum(sing, "log")

    def test_power_requires_exponent(self):
        with pytest.raises(ValueError, match="exponent"):
            exact_spectral_sum(self.m, "x_pow_p")

    @pytest.mark.parametrize("f", ["tanh", "exp"])
    def test_unknown_function(self, f):
        with pytest.raises(ValueError, match="unknown"):
            exact_spectral_sum(self.m, f)


class TestMuAndConditioning:
    def test_mu_at_most_frobenius(self):
        A = generate_spd(32, 10.0, "log_uniform", 0.5, 9)
        assert A.stats.mu <= A.stats.frobenius_norm + 1e-12

    def test_mu_at_least_spectral_norm(self):
        A = generate_spd(32, 10.0, "log_uniform", 0.5, 9)
        assert A.stats.mu >= A.stats.spectral_norm - 1e-10

    def test_mu_is_largest_row_sum_or_frobenius(self):
        A = generate_spd(32, 10.0, "log_uniform", 0.5, 9)
        absA = np.abs(np.asarray(A.entries))
        expected = min(float(np.linalg.norm(absA)), float(absA.sum(axis=1).max()))
        assert A.stats.mu == pytest.approx(expected, rel=1e-14)
        assert compute_mu(A) == A.stats.mu

    def test_condition_number_diag(self):
        m = SymmetricMatrix(2, np.diag([0.5, 0.05]), spd_flag=True)
        assert condition_number(m) == pytest.approx(10.0)

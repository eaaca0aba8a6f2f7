"""Tests for the quantum-model spectral-sum estimators."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from specsum.matrix_core import SymmetricMatrix, exact_spectral_sum, generate_spd
from specsum.qmodel import CostLedger, polylog, sve_cost
from specsum.spectral_sums import (
    ALGORITHMS,
    MODES,
    AlgoConfig,
    _GRID,
    _floor_grid,
    _report,
    fit_loglog,
    logdet_chebyshev,
    logdet_edge_cases,
    logdet_qmc,
    logdet_sve,
    logdet_svt,
    logdet_taylor,
    run_algorithm,
    schatten_p,
    sweep,
    trace_inverse,
    vn_entropy,
)


def _matrix(n=32, kappa=10.0, seed=1, norm=0.5):
    return generate_spd(n, kappa, "log_uniform", norm, seed)


def _density(n=32, kappa=10.0, seed=1):
    A = _matrix(n, kappa, seed)
    rho = np.asarray(A.entries) / np.trace(A.entries)
    return SymmetricMatrix(n, rho, spd_flag=True)


_UNIT_NORM = _matrix(16, norm=1.0)

# Inputs of each domain in ALGORITHMS; the ||A|| >= 1 ones reach all three
# logdet_edge_cases branches (deflation, identity spectrum, rescaling).
_DOMAIN_INPUTS = {
    "contraction": [_matrix()],
    "density": [_density()],
    "norm_at_least_one": [
        _UNIT_NORM,
        SymmetricMatrix(8, np.eye(8), spd_flag=True),
        SymmetricMatrix(16, 3.0 * np.asarray(_UNIT_NORM.entries), spd_flag=True),
    ],
}


class TestFloorGrid:
    VALUES = [_GRID**k for k in range(-80, 1)]

    def test_idempotent_on_its_grid(self):
        assert [_floor_grid(x) for x in self.VALUES] == self.VALUES

    def test_one_ulp_below_a_grid_value_floors_to_the_cell_below(self):
        below = [_floor_grid(math.nextafter(x, 0.0)) for x in self.VALUES[1:]]
        assert below == self.VALUES[:-1]

    def test_largest_grid_value_at_most_x(self):
        for x in np.random.default_rng(0).uniform(1e-9, 1.0, 2000):
            g = _floor_grid(float(x))
            k = round(math.log(g) / math.log(_GRID))
            assert g == _GRID**k and g <= x < _GRID ** (k + 1)


class TestAlgoConfig:
    def test_defaults_valid(self):
        cfg = AlgoConfig()
        assert cfg.eps == 0.1 and cfg.mode == "exact"

    @pytest.mark.parametrize("kwargs", [dict(eps=0.0), dict(eps=1.0),
                                        dict(delta=0.0), dict(delta=0.5)])
    def test_invalid_ranges(self, kwargs):
        with pytest.raises(ValueError):
            AlgoConfig(**kwargs)

    @pytest.mark.parametrize("algorithm", ["logdet_sve", "logdet_taylor", "logdet_qmc"])
    def test_unknown_mode_names_the_choices(self, algorithm):
        with pytest.raises(ValueError, match="unknown mode 'bogus'") as exc:
            run_algorithm(_matrix(), AlgoConfig(mode="bogus", algorithm=algorithm))
        assert all(mode in str(exc.value) for mode in MODES)

    @pytest.mark.parametrize("name", ["schatten_7", "schatten"])
    def test_unknown_algorithm_names_the_choices(self, name):
        with pytest.raises(ValueError, match=f"unknown algorithm '{name}'") as exc:
            run_algorithm(_matrix(), AlgoConfig(algorithm=name, p=7))
        assert all(known in str(exc.value) for known in ALGORITHMS)


class TestLogdetSvt:
    def test_exact_mode_within_guarantee(self):
        A = _matrix()
        rep = logdet_svt(A, AlgoConfig(eps=0.05))
        assert rep.guarantee == "relative"
        assert rep.guarantee_bound == pytest.approx(0.05 * abs(rep.exact))
        assert rep.passed

    def test_rejects_norm_one(self):
        A = SymmetricMatrix(4, np.eye(4), spd_flag=True)
        with pytest.raises(ValueError, match="edge-case"):
            logdet_svt(A, AlgoConfig())

    def test_rejects_indefinite(self):
        m = SymmetricMatrix(2, np.diag([0.5, -0.1]))
        with pytest.raises(ValueError, match="SPD"):
            logdet_svt(m, AlgoConfig())

    def test_ledger_populated(self):
        rep = logdet_svt(_matrix(), AlgoConfig())
        assert rep.ledger.total_queries > 0
        assert rep.ledger.be_uses > 0

    def test_stochastic_same_seed_reproducible(self):
        A = _matrix()
        cfg = AlgoConfig(mode="stochastic", seed=7)
        a = logdet_svt(A, cfg)
        b = logdet_svt(A, cfg)
        assert a.estimate.value == b.estimate.value

    def test_formula_tolerance_null_outside_its_normalization(self):
        # mu = ||A|| = 0.5 on a scaled identity, so 2 kappa alpha = 1 exactly.
        rep = logdet_svt(SymmetricMatrix(16, 0.5 * np.eye(16), spd_flag=True), AlgoConfig())
        assert rep.parameters["eps2_formula"] is None
        assert rep.passed

    def test_adversarial_still_passes(self):
        rep = logdet_svt(_matrix(), AlgoConfig(eps=0.1, mode="adversarial", seed=3))
        assert rep.passed


class TestLogdetEdgeCases:
    def test_identity_spectrum_is_zero(self):
        A = SymmetricMatrix(8, np.eye(8), spd_flag=True)
        rep = logdet_edge_cases(A, AlgoConfig())
        assert rep.estimate.value == 0.0
        assert rep.exact == 0.0
        assert any("identity" in w for w in rep.warnings)

    @pytest.mark.parametrize("w", [np.ones(8), 1.0 + 1e-11 * np.array([1, 1, 1, 1, 1, -1, -1, -1])],
                             ids=["exact", "within_1e-10"])
    def test_identity_spectrum_absolute_guarantee(self, w):
        # exact is 0 or about 2e-11, so a relative bound eps * |exact| could
        # not hold for the estimate 0.
        rep = logdet_edge_cases(SymmetricMatrix(8, np.diag(w), spd_flag=True), AlgoConfig(eps=0.1))
        assert rep.parameters["branch"] == "unit_norm"
        assert rep.estimate.value == 0.0
        assert rep.guarantee == "absolute"
        assert rep.guarantee_bound == rep.estimate.abs_error_bound == 0.1
        assert rep.passed

    def test_unit_norm_deflation(self):
        w = np.concatenate([[1.0, 1.0], np.linspace(0.1, 0.5, 6)])
        A = SymmetricMatrix(8, np.diag(w), spd_flag=True)
        rep = logdet_edge_cases(A, AlgoConfig(eps=0.05))
        assert rep.parameters["branch"] == "unit_norm"
        assert rep.parameters["multiplicity"] == 2
        assert rep.passed

    def test_rescale_branch(self):
        A = SymmetricMatrix(6, np.diag(np.linspace(1.2, 3.0, 6)), spd_flag=True)
        rep = logdet_edge_cases(A, AlgoConfig(eps=0.05))
        assert rep.parameters["branch"] == "rescale"
        assert rep.guarantee == "absolute"
        assert rep.guarantee_bound == pytest.approx(6 * 0.05)
        assert rep.passed

    def test_mixed_sign_warning(self):
        A = SymmetricMatrix(4, np.diag([2.0, 1.5, 0.8, 0.4]), spd_flag=True)
        rep = logdet_edge_cases(A, AlgoConfig(eps=0.05))
        assert any("mixed-sign" in w for w in rep.warnings)

    def test_rejects_strict_contraction(self):
        with pytest.raises(ValueError, match="logdet_svt"):
            logdet_edge_cases(_matrix(), AlgoConfig())


class TestSchattenP:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8])
    def test_relative_guarantee(self, p):
        A = _matrix(seed=p)
        rep = schatten_p(A, AlgoConfig(eps=0.1, p=p))
        exact = exact_spectral_sum(A, "x_pow_p", p=p) ** (1.0 / p)
        assert rep.exact == pytest.approx(exact)
        assert rep.passed

    def test_monomial_approx_path(self):
        A = _matrix()
        rep = schatten_p(A, AlgoConfig(eps=0.1, p=8, use_monomial_approx=True))
        assert "monomial_degree" in rep.parameters
        assert rep.passed

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError, match="positive"):
            schatten_p(_matrix(), AlgoConfig(p=0))


class TestSchattenAdversarialKnifeEdge:
    """At p = 1 the adversarial trace value passes straight through the
    1/p root: it has to land inside eps * exact in floating point."""

    @pytest.mark.parametrize("seed", range(40))
    def test_p1_adversarial_within_guarantee(self, seed):
        A = generate_spd(32, 10.0, "log_uniform", 0.5, seed)
        rep = schatten_p(A, AlgoConfig(eps=0.05, mode="adversarial", p=1))
        assert abs(rep.estimate.value - rep.exact) <= rep.guarantee_bound
        assert rep.passed


class TestVnEntropy:
    def test_absolute_guarantee(self):
        rho = _density()
        rep = vn_entropy(rho, AlgoConfig(eps=0.1))
        assert rep.guarantee == "absolute"
        assert rep.guarantee_bound == 0.1
        assert rep.passed

    def test_requires_unit_trace(self):
        with pytest.raises(ValueError, match="unit trace"):
            vn_entropy(_matrix(), AlgoConfig())

    def test_identity_density(self):
        n = 16
        rho = SymmetricMatrix(n, np.eye(n) / n, spd_flag=True)
        rep = vn_entropy(rho, AlgoConfig(eps=0.1))
        assert rep.exact == pytest.approx(math.log(n))
        assert rep.passed


class TestTraceInverse:
    def test_relative_guarantee(self):
        A = _matrix()
        rep = trace_inverse(A, AlgoConfig(eps=0.05))
        assert rep.exact == pytest.approx(exact_spectral_sum(A, "inverse"))
        assert rep.passed

    def test_scaled_identity(self):
        A = SymmetricMatrix(8, 0.5 * np.eye(8), spd_flag=True)
        rep = trace_inverse(A, AlgoConfig(eps=0.05))
        assert rep.exact == pytest.approx(16.0)
        assert rep.passed


class TestAppendixVariants:
    @pytest.mark.parametrize("fn", [logdet_sve, logdet_taylor,
                                    logdet_chebyshev, logdet_qmc])
    def test_exact_mode_passes(self, fn):
        rep = fn(_matrix(), AlgoConfig(eps=0.1))
        assert rep.passed
        assert rep.ledger.total_queries > 0

    @pytest.mark.parametrize("fn", [logdet_sve, logdet_taylor,
                                    logdet_chebyshev, logdet_qmc])
    def test_stochastic_mode_passes(self, fn):
        rep = fn(_matrix(), AlgoConfig(eps=0.1, mode="stochastic", seed=5))
        assert rep.passed

    def test_qmc_rejects_norm_above_half(self):
        A = generate_spd(16, 10.0, "log_uniform", 0.9, 1)
        with pytest.raises(ValueError, match="rescale"):
            logdet_qmc(A, AlgoConfig())

    def test_chebyshev_tracks_margin(self):
        rep = logdet_chebyshev(_matrix(), AlgoConfig(eps=0.1))
        assert rep.parameters["delta_margin"] <= 0.5
        assert rep.parameters["d"] >= 1


class TestRunAlgorithm:
    def test_dispatch_table_covers_names(self):
        for name, entry in ALGORITHMS.items():
            for A in _DOMAIN_INPUTS[entry.domain]:
                rep = run_algorithm(A, AlgoConfig(algorithm=name))
                assert rep.algorithm == ("schatten_1" if name == "schatten_p" else name)

    def test_schatten_dispatch(self):
        rep = run_algorithm(_matrix(), AlgoConfig(algorithm="schatten_p", p=3))
        assert rep.algorithm == "schatten_3"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            run_algorithm(_matrix(), AlgoConfig(algorithm="logdet_magic"))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_report_states_the_request_and_one_bound(name, mode):
    for A in _DOMAIN_INPUTS[ALGORITHMS[name].domain]:
        rep = run_algorithm(A, AlgoConfig(eps=0.2, delta=0.1, mode=mode, seed=3, algorithm=name))
        requested = {k: rep.parameters.get(k) for k in ("eps", "delta", "mode")}
        assert requested == {"eps": 0.2, "delta": 0.1, "mode": mode}, rep.parameters
        assert rep.estimate.abs_error_bound == rep.guarantee_bound


class TestReport:
    def test_estimate_claims_the_bound_and_the_ledger_total(self):
        ledger = CostLedger(be_uses=3, total_queries=12.5)
        rep = _report("logdet_svt", 7, 1.25, 1.0, "relative", 0.5, 0.9, False, ledger,
                      {"eps": 0.1})
        est = rep.estimate
        assert (est.value, est.abs_error_bound, est.success_prob) == (1.25, 0.5, 0.9)
        assert est.queries_charged == 12.5 and est.seed == 7 and not est.failed
        assert rep.guarantee_bound == 0.5 and rep.ledger is ledger
        assert rep.warnings == [] and rep.passed

    def test_warnings_are_not_shared(self):
        a = _report("x", 0, 0.0, None, "absolute", 1.0, 1.0, False, CostLedger(), {})
        b = _report("x", 0, 0.0, None, "absolute", 1.0, 1.0, False, CostLedger(), {})
        a.warnings.append("w")
        assert b.warnings == []


# Ledgers (be_uses, ae_rounds, total_queries) of every mode at n = 32.  The
# ledger charges the formula degree, not the chopped one, so the integer
# ledgers stay fixed.  The schatten_p ledgers follow kappa through the matrix
# power cost, so they carry the last bits of kappa as ``eigvalsh`` gives them.
# sve_calls is 0 throughout.
_LEDGER_PINS = {
    ('logdet_svt', 1, False, 0.05): (147936402.0, 112158.0, 3698410050.0),
    ('logdet_svt', 1, False, 0.01): (857412054.0, 560034.0, 21435301350.0),
    ('trace_inverse', 1, False, 0.05): (5382980712.0, 3109752.0, 134574517800.0),
    ('trace_inverse', 1, False, 0.01): (30755020032.0, 15548544.0, 768875500800.0),
    ('schatten_p', 1, False, 0.05): (133214833322.44699, 0.0, 3330370833061.175),
    ('schatten_p', 1, False, 0.01): (783452884797.4751, 0.0, 19586322119936.88),
    ('schatten_p', 5, False, 0.05): (247879116140.48914, 0.0, 6196977903512.229),
    ('schatten_p', 5, False, 0.01): (1397777460274.8972, 0.0, 34944436506872.43),
    ('schatten_p', 6, True, 0.05): (282063412259.5611, 0.0, 7051585306489.027),
    ('schatten_p', 6, True, 0.01): (1578949761764.0723, 0.0, 39473744044101.805),
}


@pytest.mark.parametrize("key", sorted(_LEDGER_PINS, key=repr))
def test_ledger_pinned(key):
    algorithm, p, mono, eps = key
    A = generate_spd(32, 10.0, "log_uniform", 0.5, 7)
    be_uses, ae_rounds, total = _LEDGER_PINS[key]
    for mode in ("exact", "adversarial", "stochastic"):
        cfg = AlgoConfig(eps=eps, mode=mode, seed=3, algorithm=algorithm, p=p,
                         use_monomial_approx=mono)
        assert run_algorithm(A, cfg).ledger.as_dict() == {
            "be_uses": be_uses, "sve_calls": 0.0, "ae_rounds": ae_rounds,
            "total_queries": total}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_ledger_follows_the_primitive_counts(name, mode):
    """Each ledger is the one rule over the counts its primitive reports."""
    for A in _DOMAIN_INPUTS[ALGORITHMS[name].domain]:
        rep = run_algorithm(A, AlgoConfig(eps=0.2, delta=0.1, mode=mode, seed=3,
                                          algorithm=name, p=5))
        led, par = rep.ledger.as_dict(), rep.parameters
        assert led["total_queries"] == rep.estimate.queries_charged
        if name == "logdet_edge_cases" and A.n == par.get("multiplicity"):
            assert led == {"be_uses": 0.0, "sve_calls": 0.0, "ae_rounds": 0.0,
                           "total_queries": 1.0}
        elif name in ("logdet_svt", "logdet_edge_cases", "vn_entropy", "trace_inverse",
                      "schatten_p"):
            # The SVT estimators run on a qram encoding of the (deflated) input.
            n = A.n - par.get("multiplicity", 0)
            assert led["be_uses"] == led["total_queries"] / polylog(n)
            assert led["sve_calls"] == 0
            if name == "schatten_p":
                assert led["ae_rounds"] == 0
            else:
                assert led["be_uses"].is_integer()
                assert led["ae_rounds"] == par["ae_rounds"] * par["reps"]
        elif name == "logdet_chebyshev":
            assert led["be_uses"] == 2 * par["samples"]
            assert led["sve_calls"] == led["ae_rounds"] == 0
        elif name in ("logdet_sve", "logdet_taylor"):
            assert led["sve_calls"] == led["ae_rounds"] == par["ae_rounds"] * par["reps"]
            assert led["total_queries"] == led["sve_calls"] * sve_cost(A.stats.mu, par["eps1"], A.n)
            assert led["be_uses"] == 0
        else:
            assert name == "logdet_qmc"
            assert float(led["sve_calls"]).is_integer()
            cost = sve_cost(A.stats.mu, par["eps1_used"], A.n)
            assert led["total_queries"] == led["sve_calls"] * cost
            assert led["be_uses"] == led["ae_rounds"] == 0


class TestSweep:
    def test_rows_follow_cell_order_on_one_input(self):
        rows = sweep("logdet_svt", "eps", [0.1, 0.05], n=16, seeds=[3, 5])
        assert [(v, rep.estimate.seed, rep.parameters["eps"]) for v, _, rep in rows] == [
            (0.1, 3, 0.1), (0.1, 5, 0.1), (0.05, 3, 0.05), (0.05, 5, 0.05)]
        assert len({id(A) for _, A, _ in rows}) == 1

    def test_each_kappa_gets_its_own_input_through_the_input_map(self):
        rows = sweep("vn_entropy", "kappa", [5.0, 10.0, 5.0], n=16)
        inputs = [A for _, A, _ in rows]
        assert inputs[0] is inputs[2] and inputs[0] is not inputs[1]
        for kappa, A, rep in rows:
            assert np.trace(A.entries) == pytest.approx(1.0)
            assert A.stats.kappa == pytest.approx(kappa)
            assert rep.algorithm == "vn_entropy"

    def test_n_and_p_axes_read_integers(self):
        rows = sweep("schatten_p", "p", [2.0, 3.0], n=16)
        assert [rep.algorithm for _, _, rep in rows] == ["schatten_2", "schatten_3"]
        assert [A.n for _, A, _ in sweep("logdet_svt", "n", [8.0, 16.0])] == [8, 16]

    def test_threads_do_not_change_the_rows(self):
        kwargs = dict(n=16, seeds=range(3), mode="stochastic")
        one = sweep("logdet_sve", "eps", [0.1, 0.05], threads=1, **kwargs)
        three = sweep("logdet_sve", "eps", [0.1, 0.05], threads=3, **kwargs)
        assert [rep.estimate for *_, rep in one] == [rep.estimate for *_, rep in three]

    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown sweep axis 'delta'"):
            sweep("logdet_svt", "delta", [0.1])


class TestFitLoglog:
    @staticmethod
    def _rows(xs, queries):
        return [(x, None, SimpleNamespace(ledger=CostLedger(total_queries=q)))
                for x, q in zip(xs, queries)]

    def test_eps_axis_fits_against_one_over_eps(self):
        eps = [0.1, 0.05, 0.025]
        slope, se = fit_loglog("eps", self._rows(eps, [7.0 / e**2 for e in eps]))
        assert slope == pytest.approx(2.0)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_other_axes_fit_against_the_value(self):
        slope, _ = fit_loglog("kappa", self._rows([10, 20, 40], [3.0, 3.0 * 2**1.5, 3.0 * 4**1.5]))
        assert slope == pytest.approx(1.5)

    @pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
    def test_equal_x_gives_no_standard_error(self):
        _, se = fit_loglog("n", self._rows([16, 16], [5.0, 6.0]))
        assert math.isnan(se)

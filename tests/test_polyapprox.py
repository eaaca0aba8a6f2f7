"""Tests for certified Chebyshev constructions."""

import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as cheb
from scipy.fft import dct

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


    @staticmethod
    def _series(degree):
        rng = np.random.default_rng(degree)
        c = rng.standard_normal(degree + 1) / (1.0 + np.arange(degree + 1))
        s = ChebyshevSeries(degree=degree, coefficients=c, target="t",
                            certified_sup_error=0.0, certified_on=(-1.0, 1.0),
                            global_bound=0.5)
        return s, c, (0.3, -1.0, 1.0, rng.uniform(-1, 1, 257), rng.uniform(-1, 1, (2, 300)))

    @pytest.mark.parametrize("degree", [0, 1])
    def test_series_call_is_chebval_bitwise(self, degree):
        s, c, points = self._series(degree)
        for x in points:
            got = s(x)
            assert np.shape(got) == np.shape(x)
            assert np.array_equal(got, cheb.chebval(x, c))

    @pytest.mark.parametrize("degree", [2, 2999, 8177])
    def test_series_call_is_chebval_within_rounding(self, degree):
        s, c, points = self._series(degree)
        bound = 4 * (degree + 1) * np.finfo(float).eps * np.sum(np.abs(c))
        for x in points:
            got = s(x)
            assert np.shape(got) == np.shape(x)
            assert np.max(np.abs(got - cheb.chebval(x, c))) <= bound

    def test_values_do_not_depend_on_the_blas_thread_count(self):
        # The evaluation's matrix product runs in OpenBLAS, whose thread
        # count is fixed when numpy loads, so each count gets a process.
        code = (
            "import hashlib, numpy as np\n"
            "from specsum.polyapprox import ChebyshevSeries\n"
            "h = hashlib.sha256()\n"
            "for d in (2, 30, 894, 8177):\n"
            "    c = np.random.default_rng(d).standard_normal(d + 1) / (1.0 + np.arange(d + 1))\n"
            "    s = ChebyshevSeries(degree=d, coefficients=c, target='t', certified_sup_error=0.0,\n"
            "                        certified_on=(-1.0, 1.0), global_bound=0.5)\n"
            "    for n in (33, 64, 256, 1024):\n"
            "        x = np.random.default_rng(n).uniform(-1, 1, (2, n))\n"
            "        h.update(s(x).tobytes())\n"
            "        h.update(s(x[0]).tobytes())\n"
            "print(h.hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(polyapprox.__file__))
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
            res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 env=env, timeout=120)
            assert res.returncode == 0, res.stderr
            digests.add(res.stdout)
        assert len(digests) == 1


def _halved_monomial(q):
    """x^q / 2 as schatten_p builds it from the exact expansion."""
    mono = approx_monomial(q, q)
    scale = 2.0 * max(1.0, mono.global_bound)
    return ChebyshevSeries(degree=q, coefficients=np.asarray(mono.coefficients) / scale,
                           target=f"x^{q}/2", certified_sup_error=mono.certified_sup_error / 2.0,
                           certified_on=(-1.0, 1.0), global_bound=mono.global_bound / scale)


class TestEvaluationError:
    """rho(P) bounds the rounding of ``__call__`` against the exact series."""

    @staticmethod
    def _exact(c, x):
        """sum_k c_k T_k(x) by Clenshaw's recurrence in 50 significant digits."""
        with mpmath.workdps(50):
            x = mpmath.mpf(x)
            b1 = b2 = mpmath.mpf(0)
            for ck in c[:0:-1]:
                b1, b2 = 2 * x * b1 - b2 + ck, b1
            return x * b1 - b2 + c[0]

    @pytest.mark.parametrize("build", [
        lambda: approx_log(1 / 4, 1e-2),
        lambda: approx_inverse(1 / 4, 1e-2),
        lambda: entropy_poly(1 / 4, 1e-2),
        lambda: approx_monomial(7, 7),
        lambda: _halved_monomial(7),
    ], ids=["log", "inverse", "entropy", "monomial", "halved_monomial"])
    def test_bounds_the_gap_to_the_exact_series(self, build):
        s = build()
        x = np.concatenate([np.cos(np.pi * np.arange(1001) / 1000),
                            np.random.default_rng(5).uniform(-1.0, 1.0, 1000)])
        c = [mpmath.mpf(float(ck)) for ck in s.coefficients]
        gap = max(abs(mpmath.mpf(float(v)) - self._exact(c, xi)) for v, xi in zip(s(x), x))
        assert float(gap) <= s.evaluation_error
        assert s.evaluation_error == pytest.approx(
            8 * (s.degree_used + 1) * 2.0**-53 * np.sum(np.abs(s.coefficients)), rel=1e-15)


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

    def test_cached_and_read_only(self):
        chebyshev_logdet_setup.cache_clear()
        first = chebyshev_logdet_setup(0.137, 1e-4)
        assert chebyshev_logdet_setup(0.137, 1e-4) is first
        assert chebyshev_logdet_setup.cache_info().hits == 1
        with pytest.raises(ValueError):
            first[0][0] = 0.0

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


# The certifier before grid reuse and the end-point screen: one fresh grid,
# target and DCT-I per candidate.  Kept as the reference the faster
# certifier must match byte for byte.
def _ref_measure(c, target, interval, degree=0):
    d = max(degree, len(c) - 1)
    m = 1 << (polyapprox._OVERSAMPLE * (d + 1) - 1).bit_length()
    v = np.zeros(m + 1)
    v[: len(c)] = c
    v[1:m] *= 0.5
    p = dct(v, type=1)
    x = np.cos(np.arange(m + 1) * (np.pi / m))
    a, b = interval
    inside = (x > a) & (x < b)
    ends = np.array([a, b], dtype=float)
    p_ends = np.cos(np.outer(np.arccos(ends), np.arange(len(c)))) @ c
    err = polyapprox._GRID_MARGIN * max(
        float(np.max(np.abs(p[inside] - target(x[inside])), initial=0.0)),
        float(np.max(np.abs(p_ends - target(ends)))),
    )
    gbound = min(polyapprox._GRID_MARGIN * float(np.max(np.abs(p))),
                 float(np.sum(np.abs(c))))
    return err, gbound


def _ref_certify(f, target, interval, eps, degree0, label, odd=False):
    a, b = interval
    degree0 = max(4, int(degree0))
    cap = polyapprox._CAP_FACTOR * degree0
    d_top = degree0
    while True:
        c = polyapprox._project(f, d_top)
        if odd:
            c[0::2] = 0.0

        def attempt(d):
            err, gbound = polyapprox._measure(c[: d + 1], target, interval)
            return (d, err, gbound) if err <= eps and gbound <= 0.5 else None

        tail = np.append(np.cumsum(np.abs(c[:0:-1]))[::-1], 0.0)
        lo, hi = 0, max(1, int(np.argmax(tail <= 0.9 * eps)))
        best = attempt(hi)
        while best is None and hi < d_top:
            lo, hi = hi, min(d_top, math.ceil(hi * polyapprox._ESCALATION))
            best = attempt(hi)
        if best is not None:
            while lo == 0 and hi > 1:
                d = max(1, int(hi / polyapprox._ESCALATION))
                cand = attempt(d)
                if cand is None:
                    lo = d
                else:
                    hi, best = d, cand
            while hi - lo > max(1, hi // 100):
                mid = (lo + hi) // 2
                cand = attempt(mid)
                if cand is None:
                    lo = mid
                else:
                    hi, best = mid, cand
            d, err, gbound = best
            return ChebyshevSeries(degree=max(degree0, d), coefficients=c[: d + 1],
                                   target=label, certified_sup_error=err,
                                   certified_on=(float(a), float(b)), global_bound=gbound)
        if d_top >= cap:
            err, gbound = polyapprox._measure(c, target, interval)
            raise CertificationError(
                f"could not certify {label} within degree cap {cap}: "
                f"sup_err={err:.3e} (want <= {eps:.3e}), "
                f"global={gbound:.3f} (want <= 0.5)"
            )
        d_top = min(cap, math.ceil(d_top * polyapprox._ESCALATION))


_BUILDERS = (approx_log, approx_inverse, approx_sqrt, entropy_poly, approx_monomial)


def _clear_caches():
    for build in _BUILDERS:
        build.cache_clear()


# (beta, eps) cells: the sqrt cells at 1e-6 escalate the projection degree,
# and sqrt at (0.5, 1e-10) exhausts the degree cap.
_CELLS = [(0.5, 0.1), (0.25, 1e-2), (0.1, 1e-3), (1 / 32, 1e-4), (0.0566, 0.00317),
          (0.1682, 0.00317), (0.0743, 0.00632), (0.5, 1e-6), (0.1, 1e-6), (0.5, 1e-10)]


# The (delta, eps1) trace_inverse derives at n = 256, eps 0.0105, for the
# kappa-40 and kappa-80 matrices of the cold-cells workload at seed 1: grids
# of 2^17 and 2^19 points.
_TAIL_CELLS = [(0.005524271728019908, 2.157918643757779e-05),
               (0.0027621358640099545, 1.0789593218788897e-05)]


def _build_all():
    """(builder, JSON or error message) of every builder on the test cells."""
    out = []
    for beta, eps in _CELLS:
        for build in (approx_log, approx_inverse, approx_sqrt, entropy_poly):
            try:
                out.append((build, build(beta, eps).to_json()))
            except CertificationError as exc:
                out.append((build, str(exc)))
    out += [(approx_monomial, approx_monomial(s, d).to_json())
            for s in (1, 2, 7, 30) for d in (1, 3, 12, 40)]
    return out


def _assert_matches_reference(got, expected, odd):
    """got == expected, except that an odd series' error and bound, measured on
    the half grid, may differ from the reference's DCT-I by 1e-9 max(1, sum |c_k|)."""
    if not odd or got.startswith("could not certify"):
        assert got == expected
        return
    g, e = json.loads(got), json.loads(expected)
    tau = 1e-9 * max(1.0, float(np.sum(np.abs(g["coefficients"]))))
    for key in ("certified_sup_error", "global_bound"):
        assert abs(g.pop(key) - e.pop(key)) <= tau
    assert g == e


class TestSameBytesAsReference:
    def test_every_builder_matches_reference_certifier(self, monkeypatch):
        _clear_caches()
        with monkeypatch.context() as m:
            m.setattr(polyapprox, "_certify", _ref_certify)
            m.setattr(polyapprox, "_measure", _ref_measure)
            expected = _build_all()
        _clear_caches()
        got = _build_all()
        _clear_caches()
        assert any(text.startswith("could not certify") for _, text in got)
        assert [build for build, _ in got] == [build for build, _ in expected]
        for (build, text), (_, want) in zip(got, expected):
            _assert_matches_reference(text, want, odd=build is approx_inverse)

    @pytest.mark.parametrize("delta, eps", _TAIL_CELLS)
    def test_inverse_matches_reference_on_large_grids(self, monkeypatch, delta, eps):
        _clear_caches()
        with monkeypatch.context() as m:
            m.setattr(polyapprox, "_certify", _ref_certify)
            m.setattr(polyapprox, "_measure", _ref_measure)
            expected = approx_inverse(delta, eps).to_json()
        _clear_caches()
        got = approx_inverse(delta, eps)
        _clear_caches()
        assert _grid_size(got.degree_used) >= 2**17
        _assert_matches_reference(got.to_json(), expected, odd=True)

    @pytest.mark.parametrize("build, beta, eps, attempts, transforms", [
        (approx_log, 0.0566, 0.00317, 7, 4),
        (approx_inverse, 0.1682, 0.00317, 6, 0),
        (approx_sqrt, 0.0743, 0.00632, 4, 2),
    ])
    def test_end_point_screen_skips_transforms(self, monkeypatch, build, beta, eps,
                                               attempts, transforms):
        """Candidates whose end-point error alone fails get no transform.

        Each cell has a candidate whose end-point error lies within eps but
        above eps over the grid margin, so the margin is part of the count.
        Every other candidate gets one DCT-I of M + 1 points, or, for the
        odd inverse, one DCT-II of M/2 points and no DCT-I at all.  The
        candidates are the reference certifier's, in its order.
        """
        candidates, events = [], []

        def ref_counting(c, target, interval, degree=0):
            end_err = polyapprox._Grid(target, interval).end_error(c)
            candidates.append((len(c) - 1, polyapprox._GRID_MARGIN * end_err <= eps))
            return _ref_measure(c, target, interval, degree)

        real_dct, real_end, real_project = (polyapprox.dct, polyapprox._Grid.end_error,
                                            polyapprox._project)

        def dct_logging(x, type=2, **kwargs):
            events.append((f"dct{type}", len(x)))
            return real_dct(x, type=type, **kwargs)

        def end_logging(grid, c):
            events.append(("end_error", len(c) - 1))
            return real_end(grid, c)

        def project_unlogged(f, degree):
            n = len(events)
            out = real_project(f, degree)
            del events[n:]
            return out

        _clear_caches()
        with monkeypatch.context() as m:
            m.setattr(polyapprox, "_certify", _ref_certify)
            m.setattr(polyapprox, "_measure", ref_counting)
            expected = build(beta, eps).to_json()
        _clear_caches()
        monkeypatch.setattr(polyapprox, "dct", dct_logging)
        monkeypatch.setattr(polyapprox._Grid, "end_error", end_logging)
        monkeypatch.setattr(polyapprox, "_project", project_unlogged)
        got = build(beta, eps)
        _clear_caches()
        odd = build is approx_inverse
        _assert_matches_reference(got.to_json(), expected, odd)
        assert len(candidates) == attempts

        want = []
        for d, screened_in in candidates:
            want.append(("end_error", d))
            if screened_in:
                m = _grid_size(d)
                want.append(("dct2", m // 2) if odd else ("dct1", m + 1))
        assert events == want
        assert sum(kind == "dct1" for kind, _ in events) == transforms


def _grid_size(d):
    return 1 << (polyapprox._OVERSAMPLE * (d + 1) - 1).bit_length()


class TestHalfGrid:
    """The odd grid's half-length DCT-II against the full DCT-I."""

    @pytest.mark.parametrize("log_m", range(4, 20))
    def test_half_nodes_have_the_full_grid_bits(self, log_m):
        m = 2**log_m
        full = np.cos(np.arange(m + 1) * (np.pi / m))
        half = np.cos(np.arange(m // 2) * (np.pi / m))
        assert np.array_equal(half, full[: m // 2])
        assert full[m // 2] < 1e-16  # the first node left out: below any cutoff in use

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(2, 400),
           rate=st.floats(0.8, 0.999), scale=st.floats(0.2, 2.0),
           a=st.floats(1e-3, 0.5), log_eps=st.floats(math.log(1e-9), math.log(0.5)),
           tie=st.booleans())
    def test_half_decision_is_the_full_one(self, seed, length, rate, scale, a, log_eps, tie):
        rng = np.random.default_rng(seed)
        c = np.zeros(length)
        c[1::2] = rng.uniform(-1.0, 1.0, length // 2) * rate ** np.arange(1, length, 2)
        c *= scale / np.sum(np.abs(c))
        # The target is P plus a small odd perturbation, so grid errors span
        # the range of eps.
        d = int(rng.integers(1, length))
        shift = np.zeros(length)
        shift[1::2] = rng.uniform(-1e-6, 1e-6, length // 2)
        half, full = (polyapprox._Grid(lambda x: cheb.chebval(x, c + shift), (a, 1.0), odd=odd)
                      for odd in (True, False))
        chop = c[: d + 1]
        err_f, gb_f = full.measure(chop)
        err_h, gb_h = half.measure(chop)
        eps = err_f if tie else math.exp(log_eps)
        tau = 1e-9 * max(1.0, float(np.sum(np.abs(chop))))
        assert abs(err_h - err_f) <= tau and abs(gb_h - gb_f) <= tau
        decided = min(abs(err_h - eps), abs(gb_h - 0.5)) > tau
        if decided:
            assert (err_h <= eps and gb_h <= 0.5) == (err_f <= eps and gb_f <= 0.5)
        assert not (tie and decided)

        m = _grid_size(d)
        v = np.zeros(m // 2)
        v[: len(chop) // 2] = 0.5 * chop[1::2]
        w = np.zeros(m + 1)
        w[: len(chop)] = chop
        w[1 : len(chop)] *= 0.5
        p_half, p_full = dct(v, type=2), dct(w, type=1)
        assert np.max(np.abs(p_half - p_full[: m // 2])) <= tau
        assert np.max(np.abs(p_half)) == pytest.approx(np.max(np.abs(p_full)), abs=tau)

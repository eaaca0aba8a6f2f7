"""Acceptance suites: certification, soundness, scaling, determinism.

Each criterion function is pure given its hard-coded configuration and
returns a CriterionResult with a single pass/fail verdict plus detail
text.  The CLI ``verify`` command and the acceptance tests both drive
these functions, so the command line and the test suite cannot drift
apart.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .baselines import ProbeConfig, classical_schatten_p
from .matrix_core import SymmetricMatrix, generate_spd
from .measurement import ae_error_bound, amplitude_estimate
from .polyapprox import (
    approx_inverse,
    approx_log,
    approx_monomial,
    approx_sqrt,
    chebyshev_logdet_coeffs,
    entropy_poly,
    taylor_logdet_degree,
)
from .rng import stream
from .spectral_sums import ALGORITHMS, AlgoConfig, fit_loglog, run_algorithm, sweep

__all__ = ["CriterionResult", "CRITERIA", "SUITES", "run_suite"]

# Shared instance grid for the soundness criteria.
_GRID_NK = [(n, k) for n in (32, 64, 128) for k in (5, 10, 50)]

# Estimators exercised by the soundness criteria: every one whose domain a
# generated matrix reaches (vn_entropy through A / Tr A); schatten cycles p.
_SOUND_ALGOS = [name for name, entry in ALGORITHMS.items()
                if entry.domain != "norm_at_least_one"]

# Scaling-law sweeps on generate_spd(64, 10, "log_uniform", 0.5, 7) and its
# kappa variants: (axis, algorithm, axis values, slope interval).
_EPS_BASE = [0.01 * 2.0**-i for i in range(5)]
_SCALING_SWEEPS = [
    ("eps", "logdet_svt", _EPS_BASE, (0.85, 1.15)),
    ("eps", "vn_entropy", _EPS_BASE, (0.85, 1.15)),
    ("eps", "trace_inverse", _EPS_BASE, (0.85, 1.15)),
    ("eps", "schatten_p", _EPS_BASE, (0.85, 1.15)),
    ("eps", "logdet_sve", _EPS_BASE, (1.7, 2.3)),
    ("eps", "logdet_qmc", _EPS_BASE, (1.7, 2.3)),
    ("eps", "logdet_taylor", [1.6e-4 * 2.0**-i for i in range(5)], (1.7, 2.3)),
    ("eps", "logdet_chebyshev", [2.5e-7 * 2.0**-i for i in range(5)], (1.7, 2.3)),
    ("kappa", "logdet_svt", [50, 100, 200, 400], (0.85, 1.15)),
    ("kappa", "trace_inverse", [25, 50, 100, 200], (1.7, 2.3)),
    ("kappa", "logdet_sve", [80, 160, 320, 640], (2.6, 3.4)),
]


@dataclass(frozen=True)
class CriterionResult:
    """Verdict of one acceptance criterion."""

    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {status} — {self.detail}"


def criterion_polynomial_certification() -> CriterionResult:
    """Monomial tail bound plus log/inverse/sqrt/entropy certification."""
    bad = []
    for s, d in [(4, 4), (16, 8), (16, 16), (64, 24), (64, 64)]:
        series = approx_monomial(s, d)
        bound = 2.0 * math.exp(-(d**2) / (2.0 * s))
        if series.certified_sup_error > bound:
            bad.append(f"monomial(s={s},d={d}): {series.certified_sup_error:.2e} > {bound:.2e}")
    for b in (1 / 4, 1 / 10, 1 / 32):
        for eps in (1e-2, 1e-3):
            for name, make in [
                ("log", lambda: approx_log(b, eps)),
                ("inverse", lambda: approx_inverse(b, eps)),
                ("sqrt", lambda: approx_sqrt(b, eps)),
                ("entropy", lambda: entropy_poly(b, eps)),
            ]:
                try:
                    series = make()
                except Exception as exc:  # certification failures count as misses
                    bad.append(f"{name}(b={b:g},eps={eps:g}): {exc}")
                    continue
                if series.certified_sup_error > eps or series.global_bound > 0.5:
                    bad.append(
                        f"{name}(b={b:g},eps={eps:g}): err={series.certified_sup_error:.2e}"
                        f" global={series.global_bound:.3f}"
                    )
    detail = "; ".join(bad) if bad else "5 monomial pairs + 24 certified constructions in bound"
    return CriterionResult("polynomial certification", not bad, detail)


def criterion_truncation_bounds() -> CriterionResult:
    """Taylor and Chebyshev truncation bounds against exact traces."""
    bad = []
    kappas = [5, 10, 50]
    for i in range(20):
        A = generate_spd(64, kappas[i % 3], "log_uniform", 0.5, 3000 + i)
        w = A.spectral.eigenvalues
        exact = float(np.sum(np.log(w)))
        kappa_eff = 1.0 / float(w[-1])
        for eps in (0.1, 0.01):
            m = taylor_logdet_degree(kappa_eff, eps)
            r = 1.0 - w
            acc, pw = 0.0, np.ones_like(r)
            for k in range(1, m + 1):
                pw = pw * r
                acc += float(np.sum(pw)) / k
            rel = abs(-acc - exact) / abs(exact)
            if rel > eps:
                bad.append(f"taylor(i={i},eps={eps:g}): rel={rel:.2e}")
    delta = 0.1
    n = 64
    k_fac = (math.sqrt(2 - delta) + math.sqrt(delta)) / (math.sqrt(2 - delta) - math.sqrt(delta))
    B = generate_spd(n, (1 - delta) / delta, "log_uniform", 1 - delta, 4001)
    w = B.spectral.eigenvalues
    exact = float(np.sum(np.log(w)))
    y = (2.0 * w - 1.0) / (1.0 - 2.0 * delta)
    for d in range(1, 31):
        coeffs = chebyshev_logdet_coeffs(delta, d)
        approx = float(np.sum(_cheb.chebval(y, coeffs)))
        bound = 20 * n * math.log(2 / delta) / (k_fac**d * (k_fac - 1))
        if abs(approx - exact) > bound:
            bad.append(f"chebyshev(d={d}): err={abs(approx - exact):.2e} > {bound:.2e}")
    detail = "; ".join(bad) if bad else "40 taylor cases + 30 chebyshev degrees in bound"
    return CriterionResult("truncation bounds", not bad, detail)


def _soundness_runs(mode: str, count: int, delta: float):
    """Yield (algorithm, report) over the shared soundness grid."""
    mats = {}
    for i in range(count):
        nk = _GRID_NK[i % len(_GRID_NK)]
        key = (nk, i) if mode == "exact" else nk
        if key not in mats:
            seed = 1000 + i if mode == "exact" else 1000
            mats[key] = generate_spd(nk[0], nk[1], "log_uniform", 0.5, seed)
        A = mats[key]
        for algo in _SOUND_ALGOS:
            cfg = AlgoConfig(eps=0.1, delta=delta, mode=mode, seed=2000 + i,
                             algorithm=algo, p=1 + i % 4)
            yield algo, run_algorithm(ALGORITHMS[algo].input(A), cfg)


def criterion_exact_soundness() -> CriterionResult:
    """Every estimator meets its stated guarantee in exact mode."""
    fails, total = [], 0
    for algo, rep in _soundness_runs("exact", 100, 0.05):
        total += 1
        if not rep.passed:
            fails.append(f"{algo}(seed={rep.estimate.seed})")
    detail = "; ".join(fails[:10]) if fails else f"{total} runs, 100% within guarantee"
    return CriterionResult("exact-mode guarantee soundness", not fails, detail)


def criterion_stochastic_soundness() -> CriterionResult:
    """Stochastic-mode pass fraction >= 1 - delta - 3 sigma per estimator."""
    delta, seeds = 0.1, 200
    sigma = math.sqrt(delta * (1 - delta) / seeds)
    threshold = 1.0 - delta - 3.0 * sigma
    hits = {a: 0 for a in _SOUND_ALGOS}
    for algo, rep in _soundness_runs("stochastic", seeds, delta):
        hits[algo] += bool(rep.passed)
    fracs = {a: hits[a] / seeds for a in _SOUND_ALGOS}
    bad = [f"{a}: {fracs[a]:.3f}" for a in _SOUND_ALGOS if fracs[a] < threshold]
    worst = min(fracs.values())
    detail = ("; ".join(bad) if bad
              else f"min pass fraction {worst:.3f} >= {threshold:.3f} over {seeds} seeds")
    return CriterionResult("stochastic-mode guarantee soundness", not bad, detail)


def criterion_amplitude_estimation() -> CriterionResult:
    """Amplitude-estimation draws respect the error bound at the stated rate."""
    draws = 10_000
    success = 8.0 / math.pi**2
    bad = []
    for a in (0.1, 0.3, 0.5, 0.9):
        for t in (50, 200):
            bound = ae_error_bound(a, t)
            inside = sum(
                abs(amplitude_estimate(a, t, "stochastic", seed=i).value - a) <= bound
                for i in range(draws)
            )
            sigma = math.sqrt(success * (1 - success) / draws)
            if inside / draws < success - 3.0 * sigma:
                bad.append(f"(a={a},t={t}): {inside / draws:.4f}")
    detail = "; ".join(bad) if bad else f"8 (a,t) pairs x {draws} draws >= 8/pi^2 - 3 sigma"
    return CriterionResult("amplitude-estimation contract", not bad, detail)


def criterion_scaling_laws() -> CriterionResult:
    """Ledger slopes vs 1/eps and kappa match the theory exponents."""
    bad, lines = [], []
    for axis, algo, values, (lo, hi) in _SCALING_SWEEPS:
        slope, _ = fit_loglog(axis, sweep(algo, axis, values, matrix_seed=7, seeds=[3]))
        lines.append(f"{algo} {axis}:{slope:.2f}")
        if not (lo <= slope <= hi):
            x = "1/eps" if axis == "eps" else axis
            bad.append(f"{algo} vs {x}: {slope:.3f} not in [{lo},{hi}]")
    detail = "; ".join(bad) if bad else " ".join(lines)
    return CriterionResult("scaling-law reproduction", not bad, detail)


def criterion_variance_lemmas() -> CriterionResult:
    """Spectrum-variance bound and uniform-rounding estimator variance."""
    bad = []
    n = 64
    for i in range(100):
        rng = stream(5000, i)
        kappa = float(rng.choice([5.0, 10.0, 50.0, 100.0]))
        lo, hi = 1.0 / kappa, 0.5
        if i % 2:
            sig = np.exp(rng.uniform(math.log(lo), math.log(hi), n))
        else:
            sig = rng.uniform(lo, hi, n)
        x = np.log(1.0 / sig)
        lim = (math.log(kappa) ** 2 - 1.0) * float(np.mean(x)) ** 2
        if float(np.var(x)) > lim:
            bad.append(f"spectrum {i}: var {np.var(x):.3f} > {lim:.3f}")
    eps, kappa, trials = 0.05, 10.0, 10_000
    width = eps * math.log(kappa)
    rng = stream(5001)
    u = rng.uniform(-width / 2.0, width / 2.0, trials)
    var = float(np.var(n * u))
    target = (n * eps * math.log(kappa)) ** 2 / 12.0
    if not (0.5 <= var / target <= 2.0):
        bad.append(f"rounding variance ratio {var / target:.2f}")
    detail = ("; ".join(bad) if bad
              else f"100 spectra in bound; rounding variance ratio {var / target:.3f}")
    return CriterionResult("variance lemmas", not bad, detail)


def criterion_trivial_identities() -> CriterionResult:
    """Closed-form spectral sums on scaled identities, exact mode."""
    bad = []
    n, c = 16, 0.5
    cid = SymmetricMatrix(n, c * np.eye(n), spd_flag=True)
    checks = [
        ("logdet_svt", cid, n * math.log(c), 1),
        ("trace_inverse", cid, n / c, 1),
        ("schatten_p", cid, c * n ** (1.0 / 3.0), 3),
        ("vn_entropy", SymmetricMatrix(n, np.eye(n) / n, spd_flag=True), math.log(n), 1),
    ]
    for algo, mat, closed, p in checks:
        rep = run_algorithm(mat, AlgoConfig(eps=0.1, mode="exact", algorithm=algo, p=p))
        if abs(rep.estimate.value - closed) > rep.guarantee_bound:
            bad.append(f"{algo}: |{rep.estimate.value:.6f} - {closed:.6f}| > {rep.guarantee_bound:.2e}")
    A = generate_spd(32, 10, "log_uniform", 0.5, 11)
    rep = run_algorithm(A, AlgoConfig(eps=0.1, mode="exact", algorithm="schatten_p", p=2))
    fro = A.stats.frobenius_norm
    if abs(rep.estimate.value - fro) > rep.guarantee_bound:
        bad.append(f"schatten-2 vs frobenius: {rep.estimate.value:.6f} vs {fro:.6f}")
    detail = "; ".join(bad) if bad else "5 closed-form identities within guarantee"
    return CriterionResult("trivial identities", not bad, detail)


def criterion_cross_algorithm() -> CriterionResult:
    """Five log-determinant estimators pairwise within summed guarantees."""
    algos = ["logdet_svt", "logdet_sve", "logdet_taylor", "logdet_chebyshev", "logdet_qmc"]
    kappas = [5, 10, 50]
    bad = []
    for i in range(20):
        A = generate_spd(64, kappas[i % 3], "log_uniform", 0.5, 6000 + i)
        reps = [run_algorithm(A, AlgoConfig(eps=0.1, mode="exact", algorithm=a)) for a in algos]
        for j in range(len(reps)):
            for k in range(j + 1, len(reps)):
                gap = abs(reps[j].estimate.value - reps[k].estimate.value)
                lim = reps[j].guarantee_bound + reps[k].guarantee_bound
                if gap > lim:
                    bad.append(f"i={i} {algos[j]}/{algos[k]}: {gap:.3f} > {lim:.3f}")
    detail = "; ".join(bad[:6]) if bad else "20 instances x 10 pairs within summed guarantees"
    return CriterionResult("cross-algorithm consistency", not bad, detail)


def criterion_determinism() -> CriterionResult:
    """Identical manifests give byte-identical JSON across thread counts."""
    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.join(tmp, "m")
        base = [sys.executable, "-m", "specsum.cli"]
        subprocess.run(
            base + ["gen", "--n", "48", "--kappa", "10", "--profile", "log-uniform",
                    "--norm", "0.5", "--seed", "1", "--out", prefix],
            check=True, capture_output=True,
        )
        outputs = []
        for threads in ("1", "4"):
            env = dict(os.environ, SPECSUM_THREADS=threads)
            out = os.path.join(tmp, f"est{threads}.json")
            subprocess.run(
                base + ["estimate", "--matrix", prefix + ".mtx", "--algorithm",
                        "logdet_svt", "--eps", "0.1", "--mode", "stochastic",
                        "--seed", "3", "--out", out],
                check=True, capture_output=True, env=env,
            )
            sweep = os.path.join(tmp, f"sweep{threads}.csv")
            subprocess.run(
                base + ["sweep", "--n", "32", "--kappa", "10", "--profile", "log-uniform",
                        "--norm", "0.5", "--matrix-seed", "1", "--algorithm", "logdet_svt",
                        "--axis", "eps", "--values", "0.2,0.1,0.05", "--seeds", "2",
                        "--mode", "stochastic", "--out", sweep],
                check=True, capture_output=True, env=env,
            )
            with open(out, "rb") as fh:
                est_bytes = fh.read()
            with open(sweep, "rb") as fh:
                sweep_bytes = fh.read()
            outputs.append((est_bytes, sweep_bytes))
    same = outputs[0] == outputs[1] and len(outputs[0][0]) > 0
    detail = ("estimate JSON and sweep CSV byte-identical across SPECSUM_THREADS=1,4"
              if same else "outputs differ across thread counts")
    return CriterionResult("determinism", same, detail)


def criterion_baseline_agreement() -> CriterionResult:
    """Classical baselines agree with quantum-model estimates (supporting check)."""
    A = generate_spd(64, 10, "log_uniform", 0.5, 7)
    cfg = ProbeConfig(num_probes=400, seed=1)
    from .baselines import classical_logdet_taylor, classical_trace_inverse

    bad = []
    for classical, algo in [
        (classical_logdet_taylor(A, 0.05, cfg), "logdet_svt"),
        (classical_trace_inverse(A, 0.05, cfg), "trace_inverse"),
    ]:
        quantum = run_algorithm(A, AlgoConfig(eps=0.05, mode="exact", algorithm=algo))
        gap = abs(classical.estimate.value - quantum.estimate.value)
        lim = classical.guarantee_bound + quantum.guarantee_bound
        if gap > lim:
            bad.append(f"{classical.algorithm}/{algo}: {gap:.3f} > {lim:.3f}")
    # Rademacher probes read the trace of the identity exactly: z^T z = n.
    identity = SymmetricMatrix(32, np.eye(32), spd_flag=True)
    est = classical_schatten_p(identity, 1, 0.1, ProbeConfig(num_probes=3, seed=0)).estimate
    if est.value != 32.0:
        bad.append(f"identity trace: {est.value}")
    detail = "; ".join(bad) if bad else "baselines within summed guarantees of quantum models"
    return CriterionResult("baseline agreement", not bad, detail)


CRITERIA = {
    1: criterion_polynomial_certification,
    2: criterion_truncation_bounds,
    3: criterion_exact_soundness,
    4: criterion_stochastic_soundness,
    5: criterion_amplitude_estimation,
    6: criterion_scaling_laws,
    7: criterion_variance_lemmas,
    8: criterion_trivial_identities,
    9: criterion_cross_algorithm,
    10: criterion_determinism,
    11: criterion_baseline_agreement,
}

SUITES = {
    "lemmas": [1, 2, 7],
    "algorithms": [3, 4, 8, 9, 10, 11],
    "scaling": [5, 6],
    "all": list(range(1, 12)),
}


def run_suite(name: str) -> list[CriterionResult]:
    """Run a named suite and return one result per criterion."""
    if name not in SUITES:
        raise ValueError(f"unknown suite: {name!r} (choose from {sorted(SUITES)})")
    return [CRITERIA[i]() for i in SUITES[name]]

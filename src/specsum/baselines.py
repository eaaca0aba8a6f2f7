"""Classical randomized baselines for spectral-sum estimation.

Stochastic (Hutchinson) trace estimation combined with Taylor or
Chebyshev matrix-function expansions, the classical algorithms the
quantum-model estimators are set against.  Each reports a matvec ledger
that charges the modelled algorithm, d dense matvecs of n^2 unit
operations per probe for a degree-d series, so its cost can be compared
head-to-head with the quantum-model estimators' query ledgers.

The emulator does not run that recurrence: with A = Q diag(w) Q^T from
A's cached `eigenbasis`, a sample is z^T p(A) z = sum_i p(w_i) (q_i^T z)^2,
one product Q^T Z per block of probes whatever the degree.  The probes
are the consecutive rows of one counter-based stream (seed, 29): numpy
draws them entry by entry, so probe i depends only on (seed, i), and
results are deterministic given the seed and independent of block size
and probe count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .matrix_core import SymmetricMatrix, exact_spectral_sum
from .polyapprox import (
    approx_inverse,
    approx_monomial,
    chebyshev_logdet_setup,
    entropy_poly,
    taylor_logdet_degree,
)
from .qmodel import CostLedger
from .rng import PROBE_STREAM, stream
from .spectral_sums import (
    _CLOSED_CONTRACTION,
    _CONTRACTION,
    _DENSITY,
    SpectralSumReport,
    _report,
    _require_schatten_order,
)

__all__ = [
    "ProbeConfig",
    "classical_logdet_taylor",
    "classical_logdet_chebyshev",
    "classical_entropy",
    "classical_trace_inverse",
    "classical_schatten_p",
]

# Hutchinson concentration constant: ceil(C * log(2/delta) / eps^2)
# probes give relative error eps on PSD traces with probability 1 - delta.
_HUTCH_C = 24.0

# Probes per block: bounds the n x k working set whatever num_probes is.
_PROBE_BLOCK = 256

# Probe kind -> draw of k probes of n entries, one probe per row.
_DRAWS = {
    "rademacher": lambda rng, k, n: 2.0 * rng.integers(0, 2, size=(k, n)) - 1.0,
    "gaussian": lambda rng, k, n: rng.standard_normal((k, n)),
}


@dataclass(frozen=True)
class ProbeConfig:
    """Probe ensemble for stochastic trace estimation.

    Attributes:
        num_probes: Number of independent probe vectors (>= 1).
        probe_kind: "rademacher" (i.i.d. +-1 entries) or "gaussian".
        seed: Base RNG seed; probe i is row i of the draws from
            stream (seed, 29).
    """

    num_probes: int = 128
    probe_kind: str = "rademacher"
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.num_probes, numbers.Integral):
            raise ValueError(f"num_probes must be an integer, got {self.num_probes!r}")
        if self.num_probes < 1:
            raise ValueError("num_probes must be >= 1")
        if self.probe_kind not in _DRAWS:
            raise ValueError(f"unknown probe kind: {self.probe_kind!r}")


def _probe_blocks(n: int, cfg: ProbeConfig):
    """The probe ensemble as n x k blocks, one probe per column, k <= _PROBE_BLOCK.

    Probe i is row i of the draws from stream (seed, 29), whatever the
    block size.
    """
    rng, draw = stream(cfg.seed, PROBE_STREAM), _DRAWS[cfg.probe_kind]
    for start in range(0, cfg.num_probes, _PROBE_BLOCK):
        yield draw(rng, min(_PROBE_BLOCK, cfg.num_probes - start), n).T


def _spectral_quadform(A: SymmetricMatrix, p, cfg: ProbeConfig) -> tuple[float, float]:
    """Mean and standard error of z^T p(A) z over the probe ensemble.

    p maps the eigenvalues w of A to p(w).  With A = Q diag(w) Q^T a
    block Z of probes costs one product Y = Q^T Z, and its samples are
    p(w) @ (Y * Y).
    """
    w, Q = A.eigenbasis
    pw = p(w)
    blocks = []
    for Z in _probe_blocks(A.n, cfg):
        Y = Q.T @ Z
        np.square(Y, out=Y)
        blocks.append(pw @ Y)
    vals = np.concatenate(blocks)
    mean = float(np.mean(vals))
    stderr = 0.0
    if cfg.num_probes > 1:
        stderr = float(np.std(vals, ddof=1) / math.sqrt(cfg.num_probes))
    return mean, stderr


def _require_eps(eps: float) -> None:
    if not (0 < eps < 1):
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")


def _success_prob(num_probes: int, eps: float) -> float:
    """Hutchinson concentration level achieved by the given probe count."""
    return max(0.0, 1.0 - 2.0 * math.exp(-num_probes * eps**2 / _HUTCH_C))


def _probe_report(name, value, bound, guarantee, exact, cfg, stderr, matvecs, n,
                  parameters) -> SpectralSumReport:
    """The report of a probe run, charging each matvec as n^2 unit operations.

    Its success level is the probe concentration at half the target parameters["eps"].
    """
    success = _success_prob(cfg.num_probes, parameters["eps"] / 2.0)
    parameters = dict(parameters, success_prob=success, num_probes=cfg.num_probes,
                      probe_kind=cfg.probe_kind, stderr=stderr, matvecs=matvecs)
    return _report(name, cfg.seed, value, exact, guarantee, bound, success, False,
                   CostLedger(total_queries=matvecs * float(n * n)), parameters)


def classical_logdet_taylor(A: SymmetricMatrix, eps: float,
                            cfg: ProbeConfig) -> SpectralSumReport:
    """Log-determinant by Hutchinson over the truncated Taylor series.

    Estimates -sum_{k<=m} Tr[(I - A)^k]/k, charging m matvecs per probe.
    The truncation order m targets relative error eps/2, leaving the
    other half of the budget to the probe average.
    """
    _require_eps(eps)
    _CONTRACTION.check(A)
    n = A.n
    kappa_eff = 1.0 / float(A.spectral.eigenvalues[-1])
    m = taylor_logdet_degree(kappa_eff, eps / 2.0)

    def series(w):  # sum_{k<=m} (1 - w)^k / k by Horner's rule
        acc = np.zeros_like(w)
        for k in range(m, 0, -1):
            acc = (acc + 1.0 / k) * (1.0 - w)
        return acc

    mean, stderr = _spectral_quadform(A, series, cfg)
    value = -mean
    exact = exact_spectral_sum(A, "log")
    bound = eps * abs(exact)
    return _probe_report(
        "classical_logdet_taylor", value, bound, "relative", exact, cfg,
        stderr, m * cfg.num_probes, n, {"eps": eps, "m": m, "kappa_eff": kappa_eff},
    )


def classical_logdet_chebyshev(A: SymmetricMatrix, eps: float,
                               cfg: ProbeConfig) -> SpectralSumReport:
    """Log-determinant by Hutchinson over the Chebyshev log expansion.

    Applies the mapped-interval log coefficients at the affine image
    (2A - I)/(1 - 2 delta), charging d matvecs per probe for the modelled
    three-term recurrence.  The per-dimension truncation target is
    (eps/2) * log(1/||A||), so the total truncation error stays below
    half the relative budget.
    """
    _require_eps(eps)
    _CONTRACTION.check(A)
    n = A.n
    norm = A.stats.spectral_norm
    delta_c = min(float(A.spectral.eigenvalues[-1]), 1.0 - norm, 0.49)  # the expansion needs < 1/2
    per_dim = eps / 2.0 * math.log(1.0 / norm)
    coeffs, d, trunc_per_n = chebyshev_logdet_setup(delta_c, per_dim)
    scale = 1.0 / (1.0 - 2.0 * delta_c)
    mean, stderr = _spectral_quadform(A, lambda w: chebval(scale * (2.0 * w - 1.0), coeffs), cfg)
    exact = exact_spectral_sum(A, "log")
    bound = eps * abs(exact)
    # Matvecs charged per probe: the modelled recurrence's one for T_1 and
    # one per step, d in all.
    return _probe_report(
        "classical_logdet_chebyshev", mean, bound, "relative", exact, cfg,
        stderr, d * cfg.num_probes, n,
        {
            "eps": eps, "d": d, "delta_margin": delta_c,
            "truncation_per_n": trunc_per_n,
        },
    )


def classical_entropy(rho: SymmetricMatrix, eps: float,
                      cfg: ProbeConfig) -> SpectralSumReport:
    """Von Neumann entropy by Hutchinson over the -x log x series.

    Absolute eps guarantee: the certified series error is budgeted at
    eps/2 across the n eigenvalues, the probe average takes the rest.
    """
    _require_eps(eps)
    _DENSITY.check(rho)
    n = rho.n
    beta = float(rho.spectral.eigenvalues[-1])
    big_l = math.log(2.0 / beta)
    eps1 = eps / (4.0 * n * big_l)
    series = entropy_poly(beta, eps1)
    mean, stderr = _spectral_quadform(rho, series, cfg)
    value = 2.0 * big_l * mean
    exact = exact_spectral_sum(rho, "neg_xlogx")
    return _probe_report(
        "classical_entropy", value, eps, "absolute", exact, cfg, stderr,
        series.degree_used * cfg.num_probes, n,
        {
            "eps": eps, "eps1": eps1, "degree": series.degree, "degree_used": series.degree_used,
            "rescale_log": big_l,
        },
    )


def classical_trace_inverse(A: SymmetricMatrix, eps: float,
                            cfg: ProbeConfig) -> SpectralSumReport:
    """Trace of the inverse by Hutchinson over the bounded inverse series.

    Relative eps guarantee via Tr[A^{-1}] >= n for contractions: the
    series tolerance eps1 = 3*eps*delta/16 keeps the unscaled
    polynomial error below (eps/2) per dimension, on [delta, 1] for any
    delta <= lambda_min; delta is capped at 1/2 as in trace_inverse.
    """
    _require_eps(eps)
    _CLOSED_CONTRACTION.check(A)
    n = A.n
    delta_v = min(float(A.spectral.eigenvalues[-1]), 0.5)
    eps1 = 3.0 * eps * delta_v / 16.0
    series = approx_inverse(delta_v, eps1)
    mean, stderr = _spectral_quadform(A, series, cfg)
    value = 8.0 * mean / (3.0 * delta_v)
    exact = exact_spectral_sum(A, "inverse")
    bound = eps * exact
    return _probe_report(
        "classical_trace_inverse", value, bound, "relative", exact, cfg,
        stderr, series.degree_used * cfg.num_probes, n,
        {
            "eps": eps, "eps1": eps1, "delta": delta_v,
            "degree": series.degree, "degree_used": series.degree_used,
        },
    )


def classical_schatten_p(A: SymmetricMatrix, p: int, eps: float,
                         cfg: ProbeConfig) -> SpectralSumReport:
    """Schatten-p norm by Hutchinson over a Chebyshev monomial expansion.

    For SPD A the norm is Tr[A^p]^{1/p}; the monomial x^p is replaced
    by its truncated Chebyshev expansion when the tail bound
    2 exp(-d^2 / 2p) already meets the per-eigenvalue budget at degree
    d < p, and by the exact expansion otherwise.  p is refused when the
    budget underflows to 0 or the series' rounding rho(P) exceeds it.
    """
    p = _require_schatten_order(p)
    _require_eps(eps)
    _CLOSED_CONTRACTION.check(A)
    n = A.n
    norm = A.stats.spectral_norm
    # Per-eigenvalue truncation budget relative to Tr[A^p] >= ||A||^p.
    eps_m = eps / 2.0 * norm**p / n
    if eps_m > 0:
        series = approx_monomial(p, min(p, math.ceil(math.sqrt(2.0 * p * math.log(2.0 / eps_m)))))
    if eps_m == 0 or series.evaluation_error > eps_m:
        raise ValueError(f"p = {p} is too large for this input: the per-eigenvalue budget "
                         f"eps ||A||^p / (2n) = {eps_m:.3e} does not hold the series' rounding")
    mean, stderr = _spectral_quadform(A, series, cfg)
    value = max(mean, 0.0) ** (1.0 / p)
    exact = exact_spectral_sum(A, "x_pow_p", p) ** (1.0 / p)
    bound = eps * exact
    return _probe_report(
        "classical_schatten_p", value, bound, "relative", exact, cfg,
        stderr, series.degree_used * cfg.num_probes, n,
        {
            "eps": eps, "p": p, "degree": series.degree, "degree_used": series.degree_used,
            "truncation_per_eig": series.certified_sup_error,
        },
    )


"""Classical randomized baselines for spectral-sum estimation.

Stochastic (Hutchinson) trace estimation combined with Taylor or
Chebyshev matrix-function expansions applied through repeated dense
matrix-vector products.  These estimators touch only matvecs -- no
eigendecomposition -- and report a matvec ledger (one dense matvec is
charged as n^2 unit operations) so their cost can be compared
head-to-head with the quantum-model estimators' query ledgers.

Every operator a series is evaluated at is symmetric with spectrum in
[-1, 1], so a degree-d series needs only ceil(d/2) products: the
Chebyshev moments z^T T_k z follow from T_{2j} = 2 T_j^2 - T_0 and
T_{2j+1} = 2 T_j T_{j+1} - T_1, the Taylor terms z^T B^k z from
<B^j z, B^j z> and <B^j z, B^{j+1} z>.  The products run on n x k
blocks of probes, one matrix-matrix product per step rather than k
matvecs.  The ledger still charges the modelled recurrence, d matvecs
per probe for a degree-d series, probe by probe.  Probe i is drawn from
the counter-based stream (seed, 29, i), so results are deterministic
given the seed and independent of evaluation order and block size.
`_probe` is the one per-probe definition and draws Gaussian probes; a
block of Rademacher probes comes from `rng.rademacher_block` in one
vectorised pass, equal bit for bit to stacking `_probe` over the block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrix_core import SymmetricMatrix, exact_spectral_sum
from .measurement import Estimate
from .polyapprox import (
    approx_inverse,
    approx_monomial,
    chebyshev_logdet_setup,
    entropy_poly,
    taylor_logdet_degree,
)
from .qmodel import CostLedger
from .rng import rademacher_block, stream
from .spectral_sums import (
    SpectralSumReport,
    _report,
    _require_density,
    _require_spd_contraction,
)

__all__ = [
    "ProbeConfig",
    "probe_count",
    "hutchinson_trace",
    "classical_logdet_taylor",
    "classical_logdet_chebyshev",
    "classical_entropy",
    "classical_trace_inverse",
    "classical_schatten_p",
]

# Hutchinson concentration constant: ceil(C * log(2/delta) / eps^2)
# probes give relative error eps on PSD traces with probability 1 - delta.
_HUTCH_C = 24.0

# Stream index reserved for probe draws.
_PROBE_STREAM = 29

# Probes per block: bounds the n x k working set of the recurrences
# whatever num_probes is.
_PROBE_BLOCK = 256


@dataclass(frozen=True)
class ProbeConfig:
    """Probe ensemble for stochastic trace estimation.

    Attributes:
        num_probes: Number of independent probe vectors (>= 1).
        probe_kind: "rademacher" (i.i.d. +-1 entries) or "gaussian".
        seed: Base RNG seed; probe i is drawn from stream (seed, i).
    """

    num_probes: int = 128
    probe_kind: str = "rademacher"
    seed: int = 0

    def __post_init__(self):
        if self.num_probes < 1:
            raise ValueError("num_probes must be >= 1")
        if self.probe_kind not in ("rademacher", "gaussian"):
            raise ValueError(f"unknown probe kind: {self.probe_kind!r}")


def probe_count(eps: float, delta: float) -> int:
    """Probes for relative error eps on a PSD trace w.p. >= 1 - delta."""
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    return math.ceil(_HUTCH_C * math.log(2.0 / delta) / eps**2)


def _probe(n: int, kind: str, seed: int, index: int) -> np.ndarray:
    rng = stream(seed, _PROBE_STREAM, index)
    if kind == "rademacher":
        return 2.0 * rng.integers(0, 2, size=n) - 1.0
    return rng.standard_normal(n)


def _coldot(Z: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Column-wise inner products z_j^T v_j of two n x k blocks."""
    return np.einsum("ij,ij->j", Z, V)


def _quadform_samples(qform, n: int, cfg: ProbeConfig) -> tuple[float, float]:
    """Mean and standard error of z^T M z over the probe ensemble.

    qform maps an n x k block of probes (one probe per column) to the k
    quadratic forms; probes are fed in blocks of at most _PROBE_BLOCK.
    """
    blocks = []
    for start in range(0, cfg.num_probes, _PROBE_BLOCK):
        stop = min(start + _PROBE_BLOCK, cfg.num_probes)
        if cfg.probe_kind == "rademacher":
            Z = rademacher_block(n, cfg.seed, _PROBE_STREAM, start, stop)
        else:
            Z = np.stack([_probe(n, cfg.probe_kind, cfg.seed, i) for i in range(start, stop)],
                         axis=1)
        blocks.append(qform(Z))
    vals = np.concatenate(blocks)
    mean = float(np.mean(vals))
    stderr = 0.0
    if cfg.num_probes > 1:
        stderr = float(np.std(vals, ddof=1) / math.sqrt(cfg.num_probes))
    return mean, stderr


def _success_prob(num_probes: int, eps: float) -> float:
    """Hutchinson concentration level achieved by the given probe count."""
    return max(0.0, 1.0 - 2.0 * math.exp(-num_probes * eps**2 / _HUTCH_C))


def hutchinson_trace(matvec, n: int, cfg: ProbeConfig,
                     matvec_cost: float | None = None) -> Estimate:
    """Stochastic trace estimate: mean of z^T (M z) over random probes.

    Unbiased for Tr[M] when M is symmetric; for Rademacher probes the
    diagonal contribution z_i^2 M_ii = M_ii is exact, so M = c*I gives
    c*n deterministically.

    Args:
        matvec: Callable applying M to an n-vector.
        n: Dimension.
        cfg: Probe ensemble.
        matvec_cost: Unit operations charged per application of matvec
            (defaults to n^2, one dense matvec).

    Returns:
        Estimate whose abs_error_bound is three sample standard errors
        and whose queries_charged counts matvec unit operations.
    """
    cost = float(n * n) if matvec_cost is None else float(matvec_cost)
    mean, stderr = _quadform_samples(
        lambda Z: np.array([float(z @ matvec(z)) for z in Z.T]), n, cfg
    )
    return Estimate(
        value=mean,
        abs_error_bound=3.0 * stderr,
        success_prob=0.997,
        queries_charged=cfg.num_probes * cost,
        seed=cfg.seed,
    )


def _probe_report(name, value, bound, guarantee, exact, cfg, stderr, matvecs, n,
                  parameters) -> SpectralSumReport:
    """The report of a probe run, charging each matvec as n^2 unit operations."""
    ledger = CostLedger()
    ledger.charge(matvecs * float(n * n))
    parameters = dict(parameters, num_probes=cfg.num_probes, probe_kind=cfg.probe_kind,
                      stderr=stderr, matvecs=matvecs)
    return _report(name, cfg.seed, value, exact, guarantee, bound,
                   parameters["success_prob"], False, ledger, parameters)


def classical_logdet_taylor(A: SymmetricMatrix, eps: float,
                            cfg: ProbeConfig) -> SpectralSumReport:
    """Log-determinant by Hutchinson over the truncated Taylor series.

    Estimates -sum_{k<=m} Tr[(I - A)^k]/k from ceil(m/2) products on
    each block of probes, charging m matvecs per probe.  The truncation
    order m targets relative error eps/2, leaving the other half of the
    budget to the probe average.
    """
    _require_spd_contraction(A)
    n = A.n
    kappa_eff = 1.0 / float(A.spectral.eigenvalues[-1])
    m = taylor_logdet_degree(kappa_eff, eps / 2.0)
    mat = np.asarray(A.entries)

    # With V = B^j Z for B = I - A: z^T B^{2j} z = <V, V> and
    # z^T B^{2j+1} z = <V, B V>, so each product serves two terms.
    def qform(Z):
        V = Z
        acc = np.zeros(Z.shape[1])
        for k in range(1, m + 1):
            if k % 2:
                W = V - mat @ V
                acc += _coldot(V, W) / k
                V = W
            else:
                acc += _coldot(V, V) / k
        return acc

    mean, stderr = _quadform_samples(qform, n, cfg)
    value = -mean
    exact = exact_spectral_sum(A, "log")
    bound = eps * abs(exact)
    return _probe_report(
        "classical_logdet_taylor", value, bound, "relative", exact, cfg,
        stderr, m * cfg.num_probes, n,
        {
            "eps": eps, "m": m, "kappa_eff": kappa_eff,
            "success_prob": _success_prob(cfg.num_probes, eps / 2.0),
        },
    )


def classical_logdet_chebyshev(A: SymmetricMatrix, eps: float,
                               cfg: ProbeConfig) -> SpectralSumReport:
    """Log-determinant by Hutchinson over the Chebyshev log expansion.

    Applies the mapped-interval log coefficients at the affine image
    (2A - I)/(1 - 2 delta) through the three-term recurrence on probe
    vectors.  The per-dimension truncation target is
    (eps/2) * log(1/||A||), so the total truncation error stays below
    half the relative budget.
    """
    _require_spd_contraction(A)
    n = A.n
    norm = A.stats.spectral_norm
    lam_min = float(A.spectral.eigenvalues[-1])
    delta_c = min(lam_min, 1.0 - norm)
    if delta_c <= 0:
        raise ValueError("spectrum outside [delta, 1 - delta]")
    per_dim = eps / 2.0 * math.log(1.0 / norm)
    coeffs, d, trunc_per_n = chebyshev_logdet_setup(delta_c, per_dim)
    mat = np.asarray(A.entries)
    scale = 1.0 / (1.0 - 2.0 * delta_c)
    mean, stderr = _cheb_quadform(lambda V: scale * (2.0 * (mat @ V) - V), coeffs, n, cfg)
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
            "success_prob": _success_prob(cfg.num_probes, eps / 2.0),
        },
    )


def classical_entropy(rho: SymmetricMatrix, eps: float,
                      cfg: ProbeConfig) -> SpectralSumReport:
    """Von Neumann entropy by Hutchinson over the -x log x series.

    Absolute eps guarantee: the certified series error is budgeted at
    eps/2 across the n eigenvalues, the probe average takes the rest.
    """
    _require_density(rho)
    n = rho.n
    beta = float(rho.spectral.eigenvalues[-1])
    big_l = math.log(2.0 / beta)
    eps1 = eps / (4.0 * n * big_l)
    series = entropy_poly(beta, eps1)
    mean, stderr = _cheb_quadform(lambda V: rho.entries @ V, series.coefficients, n, cfg)
    value = 2.0 * big_l * mean
    exact = exact_spectral_sum(rho, "neg_xlogx")
    return _probe_report(
        "classical_entropy", value, eps, "absolute", exact, cfg, stderr,
        series.degree_used * cfg.num_probes, n,
        {
            "eps": eps, "eps1": eps1, "degree": series.degree, "degree_used": series.degree_used,
            "rescale_log": big_l,
            "success_prob": _success_prob(cfg.num_probes, eps / 2.0),
        },
    )


def classical_trace_inverse(A: SymmetricMatrix, eps: float,
                            cfg: ProbeConfig) -> SpectralSumReport:
    """Trace of the inverse by Hutchinson over the bounded inverse series.

    Relative eps guarantee via Tr[A^{-1}] >= n for contractions: the
    series tolerance eps1 = 3*eps*delta/16 keeps the unscaled
    polynomial error below (eps/2) per dimension.
    """
    _require_spd_contraction(A, strict=False)
    n = A.n
    delta_v = float(A.spectral.eigenvalues[-1])
    eps1 = 3.0 * eps * delta_v / 16.0
    series = approx_inverse(delta_v, eps1)
    mean, stderr = _cheb_quadform(lambda V: A.entries @ V, series.coefficients, n, cfg)
    value = 8.0 * mean / (3.0 * delta_v)
    exact = exact_spectral_sum(A, "inverse")
    bound = eps * exact
    return _probe_report(
        "classical_trace_inverse", value, bound, "relative", exact, cfg,
        stderr, series.degree_used * cfg.num_probes, n,
        {
            "eps": eps, "eps1": eps1, "delta": delta_v,
            "degree": series.degree, "degree_used": series.degree_used,
            "success_prob": _success_prob(cfg.num_probes, eps / 2.0),
        },
    )


def classical_schatten_p(A: SymmetricMatrix, p: int, eps: float,
                         cfg: ProbeConfig) -> SpectralSumReport:
    """Schatten-p norm by Hutchinson over a Chebyshev monomial expansion.

    For SPD A the norm is Tr[A^p]^{1/p}; the monomial x^p is replaced
    by its truncated Chebyshev expansion when the tail bound
    2 exp(-d^2 / 2p) already meets the per-eigenvalue budget at degree
    d < p, and by the exact expansion otherwise.
    """
    if p < 1 or p != int(p):
        raise ValueError("p must be a positive integer")
    _require_spd_contraction(A, strict=False)
    n = A.n
    norm = A.stats.spectral_norm
    # Per-eigenvalue truncation budget relative to Tr[A^p] >= ||A||^p.
    eps_m = eps / 2.0 * norm**p / n
    d = min(p, math.ceil(math.sqrt(2.0 * p * math.log(2.0 / eps_m))))
    series = approx_monomial(p, d)
    mean, stderr = _cheb_quadform(lambda V: A.entries @ V, series.coefficients, n, cfg)
    value = max(mean, 0.0) ** (1.0 / p)
    exact = exact_spectral_sum(A, "x_pow_p", p) ** (1.0 / p)
    bound = eps * exact
    return _probe_report(
        "classical_schatten_p", value, bound, "relative", exact, cfg,
        stderr, series.degree_used * cfg.num_probes, n,
        {
            "eps": eps, "p": p, "degree": series.degree, "degree_used": series.degree_used,
            "truncation_per_eig": series.certified_sup_error,
            "success_prob": _success_prob(cfg.num_probes, eps / 2.0),
        },
    )


def _cheb_quadform(op, coeffs: np.ndarray, n: int, cfg: ProbeConfig) -> tuple[float, float]:
    """Hutchinson samples of z^T P(M) z from ceil(d/2) block products.

    op maps an n x k block V to a new block M V, for the symmetric
    operator M with spectrum in [-1, 1] that the degree-d series is
    evaluated at.  The d + 1 moments mu_k = z^T T_k(M) z come from
    T_{2j} = 2 T_j^2 - T_0 and T_{2j+1} = 2 T_j T_{j+1} - T_1:
    mu_{2j} = 2 <T_j z, T_j z> - mu_0 and mu_{2j+1} = 2 <T_j z, T_{j+1} z> - mu_1,
    so the three-term recurrence runs only to T_{ceil(d/2)}.  Callers
    still charge the modelled d matvecs per probe.
    """
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
                t_next = op(t_cur)
                t_next *= 2.0
                t_next -= t_prev
                acc += coeffs[k] * (2.0 * _coldot(t_cur, t_next) - mu1)
                t_prev, t_cur = t_cur, t_next
        return acc

    return _quadform_samples(qform, n, cfg)

"""Quantum-model spectral-sum estimators.

Nine estimators, listed with their input domains in ALGORITHMS, built
from the block-encoding algebra, the certified polynomials and the
measurement primitives: the SVT log-determinant (and its ||A|| >= 1
form), Schatten-p norm, von Neumann entropy and trace of inverse, plus
four appendix log-determinant variants (SVE-based, Taylor, Chebyshev,
quantum Monte Carlo).  Each run returns a report with the estimate, the
exact oracle value, the guarantee form and bound, every derived
parameter, and the query ledger.

The analysis underlying the parameter choices normalizes ||A|| = 1; at
desk scale inputs are strict contractions, so cutoffs are placed at
the true lower spectral edge (beta = lambda_min / alpha rather than
1/(kappa*alpha)) and the matching rescale factor log(2/beta) is used
throughout.  Cutoffs and construction tolerances are rounded down onto
a geometric grid so polynomial constructions cache across runs;
reports record both the formula value and the value used.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .matrix_core import SymmetricMatrix, exact_spectral_sum, generate_spd, unit_trace, with_spectrum
from .polyapprox import (
    approx_inverse,
    approx_log,
    approx_monomial,
    chebyshev_logdet_setup,
    entropy_poly,
)
from .qmodel import (
    BlockEncoding,
    CostLedger,
    apply_svt,
    matrix_power,
    product_preamplified,
    qram_block_encoding,
    sve_cost,
    sve_values,
)
from .measurement import (
    MODES,
    Estimate,
    ae_rounds_for,
    amplitude_estimate,
    hadamard_test_estimate,
    inner_product_estimate,
    median_amplify,
    median_reps,
    qmc_mean_estimate,
    trace_estimate_abs,
    trace_product_estimate,
)
from .rng import child_seed

__all__ = [
    "MODES",
    "AlgoConfig",
    "SpectralSumReport",
    "Estimator",
    "logdet_svt",
    "logdet_edge_cases",
    "schatten_p",
    "vn_entropy",
    "trace_inverse",
    "logdet_sve",
    "logdet_taylor",
    "logdet_chebyshev",
    "logdet_qmc",
    "run_algorithm",
    "sweep",
    "fit_loglog",
    "ALGORITHMS",
]

# Geometric grid factor for rounding cutoffs/tolerances down (caching).
_GRID = 2.0 ** 0.25


def _floor_grid(x: float) -> float:
    """Round x down onto the geometric caching grid: the largest _GRID**k <= x."""
    k = math.floor(math.log(x) / math.log(_GRID))
    # The quotient can round across an integer, so step k onto the right cell.
    if _GRID ** (k + 1) <= x:
        k += 1
    elif _GRID ** k > x:
        k -= 1
    return _GRID ** k


@dataclass(frozen=True)
class AlgoConfig:
    """Configuration of one estimator run.

    Attributes:
        eps: Target error in (0, 1).
        delta: Failure probability in (0, 1/2).
        mode: Noise mode, one of MODES.
        seed: Base RNG seed.
        algorithm: Estimator name, a key of ALGORITHMS.
        p: Schatten exponent (positive integer), used by schatten_p.
        use_monomial_approx: Whether schatten_p replaces the exact
            monomial with its truncated Chebyshev expansion.
    """

    eps: float = 0.1
    delta: float = 0.05
    mode: str = "exact"
    seed: int = 0
    algorithm: str = "logdet_svt"
    p: int = 1
    use_monomial_approx: bool = False

    def __post_init__(self):
        if not (0 < self.eps < 1):
            raise ValueError("eps must lie in (0, 1)")
        if not (0 < self.delta < 0.5):
            raise ValueError("delta must lie in (0, 1/2)")
        for name, choices in (("mode", MODES), ("algorithm", sorted(ALGORITHMS))):
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(f"unknown {name} {value!r}: choose one of {', '.join(choices)}")


@dataclass
class SpectralSumReport:
    """Result of one estimator run.

    Attributes:
        algorithm: Estimator name.
        estimate: The Estimate (value, bound, success, queries, seed).
        exact: Exact oracle value (None above the exact-oracle cap).
        guarantee: "relative" or "absolute".
        guarantee_bound: Absolute bound implied by the guarantee.
        parameters: All derived tolerances, degrees, and round counts.
        ledger: Accumulated query costs.
        warnings: Degenerate-regime notes.
    """

    algorithm: str
    estimate: Estimate
    exact: float | None
    guarantee: str
    guarantee_bound: float
    parameters: dict
    ledger: CostLedger
    warnings: list = field(default_factory=list)

    @property
    def passed(self) -> bool | None:
        """Whether |estimate - exact| <= guarantee_bound (None if no oracle)."""
        if self.exact is None:
            return None
        return abs(self.estimate.value - self.exact) <= self.guarantee_bound


def _require_spd_contraction(A: SymmetricMatrix, strict: bool = True) -> None:
    """Reject input that is not SPD, or not a (strict) contraction."""
    if not A.spd_flag or A.spectral.eigenvalues[-1] <= 0:
        raise ValueError("estimator requires an SPD matrix")
    norm = A.stats.spectral_norm
    if strict and norm >= 1:
        raise ValueError(f"||A|| = {norm!r} >= 1, but this estimator requires ||A|| < 1 (for "
                         "a log-determinant use the edge-case handler, logdet_edge_cases)")
    if not strict and norm > 1 + 1e-12:
        raise ValueError(f"||A|| = {norm!r} > 1, but this estimator requires ||A|| <= 1")


def _require_density(rho: SymmetricMatrix) -> None:
    """Reject input without unit trace or with an eigenvalue <= 0."""
    tr = float(np.trace(np.asarray(rho.entries)))
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"density input requires unit trace, got {tr!r}")
    w_min = float(rho.spectral.eigenvalues[-1])
    if w_min <= 0:
        raise ValueError(f"eigenvalue {w_min:.3e} below the certified domain cutoff")


def _report(algorithm: str, seed: int, value: float, exact: float | None, guarantee: str,
            bound: float, success_prob: float, failed: bool, ledger: CostLedger,
            parameters: dict, warnings: list | None = None) -> SpectralSumReport:
    """A report whose estimate claims the guarantee bound and charges the ledger total."""
    est = Estimate(value=value, abs_error_bound=bound, success_prob=success_prob,
                   queries_charged=ledger.total_queries, seed=seed, failed=failed)
    return SpectralSumReport(algorithm=algorithm, estimate=est, exact=exact,
                             guarantee=guarantee, guarantee_bound=bound,
                             parameters=parameters, ledger=ledger,
                             warnings=[] if warnings is None else warnings)


def _svt_ledger(est: Estimate, be: BlockEncoding) -> CostLedger:
    """The ledger of an SVT estimator measured by est: each query is one use of the qram encoding be."""
    return CostLedger(be_uses=est.queries_charged / be.use_cost, ae_rounds=est.reps * est.rounds,
                      total_queries=est.queries_charged)


def _median_amplitude(a: float, t: int, reps: int, cfg: AlgoConfig,
                      round_cost: float) -> tuple[float, bool, CostLedger]:
    """(median, failed, ledger) of reps amplitude estimates of a with t rounds each.

    Repetition r draws on child seed r; each round is one SVE call of round_cost queries.
    """

    def draw(r):
        ae = amplitude_estimate(a, t, cfg.mode, child_seed(cfg.seed, r))
        return ae.value, ae.failed

    value, failed = median_amplify(draw, reps)
    calls = reps * t
    return value, failed, CostLedger(sve_calls=calls, ae_rounds=calls,
                                     total_queries=calls * round_cost)


def logdet_svt(A: SymmetricMatrix, cfg: AlgoConfig) -> SpectralSumReport:
    """Log-determinant via SVT of a certified log polynomial.

    Applies the bounded series for log(x)/(2 log(2/beta)) to the
    mu-normalized encoding of A, estimates the normalized trace as a
    state overlap, and rescales.  Relative eps guarantee for SPD
    contractions.
    """
    _require_spd_contraction(A)
    st = A.stats
    n, alpha, kappa, norm = A.n, st.mu, st.kappa, st.spectral_norm
    lam_min = norm / kappa
    beta_formula = 1.0 / (kappa * alpha)
    beta = min(_floor_grid(lam_min / alpha), 0.5)
    big_l = math.log(2.0 / beta)
    # The formula assumes 2 kappa alpha > 1 (alpha >= 1 in the paper's
    # normalization); outside that it is undefined and reported as null.
    log_ka = math.log(2.0 * kappa * alpha)
    eps23_formula = cfg.eps * math.log(1.0 / norm) / (6.0 * log_ka) if log_ka > 0 else None
    eps2 = cfg.eps * math.log(1.0 / norm) / (6.0 * big_l)
    eps3 = _floor_grid(eps2)
    series = approx_log(beta, eps3)
    be = qram_block_encoding(A, cfg.mode, cfg.seed)
    ipe = inner_product_estimate(apply_svt(be, series), eps2, cfg.delta, seed=cfg.seed)
    value = 2.0 * n * big_l * ipe.value + n * math.log(alpha)
    exact = exact_spectral_sum(A, "log")
    bound = cfg.eps * abs(exact)
    return _report(
        "logdet_svt", cfg.seed, value, exact, "relative", bound, 1.0 - 2.0 * cfg.delta,
        ipe.failed, _svt_ledger(ipe, be),
        {
            "eps": cfg.eps, "delta": cfg.delta, "mode": cfg.mode,
            "alpha": alpha, "kappa": kappa, "spectral_norm": norm,
            "beta_formula": beta_formula, "beta_used": beta,
            "eps2_formula": eps23_formula, "eps2_used": eps2,
            "eps3_formula": eps23_formula, "eps3_used": eps3,
            "rescale_log": big_l, "degree": series.degree, "degree_used": series.degree_used,
            "poly_sup_error": series.certified_sup_error,
            "ae_rounds": ipe.rounds, "reps": ipe.reps,
        },
    )


def logdet_edge_cases(A: SymmetricMatrix, cfg: AlgoConfig) -> SpectralSumReport:
    """Log-determinant for ||A|| >= 1 via deflation or rescaling.

    With ||A|| = 1, unit singular values are deflated and the SVT
    estimator runs on the remaining spectrum with a relative guarantee
    on the deflated part; with every eigenvalue within 1e-10 of 1 it is 0,
    with an absolute eps guarantee.  With ||A|| > 1 the matrix is rescaled to a
    contraction and the n log(alpha) shift is undone; the guarantee is
    absolute (n eps) because the shifted terms carry mixed signs.
    """
    if not A.spd_flag:
        raise ValueError("edge-case handler requires an SPD matrix")
    st = A.stats
    n, norm = A.n, st.spectral_norm
    if norm < 1 - 1e-10:
        raise ValueError("||A|| < 1: use logdet_svt directly")
    w = A.spectral.eigenvalues
    exact = exact_spectral_sum(A, "log")
    warnings: list = []
    if abs(norm - 1.0) <= 1e-10:
        unit_mask = np.abs(w - 1.0) <= 1e-10
        m = int(np.sum(unit_mask))
        rest = np.asarray(w[~unit_mask])
        if rest.size == 0:
            return _report("logdet_edge_cases", cfg.seed, 0.0, exact, "absolute", cfg.eps, 1.0,
                           False, CostLedger(total_queries=1.0),
                           {"eps": cfg.eps, "delta": cfg.delta, "mode": cfg.mode,
                            "branch": "unit_norm", "multiplicity": m},
                           ["identity spectrum: log-determinant is exactly 0"])
        sub = logdet_svt(with_spectrum(np.diag(rest), rest, spd_flag=True), cfg)
        value, guarantee, bound = sub.estimate.value, "relative", sub.guarantee_bound
        branch = {"branch": "unit_norm", "multiplicity": m, "sigma_next": float(rest.max())}
    else:  # ||A|| > 1: rescale to a contraction and undo the shift.
        alpha_shift = norm / 0.5
        scaled = with_spectrum(np.asarray(A.entries) / alpha_shift, w / alpha_shift, spd_flag=True)
        if w[-1] < 1 < w[0]:
            warnings.append("mixed-sign log terms: absolute guarantee only")
        eps_inner = cfg.eps / math.log(2.0 * st.kappa)
        sub = logdet_svt(scaled, replace(cfg, eps=eps_inner))
        value = sub.estimate.value + n * math.log(alpha_shift)
        guarantee, bound = "absolute", n * cfg.eps
        branch = {"branch": "rescale", "alpha_shift": alpha_shift, "eps_inner": eps_inner}
    sub.parameters.update(branch, eps=cfg.eps)
    return _report("logdet_edge_cases", cfg.seed, value, exact, guarantee, bound,
                   sub.estimate.success_prob, sub.estimate.failed, sub.ledger,
                   sub.parameters, warnings)


def schatten_p(A: SymmetricMatrix, cfg: AlgoConfig) -> SpectralSumReport:
    """Schatten-p norm, p = cfg.p, via powered block-encodings and product-trace estimation.

    Decomposes p = 4q + r, raises the preamplified encoding of
    B/2 = A^T A / 2 to the q-th power by SVT and to the r/4-th power by
    the fractional-power combinator, and estimates Tr[B^{p/2}]
    multiplicatively.  Relative eps guarantee.
    """
    p = cfg.p
    if p < 1:
        raise ValueError("p must be a positive integer")
    _require_spd_contraction(A)
    st = A.stats
    n, kappa, norm = A.n, st.kappa, st.spectral_norm
    # Every tolerance derived below is at least eps ||A||^{2p} / (2^{p/2} 64 n),
    # and the payload scale's 2 ** (p / 2) overflows from p = 2048 on.
    if (p >= 2 * sys.float_info.max_exp or math.log2(cfg.eps / (64.0 * n))
            + 2 * p * math.log2(norm) - p / 2.0 < sys.float_info.min_exp):
        raise ValueError(f"p = {p} is too large for this input: the Schatten tolerances "
                         "or payload scale leave the floating-point range")
    q, r = divmod(p, 4)
    be = qram_block_encoding(A, cfg.mode, cfg.seed)
    prod = product_preamplified(be, be)  # encodes B/2 with B = A^T A
    parameters = {"eps": cfg.eps, "delta": cfg.delta, "mode": cfg.mode,
                  "p": p, "q": q, "r": r, "kappa": kappa}
    enc = None
    gamma2 = None
    if q >= 1:
        if cfg.use_monomial_approx:
            eps_mono = cfg.eps * norm ** (2 * p) / (8.0 * n)
            d_mono = max(1, math.ceil(math.sqrt(2.0 * q * math.log(1.0 / eps_mono))))
            mono = approx_monomial(q, d_mono)
        else:
            mono = approx_monomial(q, q)
        half = type(mono)(
            degree=mono.degree,
            coefficients=np.asarray(mono.coefficients) / (2.0 * max(1.0, mono.global_bound)),
            target=f"x^{q}/2",
            certified_sup_error=mono.certified_sup_error / 2.0,
            certified_on=mono.certified_on,
            global_bound=mono.global_bound / (2.0 * max(1.0, mono.global_bound)),
        )
        enc = apply_svt(prod, half)  # encodes (B/2)^q / 2
        gamma2 = 2.0
        parameters["monomial_degree"] = half.degree
    if r >= 1:
        kappa_mp = max(2.0, 2.0 * kappa**2 / norm**2)
        tr_floor = norm ** (2 * p) / 2 ** (p / 2.0)
        eps_mp = cfg.eps * tr_floor / (64.0 * n)
        mp = matrix_power(prod, r / 4.0, kappa_mp, eps_mp)  # encodes (B/2)^{r/4} / 2
        parameters.update({"kappa_matrix_power": kappa_mp, "eps_matrix_power": eps_mp})
        if enc is None:
            enc, gamma2 = mp, 2.0
        else:
            enc = product_preamplified(enc, mp)
            gamma2 = 8.0
    scale = 2 ** (p / 2.0) * gamma2**2
    tp = trace_product_estimate(enc, cfg.eps, cfg.delta, seed=cfg.seed)
    value = (max(tp.value, 0.0) * scale) ** (1.0 / p)
    exact = exact_spectral_sum(A, "x_pow_p", p=p) ** (1.0 / p)
    bound = cfg.eps * exact
    parameters.update({"payload_scale": scale, "trace_eps": cfg.eps})
    return _report(f"schatten_{p}", cfg.seed, value, exact, "relative", bound,
                   tp.success_prob, tp.failed, _svt_ledger(tp, be), parameters)


def vn_entropy(rho: SymmetricMatrix, cfg: AlgoConfig) -> SpectralSumReport:
    """Von Neumann entropy via SVT of the -x log x series.

    Requires unit trace and nonzero eigenvalues above the certified
    cutoff.  Absolute eps guarantee.
    """
    _require_density(rho)
    w = rho.spectral.eigenvalues
    st = rho.stats
    n, mu, kappa, norm = rho.n, st.mu, st.kappa, st.spectral_norm
    beta_formula = 1.0 / (mu * kappa)
    beta = min(_floor_grid(float(w[-1]) / mu), 0.5)
    big_l = math.log(2.0 / beta)
    eps1 = cfg.eps / (4.0 * big_l)
    eps1_used = _floor_grid(eps1)
    series = entropy_poly(beta, eps1_used)
    be = qram_block_encoding(rho, cfg.mode, cfg.seed)
    sv = apply_svt(be, series)
    eps_t = cfg.eps / (4.0 * n * mu * big_l)
    tr_est = trace_estimate_abs(sv, eps_t, cfg.delta, seed=cfg.seed)
    value = 2.0 * mu * big_l * tr_est.value - math.log(mu)
    exact = exact_spectral_sum(rho, "neg_xlogx")
    bound = cfg.eps
    return _report(
        "vn_entropy", cfg.seed, value, exact, "absolute", bound, 1.0 - cfg.delta,
        tr_est.failed, _svt_ledger(tr_est, be),
        {
            "eps": cfg.eps, "delta": cfg.delta, "mode": cfg.mode,
            "mu": mu, "kappa": kappa, "spectral_norm": norm,
            "beta_formula": beta_formula, "beta_used": beta,
            "eps1_formula": eps1, "eps1_used": eps1_used,
            "trace_eps": eps_t, "degree": series.degree, "degree_used": series.degree_used,
            "rescale_log": big_l, "ae_rounds": tr_est.rounds, "reps": tr_est.reps,
        },
    )


def trace_inverse(A: SymmetricMatrix, cfg: AlgoConfig) -> SpectralSumReport:
    """Trace of the inverse via SVT of the bounded inverse series.

    Relative eps guarantee for SPD contractions, using
    Tr[A^{-1}] >= n when ||A|| <= 1.
    """
    _require_spd_contraction(A, strict=False)
    st = A.stats
    n, mu, kappa, norm = A.n, st.mu, st.kappa, st.spectral_norm
    lam_min = float(A.spectral.eigenvalues[-1])
    delta_formula = 1.0 / (mu * kappa)
    delta_v = min(_floor_grid(lam_min / mu), 0.5)
    eps_formula = 3.0 * cfg.eps / (16.0 * mu * kappa)
    # Budget split so (8/(3 delta mu)) * n * (eps1 + eps2) <= eps * n <= eps * Tr.
    eps_i = 3.0 * cfg.eps * delta_v * mu / 16.0
    eps1 = _floor_grid(eps_i)
    series = approx_inverse(delta_v, eps1)
    be = qram_block_encoding(A, cfg.mode, cfg.seed)
    sv = apply_svt(be, series)
    tr_est = trace_estimate_abs(sv, eps_i, cfg.delta, seed=cfg.seed)
    value = 8.0 * tr_est.value / (3.0 * delta_v * mu)
    exact = exact_spectral_sum(A, "inverse")
    bound = cfg.eps * exact
    return _report(
        "trace_inverse", cfg.seed, value, exact, "relative", bound, 1.0 - cfg.delta,
        tr_est.failed, _svt_ledger(tr_est, be),
        {
            "eps": cfg.eps, "delta": cfg.delta, "mode": cfg.mode,
            "mu": mu, "kappa": kappa, "spectral_norm": norm,
            "delta_formula": delta_formula, "delta_used": delta_v,
            "eps12_formula": eps_formula, "eps1_used": eps1, "eps2_used": eps_i,
            "degree": series.degree, "degree_used": series.degree_used,
            "ae_rounds": tr_est.rounds, "reps": tr_est.reps,
        },
    )


def logdet_sve(A: SymmetricMatrix, cfg: AlgoConfig) -> SpectralSumReport:
    """Log-determinant via singular-value estimation and amplitude estimation.

    Emulates the conditional-rotation probability
    P = (C^2/||A||_F^2) sum_j (sigma_j/sigma~_j)^2 |log sigma~_j| with
    C = min_j sigma~_j / sqrt(|log sigma~_j|) and inverts it.
    """
    _require_spd_contraction(A)
    st = A.stats
    n, mu, kappa, norm, fro = A.n, st.mu, st.kappa, st.spectral_norm, st.frobenius_norm
    kappa_eff = kappa / norm
    log_k = math.log(max(kappa_eff, math.e))
    eps1 = cfg.eps / (kappa_eff * log_k)
    eps2 = cfg.eps / (kappa_eff**2 * log_k)
    sig = np.asarray(A.spectral.singular_values)
    sig_t = np.clip(sve_values(A.spectral, eps1, cfg.mode, cfg.seed), None, 1.0 - 1e-15)
    if np.any(sig_t <= 0):
        raise ValueError("SVE precision too coarse: a singular value rounded to zero")
    logs = np.abs(np.log(sig_t))
    with np.errstate(divide="ignore"):
        c_vals = np.where(logs > 0, sig_t / np.sqrt(logs), np.inf)
    c_const = float(np.min(c_vals))
    prob = float(c_const**2 / fro**2 * np.sum(sig**2 / sig_t**2 * logs))
    prob = min(1.0, max(0.0, prob))
    t, reps = ae_rounds_for(eps2), median_reps(cfg.delta)
    p_hat, failed, ledger = _median_amplitude(prob, t, reps, cfg, sve_cost(mu, eps1, n))
    value = -(fro**2 / c_const**2) * p_hat
    exact = exact_spectral_sum(A, "log")
    bound = cfg.eps * abs(exact)
    return _report(
        "logdet_sve", cfg.seed, value, exact, "relative", bound, 1.0 - cfg.delta,
        failed, ledger,
        {
            "eps": cfg.eps, "delta": cfg.delta, "mode": cfg.mode,
            "mu": mu, "kappa": kappa, "kappa_eff": kappa_eff,
            "eps1": eps1, "eps2": eps2, "C": c_const,
            "C_formula": 1.0 / (kappa_eff * math.sqrt(log_k)),
            "ae_rounds": t, "reps": reps,
        },
    )


def logdet_taylor(A: SymmetricMatrix, cfg: AlgoConfig) -> SpectralSumReport:
    """Log-determinant via the truncated Taylor series of -log(1-x).

    Emulates the amplitude
    L = (1/mn) sum_{k<=m} sum_j (1 - sigma~_j)^k / k with SVE-rounded
    singular values, estimates it, and returns -m n L.
    """
    _require_spd_contraction(A, strict=False)
    st = A.stats
    n, mu, kappa, norm = A.n, st.mu, st.kappa, st.spectral_norm
    kappa_eff = kappa / norm
    m = math.ceil(kappa_eff * math.log(1.0 / cfg.eps))
    eps1 = cfg.eps / m
    eps2 = cfg.eps / m
    sig_t = np.clip(sve_values(A.spectral, eps1, cfg.mode, cfg.seed), 1e-12, 1.0)
    x = 1.0 - sig_t
    ks = np.arange(1, m + 1)
    big_l = float(np.sum(x[None, :] ** ks[:, None] / ks[:, None]) / (m * n))
    big_l = min(1.0, max(0.0, big_l))
    t, reps = ae_rounds_for(eps2), median_reps(cfg.delta)
    l_hat, failed, ledger = _median_amplitude(big_l, t, reps, cfg, sve_cost(mu, eps1, n))
    value = -m * n * l_hat
    exact = exact_spectral_sum(A, "log")
    lam_min = norm / kappa
    xmax = 1.0 - lam_min
    trunc = n * xmax ** (m + 1) / ((m + 1) * (1.0 - xmax))
    bound = 2.0 * n * cfg.eps + trunc
    return _report(
        "logdet_taylor", cfg.seed, value, exact, "absolute", bound, 1.0 - cfg.delta,
        failed, ledger,
        {
            "eps": cfg.eps, "delta": cfg.delta, "mode": cfg.mode,
            "kappa": kappa, "kappa_eff": kappa_eff, "m": m,
            "eps1": eps1, "eps2": eps2, "truncation_bound": trunc,
            "ae_rounds": t, "reps": reps,
        },
    )


def logdet_chebyshev(A: SymmetricMatrix, cfg: AlgoConfig) -> SpectralSumReport:
    """Log-determinant via the Chebyshev expansion of log on [delta, 1-delta].

    Uses the mapped-interval log coefficients and the truncation degree
    from the certified per-dimension bound; the normalized overlap
    -(1/nC) sum_j sum_i c_i T_i(y_j) at y_j = (2 lambda_j - 1)/(1 - 2 delta)
    is estimated by Hadamard-test sampling at precision eps/log d, whose
    1/eps_1^2 repetition count gives this variant its quadratic
    precision cost.
    """
    _require_spd_contraction(A)
    st = A.stats
    n, mu, kappa, norm = A.n, st.mu, st.kappa, st.spectral_norm
    lam_min = float(A.spectral.eigenvalues[-1])
    delta_c = min(lam_min, 1.0 - norm)
    if delta_c <= 0:
        raise ValueError("spectrum outside [delta, 1 - delta]")
    coeffs, d, trunc_per_n = chebyshev_logdet_setup(delta_c, cfg.eps)
    eps1 = cfg.eps / max(math.log(d), 1.0)
    c_const = float(np.sum(np.abs(coeffs)))
    y = (2.0 * np.asarray(A.spectral.eigenvalues) - 1.0) / (1.0 - 2.0 * delta_c)
    prob = -float(np.sum(_cheb.chebval(y, coeffs))) / (n * c_const)
    prob = min(1.0, max(0.0, prob))
    kappa_b = (1.0 - lam_min) / max(1.0 - norm, 1e-15)
    per_state = (d * (d + 1) / 2.0) * (
        math.ceil(math.log2(max(2, n))) + math.log(kappa_b * mu / cfg.eps) ** 2.5
    )
    ht = hadamard_test_estimate(prob, eps1, cfg.delta, unit_cost=per_state,
                                seed=cfg.seed, mode=cfg.mode)
    value = -n * c_const * ht.value
    exact = exact_spectral_sum(A, "log")
    bound = n * c_const * eps1 + n * trunc_per_n
    return _report(
        "logdet_chebyshev", cfg.seed, value, exact, "absolute", bound, 1.0 - cfg.delta,
        ht.failed, CostLedger(be_uses=2 * ht.rounds, total_queries=ht.queries_charged),
        {
            "eps": cfg.eps, "delta": cfg.delta, "mode": cfg.mode,
            "kappa": kappa, "delta_margin": delta_c, "d": d,
            "eps1": eps1, "C": c_const, "truncation_per_n": trunc_per_n,
            "kappa_B": kappa_b, "per_state_cost": per_state,
            "samples": ht.rounds,
        },
    )


def logdet_qmc(A: SymmetricMatrix, cfg: AlgoConfig) -> SpectralSumReport:
    """Log-determinant via quantum Monte Carlo mean estimation.

    SVE rounds the spectrum, then the uniform mean of log(1/sigma~_j)
    is estimated with relative precision and scaled by n.  Requires
    the spectrum inside [1/kappa_eff, 1/2].
    """
    _require_spd_contraction(A)
    st = A.stats
    n, mu, kappa, norm = A.n, st.mu, st.kappa, st.spectral_norm
    if norm > 0.5 + 1e-12:
        raise ValueError("spectrum outside [1/kappa, 1/2]: rescale first")
    kappa_eff = kappa / norm
    eps1_formula = cfg.eps / kappa_eff
    eps1 = cfg.eps / (2.2 * kappa_eff)
    cost = sve_cost(mu, eps1, n)
    sig_t = np.clip(sve_values(A.spectral, eps1, cfg.mode, cfg.seed), 1e-12, 1.0 - 1e-15)
    values = np.log(1.0 / sig_t)
    b_bound = max(math.log(kappa_eff) ** 2 - 1.0, 1.0)
    eps_rel = cfg.eps / (2.0 * float(np.max(values)))
    reps = median_reps(cfg.delta)
    draws = [qmc_mean_estimate(values, b_bound, eps_rel, seed=child_seed(cfg.seed, r),
                               mode=cfg.mode) for r in range(reps)]
    mean, failed = median_amplify(lambda r: (draws[r].value, draws[r].failed), reps)
    calls = reps * draws[0].rounds  # each sampler invocation is one SVE call
    value = -n * mean
    exact = exact_spectral_sum(A, "log")
    bound = n * cfg.eps
    return _report(
        "logdet_qmc", cfg.seed, value, exact, "absolute", bound, 1.0 - cfg.delta,
        failed, CostLedger(sve_calls=calls, total_queries=calls * cost),
        {
            "eps": cfg.eps, "delta": cfg.delta, "mode": cfg.mode,
            "kappa": kappa, "kappa_eff": kappa_eff,
            "eps1_formula": eps1_formula, "eps1_used": eps1,
            "variance_bound": b_bound, "qmc_relative_eps": eps_rel, "reps": reps,
        },
    )


class Estimator(NamedTuple):
    """One entry of ALGORITHMS: an estimator and the input domain it takes.

    The domain is "contraction" (SPD, ||A|| < 1; trace_inverse and
    logdet_taylor also take ||A|| = 1), "density" (SPD, unit trace) or
    "norm_at_least_one" (SPD, ||A|| >= 1).
    """

    run: Callable[[SymmetricMatrix, AlgoConfig], SpectralSumReport]
    domain: str

    def input(self, A: SymmetricMatrix) -> SymmetricMatrix:
        """What this estimator runs on for an SPD A: A / Tr A on the density domain, else A."""
        return unit_trace(A) if self.domain == "density" else A


ALGORITHMS = {
    "logdet_svt": Estimator(logdet_svt, "contraction"),
    "logdet_edge_cases": Estimator(logdet_edge_cases, "norm_at_least_one"),
    "schatten_p": Estimator(schatten_p, "contraction"),
    "vn_entropy": Estimator(vn_entropy, "density"),
    "trace_inverse": Estimator(trace_inverse, "contraction"),
    "logdet_sve": Estimator(logdet_sve, "contraction"),
    "logdet_taylor": Estimator(logdet_taylor, "contraction"),
    "logdet_chebyshev": Estimator(logdet_chebyshev, "contraction"),
    "logdet_qmc": Estimator(logdet_qmc, "contraction"),
}


def run_algorithm(A: SymmetricMatrix, cfg: AlgoConfig) -> SpectralSumReport:
    """Run the estimator cfg.algorithm names on a matrix of its domain."""
    return ALGORITHMS[cfg.algorithm].run(A, cfg)


def sweep(algorithm: str, axis: str, values, *, n: int = 64, kappa: float = 10.0,
          profile: str = "log_uniform", norm: float = 0.5, matrix_seed: int = 0,
          seeds=range(1), eps: float = 0.1, delta: float = 0.05, mode: str = "exact",
          p: int = 4, threads: int = 1) -> list:
    """Run an estimator at each value of one axis ("eps", "kappa", "n" or "p") and each seed.

    Each (n, kappa) gets one input: generate_spd(n, kappa, profile, norm,
    matrix_seed) through the estimator's input map, with its spectral and
    stats caches filled before the threads workers start, so the workers
    only read it and the rows do not depend on the thread count.

    Returns:
        (axis value, input, report) rows in cell order: values outer, seeds inner.
    """
    if axis not in ("eps", "kappa", "n", "p"):
        raise ValueError(f"unknown sweep axis {axis!r}: choose one of eps, kappa, n, p")
    inputs = {}
    cells = []
    for value in values:
        key = (int(value) if axis == "n" else n, value if axis == "kappa" else kappa)
        if key not in inputs:
            A = ALGORITHMS[algorithm].input(generate_spd(*key, profile, norm, matrix_seed))
            A.spectral, A.stats
            inputs[key] = A
        cells += [(value, inputs[key], seed) for seed in seeds]

    def run(cell):
        value, A, seed = cell
        cfg = AlgoConfig(eps=value if axis == "eps" else eps, delta=delta, mode=mode, seed=seed,
                         algorithm=algorithm, p=int(value) if axis == "p" else p)
        return value, A, run_algorithm(A, cfg)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run, cells))


def fit_loglog(axis: str, rows) -> tuple[float, float]:
    """Least-squares slope of log total_queries against log 1/eps (axis "eps") or log value.

    Returns:
        (slope, standard error), the error nan when every x is equal.
    """
    xs = np.log([1.0 / value if axis == "eps" else value for value, _, _ in rows])
    ys = np.log([rep.ledger.total_queries for _, _, rep in rows])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    denom = float(np.sum((xs - xs.mean()) ** 2))
    dof = max(len(xs) - 2, 1)
    se = math.sqrt(float(np.sum(resid**2)) / dof / denom) if denom > 0 else float("nan")
    return float(slope), se

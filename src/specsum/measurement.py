"""Emulated quantum estimation primitives.

Amplitude estimation, Hadamard-test trace estimation (absolute
guarantee), product-trace estimation, inner-product estimation, and
quantum Monte Carlo mean estimation.  Each primitive reproduces its
error/success-probability contract and charges abstract query units;
stochastic draws come from counter-based streams so repeated runs with
the same seed are bit-identical.

Success amplification (`median_amplify`) takes the median of
ceil(18 ln(1/delta)) independent repetitions of the base primitive.

Each primitive alone computes its counts and reports them on its
Estimate, and estimators build their ledgers from them: ``reps``
repetitions, whose median is the value, of ``rounds`` amplitude-
estimation rounds (or Hadamard-test samples) each.  The product-trace,
inner-product and Monte Carlo primitives share one stochastic failure
draw (`_contract_draw`): within eps with the primitive's success
probability, else flagged with magnitude uniform in [1, worst] * eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmodel import MODES, BlockEncoding, polylog
from .rng import (
    AMPLITUDE_STREAM,
    HADAMARD_STREAM,
    INNER_PRODUCT_STREAM,
    QMC_STREAM,
    TRACE_PRODUCT_STREAM,
    child_seed,
    stream,
)

__all__ = [
    "MODES",
    "Estimate",
    "BRASSARD_SUCCESS",
    "amplitude_estimate",
    "ae_rounds_for",
    "median_reps",
    "median_amplify",
    "trace_estimate_abs",
    "trace_product_estimate",
    "inner_product_estimate",
    "hadamard_test_estimate",
    "qmc_mean_estimate",
]

# Success probability of a single amplitude-estimation shot.
BRASSARD_SUCCESS = 8.0 / math.pi**2

# Repetition constant for Chernoff-median amplification.
_MEDIAN_C = 18.0

# Query constant for quantum Monte Carlo mean estimation.
_QMC_C = 16.0


@dataclass(frozen=True)
class Estimate:
    """Result of one emulated estimation primitive or estimator run.

    Attributes:
        value: The estimate.
        abs_error_bound: Absolute error bound claimed on success.
        success_prob: Probability the bound holds.
        queries_charged: Abstract query units consumed.
        seed: Stream seed the draw was keyed by.
        failed: Whether a failure branch was taken (stochastic mode
            bookkeeping; the returned value then carries no guarantee).
        reps: Number of repetitions whose median is the value.
        rounds: Amplitude-estimation rounds, or Hadamard-test samples,
            in one repetition (0 for a primitive that has none).
    """

    value: float
    abs_error_bound: float
    success_prob: float
    queries_charged: float
    seed: int
    failed: bool = False
    reps: int = 1
    rounds: int = 0


def median_reps(delta: float) -> int:
    """Repetitions for median amplification to failure probability delta."""
    if not (0 < delta < 0.5):
        raise ValueError("delta must lie in (0, 1/2)")
    return math.ceil(_MEDIAN_C * math.log(1.0 / delta))


def median_amplify(draw, reps: int) -> tuple[float, bool]:
    """Median amplification: (median value, failed) over draw(0), ..., draw(reps - 1).

    Each draw returns its (value, failed) pair; the run fails when most draws failed.
    """
    draws = [draw(r) for r in range(reps)]
    return float(np.median([v for v, _ in draws])), sum(f for _, f in draws) * 2 > reps


def _contract_draw(rng, success: float, worst: float) -> tuple[float, bool]:
    """One stochastic contract draw (u, failed), the error being eps * u.

    With probability success u is uniform in [-1, 1]; otherwise the draw
    is flagged and |u| is uniform in [1, worst] with a fair sign.
    """
    if rng.random() < success:
        return rng.uniform(-1.0, 1.0), False
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * rng.uniform(1.0, worst), True


def ae_rounds_for(eps: float) -> int:
    """Smallest round count t with pi/t + pi^2/t^2 <= eps.

    This is the worst-case (a = 1/2) inversion of the amplitude
    estimation error bound, so t rounds suffice for precision eps at
    any amplitude.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    t = math.pi * (1.0 + math.sqrt(1.0 + 4.0 * eps)) / (2.0 * eps)
    t = math.ceil(t)
    while math.pi / t + math.pi**2 / t**2 > eps:
        t += 1
    return t


def ae_error_bound(a: float, t: int) -> float:
    """The amplitude estimation error bound 2 pi sqrt(a(1-a))/t + pi^2/t^2."""
    return 2 * math.pi * math.sqrt(max(a * (1 - a), 0.0)) / t + math.pi**2 / t**2


def amplitude_estimate(a: float, t: int, mode: str = "exact", seed: int = 0) -> Estimate:
    """Estimate an amplitude with t reflection rounds.

    In stochastic mode the estimate lands on the sine grid
    sin^2(pi m / t): with the standard success probability it is one of
    the two grid points bracketing the true phase (both of which
    satisfy the error bound), otherwise a uniformly random grid value
    is returned and flagged.

    Args:
        a: True amplitude in [0, 1].
        t: Number of reflection rounds, positive.
        mode: "exact", "stochastic", or "adversarial".
        seed: Stream seed.

    Returns:
        Estimate with abs_error_bound = 2 pi sqrt(a(1-a))/t + pi^2/t^2,
        success_prob = 8/pi^2 and one query per round.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if not (0 <= a <= 1):
        raise ValueError("a must lie in [0, 1]")
    bound = ae_error_bound(a, t)
    failed = False
    if mode == "exact":
        a_hat = a
    elif mode == "adversarial":
        a_hat = min(1.0, max(0.0, a + bound))
    elif mode == "stochastic":
        rng = stream(seed, AMPLITUDE_STREAM)
        theta = math.asin(math.sqrt(a))
        grid_pos = t * theta / math.pi
        if rng.random() < BRASSARD_SUCCESS:
            m = math.floor(grid_pos) if rng.random() < 0.5 else math.ceil(grid_pos)
        else:
            m = int(rng.integers(0, t + 1))
            failed = True
        m = min(max(m, 0), t)
        a_hat = math.sin(math.pi * m / t) ** 2
    else:
        raise ValueError(f"unknown mode: {mode!r}")
    return Estimate(
        value=a_hat,
        abs_error_bound=bound,
        success_prob=BRASSARD_SUCCESS,
        queries_charged=float(t),
        seed=seed,
        failed=failed,
        rounds=t,
    )


def trace_estimate_abs(be: BlockEncoding, eps: float, delta: float, seed: int = 0) -> Estimate:
    """Hadamard-test trace estimation with absolute guarantee n*eps.

    The test amplitude is a = (1 + Tr[payload]/n)/2, the trace read as
    the sum of the effective payload's eigenvalues; with
    t = ceil(8 alpha pi / eps) rounds the returned
    n * alpha * (2 a_hat - 1) deviates from the encoded trace by at
    most n*eps (plus the encoding defect, which the caller budgets).

    Args:
        be: Block-encoding of a symmetric contraction.
        eps: Target per-dimension absolute error, positive.
        delta: Failure probability in (0, 1/2); the value is the median of
            ceil(18 ln(1/delta)) repetitions.
        seed: Stream seed.

    Returns:
        Estimate of the encoded trace.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = be.n
    t = math.ceil(8.0 * be.alpha * math.pi / eps)
    a = (1.0 + be.effective_trace() / n) / 2.0
    a = min(1.0, max(0.0, a))
    reps = median_reps(delta)

    def draw(r):
        est = amplitude_estimate(a, t, be.perturbation_mode, child_seed(seed, r))
        return n * be.alpha * (2.0 * est.value - 1.0), est.failed

    value, failed = median_amplify(draw, reps)
    bound = n * (2.0 * be.alpha * (math.pi / t + math.pi**2 / t**2) + be.eps)
    return Estimate(
        value=value,
        abs_error_bound=bound,
        success_prob=1.0 - delta,
        queries_charged=reps * t * be.use_cost,
        seed=seed,
        failed=failed,
        reps=reps,
        rounds=t,
    )


# The adversarial product-trace value spends its relative budget less
# 2^-30.  A caller compares it with a trace summed along another rounding
# path, whose error is about n * 2^-53 relative; the slack covers that for
# n below 2^23, so the value lands inside eps * Tr in floating point.
_ROUNDING_SLACK = 2.0**-30


def trace_product_estimate(be: BlockEncoding, eps: float, delta: float,
                           seed: int = 0) -> Estimate:
    """Multiplicative estimate of Tr[B^T B] for the encoded block B.

    Requires the encoding error to satisfy
    be.eps <= eps * Tr[B^T B] / (4 n).

    Args:
        be: (1, q, delta)-style encoding of B.
        eps: Relative error target.
        delta: Failure probability in (0, 1/2); the value is the median of
            ceil(18 ln(1/delta)) repetitions.
        seed: Stream seed.

    Returns:
        Estimate with queries be.use_cost * sqrt(n)/eps * polylog(n)
        per repetition.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = be.n
    true_val = be.target_frobenius_sq(effective=True)
    exact_val = be.target_frobenius_sq(effective=False)
    if be.eps > eps * exact_val / (4.0 * n) + 1e-15:
        raise ValueError(
            f"encoding error {be.eps:.3e} exceeds the product-trace budget "
            f"{eps * exact_val / (4.0 * n):.3e}"
        )
    reps = median_reps(delta)

    def draw(r):
        if be.perturbation_mode == "exact":
            return true_val, False
        if be.perturbation_mode == "adversarial":
            return true_val * (1.0 + max(eps - _ROUNDING_SLACK, 0.5 * eps)), False
        u, failed = _contract_draw(stream(seed, TRACE_PRODUCT_STREAM, r), 2.0 / 3.0, 2.0)
        return true_val * (1.0 + eps * u), failed

    value, failed = median_amplify(draw, reps)
    per_rep = be.use_cost * math.sqrt(n) / eps * polylog(n)
    return Estimate(
        value=value,
        abs_error_bound=eps * exact_val + 2.0 * be.eps * n,
        success_prob=1.0 - delta,
        queries_charged=reps * per_rep,
        seed=seed,
        failed=failed,
        reps=reps,
    )


def inner_product_estimate(be: BlockEncoding, eps: float, delta: float,
                           seed: int = 0) -> Estimate:
    """Estimate the overlap Tr[payload]/n of an encoding within eps w.p. >= 1 - 2 delta.

    Emulated at the amplitude level: the true overlap, the mean of the
    effective payload's eigenvalues, is perturbed per the base
    amplitude-estimation success model in the encoding's perturbation
    mode, and the median of ceil(18 ln(1/delta)) repetitions is returned.

    Args:
        be: Block-encoding whose normalized trace is the overlap.
        eps: Absolute precision target, positive.
        delta: Per-side failure probability in (0, 1/2).
        seed: Stream seed.

    Returns:
        Estimate of the overlap, charging be.use_cost per round.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    psi_amp = be.effective_trace() / be.n
    reps = median_reps(delta)
    t = ae_rounds_for(eps)

    def draw(r):
        if be.perturbation_mode == "exact":
            return psi_amp, False
        if be.perturbation_mode == "adversarial":
            return psi_amp + eps, False
        u, failed = _contract_draw(stream(seed, INNER_PRODUCT_STREAM, r), BRASSARD_SUCCESS, 3.0)
        return psi_amp + eps * u, failed

    value, failed = median_amplify(draw, reps)
    return Estimate(
        value=value,
        abs_error_bound=eps,
        success_prob=1.0 - 2.0 * delta,
        queries_charged=reps * t * be.use_cost,
        seed=seed,
        failed=failed,
        reps=reps,
        rounds=t,
    )


def hadamard_test_estimate(
    overlap: float,
    eps: float,
    delta: float,
    unit_cost: float,
    seed: int,
    mode: str = "exact",
) -> Estimate:
    """Sampling (Hadamard-test) estimate of a real overlap in [-1, 1].

    Each repetition prepares both states once and measures a bit whose
    bias encodes the overlap; N = ceil(2 ln(2/delta) / eps^2)
    repetitions put the empirical mean within eps of the overlap with
    probability >= 1 - delta (Hoeffding).

    Args:
        overlap: True overlap, in [-1, 1].
        eps: Target absolute error.
        delta: Failure probability.
        unit_cost: Query cost of one state preparation.
        seed: RNG seed (stochastic mode).
        mode: "exact", "stochastic", or "adversarial".

    Returns:
        Estimate with queries_charged = 2 N unit_cost.
    """
    if not (-1.0 <= overlap <= 1.0):
        raise ValueError("overlap must lie in [-1, 1]")
    if not (0 < eps <= 2.0):
        raise ValueError("eps must lie in (0, 2]")
    n_samp = math.ceil(2.0 * math.log(2.0 / delta) / eps**2)
    if mode == "exact":
        value, failed = overlap, False
    elif mode == "adversarial":
        value, failed = max(-1.0, min(1.0, overlap + 0.99 * eps)), False
    elif mode == "stochastic":
        rng = stream(seed, HADAMARD_STREAM)
        k = rng.binomial(n_samp, (1.0 + overlap) / 2.0)
        value = 2.0 * k / n_samp - 1.0
        failed = abs(value - overlap) > eps
    else:
        raise ValueError(f"unknown mode: {mode!r}")
    return Estimate(
        value=value,
        abs_error_bound=eps,
        success_prob=1.0 - delta,
        queries_charged=2.0 * n_samp * unit_cost,
        seed=seed,
        failed=failed,
        rounds=n_samp,
    )


def qmc_mean_estimate(values, B: float, eps: float, seed: int = 0,
                      mode: str = "exact") -> Estimate:
    """Relative-eps estimate of the uniform mean of nonnegative values.

    Models quantum Monte Carlo mean estimation for distributions with
    Var/E^2 <= B: success probability 3/4 and ceil(16 B / eps) whole
    sampler invocations, reported as ``rounds`` and charged one query
    each (the caller prices a sampler invocation).

    Args:
        values: Sequence of nonnegative reals.
        B: Claimed bound on Var/E^2 (checked against the data).
        eps: Relative error target.
        seed: Stream seed.
        mode: "exact", "stochastic", or "adversarial".

    Returns:
        Estimate of the mean.

    Raises:
        ValueError: If the variance precondition fails.
    """
    v = np.asarray(values, dtype=float)
    if np.any(v < 0):
        raise ValueError("values must be nonnegative")
    mean = float(np.mean(v))
    if mean <= 0:
        raise ValueError("mean must be positive")
    ratio = float(np.var(v)) / mean**2
    if ratio > B + 1e-12:
        raise ValueError(f"Var/E^2 = {ratio:.4f} exceeds the claimed bound B = {B:.4f}")
    if mode == "exact":
        value, failed = mean, False
    elif mode == "adversarial":
        value, failed = mean * (1.0 + eps), False
    elif mode == "stochastic":
        u, failed = _contract_draw(stream(seed, QMC_STREAM), 0.75, 2.0)
        value = mean * (1.0 + eps * u)
    else:
        raise ValueError(f"unknown mode: {mode!r}")
    calls = math.ceil(_QMC_C * B / eps)
    return Estimate(
        value=value,
        abs_error_bound=eps * mean,
        success_prob=0.75,
        queries_charged=float(calls),
        seed=seed,
        failed=failed,
        rounds=calls,
    )

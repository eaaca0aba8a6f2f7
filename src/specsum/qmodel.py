"""Emulated block-encodings and their algebra, on the source's eigenvalues.

Every payload the pipelines build is a polynomial or power of the
encoded symmetric matrix A (A/mu, P(A/mu), (A^2/2)^q, (A^2/2)^{r/4}),
so it commutes with A and is diagonal in A's eigenbasis.  A
block-encoding therefore stores a reference to its source's cached
spectrum (``A.spectral``, never copied) plus one length-n vector, the
payload's eigenvalues, indexed like the source's descending eigenvalues.
Every estimate reads traces and norms of this vector, so no eigenvector
is ever needed: beyond the one cached eigenvalue solve of A, every
combinator works in O(n), or O(n d) for a degree-d polynomial.

Encodings enter through ``qram_block_encoding`` only, the
(mu, log n, 0)-encoding of A; ``apply_svt``, ``product_preamplified``
and ``matrix_power`` derive every other one from it.  ``BlockEncoding``
itself takes only a source spectrum and an eigenvalue vector.

Encodings are exact: nothing is drawn into a payload.  ``mode`` only
tells the measurement primitives how to behave (exact, stochastic or
adversarial), as ``sve_values``' mode argument does for SVE below.  ``eps`` is the lemmas' error
bookkeeping, which the matrix-power and product-trace budget checks
read: the QRAM encoding has eps 0, ``matrix_power`` declares the eps it
is asked for, ``apply_svt`` adds rho(P), the rounding of its own series
evaluation (``ChebyshevSeries.evaluation_error``), and a product adds
its inputs' eps.  Compositions propagate alpha, ancillas, eps and use
cost exactly as the corresponding lemmas prescribe, so the cost ledger
of any composite equals the lemma cost expression evaluated on its
inputs.

Singular-value estimation is one vectorised draw over all n singular
values (``sve_values``): exact, rounded half to even onto the grid of
spacing eps1 (adversarial), or value j shifted by eps1 times draw j of
n uniform draws in [-1, 1] from the one stream (seed, SVE_STREAM)
(stochastic).
``sve_cost`` is the query cost of one SVE call.

Cost convention: one application of the matrix-access unitary costs one
query unit; polylog(n) factors are fixed to ceil(log2 n)^2 uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .matrix_core import SymmetricMatrix, SpectralData
from .polyapprox import ChebyshevSeries
from .rng import SVE_STREAM, stream

__all__ = [
    "MODES",
    "BlockEncoding",
    "CostLedger",
    "polylog",
    "qram_block_encoding",
    "apply_svt",
    "product_preamplified",
    "matrix_power",
    "sve_values",
    "sve_cost",
]


MODES = ("exact", "stochastic", "adversarial")

# A norm within this of an edge of an estimator's input domain counts as the edge.
_UNIT_TOL = 1e-10


def polylog(n: int) -> float:
    """The fixed polylog(n) convention: ceil(log2 n)^2, at least 1."""
    return float(max(1, math.ceil(math.log2(max(2, n)))) ** 2)


@dataclass
class CostLedger:
    """Abstract query costs of one estimator run.

    Attributes:
        be_uses: Number of block-encoding applications.
        sve_calls: Number of singular-value-estimation invocations.
        ae_rounds: Number of amplitude-estimation reflection rounds.
        total_queries: Total query units charged.
    """

    be_uses: float = 0.0
    sve_calls: float = 0.0
    ae_rounds: float = 0.0
    total_queries: float = 0.0

    def as_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True, eq=False, kw_only=True)
class BlockEncoding:
    """An emulated (alpha, q, eps)-block-encoding, stored as eigenvalues.

    Attributes:
        source: Spectrum of the matrix the encoding derives from, shared
            with every encoding derived from it; its eigenbasis is the
            one payload_values refers to.
        payload_values: Eigenvalues of the encoded block (the target
            divided by alpha), indexed like ``source.eigenvalues``.
        alpha: Normalization, at least the target's spectral norm.
        ancillas: Ancilla qubit count q.
        eps: Encoding error the lemmas charge, in the target's norm.
        use_cost: Query units charged per application.
        mode: One of MODES: "exact", "stochastic" or "adversarial", the
            behaviour of the measurement primitives that read this encoding.
    """

    source: SpectralData = field(repr=False)
    payload_values: np.ndarray
    alpha: float
    ancillas: int
    eps: float
    use_cost: float
    mode: str

    def __post_init__(self):
        values = np.array(self.payload_values, dtype=float)
        values.setflags(write=False)
        if values.shape != (len(self.source.eigenvalues),):
            raise ValueError("source and payload_values disagree in size")
        if self.use_cost <= 0:
            raise ValueError("use_cost must be positive")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}: choose one of {', '.join(MODES)}")
        object.__setattr__(self, "payload_values", values)

    @property
    def n(self) -> int:
        return self.payload_values.shape[0]

    def trace(self) -> float:
        """Tr of the payload: the sum of its eigenvalues."""
        return float(np.sum(self.payload_values))

    def target_frobenius_sq(self) -> float:
        """||alpha * payload||_F^2: a sum of squared eigenvalues."""
        b = self.alpha * self.payload_values
        return float(np.sum(b * b))


def qram_block_encoding(A: SymmetricMatrix, mode: str = "exact") -> BlockEncoding:
    """(mu, log n, 0)-block-encoding of A from quantum-access structures.

    Args:
        A: Symmetric matrix with spectral norm at most 1.
        mode: Measurement mode of the encoding and all derived from it.

    Returns:
        Exact encoding with alpha = mu(A) and use_cost = polylog(n), on
        the source ``A.spectral``.

    Raises:
        ValueError: If ||A|| > 1 + _UNIT_TOL.
    """
    if A.stats.spectral_norm > 1 + _UNIT_TOL:
        raise ValueError("qram encoding requires ||A|| <= 1")
    mu = A.stats.mu
    return BlockEncoding(
        source=A.spectral,
        payload_values=A.spectral.eigenvalues / mu,
        alpha=mu,
        ancillas=max(1, math.ceil(math.log2(A.n))),
        eps=0.0,
        use_cost=polylog(A.n),
        mode=mode,
    )


def apply_svt(be: BlockEncoding, p: ChebyshevSeries) -> BlockEncoding:
    """Singular-value transformation by a 1/2-bounded polynomial.

    Produces a (1, q+2, 4 d sqrt(eps/alpha) + rho(P))-encoding of
    P(A/alpha) using d applications of the input encoding plus one
    controlled application, with d = p.degree, the degree the ledger
    charges.  The stored coefficients (degree p.degree_used) are
    evaluated on the payload's eigenvalues; rho(P) =
    p.evaluation_error bounds that evaluation's rounding.

    Args:
        be: Input encoding of a symmetric target.
        p: Polynomial with global bound at most 1/2.

    Returns:
        Transformed encoding.

    Raises:
        ValueError: If the polynomial's certified global bound
            exceeds 1/2.
    """
    if p.global_bound > 0.5 + 1e-12:
        raise ValueError("SVT polynomial must satisfy |P| <= 1/2 on [-1, 1]")
    d = p.degree
    return BlockEncoding(
        source=be.source,
        payload_values=p(np.clip(be.payload_values, -1, 1)),
        alpha=1.0,
        ancillas=be.ancillas + 2,
        eps=4 * d * math.sqrt(max(be.eps, 0.0) / be.alpha) + p.evaluation_error,
        use_cost=(d + 1) * be.use_cost,
        mode=be.mode,
    )


def product_preamplified(be1: BlockEncoding, be2: BlockEncoding) -> BlockEncoding:
    """Preamplified product: a (1, a1+a2+2, eps1+eps2)-encoding of A1*A2/2.

    Requires both encoded targets to be contractions (max |alpha *
    payload eigenvalue| <= 1) and to share one eigenbasis.  The use
    cost is alpha1*(q1+T1) + alpha2*(q2+T2).
    """
    for be in (be1, be2):
        if np.max(np.abs(be.alpha * be.payload_values)) > 1 + _UNIT_TOL:
            raise ValueError("preamplified product requires ||target|| <= 1")
    if be1.source is not be2.source:
        raise ValueError("product requires encodings that share one eigenbasis")
    return BlockEncoding(
        source=be1.source,
        payload_values=(be1.alpha * be1.payload_values) * (be2.alpha * be2.payload_values) / 2.0,
        alpha=1.0,
        ancillas=be1.ancillas + be2.ancillas + 2,
        eps=be1.eps + be2.eps,
        use_cost=be1.alpha * (be1.ancillas + be1.use_cost) + be2.alpha * (be2.ancillas + be2.use_cost),
        mode=be1.mode,
    )


def matrix_power(be: BlockEncoding, c: float, kappa: float, eps: float) -> BlockEncoding:
    """Fractional power combinator: a (1, a + O(log log 1/eps), eps)-encoding of H^c/2.

    Args:
        be: Encoding of a symmetric H with I/kappa <= H <= I.
        c: Exponent in (0, 1].
        kappa: Conditioning parameter, at least 2.
        eps: Output error budget; the input must satisfy
            be.eps <= eps / (10 kappa log^3(kappa/eps)).

    Returns:
        Encoding of H^c / 2.

    Raises:
        ValueError: On precondition violations.
    """
    if not (0 < c <= 1):
        raise ValueError("c must lie in (0, 1]")
    if kappa < 2:
        raise ValueError("kappa must be >= 2")
    budget = eps / (10.0 * kappa * math.log(kappa / eps) ** 3)
    if be.eps > budget + 1e-15:
        raise ValueError(
            f"input encoding error {be.eps:.3e} exceeds matrix power budget {budget:.3e}; "
            "tighten the input encoding"
        )
    w = be.alpha * be.payload_values
    if np.min(w) < 1.0 / kappa - 1e-9 or np.max(w) > 1.0 + 1e-9:
        raise ValueError("matrix power requires I/kappa <= H <= I")
    return BlockEncoding(
        source=be.source,
        payload_values=np.clip(w, 1e-300, None) ** c / 2.0,
        alpha=1.0,
        ancillas=be.ancillas + max(1, math.ceil(math.log2(max(2.0, math.log2(1.0 / eps))))) + 2,
        eps=eps,
        use_cost=be.alpha * kappa * (be.ancillas + be.use_cost) * math.log(kappa / eps) ** 2,
        mode=be.mode,
    )


def sve_values(source: SpectralData, precision: float, mode: str, seed: int) -> np.ndarray:
    """source's singular values, each estimated within precision eps1 as the module docstring says."""
    sv = np.array(source.singular_values, dtype=float)
    if mode == "exact":
        return sv
    if mode == "adversarial":
        return np.round(sv / precision) * precision
    if mode == "stochastic":
        return sv + precision * stream(seed, SVE_STREAM).uniform(-1.0, 1.0, sv.shape[0])
    raise ValueError(f"unknown SVE mode: {mode!r}")


def sve_cost(mu: float, precision: float, n: int) -> float:
    """Query units of one SVE call at precision eps1: mu/eps1 * polylog(n)."""
    return (mu / precision) * polylog(n)

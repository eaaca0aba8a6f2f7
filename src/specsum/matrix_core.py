"""Dense symmetric matrices, spectra, norms, and synthetic SPD generation.

Provides the matrix representation shared by every estimator, the exact
eigenvalue oracle used as ground truth, the encoding normalization
mu(A), condition-number-controlled SPD test matrices, and Matrix Market
I/O.  Only the classical baselines read eigenvectors (``eigenbasis``);
every other pipeline reads the ``eigvalsh`` eigenvalues (``spectral``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.io
import scipy.sparse

from .rng import BASIS_STREAM, SPECTRUM_STREAM, stream

__all__ = [
    "SymmetricMatrix",
    "SpectralData",
    "MatrixStats",
    "load_matrix_market",
    "save_matrix_market",
    "generate_spd",
    "unit_trace",
    "with_spectrum",
    "spectral_decompose",
    "compute_mu",
    "compute_stats",
    "condition_number",
    "exact_spectral_sum",
    "SYMMETRY_TOL",
]

# Absolute tolerance under which asymmetric input is silently symmetrized.
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class SymmetricMatrix:
    """Dense real symmetric matrix with a lazily cached spectrum.

    Attributes:
        n: Dimension.
        entries: (n, n) finite float array, exactly symmetric, read-only.
        spd_flag: Whether positive-definiteness is asserted.
    """

    n: int
    entries: np.ndarray
    spd_flag: bool = False
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("entries must be a square matrix")
        if a.shape[0] != self.n:
            raise ValueError("dimension mismatch between n and entries")
        finite = np.isfinite(a)
        if not finite.all():
            bad = np.argwhere(~finite)
            named = ", ".join(f"[{i}, {j}] = {a[i, j]}" for i, j in bad[:4])
            more = f" and {len(bad) - 4} more" if len(bad) > 4 else ""
            raise ValueError(f"non-finite matrix entries: {named}{more}")
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def spectral(self) -> "SpectralData":
        """Cached eigenvalues of this matrix."""
        if "spectral" not in self._cache:
            self._cache["spectral"] = spectral_decompose(self)
        return self._cache["spectral"]

    @property
    def eigenbasis(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached read-only ``eigh`` (w, Q) of this matrix, entries = Q diag(w) Q^T.

        Only the classical baselines read it.  It never touches ``spectral``,
        so no other pipeline depends on whether a baseline ran first.
        """
        if "eigenbasis" not in self._cache:
            w, q = np.linalg.eigh(self.entries)
            w.setflags(write=False)
            q.setflags(write=False)
            self._cache["eigenbasis"] = (w, q)
        return self._cache["eigenbasis"]

    @property
    def stats(self) -> "MatrixStats":
        """Cached norm/condition/mu statistics."""
        if "stats" not in self._cache:
            self._cache["stats"] = compute_stats(self)
        return self._cache["stats"]


@dataclass(frozen=True)
class SpectralData:
    """Spectrum of a symmetric matrix, without its eigenvectors.

    Attributes:
        eigenvalues: n reals sorted descending, read-only.
        singular_values: |eigenvalues| sorted descending, read-only.
    """

    eigenvalues: np.ndarray
    singular_values: np.ndarray


@dataclass(frozen=True)
class MatrixStats:
    """Norms, condition number, and encoding normalization of a matrix.

    Attributes:
        spectral_norm: Largest singular value.
        frobenius_norm: Frobenius norm.
        kappa: Ratio of largest to smallest nonzero singular value.
        mu: Encoding normalization: the smaller of the Frobenius norm
            and sqrt(s_1(A) * s_1(A^T)), the largest absolute row sums,
            which is the minimum over p of sqrt(s_{2p}(A) * s_{2(1-p)}(A^T))
            (see compute_mu).
    """

    spectral_norm: float
    frobenius_norm: float
    kappa: float
    mu: float


def load_matrix_market(path) -> SymmetricMatrix:
    """Read a Matrix Market file (coordinate or array) as a SymmetricMatrix.

    Asymmetry within ``SYMMETRY_TOL`` is repaired as (A + A^T)/2; larger
    asymmetry is an error.

    Args:
        path: Path to a .mtx file.

    Returns:
        SymmetricMatrix with the file contents.

    Raises:
        ValueError: On empty or non-square input, non-finite entries or
            asymmetry beyond tolerance.
    """
    # The header alone settles the shape; scipy's reader crashes on a 0 x 0 array body.
    rows, cols = scipy.io.mminfo(path)[:2]
    if rows == 0 or rows != cols:
        raise ValueError(f"matrix market file must hold a non-empty square matrix, "
                         f"got shape {rows} x {cols}")
    m = scipy.io.mmread(path)
    if scipy.sparse.issparse(m):
        m = m.toarray()
    m = np.asarray(m, dtype=float)
    gap = np.max(np.abs(m - m.T))
    # A non-finite gap means non-finite entries, which SymmetricMatrix
    # rejects by name.
    if np.isfinite(gap) and gap > SYMMETRY_TOL:
        raise ValueError(
            f"asymmetric beyond tolerance: max |a_ij - a_ji| = {gap:.3e} > {SYMMETRY_TOL:.0e}"
        )
    return SymmetricMatrix(n=m.shape[0], entries=m)


def save_matrix_market(path, A: SymmetricMatrix) -> None:
    """Write a SymmetricMatrix to a Matrix Market array file."""
    scipy.io.mmwrite(path, np.asarray(A.entries), symmetry="symmetric")


def generate_spd(n: int, kappa: float, profile: str, norm_cap: float, seed: int) -> SymmetricMatrix:
    """Generate a random SPD matrix with an exactly pinned condition number.

    The eigenvalues live on [norm_cap/kappa, norm_cap] with both
    endpoints always included, so the condition number equals kappa
    exactly.  The eigenbasis is Haar-random orthogonal.

    Args:
        n: Dimension, at least 2.
        kappa: Target condition number, at least 1.
        profile: One of "log_uniform", "uniform", "clustered" for the
            interior eigenvalues.
        norm_cap: Spectral norm of the result, in (0, 1].
        seed: RNG seed.

    Returns:
        SymmetricMatrix with spd_flag set.

    Raises:
        ValueError: On a non-finite kappa or kappa < 1, n < 2, or an unknown profile.
    """
    if not (math.isfinite(kappa) and kappa >= 1):
        raise ValueError(f"kappa must be >= 1 and finite, got {kappa!r}")
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (0 < norm_cap <= 1):
        raise ValueError("norm_cap must lie in (0, 1]")
    rng = stream(seed, SPECTRUM_STREAM)
    lo, hi = norm_cap / kappa, norm_cap
    k = n - 2
    if profile == "log_uniform":
        interior = np.exp(rng.uniform(math.log(lo), math.log(hi), size=k))
    elif profile == "uniform":
        interior = rng.uniform(lo, hi, size=k)
    elif profile == "clustered":
        pick = rng.random(k) < 0.5
        spread = 0.05 * (hi - lo)
        interior = np.where(
            pick,
            np.minimum(hi, lo + spread * rng.random(k)),
            np.maximum(lo, hi - spread * rng.random(k)),
        )
    else:
        raise ValueError(f"unknown profile: {profile!r}")
    eigs = np.concatenate([[hi, lo], interior])
    q = _haar_orthogonal(n, stream(seed, BASIS_STREAM))
    a = (q * eigs) @ q.T
    m = SymmetricMatrix(n=n, entries=a, spd_flag=True)
    return m


def unit_trace(A: SymmetricMatrix) -> SymmetricMatrix:
    """The density matrix A / Tr A of an SPD matrix, as vn_entropy requires.

    Its spectrum is A's divided by Tr A, so no new decomposition runs.
    """
    m = np.asarray(A.entries)
    tr = np.trace(m)
    return with_spectrum(m / tr, A.spectral.eigenvalues / tr, spd_flag=True)


def with_spectrum(entries: np.ndarray, eigenvalues: np.ndarray,
                  spd_flag: bool = False) -> SymmetricMatrix:
    """A SymmetricMatrix whose eigenvalues are already known.

    For matrices derived from one whose spectrum is cached (a rescaling,
    a deflation), so they skip the O(n^3) decomposition; the statistics,
    mu included, still come from the entries.

    Args:
        entries: (n, n) symmetric entries.
        eigenvalues: The n eigenvalues of ``entries``, sorted descending.
        spd_flag: Whether positive-definiteness is asserted.
    """
    M = SymmetricMatrix(len(eigenvalues), entries, spd_flag=spd_flag)
    M._cache["spectral"] = _spectral_data(eigenvalues)
    return M


def _haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR with sign fixing."""
    z = rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * np.sign(np.diag(r))


def spectral_decompose(A: SymmetricMatrix) -> SpectralData:
    """Eigenvalues of a symmetric matrix (``eigvalsh``), sorted descending.

    Raises:
        np.linalg.LinAlgError: If the eigensolver fails to converge.
    """
    return _spectral_data(np.linalg.eigvalsh(np.asarray(A.entries))[::-1])


def _spectral_data(eigenvalues) -> SpectralData:
    """Read-only SpectralData holding a copy of descending eigenvalues."""
    w = np.array(eigenvalues, dtype=float)
    w.setflags(write=False)
    sv = np.sort(np.abs(w))[::-1]
    sv.setflags(write=False)
    return SpectralData(eigenvalues=w, singular_values=sv)


def compute_mu(A: SymmetricMatrix, frobenius_norm: float | None = None) -> float:
    """Encoding normalization mu(A) = min(||A||_F, sqrt(s_1(A) * s_1(A^T))).

    The normalization of the source minimizes the Frobenius norm and
    sqrt(s_{2p}(A) * s_{2(1-p)}(A^T)) over p in [0, 1].  Each row's
    sum_j |a_ij|^q is log-convex in q, so log s_{2p}(A) + log s_{2-2p}(A^T)
    is convex in p, and for symmetric A it is symmetric about p = 1/2,
    where it is minimal.  There the candidate is s_1(A), the largest
    absolute row sum.

    Args:
        A: Input matrix.
        frobenius_norm: ||A||_F if already computed, else computed here.

    Returns:
        The normalization; never exceeds the Frobenius norm.
    """
    entries = np.asarray(A.entries)
    if frobenius_norm is None:
        frobenius_norm = float(np.linalg.norm(entries))
    absA = np.abs(entries)
    # s_1(A^T) sums the transposed view: equal to s_1(A) for symmetric A up
    # to the summation order, which the last bits of mu follow.
    rows = math.sqrt(float(absA.sum(axis=1).max()) * float(absA.T.sum(axis=1).max()))
    return min(frobenius_norm, rows)


def condition_number(A: SymmetricMatrix) -> float:
    """Ratio of largest to smallest nonzero singular value."""
    sv = A.spectral.singular_values
    nz = sv[sv > sv[0] * 1e-14] if sv[0] > 0 else sv[:0]
    if nz.size == 0:
        raise ValueError("zero matrix has no condition number")
    return float(nz[0] / nz[-1])


def compute_stats(A: SymmetricMatrix) -> MatrixStats:
    """Assemble norms, condition number, and mu."""
    sv = A.spectral.singular_values
    fro = float(np.linalg.norm(np.asarray(A.entries)))
    return MatrixStats(
        spectral_norm=float(sv[0]),
        frobenius_norm=fro,
        kappa=condition_number(A),
        mu=compute_mu(A, fro),
    )


def exact_spectral_sum(A: SymmetricMatrix, f: str, p: float | None = None) -> float:
    """Ground-truth spectral sum Tr f(A) = sum_j f(lambda_j).

    Args:
        A: Input matrix.
        f: One of "log", "inverse", "x_pow_p", "neg_xlogx".
        p: Exponent, required for f="x_pow_p".

    Returns:
        The exact spectral sum from the eigenvalues.

    Raises:
        ValueError: On domain violations (log/inverse of a nonpositive
            eigenvalue, neg_xlogx outside (0, 1]) or a missing p.
    """
    w = A.spectral.eigenvalues
    if f == "log":
        if np.any(w <= 0):
            raise ValueError("log requires strictly positive eigenvalues")
        return float(np.sum(np.log(w)))
    if f == "inverse":
        if np.any(w <= 0):
            raise ValueError("inverse requires strictly positive eigenvalues")
        return float(np.sum(1.0 / w))
    if f == "x_pow_p":
        if p is None:
            raise ValueError("x_pow_p requires the exponent p")
        return float(np.sum(np.abs(w) ** p))
    if f == "neg_xlogx":
        if np.any(w < 0) or np.any(w > 1):
            raise ValueError("neg_xlogx requires eigenvalues in [0, 1]")
        pos = w[w > 0]
        return float(-np.sum(pos * np.log(pos)))
    raise ValueError(f"unknown spectral function: {f!r}")

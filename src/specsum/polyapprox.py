"""Certified bounded polynomial approximations on [-1, 1].

Builds the Chebyshev series consumed by the singular-value
transformation steps (log, inverse, sqrt, monomial, entropy targets)
plus the Taylor and Chebyshev log-determinant truncation rules.

A smooth target is projected once, by Chebyshev-Gauss quadrature, at
the degree of its asymptotic formula.  Outside its interval of interest
the projected function is a surrogate (a Gaussian-smoothed clip, or
for sqrt a saturating continuation), so the coefficients decay fast.
One certifier then chops the projection to the smallest degree that
holds (Aurentz & Trefethen, "Chopping a Chebyshev series", ACM TOMS
2017): it guesses the degree from the tail sums of |c_k|, walks it
downward and steps up only if the guess fails.  Each candidate is
evaluated by one DCT-I on the M + 1 Chebyshev extrema cos(pi j / M),
with M a power of two and M >= 16 (d + 1).  There the sup error is
measured against the true target the series names, not the surrogate,
and the global bound is max |P| times 1/cos(pi/32): a degree-d
polynomial's sup on [-1, 1] exceeds its maximum on those points by at
most 1/cos(pi d / 2M).  The error carries the same factor.  The
smoothing width of each surrogate is the widest whose own error stays
within a tenth of eps, leaving the rest to the chop.

A certification builds the grid, and the true target on it, once per M
and keeps only the latest; the candidates of one chop revisit few M.
Each candidate is first evaluated at the interval's two end points, in
closed form: if that error alone, with the grid margin, exceeds eps,
the candidate fails without its DCT, which is the decision the full
error would give.  The reuse and the screen change no value.  An odd
series (the inverse) is measured on the nodes of x > 0 alone, by one
DCT-II of length M/2 per candidate and no DCT-I, and states the error
and bound of the measurement that accepted it.

A series carries two degrees.  ``degree_used`` is the degree d of the
stored coefficients: evaluating the series takes about 2 sqrt(d) numpy
steps and 4 (d + 1) flops per point.  ``degree`` is the degree a
quantum-model ledger charges, the formula degree unless certification
needed more, so query counts keep the paper's asymptotics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from scipy.fft import dct
from scipy.special import ndtr

__all__ = [
    "ChebyshevSeries",
    "CertificationError",
    "approx_log",
    "approx_inverse",
    "approx_sqrt",
    "approx_monomial",
    "entropy_poly",
    "taylor_logdet_degree",
    "chebyshev_logdet_coeffs",
    "chebyshev_logdet_setup",
]

# Saturation level for extended targets; leaves room below the hard 1/2
# cap for projection error.
_SAT_CAP = 0.495

# Degree escalation factor and hard cap multiplier over the asymptotic
# degree estimate.
_ESCALATION = 1.25
_CAP_FACTOR = 8

# Certification grids hold M + 1 >= 16 (d + 1) + 1 Chebyshev extrema, so
# max |P| over the grid times this factor bounds |P| on [-1, 1].
_OVERSAMPLE = 16
_GRID_MARGIN = 1.0 / math.cos(math.pi / (2 * _OVERSAMPLE))

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Multiply-adds per matrix product in ChebyshevSeries.__call__.  OpenBLAS
# runs a product of at most 2^18 on the calling thread, whatever its thread
# count.  Larger two-thread products rounded some columns differently from
# one-thread ones, and on a 2-vCPU VM some processes waited 16 ms on each
# (0.05 ms of work).
_PRODUCT_MACS = 1 << 18


class CertificationError(RuntimeError):
    """Raised when a series cannot be certified within the degree cap."""


@dataclass(frozen=True)
class ChebyshevSeries:
    """A certified polynomial in the Chebyshev basis on [-1, 1].

    Attributes:
        degree: Degree a quantum-model ledger charges; at least the
            degree of the coefficients.
        coefficients: Coefficients of T_0 .. T_{degree_used}.
        target: Human-readable descriptor of the approximated function.
        certified_sup_error: Sup deviation from the true target on the
            certification interval, measured on the certification grid
            with its 1/cos(pi/32) margin.
        certified_on: Interval [a, b] within [-1, 1] where the sup
            error was certified.
        global_bound: Upper bound on max |P(x)| over [-1, 1].
    """

    degree: int
    coefficients: np.ndarray
    target: str
    certified_sup_error: float
    certified_on: tuple
    global_bound: float

    def __post_init__(self):
        c = np.array(self.coefficients, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "degree", max(int(self.degree), len(c) - 1))

    @property
    def degree_used(self) -> int:
        """Degree of the stored coefficients: what evaluation costs."""
        return len(self.coefficients) - 1

    def __call__(self, x):
        """P(x) by baby-step giant-step evaluation (Paterson & Stockmeyer,
        SIAM J. Comput. 1973) in the Chebyshev basis.

        With d = degree_used, m = floor(sqrt(d + 1)), C[i, j] = c_{mi+j}
        and T_{a+b} = T_a T_b - (1 - x^2) U_{a-1} U_{b-1},
        P = sum_i T_{mi} (C T)_i - (1 - x^2) sum_i U_{mi-1} (C U)_i.  The
        baby steps T_j, U_{j-1} (j <= m) and the giant steps T_{mi},
        U_{mi-1} follow the three-term recurrence, in x and in T_m; the
        sums over j are one matrix product, in column blocks of at most
        _PRODUCT_MACS multiply-adds.  Cost: about 2 sqrt(d) recurrence
        steps of two numpy calls, and 4 (d + 1) flops per point (Clenshaw
        takes d steps of four calls).  On [-1, 1] the values are within
        4 (d + 1) ulp sum |c_k| of numpy's chebval, and equal to it for
        d <= 1.  A value's last bits may depend on its position in x, but
        not on the BLAS thread count.  ``evaluation_error`` bounds the gap
        to the exact series.
        """
        c = self.coefficients
        x = np.asarray(x, dtype=float)
        if len(c) == 1:
            return c[0] + 0 * x
        if len(c) == 2:
            return c[0] + c[1] * x
        m = math.isqrt(len(c))
        r = -(-len(c) // m)
        C = np.zeros(r * m)
        C[: len(c)] = c
        v = x.reshape(-1)
        n = v.size
        # Row j holds T_j(x) in columns [0, n) and U_{j-1}(x) in [n, 2n); zero
        # columns fill the product's last block.
        w = max(1, min(_PRODUCT_MACS // (r * m), 2 * n))
        blocks = -(-2 * n // w)
        baby = np.zeros((m + 1, blocks * w))
        baby[0, :n] = 1.0
        baby[1, :n], baby[1, n : 2 * n] = v, 1.0
        step = np.zeros(blocks * w)  # 2x, then 2 T_m(x): the recurrences' factor
        step[:n] = step[n : 2 * n] = 2 * v
        for j in range(2, m + 1):
            np.multiply(baby[j - 1], step, out=baby[j])
            baby[j] -= baby[j - 2]
        prod = np.empty((r, blocks * w))
        np.matmul(C.reshape(r, m), baby[:m].reshape(m, blocks, w).transpose(1, 0, 2),
                  out=prod.reshape(r, blocks, w).transpose(1, 0, 2))
        # Row i holds T_{mi}(x), then U_{mi-1}(x): a recurrence in T_m(x).
        giant = np.empty_like(prod)
        giant[0] = baby[0]
        giant[1] = baby[m]
        step[:n] = step[n : 2 * n] = 2 * baby[m, :n]
        for i in range(2, r):
            np.multiply(giant[i - 1], step, out=giant[i])
            giant[i] -= giant[i - 2]
        giant *= prod
        s = giant.sum(axis=0)
        return (s[:n] - (1 - v) * (1 + v) * s[n : 2 * n]).reshape(x.shape)[()]

    @property
    def evaluation_error(self) -> float:
        """rho(P) = 8 (d + 1) u sum |c_k|: a bound on |P(x) - __call__(x)| on [-1, 1].

        d = degree_used and u = 2^-53.  The rule takes the 4 (d + 1) ulp
        sum |c_k| that ``__call__`` keeps from chebval, with one ulp of 1
        being 2u, as the gap to the exact series; so c = 8.  Against the
        series summed in 50 digits, the log, inverse, entropy and monomial
        series of degree 1 to 1852 stayed within 0.34 (d + 1) u sum |c_k|.
        """
        return 8.0 * len(self.coefficients) * 2.0**-53 * float(np.sum(np.abs(self.coefficients)))

    def to_json(self) -> str:
        """Serialize degrees, coefficients (zero-padded to degree + 1), and
        certification metadata."""
        padded = np.zeros(self.degree + 1)
        padded[: len(self.coefficients)] = self.coefficients
        return json.dumps(
            {
                "degree": self.degree,
                "degree_used": self.degree_used,
                "coefficients": [float(c) for c in padded],
                "target": self.target,
                "certified_sup_error": self.certified_sup_error,
                "certified_on": list(self.certified_on),
                "global_bound": self.global_bound,
            }
        )


def _project(f, degree: int) -> np.ndarray:
    """Chebyshev coefficients of f by Chebyshev-Gauss quadrature."""
    n = degree + 1
    k = np.arange(n)
    x = np.cos((k + 0.5) * np.pi / n)
    y = f(x)
    c = dct(y, type=2) / n
    c[0] /= 2.0
    return c


class _Grid:
    """The true target on the certification grids of one interval.

    A certification measures about seven candidate chops, and its
    bisection revisits the same grid size M, so the extrema
    cos(pi j / M), the mask of those inside the interval and the target
    there are built once per M.  Only the latest M is kept, which bounds
    the memory by one grid.  The end points' arccos and target values
    do not depend on M and are built once.  An odd grid keeps only the
    nodes j < M/2, with the same bits, and measures there: they hold all
    of (a, b) for the a > 0 that odd series are certified on.
    """

    def __init__(self, target, interval: tuple, odd: bool = False):
        self.target = target
        self.a, self.b = interval
        self.odd = odd
        ends = np.array([self.a, self.b], dtype=float)
        self.end_angles = np.arccos(ends)
        self.end_values = target(ends)
        self.m = 0

    def _nodes(self, m: int) -> tuple:
        if m != self.m:
            x = np.cos(np.arange(m // 2 if self.odd else m + 1) * (np.pi / m))
            self.inside = (x > self.a) & (x < self.b)
            self.values = self.target(x[self.inside])
            self.m = m
        return self.inside, self.values

    def end_error(self, c: np.ndarray) -> float:
        """max |P - target| at the interval's two end points."""
        # T_k(x) = cos(k arccos x): one vectorised pass instead of Clenshaw.
        p_ends = np.cos(np.outer(self.end_angles, np.arange(len(c)))) @ c
        return float(np.max(np.abs(p_ends - self.end_values)))

    def measure(self, c: np.ndarray, end_err: float | None = None, degree: int = 0) -> tuple:
        """Sup error against the target, and a bound on sup |P| on [-1, 1].

        P = sum c_k T_k is evaluated by one DCT-I on the extrema
        cos(pi j / M), j = 0..M, with M the smallest power of two at
        least 16 (d + 1), d = max(degree, deg P).  M is a power of two
        so that the FFT behind the DCT keeps to a few plan sizes.  The
        error is the maximum of |P - target| over the grid points in the
        interval and its end points (end_err, if already computed),
        times 1/cos(pi/32): a bound for the sup when P - target is a
        polynomial of degree at most d, and for a smooth target a margin
        for the chopped terms that dominate P - target between grid
        points.  The global bound is the smaller of the grid maximum of
        |P| times 1/cos(pi/32) and sum |c_k|, both bounds on sup |P|.
        On an odd grid, for odd P, P(x_j) for j < M/2 is one DCT-II of
        length M/2 over (c_1, c_3, ...) / 2, and max |P| there is max |P|
        over the grid; the values differ from the DCT-I's by rounding.
        """
        d = max(degree, len(c) - 1)
        m = 1 << (_OVERSAMPLE * (d + 1) - 1).bit_length()
        if self.odd:
            v = np.zeros(m // 2)
            v[: len(c) // 2] = 0.5 * c[1::2]
            p = dct(v, type=2, overwrite_x=True)
        else:
            v = np.zeros(m + 1)
            v[: len(c)] = c
            v[1 : len(c)] *= 0.5  # the rest of v[1:m] is zero, and m > len(c)
            p = dct(v, type=1, overwrite_x=True)
        inside, values = self._nodes(m)
        dev = p[: len(inside)][inside]
        dev -= values
        np.abs(dev, out=dev)
        if end_err is None:
            end_err = self.end_error(c)
        err = _GRID_MARGIN * max(float(np.max(dev, initial=0.0)), end_err)
        p_max = max(float(np.max(p)), -float(np.min(p)))
        gbound = min(_GRID_MARGIN * p_max, float(np.sum(np.abs(c))))
        return err, gbound


def _measure(c: np.ndarray, target, interval: tuple, degree: int = 0) -> tuple:
    """One measurement of c against target on interval; see _Grid.measure."""
    return _Grid(target, interval).measure(c, degree=degree)


def _certify(
    f,
    target,
    interval: tuple,
    eps: float,
    degree0: int,
    label: str,
    odd: bool = False,
) -> ChebyshevSeries:
    """Chop the projection of f to the lowest degree that meets eps against target.

    f is projected once at degree0 (escalated by 1.25 up to 8 degree0 if
    no chop of it certifies), with its even terms zeroed if odd.
    Dropping the terms above d moves P by at most the tail sum of |c_k|,
    so the first guess is the lowest d whose tail fits 0.9 eps (a tenth
    is the smoothing's share).  The guess steps up by 1.25 until it
    certifies; then one loop walks down by 1.25 until a degree fails and
    bisects to the lowest certified degree (within 1%).  A candidate
    certifies when its sup error against target is at most eps and its
    global bound at most 1/2, and the series states that error and
    bound.  One whose end-point error alone, times the grid margin,
    exceeds eps fails before its DCT: the full error is at least that.
    The charged degree is the larger of degree0 and the certified one.
    If odd, every measurement is on the half grid.
    """
    a, b = interval
    grid = _Grid(target, interval, odd)
    degree0 = max(4, int(degree0))
    cap = _CAP_FACTOR * degree0
    d_top = degree0
    while True:
        c = _project(f, d_top)
        if odd:
            c[0::2] = 0.0

        def attempt(d):
            """(d, err, gbound) if the chop to degree d certifies, else None."""
            chop = c[: d + 1]
            end_err = grid.end_error(chop)
            if _GRID_MARGIN * end_err > eps:
                return None
            err, gbound = grid.measure(chop, end_err)
            return (d, err, gbound) if err <= eps and gbound <= 0.5 else None

        tail = np.append(np.cumsum(np.abs(c[:0:-1]))[::-1], 0.0)  # tail[d] = sum_{k>d} |c_k|
        lo, hi = 0, max(1, int(np.argmax(tail <= 0.9 * eps)))
        best = attempt(hi)
        while best is None and hi < d_top:
            lo, hi = hi, min(d_top, math.ceil(hi * _ESCALATION))
            best = attempt(hi)
        if best is not None:
            # Walk down while no degree has failed (lo == 0), then bisect.
            while hi - lo > max(1, hi // 100):
                d = (lo + hi) // 2 if lo else max(1, int(hi / _ESCALATION))
                cand = attempt(d)
                if cand is None:
                    lo = d
                else:
                    hi, best = d, cand
            d, err, gbound = best
            return ChebyshevSeries(
                degree=max(degree0, d),
                coefficients=c[: d + 1],
                target=label,
                certified_sup_error=err,
                certified_on=(float(a), float(b)),
                global_bound=gbound,
            )
        if d_top >= cap:
            err, gbound = grid.measure(c)
            raise CertificationError(
                f"could not certify {label} within degree cap {cap}: "
                f"sup_err={err:.3e} (want <= {eps:.3e}), "
                f"global={gbound:.3f} (want <= 0.5)"
            )
        d_top = min(cap, math.ceil(d_top * _ESCALATION))


def _smoothed_clip(v, floor: float, s: float):
    """E[max(floor, v + sZ)] for standard normal Z: a smooth clip of v at floor."""
    u = (v - floor) / s
    return floor + (v - floor) * ndtr(u) + s * (np.exp(-(u**2) / 2.0) / _SQRT_2PI)


def _widest_width(model_err, s_max: float, tol: float) -> float:
    """Largest smoothing width whose model error stays below tol.

    model_err must be increasing in s; solved by bisection in log-s.
    """
    if model_err(s_max) <= tol:
        return s_max
    lo, hi = s_max * 1e-4, s_max
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        if model_err(mid) <= tol:
            lo = mid
        else:
            hi = mid
    return lo


@lru_cache(maxsize=256)
def approx_log(beta: float, eps: float) -> ChebyshevSeries:
    """Bounded polynomial approximation of log(x) / (2 log(2/beta)).

    The series matches the scaled logarithm within eps on [beta, 1] and
    stays below 1/2 in magnitude on all of [-1, 1].  The projected
    surrogate is log(m(x)) of a smoothly clipped argument
    m(x) = E[max(x_c, x + sZ)] (Gaussian smoothing of a clip at
    x_c = 0.6 beta, where the scaled log is still above -1/2).  m is an
    entire function, so the projection converges geometrically.  The
    smoothing width s is the widest whose model error fits a tenth of
    eps; that error m(x) - x is largest at x = beta, where it is taken.

    Args:
        beta: Lower end of the certified interval, in (0, 1].
        eps: Requested sup error on [beta, 1], in (0, 1/2].

    Returns:
        Certified ChebyshevSeries.

    Raises:
        CertificationError: If no chop certifies within the degree cap.
    """
    if not (0 < beta <= 1):
        raise ValueError("beta must lie in (0, 1]")
    if not (0 < eps <= 0.5):
        raise ValueError("eps must lie in (0, 1/2]")
    big_l = math.log(2.0 / beta)
    x_c = 0.6 * beta
    degree0 = max(8, math.ceil((6.0 / beta) * math.log(1.0 / (beta * eps))))

    def target(x):
        return np.log(x) / (2 * big_l)

    def make(s):
        return lambda x: target(_smoothed_clip(np.asarray(x, dtype=float), x_c, s))

    edge = np.array([beta])
    s = _widest_width(lambda s: float(abs(make(s)(edge) - target(edge))[0]),
                      0.30 * beta, 0.1 * eps)
    return _certify(make(s), target, (beta, 1.0), eps, degree0,
                    f"log(x)/(2 log(2/{beta:g}))")


@lru_cache(maxsize=256)
def approx_inverse(delta: float, eps: float) -> ChebyshevSeries:
    """Bounded odd polynomial approximation of 3*delta/(8x).

    Matches the scaled inverse within eps on [delta, 1] (and by oddness
    on [-1, -delta]) and stays below 1/2 in magnitude globally.  The
    projected surrogate is (3 delta/8) x / q(x) where
    q(x) = E[max(c^2, x^2 + sZ)] is a Gaussian-smoothed clip of x^2 at
    c = 0.8 delta.  q is entire and bounded below by c^2, so the odd
    surrogate is analytic in a strip around [-1, 1] and the projection
    converges geometrically.  The smoothing width is the widest whose
    model error, largest at x = delta, fits a tenth of eps.

    Args:
        delta: Cutoff in (0, 1/2].
        eps: Requested sup error outside (-delta, delta).

    Returns:
        Certified ChebyshevSeries (odd).
    """
    if not (0 < delta <= 0.5):
        raise ValueError("delta must lie in (0, 1/2]")
    if not (0 < eps <= 0.5):
        raise ValueError("eps must lie in (0, 1/2]")
    c_sq = (0.8 * delta) ** 2
    degree0 = max(8, math.ceil((7.0 / delta) * math.log(1.0 / (delta * eps))))
    gap = delta**2 - c_sq

    def target(x):
        return 3 * delta / (8 * x)

    def make(s):
        def f(x):
            x = np.asarray(x, dtype=float)
            return 3 * delta * x / (8 * _smoothed_clip(x * x, c_sq, s))

        return f

    edge = np.array([delta])
    s = _widest_width(lambda s: float(abs(make(s)(edge) - target(edge))[0]),
                      0.40 * gap, 0.1 * eps)
    return _certify(make(s), target, (delta, 1.0), eps, degree0,
                    f"3*{delta:g}/(8x)", odd=True)


@lru_cache(maxsize=256)
def approx_sqrt(beta: float, eta: float) -> ChebyshevSeries:
    """Bounded polynomial approximation of sqrt(x)/3 on [beta, 1].

    Below beta the target continues with matching value and slope and
    saturates so the global 1/2 bound can hold.

    Args:
        beta: Lower end of the certified interval, in (0, 1].
        eta: Requested sup error on [beta, 1].

    Returns:
        Certified ChebyshevSeries.
    """
    if not (0 < beta <= 1):
        raise ValueError("beta must lie in (0, 1]")
    if not (0 < eta <= 0.5):
        raise ValueError("eta must lie in (0, 1/2]")
    g_b = math.sqrt(beta) / 3.0
    slope = 1.0 / (6.0 * math.sqrt(beta))
    rate = slope / (_SAT_CAP + g_b)

    def f(x):
        x = np.asarray(x, dtype=float)
        hi = np.sqrt(np.maximum(x, beta)) / 3.0
        lo = g_b + (slope / rate) * np.tanh(rate * (x - beta))
        return np.where(x >= beta, hi, lo)

    degree0 = max(8, math.ceil((1.0 / beta) * math.log(1.0 / eta)))
    return _certify(f, lambda x: np.sqrt(x) / 3.0, (beta, 1.0), eta, degree0,
                    f"sqrt(x)/3 on [{beta:g}, 1]")


@lru_cache(maxsize=256)
def approx_monomial(s: int, d: int) -> ChebyshevSeries:
    """Degree-d truncation of the exact Chebyshev expansion of x^s.

    The truncation error obeys sup |E_{s,d}(x) - x^s| <= 2 exp(-d^2/2s)
    on [-1, 1]; for d >= s the expansion is exact.

    Args:
        s: Monomial exponent, positive.
        d: Truncation degree, positive.

    Returns:
        ChebyshevSeries whose certified_sup_error is the measured grid
        deviation from x^s.
    """
    if s < 1 or d < 1:
        raise ValueError("s and d must be positive")
    d_eff = min(d, s)
    coeffs = np.zeros(d_eff + 1)
    # x^s = 2^(1-s) * sum_{j = s mod 2, j <= s} C(s, (s-j)/2) T_j, with
    # the j = 0 term halved.
    for j in range(s % 2, d_eff + 1, 2):
        c = math.comb(s, (s - j) // 2) / 2 ** (s - 1)
        if j == 0:
            c /= 2.0
        coeffs[j] = c
    # The error x^s - P has degree s: the grid is sized for it.
    err, gbound = _measure(coeffs, lambda x: x**s, (-1.0, 1.0), degree=s)
    return ChebyshevSeries(
        degree=d_eff,
        coefficients=coeffs,
        target=f"x^{s}",
        certified_sup_error=err,
        certified_on=(-1.0, 1.0),
        global_bound=gbound,
    )


@lru_cache(maxsize=256)
def entropy_poly(beta: float, eps1: float) -> ChebyshevSeries:
    """Series for -x*log(x)/(2 log(2/beta)), built as -x times the log series.

    The multiplication by x preserves the global 1/2 bound and keeps
    the [beta, 1] error below the log series' certified error.

    Args:
        beta: Lower end of the certified interval.
        eps1: Requested sup error on [beta, 1].

    Returns:
        Certified ChebyshevSeries; both its degrees are the log
        series' plus one.
    """
    s_series = approx_log(beta, eps1)
    coeffs = -_cheb.chebmul([0.0, 1.0], s_series.coefficients)
    big_l = math.log(2.0 / beta)
    err, gbound = _measure(coeffs, lambda x: -x * np.log(x) / (2 * big_l), (beta, 1.0))
    if err > eps1 or gbound > 0.5:
        raise CertificationError(
            f"entropy series certification failed: err={err:.3e}, global={gbound:.3f}"
        )
    return ChebyshevSeries(
        degree=s_series.degree + 1,
        coefficients=coeffs,
        target=f"-x*log(x)/(2 log(2/{beta:g}))",
        certified_sup_error=err,
        certified_on=(float(beta), 1.0),
        global_bound=gbound,
    )


def taylor_logdet_degree(kappa: float, eps: float) -> int:
    """Taylor truncation order m = ceil(kappa * log(kappa/eps)).

    With this m the truncated series -sum_{k<=m} Tr[(I-A)^k]/k matches
    the log-determinant to relative error eps for SPD contractions with
    condition number kappa.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    return math.ceil(kappa * math.log(kappa / eps))


def chebyshev_logdet_coeffs(delta: float, d: int) -> np.ndarray:
    """Degree-d Chebyshev coefficients of log on [delta, 1 - delta].

    The coefficients expand the pullback log(((1 - 2 delta) y + 1) / 2)
    on y in [-1, 1]; evaluate them at y = (2 lambda - 1)/(1 - 2 delta).
    The pullback is analytic on the Bernstein ellipse through the
    singularity y = -1/(1 - 2 delta), so the truncation error decays
    geometrically in d.
    """
    if not (0 < delta < 0.5):
        raise ValueError("delta must lie in (0, 1/2)")
    if d < 1:
        raise ValueError("d must be >= 1")
    half = 0.5 * (1.0 - 2.0 * delta)
    return _project(lambda y: np.log(half * y + 0.5), d)


@lru_cache(maxsize=256)
def chebyshev_logdet_setup(delta: float, eps: float):
    """Chebyshev log-determinant coefficients and truncation degree.

    The degree is the smallest d whose per-dimension truncation bound
    20 log(2/delta) / (K^d (K-1)) drops below eps, where
    K = (sqrt(2-delta)+sqrt(delta)) / (sqrt(2-delta)-sqrt(delta)); the
    coefficients come from chebyshev_logdet_coeffs, whose convergence
    factor exceeds K, so the stated bound holds at every degree.

    Args:
        delta: Spectrum margin in (0, 1/2); eigenvalues are assumed in
            [delta, 1 - delta].
        eps: Per-dimension truncation error target.

    Returns:
        Tuple (read-only coefficients c_0..c_d, d, achieved bound).
    """
    if not (0 < delta < 0.5):
        raise ValueError("delta must lie in (0, 1/2)")
    k_fac = (math.sqrt(2 - delta) + math.sqrt(delta)) / (math.sqrt(2 - delta) - math.sqrt(delta))
    d = 1
    while True:
        bound = 20 * math.log(2 / delta) / (k_fac**d * (k_fac - 1))
        if bound <= eps:
            break
        d += 1
        if d > 10**6:
            raise CertificationError("chebyshev truncation degree exceeds cap")
    coeffs = chebyshev_logdet_coeffs(delta, d)
    coeffs.setflags(write=False)
    return coeffs, d, bound

"""The three workloads: inputs made from the seed, and their request rounds.

Each workload is a closed loop with one client.  ``setup`` makes every
input from the seed and finishes any warm-up; ``rounds`` yields lists of
requests.  Every round of a workload has the same mix of estimators, sizes
and modes, and a run measures whole rounds, so the mix a run measures does
not depend on where the clock stopped.  Rounds are sized so that a run
makes the same number of them whether the machine is in a fast or a slow
phase: about six on cold-cells, and one on the other two.  Why each workload exists, and the
layer it stresses, is in RATIONALE.md beside this file.

A request calls specsum's public functions through their module attribute
at call time, so a traced run sees the same call path as an untraced one.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

MODES = ("exact", "stochastic", "adversarial")
NORM = 0.5
PROFILE = "log_uniform"
# The 2^(1/4) caching grid from 0.1 down to 0.0105, never below 0.01.
EPS_WALK = tuple(0.1 * 2.0 ** (-k / 4) for k in range(14))


def derive(seed: int, *index: int) -> int:
    """A 31-bit seed for one input or request, fixed by the workload seed."""
    return int(np.random.SeedSequence([seed, *index]).generate_state(1)[0] & 0x7FFFFFFF)


@dataclass
class Request:
    """One call of the closed loop and what its report must match.

    Attributes:
        label: Estimator, size and mode, for error messages.
        n: Matrix dimension.
        mode: "exact", "stochastic" or "adversarial"; the classical
            baselines are stochastic (Hutchinson probes).
        call: Runs the estimator and returns its report.
        reference: Exact value computed by the benchmark itself from
            ``numpy.linalg.eigvalsh`` of the input, for the report's
            ``exact`` field.
    """

    label: str
    n: int
    mode: str
    call: Callable
    reference: float


def reference_value(w: np.ndarray, kind: str, p: int = 1) -> float:
    """Spectral sum of eigenvalues ``w``, computed without specsum."""
    if kind == "log":
        return float(np.sum(np.log(w)))
    if kind == "inverse":
        return float(np.sum(1.0 / w))
    if kind == "entropy":
        return float(-np.sum(w * np.log(w)))
    if kind == "schatten":
        return float(np.sum(np.abs(w) ** p) ** (1.0 / p))
    raise ValueError(kind)


class Inputs:
    """Generated matrices with their benchmark-side eigenvalues."""

    def __init__(self, ss, seed):
        self.ss = ss
        self.seed = seed

    def spd(self, n: int, kappa: float, *tag: int):
        mc = self.ss.matrix_core
        A = mc.generate_spd(n, kappa, PROFILE, NORM, derive(self.seed, n, int(kappa), *tag))
        return A, np.linalg.eigvalsh(np.asarray(A.entries))

    def unit_trace(self, A, w):
        """The density matrix A / Tr A, as vn_entropy requires."""
        e = np.asarray(A.entries)
        tr = float(np.trace(e))
        return self.ss.matrix_core.SymmetricMatrix(A.n, e / tr, spd_flag=True), w / tr


KIND = {"trace_inverse": "inverse", "vn_entropy": "entropy", "schatten_p": "schatten"}


def _quantum(ss, matrix, n, w, algorithm, eps, mode, seed, p=1) -> Request:
    """A quantum-model request; ``matrix()`` gives its input at call time."""

    def call():
        cfg = ss.spectral_sums.AlgoConfig(eps=eps, mode=mode, seed=seed,
                                          algorithm=algorithm, p=p)
        return ss.spectral_sums.run_algorithm(matrix(), cfg)

    return Request(f"{algorithm} n={n} eps={eps:.4g} {mode}", n, mode, call,
                   reference_value(w, KIND.get(algorithm, "log"), p))


class ColdCells:
    """Quantum-model requests whose polynomial cells are never certified yet.

    Per round (one level of the eps walk), at n = 64 and 256: logdet_svt
    and trace_inverse on a kappa-10 matrix and vn_entropy on the unit-trace
    rescaling of a kappa-20 matrix.  Each round also runs schatten_p
    (p = 3) and two of the four appendix log-det variants at one n; a cycle
    of four rounds covers every variant at both sizes.  Modes rotate over
    the request sequence.  logdet_svt and vn_entropy both certify through
    approx_log, so they run on matrices of different kappa: their cutoffs
    beta then fall at least one grid cell apart and no (beta, eps) cell
    repeats.  After the 14 levels a second sweep uses kappa 40 and 80; past
    that the sequence ends and so does the run.
    """

    name = "cold-cells"
    SWEEPS = ((10.0, 20.0), (40.0, 80.0))
    NS = (64, 256)
    CHEAP = (("logdet_sve", "logdet_taylor"), ("logdet_chebyshev", "logdet_qmc"))

    def __init__(self, ss, seed, small=False):
        self.ss = ss
        self.seed = seed
        self.inputs = Inputs(ss, seed)

    def setup(self, workdir):
        self.mats = {}
        for s, (k_lo, k_hi) in enumerate(self.SWEEPS):
            for n in self.NS:
                lo = self.inputs.spd(n, k_lo, s)
                hi = self.inputs.spd(n, k_hi, s)
                rho = self.inputs.unit_trace(*hi)
                for M, _ in (lo, hi, rho):
                    M.stats  # matrix caches warm: this workload is about polynomials
                self.mats[s, n] = (lo, hi, rho)

    def rounds(self):
        ss = self.ss
        j = itertools.count()
        for s in range(len(self.SWEEPS)):
            for k, eps in enumerate(EPS_WALK):
                plan = []
                for n in self.NS:
                    lo, hi, rho = self.mats[s, n]
                    plan += [(lo, "logdet_svt", 1), (lo, "trace_inverse", 1),
                             (rho, "vn_entropy", 1)]
                lo, hi, rho = self.mats[s, self.NS[k % 2]]
                plan.append((hi, "schatten_p", 3))
                plan += [(lo, name, 1) for name in self.CHEAP[k // 2 % 2]]
                out = []
                for (A, w), algorithm, p in plan:
                    i = next(j)
                    out.append(_quantum(ss, lambda A=A: A, A.n, w, algorithm, eps,
                                        MODES[i % 3], derive(self.seed, 7, i), p))
                yield out


class Dense1024:
    """n = 1024 passes: load the Matrix Market file, then eight requests.

    The matrix is written in setup and certified there on separate objects
    (the generated matrix and its unit-trace rescaling), so the timed phase
    has a warm polynomial cache and cold matrix caches.  Each round is one
    pass that loads the file afresh at its first request, as
    ``specsum estimate`` does, and runs logdet_svt, trace_inverse,
    schatten_p (p = 5) and vn_entropy in exact and stochastic mode.
    """

    name = "dense-1024"
    KAPPA = 10.0
    EPS = 0.05
    PLAN = (("logdet_svt", 1), ("trace_inverse", 1), ("schatten_p", 5), ("vn_entropy", 1))

    def __init__(self, ss, seed, small=False):
        self.ss = ss
        self.seed = seed
        self.n = 128 if small else 1024
        self.inputs = Inputs(ss, seed)

    def setup(self, workdir):
        ss = self.ss
        A, w = self.inputs.spd(self.n, self.KAPPA)
        self.path = os.path.join(workdir, "dense.mtx")
        ss.matrix_core.save_matrix_market(self.path, A)
        self.w = w
        self.w_rho = w / float(np.trace(np.asarray(A.entries)))
        rho, _ = self.inputs.unit_trace(A, w)
        for algorithm, p in self.PLAN:
            cfg = ss.spectral_sums.AlgoConfig(eps=self.EPS, mode="exact", algorithm=algorithm, p=p)
            ss.spectral_sums.run_algorithm(rho if algorithm == "vn_entropy" else A, cfg)

    def _load(self):
        mc = self.ss.matrix_core
        A = mc.load_matrix_market(self.path)
        spd = bool(A.spectral.eigenvalues[-1] > 0)
        return mc.SymmetricMatrix(A.n, np.asarray(A.entries), spd_flag=spd)

    def rounds(self):
        j = itertools.count()
        while True:
            held = {}

            def matrix(rho, held=held):
                if "A" not in held:
                    held["A"] = self._load()
                if rho and "rho" not in held:
                    e = np.asarray(held["A"].entries)
                    held["rho"] = self.ss.matrix_core.SymmetricMatrix(
                        held["A"].n, e / float(np.trace(e)), spd_flag=True)
                return held["rho" if rho else "A"]

            out = []
            for algorithm, p in self.PLAN:
                rho = algorithm == "vn_entropy"
                for mode in MODES[:2]:
                    out.append(_quantum(self.ss, functools.partial(matrix, rho), self.n,
                                        self.w_rho if rho else self.w, algorithm, self.EPS,
                                        mode, derive(self.seed, 7, next(j)), p))
            yield out


class ClassicalProbes:
    """Hutchinson baselines with warm polynomials and warm matrix caches.

    Each round makes 94 requests on a kappa-2 matrix at n = 64 and 256,
    with 64 or 256 Rademacher probes, interleaved in time:
    classical_entropy at n = 64 with 64 probes, plus blocks of one
    (estimator, n, probes) each.  The block sizes, listed slowest first,
    put the 11th-slowest request (the tail) and the median inside a block
    of like requests rather than on the edge between two unlike ones, so
    neither jumps when the machine's speed shifts during a run.  Both
    blocks are n = 256 requests, whose BLAS-bound matvecs vary less from
    run to run than the interpreter-bound n = 64 ones.  Setup warms every
    polynomial with one-probe runs on the same matrices.
    """

    name = "classical-probes"
    KAPPA = 2.0
    EPS = 0.1
    P = 3
    # (estimator, n, probes, count), slowest first.  The tail falls in the
    # 20-request trace_inverse block (ranks 2-21 from the top) and the
    # median in the 16-request Taylor block at 64 probes (ranks 40-55 of 94).
    BLOCKS = (
        ("classical_entropy", 64, 64, 1),
        ("classical_trace_inverse", 256, 64, 20),
        ("classical_logdet_taylor", 256, 256, 4),
        ("classical_trace_inverse", 64, 64, 4),
        ("classical_logdet_chebyshev", 256, 256, 4),
        ("classical_logdet_taylor", 64, 256, 2),
        ("classical_logdet_chebyshev", 64, 256, 2),
        ("classical_schatten_p", 256, 256, 2),
        ("classical_logdet_taylor", 256, 64, 16),
        ("classical_schatten_p", 64, 256, 8),
        ("classical_logdet_chebyshev", 256, 64, 8),
        ("classical_schatten_p", 256, 64, 8),
        ("classical_logdet_taylor", 64, 64, 8),
        ("classical_logdet_chebyshev", 64, 64, 7),
    )
    KIND = {"classical_logdet_taylor": "log", "classical_logdet_chebyshev": "log",
            "classical_trace_inverse": "inverse", "classical_schatten_p": "schatten"}

    def __init__(self, ss, seed, small=False):
        self.ss = ss
        self.seed = seed
        self.ns = (64,) if small else (64, 256)
        self.scale = 8 if small else 1  # probes divided by this at the smallest size
        self.inputs = Inputs(ss, seed)

    def _call(self, name, A, probes, seed):
        bl = self.ss.baselines
        cfg = bl.ProbeConfig(num_probes=probes, probe_kind="rademacher", seed=seed)
        if name == "classical_schatten_p":
            return lambda: bl.classical_schatten_p(A, self.P, self.EPS, cfg)
        return lambda: getattr(bl, name)(A, self.EPS, cfg)

    def setup(self, workdir):
        self.mats = {n: self.inputs.spd(n, self.KAPPA) for n in self.ns}
        self.rho = self.inputs.unit_trace(*self.mats[64])
        for n, (A, _) in self.mats.items():
            for name in self.KIND:
                self._call(name, A, 1, 0)()
        self._call("classical_entropy", self.rho[0], 1, 0)()

    def rounds(self):
        blocks = [[(name, n, probes)] * count for name, n, probes, count in self.BLOCKS
                  if n in self.mats]
        order = [item for row in itertools.zip_longest(*blocks) for item in row if item]
        j = itertools.count()
        while True:
            out = []
            for name, n, probes in order:
                probes = max(1, probes // self.scale)
                A, w = self.rho if name == "classical_entropy" else self.mats[n]
                kind = self.KIND.get(name, "entropy")
                call = self._call(name, A, probes, derive(self.seed, 11, next(j)))
                out.append(Request(f"{name} n={n} probes={probes}", n, "stochastic", call,
                                   reference_value(w, kind, self.P)))
            yield out


WORKLOADS = {w.name: w for w in (ColdCells, Dense1024, ClassicalProbes)}

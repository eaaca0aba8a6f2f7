"""Spans recorded from outside specsum, around calls into its public functions.

A traced run rebinds every public function named in BOUNDARIES, in each
specsum module whose namespace holds it, to a wrapper that records one
span per call: layer, metric key, function name, start, end, parent span,
phase ("setup" or "timed") and request index.  Rebinding the caller's
namespace is what makes lazy and internal calls visible, for example
``SymmetricMatrix.stats`` resolving ``matrix_core.compute_stats`` or
``entropy_poly`` calling ``approx_log``.  No file of the program changes.

A name that is missing from its module is recorded as absent and skipped,
so a later change that reshapes a layer can still be measured by this
unchanged code.  Spans stay in memory and are written when the run ends.
"""

from __future__ import annotations

import json
import os
import time

# layer -> {public function name: metric key}.  Trivial helpers that the
# estimators call many times per request (median_reps, ae_rounds_for,
# polylog) are left unwrapped; their time counts as their caller's.
BOUNDARIES = {
    "matrix_core": {
        "spectral_decompose": "spectral",
        "compute_stats": "stats",
        "compute_mu": "stats",
        "condition_number": "stats",
        "load_matrix_market": "io",
        "save_matrix_market": "io",
        "generate_spd": "generate",
        "exact_spectral_sum": "oracle",
    },
    "polyapprox": {
        "approx_log": "build",
        "approx_inverse": "build",
        "approx_sqrt": "build",
        "approx_monomial": "build",
        "entropy_poly": "build",
        "taylor_logdet_degree": "build",
        "chebyshev_logdet_coeffs": "build",
        "chebyshev_logdet_setup": "build",
    },
    "qmodel": {
        "qram_block_encoding": "encode",
        "unit_block_encoding": "encode",
        "density_block_encoding": "encode",
        "apply_svt": "svt",
        "product_plain": "product",
        "product_preamplified": "product",
        "matrix_power": "power",
        "sve_estimate": "sve",
        "sve_all": "sve",
    },
    "measurement": {
        "amplitude_estimate": "primitive",
        "trace_estimate_abs": "primitive",
        "trace_estimate_rel": "primitive",
        "trace_product_estimate": "primitive",
        "inner_product_estimate": "primitive",
        "hadamard_test_estimate": "primitive",
        "qmc_mean_estimate": "primitive",
    },
    "rng": {"stream": "stream"},
    "spectral_sums": {
        "run_algorithm": "run",
        "logdet_svt": "run",
        "logdet_edge_cases": "run",
        "schatten_p": "run",
        "vn_entropy": "run",
        "trace_inverse": "run",
        "logdet_sve": "run",
        "logdet_taylor": "run",
        "logdet_chebyshev": "run",
        "logdet_qmc": "run",
    },
    "baselines": {
        "hutchinson_trace": "run",
        "classical_logdet_taylor": "run",
        "classical_logdet_chebyshev": "run",
        "classical_entropy": "run",
        "classical_trace_inverse": "run",
        "classical_schatten_p": "run",
    },
    "reporting": {"report_json": "serialize"},
}

LAYERS = tuple(BOUNDARIES)


class Span:
    __slots__ = ("id", "parent", "layer", "key", "name", "phase", "request",
                 "start", "end", "child_s", "degree", "nbytes")

    def __init__(self, sid, parent, layer, key, name, phase, request):
        self.id = sid
        self.parent = parent
        self.layer = layer
        self.key = key
        self.name = name
        self.phase = phase
        self.request = request
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.degree = 0
        self.nbytes = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def is_entry(self) -> bool:
        """Whether this call crossed into its layer from outside it."""
        return self.parent is None or self.parent.layer != self.layer


def _degree(result) -> int:
    """Polynomial degree of a polyapprox result, 0 if it has none."""
    if hasattr(result, "degree"):
        return int(result.degree)
    if isinstance(result, tuple) and len(result) == 3:  # (coefficients, d, bound)
        return int(result[1])
    if isinstance(result, int):
        return result
    return 0


def _path_bytes(args, kwargs) -> int:
    path = kwargs.get("path", args[0] if args else None)
    try:
        return os.path.getsize(path)
    except (TypeError, OSError):
        return 0


class Tracer:
    """In-memory span recorder; ``phase`` and ``request`` tag new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.phase = "setup"
        self.request = -1
        self._stack: list[Span] = []

    def install(self, modules: dict) -> None:
        """Rebind every BOUNDARIES name in each of ``modules`` (name -> module)."""
        for layer, names in BOUNDARIES.items():
            home = modules.get(layer)
            for name, key in names.items():
                original = getattr(home, name, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(original, layer, key, name)
                for module in modules.values():
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapper)

    def _wrap(self, fn, layer, key, name):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, layer, key, name,
                        self.phase, self.request)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
            if key == "build":
                span.degree = _degree(result)
            elif key == "io":
                span.nbytes = _path_bytes(args, kwargs)
            elif key == "serialize":
                span.nbytes = len(result.encode())
            return result

        return traced

    def write(self, path) -> None:
        """Write every span as one JSON line: ids, names, times and tags."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": None if s.parent is None else s.parent.id,
                    "layer": s.layer, "name": s.name, "phase": s.phase,
                    "request": s.request, "start": s.start, "end": s.end,
                    "self_s": s.self_s,
                }) + "\n")

    def layer_metrics(self, request_s: float, first_round: int) -> dict:
        """Per-layer totals over the timed phase.

        Setup-phase spans count only for generate and io, and the degree sum
        covers the first ``first_round`` requests, which every run makes, so
        that it repeats exactly for a given seed.
        """
        self_s: dict = {}
        n_spans: dict = {}
        n_entries: dict = {}
        entry_s = dict.fromkeys(LAYERS, 0.0)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        degree_sum = io_bytes = serialize_bytes = 0
        for s in self.spans:
            timed = s.phase == "timed"
            if not timed and s.key not in ("generate", "io"):
                continue
            k = (s.layer, s.key)
            self_s[k] = self_s.get(k, 0.0) + s.self_s
            n_spans[k] = n_spans.get(k, 0) + timed
            if timed:
                layer_self[s.layer] += s.self_s
            if s.is_entry():
                n_entries[k] = n_entries.get(k, 0) + timed
                if timed:
                    entry_s[s.layer] += s.duration
                if 0 <= s.request < first_round:
                    degree_sum += s.degree
            if s.key == "io":
                io_bytes += s.nbytes
            elif s.key == "serialize":
                serialize_bytes += s.nbytes

        def t(layer, key):
            return self_s.get((layer, key), 0.0)

        def n_entry(layer, key):
            return n_entries.get((layer, key), 0)

        def n_all(layer, key):
            return n_spans.get((layer, key), 0)

        m = {
            "matrix_core.spectral_s": t("matrix_core", "spectral"),
            "matrix_core.spectral_calls": n_all("matrix_core", "spectral"),
            "matrix_core.stats_s": t("matrix_core", "stats"),
            "matrix_core.stats_calls": n_entry("matrix_core", "stats"),
            "matrix_core.io_s": t("matrix_core", "io"),
            "matrix_core.io_bytes": io_bytes,
            "matrix_core.generate_s": t("matrix_core", "generate"),
            "polyapprox.build_s": t("polyapprox", "build"),
            "polyapprox.calls": n_entry("polyapprox", "build"),
            "polyapprox.degree_sum": degree_sum,
            "qmodel.encode_s": t("qmodel", "encode"),
            "qmodel.svt_s": t("qmodel", "svt"),
            "qmodel.svt_calls": n_all("qmodel", "svt"),
            "qmodel.product_s": t("qmodel", "product"),
            "qmodel.power_s": t("qmodel", "power"),
            "qmodel.sve_s": t("qmodel", "sve"),
            "measurement.primitive_s": t("measurement", "primitive"),
            "measurement.calls": n_entry("measurement", "primitive"),
            "rng.stream_calls": n_all("rng", "stream"),
            "rng.stream_s": t("rng", "stream"),
            "spectral_sums.run_s": entry_s["spectral_sums"],
            "spectral_sums.self_s": t("spectral_sums", "run"),
            "baselines.run_s": entry_s["baselines"],
            "reporting.serialize_s": t("reporting", "serialize"),
            "reporting.bytes": serialize_bytes,
        }
        for layer in LAYERS:
            m[f"{layer}.share"] = layer_self[layer] / request_s if request_s > 0 else 0.0
        return m

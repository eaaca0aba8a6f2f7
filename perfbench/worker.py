"""One workload in its own process: set up, run the closed loop, check outputs.

Started by run.py; prints one JSON object as the last line of stdout.
With ``--setup-only`` it stops at the first timed request and reports the
set-up time alone.  The process's own monotonic clock reading at spawn is
passed in ``--t0``, so set-up time covers interpreter start and import.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("matrix_core", "polyapprox", "qmodel", "measurement", "rng",
           "spectral_sums", "baselines", "reporting")


def import_specsum() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    return SimpleNamespace(**{m: importlib.import_module(f"specsum.{m}") for m in MODULES})


def blas_threads() -> int:
    """OpenBLAS's thread count as loaded by numpy, or -1 if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return -1
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def src_lines() -> int:
    """Net non-blank line count of src/specsum/*.py."""
    return sum(1 for f in sorted((SRC / "specsum").glob("*.py"))
               for line in f.read_text().splitlines() if line.strip())


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": src_lines(),
    }


def tail(latencies: list) -> tuple:
    """Highest percentile with at least ten samples above it.

    Returns (value, percentile label).  With fewer than eleven samples no
    percentile qualifies, and the maximum is returned.
    """
    xs = sorted(latencies)
    if len(xs) < 11:
        return xs[-1], "max"
    i = len(xs) - 11
    return xs[i], f"p{100.0 * (i + 1) / len(xs):.0f}"


def check(req, rep) -> tuple:
    """Apply the failure rule; returns (failed, stochastic miss, reason)."""
    value = rep.estimate.value
    if not math.isfinite(value):
        return True, False, "non-finite estimate"
    if rep.exact is None or abs(rep.exact - req.reference) > 1e-8 * max(1.0, abs(req.reference)):
        return True, False, f"exact {rep.exact!r} differs from reference {req.reference!r}"
    if req.mode == "exact" and rep.passed is False:
        return True, False, "exact-mode report outside its guarantee"
    return False, req.mode == "stochastic" and rep.passed is False, ""


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--requests", type=int, default=0,
                    help="Stop after this many requests instead of after --seconds.")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True, help="Directory for the trace and scratch files.")
    args = ap.parse_args()

    ss = import_specsum()
    from workloads import WORKLOADS

    # The lru caches are read from the functions themselves, before a traced
    # run rebinds their names.
    lru = [fn for fn in vars(ss.polyapprox).values() if hasattr(fn, "cache_info")]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(vars(ss))

    workdir = Path(args.out) / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](ss, args.seed, small=args.small)
        wl.setup(str(workdir))
        rounds = wl.rounds()
        first = next(rounds)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer:
            tracer.phase = "timed"

        def cache_totals():
            infos = [fn.cache_info() for fn in lru]
            return sum(i.hits for i in infos), sum(i.misses for i in infos)

        hits0, misses0 = cache_totals()
        latencies, texts = [], []
        failed = misses = stochastic = 0
        exact_err = []
        queries = be_uses = matvecs_first = matvecs_all = flops = 0.0
        first_n = len(first)
        start = round_start = time.perf_counter()
        batch = first
        while batch is not None:
            for req in batch:
                i = len(latencies)
                if tracer:
                    tracer.request = i
                t = time.perf_counter()
                rep = text = None
                try:
                    rep = req.call()
                    text = ss.reporting.report_json(rep)
                except Exception:
                    print(f"request {i} ({req.label}) raised:\n{traceback.format_exc()}",
                          file=sys.stderr)
                latencies.append(time.perf_counter() - t)
                if rep is None:
                    failed += 1
                    continue
                bad, miss, why = check(req, rep)
                if bad:
                    failed += 1
                    print(f"request {i} ({req.label}) failed: {why}", file=sys.stderr)
                misses += miss
                stochastic += req.mode == "stochastic"
                if req.mode == "exact" and rep.guarantee_bound > 0:
                    exact_err.append(abs(rep.estimate.value - rep.exact) / rep.guarantee_bound)
                mv = float(rep.parameters.get("matvecs", 0.0))
                matvecs_all += mv
                flops += 2.0 * req.n**2 * mv
                if i < first_n:
                    texts.append(text)
                    matvecs_first += mv
                    if not mv:  # quantum-model ledger; baselines charge matvecs
                        queries += rep.ledger.total_queries
                        be_uses += rep.ledger.be_uses
            if tracer:
                tracer.request = -1
            # Stop before a round that, at the pace of the last one, would end
            # after --seconds; at least one round is always measured.
            now = time.perf_counter()
            if args.requests:
                done = len(latencies) >= args.requests
            else:
                done = 2 * now - start - round_start > args.seconds
            round_start = now
            batch = None if done else next(rounds, None)
        wall = time.perf_counter() - start
        hits1, misses1 = cache_totals()
        calls = (hits1 - hits0) + (misses1 - misses0)
        n = len(latencies)
        tail_s, tail_label = tail(latencies)
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        result = {
            "setup_s": setup_s,
            "wall_s": wall,
            "attempted": n,
            "failed": failed,
            "reports_per_s": (n - failed) / wall,
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_s,
            "latency_tail_label": tail_label,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "output_digest": digest,
            "digest_reports": len(texts),
            "env": environment(args.seed),
            "layers": {
                "polyapprox.cache_hit_ratio": (hits1 - hits0) / calls if calls else 0.0,
                "spectral_sums.total_queries": queries,
                "spectral_sums.be_uses": be_uses,
                "spectral_sums.max_error_to_bound": max(exact_err, default=0.0),
                "spectral_sums.stochastic_miss_frac": misses / stochastic if stochastic else 0.0,
                "baselines.matvecs": matvecs_first,
            },
        }
        if tracer:
            lm = tracer.layer_metrics(sum(latencies), first_n)
            run_s = lm["baselines.run_s"]
            lm["baselines.matvec_rate"] = matvecs_all / run_s if run_s else 0.0
            lm["baselines.gflops_computed"] = flops / run_s / 1e9 if run_s else 0.0
            result["layers"].update(lm)
            result["absent"] = tracer.absent
            tracer.write(Path(args.out) / f"trace-{args.workload}-seed{args.seed}.jsonl")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())

"""specsum benchmark: one workload, one seed, closed loop with one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold-cells --seed 1 --seconds 15 --trace 0

Workloads: cold-cells, dense-1024, classical-probes (see RATIONALE.md).
Every workload runs in worker processes of its own, so caches and peak
memory do not leak between workloads or between runs.

--trace 0 prints the end-to-end metrics: one measured worker, plus two
more that only set up, so that setup_s is the median of three set-ups.
--trace 1 prints the per-layer metrics: an untraced worker runs first, then
a traced worker makes the same number of requests with spans recorded
around specsum's public functions; trace_overhead_frac compares the two.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Trace spans
and scratch files go to .perfbench_out/ under the repository root.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("cold-cells", "dense-1024", "classical-probes")
SETUPS = 3
# Each run must end within 180 s; the workers share what is left of this.
BUDGET_S = 170.0


def spawn(argv: list, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *argv, "--t0", repr(t0), "--out", str(OUT)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}: {' '.join(argv)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true",
                    help="Smallest input sizes, for the self-check only.")
    args = ap.parse_args()
    deadline = time.monotonic() + BUDGET_S
    # SIGTERM becomes an exception, on which subprocess.run kills and reaps
    # the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "specsum" / "__init__.py").is_file():
        print("perfbench: src/specsum not found beside perfbench/", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)] + (["--small"] if args.small else [])
    main_run = spawn(base + ["--trace", "0"], deadline)
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
             f"trace {args.trace}",
             "env " + json.dumps(main_run["env"], sort_keys=True)]
    if main_run["env"]["blas_threads"] > main_run["env"]["nproc"]:
        print("perfbench: BLAS threads exceed nproc", file=sys.stderr)
    attempted, failed = main_run["attempted"], main_run["failed"]
    if args.trace == 0:
        setups = [main_run["setup_s"]] + [
            spawn(base + ["--trace", "0", "--setup-only"], deadline)["setup_s"]
            for _ in range(SETUPS - 1)]
        metrics = {k: main_run[k] for k in
                   ("reports_per_s", "latency_p50_s", "latency_tail_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups)
        notes = {
            "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
            "latency_tail_s": f"{main_run['latency_tail_label']} of {attempted} samples",
            "reports_per_s": f"{attempted - failed} reports in {main_run['wall_s']:.3f} s",
        }
        kind = "end_to_end"
    else:
        traced = spawn(base + ["--trace", "1", "--requests", str(attempted)], deadline)
        metrics = dict(traced["layers"])
        metrics["trace_overhead_frac"] = traced["wall_s"] / main_run["wall_s"] - 1.0
        notes = {"trace_overhead_frac":
                 f"traced {traced['wall_s']:.3f} s vs untraced {main_run['wall_s']:.3f} s"}
        if traced["absent"]:
            lines.append("absent from specsum (not traced): " + ", ".join(traced["absent"]))
        attempted += traced["attempted"]
        failed += traced["failed"]
        kind = "per_layer"

    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(metrics):
        print(f"perfbench: metrics {sorted(set(units) ^ set(metrics))} do not match "
              f"BENCHMARK.json {kind}", file=sys.stderr)
        return 3
    for name in units:
        lines.append(f"{name:36s} {metrics[name]:.6g} {units[name]}"
                     + (f"  ({notes[name]})" if name in notes else ""))
    lines.append(f"{'failed_frac':36s} {failed / attempted:.6g} fraction  "
                 f"({failed} of {attempted} requests)")
    lines.append(f"{'output_digest':36s} sha256:{main_run['output_digest']}  "
                 f"(first round, {main_run['digest_reports']} reports)")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

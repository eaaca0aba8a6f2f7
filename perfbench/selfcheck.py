"""Fast self-check of the benchmark at its smallest sizes (about a minute).

Usage (from the repository root):  python3 perfbench/selfcheck.py

For each workload, with --trace 0 and --trace 1, it checks that the run
exits 0, that the last line has exactly the contract's keys, that every
metric BENCHMARK.json names is printed, on its own line and in the JSON,
with its unit, and that no request failed.  It also checks the input
property each workload relies on: polyapprox.cache_hit_ratio is 0 on
cold-cells (every cell is new) and at least 0.99 on dense-1024 and
classical-probes (polynomials warm), so a change to the inputs that
silently warms the cold workload is caught.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = {"cold-cells": 10, "dense-1024": 1, "classical-probes": 1}


class CheckFailed(Exception):
    pass


def expect(ok: bool, message) -> None:
    if not ok:
        raise CheckFailed(message)


def run(workload: str, trace: int) -> tuple:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", str(SECONDS[workload]), "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    expect(proc.returncode == 0, f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            text, result = run(name, trace)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
            expect(result["correct"] is True and result["failed"] == 0, result)
            expect(result["attempted"] >= 1, result)
            metrics = result["metrics"]
            expect(set(metrics) == {m["name"] for m in spec[kind]}, sorted(metrics))
            for m in spec[kind]:
                got = metrics[m["name"]]
                expect(got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), got)
                expect(any(line.split()[:1] == [m["name"]] and f" {m['unit']}" in line
                           for line in text), f"{m['name']} not printed with {m['unit']}")
            if trace:
                ratio = metrics["polyapprox.cache_hit_ratio"]["value"]
                if name == "cold-cells":
                    expect(ratio == 0.0, f"cold-cells hit the polynomial cache: {ratio}")
                else:
                    expect(ratio >= 0.99, f"{name} polynomial cache not warm: {ratio}")
            print(f"ok  {name:18s} trace {trace}  {result['attempted']} requests")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except CheckFailed as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)

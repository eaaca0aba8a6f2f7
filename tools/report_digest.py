"""Digest of specsum's output bytes, for checking that a change keeps them.

Usage (from a checkout):

    python tools/report_digest.py [--root CHECKOUT] [--out FILE] [--section NAME ...]
                                  [--compare OLD.txt]

Imports specsum from CHECKOUT/src (default: the checkout holding this
script) and prints, per section and in total, a line count and the
SHA-256 of the lines.  ``--out FILE`` also writes the lines, so that two
checkouts can be compared with ``diff``.  ``--section NAME``, repeatable,
builds only the named sections (in the order below) and totals those;
without it every section is built.  The sections are:

- ``report``: report JSON and CSV of the 8 quantum-model estimators of
  the table (all but ``logdet_edge_cases``) x 3 modes x seeds 0, 1, 3, 11
  x eps 0.1, 0.05, 0.03 on four generated matrices (n 32 to 256, all
  three profiles); ``schatten_p`` at p = 1-6; the five classical
  baselines, with Rademacher and Gaussian probes; ``logdet_edge_cases``
  and ``schatten_p`` on identity, unit-norm and norm-3 inputs.
- ``estimate``: ``specsum estimate`` JSON and CSV for all nine
  algorithms in three modes, with exit codes.
- ``sweep``: ``specsum sweep`` CSVs, fit lines, usage errors and exit
  codes on the eps, kappa, n and p axes, each at SPECSUM_THREADS 1 and 3.
- ``series``: the certified polynomials, one line per builder call with
  its degrees, target, interval, certified error, global bound and the
  SHA-256 of its float64 coefficients: ``approx_log``, ``approx_inverse``,
  ``approx_sqrt`` and ``entropy_poly`` on ten (beta, eps) cells (one
  escalates the projection, one exhausts the degree cap),
  ``approx_inverse`` on two cells with grids of 2^17 and 2^19 points,
  ``approx_monomial`` on 16 (s, d) and ``chebyshev_logdet_setup`` on
  three (delta, eps).
- ``verify``: the ``specsum verify all`` lines.

A case that raises prints the exception instead of a report.  Timing
never enters the lines, so two runs of one checkout give one digest.

``--compare OLD.txt`` reads the lines another checkout wrote with
``--out`` (with the same ``--section`` flags) and pairs them with this
run's by label, kind and order.  It prints, for each JSON field and CSV
column, the number of lines on which it moved and its largest relative
change, then counts the whole lines that moved or exist on one side only.
A moved ``passed``, ledger, bound or error line is flagged, and the
command then exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

SECTIONS = ("report", "estimate", "sweep", "series", "verify")
EPS = (0.1, 0.05, 0.03)
SEEDS = (0, 1, 3, 11)
MODES = ("exact", "stochastic", "adversarial")
# (n, kappa, profile, seed) of the generated matrices, all at norm 0.5.
MATRICES = ((32, 10.0, "log_uniform", 1), (64, 20.0, "uniform", 2),
            (128, 50.0, "clustered", 3), (256, 10.0, "log_uniform", 4))
SWEEPS = (
    ["--algorithm", "logdet_svt", "--axis", "eps", "--values", "0.1,0.05,0.025",
     "--n", "32", "--seeds", "2", "--mode", "stochastic"],
    ["--algorithm", "logdet_svt", "--axis", "eps", "--values", "0.01,0.005,0.0025",
     "--n", "64", "--kappa", "10", "--matrix-seed", "7"],
    ["--algorithm", "logdet_qmc", "--axis", "eps", "--values", "0.1,0.05",
     "--n", "32", "--seeds", "2", "--mode", "stochastic"],
    ["--algorithm", "vn_entropy", "--axis", "eps", "--values", "0.1,0.05", "--n", "16"],
    ["--algorithm", "trace_inverse", "--axis", "kappa", "--values", "25,50,100,200",
     "--n", "64", "--matrix-seed", "7"],
    ["--algorithm", "logdet_svt", "--axis", "kappa", "--values", "5,10,20", "--n", "32",
     "--profile", "clustered", "--seeds", "2", "--mode", "adversarial"],
    ["--algorithm", "logdet_svt", "--axis", "kappa", "--values", "0.5,10", "--n", "16"],
    ["--algorithm", "logdet_sve", "--axis", "n", "--values", "16,32,64",
     "--seeds", "2", "--mode", "stochastic"],
    ["--algorithm", "schatten_p", "--axis", "p", "--values", "1,2,3,4,5", "--n", "16"],
    ["--algorithm", "schatten_p", "--axis", "p", "--values", "2,2100", "--n", "16"],
    ["--algorithm", "logdet_svt", "--axis", "eps", "--values", "0.1", "--n", "16"],
)
# (beta, eps) cells of the series builders: approx_sqrt escalates the
# projection at (0.5, 1e-6) and (0.1, 1e-6) and exhausts the degree cap at
# (0.5, 1e-10).
CELLS = ((0.5, 0.1), (0.25, 1e-2), (0.1, 1e-3), (1 / 32, 1e-4), (0.0566, 0.00317),
         (0.1682, 0.00317), (0.0743, 0.00632), (0.5, 1e-6), (0.1, 1e-6), (0.5, 1e-10))
# (delta, eps1) that trace_inverse derives at n = 256, eps 0.0105 on kappa-40
# and kappa-80 inputs: inverse series certified on grids of 2^17 and 2^19 points.
TAIL_CELLS = ((0.005524271728019908, 2.157918643757779e-05),
              (0.0027621358640099545, 1.0789593218788897e-05))
LOGDET_SETUPS = ((0.25, 1e-3), (0.1, 1e-6), (0.01, 1e-4))


def _guard(label, make):
    """The lines of one case, or one line naming the exception it raised."""
    try:
        return make()
    except Exception as exc:  # a refused case is part of the output too
        return [f"{label} error {type(exc).__name__}: {exc}"]


def report_lines() -> list[str]:
    import numpy as np

    from specsum import baselines
    from specsum.matrix_core import SymmetricMatrix, generate_spd, unit_trace, with_spectrum
    from specsum.reporting import csv_row, report_json
    from specsum.spectral_sums import ALGORITHMS, AlgoConfig, run_algorithm

    def both(label, run):
        return _guard(label, lambda: [f"{label} {text}" for rep in [run()]
                                      for text in (report_json(rep), csv_row(rep))])

    lines = []
    mats = [(f"n={n} kappa={k:g} {prof} seed={s}", generate_spd(n, k, prof, 0.5, s))
            for n, k, prof, s in MATRICES]
    table = [name for name in ALGORITHMS if name != "logdet_edge_cases"]
    for tag, A in mats:
        for name in table:
            inp = ALGORITHMS[name].domain.input(A)
            for mode in MODES:
                for seed in SEEDS:
                    for eps in EPS:
                        cfg = AlgoConfig(eps=eps, mode=mode, seed=seed, algorithm=name)
                        lines += both(f"{name} {tag} {mode} seed={seed} eps={eps:g}",
                                      lambda: run_algorithm(inp, cfg))
    for tag, A in mats[:2]:
        for p in range(1, 7):
            for mode in MODES:
                cfg = AlgoConfig(eps=0.1, mode=mode, seed=1, algorithm="schatten_p", p=p)
                lines += both(f"schatten_p {tag} p={p} {mode}", lambda: run_algorithm(A, cfg))
    for tag, A in mats[:2]:
        rho = unit_trace(A)
        for kind, probes, seed in (("rademacher", 64, 0), ("rademacher", 256, 1),
                                   ("gaussian", 64, 2), ("gaussian", 64, 5)):
            pc = baselines.ProbeConfig(num_probes=probes, probe_kind=kind, seed=seed)
            label = f"{tag} {kind} probes={probes} seed={seed}"
            for name, run in (
                ("classical_logdet_taylor", lambda: baselines.classical_logdet_taylor(A, 0.1, pc)),
                ("classical_logdet_chebyshev",
                 lambda: baselines.classical_logdet_chebyshev(A, 0.1, pc)),
                ("classical_entropy", lambda: baselines.classical_entropy(rho, 0.1, pc)),
                ("classical_trace_inverse", lambda: baselines.classical_trace_inverse(A, 0.1, pc)),
                ("classical_schatten_p", lambda: baselines.classical_schatten_p(A, 3, 0.1, pc)),
            ):
                lines += both(f"{name} {label}", run)
    unit = generate_spd(32, 10.0, "log_uniform", 1.0, 1)
    big = unit.entries * 3.0
    edge = [("identity", SymmetricMatrix(8, np.eye(8), spd_flag=True)),
            ("unit-norm", unit),
            ("norm-3", with_spectrum(big, unit.spectral.eigenvalues * 3.0, spd_flag=True))]
    for tag, A in edge:
        for name in ("logdet_edge_cases", "schatten_p"):  # schatten_p refuses these
            for mode in MODES:
                for seed in (0, 3):
                    cfg = AlgoConfig(eps=0.1, mode=mode, seed=seed, algorithm=name, p=2)
                    lines += both(f"{name} {tag} {mode} seed={seed}",
                                  lambda: run_algorithm(A, cfg))
    return lines


def _invoke(runner, main, args, env=None):
    res = runner.invoke(main, args, env=env)
    return res.exit_code, res.output.rstrip("\n").split("\n")


def estimate_lines(tmp: Path) -> list[str]:
    from click.testing import CliRunner

    from specsum.cli import main
    from specsum.matrix_core import load_matrix_market, save_matrix_market, unit_trace
    from specsum.spectral_sums import ALGORITHMS

    runner = CliRunner()
    paths = {"contraction": tmp / "a", "norm_at_least_one": tmp / "unit"}
    for (domain, prefix), norm in zip(paths.items(), ("0.5", "1")):
        code, out = _invoke(runner, main, ["gen", "--n", "24", "--kappa", "10", "--seed", "2",
                                           "--norm", norm, "--out", str(prefix)])
        assert code == 0, out
        paths[domain] = prefix.with_suffix(".mtx")
    paths["density"] = tmp / "rho.mtx"
    save_matrix_market(paths["density"], unit_trace(load_matrix_market(paths["contraction"])))
    lines = []
    for name in sorted(ALGORITHMS):
        for mode in MODES:
            for fmt in ("json", "csv"):
                args = ["estimate", "--matrix", str(paths[ALGORITHMS[name].domain.name]),
                        "--algorithm", name, "--mode", mode, "--seed", "3", "--p", "3",
                        "--format", fmt]
                code, out = _invoke(runner, main, args)
                label = f"estimate {name} {mode} {fmt}"
                lines += [f"{label} exit={code}"] + [f"{label} {line}" for line in out]
    return lines


def sweep_lines(tmp: Path) -> list[str]:
    from click.testing import CliRunner

    from specsum.cli import main

    runner = CliRunner()
    lines = []
    for i, spec in enumerate(SWEEPS):
        for threads in ("1", "3"):
            out = tmp / f"sweep{i}_{threads}.csv"
            code, text = _invoke(runner, main, ["sweep", *spec, "--out", str(out)],
                                 env={"SPECSUM_THREADS": threads})
            label = f"sweep {' '.join(spec)} threads={threads}"
            lines += [f"{label} exit={code}"] + [f"{label} {line}" for line in text]
            if out.exists():
                lines += [f"{label} csv {line}" for line in out.read_text().splitlines()]
    return lines


def series_lines() -> list[str]:
    import numpy as np

    from specsum import polyapprox as pa

    def sha(c):
        return hashlib.sha256(np.ascontiguousarray(c, dtype=np.float64).tobytes()).hexdigest()

    def line(label, fields):
        return [f"{label} {json.dumps(fields, separators=(',', ':'))}"]

    def series(build, *args):
        def fields():
            s = build(*args)
            return {"degree": s.degree, "degree_used": s.degree_used, "target": s.target,
                    "certified_on": list(s.certified_on),
                    "certified_sup_error": s.certified_sup_error,
                    "global_bound": s.global_bound, "coefficients_sha256": sha(s.coefficients)}

        label = f"series {build.__name__}({', '.join(map(repr, args))})"
        return _guard(label, lambda: line(label, fields()))

    lines = []
    for cell in CELLS:
        for build in (pa.approx_log, pa.approx_inverse, pa.approx_sqrt, pa.entropy_poly):
            lines += series(build, *cell)
    for cell in TAIL_CELLS:
        lines += series(pa.approx_inverse, *cell)
    for s in (1, 2, 7, 30):
        for d in (1, 3, 12, 40):
            lines += series(pa.approx_monomial, s, d)
    for delta, eps in LOGDET_SETUPS:
        coeffs, d, bound = pa.chebyshev_logdet_setup(delta, eps)
        lines += line(f"series chebyshev_logdet_setup({delta!r}, {eps!r})",
                      {"degree": d, "bound": bound, "coefficients_sha256": sha(coeffs)})
    return lines


def verify_lines() -> list[str]:
    from specsum.verify import run_suite

    return [f"verify {res.line()}" for res in run_suite("all")]


# Ledger fields and columns, and the estimate's total of them.
LEDGER = ("be_uses", "sve_calls", "ae_rounds", "total_queries", "queries_charged")


def _flatten(obj, prefix=""):
    """(dotted path, scalar) pairs of a nested JSON object."""
    if isinstance(obj, dict):
        return [kv for k, v in obj.items() for kv in _flatten(v, f"{prefix}{k}.")]
    return [(prefix[:-1], obj)]


def _parse(line: str, headers: dict, columns: list[str]):
    """(key label, kind, {field: value}) of one digest line.

    kind is "json", "csv" (header rows become "csv-header"), "error" or "line".
    A CSV row's columns are those of the last header under its label, else
    ``columns``.
    """
    label, brace, rest = line.partition(" {")
    if brace:
        try:
            return label, "json", dict(_flatten(json.loads("{" + rest)))
        except ValueError:
            pass
    label, sep, message = line.partition(" error ")
    if sep:
        return label, "error", {"message": message}
    head, _, last = line.rpartition(" ")
    if "," in last:
        cells = last.split(",")
        if "algorithm" in cells and "total_queries" in cells:
            headers[head] = cells
            return head, "csv-header", {"header": last}
        names = headers.get(head, columns)
        if len(names) != len(cells):
            names = [f"column {i}" for i in range(len(cells))]
        return head, "csv", dict(zip(names, cells))
    return "", "line", {"text": line}


def _keyed(lines: list[str]) -> dict:
    """Parsed lines keyed by (label, kind, ordinal among lines of that label and kind)."""
    from specsum.reporting import CSV_COLUMNS

    seen, headers, out = Counter(), {}, {}
    for line in lines:
        label, kind, fields = _parse(line, headers, CSV_COLUMNS)
        seen[label, kind] += 1
        out[label, kind, seen[label, kind]] = fields
    return out


def _flags(kind: str, field: str) -> list[str]:
    name = field.rsplit(".", 1)[-1]
    return [flag for flag, hit in (("passed", name == "passed"), ("ledger", name in LEDGER),
                                   ("bound", "bound" in name), ("error", kind == "error"))
            if hit]


def _relative(old, new) -> float | None:
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return None
    return abs(b - a) / abs(a) if a else float("inf")


def compare(old_lines: list[str], new_lines: list[str]) -> int:
    """Print what moved between two digest line lists; 1 if a flagged line moved, else 0."""
    old, new = _keyed(old_lines), _keyed(new_lines)
    moved, largest = Counter(), defaultdict(lambda: -1.0)
    moved_lines, flagged = Counter(), Counter()
    for key in old.keys() & new.keys():
        kind = key[1]
        fields = [f for f in old[key].keys() | new[key].keys()
                  if old[key].get(f) != new[key].get(f)]
        if fields:
            moved_lines[kind] += 1
        for field in fields:
            moved[kind, field] += 1
            rel = _relative(old[key].get(field), new[key].get(field))
            if rel is not None:
                largest[kind, field] = max(largest[kind, field], rel)
        flagged.update({flag for field in fields for flag in _flags(kind, field)})
    for (kind, field), count in sorted(moved.items()):
        rel = largest[kind, field]
        text = "not numeric" if rel < 0 else f"{rel:.3g}"
        print(f"moved {kind} {field}: {count} lines, largest relative change {text}")
    for side, keys in (("only in OLD", old.keys() - new.keys()), ("only in new", new.keys() - old.keys())):
        for kind, count in sorted(Counter(k[1] for k in keys).items()):
            print(f"{side}: {count} {kind} lines")
            flagged["error" if kind == "error" else "added or removed"] += count
    same = len(old.keys() & new.keys()) - sum(moved_lines.values())
    print(f"unchanged: {same} of {len(old)} OLD lines; moved lines by kind: "
          + (", ".join(f"{k} {c}" for k, c in sorted(moved_lines.items())) or "none"))
    for flag, count in sorted(flagged.items()):
        print(f"FLAG {flag}: {count} lines")
    return 1 if flagged else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ is digested (default: this one)")
    parser.add_argument("--out", type=Path, help="also write every line to this file")
    parser.add_argument("--section", action="append", choices=SECTIONS,
                        help="build only this section; repeatable (default: all)")
    parser.add_argument("--compare", type=Path, metavar="OLD.txt",
                        help="report what moved against lines another checkout wrote with --out")
    args = parser.parse_args()
    src = str((args.root / "src").resolve())
    sys.path.insert(0, src)
    # The determinism criterion starts `python -m specsum.cli` in a child process.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    import specsum

    assert specsum.__file__.startswith(src), specsum.__file__
    with tempfile.TemporaryDirectory() as tmp:
        build = {"report": report_lines, "estimate": lambda: estimate_lines(Path(tmp)),
                 "sweep": lambda: sweep_lines(Path(tmp)), "series": series_lines,
                 "verify": verify_lines}
        sections = {name: build[name]() for name in SECTIONS
                    if name in (args.section or SECTIONS)}
    everything = [line for lines in sections.values() for line in lines]
    for name, lines in [*sections.items(), ("total", everything)]:
        digest = hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()
        print(f"{name}: {len(lines)} lines sha256 {digest}")
    if args.out:
        args.out.write_text("".join(f"{line}\n" for line in everything))
    if args.compare:
        return compare(args.compare.read_text().splitlines(), everything)
    return 0


if __name__ == "__main__":
    sys.exit(main())

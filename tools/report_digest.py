"""Digest of specsum's output bytes, for checking that a change keeps them.

Usage (from a checkout):

    python tools/report_digest.py [--root CHECKOUT] [--out FILE]

Imports specsum from CHECKOUT/src (default: the checkout holding this
script) and prints, per section and in total, a line count and the
SHA-256 of the lines.  ``--out FILE`` also writes the lines, so that two
checkouts can be compared with ``diff``.  The sections are:

- ``report``: report JSON and CSV of the 8 quantum-model estimators of
  the table (all but ``logdet_edge_cases``) x 3 modes x seeds 0, 1, 3, 11
  x eps 0.1, 0.05, 0.03 on four generated matrices (n 32 to 256, all
  three profiles); ``schatten_p`` at p = 1-6 with and without the
  monomial approximation; the five classical baselines, with Rademacher
  and Gaussian probes; ``logdet_edge_cases`` and ``schatten_p`` on
  identity, unit-norm and norm-3 inputs.
- ``estimate``: ``specsum estimate`` JSON and CSV for all nine
  algorithms in three modes, with exit codes.
- ``sweep``: ``specsum sweep`` CSVs, fit lines, usage errors and exit
  codes on the eps, kappa, n and p axes, each at SPECSUM_THREADS 1 and 3.
- ``verify``: the ``specsum verify all`` lines.

A case that raises prints the exception instead of a report.  Timing
never enters the lines, so two runs of one checkout give one digest.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

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
            inp = ALGORITHMS[name].input(A)
            for mode in MODES:
                for seed in SEEDS:
                    for eps in EPS:
                        cfg = AlgoConfig(eps=eps, mode=mode, seed=seed, algorithm=name)
                        lines += both(f"{name} {tag} {mode} seed={seed} eps={eps:g}",
                                      lambda: run_algorithm(inp, cfg))
    for tag, A in mats[:2]:
        for p in range(1, 7):
            for mono in (False, True):
                for mode in MODES:
                    cfg = AlgoConfig(eps=0.1, mode=mode, seed=1, algorithm="schatten_p", p=p,
                                     use_monomial_approx=mono)
                    lines += both(f"schatten_p {tag} p={p} mono={mono} {mode}",
                                  lambda: run_algorithm(A, cfg))
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
                args = ["estimate", "--matrix", str(paths[ALGORITHMS[name].domain]),
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


def verify_lines() -> list[str]:
    from specsum.verify import run_suite

    return [f"verify {res.line()}" for res in run_suite("all")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ is digested (default: this one)")
    parser.add_argument("--out", type=Path, help="also write every line to this file")
    args = parser.parse_args()
    src = str((args.root / "src").resolve())
    sys.path.insert(0, src)
    # The determinism criterion starts `python -m specsum.cli` in a child process.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    import specsum

    assert specsum.__file__.startswith(src), specsum.__file__
    with tempfile.TemporaryDirectory() as tmp:
        sections = {
            "report": report_lines(),
            "estimate": estimate_lines(Path(tmp)),
            "sweep": sweep_lines(Path(tmp)),
            "verify": verify_lines(),
        }
    everything = [line for lines in sections.values() for line in lines]
    for name, lines in [*sections.items(), ("total", everything)]:
        digest = hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()
        print(f"{name}: {len(lines)} lines sha256 {digest}")
    if args.out:
        args.out.write_text("".join(f"{line}\n" for line in everything))
    return 0


if __name__ == "__main__":
    sys.exit(main())

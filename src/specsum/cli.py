"""Batch command-line front end.

Four subcommands: ``gen`` writes a Matrix Market file plus a
ground-truth JSON sidecar, ``estimate`` runs one configured estimator
and reports JSON or CSV, ``sweep`` drives an estimator along an axis
(eps, kappa, n, or p) and emits a CSV with a log-log slope fit, and
``verify`` runs the acceptance suites.

Exit codes follow the CI contract: 0 when all guarantees are met, 1
when an estimate lands outside its guarantee, 2 on usage or
precondition errors.  All floats are printed with 17 significant
digits and every command is deterministic given its flags and seeds;
the SPECSUM_THREADS environment variable, a positive integer (default
1), sets the sweep worker count without affecting output bytes; any
other value is a usage error.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys

import click

from .matrix_core import (
    SymmetricMatrix,
    exact_spectral_sum,
    generate_spd,
    load_matrix_market,
    save_matrix_market,
)
from .polyapprox import CertificationError
from .reporting import canonical_json, csv_header, csv_row, report_json
from .spectral_sums import ALGORITHMS, MODES, AlgoConfig, fit_loglog, run_algorithm
from .spectral_sums import sweep as run_sweep
from .verify import SUITES, run_suite

_PROFILES = {"log-uniform": "log_uniform", "uniform": "uniform", "clustered": "clustered"}


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _thread_count() -> int:
    text = os.environ.get("SPECSUM_THREADS", "1")
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise click.UsageError(f"SPECSUM_THREADS must be a positive integer, got {text!r}")
    return count


def _load_spd(path) -> SymmetricMatrix:
    A = load_matrix_market(path)
    spd = bool(A.spectral.eigenvalues[-1] > 0)
    # The cache (spectral data and stats) does not depend on spd_flag, so
    # the flagged matrix keeps it and the eigenvalue solve runs once.
    return dataclasses.replace(A, spd_flag=spd)


def _write(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


@click.group()
def main():
    """Spectral-sum estimation toolkit."""


@main.command()
@click.option("--n", type=int, required=True, help="Dimension (>= 2).")
@click.option("--kappa", type=float, required=True, help="Condition number (>= 1).")
@click.option("--profile", type=click.Choice(sorted(_PROFILES)), default="log-uniform",
              show_default=True, help="Interior eigenvalue profile.")
@click.option("--norm", type=float, default=0.5, show_default=True,
              help="Spectral norm of the generated matrix, in (0, 1].")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, help="Output path prefix (writes PREFIX.mtx + PREFIX.json).")
def gen(n, kappa, profile, norm, seed, out):
    """Generate an SPD test matrix plus its ground-truth sidecar."""
    try:
        A = generate_spd(n, kappa, _PROFILES[profile], norm, seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    save_matrix_market(out + ".mtx", A)
    st = A.stats
    sidecar = {
        "n": n,
        "kappa_requested": float(kappa),
        "profile": profile,
        "norm_cap": float(norm),
        "seed": seed,
        "eigenvalues": list(A.spectral.eigenvalues),
        "spectral_norm": st.spectral_norm,
        "kappa": st.kappa,
        "mu": st.mu,
        "exact": {
            "logdet": exact_spectral_sum(A, "log"),
            "trace_inverse": exact_spectral_sum(A, "inverse"),
            "schatten_1": exact_spectral_sum(A, "x_pow_p", 1.0),
            "schatten_2": math.sqrt(exact_spectral_sum(A, "x_pow_p", 2.0)),
        },
    }
    with open(out + ".json", "w") as fh:
        fh.write(canonical_json(sidecar) + "\n")
    click.echo(f"wrote {out}.mtx and {out}.json")


@main.command()
@click.option("--matrix", "matrix_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Matrix Market input.")
@click.option("--algorithm", type=click.Choice(sorted(ALGORITHMS)), required=True)
@click.option("--eps", type=float, default=0.1, show_default=True)
@click.option("--delta", type=float, default=0.05, show_default=True)
@click.option("--mode", type=click.Choice(MODES),
              default="exact", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--p", type=int, default=1, show_default=True, help="Schatten exponent.")
@click.option("--use-monomial-approx", is_flag=True,
              help="Replace the exact Schatten monomial with its truncated expansion.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
@click.option("--out", default="-", show_default=True, help="Output path, '-' for stdout.")
@click.option("--exact-cap", type=int, default=1024, show_default=True,
              help="Above this dimension, leave exact and passed out of the report (null).")
def estimate(matrix_path, algorithm, eps, delta, mode, seed, p,
             use_monomial_approx, fmt, out, exact_cap):
    """Run one estimator on a matrix and emit its report."""
    try:
        A = _load_spd(matrix_path)
        cfg = AlgoConfig(eps=eps, delta=delta, mode=mode, seed=seed,
                         algorithm=algorithm, p=p,
                         use_monomial_approx=use_monomial_approx)
        rep = run_algorithm(A, cfg)
    except (ValueError, CertificationError) as exc:
        raise click.UsageError(str(exc))
    if A.n > exact_cap:
        rep.exact = None
    if fmt == "json":
        _write(report_json(rep) + "\n", out)
    else:
        _write(csv_header() + "\n" + csv_row(rep) + "\n", out)
    if rep.passed is False:
        sys.exit(1)


@main.command()
@click.option("--n", type=int, default=64, show_default=True)
@click.option("--kappa", type=float, default=10.0, show_default=True)
@click.option("--profile", type=click.Choice(sorted(_PROFILES)), default="log-uniform",
              show_default=True)
@click.option("--norm", type=float, default=0.5, show_default=True)
@click.option("--matrix-seed", type=int, default=0, show_default=True,
              help="Seed for the generated sweep matrices.")
@click.option("--algorithm", type=click.Choice(sorted(ALGORITHMS)), required=True)
@click.option("--axis", type=click.Choice(["eps", "kappa", "n", "p"]), required=True)
@click.option("--values", required=True, help="Comma-separated axis values.")
@click.option("--seeds", type=int, default=1, show_default=True,
              help="Estimator seeds 0..seeds-1 per axis value.")
@click.option("--eps", type=float, default=0.1, show_default=True)
@click.option("--delta", type=float, default=0.05, show_default=True)
@click.option("--mode", type=click.Choice(MODES),
              default="exact", show_default=True)
@click.option("--p", type=int, default=4, show_default=True)
@click.option("--out", required=True, help="CSV output path.")
def sweep(n, kappa, profile, norm, matrix_seed, algorithm, axis, values,
          seeds, eps, delta, mode, p, out):
    """Sweep one axis, write a CSV, and print a log-log slope fit."""
    threads = _thread_count()
    if axis == "p" and algorithm != "schatten_p":
        raise click.UsageError(f"--axis p sweeps the Schatten order, which {algorithm} "
                               "does not read; use --algorithm schatten_p")
    raw = [v.strip() for v in values.split(",") if v.strip()]
    try:
        vals = [float(v) for v in raw]
    except ValueError as exc:
        raise click.UsageError(f"bad axis values: {exc}")
    if not vals:
        raise click.UsageError("empty axis value list")
    if axis in ("n", "p"):
        for text, v in zip(raw, vals):
            if not v.is_integer():
                raise click.UsageError(f"--axis {axis} takes integer values, got {text!r}")
    if seeds < 1:
        raise click.UsageError("seeds must be >= 1")

    try:
        rows = run_sweep(algorithm, axis, vals, n=n, kappa=kappa, profile=_PROFILES[profile],
                         norm=norm, matrix_seed=matrix_seed, seeds=range(seeds), eps=eps,
                         delta=delta, mode=mode, p=p, threads=threads)
    except (ValueError, CertificationError) as exc:
        raise click.UsageError(str(exc))

    lines = [csv_header([f"sweep_{axis}", "n", "kappa"])]
    lines += [csv_row(rep, {f"sweep_{axis}": value, "n": A.n, "kappa": A.stats.kappa})
              for value, A, rep in rows]
    _write("\n".join(lines) + "\n", out)

    if len(vals) < 2:
        click.echo("fit: insufficient points")
        return
    slope, se = fit_loglog(axis, rows)
    click.echo(f"fit: slope={_g17(slope)} ci95=±{_g17(1.96 * se)} points={len(rows)}")


@main.command()
@click.argument("suite", type=click.Choice(sorted(SUITES)))
def verify(suite):
    """Run an acceptance suite and print one pass/fail line per criterion."""
    results = run_suite(suite)
    for res in results:
        click.echo(res.line())
    if not all(r.passed for r in results):
        sys.exit(1)


if __name__ == "__main__":
    main()

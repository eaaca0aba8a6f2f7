"""Report serialization: canonical JSON objects and CSV rows.

Every float is printed with 17 significant digits ('%.17g'), keys are
emitted in sorted order, and no locale- or hash-order-dependent state
enters the output, so identical runs serialize to byte-identical
documents regardless of thread count or platform.
"""

from __future__ import annotations

import json
import math
from importlib import resources

import numpy as np

from .spectral_sums import SpectralSumReport

__all__ = [
    "report_to_dict",
    "report_json",
    "canonical_json",
    "csv_header",
    "csv_row",
    "report_schema",
    "validate_report",
]

# Stable CSV column schema; sweep drivers prepend axis columns.
CSV_COLUMNS = [
    "algorithm", "mode", "seed", "eps", "delta",
    "estimate", "exact", "abs_error", "guarantee", "guarantee_bound",
    "passed", "failed", "success_prob",
    "be_uses", "sve_calls", "ae_rounds", "total_queries",
]


def _fmt(x) -> str:
    """One scalar as canonical JSON text."""
    if isinstance(x, bool) or isinstance(x, np.bool_):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if not math.isfinite(v):
            return json.dumps(str(v))
        return format(v, ".17g")
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError(f"unserializable scalar: {type(x)!r}")


def canonical_json(obj) -> str:
    """Serialize nested dicts/lists/scalars with sorted keys, '%.17g' floats."""
    if isinstance(obj, dict):
        inner = ",".join(
            f"{json.dumps(str(k))}:{canonical_json(obj[k])}" for k in sorted(obj)
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    return _fmt(obj)


def report_to_dict(report: SpectralSumReport) -> dict:
    """Plain-dict view of a report (one JSON object per run)."""
    est = report.estimate
    return {
        "algorithm": report.algorithm,
        "estimate": {
            "value": est.value,
            "abs_error_bound": est.abs_error_bound,
            "success_prob": est.success_prob,
            "queries_charged": est.queries_charged,
            "seed": est.seed,
            "failed": est.failed,
        },
        "exact": report.exact,
        "guarantee": report.guarantee,
        "guarantee_bound": report.guarantee_bound,
        "passed": report.passed,
        "parameters": dict(report.parameters),
        "ledger": report.ledger.as_dict(),
        "warnings": list(report.warnings),
    }


def report_json(report: SpectralSumReport) -> str:
    """Canonical JSON document for one run."""
    return canonical_json(report_to_dict(report))


def csv_header(extra: list[str] | None = None) -> str:
    """CSV header line; extra columns (e.g. sweep axes) come first."""
    return ",".join(list(extra or []) + CSV_COLUMNS)


def csv_row(report: SpectralSumReport, extra: dict | None = None) -> str:
    """One CSV row per run, column order matching csv_header."""
    est = report.estimate
    params = report.parameters
    abs_err = None if report.exact is None else abs(est.value - report.exact)
    values = {
        "algorithm": report.algorithm,
        "mode": params.get("mode"),
        "seed": est.seed,
        "eps": params.get("eps"),
        "delta": params.get("delta"),
        "estimate": est.value,
        "exact": report.exact,
        "abs_error": abs_err,
        "guarantee": report.guarantee,
        "guarantee_bound": report.guarantee_bound,
        "passed": report.passed,
        "failed": est.failed,
        "success_prob": est.success_prob,
        **report.ledger.as_dict(),
    }
    extra = extra or {}
    cells = [_csv_cell(extra[k]) for k in extra] + [
        _csv_cell(values[c]) for c in CSV_COLUMNS
    ]
    return ",".join(cells)


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool) or isinstance(x, np.bool_):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def report_schema() -> dict:
    """The shipped JSON schema for run reports."""
    text = resources.files("specsum").joinpath("report.schema.json").read_text()
    return json.loads(text)


def validate_report(doc: dict) -> None:
    """Validate one report document against the shipped schema.

    Raises:
        jsonschema.ValidationError: On schema violations.
    """
    import jsonschema

    jsonschema.validate(doc, report_schema())

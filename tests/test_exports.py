"""Every name a specsum module exports resolves, and deleted names and parameters stay deleted."""

import importlib
import inspect
import pkgutil

import pytest

import specsum

_MODULES = sorted(m.name for m in pkgutil.iter_modules(specsum.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"specsum.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", ["SveOracle", "sve_estimate", "sve_all"])
def test_removed_sve_names_are_gone(name):
    exported = {n for m in _MODULES
                for n in getattr(importlib.import_module(f"specsum.{m}"), "__all__", [])}
    assert name not in exported
    assert not hasattr(importlib.import_module("specsum.qmodel"), name)


def test_cost_ledger_has_no_charge():
    from specsum.qmodel import CostLedger

    assert not hasattr(CostLedger, "charge")


@pytest.mark.parametrize("module, name", [
    ("baselines", "hutchinson_trace"),
    ("baselines", "_quadform_samples"),
    ("spectral_sums", "_relative_bound"),
    ("spectral_sums", "_NU"),
    ("verify", "_fit_slope"),
    ("verify", "_sweep_queries"),
    ("cli", "ThreadPoolExecutor"),
])
def test_removed_paths_are_gone(module, name):
    exported = {n for m in _MODULES
                for n in getattr(importlib.import_module(f"specsum.{m}"), "__all__", [])}
    assert name not in exported
    assert not hasattr(importlib.import_module(f"specsum.{module}"), name)


def test_removed_parameters_are_gone():
    from specsum.measurement import amplitude_estimate, trace_estimate_abs, trace_product_estimate

    assert "unit_cost" not in inspect.signature(amplitude_estimate).parameters
    for primitive in (trace_estimate_abs, trace_product_estimate):
        assert inspect.signature(primitive).parameters["delta"].default is inspect.Parameter.empty


def test_inner_product_estimate_reads_cost_and_mode_from_the_encoding():
    from specsum.measurement import inner_product_estimate

    assert list(inspect.signature(inner_product_estimate).parameters) == [
        "be", "eps", "delta", "seed"]

"""The public namespace: every name a module exports in ``__all__`` exists."""

import importlib

import pytest

MODULES = [
    "r2margin",
    "r2margin.distributions",
    "r2margin.figures",
    "r2margin.inference",
    "r2margin.montecarlo",
    "r2margin.regression",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing

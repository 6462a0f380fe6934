"""The public namespace: every name a module exports in ``__all__`` exists,
every exported error class is raised somewhere in the package, every
private module-level name is used somewhere in it, and bad arguments at the
library boundary raise the package's own errors."""

import ast
import importlib
import inspect
import math
import pathlib
import re

import numpy as np
import pytest

import r2margin
from r2margin import errors

MODULES = [
    "r2margin",
    "r2margin.distributions",
    "r2margin.figures",
    "r2margin.inference",
    "r2margin.montecarlo",
    "r2margin.regression",
]

ERROR_CLASSES = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.R2MarginError) and cls is not errors.R2MarginError
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_class_is_raised(error):
    # A class nothing raises only pads the handlers that catch it.
    source = "\n".join(
        path.read_text(encoding="utf-8")
        for path in pathlib.Path(r2margin.__file__).parent.glob("*.py")
    )
    assert re.search(rf"\braise {error.__name__}\b", source)


def _private_definitions(tree):
    """Module-level ``_private`` functions, classes and constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def test_every_private_name_is_used():
    # A private name nothing uses is a leftover of a deleted path.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in pathlib.Path(r2margin.__file__).parent.glob("*.py")
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in used
    ]
    assert not unused


@pytest.mark.parametrize(
    "call",
    [
        lambda: r2margin.RejectionRecord(
            scenario_id="a", delta=0.05, n_sims=0, rejections=0, rejection_rate=0.0,
            true_p2=0.1, alpha=0.05, master_seed=1,
        ),
        lambda: r2margin.true_p2([math.nan], [[1.0]], 1.0),
        lambda: r2margin.true_p2([1e300, 1e300], np.eye(2), 1.0),  # beta' Sigma beta overflows
        lambda: r2margin.noninferiority_pvalue(r2margin.TestInput(r2=0.2, n=100, k=2), None),
        lambda: r2margin.critical_r2(100, 2, 0.1, "x"),
    ],
    ids=["zero-sims-record", "nan-beta", "overflowing-signal", "none-margin", "text-alpha"],
)
def test_bad_arguments_raise_domain_error(call):
    with pytest.raises(errors.DomainError):
        call()

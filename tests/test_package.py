"""The public namespace: every name a module exports in ``__all__`` exists,
every exported error class is raised somewhere in the package, every
private module-level name is used somewhere in it, and bad arguments at the
library boundary raise the package's own errors."""

import ast
import importlib
import inspect
import math
import os
import pathlib
import re
import subprocess
import sys

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


def _scenario(n=60):
    return r2margin.Scenario(
        id="a", n=n, k=2, beta=[0.1, 0.2], sigma2=1.0, sigma_matrix=np.eye(2)
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda: r2margin.RejectionRecord(
            scenario_id="a", delta=0.05, n_sims=0, rejections=0,
            true_p2=0.1, alpha=0.05, master_seed=1,
        ),
        lambda: r2margin.RejectionRecord(
            scenario_id="a", delta=0.05, n_sims=3, rejections=4,
            true_p2=0.1, alpha=0.05, master_seed=1,
        ),
        lambda: r2margin.RejectionRecord(
            scenario_id="a", delta=0.05, n_sims=3, rejections=-1,
            true_p2=0.1, alpha=0.05, master_seed=1,
        ),
        lambda: r2margin.true_p2([math.nan], [[1.0]], 1.0),
        lambda: r2margin.true_p2([1e300, 1e300], np.eye(2), 1.0),  # beta' Sigma beta overflows
        lambda: r2margin.noninferiority_pvalue(r2margin.TestInput(r2=0.2, n=100, k=2), None),
        lambda: r2margin.critical_r2(100, 2, 0.1, "x"),
        lambda: r2margin.run_scenario(_scenario(), [0.05], True, 0.05, 1),
        lambda: r2margin.run_scenario(_scenario(), [0.05], 10, 0.05, 1.0),
        lambda: r2margin.exchangeable_covariance(True),
        lambda: _scenario(n=60.0),
        lambda: r2margin.f_quantile(float("nan"), 2.0, 10.0),
        # ints past the float range overflow inside float()
        lambda: r2margin.TestInput(10**400, 100, 2),
        lambda: r2margin.critical_r2(100, 2, 0.1, 10**400),
        lambda: r2margin.noninferiority_pvalue(r2margin.TestInput(r2=0.2, n=100, k=2), 10**400),
        lambda: r2margin.true_p2([0.1], [[1.0]], 10**400),
        lambda: r2margin.critical_r2(10**400, 2, 0.1, 0.05),
        lambda: r2margin.upper_ci_p2(r2margin.TestInput(0.1, 10**400, 2), 0.05),
        lambda: r2margin.TestInput(0.1, 100, -(10**400)),
        lambda: r2margin.exchangeable_covariance(2, "x"),
        lambda: r2margin.exchangeable_covariance(2, None),
        lambda: r2margin.exchangeable_covariance(2, 10**400),
        # numpy's own conversion error would name neither argument
        lambda: r2margin.Scenario(id="a", n=60, k=1, beta=["a"], sigma2=1.0, sigma_matrix=[[1.0]]),
        lambda: r2margin.Scenario(id="a", n=60, k=1, beta=[0.1], sigma2=1.0, sigma_matrix=[["a"]]),
        lambda: r2margin.true_p2(["a"], [[1.0]], 1.0),
        lambda: r2margin.true_p2([0.1], [[{}]], 1.0),
        lambda: r2margin.Dataset(y=["a"] * 4, x=[[1.0]] * 4),
        lambda: r2margin.Dataset(y=[1.0] * 4, x=[[{}]] * 4),
    ],
    ids=[
        "zero-sims-record", "excess-rejections-record", "negative-rejections-record",
        "nan-beta", "overflowing-signal", "none-margin", "text-alpha",
        "bool-sims", "float-seed", "bool-k", "float-n", "nan-prob",
        "huge-int-r2", "huge-int-alpha", "huge-int-margin", "huge-int-sigma2",
        "huge-int-n-critical", "huge-int-n-bound", "huge-negative-int-k",
        "text-offdiag", "none-offdiag", "huge-int-offdiag",
        "text-beta-scenario", "text-sigma-scenario", "text-beta-true-p2", "dict-sigma-true-p2",
        "text-y-dataset", "dict-x-dataset",
    ],
)
def test_bad_arguments_raise_domain_error(call):
    with pytest.raises(errors.DomainError) as caught:
        call()
    # the message names the argument, never a 400-digit echo of it
    assert len(str(caught.value)) < 200


def test_import_loads_neither_statistics_nor_scipy():
    # Every r2margin process pays for what importing it loads: the closed
    # forms stay on math alone, and scipy serves only the tests' oracles.
    code = (
        "import sys, r2margin, r2margin.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('statistics', 'scipy')))"
    )
    src = str(pathlib.Path(r2margin.__file__).parent.parent)
    path = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert loaded.strip() == "[]"

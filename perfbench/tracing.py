"""Outside-in tracing of r2margin's public functions.

``Tracer.install`` wraps every public function of every r2margin module and
rebinds the wrapper under each module namespace that holds the original, so
calls between modules (``montecarlo`` calling ``noninferiority_pvalue``) and
within one (``f_quantile`` calling ``f_cdf``) are both seen.  It also wraps
``RandomStream.__init__`` and ``RandomStream.standard_normal``.

Two leaf numerics stay unwrapped: ``ln_gamma`` and ``reg_inc_beta`` run
inside every ``f_cdf`` call, and wrapping them would split F CDF time into
three spans and more than double the tracing cost of the hottest function.

Each call records a span (name, start, end, parent span, op id) into flat
arrays kept in memory; ``save`` writes them out once the run ends.  Self
time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

import r2margin

_MODULES = ("distributions", "inference", "regression", "montecarlo", "figures", "cli")
_UNWRAPPED = {"distributions.ln_gamma", "distributions.reg_inc_beta"}
_METHODS = {"distributions.RandomStream": ("__init__", "standard_normal")}


def _public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _wrap(self, span_name: str, fn, hook=None):
        index = len(self.names)
        self.names.append(span_name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = len(tracer.start)
            tracer.name_id.append(index)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            stack.append(span)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[span] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions; ``uninstall`` restores the originals.
        The wrappers are built once and reused by later installs."""
        if self._patches:
            for owner, attr, wrapper, _ in self._patches:
                setattr(owner, attr, wrapper)
            return
        modules = [m for name, m in sys.modules.items() if name == "r2margin" or name.startswith("r2margin.")]
        for short in _MODULES:
            module = sys.modules[f"r2margin.{short}"]
            for name, fn in _public_functions(module):
                span_name = f"{short}.{name}"
                if isinstance(fn, type):
                    for method in _METHODS.get(span_name, ()):
                        label = span_name if method == "__init__" else f"{short}.{method}"
                        original = fn.__dict__[method]
                        self._set(fn, method, self._wrap(label, original), original)
                    continue
                if span_name in _UNWRAPPED:
                    continue
                wrapper = self._wrap(span_name, fn, _HOOKS.get(span_name))
                for target in modules:
                    for attr, value in list(vars(target).items()):
                        if value is fn:
                            self._set(target, attr, wrapper, fn)

    def _set(self, owner, attr, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, wrapper, original))

    def uninstall(self) -> None:
        for owner, attr, _, original in reversed(self._patches):
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, self seconds)} over all recorded spans."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        self_time = np.bincount(names, weights=duration - children, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return {name: (int(calls[i]), float(self_time[i])) for i, name in enumerate(self.names)}

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _fixed_point_hook(tracer, args, result):
    tracer.count("fixed_point_v.iterations", result.iterations)


def _bound_hook(tracer, args, result):
    tracer.count("upper_ci_p2.iterations", result.iterations)
    # The seed code switches from plain iteration to bisection after this
    # many passes; without the constant there is no fallback to count.
    budget = getattr(r2margin.inference, "_PLAIN_ITERATION_BUDGET", None)
    if budget is not None and result.iterations > budget:
        tracer.count("upper_ci_p2.fallbacks")


def _fit_hook(tracer, args, result):
    tracer.count("fit_ols.rows", args[0].n_obs)


def _scenario_hook(tracer, args, result):
    tracer.count("run_scenario.replicates", result[0].n_sims)
    tracer.count("run_scenario.skipped", result[0].skipped)


_HOOKS = {
    "inference.fixed_point_v": _fixed_point_hook,
    "inference.upper_ci_p2": _bound_hook,
    "regression.fit_ols": _fit_hook,
    "montecarlo.run_scenario": _scenario_hook,
}

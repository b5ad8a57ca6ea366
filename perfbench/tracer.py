"""In-memory span aggregation around the public functions of each klgauss layer.

A span is opened on entry to every wrapped function or method and closed on
exit. Spans nest through one stack, so a span's self time is its duration
minus the durations of the spans opened inside it. Only per-name aggregates
are kept (calls, rows, total and self seconds): a chain makes one span per
step and layer, far too many to store one by one.

Names are ``<layer>.<function>``, with methods of every class of a layer
folded into one name (``reference.sample_centered`` covers the scalar,
periodic and bridge references). Two names are special:

* ``reference.init`` -- the constructors of the reference classes;
* ``sampling.eigh`` -- ``numpy.linalg.eigh`` called directly under
  ``sampling.eigen_factorization``, so its calls count cache misses.

``mcmc.run_chain`` spans are named ``mcmc.ref`` and ``mcmc.fit`` in call
order, the order in which ``klgauss compare`` runs its two chains.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from time import perf_counter

import numpy as np

LAYERS = ("reference", "sampling", "gaussians", "objective", "problems",
          "optimize", "mcmc", "cli")

# the argument whose row count a span records: a batch of fields or a size
_ROW_ARGS = ("fields", "u", "size")


def _rows(value) -> int:
    if isinstance(value, (int, np.integer)):
        return int(value)
    shape = np.shape(value)
    return int(shape[0]) if len(shape) >= 2 else 1


def rebind(package, replacements: dict[int, object]) -> None:
    """Point every reference a module of ``package`` holds to an object whose
    ``id`` is a key of ``replacements`` at that key's value."""
    prefix = package.__name__
    for name, module in list(sys.modules.items()):
        if module is None or not (name == prefix or name.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replacements and not attr.startswith("__"):
                setattr(module, attr, replacements[id(value)])


class Stat:
    __slots__ = ("calls", "rows", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.rows = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Wraps callables so that each call records a span into ``stats``."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        # one child-time accumulator per open span; the bottom one is the root
        self._child = [0.0]
        self._names: list[str] = [""]
        self.chains: list[dict] = []

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def wrap(self, name: str, fn, row_index: int | None = None,
             row_name: str | None = None):
        child, names = self._child, self._names
        stat = self.stat(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if row_index is not None:
                if row_index < len(args):
                    stat.rows += _rows(args[row_index])
                elif row_name in kwargs:
                    stat.rows += _rows(kwargs[row_name])
            child.append(0.0)
            names.append(name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                names.pop()
                inner = child.pop()
                child[-1] += dur
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - inner

        return traced

    def wrap_rows(self, name: str, fn):
        """Wrap ``fn``, recording rows from its first batch or size argument."""
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = []
        for arg in _ROW_ARGS:
            if arg in params:
                return self.wrap(name, fn, params.index(arg), arg)
        return self.wrap(name, fn)

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions and methods of every layer module."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    if layer == "mcmc" and attr == "run_chain":
                        replaced[id(obj)] = self._wrap_run_chain(obj)
                    else:
                        replaced[id(obj)] = self.wrap_rows(f"{layer}.{attr}", obj)
                elif isinstance(obj, type):
                    self._wrap_class(layer, obj)
        rebind(package, replaced)
        self._wrap_eigh()

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if not isinstance(value, types.FunctionType):
                continue
            if attr == "__init__" and layer == "reference":
                setattr(cls, attr, self.wrap("reference.init", value))
            elif not attr.startswith("_"):
                setattr(cls, attr, self.wrap_rows(f"{layer}.{attr}", value))

    def _wrap_eigh(self) -> None:
        eigh = np.linalg.eigh
        traced = self.wrap("sampling.eigh", eigh)
        names = self._names

        def eigh_under_factorization(*args, **kwargs):
            if names[-1] == "sampling.eigen_factorization":
                return traced(*args, **kwargs)
            return eigh(*args, **kwargs)

        np.linalg.eigh = eigh_under_factorization

    def _wrap_run_chain(self, run_chain):
        @functools.wraps(run_chain)
        def traced_run_chain(potential, *args, **kwargs):
            label = ("mcmc.ref", "mcmc.fit")[min(len(self.chains), 1)]
            record = {"label": label, "potential_calls": 0}
            self.chains.append(record)

            def counted(fields):
                record["potential_calls"] += 1
                return potential(fields)

            timed = self.wrap(label, run_chain)
            t0 = perf_counter()
            diag = timed(counted, *args, **kwargs)
            record["seconds"] = perf_counter() - t0
            record["diag"] = diag
            return diag

        return traced_run_chain

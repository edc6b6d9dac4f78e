"""In-process tracing of gmcapacity's layers, installed from outside the package.

The layers are the package's modules: ``cli``, ``solver``, ``spectra``,
``numerics`` and ``gaussian``.  Coarse public functions get spans (calls
and seconds); a layer's self time is its spans' time minus the time of
the spans they caused.  Hot scalar functions get counts only, because
timing each call would mostly measure the wrapper: ``thermal_entropy``,
``asymptotic_markov_spectrum``, ``SpectralFunction.__call__``, and the
integrands and grid objectives handed to ``integrate`` and
``grid_maximize``.

Modules bind each other's functions with ``from ... import``, so a
wrapper replaces every binding of the original function object in every
loaded gmcapacity module, not only the defining one.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "solver", "spectra", "numerics", "gaussian")

# Counted, never timed.
HOT = {
    ("gaussian", "thermal_entropy"),
    ("spectra", "asymptotic_markov_spectrum"),
}


class Tracer:
    """Span and counter store for one traced pass; install, run, uninstall."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._integration_error: type[Exception] = Exception  # set by install

    # -- spans -------------------------------------------------------------

    def run_span(self, layer: str, name: str, fn, *args, **kwargs):
        child = [0.0]
        self._stack.append(child)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            key = f"{layer}.{name}"
            self.calls[key] += 1
            self.seconds[key] += elapsed
            self.self_seconds[layer] += elapsed - child[0]
            if self._stack:
                self._stack[-1][0] += elapsed

    def _span(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.run_span(layer, name, fn, *args, **kwargs)

        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- layer-specific wrappers -------------------------------------------

    def _integrate(self, fn):
        counts = self.counts
        failure = self._integration_error

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def counted(x):
                counts["numerics.integrate.evals"] += 1
                return f(x)

            try:
                return fn(counted, *args, **kwargs)
            except failure:
                counts["numerics.integrate.failures"] += 1
                raise

        return self._span("numerics", "integrate", wrapper)

    def _grid_maximize(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(objective, *args, **kwargs):
            def counted(*point):
                counts["numerics.grid_maximize.evals"] += 1
                return objective(*point)

            return fn(counted, *args, **kwargs)

        return self._span("numerics", "grid_maximize", wrapper)

    def _symmetric_eigen(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(m, *args, **kwargs):
            n = len(m)
            counts["numerics.symmetric_eigen.n3_sum_computed"] += float(n) ** 3
            return fn(m, *args, **kwargs)

        return self._span("numerics", "symmetric_eigen", wrapper)

    def _markov_matrix(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["spectra.markov_matrix.bytes_computed"] += result.nbytes
            return result

        return self._span("spectra", "markov_matrix", wrapper)

    def _finite_n_rate(self, fn):
        calls = self.calls
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = calls["numerics.symmetric_eigen"]
            try:
                return fn(*args, **kwargs)
            finally:
                counts["solver.finite_n_rate.eigensolves"] += (
                    calls["numerics.symmetric_eigen"] - before
                )

        return self._span("solver", "finite_n_rate", wrapper)

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of every layer, in every namespace binding it."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        self._integration_error = package.numerics.IntegrationError
        special = {
            ("numerics", "integrate"): self._integrate,
            ("numerics", "grid_maximize"): self._grid_maximize,
            ("numerics", "symmetric_eigen"): self._symmetric_eigen,
            ("spectra", "markov_matrix"): self._markov_matrix,
            ("solver", "finite_n_rate"): self._finite_n_rate,
        }
        for layer in LAYERS[1:]:
            module = getattr(package, layer)
            for name in module.__all__:
                original = getattr(module, name)
                if not inspect.isfunction(original):
                    continue
                if (layer, name) in special:
                    wrapped = special[(layer, name)](original)
                elif (layer, name) in HOT:
                    wrapped = self._counter(f"{layer}.{name}.calls", original)
                else:
                    wrapped = self._span(layer, name, original)
                for namespace in modules:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patch(namespace, attr, wrapped)
        symbol = package.spectra.SpectralFunction
        self._patch(symbol, "__call__", self._counter("spectra.symbol_calls", symbol.__call__))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def load_package(src_dir: str):
    """Import gmcapacity from ``src_dir`` and nowhere else."""
    sys.path.insert(0, src_dir)
    import gmcapacity
    import gmcapacity.cli  # noqa: F401  (the package does not import its CLI)

    if not gmcapacity.__file__.startswith(src_dir):
        raise RuntimeError(f"gmcapacity was imported from {gmcapacity.__file__}")
    return gmcapacity

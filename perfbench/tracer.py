"""In-memory span tracer that wraps a package's functions at every module binding.

The package imports functions by name (``from .inference import fit_mle``), so
replacing ``inference.fit_mle`` alone would miss the callers that hold their
own binding.  The tracer therefore replaces every attribute of every loaded
module of the package that refers to the original function object, and puts
each one back on exit.  A name that no longer exists is recorded in
``absent`` instead of raising, so the benchmark keeps running after a layer is
deleted.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

OBJECTIVE = "optimize.objective"


class Tracer:
    """Record spans (name, start, end, parent) and call counts in memory.

    ``spans`` names functions whose every call becomes a span; ``counted``
    names functions whose calls are only counted (cheap enough for functions
    called millions of times); ``optimizers`` maps a function to the
    parameters holding its callbacks and the counter each callback feeds,
    e.g. ``{"f": "f_evals", "g": "g_evals"}``.  Callback calls become
    ``optimize.objective`` spans under the optimizer's span, and the
    optimizer's returned ``iterations`` (when it has one) is summed into
    ``<name>.iters``.  Results of the functions in ``keep_results`` are kept
    in call order.
    """

    def __init__(self, package: str, spans=(), counted=(), optimizers=None, keep_results=(),
                 clock: Callable[[], float] = time.perf_counter):
        self.package = package
        self.clock = clock
        self.span_names = tuple(spans)
        self.counted_names = tuple(counted)
        self.optimizers = dict(optimizers or {})
        self.keep_results = frozenset(keep_results)
        self.spans: list[list] = []          # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()     # calls of counted functions, callback evaluations, iterations
        self.results: dict[str, list] = defaultdict(list)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def install(self):
        wanted = [(nm, self._span_wrapper) for nm in self.span_names]
        wanted += [(nm, self._count_wrapper) for nm in self.counted_names]
        wanted += [(nm, self._optimizer_wrapper) for nm in self.optimizers]
        resolved = []
        for name, factory in wanted:  # resolve every original before rebinding any
            original = self._lookup(name)
            if original is None:
                self.absent.append(name)
            else:
                resolved.append((name, original, factory))
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == self.package or key.startswith(self.package + "."))]
        for name, original, factory in resolved:
            wrapper = factory(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _lookup(self, name: str):
        module_name, _, attr = name.rpartition(".")
        module = sys.modules.get(f"{self.package}.{module_name}")
        value = getattr(module, attr, None) if module is not None else None
        return value if callable(value) else None

    # -- wrappers -------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _leave(self, idx: int):
        self._stack.pop()
        self.spans[idx][2] = self.clock()

    def _span_wrapper(self, name, fn):
        keep = name in self.keep_results

        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(idx)
            if keep:
                self.results[name].append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _optimizer_wrapper(self, name, fn):
        signature = inspect.signature(fn)
        roles = self.optimizers[name]

        def callback(cb, counter):
            def evaluated(*args, **kwargs):
                self.counts[counter] += 1
                idx = self._enter(OBJECTIVE)
                try:
                    return cb(*args, **kwargs)
                finally:
                    self._leave(idx)
            return evaluated

        def optimizer(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            for param, counter in roles.items():
                if param in bound.arguments:
                    bound.arguments[param] = callback(bound.arguments[param], f"{name}.{counter}")
            idx = self._enter(name)
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                self._leave(idx)
            iterations = getattr(result, "iterations", None)
            if iterations is not None:
                self.counts[f"{name}.iters"] += iterations
            return result

        optimizer.__wrapped__ = fn
        return optimizer

    # -- summaries ------------------------------------------------------------

    def span_calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: each span's duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[idx]
        return dict(out)

    def durations(self) -> dict[str, list[float]]:
        """Inclusive span durations in seconds, per span name."""
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _ in self.spans:
            out[name].append(end - start)
        return dict(out)

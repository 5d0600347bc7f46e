"""Span wrappers around each layer's public entry points.

The benchmark's traced run installs these from its own files: the program
itself is unchanged.  A wrapper replaces a function wherever a loaded
``repro`` module binds it (so both ``module.f(...)`` and
``from module import f`` call sites see it), or replaces a method on its
class.  Each call records one span ``[name, start, end, parent]`` in
memory; :mod:`child` writes them out when the run ends.  A span's self
time is its duration minus its children's.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import sys
import time
from typing import Callable, Iterator, Optional

import workloads

# (span name, defining module, function name).  Every module that binds
# the function at import time is patched, so the modules whose call sites
# matter are imported before patching.
FUNCTIONS = (
    ("litmus.resolve", "repro.litmus.frontend.suite", "resolve_suite"),
    ("engine.evaluate", "repro.engine.scheduler", "evaluate_cells"),
    ("cells.descriptor", "repro.engine.cells", "cell_descriptor"),
    ("cache.key", "repro.engine.cache", "cell_cache_key"),
    ("axiomatic.verdict", "repro.core.axiomatic", "is_allowed"),
    ("axiomatic.verdict", "repro.core.axiomatic", "enumerate_outcomes"),
    ("operational.explore", "repro.core.operational", "explore"),
    ("workloads.trace", "repro.workloads.generator", "generate_trace"),
    ("eval.render", "repro.eval.litmus_matrix", "render_matrix"),
    ("eval.render", "repro.eval.figure18", "render_figure18"),
    ("eval.render", "repro.eval.table2", "render_table2"),
    ("eval.render", "repro.eval.table3", "render_table3"),
)

# (span name, module, class, method).
METHODS = (
    ("cache.load", "repro.engine.cache", "ResultCache", "load"),
    ("cache.store", "repro.engine.cache", "ResultCache", "store"),
    ("axiomatic.prefix", "repro.core.axiomatic", "CandidatePrefix", "__init__"),
    ("kernel.build", "repro.core.axiomatic", "CandidatePrefix", "kernel_for"),
    ("kernel.solve", "repro.core.kernel", "FrontierKernel", "final_memories"),
    ("sim.run", "repro.sim.core", "OOOCore", "run"),
)

# Call sites that look a wrapped name up in their own namespace.
CALLERS = (
    "repro.engine",
    "repro.eval.litmus_matrix",
    "repro.equivalence.checker",
    "repro.eval.figure18",
)


class Tracer:
    """In-memory span recorder for one traced CLI run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.sim_stats: dict[str, dict] = {}
        self.trace_digests: dict[str, list[str]] = {}

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the ``with`` block as one span."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self, name: str, fn: Callable, observe: Optional[Callable] = None
    ) -> Callable:
        """``fn`` recording a span per call, then ``observe(result)``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _observe_resolve(self, tests) -> None:
        self._count("litmus.tests", len(tests))

    def _observe_load(self, result) -> None:
        self._count("cache.misses" if result is None else "cache.hits")

    def _observe_trace(self, trace) -> None:
        self._count("workloads.uops", len(trace.uops))
        digests = self.trace_digests.setdefault(trace.name, [])
        digest = workloads.trace_digest(trace.uops)
        if digest not in digests:
            digests.append(digest)
            digests.sort()

    def _observe_sim(self, stats) -> None:
        # One run per checkpoint: number the runs of each (workload, policy).
        prefix = f"{stats.workload}/{stats.policy}#"
        index = sum(key.startswith(prefix) for key in self.sim_stats)
        self.sim_stats[f"{prefix}{index}"] = dataclasses.asdict(stats)

    def install(self) -> None:
        """Wrap every entry point in :data:`FUNCTIONS` and :data:`METHODS`."""
        observers = {
            "litmus.resolve": self._observe_resolve,
            "cache.load": self._observe_load,
            "workloads.trace": self._observe_trace,
            "sim.run": self._observe_sim,
        }
        for module_name in CALLERS:
            importlib.import_module(module_name)
        for name, module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, original, observers.get(name))
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for name, module_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), observers.get(name)))

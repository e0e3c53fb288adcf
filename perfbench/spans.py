"""Per-layer spans for the traced run, recorded from outside the library.

The library is not edited.  :class:`Tracer` rebinds the public functions and
methods of each layer module to timing wrappers, records one span per
invocation in memory -- layer, start, end, the enclosing span and the
top-level ``RuntimeSession.run`` call it belongs to -- and restores the
originals afterwards.  Spans are kept only inside a top-level call and only
in the process that installed the wrappers, so forked engine workers (and
the benchmark's own set-up) call straight through.

Engine workers and the compiled C report their internal time only through
the result's ``chunk_seconds``; those numbers ride along as span attributes
(``busy``) rather than as spans of their own.

:func:`summarize` turns the spans of the traced calls into the per-layer
metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import sys
import time
from typing import Callable, Dict, List

class Span:
    __slots__ = ("span_id", "parent", "call", "layer", "start", "end", "attrs")

    def __init__(self, span_id, parent, call, layer, start):
        self.span_id = span_id
        self.parent = parent
        self.call = call
        self.layer = layer
        self.start = start
        self.end = start
        self.attrs: Dict[str, object] = {}

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """Timing wrappers over the layer functions, switched on per call."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._ids = itertools.count(1)
        #: (owner, attribute, original value, wrapped value)
        self._patches: List[tuple] = []
        self._add_layers()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _wrap(self, layer: str, function: Callable, observe=None, root: bool = False):
        """``function`` recording a ``layer`` span per call.

        ``observe(args, kwargs)`` runs before the call and returns a callable
        mapping the result to span attributes (or ``None`` for no attributes).
        """
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if os.getpid() != tracer.pid or not (stack or root):
                return function(*args, **kwargs)
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            span = Span(
                span_id,
                parent.span_id if parent else None,
                parent.call if parent else span_id,
                layer,
                0.0,
            )
            after = observe(args, kwargs) if observe else None
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if after is not None:
                span.attrs.update(after(result))
            return result

        return wrapper

    def _patch_function(self, module_name: str, name: str, layer: str, observe=None) -> None:
        """Rebind ``module.name`` in every ``repro`` module that imported it."""
        original = getattr(sys.modules[module_name], name)
        wrapped = self._wrap(layer, original, observe)
        for module_key, module in list(sys.modules.items()):
            if module is None or not module_key.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attribute, original, wrapped))

    def _patch_method(self, cls, name: str, layer: str, observe=None, root=False) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(layer, raw.__func__, observe, root))
        else:
            wrapped = self._wrap(layer, raw, observe, root)
        self._patches.append((cls, name, raw, wrapped))

    def _add_layers(self) -> None:
        # imported here so every module that binds a layer function by name
        # is loaded before the rebinding scan runs
        import repro.analysis.sweep  # noqa: F401
        import repro.lint.registry  # noqa: F401
        from repro.core import collapse_cache_info
        from repro.core.batch import BatchRecovery
        from repro.kernels import all_kernels
        from repro.native.compiler import cache_dir
        from repro.native.module import NativeModule
        from repro.runtime import ExecutionPlan, ProfileStore, RuntimeEngine, RuntimeSession
        from repro.runtime.shm import SharedBuffers

        def collapse_hit(args, kwargs):
            entries = collapse_cache_info()["entries"]
            return lambda result: {"hit": collapse_cache_info()["entries"] == entries}

        def compiled_files():
            directory = cache_dir()
            return len(os.listdir(directory)) if directory.is_dir() else 0

        def compiler_miss(args, kwargs):
            before = compiled_files()
            return lambda result: {"miss": compiled_files() > before}

        def nbytes(arrays):
            return sum(int(getattr(value, "nbytes", 0)) for value in arrays.values())

        def session_backend(args, kwargs):
            backend = kwargs.get("backend", "engine")
            return lambda result: {"backend": backend}

        self._patch_method(RuntimeSession, "run", "runtime.session", session_backend, root=True)
        self._patch_function("repro.runtime.plan", "build_plan", "runtime.plan.build")
        self._patch_method(
            ExecutionPlan, "chunks", "runtime.plan.chunks",
            lambda a, k: lambda result: {"count": len(result)},
        )
        self._patch_method(ExecutionPlan, "payload", "runtime.plan.payload")
        self._patch_function("repro.core.collapse", "collapse", "core.collapse", collapse_hit)
        self._patch_method(
            BatchRecovery, "recover_range", "core.batch",
            lambda a, k: lambda result: {"pcs": int(result.shape[0])},
        )
        self._patch_function(
            "repro.core.codegen_c", "generate_translation_unit", "core.codegen_c",
            lambda a, k: lambda result: {"bytes": len(result)},
        )
        self._patch_function("repro.lint.registry", "static_check_plan", "lint")
        self._patch_function(
            "repro.native.compiler", "compile_shared_library", "native.compiler", compiler_miss
        )
        self._patch_method(
            NativeModule, "run", "native.module",
            lambda a, k: lambda result: {"busy": max(result.chunk_seconds, default=0.0)},
        )
        self._patch_method(
            SharedBuffers, "create", "runtime.shm",
            lambda a, k: lambda result: {"bytes": nbytes(result.arrays)},
        )
        self._patch_method(
            SharedBuffers, "fill_from", "runtime.shm",
            lambda a, k: lambda result: {"bytes": nbytes(a[1])},
        )
        self._patch_method(
            SharedBuffers, "snapshot", "runtime.shm",
            lambda a, k: lambda result: {"bytes": nbytes(result)},
        )
        for kernel in all_kernels():
            if kernel.make_data is not None:
                wrapped = self._wrap("kernels.make_data", kernel.make_data)
                self._patches.append((kernel, "make_data", kernel.make_data, wrapped))

        def engine_busy(args, kwargs):
            def attrs(result):
                per_worker: Dict[int, float] = {}
                for worker, seconds in zip(result.assignments, result.chunk_seconds):
                    per_worker[worker] = per_worker.get(worker, 0.0) + seconds
                return {
                    "busy": sum(result.chunk_seconds),
                    "worker_busy": max(per_worker.values(), default=0.0),
                    "workers": result.workers,
                }
            return attrs

        self._patch_method(RuntimeEngine, "execute", "runtime.engine", engine_busy)

        def profile_op(op):
            if op != "record":
                return lambda a, k: lambda result: {"op": op}
            return lambda a, k: lambda result: {"op": op, "backend": a[2]}

        for op in ("record", "load", "token", "segments"):
            self._patch_method(ProfileStore, op, "runtime.profile", profile_op(op))

    # ------------------------------------------------------------------ #
    # switching
    # ------------------------------------------------------------------ #
    @staticmethod
    def _set(owner, attribute, value) -> None:
        if isinstance(owner, type) or type(owner).__name__ == "module":
            setattr(owner, attribute, value)
        else:  # frozen dataclass instances (registered kernels)
            object.__setattr__(owner, attribute, value)

    def install(self) -> None:
        for owner, attribute, _original, wrapped in self._patches:
            self._set(owner, attribute, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, original, _wrapped in self._patches:
            self._set(owner, attribute, original)


# ---------------------------------------------------------------------- #
# aggregation
# ---------------------------------------------------------------------- #
def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def reconcile(spans: List[Span]) -> int:
    """Spans that start before or end after their parent (must be 0)."""
    by_id = {span.span_id: span for span in spans}
    violations = 0
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if span.parent is not None and parent is None:
            violations += 1
        elif parent is not None and (span.start < parent.start or span.end > parent.end):
            violations += 1
    return violations


def summarize(spans: List[Span]) -> Dict[str, float]:
    """The per-layer metrics of one traced run (see perfbench/README.md).

    Per-call timings are medians, over the traced calls in which the layer
    ran, of the layer's outermost-span time in that call; counts are totals
    over the run's traced calls.
    """
    by_id = {span.span_id: span for span in spans}

    def outermost(span: Span) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.layer == span.layer:
                return False
            parent = by_id.get(parent.parent)
        return True

    calls: Dict[int, Dict[str, List[Span]]] = {}
    for span in spans:
        if outermost(span):
            calls.setdefault(span.call, {}).setdefault(span.layer, []).append(span)
    roots = [span for span in spans if span.parent is None]
    children_ms: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            children_ms[span.parent] = children_ms.get(span.parent, 0.0) + span.ms

    def per_call(layer: str, value=lambda group: sum(s.ms for s in group)) -> float:
        return _median(value(layers[layer]) for layers in calls.values() if layer in layers)

    def every(layer: str) -> List[Span]:
        return [s for layers in calls.values() for s in layers.get(layer, ())]

    def total(layer: str, attribute: str) -> float:
        return float(sum(s.attrs.get(attribute, 0) for s in every(layer)))

    collapse_calls = every("core.collapse")
    compiles = every("native.compiler")
    engine_runs = every("runtime.engine")
    profile = every("runtime.profile")
    picks: Dict[str, int] = {"engine": 0, "hybrid": 0, "native": 0}
    auto_calls = {root.span_id for root in roots if root.attrs.get("backend") == "auto"}
    for span in profile:
        if span.call in auto_calls and span.attrs.get("op") == "record":
            picks[span.attrs["backend"]] = picks.get(span.attrs["backend"], 0) + 1
    engine_capacity = sum(s.ms * s.attrs.get("workers", 1) for s in engine_runs)
    self_ms = [root.ms - children_ms.get(root.span_id, 0.0) for root in roots]
    root_ms = sum(root.ms for root in roots)

    metrics = {
        "core.collapse.ms": per_call("core.collapse"),
        "core.collapse.calls": float(len(collapse_calls)),
        "core.collapse.hit_ratio": (
            sum(1 for s in collapse_calls if s.attrs.get("hit")) / len(collapse_calls)
            if collapse_calls else 0.0
        ),
        "core.batch.ms": per_call("core.batch"),
        "core.batch.pcs": total("core.batch", "pcs"),
        "core.codegen_c.ms": per_call("core.codegen_c"),
        "core.codegen_c.bytes": total("core.codegen_c", "bytes"),
        "lint.ms": per_call("lint"),
        "lint.calls": float(len(every("lint"))),
        "native.compiler.ms": per_call("native.compiler"),
        "native.compiler.misses": float(sum(1 for s in compiles if s.attrs.get("miss"))),
        "native.compiler.hit_ratio": (
            sum(1 for s in compiles if not s.attrs.get("miss")) / len(compiles)
            if compiles else 0.0
        ),
        "native.module.ms": per_call("native.module"),
        "native.module.busy_ms": per_call(
            "native.module", lambda group: sum(s.attrs.get("busy", 0.0) * 1e3 for s in group)
        ),
        "native.module.overhead_ms": per_call(
            "native.module", lambda group: sum(s.ms - s.attrs.get("busy", 0.0) * 1e3 for s in group)
        ),
        "runtime.plan.build_ms": per_call("runtime.plan.build"),
        "runtime.plan.chunks_ms": per_call("runtime.plan.chunks"),
        "runtime.plan.chunks_ms_max": max((s.ms for s in every("runtime.plan.chunks")), default=0.0),
        "runtime.plan.chunks": total("runtime.plan.chunks", "count"),
        "runtime.shm.ms": per_call("runtime.shm"),
        "runtime.shm.bytes": total("runtime.shm", "bytes"),
        "kernels.make_data_ms": per_call("kernels.make_data"),
        "runtime.engine.ms": per_call("runtime.engine"),
        "runtime.engine.busy_ms": per_call(
            "runtime.engine", lambda group: sum(s.attrs.get("busy", 0.0) * 1e3 for s in group)
        ),
        "runtime.engine.dispatch_ms": per_call(
            "runtime.engine",
            lambda group: sum(s.ms - s.attrs.get("worker_busy", 0.0) * 1e3 for s in group),
        ),
        "runtime.engine.utilization": (
            sum(s.attrs.get("busy", 0.0) * 1e3 for s in engine_runs) / engine_capacity
            if engine_capacity else 0.0
        ),
        "runtime.engine.registrations": float(len(every("runtime.plan.payload"))),
        "runtime.profile.ms": per_call("runtime.profile"),
        "runtime.profile.writes": float(sum(1 for s in profile if s.attrs.get("op") == "record")),
        "runtime.profile.reads": float(sum(1 for s in profile if s.attrs.get("op") != "record")),
        "runtime.session.calls": float(len(roots)),
        "runtime.session.self_ms": _median(self_ms),
        "runtime.session.self_share": sum(self_ms) / root_ms if root_ms else 0.0,
    }
    for backend, count in sorted(picks.items()):
        metrics[f"runtime.session.auto_picks.{backend}"] = float(count)
    return metrics
